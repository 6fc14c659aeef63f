// Recursive-descent parser for the SQL subset (DESIGN.md §5.3).

#ifndef DPE_SQL_PARSER_H_
#define DPE_SQL_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "sql/ast.h"

namespace dpe::sql {

/// Deepest predicate nesting Parse accepts: each '(' or NOT opens one
/// level. Deeper input is a ParseError, so hostile text (a persisted log
/// is re-parsed on every restore) cannot recurse the parser off the stack.
inline constexpr size_t kMaxPredicateDepth = 256;

/// Parses one SELECT statement; the whole input must be consumed.
Result<SelectQuery> Parse(std::string_view text);

}  // namespace dpe::sql

#endif  // DPE_SQL_PARSER_H_
