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

/// Longest text Parse accepts, in bytes. Longer input is a ParseError
/// before any token is produced, so hostile text cannot make the lexer
/// allocate without bound. The workload generators' queries, encrypted
/// ones included, stay under 1 KiB.
inline constexpr size_t kMaxQueryBytes = size_t{1} << 20;

/// Parses one SELECT statement; the whole input must be consumed.
Result<SelectQuery> Parse(std::string_view text);

}  // namespace dpe::sql

#endif  // DPE_SQL_PARSER_H_
