// Query-result distance (paper §IV-B-3): Jaccard over the sets of result
// tuples. Requires the database content (Table I row 3); both queries are
// executed against context.database.
//
// Prepare executes each query once and interns its result tuples into a
// sorted id vector, memoized by (database, SQL text) across calls; the
// prepared log holds one span of ids per row, so a cell is a merge
// intersection over ids instead of a string-set walk. Interning is a
// bijection on the tuple keys actually seen, so the Jaccard values are
// bit-identical to the direct string-set computation.

#ifndef DPE_DISTANCE_RESULT_DISTANCE_H_
#define DPE_DISTANCE_RESULT_DISTANCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "distance/measure.h"

namespace dpe::distance {

class ResultDistance final : public QueryDistanceMeasure {
 public:
  std::string Name() const override { return "result"; }
  SharedInformation Shared() const override { return {true, true, false}; }
  /// Executes every query not yet in the memo; the log's rows point into
  /// the memo.
  Result<std::unique_ptr<PreparedLog>> Prepare(
      const std::vector<const sql::SelectQuery*>& queries,
      const MeasureContext& context) const override;

 private:
  /// Sorted interned tuple ids of `q` (canonical text `sql`), memoized per
  /// (database, SQL text) so a query is executed once across builds.
  Result<const std::vector<uint32_t>*> TupleIdsOf(
      const sql::SelectQuery& q, const std::string& sql,
      const MeasureContext& context) const;

  mutable std::map<std::string, std::vector<uint32_t>> cache_;
  /// Tuple key -> id, shared across the cached queries (one id space per
  /// measure instance; Jaccard only needs ids consistent within it).
  mutable std::unordered_map<std::string, uint32_t> tuple_ids_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_RESULT_DISTANCE_H_
