#include "distance/structure_distance.h"

#include "distance/features.h"
#include "distance/jaccard.h"

namespace dpe::distance {

Result<std::unique_ptr<PreparedLog>> StructureDistance::Prepare(
    const std::vector<const sql::SelectQuery*>& queries,
    const MeasureContext& context) const {
  return PrepareFeatureRows(
      queries, context, [](const QueryFeatures& f) { return f.structure_ids; },
      [backend = context.kernel_backend](std::span<const uint32_t> a,
                                         std::span<const uint32_t> b) {
        return JaccardDistanceSorted(a, b, backend);
      });
}

}  // namespace dpe::distance
