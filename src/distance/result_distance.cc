#include "distance/result_distance.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "distance/features.h"
#include "distance/jaccard.h"

namespace dpe::distance {

Result<const std::vector<uint32_t>*> ResultDistance::TupleIdsOf(
    const sql::SelectQuery& q, const std::string& sql,
    const MeasureContext& context) const {
  char db_tag[32];
  std::snprintf(db_tag, sizeof(db_tag), "%p|",
                static_cast<const void*>(context.database));
  std::string key = db_tag + sql;
  auto it = cache_.find(key);
  if (it != cache_.end()) return &it->second;

  db::ExecuteOptions default_options;
  const db::ExecuteOptions& options =
      context.exec_options ? *context.exec_options : default_options;
  DPE_ASSIGN_OR_RETURN(db::ResultTable r, db::Execute(*context.database, q, options));
  std::set<std::string> tuples = r.TupleKeySet();
  std::vector<uint32_t> ids;
  ids.reserve(tuples.size());
  for (const std::string& tuple : tuples) {
    auto [id_it, inserted] = tuple_ids_.emplace(
        tuple, static_cast<uint32_t>(tuple_ids_.size()));
    (void)inserted;
    ids.push_back(id_it->second);
  }
  std::sort(ids.begin(), ids.end());
  auto [inserted, ok] = cache_.emplace(std::move(key), std::move(ids));
  (void)ok;
  return &inserted->second;
}

Result<std::unique_ptr<PreparedLog>> ResultDistance::Prepare(
    const std::vector<const sql::SelectQuery*>& queries,
    const MeasureContext& context) const {
  if (context.database == nullptr) {
    return Status::InvalidArgument(
        "result distance requires the database content (Table I)");
  }
  std::unique_ptr<FeatureCache> owned;
  DPE_ASSIGN_OR_RETURN(std::vector<const QueryFeatures*> features,
                       ResolveFeatures(queries, context, &owned));
  std::vector<std::span<const uint32_t>> rows;
  rows.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    DPE_ASSIGN_OR_RETURN(const std::vector<uint32_t>* ids,
                         TupleIdsOf(*queries[q], features[q]->sql, context));
    rows.emplace_back(*ids);
  }
  return MakePreparedRows(
      std::move(rows),
      [backend = context.kernel_backend](std::span<const uint32_t> a,
                                         std::span<const uint32_t> b) {
        return JaccardDistanceSorted(a, b, backend);
      });
}

}  // namespace dpe::distance
