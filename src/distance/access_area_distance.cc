#include "distance/access_area_distance.h"

#include <algorithm>

#include "distance/features.h"

namespace dpe::distance {

namespace {

using AreaMap = std::map<std::string, db::IntervalSet>;

double Delta(const db::IntervalSet& a1, const db::IntervalSet& a2, double x) {
  if (a1 == a2) return 0.0;
  return a1.Intersects(a2) ? x : 1.0;
}

/// The Definition-5 average as a merge walk over the two name-sorted maps:
/// it visits Attr_{Q1,Q2} in name order, the order a std::set of the names
/// would, so the floating-point sum is the same for any x.
double AreaDistance(const AreaMap& areas1, const AreaMap& areas2, double x) {
  const db::IntervalSet none;
  double sum = 0.0;
  size_t attrs = 0;
  auto it1 = areas1.begin();
  auto it2 = areas2.begin();
  while (it1 != areas1.end() || it2 != areas2.end()) {
    const int c = it1 == areas1.end()   ? 1
                  : it2 == areas2.end() ? -1
                                        : it1->first.compare(it2->first);
    if (c < 0) {
      sum += Delta(it1->second, none, x);
      ++it1;
    } else if (c > 0) {
      sum += Delta(none, it2->second, x);
      ++it2;
    } else {
      sum += Delta(it1->second, it2->second, x);
      ++it1;
      ++it2;
    }
    ++attrs;
  }
  if (attrs == 0) return 0.0;  // neither query accesses anything
  return sum / static_cast<double>(attrs);
}

}  // namespace

bool AccessAreaDistance::SameDomains(const db::DomainRegistry& domains) const {
  const auto& all = domains.all();
  return all.size() == cached_domain_snapshot_.size() &&
         std::equal(all.begin(), all.end(), cached_domain_snapshot_.begin(),
                    [](const auto& a, const auto& b) {
                      return a.first == b.first &&
                             a.second.min == b.second.min &&
                             a.second.max == b.second.max;
                    });
}

Result<std::unique_ptr<PreparedLog>> AccessAreaDistance::Prepare(
    const std::vector<const sql::SelectQuery*>& queries,
    const MeasureContext& context) const {
  if (context.domains == nullptr) {
    return Status::InvalidArgument(
        "access-area distance requires shared attribute domains (Table I)");
  }
  if (context.domains != cached_domains_ || !SameDomains(*context.domains)) {
    cache_.clear();
    cached_domains_ = context.domains;
    cached_domain_snapshot_ = context.domains->all();
  }
  std::unique_ptr<FeatureCache> owned;
  DPE_ASSIGN_OR_RETURN(std::vector<const QueryFeatures*> features,
                       ResolveFeatures(queries, context, &owned));
  std::vector<const AreaMap*> rows;
  rows.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto it = cache_.find(features[q]->sql);
    if (it == cache_.end()) {
      DPE_ASSIGN_OR_RETURN(
          AreaMap areas,
          db::AccessAreas(*queries[q], *context.domains, options_.extraction));
      it = cache_.emplace(features[q]->sql, std::move(areas)).first;
    }
    rows.push_back(&it->second);
  }
  return MakePreparedRows(
      std::move(rows), [x = options_.x](const AreaMap* a1, const AreaMap* a2) {
        return AreaDistance(*a1, *a2, x);
      });
}

}  // namespace dpe::distance
