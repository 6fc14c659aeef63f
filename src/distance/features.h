// Per-query feature precomputation — the fix for the O(n²) re-tokenization
// in the token-family measures.
//
// A FeatureCache extracts each query's features exactly once — canonical
// SQL text, interned token ids (sorted set + ordered sequence), interned
// structure-feature ids — and the measures' prepared logs then run SIMD
// merge/edit kernels over sorted id spans, so an n-query matrix build does
// O(n) extractions instead of O(n²).
//
// Storage is structure-of-arrays: every interned id of every query lives in
// ONE flat uint32_t arena, laid out per query in log order
// ([token_seq][token_ids][structure_ids], queries back to back), and a
// QueryFeatures holds spans into it instead of per-query std::vectors.
// That keeps a tile's worth of queries contiguous in memory — the engine's
// blocked MatrixBuilder walks tiles over contiguous query ranges, so a
// tile's O(block²) pairs hit a warm arena instead of block² scattered heap
// allocations — and hands the SIMD kernels (common/simd.h) properly
// aligned, padding-free input. The spans alias the cache's arena: they are
// valid exactly as long as the FeatureCache lives, and the cache is
// move-only so a copy can never silently dangle them.
//
// Bit-identity: interning is a bijection on the strings/features actually
// seen, and the Jaccard / edit distances depend only on element (in)equality
// and set cardinalities, which any bijection preserves. So the featurized
// distances equal the definitions over the raw token / feature sets bit for
// bit — a tested property (prepared_distance_differential_test.cc).
//
// Extraction is split in two phases so the engine's MatrixBuilder can run
// phase 1 in parallel:
//   1. ExtractRawFeatures(q)  — print + lex + featurize one query;
//      independent per query, safe to run on any thread.
//   2. FeatureCache::Intern   — assign ids across the whole log and pack
//      the arena; serial, cheap (hash-map inserts over already-extracted
//      strings).
// FeatureCache::Compute does both serially.
//
// The bottom of this file is the plumbing the built-in measures' Prepare
// shares: ResolveFeatures (the per-row features of a list being prepared)
// and PreparedRows (the one PreparedLog implementation: a row per query and
// a cell function over two rows).

#ifndef DPE_DISTANCE_FEATURES_H_
#define DPE_DISTANCE_FEATURES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "distance/measure.h"
#include "sql/ast.h"
#include "sql/features.h"

namespace dpe::distance {

/// Everything the log-only measures need about one query, computed once.
/// The spans point into the owning FeatureCache's arena (SoA layout above).
struct QueryFeatures {
  /// Canonical SQL text (sql::ToSql).
  std::string sql;
  /// Interned lexeme id of every token, in token order (Levenshtein).
  std::span<const uint32_t> token_seq;
  /// Sorted unique interned lexeme ids (token-set Jaccard).
  std::span<const uint32_t> token_ids;
  /// Sorted unique interned structure-feature ids (structure Jaccard).
  std::span<const uint32_t> structure_ids;
};

/// Phase-1 output: one query's features before interning. Produced
/// independently per query, so parallel extraction needs no shared state.
struct RawQueryFeatures {
  std::string sql;
  std::vector<std::string> token_seq;   ///< lexemes, in token order
  std::vector<sql::Feature> structure;  ///< sorted (std::set iteration order)
};

/// Prints, lexes and featurizes one query (phase 1).
Result<RawQueryFeatures> ExtractRawFeatures(const sql::SelectQuery& query);

/// Precomputed features of a query log, looked up by query identity (the
/// address of the log's SelectQuery object). A cache is built against one
/// specific query vector and must not outlive it. Move-only: QueryFeatures
/// spans alias the arena, so moving transfers them validly (the arena's
/// heap buffer moves with it) but copying would leave the copy's spans
/// aliasing the original.
///
/// Threading contract: the cache is built once (Build populates the SoA
/// arena, possibly via ParallelFor) and is immutable afterwards, so
/// concurrent readers need no lock — the build/read phase boundary is the
/// synchronization point (ParallelFor's completion latch publishes the
/// arena to all pool threads). There is deliberately no mutex here; adding
/// per-lookup locking would put a lock in the O(n²) pair hot path.
class FeatureCache {
 public:
  FeatureCache() = default;
  FeatureCache(FeatureCache&&) = default;
  FeatureCache& operator=(FeatureCache&&) = default;
  FeatureCache(const FeatureCache&) = delete;
  FeatureCache& operator=(const FeatureCache&) = delete;

  /// Extracts + interns every query, serially; entry i is queries[i].
  static Result<FeatureCache> Compute(
      const std::vector<const sql::SelectQuery*>& queries);
  static Result<FeatureCache> Compute(
      const std::vector<sql::SelectQuery>& queries) {
    return Compute(QueryList(queries));
  }

  /// Phase 2: interns already-extracted raw features. `queries[i]` is the
  /// query `raw[i]` was extracted from; the vectors must be aligned. Arena
  /// order follows input order, so callers passing queries in log order get
  /// the tile-contiguous layout the blocked builder wants.
  static FeatureCache Intern(const std::vector<const sql::SelectQuery*>& queries,
                             std::vector<RawQueryFeatures> raw);

  /// Features of `q`, or nullptr when `q` is not one of the cached log's
  /// objects.
  const QueryFeatures* Find(const sql::SelectQuery& q) const {
    auto it = index_.find(&q);
    return it == index_.end() ? nullptr : &features_[it->second];
  }

  /// Features of the i-th query the cache was built from.
  const QueryFeatures& at(size_t i) const { return features_[i]; }

  size_t size() const { return features_.size(); }

  /// The flat id pool (exposed for tests and layout-aware benches).
  const std::vector<uint32_t>& arena() const { return arena_; }

 private:
  std::unordered_map<const sql::SelectQuery*, size_t> index_;
  std::vector<QueryFeatures> features_;
  /// One flat pool of interned ids; QueryFeatures spans slice it. Reserved
  /// to its exact upper bound before any span is taken, so it never
  /// reallocates while (or after) spans are created.
  std::vector<uint32_t> arena_;
};

/// The features of each of `queries`: from context.features when it covers
/// every query, else from a cache extracted here into `*owned` (ids are
/// only comparable within one cache). A prepared log that keeps spans of
/// them must keep `*owned` alive.
Result<std::vector<const QueryFeatures*>> ResolveFeatures(
    const std::vector<const sql::SelectQuery*>& queries,
    const MeasureContext& context, std::unique_ptr<FeatureCache>* owned);

/// The PreparedLog of every built-in measure: one Row per query (a span,
/// a view or a pointer into the measure's memo), a cell function over two
/// rows, and the feature cache the rows slice when Prepare built it.
template <typename Row, typename Cell>
class PreparedRows final : public PreparedLog {
 public:
  PreparedRows(std::vector<Row> rows, Cell cell,
               std::unique_ptr<FeatureCache> owned)
      : rows_(std::move(rows)), cell_(std::move(cell)),
        owned_(std::move(owned)) {}

  double Distance(size_t i, size_t j) const override {
    return cell_(rows_[i], rows_[j]);
  }

 private:
  std::vector<Row> rows_;
  Cell cell_;
  std::unique_ptr<FeatureCache> owned_;
};

template <typename Row, typename Cell>
std::unique_ptr<PreparedLog> MakePreparedRows(
    std::vector<Row> rows, Cell cell,
    std::unique_ptr<FeatureCache> owned = nullptr) {
  return std::make_unique<PreparedRows<Row, Cell>>(
      std::move(rows), std::move(cell), std::move(owned));
}

/// Prepare of a log-only measure: resolves the features, keeps
/// row_of(features) per query and pairs rows with `cell`.
template <typename RowOf, typename Cell>
Result<std::unique_ptr<PreparedLog>> PrepareFeatureRows(
    const std::vector<const sql::SelectQuery*>& queries,
    const MeasureContext& context, RowOf row_of, Cell cell) {
  std::unique_ptr<FeatureCache> owned;
  DPE_ASSIGN_OR_RETURN(std::vector<const QueryFeatures*> features,
                       ResolveFeatures(queries, context, &owned));
  std::vector<std::invoke_result_t<RowOf, const QueryFeatures&>> rows;
  rows.reserve(features.size());
  for (const QueryFeatures* f : features) rows.push_back(row_of(*f));
  return MakePreparedRows(std::move(rows), std::move(cell), std::move(owned));
}

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_FEATURES_H_
