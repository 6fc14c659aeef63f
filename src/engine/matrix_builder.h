// Parallel, cache-blocked construction of pairwise distance matrices.
//
// A build has two stages. Prepare: every query the build touches is
// printed, lexed and featurized exactly once — in parallel on the pool —
// and the measure's Prepare binds itself to that query list, resolving
// per row whatever a cell needs (feature spans, executed tuple-id sets,
// access-area maps). Rows: the pair loops call the resulting
// distance::PreparedLog by log position, so the O(n²) part does no string
// keys, hashing or allocation — O(n·extract + n²·merge) in all.
//
// The one build primitive is BuildRows: it computes rows [row_begin, n) of
// the packed lower triangle (store::Triangle — row i holds d(0..i-1, i)),
// one pool task per band of rows balanced by cell count, columns blocked
// by `block` inside each band. A cold build is BuildRows from row 0; an
// incremental build after AddQuery is BuildRows from the memo's row count.
// distance::DistanceMatrix stores the same packed triangle, so a build's
// rows become the matrix as they are: nothing expands them to n x n.
// BuildTiles covers the shard path's tile ranges. Every cell is
// PreparedLog::Distance with the smaller index first — the call the
// serial DistanceMatrix::Compute makes — so the parallel result is
// bit-identical to the serial one, a tested guarantee.

#ifndef DPE_ENGINE_MATRIX_BUILDER_H_
#define DPE_ENGINE_MATRIX_BUILDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "distance/features.h"
#include "distance/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpe::engine {

struct MatrixBuilderOptions {
  /// Tile edge (queries per block) of the blocked schedule. Must be >= 1;
  /// every build entry point validates this and returns InvalidArgument on
  /// a zero block instead of dividing by it.
  size_t block = 64;

  /// Where build counters land (per-measure distance calls, resolved
  /// kernel-backend gauge, stage-latency histograms). Null means the
  /// process default registry — instrumentation is always on, and cheap:
  /// one counter add per tile, not per pair.
  obs::MetricsRegistry* metrics = nullptr;

  /// Span capture for chrome://tracing. Null (or a disabled buffer) skips
  /// span recording entirely; stage timings still reach `metrics`.
  obs::TraceBuffer* trace = nullptr;

  /// Optional live progress conduit: when set, the builder adds each
  /// completed tile's (or row band's) cell count here (relaxed, one add per
  /// tile or band — same cadence as the distance.calls counter). Lets a long build be watched
  /// from another thread (the shard lease table reports it) without
  /// touching the metrics registry per tile. Not owned; must outlive the
  /// build.
  std::atomic<uint64_t>* progress_cells = nullptr;
};

class MatrixBuilder {
 public:
  /// `pool` may be null: everything then runs serially on the caller.
  explicit MatrixBuilder(common::ThreadPool* pool,
                         MatrixBuilderOptions options = {})
      : pool_(pool), options_(options) {}

  /// Full pairwise matrix over `queries`: BuildRows from row 0, adopted as
  /// the matrix's packed cells without a copy.
  Result<distance::DistanceMatrix> Build(
      const std::vector<sql::SelectQuery>& queries,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context) const;

  /// Builds only tiles [tile_begin, tile_end) of the deterministic
  /// TileSchedule (engine/shard.h) into an n x n matrix; cells outside the
  /// range stay zero. Only the queries those tiles touch are featurized and
  /// prepared. This is the shard worker's compute path — Build is the full
  /// range — so a k-shard build traverses exactly the tiles, in exactly the
  /// per-tile order, of the single-process build. OutOfRange if the tile
  /// range exceeds the schedule.
  Result<distance::DistanceMatrix> BuildTiles(
      const std::vector<sql::SelectQuery>& queries,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context, size_t tile_begin,
      size_t tile_end) const;

  /// Rows [row_begin, n) of the packed lower triangle over `queries`, back
  /// to back: row i is d(queries[j], queries[i]) for j < i, starting at
  /// offset TriangleCells(i) - TriangleCells(row_begin). Precomputes
  /// features, prepares the measure over the whole log, then computes the
  /// rows in bands balanced by cell count. OutOfRange if row_begin > n.
  Result<std::vector<double>> BuildRows(
      const std::vector<sql::SelectQuery>& queries,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context, size_t row_begin) const;

 private:
  /// InvalidArgument unless the options are usable (block >= 1). Every
  /// public entry point calls this first — a zero block would otherwise
  /// divide by zero in the tile-count computation.
  Status ValidateOptions() const;

  /// The registry build counters land in: options_.metrics or the process
  /// default.
  obs::MetricsRegistry& Metrics() const;

  /// Extracts raw features of `selected` in parallel (phase 1 of
  /// distance/features.h), then interns serially (phase 2).
  Result<distance::FeatureCache> PrecomputeFeatures(
      const std::vector<const sql::SelectQuery*>& selected) const;

  /// Featurizes `selected` into `features` and prepares `measure` over
  /// it; position k of the returned log is selected[k]. `features` must
  /// outlive the log.
  Result<std::unique_ptr<distance::PreparedLog>> PrepareSelected(
      const std::vector<const sql::SelectQuery*>& selected,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context,
      distance::FeatureCache* features) const;

  common::ThreadPool* pool_;  ///< not owned
  MatrixBuilderOptions options_;
};

}  // namespace dpe::engine

#endif  // DPE_ENGINE_MATRIX_BUILDER_H_
