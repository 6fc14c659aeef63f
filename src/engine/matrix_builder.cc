#include "engine/matrix_builder.h"

#include <algorithm>
#include <optional>

#include "common/simd.h"
#include "engine/shard.h"
#include "store/codec.h"

namespace dpe::engine {

Status MatrixBuilder::ValidateOptions() const {
  if (options_.block == 0) {
    return Status::InvalidArgument(
        "matrix builder: block must be >= 1 (got 0)");
  }
  return Status::OK();
}

obs::MetricsRegistry& MatrixBuilder::Metrics() const {
  return options_.metrics != nullptr ? *options_.metrics
                                     : obs::MetricsRegistry::Default();
}

Result<distance::FeatureCache> MatrixBuilder::PrecomputeFeatures(
    const std::vector<const sql::SelectQuery*>& selected) const {
  // `selected` is in log order, and Intern packs the SoA arena in input
  // order — so a tile's query range occupies one contiguous arena stripe
  // and the tile's O(block²) pairs run over warm, padding-free spans.
  const size_t n = selected.size();
  std::vector<distance::RawQueryFeatures> raw(n);

  // Phase 1 — print + lex + featurize each query, one task per chunk.
  obs::TraceSpan featurize_span("build.featurize", options_.trace);
  DPE_RETURN_NOT_OK(common::ParallelForStatus(
      pool_, 0, n, std::max<size_t>(1, options_.block / 4),
      [&](size_t begin, size_t end) -> Status {
        for (size_t q = begin; q < end; ++q) {
          DPE_ASSIGN_OR_RETURN(raw[q],
                               distance::ExtractRawFeatures(*selected[q]));
        }
        return Status::OK();
      }));
  featurize_span.End();

  // Phase 2 — intern serially (cheap; deterministic id assignment).
  obs::TraceSpan intern_span("build.intern", options_.trace);
  return distance::FeatureCache::Intern(selected, std::move(raw));
}

Result<std::unique_ptr<distance::PreparedLog>> MatrixBuilder::PrepareSelected(
    const std::vector<const sql::SelectQuery*>& selected,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context,
    distance::FeatureCache* features) const {
  DPE_ASSIGN_OR_RETURN(*features, PrecomputeFeatures(selected));
  distance::MeasureContext ctx = context;
  ctx.features = features;
  return measure.Prepare(selected, ctx);
}

Result<distance::DistanceMatrix> MatrixBuilder::Build(
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context) const {
  DPE_ASSIGN_OR_RETURN(std::vector<double> rows,
                       BuildRows(queries, measure, context, 0));
  return distance::DistanceMatrix::FromPacked(queries.size(), std::move(rows));
}

Result<std::vector<double>> MatrixBuilder::BuildRows(
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context, size_t row_begin) const {
  DPE_RETURN_NOT_OK(ValidateOptions());
  DPE_RETURN_NOT_OK(common::simd::ValidateBackend(context.kernel_backend));
  const size_t n = queries.size();
  if (row_begin > n) {
    return Status::OutOfRange("matrix builder: row " +
                              std::to_string(row_begin) + " is past a log of " +
                              std::to_string(n) + " queries");
  }
  const uint64_t base = store::TriangleCells(row_begin);
  std::vector<double> rows(store::TriangleCells(n) - base);
  if (rows.empty()) return rows;

  // Bands of whole rows holding about one tile's worth of cells each (row
  // i has i cells), so pool tasks carry equal work however skewed the row
  // range is.
  const size_t block = options_.block;
  const uint64_t band_cells = std::max<uint64_t>(1, uint64_t{block} * block);
  std::vector<size_t> bounds{row_begin};
  uint64_t acc = 0;
  for (size_t i = row_begin; i + 1 < n; ++i) {
    acc += i;
    if (acc >= band_cells) {
      bounds.push_back(i + 1);
      acc = 0;
    }
  }
  bounds.push_back(n);

  obs::MetricsRegistry& metrics = Metrics();
  obs::Counter& distance_calls = metrics.counter(
      "distance.calls", {{"measure", std::string(measure.Name())}});
  metrics
      .gauge("kernel.backend",
             {{"backend",
               common::simd::BackendName(
                   common::simd::KernelsFor(context.kernel_backend).backend)}})
      .Set(1);

  // Every new row pairs with every column below it, so every query is used.
  obs::TraceSpan prepare_span(
      "build.prepare", options_.trace,
      &metrics.histogram("build.stage_ms", {{"stage", "prepare"}}));
  distance::FeatureCache features;
  DPE_ASSIGN_OR_RETURN(
      std::unique_ptr<distance::PreparedLog> log,
      PrepareSelected(distance::QueryList(queries), measure, context,
                      &features));
  prepare_span.End();

  obs::TraceSpan rows_span(
      "build.rows", options_.trace,
      &metrics.histogram("build.stage_ms", {{"stage", "rows"}}));
  const bool band_spans =
      options_.trace != nullptr && options_.trace->enabled();
  DPE_RETURN_NOT_OK(common::ParallelForStatus(
      pool_, 0, bounds.size() - 1, 1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t band = begin; band < end; ++band) {
          const size_t lo = bounds[band];
          const size_t hi = bounds[band + 1];
          std::optional<obs::TraceSpan> band_span;
          if (band_spans) {
            band_span.emplace("build.band." + std::to_string(band),
                              options_.trace);
          }
          // Column blocks outermost: one block of column features stays
          // warm while every row of the band pairs with it.
          for (size_t jb = 0; jb + 1 < hi; jb += block) {
            for (size_t i = std::max(lo, jb + 1); i < hi; ++i) {
              double* row = rows.data() + (store::TriangleCells(i) - base);
              const size_t j_end = std::min(jb + block, i);
              for (size_t j = jb; j < j_end; ++j) row[j] = log->Distance(j, i);
            }
          }
          const uint64_t cells =
              store::TriangleCells(hi) - store::TriangleCells(lo);
          distance_calls.Increment(cells);
          if (options_.progress_cells != nullptr) {
            options_.progress_cells->fetch_add(cells,
                                               std::memory_order_relaxed);
          }
        }
        return Status::OK();
      }));
  rows_span.End();
  return rows;
}

Result<distance::DistanceMatrix> MatrixBuilder::BuildTiles(
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context, size_t tile_begin,
    size_t tile_end) const {
  DPE_RETURN_NOT_OK(ValidateOptions());
  // An explicitly requested kernel backend this CPU cannot run fails the
  // build loudly here; the kernel dispatch would otherwise degrade
  // silently (same distances, but not what the operator asked to measure).
  DPE_RETURN_NOT_OK(common::simd::ValidateBackend(context.kernel_backend));
  const size_t n = queries.size();
  const size_t block = options_.block;
  const std::vector<std::pair<size_t, size_t>> tiles = TileSchedule(n, block);
  if (tile_begin > tile_end || tile_end > tiles.size()) {
    return Status::OutOfRange(
        "matrix builder: tile range [" + std::to_string(tile_begin) + ", " +
        std::to_string(tile_end) + ") outside schedule of " +
        std::to_string(tiles.size()) + " tiles");
  }

  // Featurize + prepare only the queries the requested tiles touch: a shard
  // building a few tiles must not pay feature extraction for the whole log.
  // position[q] is query q's row in the prepared log.
  std::vector<bool> used(n, false);
  for (size_t t = tile_begin; t < tile_end; ++t) {
    const auto [bi, bj] = tiles[t];
    for (size_t i = bi * block; i < std::min(n, (bi + 1) * block); ++i) {
      used[i] = true;
    }
    for (size_t j = bj * block; j < std::min(n, (bj + 1) * block); ++j) {
      used[j] = true;
    }
  }
  std::vector<const sql::SelectQuery*> selected;
  std::vector<size_t> position(n);
  for (size_t q = 0; q < n; ++q) {
    if (!used[q]) continue;
    position[q] = selected.size();
    selected.push_back(&queries[q]);
  }
  // Resolve instruments once per build — never inside the pair loops.
  obs::MetricsRegistry& metrics = Metrics();
  obs::Counter& distance_calls = metrics.counter(
      "distance.calls", {{"measure", std::string(measure.Name())}});
  metrics
      .gauge("kernel.backend",
             {{"backend",
               common::simd::BackendName(
                   common::simd::KernelsFor(context.kernel_backend).backend)}})
      .Set(1);

  obs::TraceSpan prepare_span(
      "build.prepare", options_.trace,
      &metrics.histogram("build.stage_ms", {{"stage", "prepare"}}));
  distance::FeatureCache features;
  DPE_ASSIGN_OR_RETURN(
      std::unique_ptr<distance::PreparedLog> log,
      PrepareSelected(selected, measure, context, &features));
  prepare_span.End();

  distance::DistanceMatrix m(n);
  // One tile per chunk. Cell (i, j), i < j, belongs to exactly one tile,
  // so no two tasks write the same packed cell.
  obs::TraceSpan tiles_span(
      "build.tiles", options_.trace,
      &metrics.histogram("build.stage_ms", {{"stage", "tiles"}}));
  const bool tile_spans =
      options_.trace != nullptr && options_.trace->enabled();
  DPE_RETURN_NOT_OK(common::ParallelForStatus(
      pool_, tile_begin, tile_end, 1, [&](size_t begin, size_t end) -> Status {
        for (size_t t = begin; t < end; ++t) {
          const auto [bi, bj] = tiles[t];
          std::optional<obs::TraceSpan> tile_span;
          if (tile_spans) {
            tile_span.emplace("build.tile." + std::to_string(t),
                              options_.trace);
          }
          ForEachTileCell(n, block, bi, bj, [&](size_t i, size_t j) {
            m.SetUnchecked(i, j, log->Distance(position[i], position[j]));
          });
          // One add per completed tile covers its whole upper-triangle
          // cell set — per-pair counting would perturb the hot path.
          const uint64_t tile_cells = TileCellCount(n, block, bi, bj);
          distance_calls.Increment(tile_cells);
          if (options_.progress_cells != nullptr) {
            options_.progress_cells->fetch_add(tile_cells,
                                               std::memory_order_relaxed);
          }
        }
        return Status::OK();
      }));
  tiles_span.End();
  return m;
}

}  // namespace dpe::engine
