// Checkpoint bench: cold-build vs restore-then-incremental, so the perf
// trajectory captures restart cost. A provider that mined N queries, saved
// a checkpoint and restarted with M new arrivals should pay only the new
// rows — O(M * (N + M)) distances instead of O((N + M)^2) — plus the codec
// round-trip.
//
// It is also a gate: the process exits 1 unless, for every measure,
// restore + incremental is faster than the cold build in the same run
// (best of five alternating timings each, so one scheduler hiccup or slow
// host phase cannot flip it).
//
//   $ ./build/bench/bench_checkpoint               # N = 1024, M = 32
//   $ ./build/bench/bench_checkpoint --smoke       # CI leg: N = 1024, M = 8
//   $ DPE_BENCH_N=96 DPE_BENCH_M=16 ./build/bench/bench_checkpoint

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench/bench_util.h"
#include "engine/engine.h"
#include "store/matrix_store.h"

using namespace dpe;

int main(int argc, char** argv) {
  // A restart typically brings few new queries to a long log, so the
  // gate's sizes keep M small against N.
  size_t n = 1024;
  size_t m = 32;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) m = 8;
  }
  if (const char* env = std::getenv("DPE_BENCH_N")) {
    n = static_cast<size_t>(std::atoll(env));
  }
  if (const char* env = std::getenv("DPE_BENCH_M")) {
    m = static_cast<size_t>(std::atoll(env));
  }

  std::printf("== checkpoint: cold build vs restore + incremental ==\n\n");
  std::printf("initial log N = %zu, appended M = %zu (%zu of %zu pairs are "
              "new)\n\n",
              n, m, (n + m) * (n + m - 1) / 2 - n * (n - 1) / 2,
              (n + m) * (n + m - 1) / 2);

  workload::Scenario s = bench::MakeShop(42, 60, n + m);
  namespace fs = std::filesystem;
  const std::string pristine =
      (fs::temp_directory_path() / "dpe_bench_checkpoint_pristine").string();
  const std::string dir =
      (fs::temp_directory_path() / "dpe_bench_checkpoint").string();
  fs::remove_all(pristine);
  constexpr int kRepeats = 5;
  bool gate_ok = true;

  std::printf("%-10s %14s %14s %12s %9s\n", "measure", "cold ms", "restore ms",
              "incr ms", "speedup");
  std::printf("(best of %d runs each)\n", kRepeats);

  bench::JsonReport report("checkpoint");
  for (const char* name : {"token", "structure"}) {
    // Session 1: mine the first N queries and checkpoint.
    {
      engine::Engine session1(s.Context(), {.threads = 2});
      session1.SetLog({s.log.begin(), s.log.begin() + n});
      DPE_BENCH_CHECK(session1.BuildMatrix(name));
      auto saved = session1.SaveCheckpoint(pristine);
      if (!saved.ok()) {
        std::fprintf(stderr, "FATAL: %s\n", saved.ToString().c_str());
        return 1;
      }
    }

    // Each repeat times a cold build over all N+M queries (what a restart
    // without persistence pays), then session 2 "after the restart":
    // restore an untouched copy of the checkpoint (the appends journal
    // into it), append M, rebuild. Alternating the two keeps a slow phase
    // of the host from landing on one side only.
    double cold_ms = 1e300;
    double restore_ms = 1e300;
    double incr_ms = 1e300;
    double best_total = 1e300;
    engine::CheckpointLoadReport best_load;
    std::string engine_stats;
    for (int r = 0; r < kRepeats; ++r) {
      distance::DistanceMatrix cold_matrix;
      {
        engine::Engine cold(s.Context(), {.threads = 2});
        cold.SetLog(s.log);
        cold_ms = std::min(cold_ms, bench::TimeMs([&] {
          auto built = cold.BuildMatrix(name);
          DPE_BENCH_CHECK(built);
          cold_matrix = std::move(built).value();
        }));
      }

      fs::remove_all(dir);
      fs::copy(pristine, dir);
      engine::Engine session2(s.Context(), {.threads = 2});
      engine::CheckpointLoadReport load_report;
      const double load = bench::TimeMs([&] {
        auto loaded = session2.LoadCheckpoint(dir, &load_report);
        if (!loaded.ok()) {
          std::fprintf(stderr, "FATAL: %s\n", loaded.ToString().c_str());
          std::exit(1);
        }
      });
      distance::DistanceMatrix incremental;
      const double incr = bench::TimeMs([&] {
        for (size_t i = n; i < n + m; ++i) {
          if (!session2.AddQuery(s.log[i]).ok()) std::exit(1);
        }
        auto built = session2.BuildMatrix(name);
        DPE_BENCH_CHECK(built);
        incremental = std::move(built).value();
      });
      auto delta =
          distance::DistanceMatrix::MaxAbsDifference(cold_matrix, incremental);
      DPE_BENCH_CHECK(delta);
      if (*delta != 0.0) {
        std::fprintf(stderr,
                     "FATAL: restored matrix differs from cold build\n");
        return 1;
      }
      if (load + incr < best_total) {
        best_total = load + incr;
        restore_ms = load;
        incr_ms = incr;
        best_load = load_report;
      }
      // The restored engine's stats carry the memo/journal counters the
      // restore path exercised (last measure wins).
      engine_stats = session2.Stats().ToJson();
    }

    const double speedup = cold_ms / std::max(best_total, 1e-9);
    std::printf("%-10s %14.1f %14.1f %12.1f %8.2fx\n", name, cold_ms,
                restore_ms, incr_ms, speedup);
    report.Add("cold_build_ms", cold_ms, {{"measure", name}});
    report.Add("restore_ms", restore_ms, {{"measure", name}});
    report.Add("incremental_ms", incr_ms, {{"measure", name}});
    report.Add("restore_speedup", speedup, {{"measure", name}});
    for (const obs::StageTiming& stage : best_load.stages) {
      report.Add("restore_stage_ms", stage.ms,
                 {{"measure", name}, {"stage", stage.name}});
    }
    report.SetEngineStats(engine_stats);
    if (best_total >= cold_ms) {
      std::fprintf(stderr,
                   "GATE: %s restore + incremental (%.1f ms) is not faster "
                   "than a cold build (%.1f ms)\n",
                   name, best_total, cold_ms);
      gate_ok = false;
    }
  }

  // What the journal recorded for the last measure: only the new rows.
  auto store = store::MatrixStore::Open(dir);
  DPE_BENCH_CHECK(store);
  auto journal = store->ReadJournal();
  DPE_BENCH_CHECK(journal);
  size_t rows = 0, min_row = SIZE_MAX;
  for (const auto& record : *journal) {
    if (record.kind != store::JournalRecord::Kind::kRowComputed) continue;
    ++rows;
    min_row = std::min<size_t>(min_row, record.row);
  }
  std::printf("\n(journal after restart: %zu row records, lowest row %zu — "
              "only appended\nrows were recomputed; every restored matrix was "
              "verified bit-identical to\nits cold build.)\n",
              rows, min_row);
  fs::remove_all(dir);
  fs::remove_all(pristine);
  report.Write();
  return gate_ok ? 0 : 1;
}
