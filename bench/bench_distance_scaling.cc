// Experiment P3 — provider-side cost: full pairwise distance-matrix
// computation over the encrypted artifacts vs the owner-side plaintext
// computation, as the log grows. Also splits a build of each Table-I
// measure into its two stages — Prepare (featurize, execute or extract
// once per query) and the rows through the prepared log (per cell) —
// verified bit-identical to DistanceMatrix::Compute.
// Emits BENCH_distance_scaling.json.
//
//   $ ./build/bench/bench_distance_scaling           # full sweep, n up to 256
//   $ ./build/bench/bench_distance_scaling --smoke   # CI: tiny sizes only

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "engine/matrix_builder.h"

using namespace dpe;
using namespace dpe::core;

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::JsonReport report("distance_scaling");

  std::printf("== P3a: prepared logs, prepare vs rows ==\n\n");
  std::printf("(serial, 1 thread, plaintext; prepare = a fresh measure's\n"
              " Prepare over the log incl. featurization, rows = every\n"
              " lower-triangle cell through the prepared log)\n\n");
  std::printf("%-12s %6s %11s %9s %13s %10s\n", "measure", "n", "prepare ms",
              "rows ms", "rows ns/cell", "max|delta|");
  for (size_t n : smoke ? std::vector<size_t>{64}
                        : std::vector<size_t>{64, 128, 256}) {
    workload::Scenario s = bench::MakeShop(42, 60, n);
    distance::MeasureContext ctx = s.Context();
    const std::vector<const sql::SelectQuery*> list =
        distance::QueryList(s.log);
    const double cells = static_cast<double>(n) * (n - 1) / 2;
    for (MeasureKind kind : {MeasureKind::kToken, MeasureKind::kStructure,
                             MeasureKind::kResult, MeasureKind::kAccessArea}) {
      auto measure = MakeMeasure(kind);
      Result<std::unique_ptr<distance::PreparedLog>> prepared =
          Status::Internal("not prepared");
      const double prepare_ms =
          bench::TimeMs([&] { prepared = measure->Prepare(list, ctx); });
      if (!prepared.ok()) {
        std::fprintf(stderr, "FATAL: %s\n",
                     prepared.status().ToString().c_str());
        return 1;
      }
      const distance::PreparedLog& log = **prepared;
      std::vector<double> rows(static_cast<size_t>(cells));
      const double rows_ms = bench::TimeMs([&] {
        size_t k = 0;
        for (size_t i = 1; i < n; ++i) {
          for (size_t j = 0; j < i; ++j) rows[k++] = log.Distance(j, i);
        }
      });
      // Bit-identity against the serial reference build.
      auto reference =
          distance::DistanceMatrix::Compute(s.log, *MakeMeasure(kind), ctx);
      DPE_BENCH_CHECK(reference);
      double delta = 0.0;
      size_t k = 0;
      for (size_t i = 1; i < n; ++i) {
        for (size_t j = 0; j < i; ++j, ++k) {
          delta = std::max(delta, std::fabs(rows[k] - reference->at(j, i)));
        }
      }
      if (delta != 0.0) {
        std::fprintf(stderr, "FATAL: prepared rows differ from "
                             "DistanceMatrix::Compute\n");
        return 1;
      }
      const double ns_per_cell = rows_ms * 1e6 / cells;
      std::printf("%-12s %6zu %11.2f %9.2f %13.1f %10.1e\n",
                  MeasureKindName(kind), n, prepare_ms, rows_ms, ns_per_cell,
                  delta);
      for (const auto& [metric, value] :
           {std::pair{"prepare_ms", prepare_ms}, std::pair{"rows_ms", rows_ms},
            std::pair{"rows_ns_per_cell", ns_per_cell}}) {
        report.Add(metric, value,
                   {{"measure", MeasureKindName(kind)},
                    {"n", std::to_string(n)}});
      }
    }
  }

  std::printf("\n== P3b: distance-matrix computation, plain vs encrypted ==\n\n");

  // Both sides go through the engine's blocked parallel builder (the bit-
  // identical replacement for the serial DistanceMatrix::Compute).
  common::ThreadPool pool;
  engine::MatrixBuilder builder(&pool);
  std::printf("(engine matrix builder, %zu threads)\n\n", pool.thread_count());
  std::printf("%-12s %6s %12s %12s %8s\n", "measure", "n", "plain ms",
              "encrypted ms", "ratio");

  crypto::KeyManager keys("bench-distance-scaling");
  for (size_t n : smoke ? std::vector<size_t>{25}
                        : std::vector<size_t>{25, 50, 100, 200}) {
    workload::Scenario s = bench::MakeShop(42, 60, n);
    for (MeasureKind kind : {MeasureKind::kToken, MeasureKind::kStructure,
                             MeasureKind::kResult, MeasureKind::kAccessArea}) {
      LogEncryptor enc = bench::MakeEncryptor(kind, keys, s);
      auto artifacts = enc.EncryptAll();
      DPE_BENCH_CHECK(artifacts);

      auto measure_plain = MakeMeasure(kind);
      auto measure_enc = MakeMeasure(kind);

      distance::MeasureContext plain_ctx;
      plain_ctx.database = &s.database;
      plain_ctx.domains = &s.domains;
      distance::MeasureContext enc_ctx;
      db::DomainRegistry empty;
      enc_ctx.domains = artifacts->encrypted_domains.has_value()
                            ? &*artifacts->encrypted_domains
                            : &empty;
      if (artifacts->encrypted_db.has_value()) {
        enc_ctx.database = &*artifacts->encrypted_db;
        enc_ctx.exec_options = &artifacts->provider_options;
      }

      double plain_ms = bench::TimeMs([&] {
        DPE_BENCH_CHECK(builder.Build(s.log, *measure_plain, plain_ctx));
      });
      double enc_ms = bench::TimeMs([&] {
        DPE_BENCH_CHECK(
            builder.Build(artifacts->encrypted_log, *measure_enc, enc_ctx));
      });
      std::printf("%-12s %6zu %12.1f %12.1f %8.2f\n", MeasureKindName(kind), n,
                  plain_ms, enc_ms, enc_ms / (plain_ms > 0 ? plain_ms : 1e-9));
      report.Add("plain_ms", plain_ms,
                 {{"measure", MeasureKindName(kind)}, {"n", std::to_string(n)}});
      report.Add("encrypted_ms", enc_ms,
                 {{"measure", MeasureKindName(kind)}, {"n", std::to_string(n)}});
    }
  }
  report.Write();
  std::printf(
      "\n(ratio ~ 1 means the provider pays no asymptotic penalty for "
      "working on ciphertexts;\nthe result measure's encrypted executor "
      "compares longer string keys, the access-area\nmeasure compares hex "
      "interval endpoints.)\n");
  return 0;
}
