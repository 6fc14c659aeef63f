// Astronomy scenario ([16] of the paper): mining user interests in a
// SkyServer-like query log via access-area distance — sharing ONLY the
// encrypted log and OPE-encrypted domains (no database content at all).
//
//   $ ./build/examples/skyserver_access_area

#include <cstdio>

#include "core/dpe.h"
#include "engine/engine.h"
#include "sql/printer.h"
#include "workload/scenarios.h"

using namespace dpe;
using namespace dpe::core;

int main() {
  workload::ScenarioOptions sopt;
  sopt.seed = 11;
  sopt.rows_per_relation = 50;
  sopt.log_size = 45;
  auto s = workload::MakeSkyServerScenario(sopt).value();
  std::printf("owner: %zu-query SkyServer-like log (photoobj/specobj)\n",
              s.log.size());

  crypto::KeyManager keys("observatory-master-key");
  auto enc = LogEncryptor::Create(CanonicalScheme(MeasureKind::kAccessArea),
                                  keys, s.database, s.log, s.domains, {})
                 .value();
  auto artifacts = enc.EncryptAll().value();
  std::printf("owner: shipped encrypted log + %zu OPE/DET-encrypted domains — "
              "NO database content\n",
              artifacts.encrypted_domains->all().size());

  // Provider: the batch mining engine over ciphertexts — DBSCAN and the
  // outlier report share one memoized distance matrix (the second Run* call
  // is served entirely from the engine's memo).
  distance::MeasureContext provider_ctx;
  provider_ctx.domains = &*artifacts.encrypted_domains;
  engine::Engine provider(provider_ctx);
  provider.SetLog(artifacts.encrypted_log);

  mining::DbscanOptions dopt;
  dopt.epsilon = 0.4;
  dopt.min_points = 3;
  auto provider_result = provider.RunDbscan("access-area", dopt).value();

  mining::OutlierOptions oopt;
  oopt.p = 0.9;
  oopt.d = 0.75;
  auto provider_outliers =
      provider.RunOutlierKnn("access-area", oopt, 3).value();

  std::printf("provider: DBSCAN found %zu interest clusters, %zu unusual "
              "queries (DB(p,D) outliers); %zu/%zu distances from the "
              "memo\n",
              provider_result.cluster_count,
              provider_outliers.outliers.outliers.size(),
              static_cast<size_t>(provider.cache_stats().hits),
              static_cast<size_t>(provider.cache_stats().hits +
                                  provider.cache_stats().misses));

  // Owner: verify against plaintext mining through the same engine API.
  distance::MeasureContext owner_ctx;
  owner_ctx.domains = &s.domains;
  engine::Engine owner(owner_ctx);
  owner.SetLog(s.log);
  auto owner_result = owner.RunDbscan("access-area", dopt).value();
  auto owner_outliers = owner.RunOutlierKnn("access-area", oopt, 3).value();

  bool clusters_same = owner_result.labels == provider_result.labels;
  bool outliers_same =
      owner_outliers.outliers.outliers == provider_outliers.outliers.outliers;
  std::printf("owner: clusters identical: %s, outliers identical: %s\n",
              clusters_same ? "YES" : "NO", outliers_same ? "YES" : "NO");

  std::printf("\nsample cluster contents (owner view):\n");
  for (size_t c = 0; c < std::min<size_t>(owner_result.cluster_count, 3); ++c) {
    std::printf("  cluster %zu:\n", c);
    int shown = 0;
    for (size_t i = 0; i < s.log.size() && shown < 2; ++i) {
      if (owner_result.labels[i] == static_cast<int>(c)) {
        std::printf("    %s\n", sql::ToSql(s.log[i]).c_str());
        ++shown;
      }
    }
  }
  return clusters_same && outliers_same ? 0 : 1;
}
