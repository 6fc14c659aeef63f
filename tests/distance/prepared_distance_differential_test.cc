// Differential oracle for the distance layer: every cell every build path
// produces — DistanceMatrix::Compute, MatrixBuilder::BuildRows from several
// starts, BuildTiles over subranges, and the per-pair Distance call — must
// equal, bit for bit, a reference written in this file straight from the
// paper's definitions over the un-interned inputs:
//
//   token / structure / result   std::set Jaccard over sql::TokenSet,
//                                sql::Features and the executed TupleKeySet;
//   access-area                  Definition 5 over db::AccessAreas, with a
//                                std::set of attribute names and
//                                !Intersect().IsEmpty() for overlap;
//   levenshtein-token / -char    EditDistance over lexemes / characters.
//
// The cases cover all six built-in measures (access-area at x = 0.5 and at
// the non-dyadic x = 0.3, whose sums depend on the addition order), on
// plaintext logs and on the ciphertext logs of all four canonical Table-I
// schemes, over Shop and SkyServer scenarios and several seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/tiles.h"
#include "core/log_encryptor.h"
#include "db/access_area.h"
#include "db/executor.h"
#include "distance/access_area_distance.h"
#include "distance/features.h"
#include "distance/levenshtein_distance.h"
#include "distance/matrix.h"
#include "distance/result_distance.h"
#include "distance/structure_distance.h"
#include "distance/token_distance.h"
#include "engine/matrix_builder.h"
#include "sql/features.h"
#include "sql/lexer.h"
#include "sql/printer.h"
#include "store/codec.h"
#include "tests/scenario_test_util.h"

namespace dpe::distance {
namespace {

using AreaMap = std::map<std::string, db::IntervalSet>;

// ---------------------------------------------------------------------------
// Test-local reference distances.

template <typename T>
double RefJaccard(const std::set<T>& a, const std::set<T>& b) {
  if (a.empty() && b.empty()) return 0.0;
  std::vector<T> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  const size_t uni = a.size() + b.size() - both.size();
  return 1.0 - static_cast<double>(both.size()) / static_cast<double>(uni);
}

double RefAccessArea(const AreaMap& a, const AreaMap& b, double x) {
  std::set<std::string> attrs;
  for (const auto& [attr, area] : a) attrs.insert(attr);
  for (const auto& [attr, area] : b) attrs.insert(attr);
  if (attrs.empty()) return 0.0;
  const db::IntervalSet none;
  double sum = 0.0;
  for (const std::string& attr : attrs) {
    auto ia = a.find(attr);
    auto ib = b.find(attr);
    const db::IntervalSet& sa = ia != a.end() ? ia->second : none;
    const db::IntervalSet& sb = ib != b.end() ? ib->second : none;
    if (sa == sb) {
      sum += 0.0;
    } else if (!sa.Intersect(sb).IsEmpty()) {
      sum += x;
    } else {
      sum += 1.0;
    }
  }
  return sum / static_cast<double>(attrs.size());
}

double RefEdit(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(EditDistance(a, b)) /
         static_cast<double>(longest);
}

/// Everything the reference needs about one query, extracted without any
/// of the measures' own machinery.
struct RefQuery {
  std::set<std::string> tokens;
  std::set<sql::Feature> features;
  std::vector<std::string> lexemes;
  std::vector<std::string> chars;
  std::set<std::string> tuples;  ///< when the context carries a database
  std::map<std::string, AreaMap> areas;  ///< by measure name, with domains
};

/// One measure under test plus its reference cell function.
struct Case {
  std::string label;
  std::unique_ptr<QueryDistanceMeasure> measure;
  bool needs_db = false;
  bool needs_domains = false;
  double (*reference)(const RefQuery&, const RefQuery&, const Case&) = nullptr;
  double x = 0.0;  ///< access-area only
};

double RefTokenCell(const RefQuery& a, const RefQuery& b, const Case&) {
  return RefJaccard(a.tokens, b.tokens);
}
double RefStructureCell(const RefQuery& a, const RefQuery& b, const Case&) {
  return RefJaccard(a.features, b.features);
}
double RefResultCell(const RefQuery& a, const RefQuery& b, const Case&) {
  return RefJaccard(a.tuples, b.tuples);
}
double RefAccessAreaCell(const RefQuery& a, const RefQuery& b,
                         const Case& c) {
  return RefAccessArea(a.areas.at(c.label), b.areas.at(c.label), c.x);
}
double RefLevTokenCell(const RefQuery& a, const RefQuery& b, const Case&) {
  return RefEdit(a.lexemes, b.lexemes);
}
double RefLevCharCell(const RefQuery& a, const RefQuery& b, const Case&) {
  return RefEdit(a.chars, b.chars);
}

Case AccessAreaCase(double x) {
  AccessAreaDistance::Options options =
      AccessAreaDistance::CanonicalDpeOptions();
  options.x = x;
  Case c;
  c.label = "access-area@" + std::to_string(x);
  c.measure = std::make_unique<AccessAreaDistance>(options);
  c.needs_domains = true;
  c.reference = RefAccessAreaCell;
  c.x = x;
  return c;
}

/// The six built-in measures, access-area at x = 0.5 and x = 0.3.
std::vector<Case> AllCases() {
  std::vector<Case> cases;
  auto add = [&](std::string label, std::unique_ptr<QueryDistanceMeasure> m,
                 double (*reference)(const RefQuery&, const RefQuery&,
                                     const Case&)) {
    Case c;
    c.label = std::move(label);
    c.measure = std::move(m);
    c.reference = reference;
    cases.push_back(std::move(c));
  };
  add("token", std::make_unique<TokenDistance>(), RefTokenCell);
  add("structure", std::make_unique<StructureDistance>(), RefStructureCell);
  add("result", std::make_unique<ResultDistance>(), RefResultCell);
  cases.back().needs_db = true;
  cases.push_back(AccessAreaCase(0.5));
  cases.push_back(AccessAreaCase(0.3));
  add("levenshtein-token",
      std::make_unique<LevenshteinDistance>(
          LevenshteinDistance::Granularity::kTokenSequence),
      RefLevTokenCell);
  add("levenshtein-char",
      std::make_unique<LevenshteinDistance>(
          LevenshteinDistance::Granularity::kCharacter),
      RefLevCharCell);
  return cases;
}

std::vector<RefQuery> ReferenceInputs(const std::vector<sql::SelectQuery>& log,
                                      const MeasureContext& ctx,
                                      const std::vector<Case>& cases) {
  std::vector<RefQuery> out(log.size());
  for (size_t q = 0; q < log.size(); ++q) {
    RefQuery& r = out[q];
    const std::string text = sql::ToSql(log[q]);
    r.tokens = sql::TokenSet(text).value();
    r.features = sql::Features(log[q]);
    const std::vector<sql::Token> tokens = sql::Lex(text).value();
    for (const sql::Token& t : tokens) r.lexemes.push_back(t.lexeme);
    for (char ch : text) r.chars.emplace_back(1, ch);
    if (ctx.database != nullptr) {
      const db::ExecuteOptions defaults;
      auto table = db::Execute(*ctx.database, log[q],
                               ctx.exec_options ? *ctx.exec_options : defaults);
      EXPECT_TRUE(table.ok()) << table.status();
      if (table.ok()) r.tuples = table->TupleKeySet();
    }
    if (ctx.domains != nullptr) {
      for (const Case& c : cases) {
        if (!c.needs_domains) continue;
        const auto& aa = static_cast<const AccessAreaDistance&>(*c.measure);
        auto areas = db::AccessAreas(log[q], *ctx.domains,
                                     aa.options().extraction);
        EXPECT_TRUE(areas.ok()) << areas.status();
        if (areas.ok()) r.areas[c.label] = std::move(areas).value();
      }
    }
  }
  return out;
}

/// Compares every build path of `c.measure` against the reference over `log`.
void CheckCase(const Case& c, const std::vector<sql::SelectQuery>& log,
               const MeasureContext& ctx, const std::vector<RefQuery>& ref,
               const std::string& where) {
  SCOPED_TRACE(where + " / " + c.label);
  const size_t n = log.size();
  // The reference cell of every pair, computed once with the smaller index
  // first (the order every build path uses); want.at(j, i) mirrors it.
  DistanceMatrix want(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      want.set(i, j, c.reference(ref[i], ref[j], c));
    }
  }

  // The serial reference implementation.
  auto serial = DistanceMatrix::Compute(log, *c.measure, ctx);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      ASSERT_EQ(serial->at(i, j), want.at(i, j))
          << "Compute cell (" << i << ", " << j << ")";
    }
  }

  // The per-pair call, on neighbours and on a query against itself.
  for (size_t i = 0; i + 1 < n; ++i) {
    auto d = c.measure->Distance(log[i], log[i + 1], ctx);
    ASSERT_TRUE(d.ok()) << d.status();
    ASSERT_EQ(*d, want.at(i, i + 1))
        << "pair (" << i << ", " << i + 1 << ")";
  }
  if (n > 0) {
    auto self = c.measure->Distance(log[0], log[0], ctx);
    ASSERT_TRUE(self.ok()) << self.status();
    ASSERT_EQ(*self, c.reference(ref[0], ref[0], c));
  }

  // BuildRows from several starts, on a pool, the measure reused across
  // builds (as the engine does) so memo hits are exercised too.
  common::ThreadPool pool(3);
  engine::MatrixBuilder builder(&pool, engine::MatrixBuilderOptions{5});
  for (size_t start : {size_t{0}, size_t{1}, n / 2, n > 0 ? n - 1 : 0, n}) {
    auto rows = builder.BuildRows(log, *c.measure, ctx, start);
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_EQ(rows->size(),
              store::TriangleCells(n) - store::TriangleCells(start));
    size_t k = 0;
    for (size_t i = start; i < n; ++i) {
      for (size_t j = 0; j < i; ++j, ++k) {
        ASSERT_EQ((*rows)[k], want.at(j, i))
            << "BuildRows from " << start << ", row " << i << " col " << j;
      }
    }
  }

  // BuildTiles over a prefix, a middle slice and a suffix of the schedule.
  const size_t tile_count = common::TileSchedule(n, 5).size();
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {0, tile_count / 3},
      {tile_count / 3, 2 * tile_count / 3},
      {2 * tile_count / 3, tile_count}};
  for (const auto& [begin, end] : ranges) {
    auto tiles = builder.BuildTiles(log, *c.measure, ctx, begin, end);
    ASSERT_TRUE(tiles.ok()) << tiles.status();
    DistanceMatrix in_range(n);
    const auto schedule = common::TileSchedule(n, 5);
    for (size_t t = begin; t < end; ++t) {
      common::ForEachTileCell(n, 5, schedule[t].first, schedule[t].second,
                              [&](size_t i, size_t j) {
                                in_range.set(i, j, want.at(i, j));
                              });
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(tiles->at(i, j), in_range.at(i, j))
            << "BuildTiles [" << begin << ", " << end << ") cell (" << i
            << ", " << j << ")";
      }
    }
  }
}

void CheckAll(const std::vector<sql::SelectQuery>& log,
              const MeasureContext& ctx, const std::string& where) {
  std::vector<Case> cases = AllCases();
  const std::vector<RefQuery> ref = ReferenceInputs(log, ctx, cases);
  for (const Case& c : cases) {
    if (c.needs_db && ctx.database == nullptr) continue;
    if (c.needs_domains && ctx.domains == nullptr) continue;
    CheckCase(c, log, ctx, ref, where);
  }
}

struct Workload {
  bool skyserver;
  uint64_t seed;
};

class PreparedDistanceDifferentialTest
    : public ::testing::TestWithParam<Workload> {
 protected:
  workload::Scenario MakeScenario() const {
    workload::ScenarioOptions opt;
    opt.seed = GetParam().seed;
    opt.rows_per_relation = 40;
    opt.log_size = 24;
    auto s = GetParam().skyserver ? workload::MakeSkyServerScenario(opt)
                                  : workload::MakeShopScenario(opt);
    EXPECT_TRUE(s.ok()) << s.status();
    return std::move(s).value();
  }
};

TEST_P(PreparedDistanceDifferentialTest, PlaintextMatchesReference) {
  workload::Scenario s = MakeScenario();
  CheckAll(s.log, s.Context(), "plaintext");
}

TEST_P(PreparedDistanceDifferentialTest, CiphertextMatchesReference) {
  workload::Scenario s = MakeScenario();
  crypto::KeyManager keys("prepared-differential");
  core::LogEncryptor::Options options;
  options.paillier_bits = 256;
  options.ope_range_bits = 80;
  options.rng_seed = "prepared-differential";
  for (core::MeasureKind kind :
       {core::MeasureKind::kToken, core::MeasureKind::kStructure,
        core::MeasureKind::kResult, core::MeasureKind::kAccessArea}) {
    auto enc = core::LogEncryptor::Create(core::CanonicalScheme(kind), keys,
                                          s.database, s.log, s.domains,
                                          options);
    ASSERT_TRUE(enc.ok()) << enc.status();
    auto artifacts = enc->EncryptAll();
    ASSERT_TRUE(artifacts.ok()) << artifacts.status();
    MeasureContext ctx;
    if (artifacts->encrypted_db.has_value()) {
      ctx.database = &*artifacts->encrypted_db;
      ctx.exec_options = &artifacts->provider_options;
    }
    if (artifacts->encrypted_domains.has_value()) {
      ctx.domains = &*artifacts->encrypted_domains;
    }
    CheckAll(artifacts->encrypted_log, ctx,
             std::string("ciphertext under the ") +
                 core::MeasureKindName(kind) + " scheme");
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShopAndSkyServer, PreparedDistanceDifferentialTest,
    ::testing::Values(Workload{false, 3}, Workload{false, 17},
                      Workload{false, 42}, Workload{true, 5},
                      Workload{true, 43}),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return std::string(info.param.skyserver ? "sky_" : "shop_") +
             std::to_string(info.param.seed);
    });

// Featurized per-pair distances (a FeatureCache in the context) equal the
// reference for all six measures, over every pair of a generated log.
TEST(FeaturizedDistanceProperty, BitIdenticalToReferenceForAllMeasures) {
  workload::Scenario s = testutil::Shop(42, 30);
  auto cache = FeatureCache::Compute(s.log).value();
  MeasureContext ctx = s.Context();
  std::vector<Case> cases = AllCases();
  const std::vector<RefQuery> ref = ReferenceInputs(s.log, ctx, cases);
  ctx.features = &cache;
  for (const Case& c : cases) {
    for (size_t i = 0; i < s.log.size(); ++i) {
      for (size_t j = i + 1; j < s.log.size(); ++j) {
        auto got = c.measure->Distance(s.log[i], s.log[j], ctx);
        ASSERT_TRUE(got.ok()) << c.label;
        // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the claim is bit-identity.
        EXPECT_EQ(*got, c.reference(ref[i], ref[j], c))
            << c.label << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

// A query outside the context's feature cache still gets the reference
// distance.
TEST(FeaturizedDistanceProperty, UncachedQueryFallsBackBitIdentically) {
  workload::Scenario s = testutil::Shop(3, 6);
  std::vector<sql::SelectQuery> cached_log(s.log.begin(), s.log.end() - 1);
  auto cache = FeatureCache::Compute(cached_log).value();
  MeasureContext ctx = s.Context();
  ctx.features = &cache;

  TokenDistance token;
  const sql::SelectQuery& outside = s.log.back();
  auto got = token.Distance(cached_log[0], outside, ctx);
  ASSERT_TRUE(got.ok());
  const std::vector<RefQuery> ref =
      ReferenceInputs({cached_log[0], outside}, MeasureContext{}, {});
  EXPECT_EQ(*got, RefJaccard(ref[0].tokens, ref[1].tokens));
}

}  // namespace
}  // namespace dpe::distance
