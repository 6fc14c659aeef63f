// Golden owner artifacts: for a fixed master key and rng_seed, everything
// EncryptAll hands the provider under each canonical Table-I scheme (the
// encrypted log's SQL, every onion-database cell, the encrypted domains) is
// pinned by a SHA-256 digest. Any change to the owner's encryption path that
// alters a single ciphertext byte fails here; pure speed-ups must not.

#include <gtest/gtest.h>

#include "core/log_encryptor.h"
#include "crypto/sha256.h"
#include "sql/printer.h"
#include "workload/scenarios.h"

namespace dpe::core {
namespace {

/// Length-prefixed, so field boundaries are part of the digest.
void Absorb(crypto::Sha256& h, std::string_view field) {
  h.Update(EncodeBigEndian64(field.size()));
  h.Update(field);
}

std::string ArtifactDigest(const EncryptionArtifacts& a) {
  crypto::Sha256 h;
  Absorb(h, "log");
  for (const sql::SelectQuery& q : a.encrypted_log) Absorb(h, sql::ToSql(q));
  if (a.encrypted_db.has_value()) {
    Absorb(h, "db");
    for (const std::string& name : a.encrypted_db->TableNames()) {
      const db::Table* t = a.encrypted_db->GetTable(name).value();
      Absorb(h, name);
      for (const db::ColumnDef& c : t->schema().columns()) Absorb(h, c.name);
      for (const db::Row& row : t->rows()) {
        for (const db::Value& cell : row) Absorb(h, cell.KeyBytes());
      }
    }
  }
  if (a.encrypted_domains.has_value()) {
    Absorb(h, "domains");
    for (const auto& [key, domain] : a.encrypted_domains->all()) {
      Absorb(h, key);
      Absorb(h, domain.min.KeyBytes());
      Absorb(h, domain.max.KeyBytes());
    }
  }
  return HexEncode(h.Finish());
}

std::string DigestFor(MeasureKind kind, uint64_t scenario_seed) {
  workload::ScenarioOptions opt;
  opt.seed = scenario_seed;
  opt.rows_per_relation = 24;
  opt.log_size = 40;
  workload::Scenario s = workload::MakeShopScenario(opt).value();
  crypto::KeyManager keys("owner-artifacts-golden");
  LogEncryptor::Options options;
  options.paillier_bits = 256;
  options.ope_range_bits = 96;
  options.rng_seed = "golden-seed";
  LogEncryptor enc = LogEncryptor::Create(CanonicalScheme(kind), keys,
                                          s.database, s.log, s.domains, options)
                         .value();
  return ArtifactDigest(enc.EncryptAll().value());
}

struct Golden {
  MeasureKind kind;
  uint64_t seed;
  const char* digest;
};

TEST(OwnerArtifactsGoldenTest, EncryptAllDigestsArePinned) {
  const Golden kGolden[] = {
      {MeasureKind::kToken, 1,
       "a81cbe82d3c052f3815a8832a96326d5507ed750ecb25cade78658cf7a99b168"},
      {MeasureKind::kStructure, 1,
       "7ec551a370cf566e2cde946ba5857480305e333a323cc4eabb7aa4acad815053"},
      {MeasureKind::kResult, 1,
       "28f74d72dd24a0daff960129b5274dc1421f65f88d57f36cf26a66f4eaf8862a"},
      {MeasureKind::kAccessArea, 1,
       "061b6e4e7e3a68a6888e0a50ddb4a7b873037bfcded0acf43492f8cdcfd5a75a"},
      {MeasureKind::kToken, 7,
       "a3e098a8b6e15f39da3891350ae245c5a22a1a1fd5ae74cd637910cdda6408c1"},
      {MeasureKind::kStructure, 7,
       "e08ba786b68af5e28c0dc768ea84c9265261f3fb8ee2b712aa8ef6ebd5ac5c15"},
      {MeasureKind::kResult, 7,
       "0a0ffc50a860d0b3e28aab6990a42f8a35ffbe1929eb23eb46a0dff4da6122da"},
      {MeasureKind::kAccessArea, 7,
       "b354d63e632b719eef82a38d911e6c3f33a8d7b066310a3d3e04bcf7d3eacaff"},
  };
  for (const Golden& g : kGolden) {
    EXPECT_EQ(DigestFor(g.kind, g.seed), g.digest)
        << MeasureKindName(g.kind) << " seed " << g.seed;
  }
}

}  // namespace
}  // namespace dpe::core
