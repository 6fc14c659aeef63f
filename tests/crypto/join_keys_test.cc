#include <gtest/gtest.h>

#include "crypto/join.h"
#include "crypto/keys.h"

namespace dpe::crypto {
namespace {

TEST(KeyManagerTest, DerivationIsDeterministic) {
  KeyManager a("master");
  KeyManager b("master");
  EXPECT_EQ(a.Derive("x"), b.Derive("x"));
  EXPECT_EQ(a.Derive("x").size(), 32u);
}

TEST(KeyManagerTest, PurposesAreIndependent) {
  KeyManager keys("master");
  EXPECT_NE(keys.Derive("name/rel"), keys.Derive("name/attr"));
  EXPECT_NE(keys.Derive("a"), keys.Derive("a/"));
}

TEST(KeyManagerTest, MastersAreIndependent) {
  EXPECT_NE(KeyManager("m1").Derive("p"), KeyManager("m2").Derive("p"));
}

TEST(KeyManagerTest, DeriveN) {
  KeyManager keys("master");
  EXPECT_EQ(keys.DeriveN("p", 64).value().size(), 64u);
  EXPECT_EQ(keys.DeriveN("p", 64).value().substr(0, 32), keys.Derive("p"));
}

TEST(KeyManagerTest, DeriveNPastTheHkdfBoundIsInvalidArgument) {
  KeyManager keys("master");
  auto max = keys.DeriveN("p", 8160);
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->size(), 8160u);
  EXPECT_EQ(max->substr(0, 32), keys.Derive("p"));
  EXPECT_EQ(keys.DeriveN("p", 8161).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KeyManagerTest, FromPasswordDeterministic) {
  KeyManager a = KeyManager::FromPassword("hunter2");
  KeyManager b = KeyManager::FromPassword("hunter2");
  KeyManager c = KeyManager::FromPassword("hunter3");
  EXPECT_EQ(a.Derive("p"), b.Derive("p"));
  EXPECT_NE(a.Derive("p"), c.Derive("p"));
}

class JoinRegistryTest : public ::testing::Test {
 protected:
  KeyManager keys_{"join-test"};
};

TEST_F(JoinRegistryTest, GroupedColumnsShareCiphertexts) {
  JoinKeyRegistry reg(keys_);
  ASSERT_TRUE(reg.AddToGroup("g", "orders.cid").ok());
  ASSERT_TRUE(reg.AddToGroup("g", "customers.cid").ok());
  auto e1 = reg.EncryptorFor("orders.cid").value();
  auto e2 = reg.EncryptorFor("customers.cid").value();
  EXPECT_EQ(e1.Encrypt("i:42"), e2.Encrypt("i:42"));
}

TEST_F(JoinRegistryTest, UngroupedColumnsDoNotShare) {
  JoinKeyRegistry reg(keys_);
  ASSERT_TRUE(reg.AddToGroup("g", "orders.cid").ok());
  auto e1 = reg.EncryptorFor("orders.cid").value();
  auto e2 = reg.EncryptorFor("products.pid").value();
  EXPECT_NE(e1.Encrypt("i:42"), e2.Encrypt("i:42"));
}

TEST_F(JoinRegistryTest, ClassReporting) {
  JoinKeyRegistry reg(keys_);
  ASSERT_TRUE(reg.AddToGroup("g", "a.x").ok());
  EXPECT_EQ(reg.ClassFor("a.x"), PpeClass::kJoin);
  EXPECT_EQ(reg.ClassFor("b.y"), PpeClass::kDet);
  EXPECT_TRUE(reg.IsJoinColumn("a.x"));
  EXPECT_FALSE(reg.IsJoinColumn("b.y"));
  EXPECT_EQ(reg.GroupOf("a.x").value_or(""), "g");
}

TEST_F(JoinRegistryTest, ColumnCannotJoinTwoGroups) {
  JoinKeyRegistry reg(keys_);
  ASSERT_TRUE(reg.AddToGroup("g1", "a.x").ok());
  EXPECT_FALSE(reg.AddToGroup("g2", "a.x").ok());
  EXPECT_TRUE(reg.AddToGroup("g1", "a.x").ok());  // idempotent re-add
}

}  // namespace
}  // namespace dpe::crypto
