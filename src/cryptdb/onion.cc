#include "cryptdb/onion.h"

#include "common/hex.h"
#include "crypto/scheme.h"
#include "sql/ast.h"

namespace dpe::cryptdb {

using crypto::Bigint;
using crypto::BoldyrevaOpe;
using crypto::DetEncryptor;
using crypto::Paillier;
using db::Value;

Result<uint64_t> OrderPreservingU64(const Value& v) {
  if (v.is_int()) return crypto::OrderPreservingU64FromI64(v.int_value());
  if (v.is_double()) {
    return crypto::OrderPreservingU64FromDouble(v.double_value());
  }
  return Status::TypeError("ORD onion requires a numeric value, got " +
                           v.ToDisplayString());
}

Result<Value> ValueFromOrderPreservingU64(uint64_t u, db::ColumnType type) {
  switch (type) {
    case db::ColumnType::kInt:
      return Value::Int(crypto::I64FromOrderPreservingU64(u));
    case db::ColumnType::kDouble:
      return Value::Double(crypto::DoubleFromOrderPreservingU64(u));
    case db::ColumnType::kString:
      return Status::TypeError("ORD onion does not cover string columns");
  }
  return Status::Internal("bad column type");
}

OnionCrypto::OnionCrypto(const crypto::KeyManager& keys, OnionLayout layout,
                         const Options& options, crypto::Csprng rng,
                         Paillier::KeyPair paillier)
    : keyring_(std::make_unique<crypto::Keyring>(
          keys, crypto::BoldyrevaOpe::Options{
                    .domain_bits = 64, .range_bits = options.ope_range_bits})),
      layout_(std::move(layout)),
      rng_(std::move(rng)),
      paillier_(std::move(paillier)) {}

Result<OnionCrypto> OnionCrypto::Create(const crypto::KeyManager& keys,
                                        OnionLayout layout,
                                        const Options& options,
                                        crypto::Csprng rng) {
  DPE_ASSIGN_OR_RETURN(Paillier::KeyPair kp,
                       Paillier::GenerateKeyPair(options.paillier_bits, rng));
  return OnionCrypto(keys, std::move(layout), options, std::move(rng),
                     std::move(kp));
}

namespace {

std::string IdentifierEncode(const Bytes& ciphertext) {
  return "e" + HexEncode(ciphertext);
}

Result<Bytes> IdentifierDecode(const std::string& enc_name) {
  if (enc_name.empty() || enc_name[0] != 'e') {
    return Status::CryptoError("not an encrypted identifier: " + enc_name);
  }
  return HexDecode(std::string_view(enc_name).substr(1));
}

}  // namespace

const DetEncryptor& OnionCrypto::NameEncryptor(std::string_view purpose) const {
  return *keyring_->Det(purpose).value();  // a 32-byte derived key never fails
}

std::string OnionCrypto::EncryptRelName(const std::string& name) const {
  return IdentifierEncode(NameEncryptor("name/rel").EncryptConst(name));
}

std::string OnionCrypto::EncryptAttrName(const std::string& name) const {
  return IdentifierEncode(NameEncryptor("name/attr").EncryptConst(name));
}

Result<std::string> OnionCrypto::DecryptRelName(
    const std::string& enc_name) const {
  DPE_ASSIGN_OR_RETURN(Bytes ct, IdentifierDecode(enc_name));
  DPE_ASSIGN_OR_RETURN(Bytes pt, NameEncryptor("name/rel").Decrypt(ct));
  return std::string(pt);
}

Result<std::string> OnionCrypto::DecryptAttrName(
    const std::string& enc_name) const {
  DPE_ASSIGN_OR_RETURN(Bytes ct, IdentifierDecode(enc_name));
  DPE_ASSIGN_OR_RETURN(Bytes pt, NameEncryptor("name/attr").Decrypt(ct));
  return std::string(pt);
}

Result<const DetEncryptor*> OnionCrypto::EqEncryptorFor(
    const std::string& column_key) const {
  if (layout_.shared_value_keys) return keyring_->Det("onion/@shared/eq");
  auto group = layout_.join_group_of.find(column_key);
  return keyring_->Det(group != layout_.join_group_of.end()
                           ? "onion/join-group/" + group->second + "/eq"
                           : "onion/" + column_key + "/eq");
}

Result<const BoldyrevaOpe*> OnionCrypto::OrdEncryptorFor(
    const std::string& column_key) const {
  return keyring_->Ope(layout_.shared_value_keys
                           ? "onion/@shared/ord"
                           : "onion/" + column_key + "/ord");
}

Result<Value> OnionCrypto::EncryptEq(const std::string& column_key,
                                     const Value& v) const {
  if (v.is_null()) return Value::Null();
  DPE_ASSIGN_OR_RETURN(const DetEncryptor* enc, EqEncryptorFor(column_key));
  return Value::String("e" + HexEncode(enc->EncryptConst(v.KeyBytes())));
}

Result<Value> OnionCrypto::EncryptOrd(const std::string& column_key,
                                      const Value& v) const {
  if (v.is_null()) return Value::Null();
  DPE_ASSIGN_OR_RETURN(uint64_t u, OrderPreservingU64(v));
  DPE_ASSIGN_OR_RETURN(const BoldyrevaOpe* ope, OrdEncryptorFor(column_key));
  // Type tag ('i'/'d') keeps int and double images disjoint even under a
  // shared ORD key; within a (homogeneously typed) column it is constant,
  // so string order still equals numeric order.
  const char type_tag = v.is_int() ? 'i' : 'd';
  DPE_ASSIGN_OR_RETURN(std::string hex, ope->EncryptToHex(u));
  return Value::String(std::string("o") + type_tag + hex);
}

Result<Value> OnionCrypto::EncryptAdd(const std::string& column_key,
                                      const Value& v) {
  (void)column_key;  // one Paillier key pair serves the whole database
  if (v.is_null()) return Value::Null();
  if (!v.is_int()) {
    return Status::TypeError("ADD onion requires an int value, got " +
                             v.ToDisplayString());
  }
  Bigint m = Paillier::EncodeSigned(paillier_.pub, v.int_value());
  DPE_ASSIGN_OR_RETURN(Bigint ct, Paillier::Encrypt(paillier_, m, rng_));
  return Value::String("h" + HexEncode(ct.ToBytes()));
}

Result<Value> OnionCrypto::EncryptRnd(const std::string& column_key,
                                      const Value& v) {
  if (v.is_null()) return Value::Null();
  DPE_ASSIGN_OR_RETURN(
      crypto::ProbEncryptor enc,
      crypto::ProbEncryptor::Create(
          keyring_->Key("onion/" + column_key + "/rnd"),
          crypto::Csprng::FromSeed(rng_.NextBytes(32))));
  return Value::String("p" + HexEncode(enc.Encrypt(v.KeyBytes())));
}

Result<Value> OnionCrypto::DecryptCell(const std::string& column_key,
                                       db::ColumnType type,
                                       const Value& cell) const {
  if (cell.is_null()) return Value::Null();
  if (!cell.is_string() || cell.string_value().empty()) {
    return Status::CryptoError("onion cell must be a tagged string");
  }
  const std::string& s = cell.string_value();
  std::string_view hex = std::string_view(s).substr(1);
  switch (s[0]) {
    case 'e': {
      DPE_ASSIGN_OR_RETURN(Bytes ct, HexDecode(hex));
      DPE_ASSIGN_OR_RETURN(const DetEncryptor* enc, EqEncryptorFor(column_key));
      DPE_ASSIGN_OR_RETURN(Bytes pt, enc->Decrypt(ct));
      DPE_ASSIGN_OR_RETURN(sql::Literal lit, sql::Literal::FromCanonicalBytes(pt));
      return Value::FromLiteral(lit);
    }
    case 'o': {
      if (hex.size() < 2 || (hex[0] != 'i' && hex[0] != 'd')) {
        return Status::CryptoError("ORD cell missing type tag");
      }
      const db::ColumnType cell_type =
          hex[0] == 'i' ? db::ColumnType::kInt : db::ColumnType::kDouble;
      (void)type;  // the self-describing tag wins over the schema hint
      DPE_ASSIGN_OR_RETURN(Bytes ct, HexDecode(hex.substr(1)));
      DPE_ASSIGN_OR_RETURN(const BoldyrevaOpe* ope,
                           OrdEncryptorFor(column_key));
      DPE_ASSIGN_OR_RETURN(uint64_t u, ope->Decrypt(Bigint::FromBytes(ct)));
      return ValueFromOrderPreservingU64(u, cell_type);
    }
    case 'h': {
      DPE_ASSIGN_OR_RETURN(int64_t v, DecryptPaillierSum(cell));
      return Value::Int(v);
    }
    case 'p': {
      DPE_ASSIGN_OR_RETURN(Bytes ct, HexDecode(hex));
      DPE_ASSIGN_OR_RETURN(
          crypto::ProbEncryptor enc,
          crypto::ProbEncryptor::Create(
              keyring_->Key("onion/" + column_key + "/rnd"),
              crypto::Csprng::FromSeed("decrypt-unused")));
      DPE_ASSIGN_OR_RETURN(Bytes pt, enc.Decrypt(ct));
      DPE_ASSIGN_OR_RETURN(sql::Literal lit, sql::Literal::FromCanonicalBytes(pt));
      return Value::FromLiteral(lit);
    }
    default:
      return Status::CryptoError("unknown onion cell tag '" +
                                 std::string(1, s[0]) + "'");
  }
}

Result<int64_t> OnionCrypto::DecryptPaillierSum(const Value& cell) const {
  if (!cell.is_string() || cell.string_value().empty() ||
      cell.string_value()[0] != 'h') {
    return Status::CryptoError("not a Paillier cell");
  }
  DPE_ASSIGN_OR_RETURN(Bytes ct_bytes,
                       HexDecode(std::string_view(cell.string_value()).substr(1)));
  DPE_ASSIGN_OR_RETURN(
      Bigint m, Paillier::Decrypt(paillier_.pub, paillier_.priv,
                                  Bigint::FromBytes(ct_bytes)));
  return Paillier::DecodeSigned(paillier_.pub, m);
}

}  // namespace dpe::cryptdb
