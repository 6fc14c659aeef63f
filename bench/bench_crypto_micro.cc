// Experiment P1 — crypto micro-benchmarks (google-benchmark): the cost of
// every PPE primitive the KIT-DPE schemes are built from.

#include <benchmark/benchmark.h>

#include "crypto/aes.h"
#include "crypto/csprng.h"
#include "crypto/det.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/ope.h"
#include "crypto/paillier.h"
#include "crypto/prob.h"
#include "crypto/sha256.h"

namespace {

using namespace dpe::crypto;

const KeyManager& Keys() {
  static KeyManager keys("bench-crypto-micro");
  return keys;
}

void BM_Sha256_1KiB(benchmark::State& state) {
  std::string data(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

// The same 1 KiB digest pinned to each compress routine (0 = portable,
// 1 = SHA-NI); a routine this CPU cannot run is skipped.
void BM_Sha256_1KiBPerCompress(benchmark::State& state) {
  const auto& all = Sha256::RunnableCompressors();
  const size_t index = static_cast<size_t>(state.range(0));
  if (index >= all.size()) {
    state.SkipWithError("compress routine not runnable here");
    return;
  }
  state.SetLabel(all[index].name);
  std::string data(1024, 'x');
  for (auto _ : state) {
    Sha256 ctx(all[index].fn);
    ctx.Update(data);
    benchmark::DoNotOptimize(ctx.Finish());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiBPerCompress)->DenseRange(0, 1);

// A keyed 64-byte MAC (the OPE coin and DET SIV shape) per compress routine.
void BM_HmacSha256Keyed_64BPerCompress(benchmark::State& state) {
  const auto& all = Sha256::RunnableCompressors();
  const size_t index = static_cast<size_t>(state.range(0));
  if (index >= all.size()) {
    state.SkipWithError("compress routine not runnable here");
    return;
  }
  state.SetLabel(all[index].name);
  const HmacSha256Key key("key", all[index].fn);
  std::string data(64, 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Mac(data));
  }
}
BENCHMARK(BM_HmacSha256Keyed_64BPerCompress)->DenseRange(0, 1);

void BM_HmacSha256_64B(benchmark::State& state) {
  std::string data(64, 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256("key", data));
  }
}
BENCHMARK(BM_HmacSha256_64B);

// The same MAC under a key object whose ipad/opad blocks are absorbed once:
// what every DET IV, OPE coin and HKDF block pays.
void BM_HmacSha256Keyed_64B(benchmark::State& state) {
  const HmacSha256Key key("key");
  std::string data(64, 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Mac(data));
  }
}
BENCHMARK(BM_HmacSha256Keyed_64B);

void BM_AesCtr_1KiB(benchmark::State& state) {
  auto aes = Aes::Create(Keys().Derive("aes").substr(0, 32)).value();
  std::string iv(16, 'i');
  std::string data(1024, 'p');
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes.CtrXcrypt(iv, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_AesCtr_1KiB);

void BM_DetEncrypt(benchmark::State& state) {
  auto det = DetEncryptor::Create(Keys().Derive("det")).value();
  std::string pt = "i:123456";
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Encrypt(pt));
  }
}
BENCHMARK(BM_DetEncrypt);

void BM_DetDecrypt(benchmark::State& state) {
  auto det = DetEncryptor::Create(Keys().Derive("det")).value();
  auto ct = det.Encrypt("i:123456");
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Decrypt(ct));
  }
}
BENCHMARK(BM_DetDecrypt);

void BM_ProbEncrypt(benchmark::State& state) {
  auto prob =
      ProbEncryptor::Create(Keys().Derive("prob"), Csprng::FromSeed("b")).value();
  std::string pt = "i:123456";
  for (auto _ : state) {
    benchmark::DoNotOptimize(prob.Encrypt(pt));
  }
}
BENCHMARK(BM_ProbEncrypt);

void BM_OpeEncrypt(benchmark::State& state) {
  BoldyrevaOpe::Options opts;
  opts.domain_bits = 64;
  opts.range_bits = static_cast<int>(state.range(0));
  auto ope = BoldyrevaOpe::Create(Keys().Derive("ope"), opts).value();
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ope.Encrypt(x));
    x += 0x9e3779b97f4a7c15ULL;
  }
}
BENCHMARK(BM_OpeEncrypt)->Arg(80)->Arg(96)->Arg(128);

// BM_OpeEncrypt's plaintexts never repeat, so it times the tree descent
// (plus one memo insert). Here 16 plaintexts cycle: after the first lap
// every call is a memo hit, the cost of a value a column repeats.
void BM_OpeEncryptRepeated(benchmark::State& state) {
  BoldyrevaOpe::Options opts;
  opts.domain_bits = 64;
  opts.range_bits = static_cast<int>(state.range(0));
  auto ope = BoldyrevaOpe::Create(Keys().Derive("ope"), opts).value();
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ope.Encrypt((i++ % 16) * 0x9e3779b97f4a7c15ULL));
  }
}
BENCHMARK(BM_OpeEncryptRepeated)->Arg(96);

// One full tree descent per iteration with no memo in play: each iteration
// encrypts the same plaintext through a fresh copy (a copy's memo starts
// empty), so nothing is looked up or accumulated across iterations.
void BM_OpeDescentMemoFree(benchmark::State& state) {
  BoldyrevaOpe::Options opts;
  opts.domain_bits = 64;
  opts.range_bits = static_cast<int>(state.range(0));
  const auto ope = BoldyrevaOpe::Create(Keys().Derive("ope"), opts).value();
  for (auto _ : state) {
    const BoldyrevaOpe fresh = ope;
    benchmark::DoNotOptimize(fresh.Encrypt(0x9e3779b97f4a7c15ULL));
  }
}
BENCHMARK(BM_OpeDescentMemoFree)->Arg(96);

void BM_OpeDecrypt(benchmark::State& state) {
  auto ope = BoldyrevaOpe::Create(Keys().Derive("ope")).value();
  auto ct = ope.Encrypt(123456789).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ope.Decrypt(ct));
  }
}
BENCHMARK(BM_OpeDecrypt);

void BM_DictionaryOpeBuild(benchmark::State& state) {
  std::vector<dpe::Bytes> domain;
  for (int i = 0; i < state.range(0); ++i) {
    domain.push_back("value-" + std::to_string(i));
  }
  for (auto _ : state) {
    auto ope = DictionaryOpe::Create(Keys().Derive("dope")).value();
    benchmark::DoNotOptimize(ope.BuildFromDomain(domain));
  }
}
BENCHMARK(BM_DictionaryOpeBuild)->Arg(100)->Arg(1000);

void BM_PaillierKeygen(benchmark::State& state) {
  Csprng rng = Csprng::FromSeed("paillier-keygen");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::GenerateKeyPair(static_cast<int>(state.range(0)), rng));
  }
}
BENCHMARK(BM_PaillierKeygen)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

const Paillier::KeyPair& Kp512() {
  static Paillier::KeyPair kp = [] {
    Csprng rng = Csprng::FromSeed("paillier-bench");
    return Paillier::GenerateKeyPair(512, rng).value();
  }();
  return kp;
}

const Paillier::KeyPair& Kp1024() {
  static Paillier::KeyPair kp = [] {
    Csprng rng = Csprng::FromSeed("paillier-bench");
    return Paillier::GenerateKeyPair(1024, rng).value();
  }();
  return kp;
}

// The owner's encryption (CRT over p^2 and q^2) at 512 and 1024 bits.
void BM_PaillierEncrypt(benchmark::State& state) {
  const Paillier::KeyPair& kp = state.range(0) == 1024 ? Kp1024() : Kp512();
  Csprng rng = Csprng::FromSeed("pe");
  int64_t m = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Paillier::Encrypt(kp, Bigint(m++), rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(512)->Arg(1024);

void BM_PaillierDecrypt(benchmark::State& state) {
  Csprng rng = Csprng::FromSeed("pd");
  auto ct = Paillier::Encrypt(Kp512(), Bigint(424242), rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Paillier::Decrypt(Kp512().pub, Kp512().priv, ct));
  }
}
BENCHMARK(BM_PaillierDecrypt);

void BM_PaillierAdd(benchmark::State& state) {
  Csprng rng = Csprng::FromSeed("pa");
  auto c1 = Paillier::Encrypt(Kp512(), Bigint(1), rng).value();
  auto c2 = Paillier::Encrypt(Kp512(), Bigint(2), rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Paillier::Add(Kp512().pub, c1, c2));
  }
}
BENCHMARK(BM_PaillierAdd);

void BM_KeyDerivation(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keys().Derive("purpose/" + std::to_string(i++)));
  }
}
BENCHMARK(BM_KeyDerivation);

}  // namespace

BENCHMARK_MAIN();
