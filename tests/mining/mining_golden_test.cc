// Golden oracle for the miners' exact output. Every miner runs on seeded
// tie-heavy, smooth and signed (negative cells, for complete link's 0
// floor) matrices at sizes that cover the empty, tiny and uneven-chunk
// cases, once serially and once on a 3-thread pool. Each (kind, n) row
// pins one digest per miner over everything it returns: k-medoids labels,
// medoids, iterations and the bit pattern of total_deviation; DBSCAN
// labels; complete-link merges with their ids and height bits; the outlier
// set; kNN lists of every point on both selection paths (4k < n and
// 4k >= n). A storage-layout change must keep every digest.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "mining/dbscan.h"
#include "mining/hierarchical.h"
#include "mining/kmedoids.h"
#include "mining/knn.h"
#include "mining/outlier.h"

namespace dpe::mining {
namespace {

/// splitmix64: a generator whose sequence is fixed by this file, not by
/// the standard library's distributions.
struct SplitMix {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

enum class Kind { kTie, kSmooth, kSigned };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kTie:
      return "tie";
    case Kind::kSmooth:
      return "smooth";
    case Kind::kSigned:
      return "signed";
  }
  return "?";
}

distance::DistanceMatrix MakeMatrix(Kind kind, size_t n) {
  SplitMix rng{0x5eed0000ULL + n * 3 + static_cast<uint64_t>(kind)};
  distance::DistanceMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const uint64_t r = rng.Next();
      double d = 0.0;
      switch (kind) {
        case Kind::kTie:  // {0, 0.25, ..., 1}: exact ties everywhere
          d = static_cast<double>(r % 5) * 0.25;
          break;
        case Kind::kSmooth:  // [0, 1) at full precision
          d = static_cast<double>(r >> 11) * 0x1p-53;
          break;
        case Kind::kSigned:  // {-0.5, -0.25, ..., 1.5}
          d = static_cast<double>(r % 9) * 0.25 - 0.5;
          break;
      }
      EXPECT_TRUE(m.Set(i, j, d).ok());
    }
  }
  return m;
}

/// FNV-1a over 64-bit words.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void Add(double d) { Add(std::bit_cast<uint64_t>(d)); }
  void Add(const Status& s) { Add(static_cast<uint64_t>(s.code())); }
  template <typename T>
  void AddAll(const std::vector<T>& v) {
    Add(static_cast<uint64_t>(v.size()));
    for (const T& x : v) Add(static_cast<uint64_t>(x));
  }
};

struct Digests {
  uint64_t kmedoids, dbscan, complete_link, outliers, knn;
  bool operator==(const Digests&) const = default;
};

Digests Mine(const distance::DistanceMatrix& m, common::ThreadPool* pool) {
  const size_t n = m.size();
  Digests out{};

  Digest km;
  KMedoidsOptions km_opt;
  km_opt.k = n < 3 ? (n == 0 ? 1 : n) : 3;
  km_opt.pool = pool;
  if (auto r = KMedoids(m, km_opt); r.ok()) {
    km.AddAll(r->labels);
    km.AddAll(r->medoids);
    km.Add(static_cast<uint64_t>(r->iterations));
    km.Add(r->total_deviation);
  } else {
    km.Add(r.status());
  }
  out.kmedoids = km.h;

  Digest db;
  DbscanOptions db_opt;
  db_opt.epsilon = 0.02;  // sparse neighbourhoods on the smooth kind
  db_opt.min_points = 3;
  db_opt.pool = pool;
  if (auto r = Dbscan(m, db_opt); r.ok()) {
    db.AddAll(r->labels);
    db.Add(static_cast<uint64_t>(r->cluster_count));
  } else {
    db.Add(r.status());
  }
  out.dbscan = db.h;

  Digest cl;
  if (auto r = CompleteLink(m); r.ok()) {
    cl.Add(static_cast<uint64_t>(r->merges.size()));
    for (const Merge& mg : r->merges) {
      cl.Add(static_cast<uint64_t>(mg.left));
      cl.Add(static_cast<uint64_t>(mg.right));
      cl.Add(mg.distance);
    }
  } else {
    cl.Add(r.status());
  }
  out.complete_link = cl.h;

  Digest ol;
  OutlierOptions ol_opt;
  ol_opt.p = 0.42;  // near each kind's far fraction: mixed verdicts
  ol_opt.d = 0.6;
  ol_opt.pool = pool;
  if (auto r = DistanceBasedOutliers(m, ol_opt); r.ok()) {
    ol.AddAll(r->outliers);
  } else {
    ol.Add(r.status());
  }
  out.outliers = ol.h;

  // Small k takes the argmin path (4k < n), k = n - 1 the stable sort.
  Digest nn;
  if (n == 0) nn.Add(NearestNeighbors(m, 0, 0).status());
  const size_t small_k = n > 0 ? (n - 1) / 4 : 0;
  for (size_t k : {small_k, n > 0 ? n - 1 : 0}) {
    for (size_t i = 0; i < n; ++i) {
      if (auto r = NearestNeighbors(m, i, k); r.ok()) {
        nn.AddAll(*r);
      } else {
        nn.Add(r.status());
      }
    }
  }
  out.knn = nn.h;
  return out;
}

struct Golden {
  Kind kind;
  size_t n;
  Digests want;
};

// Generated from the miners over the dense n x n layout; a mismatch prints
// the replacement row.
const Golden kGolden[] = {
    {Kind::kTie, 0,
     {0x89cd31291d2aefa4ULL, 0x88201fb960ff6465ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x2cdcdc0dfc5d1141ULL}},
    {Kind::kTie, 1,
     {0x0dfe86dd58928664ULL, 0x0be07a6bb3dbac1cULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {Kind::kTie, 2,
     {0x2861db1c4fdeae44ULL, 0xd0dd402766d83497ULL, 0x53d12459bbad5158ULL,
      0xb026cb457020ada6ULL, 0x72ee74e724376884ULL}},
    {Kind::kTie, 3,
     {0x3e9a25f03f9c7a24ULL, 0x431b4b820753944eULL, 0xdb459e630ab7c647ULL,
      0xa8c7f832281a39c5ULL, 0x7856760dc7b2c987ULL}},
    {Kind::kTie, 17,
     {0x5956ec1652dea1f0ULL, 0xba4ac5278ca933c5ULL, 0x241731eafe014709ULL,
      0x4cd676f742cd9d7cULL, 0xcb518d487292f36dULL}},
    {Kind::kTie, 64,
     {0xb95eff3456c32fcdULL, 0xbba6e1af11c55284ULL, 0x99f01d8d024f9307ULL,
      0x6a55ea5e58ab4fd2ULL, 0x423c65a23300c51fULL}},
    {Kind::kTie, 257,
     {0x8a47922f5495f0c9ULL, 0x639cc1161326e01eULL, 0xd9195eb894280fa7ULL,
      0xea64c04282678dc1ULL, 0xd66879182ea399f5ULL}},
    {Kind::kSmooth, 0,
     {0x89cd31291d2aefa4ULL, 0x88201fb960ff6465ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x2cdcdc0dfc5d1141ULL}},
    {Kind::kSmooth, 1,
     {0x0dfe86dd58928664ULL, 0x0be07a6bb3dbac1cULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {Kind::kSmooth, 2,
     {0x2861db1c4fdeae44ULL, 0xd0dd402766d83497ULL, 0x7347efbd3cf7154cULL,
      0xb026cb457020ada6ULL, 0x72ee74e724376884ULL}},
    {Kind::kSmooth, 3,
     {0x3e9a25f03f9c7a24ULL, 0x431b4b820753944eULL, 0x028fb1a2bda54ae4ULL,
      0x22e34b14edb7ba25ULL, 0x75d31905301fe367ULL}},
    {Kind::kSmooth, 17,
     {0x6053e753d8667412ULL, 0xdf78fbb50cef25acULL, 0x93497a2f4adaeebeULL,
      0xf1c8f57941ac18bdULL, 0xa2088cec8490172aULL}},
    {Kind::kSmooth, 64,
     {0x6f5d653041c3ead7ULL, 0x397c2703fcdeeaabULL, 0x11828574319e2961ULL,
      0xfda9989498eee692ULL, 0x5af1cc148e66ebe8ULL}},
    {Kind::kSmooth, 257,
     {0x103097c9e0da2362ULL, 0xe86a2141ad30ae0eULL, 0x90df2627acc012a5ULL,
      0x9193e004766e7b2dULL, 0x13145163412ba5adULL}},
    {Kind::kSigned, 0,
     {0x89cd31291d2aefa4ULL, 0x88201fb960ff6465ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x2cdcdc0dfc5d1141ULL}},
    {Kind::kSigned, 1,
     {0x0dfe86dd58928664ULL, 0x0be07a6bb3dbac1cULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {Kind::kSigned, 2,
     {0x2861db1c4fdeae44ULL, 0xd0dd402766d83497ULL, 0x53b62459bb9689a0ULL,
      0xb026cb457020ada6ULL, 0x72ee74e724376884ULL}},
    {Kind::kSigned, 3,
     {0x30f5669a68a30a2cULL, 0x431b4b820753944eULL, 0xc241da5454fc743eULL,
      0x22e34b14edb7ba25ULL, 0xa859c4cccfd897a7ULL}},
    {Kind::kSigned, 17,
     {0x8ff1c70d36b3340dULL, 0xe6576ef5cebf90d5ULL, 0x7a83b20fe242c360ULL,
      0x3f97b459994ac993ULL, 0xb9a26046c752ed31ULL}},
    {Kind::kSigned, 64,
     {0x1ab5f807a65cbbdaULL, 0xbba6e1af11c55284ULL, 0x5823dd869557390aULL,
      0xf9179227c368331dULL, 0x4ad7c99e8f978cb8ULL}},
    {Kind::kSigned, 257,
     {0x60f1f21d1468fd96ULL, 0x639cc1161326e01eULL, 0xb6158320c8eab08eULL,
      0xdca57b2837b4c344ULL, 0xe503903a5ec43c39ULL}},
};

std::string Row(Kind kind, size_t n, const Digests& d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{Kind::k%c%s, %zu, {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL}},",
                KindName(kind)[0] - 'a' + 'A', KindName(kind) + 1, n,
                d.kmedoids, d.dbscan, d.complete_link, d.outliers, d.knn);
  return buf;
}

TEST(MiningGoldenTest, EveryMinerMatchesItsPinnedOutput) {
  common::ThreadPool pool(3);
  size_t checked = 0;
  for (Kind kind : {Kind::kTie, Kind::kSmooth, Kind::kSigned}) {
    for (size_t n : {0, 1, 2, 3, 17, 64, 257}) {
      const distance::DistanceMatrix m = MakeMatrix(kind, n);
      const Digests serial = Mine(m, nullptr);
      const Digests pooled = Mine(m, &pool);
      const std::string where =
          std::string(KindName(kind)) + " n=" + std::to_string(n);
      EXPECT_EQ(pooled, serial) << where << ": 3-thread pool differs";
      const Golden* golden = nullptr;
      for (const Golden& g : kGolden) {
        if (g.kind == kind && g.n == n) golden = &g;
      }
      if (golden == nullptr) {
        ADD_FAILURE() << where << ": no golden row; got\n"
                      << Row(kind, n, serial);
        continue;
      }
      EXPECT_EQ(serial.kmedoids, golden->want.kmedoids)
          << where << " kmedoids";
      EXPECT_EQ(serial.dbscan, golden->want.dbscan) << where << " dbscan";
      EXPECT_EQ(serial.complete_link, golden->want.complete_link)
          << where << " complete link";
      EXPECT_EQ(serial.outliers, golden->want.outliers)
          << where << " outliers";
      EXPECT_EQ(serial.knn, golden->want.knn) << where << " knn";
      if (!(serial == golden->want)) {
        ADD_FAILURE() << "replacement row:\n" << Row(kind, n, serial);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 21u);
}

}  // namespace
}  // namespace dpe::mining
