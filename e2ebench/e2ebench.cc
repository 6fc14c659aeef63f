// End-to-end benchmark of the paper's outsourcing pipeline.
//
// One closed-loop client drives one of three workloads through the public
// entry points only (workload::Make*Scenario, core::LogEncryptor,
// engine::Engine and the obs::MetricsRegistry counters), checks every
// output against the plaintext (DPE) oracle, and prints:
//   * a host record (nproc, spin-calibrated effective cores, SIMD backend,
//     build type, seed);
//   * every end-to-end metric with its unit and sample count;
//   * with --trace 1: a per-layer table built from spans this file records
//     around each public call (written as chrome://tracing JSON);
//   * as its last line, one JSON object {correct, attempted, failed, metrics}.
//
//   e2ebench --workload outsource_cold|append_stream|restart_resume
//            --seed N --seconds S --trace 0|1
//            [--smoke] [--inject-mismatch]
//
// See README.md in this directory for what each workload and metric means.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/log_encryptor.h"
#include "crypto/keys.h"
#include "engine/engine.h"
#include "mining/knn.h"
#include "mining/outlier.h"
#include "obs/metrics.h"
#include "workload/scenarios.h"

namespace fs = std::filesystem;
using namespace dpe;

namespace {

using Clock = std::chrono::steady_clock;

/// Worker threads of every engine. One: on a host whose other tenants take
/// cores away, a 2-thread pool made the per-merge-round sync of the miners
/// swing a pass's wall time by a third from run to run, more than any bound
/// a regression gate can hold. The pool's cost is reported instead as
/// mining.pool2_over_pool1.
constexpr size_t kEngineThreads = 1;
constexpr int kPaillierBits = 512;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Bytes this process has passed to read(2) and write(2) and friends so far
/// (/proc/self/io rchar and wchar), not counting the reads of /proc/self/io
/// this function itself made.
struct IoChars {
  uint64_t read = 0;
  uint64_t written = 0;
};
IoChars IoCharsSoFar() {
  static uint64_t own_reads = 0;  // single-threaded client
  std::ifstream io("/proc/self/io");
  const std::string text((std::istreambuf_iterator<char>(io)),
                         std::istreambuf_iterator<char>());
  std::istringstream fields(text);
  std::string key;
  uint64_t value = 0;
  IoChars chars;
  while (fields >> key >> value) {
    if (key == "rchar:") chars.read = value - own_reads;
    if (key == "wchar:") chars.written = value;
  }
  own_reads += text.size();
  return chars;
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around each public call.
// ---------------------------------------------------------------------------

/// Scopes always measure their wall time (two clock reads); only an enabled
/// tracer also keeps the span (name, start, end, parent, op id and the
/// stage/counter args attached to it) for the chrome://tracing export.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t op = -1;
    IoChars io;  ///< bytes read and written while the span was open
    std::vector<std::pair<std::string, double>> args;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), start_ns_(NowNs()) {
      if (tracer_.enabled_) {
        index_ = static_cast<int>(tracer_.spans_.size());
        Span span;
        span.name = std::move(name);
        span.start_ns = start_ns_;
        span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
        span.op = tracer_.op_;
        span.io = IoCharsSoFar();
        tracer_.spans_.push_back(std::move(span));
        tracer_.open_.push_back(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { Close(); }

    /// Ends the span (idempotent) and returns its wall time in ms.
    double Close() {
      if (end_ns_ == 0) {
        end_ns_ = NowNs();
        if (index_ >= 0) {
          Span& span = tracer_.spans_[index_];
          const IoChars io = IoCharsSoFar();
          span.io = {io.read - span.io.read, io.written - span.io.written};
          span.end_ns = end_ns_;
          tracer_.open_.pop_back();
        }
      }
      return static_cast<double>(end_ns_ - start_ns_) / 1e6;
    }
    /// Attaches a stage timing or counter to the span (traced runs only).
    void Arg(std::string key, double value) {
      if (index_ >= 0) tracer_.spans_[index_].args.emplace_back(std::move(key), value);
    }

   private:
    Tracer& tracer_;
    int64_t start_ns_;
    int64_t end_ns_ = 0;
    int index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_op(int64_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string ToChromeJson() const {
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << (s.start_ns - epoch) / 1000.0
          << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << ",\"read_bytes\":" << s.io.read
          << ",\"written_bytes\":" << s.io.written;
      for (const auto& [key, value] : s.args) {
        out << ",\"" << key << "\":" << value;
      }
      out << "}}";
    }
    out << "\n]}\n";
    return out.str();
  }

 private:
  bool enabled_ = false;
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Host record and process counters.
// ---------------------------------------------------------------------------

std::atomic<uint64_t> g_spin_sink{0};

void Spin(uint64_t iterations) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

/// The spin calibration: one thread spinning alone, then nproc threads each
/// spinning the same amount at once, best of three each.
struct HostSpeed {
  double spin_ms = 0.0;          ///< one thread alone
  double effective_cores = 0.0;  ///< nproc * t(1 thread) / t(nproc threads)
};
HostSpeed CalibrateHost(unsigned nproc) {
  constexpr uint64_t kIterations = 20'000'000;
  double single = 1e9;
  double all = 1e9;
  for (int trial = 0; trial < 3; ++trial) {
    auto t0 = Clock::now();
    Spin(kIterations);
    single = std::min(single, std::chrono::duration<double>(Clock::now() - t0).count());
    auto t1 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < nproc; ++i) threads.emplace_back(Spin, kIterations);
    for (auto& t : threads) t.join();
    all = std::min(all, std::chrono::duration<double>(Clock::now() - t1).count());
  }
  return {single * 1000.0, nproc * single / all};
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DirBytes(const fs::path& dir, std::string_view prefix = "") {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (!entry.path().filename().string().starts_with(prefix)) continue;
    total += entry.file_size();
  }
  return total;
}

/// Every crypto.ops{scheme,op} counter the crypto layer defines.
const std::vector<std::pair<const char*, const char*>>& CryptoOps() {
  static const std::vector<std::pair<const char*, const char*>> ops = {
      {"aes", "cbc_decrypt"},   {"aes", "cbc_encrypt"},  {"aes", "ctr"},
      {"bigint", "modexp"},     {"cryptdb", "agg_fold"}, {"cryptdb", "rewrite"},
      {"det", "decrypt"},       {"det", "encrypt"},      {"ope", "decrypt"},
      {"ope", "encrypt"},       {"ope_dict", "decrypt"}, {"ope_dict", "encrypt"},
      {"paillier", "add"},      {"paillier", "add_plain"},
      {"paillier", "decrypt"},  {"paillier", "encrypt"},
      {"paillier", "keygen"},   {"paillier", "mul_plain"},
      {"prob", "decrypt"},      {"prob", "encrypt"}};
  return ops;
}
const std::vector<const char*>& CryptoByteSchemes() {
  static const std::vector<const char*> schemes = {"aes", "det", "prob"};
  return schemes;
}

/// Every crypto counter by metric name (a counter not created yet reads 0).
std::map<std::string, uint64_t> CryptoSnapshot() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  std::map<std::string, uint64_t> snap;
  for (const auto& [scheme, op] : CryptoOps()) {
    snap[std::string("crypto.ops.") + scheme + "." + op] =
        registry.counter("crypto.ops", {{"op", op}, {"scheme", scheme}}).value();
  }
  for (const char* scheme : CryptoByteSchemes()) {
    snap[std::string("crypto.bytes_encrypted.") + scheme] =
        registry.counter("crypto.bytes_encrypted", {{"scheme", scheme}}).value();
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Oracle comparisons.
// ---------------------------------------------------------------------------

bool SameMatrix(const distance::DistanceMatrix& a,
                const distance::DistanceMatrix& b) {
  auto delta = distance::DistanceMatrix::MaxAbsDifference(a, b);
  return delta.ok() && *delta == 0.0;
}

bool SameDendrogram(const mining::Dendrogram& a, const mining::Dendrogram& b) {
  if (a.leaf_count != b.leaf_count || a.merges.size() != b.merges.size()) {
    return false;
  }
  for (size_t i = 0; i < a.merges.size(); ++i) {
    const mining::Merge& x = a.merges[i];
    const mining::Merge& y = b.merges[i];
    if (x.left != y.left || x.right != y.right || x.distance != y.distance) {
      return false;
    }
  }
  return true;
}

/// Collects the oracle's verdict for one op; every mismatch is printed.
class Verdict {
 public:
  explicit Verdict(int64_t op) : op_(op) {}
  void Check(bool same, const std::string& what) {
    if (same) return;
    ok_ = false;
    std::printf("MISMATCH op=%lld %s\n", static_cast<long long>(op_), what.c_str());
  }
  void Fail(const Status& status, const std::string& what) {
    ok_ = false;
    std::printf("FAILED op=%lld %s: %s\n", static_cast<long long>(op_),
                what.c_str(), status.ToString().c_str());
  }
  bool ok() const { return ok_; }

 private:
  int64_t op_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Shared per-layer accounting.
// ---------------------------------------------------------------------------

/// Sums per layer over the measured ops; the final metrics divide by the op
/// count (or form the ratios documented in README.md).
struct Layers {
  std::map<std::string, double> sum;
  std::map<std::string, double> compute_ms;  // per measure
  std::map<std::string, double> compute_cells;
  void Add(const std::string& name, double value) { sum[name] += value; }
  double Get(const std::string& name) const {
    auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  }

  /// Folds one BuildReport (an explicit build or a Run*'s internal one).
  void AddBuild(const engine::BuildReport& report, Tracer::Scope& scope) {
    Add("engine.build_ms", report.wall_ms);
    Add("engine.cells_computed", static_cast<double>(report.cells_computed));
    Add("engine.cells_reused", static_cast<double>(report.cells_cached));
    scope.Arg("cells_computed", static_cast<double>(report.cells_computed));
    scope.Arg("cells_reused", static_cast<double>(report.cells_cached));
    double compute = 0.0;
    double scan = 0.0;
    double insert = 0.0;
    for (const obs::StageTiming& stage : report.stages) {
      scope.Arg("stage." + stage.name + "_ms", stage.ms);
      if (stage.name == "compute") compute += stage.ms;
      if (stage.name == "cache_scan") scan += stage.ms;
      if (stage.name == "cache_insert") insert += stage.ms;
      if (stage.name == "journal") Add("engine.journal_ms", stage.ms);
    }
    Add("engine.cache_scan_ms", scan);
    Add("engine.cache_insert_ms", insert);
    compute_ms[report.measure] += compute;
    compute_cells[report.measure] += static_cast<double>(report.cells_computed);
    // The memo's payoff is settled after the run, once ns/cell is known.
    pending_payoff.push_back({report.measure,
                              static_cast<double>(report.cells_cached),
                              scan + insert});
  }

  double ComputeNsPerCell(const std::string& measure) const {
    auto cells = compute_cells.find(measure);
    if (cells == compute_cells.end() || cells->second == 0) return 0.0;
    return compute_ms.at(measure) * 1e6 / cells->second;
  }

  /// Reused cells x compute ns/cell - scan - insert, summed over builds.
  double MemoPayoffMs() const {
    double total = 0.0;
    for (const auto& p : pending_payoff) {
      total += p.reused * ComputeNsPerCell(p.measure) / 1e6 - p.cost_ms;
    }
    return total;
  }

  struct Payoff {
    std::string measure;
    double reused;
    double cost_ms;
  };
  std::vector<Payoff> pending_payoff;
};

template <typename T>
bool Take(Result<T> result, T& out, Verdict& verdict, const std::string& what) {
  if (!result.ok()) {
    verdict.Fail(result.status(), what);
    return false;
  }
  out = std::move(result).value();
  return true;
}

distance::MeasureContext ProviderContext(const core::EncryptionArtifacts& a) {
  distance::MeasureContext ctx;
  if (a.encrypted_db.has_value()) {
    ctx.database = &*a.encrypted_db;
    ctx.exec_options = &a.provider_options;
  }
  if (a.encrypted_domains.has_value()) ctx.domains = &*a.encrypted_domains;
  return ctx;
}

engine::EngineOptions ProviderOptions() {
  engine::EngineOptions options;
  options.threads = kEngineThreads;
  return options;
}

[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "e2ebench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what, result.status());
  return std::move(result).value();
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what, status);
}

struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool inject_mismatch = false;
};

/// Span files and the stateful workloads' checkpoints, under the checkout.
const fs::path kOutDir = ".bench_out";

core::LogEncryptor::Options EncryptorOptions(uint64_t seed) {
  core::LogEncryptor::Options options;
  options.paillier_bits = kPaillierBits;
  options.rng_seed = "e2ebench-" + std::to_string(seed);
  return options;
}

/// Flips one output cell before the oracle looks at it (--inject-mismatch),
/// once per run, to prove a wrong output is counted rather than passed.
class Injector {
 public:
  explicit Injector(bool armed) : armed_(armed) {}
  void Matrix(distance::DistanceMatrix& m) {
    if (!armed_ || m.size() < 2) return;
    armed_ = false;
    m.set(0, 1, m.at(0, 1) + 0.125);
  }

 private:
  bool armed_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct OpOutcome {
  double ms = 0.0;
  bool ok = true;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the ops need; timed as setup_s.
  virtual void Setup() = 0;
  /// One closed-loop operation; returns the timed part's wall time.
  virtual OpOutcome RunOp(int64_t index, Tracer& tracer, Layers& layers) = 0;
  /// Whether the op loop may stop after `ops` ops (append_stream only
  /// stops at an epoch boundary, so each run ends with a checked state).
  virtual bool CanStopAfter(int64_t ops) const { return ops >= 1; }
  /// Snapshot and journal bytes of the workload's checkpoints.
  struct StoreBytes {
    uint64_t snapshot = 0;
    uint64_t journal = 0;
  };
  virtual StoreBytes CheckpointBytes() const { return {}; }
  /// The miners' time on a 2-thread pool over a 1-thread pool (traced
  /// outsource_cold runs; 0 elsewhere).
  virtual double Pool2OverPool1() { return 0.0; }
  /// Checkpoint bytes per stored cell (0 when the workload has no store).
  virtual double DiskBytesPerCell() const { return 0.0; }
  /// Per-setup figures that setup repeats measure (median over setups).
  std::map<std::string, std::vector<double>> setup_figures;
};

// -- outsource_cold -----------------------------------------------------------

/// The owner's one-shot outsourcing job: encrypt under each Table-I scheme,
/// the provider builds the matrix and runs all four miners.
class OutsourceCold : public Workload {
 public:
  explicit OutsourceCold(const Settings& s) : settings_(s), injector_(s.inject_mismatch) {}

  void Setup() override {
    workload::ScenarioOptions options;
    options.seed = settings_.seed;
    options.rows_per_relation = settings_.smoke ? 20 : 60;
    options.log_size = settings_.smoke ? 40 : 512;
    scenario_ = Must(workload::MakeShopScenario(options), "MakeShopScenario");
    keys_ = std::make_unique<crypto::KeyManager>("e2ebench-owner-" +
                                                 std::to_string(settings_.seed));
    // Plaintext references: what the owner would get mining locally.
    for (core::MeasureKind kind : kKinds) {
      const std::string name = core::MeasureKindName(kind);
      engine::Engine plain(scenario_.Context(), ProviderOptions());
      plain.SetLog(scenario_.log);
      Reference& ref = refs_[name];
      ref.matrix = Must(plain.BuildMatrix(name), "reference BuildMatrix");
      ref.kmedoids = Must(plain.RunKMedoids(name, {.k = 4}), "reference kmedoids");
      ref.dbscan = Must(plain.RunDbscan(name, {}), "reference dbscan");
      ref.dendrogram = Must(plain.RunHierarchical(name), "reference hierarchical");
      ref.outliers = Must(plain.RunOutlierKnn(name, {}, 3), "reference outliers");
    }
  }

  OpOutcome RunOp(int64_t index, Tracer& tracer, Layers& layers) override {
    Verdict verdict(index);
    std::map<std::string, Provided> provided;
    OpOutcome outcome;
    {
      Tracer::Scope op(tracer, "op.outsource_pass");
      for (core::MeasureKind kind : kKinds) {
        const std::string name = core::MeasureKindName(kind);
        if (!RunScheme(kind, name, tracer, layers, verdict, provided[name])) break;
      }
      outcome.ms = op.Close();
    }
    // Oracle, outside the timed region.
    for (auto& [name, got] : provided) {
      if (!got.complete) continue;
      const Reference& ref = refs_.at(name);
      injector_.Matrix(got.matrix);
      verdict.Check(SameMatrix(got.matrix, ref.matrix), name + " matrix");
      verdict.Check(got.kmedoids.labels == ref.kmedoids.labels &&
                        got.kmedoids.medoids == ref.kmedoids.medoids,
                    name + " k-medoids");
      verdict.Check(got.dbscan.labels == ref.dbscan.labels, name + " dbscan");
      verdict.Check(SameDendrogram(got.dendrogram, ref.dendrogram),
                    name + " dendrogram");
      verdict.Check(got.outliers.outliers.outliers == ref.outliers.outliers.outliers &&
                        got.outliers.neighbors == ref.outliers.neighbors,
                    name + " outliers");
    }
    outcome.ok = verdict.ok();
    return outcome;
  }

  double Pool2OverPool1() override {
    double mining_ms[2] = {0.0, 0.0};
    for (size_t threads : {1, 2}) {
      engine::EngineOptions options;
      options.threads = threads;
      engine::Engine e(scenario_.Context(), options);
      e.SetLog(scenario_.log);
      Must(e.BuildMatrix("token").status(), "pool probe BuildMatrix");
      double internal_ms = 0.0;
      auto mine = [&](const Status& status) {
        Must(status, "pool probe");
        internal_ms += e.last_build_report().wall_ms;
      };
      auto t0 = Clock::now();
      mine(e.RunKMedoids("token", {.k = 4}).status());
      mine(e.RunDbscan("token", {}).status());
      mine(e.RunHierarchical("token").status());
      mine(e.RunOutlierKnn("token", {}, 3).status());
      mining_ms[threads - 1] =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count() -
          internal_ms;
    }
    return mining_ms[1] / mining_ms[0];
  }

 private:
  static constexpr core::MeasureKind kKinds[] = {
      core::MeasureKind::kToken, core::MeasureKind::kStructure,
      core::MeasureKind::kAccessArea, core::MeasureKind::kResult};

  struct Reference {
    distance::DistanceMatrix matrix;
    mining::KMedoidsResult kmedoids;
    mining::DbscanResult dbscan;
    mining::Dendrogram dendrogram;
    engine::OutlierKnnReport outliers;
  };
  struct Provided : Reference {
    bool complete = false;
  };

  /// Owner encrypts under one scheme; a fresh provider engine builds and mines.
  bool RunScheme(core::MeasureKind kind, const std::string& name, Tracer& tracer,
                 Layers& layers, Verdict& verdict, Provided& out) {
    std::optional<core::LogEncryptor> encryptor;
    core::EncryptionArtifacts artifacts;
    double encrypt_ms = 0.0;
    {
      Tracer::Scope s(tracer, "core.LogEncryptor.Create");
      auto created = core::LogEncryptor::Create(
          core::CanonicalScheme(kind), *keys_, scenario_.database, scenario_.log,
          scenario_.domains, EncryptorOptions(settings_.seed));
      encrypt_ms += s.Close();
      if (!created.ok()) {
        verdict.Fail(created.status(), name + " LogEncryptor::Create");
        return false;
      }
      encryptor.emplace(std::move(created).value());
    }
    {
      Tracer::Scope s(tracer, "core.LogEncryptor.EncryptAll");
      bool ok = Take(encryptor->EncryptAll(), artifacts, verdict, name + " EncryptAll");
      encrypt_ms += s.Close();
      if (!ok) return false;
    }
    layers.Add("core.encrypt_ms." + name, encrypt_ms);

    const distance::MeasureContext ctx = ProviderContext(artifacts);
    std::unique_ptr<engine::Engine> provider;
    {
      Tracer::Scope s(tracer, "engine.Engine");
      provider = std::make_unique<engine::Engine>(ctx, ProviderOptions());
    }
    {
      Tracer::Scope s(tracer, "engine.SetLog");
      provider->SetLog(std::move(artifacts.encrypted_log));
    }
    {
      Tracer::Scope s(tracer, "engine.BuildMatrix");
      engine::BuildReport report;
      bool ok = Take(provider->BuildMatrix(name, &report), out.matrix, verdict,
                     name + " BuildMatrix");
      s.Close();
      if (!ok) return false;
      layers.AddBuild(report, s);
    }
    bool ok = Mine(*provider, "mining.kmedoids_ms", "engine.RunKMedoids", tracer, layers,
                   [&] { return Take(provider->RunKMedoids(name, {.k = 4}),
                                     out.kmedoids, verdict, name + " RunKMedoids"); }) &&
              Mine(*provider, "mining.dbscan_ms", "engine.RunDbscan", tracer, layers,
                   [&] { return Take(provider->RunDbscan(name, {}), out.dbscan,
                                     verdict, name + " RunDbscan"); }) &&
              Mine(*provider, "mining.hierarchical_ms", "engine.RunHierarchical",
                   tracer, layers,
                   [&] { return Take(provider->RunHierarchical(name), out.dendrogram,
                                     verdict, name + " RunHierarchical"); }) &&
              Mine(*provider, "mining.outlier_knn_ms", "engine.RunOutlierKnn", tracer,
                   layers,
                   [&] { return Take(provider->RunOutlierKnn(name, {}, 3), out.outliers,
                                     verdict, name + " RunOutlierKnn"); });
    layers.Add("engine.memo_bytes", static_cast<double>(provider->cache_bytes_used()));
    {
      Tracer::Scope s(tracer, "engine.~Engine");
      provider.reset();
    }
    out.complete = ok;
    return ok;
  }

  /// Times one Run* call; its own BuildMatrix (a memo scan) is charged to
  /// the engine layer, the rest to the miner.
  bool Mine(engine::Engine& provider, const std::string& layer, const char* span,
            Tracer& tracer, Layers& layers, const std::function<bool()>& run) {
    Tracer::Scope s(tracer, span);
    bool ok = run();
    double wall = s.Close();
    if (!ok) return false;
    engine::BuildReport internal = provider.last_build_report();
    layers.AddBuild(internal, s);
    layers.Add(layer, wall - internal.wall_ms);
    return true;
  }

  Settings settings_;
  Injector injector_;
  workload::Scenario scenario_;
  std::unique_ptr<crypto::KeyManager> keys_;
  std::map<std::string, Reference> refs_;
};

// -- append_stream ------------------------------------------------------------

/// A long-lived provider receiving batches of encrypted queries: token and
/// access-area engines, journaled appends, periodic compaction.
///
/// The stream runs in epochs of kEpochBatches batches. Each epoch starts
/// (untimed) from the set-up checkpoint and replays the same arrivals, so
/// every run measures the same log sizes: a faster program gets more
/// samples, not a bigger state.
class AppendStream : public Workload {
 public:
  AppendStream(const Settings& s, fs::path work)
      : settings_(s), injector_(s.inject_mismatch), work_(std::move(work)) {}

  void Setup() override {
    initial_ = settings_.smoke ? 64 : 1024;
    batch_ = settings_.smoke ? 4 : 16;
    workload::ScenarioOptions options;
    options.seed = settings_.seed;
    options.rows_per_relation = 60;
    options.log_size = initial_ + batch_ * kEpochBatches;
    scenario_ = Must(workload::MakeSkyServerScenario(options), "MakeSkyServerScenario");
    keys_ = std::make_unique<crypto::KeyManager>("e2ebench-owner-" +
                                                 std::to_string(settings_.seed));
    fs::remove_all(work_);
    double save_ms = 0.0;
    for (Side& side : sides_) {
      side.encryptor.emplace(Must(
          core::LogEncryptor::Create(core::CanonicalScheme(side.kind), *keys_,
                                     scenario_.database, scenario_.log,
                                     scenario_.domains, EncryptorOptions(settings_.seed)),
          "LogEncryptor::Create"));
      // The owner ships the first `initial_` queries plus the shared domains;
      // the rest of the log arrives batch by batch through EncryptQuery.
      side.artifacts = Must(side.encryptor->EncryptAll(), "EncryptAll");
      std::vector<sql::SelectQuery> shipped(
          side.artifacts.encrypted_log.begin(),
          side.artifacts.encrypted_log.begin() + initial_);
      side.artifacts.encrypted_log.clear();
      side.ctx = ProviderContext(side.artifacts);
      engine::Engine provider(side.ctx, ProviderOptions());
      provider.SetLog(std::move(shipped));
      Must(provider.BuildMatrix(side.name).status(), "initial BuildMatrix");
      side.pristine = work_ / ("pristine-" + side.name);
      side.dir = work_ / side.name;
      engine::CheckpointSaveReport report;
      Must(provider.SaveCheckpoint(side.pristine.string(), &report), "SaveCheckpoint");
      save_ms += report.wall_ms;
    }
    setup_figures["store.save_ms"].push_back(save_ms);
  }

  /// Untimed: back to the set-up checkpoint, and a plaintext oracle engine
  /// (memo off: it only rebuilds at check points) holding the same log.
  void StartEpoch(Verdict& verdict) {
    for (Side& side : sides_) {
      side.engine.reset();
      std::error_code ec;
      fs::remove_all(side.dir, ec);
      fs::copy(side.pristine, side.dir, ec);
      if (ec) verdict.Fail(Status::Internal(ec.message()), "restore checkpoint copy");
      side.engine = std::make_unique<engine::Engine>(side.ctx, ProviderOptions());
      Status loaded = side.engine->LoadCheckpoint(side.dir.string());
      if (!loaded.ok()) verdict.Fail(loaded, side.name + " LoadCheckpoint");
    }
    engine::EngineOptions plain_options = ProviderOptions();
    plain_options.enable_cache = false;
    plain_ = std::make_unique<engine::Engine>(scenario_.Context(), plain_options);
    plain_->SetLog({scenario_.log.begin(), scenario_.log.begin() + initial_});
  }

  OpOutcome RunOp(int64_t index, Tracer& tracer, Layers& layers) override {
    Verdict verdict(index);
    const int64_t batch = index % kEpochBatches;
    if (batch == 0) StartEpoch(verdict);
    const size_t first = initial_ + static_cast<size_t>(batch) * batch_;
    const bool compaction = (batch + 1) % kCompactEvery == 0;
    OpOutcome outcome;
    std::map<std::string, distance::DistanceMatrix> matrices;
    engine::OutlierKnnReport outliers;
    const uint64_t written_before = IoCharsSoFar().written;
    double cells = 0.0;
    bool ok = verdict.ok();
    {
      Tracer::Scope op(tracer, "op.append_batch");
      for (Side& side : sides_) {
        for (size_t i = first; i < first + batch_ && ok; ++i) {
          sql::SelectQuery encrypted;
          {
            Tracer::Scope s(tracer, "core.LogEncryptor.EncryptQuery");
            ok = Take(side.encryptor->EncryptQuery(scenario_.log[i]), encrypted,
                      verdict, side.name + " EncryptQuery");
            layers.Add("core.encrypt_query_us", s.Close() * 1000.0);
            layers.Add("core.queries_encrypted", 1);
          }
          if (!ok) break;
          Tracer::Scope s(tracer, "engine.AddQuery");
          Status added = side.engine->AddQuery(std::move(encrypted));
          layers.Add("store.append_ms", s.Close());
          if (!added.ok()) {
            verdict.Fail(added, side.name + " AddQuery");
            ok = false;
          }
        }
      }
      for (Side& side : sides_) {
        if (!ok) break;
        Tracer::Scope s(tracer, "engine.BuildMatrix");
        engine::BuildReport report;
        ok = Take(side.engine->BuildMatrix(side.name, &report), matrices[side.name],
                  verdict, side.name + " BuildMatrix");
        s.Close();
        if (ok) {
          layers.AddBuild(report, s);
          cells += static_cast<double>(report.cells_computed);
        }
      }
      if (ok) {
        Side& token = sides_[0];
        Tracer::Scope s(tracer, "engine.RunOutlierKnn");
        ok = Take(token.engine->RunOutlierKnn(token.name, {}, 3), outliers, verdict,
                  "token RunOutlierKnn");
        double wall = s.Close();
        if (ok) {
          engine::BuildReport internal = token.engine->last_build_report();
          layers.AddBuild(internal, s);
          layers.Add("mining.outlier_knn_ms", wall - internal.wall_ms);
        }
      }
      if (ok && compaction) {
        Tracer::Scope batch(tracer, "engine.CompactNow");
        for (Side& side : sides_) {
          Tracer::Scope s(tracer, "engine.CompactNow." + side.name);
          auto compacted = side.engine->CompactNow();
          s.Close();
          if (!compacted.ok()) {
            verdict.Fail(compacted.status(), side.name + " CompactNow");
            ok = false;
          } else if (!*compacted) {
            verdict.Fail(Status::Internal("no generation published"),
                         side.name + " CompactNow");
            ok = false;
          }
        }
        layers.Add("store.compact_ms", batch.Close());
        layers.Add("store.compactions", 1);
      }
      outcome.ms = op.Close();
    }
    layers.Add("store.write_bytes",
               static_cast<double>(IoCharsSoFar().written - written_before));
    layers.Add("store.cells_written", cells);
    for (Side& side : sides_) {
      layers.Add("engine.memo_bytes", static_cast<double>(side.engine->cache_bytes_used()));
    }

    // Oracle, outside the timed region: the plaintext engine takes the same
    // arrivals; after each compaction batch everything is compared, and so
    // is what a restart would load from the compacted generation.
    for (size_t i = first; i < first + batch_; ++i) {
      Status added = plain_->AddQuery(scenario_.log[i]);
      if (!added.ok()) verdict.Fail(added, "plaintext AddQuery");
    }
    if (ok && compaction) {
      for (Side& side : sides_) {
        distance::DistanceMatrix reference;
        if (!Take(plain_->BuildMatrix(side.name), reference, verdict,
                  "plaintext " + side.name + " BuildMatrix")) {
          continue;
        }
        injector_.Matrix(matrices[side.name]);
        verdict.Check(SameMatrix(matrices[side.name], reference), side.name + " matrix");
        if (&side == &sides_[0]) CheckOutliers(reference, outliers, verdict);
        CheckCompacted(side, reference, verdict);
      }
    }
    outcome.ok = ok && verdict.ok();
    return outcome;
  }

  bool CanStopAfter(int64_t ops) const override {
    return ops >= 1 && ops % kEpochBatches == 0;
  }

  StoreBytes CheckpointBytes() const override {
    StoreBytes bytes;
    for (const Side& side : sides_) {
      bytes.snapshot += DirBytes(side.dir, "snapshot");
      bytes.journal += DirBytes(side.dir, "journal");
    }
    return bytes;
  }

  double DiskBytesPerCell() const override {
    double bytes = 0.0;
    double cells = 0.0;
    for (const Side& side : sides_) {
      const double n = static_cast<double>(side.engine->log_size());
      bytes += static_cast<double>(DirBytes(side.dir));
      cells += n * (n - 1) / 2;
    }
    return cells > 0 ? bytes / cells : 0.0;
  }

 private:
  static constexpr int64_t kCompactEvery = 10;
  static constexpr int64_t kEpochBatches = 20;

  struct Side {
    core::MeasureKind kind;
    std::string name;
    std::optional<core::LogEncryptor> encryptor;
    core::EncryptionArtifacts artifacts;
    distance::MeasureContext ctx;
    std::unique_ptr<engine::Engine> engine;
    fs::path pristine;
    fs::path dir;
  };

  /// Loads a copy of the side's compacted checkpoint into a fresh engine: it
  /// must hold every cell (the build computes none) and give `reference`.
  void CheckCompacted(const Side& side, const distance::DistanceMatrix& reference,
                      Verdict& verdict) {
    const fs::path copy = work_ / ("compacted-" + side.name);
    std::error_code ec;
    fs::remove_all(copy, ec);
    fs::copy(side.dir, copy, ec);
    if (ec) {
      verdict.Fail(Status::Internal(ec.message()), "copy compacted checkpoint");
      return;
    }
    engine::Engine restarted(side.ctx, ProviderOptions());
    Status loaded = restarted.LoadCheckpoint(copy.string());
    if (!loaded.ok()) {
      verdict.Fail(loaded, side.name + " LoadCheckpoint of compacted generation");
      return;
    }
    engine::BuildReport report;
    distance::DistanceMatrix matrix;
    if (!Take(restarted.BuildMatrix(side.name, &report), matrix, verdict,
              side.name + " BuildMatrix after compacted load")) {
      return;
    }
    verdict.Check(report.cells_computed == 0,
                  side.name + " compacted generation holds every cell");
    verdict.Check(SameMatrix(matrix, reference), side.name + " compacted matrix");
  }

  void CheckOutliers(const distance::DistanceMatrix& reference,
                     const engine::OutlierKnnReport& got, Verdict& verdict) {
    mining::OutlierResult expected;
    if (!Take(mining::DistanceBasedOutliers(reference, {}), expected, verdict,
              "plaintext outliers")) {
      return;
    }
    bool same = expected.outliers == got.outliers.outliers &&
                got.neighbors.size() == expected.outliers.size();
    for (size_t r = 0; same && r < expected.outliers.size(); ++r) {
      std::vector<size_t> neighbors;
      if (!Take(mining::NearestNeighbors(reference, expected.outliers[r], 3),
                neighbors, verdict, "plaintext neighbours")) {
        return;
      }
      same = neighbors == got.neighbors[r];
    }
    verdict.Check(same, "token outliers");
  }

  Settings settings_;
  Injector injector_;
  fs::path work_;
  size_t initial_ = 0;
  size_t batch_ = 0;
  workload::Scenario scenario_;
  std::unique_ptr<crypto::KeyManager> keys_;
  Side sides_[2] = {{core::MeasureKind::kToken, "token", {}, {}, {}, nullptr, {}, {}},
                    {core::MeasureKind::kAccessArea, "access-area", {}, {}, {}, nullptr, {}, {}}};
  std::unique_ptr<engine::Engine> plain_;
};

// -- restart_resume -----------------------------------------------------------

/// A provider restarting from its checkpoint (snapshot + journal) and
/// absorbing a batch of new queries.
class RestartResume : public Workload {
 public:
  RestartResume(const Settings& s, fs::path work)
      : settings_(s), injector_(s.inject_mismatch), work_(std::move(work)) {}

  void Setup() override {
    snapshot_n_ = settings_.smoke ? 64 : 1024;
    journal_n_ = settings_.smoke ? 8 : 64;
    arrivals_ = settings_.smoke ? 4 : 16;
    const size_t n = snapshot_n_ + journal_n_ + arrivals_;
    workload::ScenarioOptions options;
    options.seed = settings_.seed;
    options.rows_per_relation = 60;
    options.log_size = n;
    scenario_ = Must(workload::MakeShopScenario(options), "MakeShopScenario");
    crypto::KeyManager keys("e2ebench-owner-" + std::to_string(settings_.seed));
    fs::remove_all(work_);
    double cold_ms = 0.0;
    for (Side& side : sides_) {
      auto encryptor = Must(
          core::LogEncryptor::Create(core::CanonicalScheme(side.kind), keys,
                                     scenario_.database, scenario_.log,
                                     scenario_.domains, EncryptorOptions(settings_.seed)),
          "LogEncryptor::Create");
      side.encrypted = Must(encryptor.EncryptAll(), "EncryptAll").encrypted_log;
      side.pristine = work_ / ("pristine-" + side.name);
      side.dir = work_ / side.name;
      {
        // Session 1: mine the snapshot, checkpoint, then journal more queries
        // and their computed rows.
        engine::Engine session(ctx_, ProviderOptions());
        session.SetLog({side.encrypted.begin(), side.encrypted.begin() + snapshot_n_});
        Must(session.BuildMatrix(side.name).status(), "initial BuildMatrix");
        Must(session.SaveCheckpoint(side.pristine.string()), "SaveCheckpoint");
        for (size_t i = snapshot_n_; i < snapshot_n_ + journal_n_; ++i) {
          Must(session.AddQuery(side.encrypted[i]), "journaled AddQuery");
        }
        Must(session.BuildMatrix(side.name).status(), "journaled BuildMatrix");
      }
      // Cold reference: a fresh engine over the whole encrypted log, checked
      // once against the plaintext matrix.
      engine::Engine cold(ctx_, ProviderOptions());
      cold.SetLog(side.encrypted);
      auto t0 = Clock::now();
      side.reference = Must(cold.BuildMatrix(side.name), "cold BuildMatrix");
      cold_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      engine::Engine plain(scenario_.Context(), ProviderOptions());
      plain.SetLog(scenario_.log);
      auto reference = Must(plain.BuildMatrix(side.name), "plaintext BuildMatrix");
      if (!SameMatrix(side.reference, reference)) {
        Fatal("setup", Status::Internal(side.name +
                                        ": ciphertext matrix differs from plaintext"));
      }
    }
    setup_figures["engine.cold_rebuild_ms"].push_back(cold_ms);
  }

  OpOutcome RunOp(int64_t index, Tracer& tracer, Layers& layers) override {
    Verdict verdict(index);
    // Untimed: put the checkpoint back to its pristine state.
    for (Side& side : sides_) {
      std::error_code ec;
      fs::remove_all(side.dir, ec);
      fs::copy(side.pristine, side.dir, ec);
      if (ec) verdict.Fail(Status::Internal(ec.message()), "restore checkpoint copy");
    }
    std::vector<std::unique_ptr<engine::Engine>> engines;
    std::map<std::string, distance::DistanceMatrix> matrices;
    OpOutcome outcome;
    bool ok = verdict.ok();
    {
      Tracer::Scope op(tracer, "op.resume");
      for (Side& side : sides_) {
        if (!ok) break;
        {
          Tracer::Scope s(tracer, "engine.Engine");
          engines.push_back(std::make_unique<engine::Engine>(ctx_, ProviderOptions()));
        }
        engine::Engine& e = *engines.back();
        {
          Tracer::Scope s(tracer, "engine.LoadCheckpoint");
          engine::CheckpointLoadReport report;
          Status loaded = e.LoadCheckpoint(side.dir.string(), &report);
          layers.Add("store.load_ms", s.Close());
          if (!loaded.ok()) {
            verdict.Fail(loaded, side.name + " LoadCheckpoint");
            ok = false;
            break;
          }
          for (const obs::StageTiming& stage : report.stages) {
            s.Arg("stage." + stage.name + "_ms", stage.ms);
            if (stage.name == "read") layers.Add("store.load.read_ms", stage.ms);
            if (stage.name == "restore") layers.Add("store.load.restore_ms", stage.ms);
            if (stage.name == "parse") layers.Add("sql.parse_ms", stage.ms);
          }
          s.Arg("journal_records_replayed",
                static_cast<double>(report.journal_records_replayed));
          layers.Add("store.journal_records_replayed",
                     static_cast<double>(report.journal_records_replayed));
        }
        const size_t first = snapshot_n_ + journal_n_;
        for (size_t i = first; i < first + arrivals_ && ok; ++i) {
          Tracer::Scope s(tracer, "engine.AddQuery");
          Status added = e.AddQuery(side.encrypted[i]);
          layers.Add("store.append_ms", s.Close());
          if (!added.ok()) {
            verdict.Fail(added, side.name + " AddQuery");
            ok = false;
          }
        }
        if (!ok) break;
        Tracer::Scope s(tracer, "engine.BuildMatrix");
        engine::BuildReport report;
        ok = Take(e.BuildMatrix(side.name, &report), matrices[side.name], verdict,
                  side.name + " BuildMatrix");
        s.Close();
        if (ok) layers.AddBuild(report, s);
      }
      outcome.ms = op.Close();
    }
    for (auto& e : engines) {
      layers.Add("engine.memo_bytes", static_cast<double>(e->cache_bytes_used()));
    }
    engines.clear();
    if (ok) {
      for (Side& side : sides_) {
        injector_.Matrix(matrices[side.name]);
        verdict.Check(SameMatrix(matrices[side.name], side.reference),
                      side.name + " resumed matrix vs cold build");
      }
    }
    outcome.ok = ok && verdict.ok();
    return outcome;
  }

  StoreBytes CheckpointBytes() const override {
    StoreBytes bytes;
    for (const Side& side : sides_) {
      bytes.snapshot += DirBytes(side.pristine, "snapshot");
      bytes.journal += DirBytes(side.pristine, "journal");
    }
    return bytes;
  }

  double DiskBytesPerCell() const override {
    const double n = static_cast<double>(snapshot_n_ + journal_n_);
    double bytes = 0.0;
    for (const Side& side : sides_) bytes += static_cast<double>(DirBytes(side.pristine));
    return bytes / (2.0 * n * (n - 1) / 2);
  }

 private:
  struct Side {
    core::MeasureKind kind;
    std::string name;
    std::vector<sql::SelectQuery> encrypted;
    fs::path pristine;
    fs::path dir;
    distance::DistanceMatrix reference;
  };

  Settings settings_;
  Injector injector_;
  fs::path work_;
  size_t snapshot_n_ = 0;
  size_t journal_n_ = 0;
  size_t arrivals_ = 0;
  workload::Scenario scenario_;
  // Token and structure need no shared information on the provider side.
  distance::MeasureContext ctx_;
  Side sides_[2] = {{core::MeasureKind::kToken, "token", {}, {}, {}, {}},
                    {core::MeasureKind::kStructure, "structure", {}, {}, {}, {}}};
};

// ---------------------------------------------------------------------------
// Statistics and output.
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

/// The highest percentile with at least ten samples beyond it (0 if fewer
/// than eleven samples exist).
std::pair<int, double> TailPercentile(const std::vector<double>& values) {
  const size_t n = values.size();
  if (n < 11) return {0, 0.0};
  int pct = static_cast<int>(std::floor(100.0 * static_cast<double>(n - 10) /
                                        static_cast<double>(n)));
  return {pct, Quantile(values, pct / 100.0)};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonResult(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

/// Self time per span name over the traced ops, plus each op's share of
/// wall time no child span accounts for.
struct SpanTable {
  struct Row {
    int64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    double cells = 0.0;
    double read_bytes = 0.0;
    double written_bytes = 0.0;
  };
  std::map<std::string, Row> rows;
  double max_unattributed = 0.0;  ///< worst single op
  double unattributed = 0.0;      ///< over all traced ops
  int64_t traced_ops = 0;

  explicit SpanTable(const std::vector<Tracer::Span>& spans) {
    std::vector<double> child_ms(spans.size(), 0.0);
    double op_ms = 0.0;
    double unattributed_ms = 0.0;
    for (const Tracer::Span& s : spans) {
      if (s.parent >= 0) {
        child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      const double total = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      Row& row = rows[s.name];
      ++row.calls;
      row.total_ms += total;
      row.self_ms += total - child_ms[i];
      row.read_bytes += static_cast<double>(s.io.read);
      row.written_bytes += static_cast<double>(s.io.written);
      for (const auto& [key, value] : s.args) {
        if (key == "cells_computed") row.cells += value;
      }
      if (s.parent < 0) {
        ++traced_ops;
        op_ms += total;
        unattributed_ms += total - child_ms[i];
        if (total > 0) {
          max_unattributed = std::max(max_unattributed, (total - child_ms[i]) / total);
        }
      }
    }
    unattributed = op_ms > 0 ? unattributed_ms / op_ms : 0.0;
  }

  void Print() const {
    std::printf("\nper-layer spans over %lld traced ops (self = span minus its children)\n",
                static_cast<long long>(traced_ops));
    std::printf("  %-34s %7s %11s %11s %11s %9s %12s %12s\n", "span", "calls",
                "total ms", "self ms", "self ms/op", "ns/cell", "read B/call",
                "write B/call");
    for (const auto& [name, row] : rows) {
      const double calls = static_cast<double>(row.calls);
      std::printf("  %-34s %7lld %11.3f %11.3f %11.3f", name.c_str(),
                  static_cast<long long>(row.calls), row.total_ms, row.self_ms,
                  traced_ops ? row.self_ms / static_cast<double>(traced_ops) : 0.0);
      if (row.cells > 0) {
        std::printf(" %9.1f", row.total_ms * 1e6 / row.cells);
      } else {
        std::printf(" %9s", "-");
      }
      std::printf(" %12.0f %12.0f\n", row.read_bytes / calls, row.written_bytes / calls);
    }
    std::printf("  unattributed op time: %.2f%% over all traced ops, at most %.2f%% "
                "of one op\n",
                100.0 * unattributed, 100.0 * max_unattributed);
  }
};

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload outsource_cold|append_stream|restart_resume\n"
               "                --seed N --seconds S --trace 0|1\n"
               "                [--smoke] [--inject-mismatch]\n");
}

bool ParseArgs(int argc, char** argv, Settings& s) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--smoke") {
      s.smoke = true;
    } else if (arg == "--inject-mismatch") {
      s.inject_mismatch = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return false;
      if (arg == "--workload") s.workload = v;
      if (arg == "--seed") s.seed = std::strtoull(v, nullptr, 10);
      if (arg == "--seconds") s.seconds = std::strtod(v, nullptr);
      if (arg == "--trace") s.trace = std::string(v) != "0";
    } else {
      return false;
    }
  }
  return s.workload == "outsource_cold" || s.workload == "append_stream" ||
         s.workload == "restart_resume";
}

/// Environment variables that change the program being measured.
bool EnvironmentIsClean() {
  bool clean = true;
  for (const char* name : {"DPE_TRACE", "DPE_FAULT", "DPE_KERNEL_BACKEND",
                           "DPE_TELEMETRY_PORT", "DPE_TELEMETRY_PUSH_URL"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "e2ebench: refusing to run with %s set\n", name);
      clean = false;
    }
  }
  return clean;
}

std::unique_ptr<Workload> MakeWorkload(const Settings& s, const fs::path& work) {
  if (s.workload == "outsource_cold") return std::make_unique<OutsourceCold>(s);
  if (s.workload == "append_stream") return std::make_unique<AppendStream>(s, work);
  return std::make_unique<RestartResume>(s, work);
}

}  // namespace

int main(int argc, char** argv) {
  Settings settings;
  if (!ParseArgs(argc, argv, settings)) {
    Usage();
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "e2ebench: refusing to run a build without NDEBUG\n");
  return 2;
#endif
  if (!EnvironmentIsClean()) return 2;

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const HostSpeed host = CalibrateHost(nproc);
  std::printf("host: nproc=%u effective_cores=%.2f spin_ms=%.2f simd=%s build=%s "
              "engine_threads=%zu\n",
              nproc, host.effective_cores, host.spin_ms,
              common::simd::BackendName(common::simd::ActiveBackend()),
              E2EBENCH_BUILD_TYPE, kEngineThreads);
  const int setups = settings.smoke ? 1 : 3;
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d setups=%d%s%s\n",
              settings.workload.c_str(), static_cast<unsigned long long>(settings.seed),
              settings.seconds, settings.trace ? 1 : 0, setups,
              settings.smoke ? " smoke" : "",
              settings.inject_mismatch ? " inject-mismatch" : "");
  std::fflush(stdout);

  const fs::path work =
      kOutDir / ("work-" + settings.workload + "-" + std::to_string(getpid()));

  // Set up several times (once under --smoke); setup_s is the median and
  // the last set-up's state is the one measured.
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_figures;
  std::unique_ptr<Workload> wl;
  for (int k = 0; k < setups; ++k) {
    wl.reset();
    wl = MakeWorkload(settings, work);
    auto t0 = Clock::now();
    wl->Setup();
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    for (auto& [name, values] : wl->setup_figures) {
      for (double v : values) setup_figures[name].push_back(v);
    }
  }

  // Closed loop: one client, next op when the previous one finished. The
  // run measures `seconds` of op time (untimed oracle work excluded).
  Tracer tracer;
  Layers layers;
  const auto crypto_before = CryptoSnapshot();
  std::vector<double> op_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  int64_t failed = 0;
  double measured_s = 0.0;
  for (int64_t op = 0;; ++op) {
    if (measured_s >= settings.seconds && wl->CanStopAfter(op)) break;
    // Traced runs trace half the ops, in the pattern traced, untraced,
    // untraced, traced, ... (so a periodic op, such as append_stream's
    // every-10th compaction, lands on both sides): the difference of the
    // two medians is the tracing overhead.
    const bool traced = settings.trace && (op + op / 2) % 2 == 0;
    tracer.set_enabled(traced);
    tracer.set_op(op);
    OpOutcome outcome = wl->RunOp(op, tracer, layers);
    tracer.set_enabled(false);
    op_ms.push_back(outcome.ms);
    (traced ? traced_ms : untraced_ms).push_back(outcome.ms);
    measured_s += outcome.ms / 1000.0;
    if (!outcome.ok) ++failed;
  }
  const auto crypto_after = CryptoSnapshot();
  const int64_t attempted = static_cast<int64_t>(op_ms.size());
  const double ops = static_cast<double>(attempted);

  // -- end-to-end ------------------------------------------------------------
  const double p50 = Median(op_ms);
  double mean = 0.0;
  for (double v : op_ms) mean += v;
  mean /= ops;
  const auto [tail_pct, tail_ms] = TailPercentile(op_ms);
  const double peak_rss = PeakRssMiB();
  const double disk_per_cell = wl->DiskBytesPerCell();
  const double failed_frac = static_cast<double>(failed) / ops;
  const double setup_median = Median(setup_s);
  double owner_s = 0.0;
  for (const char* kind : {"token", "structure", "access-area", "result"}) {
    owner_s += layers.Get(std::string("core.encrypt_ms.") + kind) / ops / 1000.0;
  }

  std::printf("\nend-to-end (%s, %lld ops, %lld failed)\n", settings.workload.c_str(),
              static_cast<long long>(attempted), static_cast<long long>(failed));
  auto line = [](const char* name, double value, const char* unit, size_t n,
                 const std::string& note = "") {
    std::printf("  %-20s %14.4f %-6s n=%zu%s\n", name, value, unit, n, note.c_str());
  };
  line("setup_s", setup_median, "s", setup_s.size());
  line("op_ms_p50", p50, "ms", op_ms.size());
  line("op_ms_mean", mean, "ms", op_ms.size());
  line("peak_rss_mb", peak_rss, "MiB", 1);
  line("ops_failed_frac", failed_frac, "ratio", op_ms.size());
  if (settings.workload == "outsource_cold") {
    line("outsource_s", p50 / 1000.0, "s", op_ms.size());
    line("owner_encrypt_s", owner_s, "s", op_ms.size(), " (mean per pass)");
  } else if (settings.workload == "append_stream") {
    line("batch_ms_p50", p50, "ms", op_ms.size());
    line("disk_bytes_per_cell", disk_per_cell, "B", 1);
  } else {
    line("resume_ms", p50, "ms", op_ms.size());
    line("disk_bytes_per_cell", disk_per_cell, "B", 1);
  }
  if (tail_pct > 0) {
    line("op_ms_tail", tail_ms, "ms", op_ms.size(),
         " (p" + std::to_string(tail_pct) + ", " +
             std::to_string(op_ms.size() - static_cast<size_t>(std::ceil(
                                               tail_pct / 100.0 * op_ms.size()))) +
             " samples beyond)");
  } else {
    std::printf("  %-20s %14s %-6s n=%zu (fewer than 11 samples: no percentile has 10 "
                "beyond it)\n",
                "op_ms_tail", "-", "ms", op_ms.size());
  }

  std::vector<Metric> metrics;
  if (!settings.trace) {
    metrics = {{"setup_s", setup_median, "s"},
               {"op_ms_p50", p50, "ms"},
               {"op_ms_mean", mean, "ms"},
               {"peak_rss_mb", peak_rss, "MiB"}};
  } else {
    // -- per layer ------------------------------------------------------------
    std::vector<Metric>& m = metrics;
    auto per_op = [&](const std::string& name, const char* unit) {
      m.push_back({name, layers.Get(name) / ops, unit});
    };
    for (const char* kind : {"token", "structure", "access-area", "result"}) {
      per_op(std::string("core.encrypt_ms.") + kind, "ms");
    }
    const double queries_encrypted = layers.Get("core.queries_encrypted");
    m.push_back({"core.encrypt_query_us",
                 queries_encrypted > 0
                     ? layers.Get("core.encrypt_query_us") / queries_encrypted
                     : 0.0,
                 "us"});
    for (const auto& [name, after] : crypto_after) {
      m.push_back({name, static_cast<double>(after - crypto_before.at(name)) / ops,
                   name.starts_with("crypto.bytes") ? "B" : "count"});
    }
    for (const char* kind : {"token", "structure", "access-area", "result"}) {
      m.push_back({std::string("distance.compute_ns_per_cell.") + kind,
                   layers.ComputeNsPerCell(kind), "ns/cell"});
    }
    for (const char* name : {"engine.build_ms", "engine.cache_scan_ms",
                             "engine.cache_insert_ms", "engine.journal_ms"}) {
      per_op(name, "ms");
    }
    per_op("engine.cells_computed", "count");
    per_op("engine.cells_reused", "count");
    const double computed = layers.Get("engine.cells_computed");
    m.push_back({"engine.memo_reuse_ratio",
                 computed > 0 ? layers.Get("engine.cells_reused") / computed : 0.0,
                 "ratio"});
    per_op("engine.memo_bytes", "B");
    m.push_back({"engine.memo_payoff_ms", layers.MemoPayoffMs() / ops, "ms"});
    for (const char* name : {"mining.kmedoids_ms", "mining.dbscan_ms",
                             "mining.hierarchical_ms", "mining.outlier_knn_ms"}) {
      per_op(name, "ms");
    }
    m.push_back({"mining.pool2_over_pool1", wl->Pool2OverPool1(), "ratio"});
    per_op("store.append_ms", "ms");
    const double compactions = layers.Get("store.compactions");
    m.push_back({"store.compact_ms",
                 compactions > 0 ? layers.Get("store.compact_ms") / compactions : 0.0,
                 "ms"});
    m.push_back({"store.save_ms", Median(setup_figures["store.save_ms"]), "ms"});
    const double cells_written = layers.Get("store.cells_written");
    m.push_back({"store.write_bytes_per_cell",
                 cells_written > 0 ? layers.Get("store.write_bytes") / cells_written
                                   : 0.0,
                 "B/cell"});
    for (const char* name : {"store.load_ms", "store.load.read_ms",
                             "store.load.restore_ms"}) {
      per_op(name, "ms");
    }
    per_op("store.journal_records_replayed", "count");
    const Workload::StoreBytes bytes = wl->CheckpointBytes();
    m.push_back({"store.snapshot_bytes", static_cast<double>(bytes.snapshot), "B"});
    m.push_back({"store.journal_bytes", static_cast<double>(bytes.journal), "B"});
    m.push_back({"store.disk_bytes_per_cell", disk_per_cell, "B/cell"});
    per_op("sql.parse_ms", "ms");
    const double cold = Median(setup_figures["engine.cold_rebuild_ms"]);
    m.push_back({"engine.cold_rebuild_ms", cold, "ms"});
    m.push_back({"store.resume_over_cold", cold > 0 ? p50 / cold : 0.0, "ratio"});
    m.push_back({"e2e.op_ms_tail", tail_ms, "ms"});
    const double untraced_p50 = Median(untraced_ms);
    m.push_back({"obs.trace_overhead_frac",
                 untraced_p50 > 0 ? Median(traced_ms) / untraced_p50 - 1.0 : 0.0,
                 "ratio"});
    SpanTable table(tracer.spans());
    table.Print();
    m.push_back({"obs.op_unattributed_frac", table.unattributed, "ratio"});

    std::printf("\nper-layer metrics (per op unless the name says otherwise)\n");
    for (const Metric& metric : m) {
      std::printf("  %-40s %16.4f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }

    std::error_code ec;
    fs::create_directories(kOutDir, ec);
    const fs::path trace_file =
        kOutDir / ("trace-" + settings.workload + "-seed" +
                        std::to_string(settings.seed) + ".json");
    std::ofstream(trace_file) << tracer.ToChromeJson();
    std::printf("\nspans: %zu written to %s (open in chrome://tracing or ui.perfetto.dev)\n",
                tracer.spans().size(), trace_file.string().c_str());
  }

  wl.reset();
  std::error_code ec;
  fs::remove_all(work, ec);
  std::printf("%s\n", JsonResult(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}
