// The query-distance-measure interface (Table I rows).
//
// A measure computes d(Q1, Q2) given the shared information its row of
// Table I requires: the log itself (always), the database content (result
// distance) and/or the attribute domains (access-area distance). The same
// implementations run on plaintext and on ciphertext: on the encrypted side
// the context simply carries the encrypted database / encrypted domains and
// the provider-side execution options.

#ifndef DPE_DISTANCE_MEASURE_H_
#define DPE_DISTANCE_MEASURE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "db/access_area.h"
#include "db/database.h"
#include "db/executor.h"
#include "sql/ast.h"

namespace dpe::distance {

/// What must be shared with the service provider (Table I columns 2-4).
struct SharedInformation {
  bool log = true;
  bool db_content = false;
  bool domains = false;
};

class FeatureCache;

/// Context supplying the shared information to a measure.
struct MeasureContext {
  /// Database to execute queries against (result distance).
  const db::Database* database = nullptr;
  /// Execution options (encrypted side: the Paillier aggregate hook).
  const db::ExecuteOptions* exec_options = nullptr;
  /// Attribute domains (access-area distance).
  const db::DomainRegistry* domains = nullptr;
  /// Precomputed per-query features (distance/features.h), set by the
  /// engine's MatrixBuilder for the duration of one build. Optional:
  /// Prepare reads it when it covers every query being prepared and
  /// extracts features itself otherwise, bit-identically.
  const FeatureCache* features = nullptr;
  /// Which SIMD kernel backend the measures' hot loops dispatch to
  /// (common/simd.h). kAuto resolves env + CPU detection; an explicit value
  /// (from EngineOptions::kernel_backend, or forced by tests) pins the
  /// backend. Every backend is bit-identical to scalar, so this knob can
  /// only change speed, never distances — a tested property.
  common::simd::KernelBackend kernel_backend =
      common::simd::KernelBackend::kAuto;
};

/// Pointers to every query of `log`, in order: the list Prepare takes.
inline std::vector<const sql::SelectQuery*> QueryList(
    const std::vector<sql::SelectQuery>& log) {
  std::vector<const sql::SelectQuery*> list;
  list.reserve(log.size());
  for (const sql::SelectQuery& q : log) list.push_back(&q);
  return list;
}

/// A measure bound to one query list by QueryDistanceMeasure::Prepare:
/// every lookup by SQL text, query address or database was resolved there,
/// once per row, so a cell is pure arithmetic over per-row data.
///
/// Immutable, so Distance is safe to call from any number of threads at
/// once. It holds pointers into the measure's memo and into the feature
/// cache of the context it was prepared under: it is valid until the
/// measure's next Prepare or destruction, and no longer than that feature
/// cache lives.
class PreparedLog {
 public:
  virtual ~PreparedLog() = default;

  /// d(queries[i], queries[j]) in [0, 1], for positions i, j of the list
  /// Prepare was given. The builders call it with the smaller index first.
  virtual double Distance(size_t i, size_t j) const = 0;
};

class QueryDistanceMeasure {
 public:
  virtual ~QueryDistanceMeasure() = default;

  /// Stable identifier ("token", "structure", "result", "access-area").
  virtual std::string Name() const = 0;

  /// Which Table-I shared information this measure needs.
  virtual SharedInformation Shared() const = 0;

  /// Binds the measure to `queries` (which must outlive the result):
  /// extracts each query's features once (reusing context.features when it
  /// covers every query, building a cache otherwise), executes or extracts
  /// what the measure needs per row, and fails here on anything a cell
  /// would need. Called single-threaded per measure instance; measures may
  /// memoize across calls (the result measure keeps executed tuple sets
  /// keyed by SQL text, so incremental builds do not re-execute queries).
  virtual Result<std::unique_ptr<PreparedLog>> Prepare(
      const std::vector<const sql::SelectQuery*>& queries,
      const MeasureContext& context) const = 0;

  /// d(q1, q2) in [0, 1]: Prepare over {q1, q2}, then Distance(0, 1). For
  /// one-off pairs; matrix builds prepare the whole log once.
  Result<double> Distance(const sql::SelectQuery& q1,
                          const sql::SelectQuery& q2,
                          const MeasureContext& context) const {
    DPE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedLog> log,
                         Prepare({&q1, &q2}, context));
    return log->Distance(0, 1);
  }
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_MEASURE_H_
