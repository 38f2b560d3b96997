// Inputs shared by the workloads: the two databases (telephony and
// per-order TPC-H), the compressed sessions built from them, the fixed
// probe scenarios, and the independent polynomial oracle.
//
// The databases come from fixed data seeds, so every run serves the same
// provenance; `--seed` drives only the traffic (scenario sets, hot pool,
// stream axes, bound jitter). That keeps the artifact sizes, the accuracy
// metric and the memory footprint the same on every seed.

#ifndef COBRA_E2EBENCH_FIXTURES_H_
#define COBRA_E2EBENCH_FIXTURES_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "prov/poly_set.h"
#include "prov/valuation.h"
#include "rel/database.h"

namespace e2ebench {

/// Telephony (Section 4 of the paper): 1,055 zips × 11 plans × 12 months =
/// 139,260 monomials in 1,055 groups whatever the customer count, once
/// every zip holds a customer per plan.
inline constexpr std::size_t kTelephonyCustomers = 20'000;
/// Share of the full size the serving snapshot's DP bound allows.
inline constexpr double kTelephonyBoundFraction = 0.7;

/// Per-order TPC-H Q6: one variable per order, greedy over order buckets.
inline constexpr double kTpchScaleFactor = 0.03;
inline constexpr std::size_t kTpchBucket = 128;
inline constexpr std::size_t kTpchBoundPercent = 60;

/// The instrumented telephony database (fixed data seed).
std::unique_ptr<cobra::rel::Database> MakeTelephonyDb();

/// The analyst's base values: every plan leaf drawn from a fixed seed, so
/// merged groups are non-uniform and compression loses accuracy.
void SetTelephonyBaseValues(cobra::core::Session* session);
/// The same values as a valuation over `session`'s pool.
cobra::prov::Valuation TelephonyBase(const cobra::core::Session& session);

/// An authored, compressed session together with its serving snapshot.
struct Authored {
  std::unique_ptr<cobra::core::Session> session;
  std::shared_ptr<const cobra::core::CompiledSession> snapshot;
  /// Analyst base valuation over the pool (the accuracy reference).
  cobra::prov::Valuation base{std::size_t{0}};
};

/// Telephony revenue per zip, DP over the Figure 2 plan tree at
/// kTelephonyBoundFraction.
Authored AuthorTelephony();

/// Per-order TPC-H Q6, greedy over the order-bucket tree.
Authored AuthorTpchByOrder();

/// A fixed probe set over `snapshot`'s meta-variables: probe 0 has no
/// deltas (the default assignment), the rest one or two deltas each.
cobra::core::ScenarioSet ProbeScenarios(
    const cobra::core::CompiledSession& snapshot, std::size_t count);

/// Rows of a batch report flattened scenario-major, as the wire carries
/// them.
struct Rows {
  std::vector<double> full;
  std::vector<double> compressed;
};
Rows FlattenReport(const cobra::core::BatchAssignReport& report);

/// The independent oracle: evaluates `scenario` with
/// `prov::Polynomial::Eval` — the full side under
/// `CompiledSession::ExpandValuation`, the compressed side on the
/// compressed `PolySet` — sharing no code with the `EvalProgram` kernels.
/// `truth` is the full provenance under the analyst's base values with the
/// scenario applied to the leaves of every meta-variable it names: the
/// answer the compressed provenance approximates.
struct OracleRow {
  std::vector<double> full;
  std::vector<double> compressed;
  std::vector<double> truth;
};
OracleRow Oracle(const cobra::prov::PolySet& full,
                 const cobra::prov::PolySet& compressed,
                 const cobra::core::CompiledSession& snapshot,
                 const cobra::prov::Valuation& base,
                 const cobra::core::Scenario& scenario);

/// Relative tolerance between served rows and the oracle (different
/// summation orders of the same terms).
inline constexpr double kOracleRelTol = 1e-9;

/// Checks `rows` (scenario-major, `groups` per scenario) for every probe
/// against the oracle and returns the accuracy: the maximum over probes and
/// groups of |truth − compressed| / |truth|.
double CheckProbes(const Authored& authored,
                   const cobra::core::CompiledSession& snapshot,
                   const cobra::core::ScenarioSet& probes, const Rows& rows,
                   Ledger* ledger, const std::string& what);

}  // namespace e2ebench

#endif  // COBRA_E2EBENCH_FIXTURES_H_
