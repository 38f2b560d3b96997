#include "fixtures.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "data/telephony.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "rel/sql/planner.h"

namespace e2ebench {

using namespace cobra;

namespace {

/// Data seeds: fixed, so the served provenance is the same on every run.
constexpr std::uint64_t kTelephonyBaseSeed = 0x7e1e;
constexpr std::uint64_t kTpchBaseSeed = 0x79c4;
constexpr std::uint64_t kProbeSeed = 0x9b0be;

constexpr const char* kTpchQ6PerOrder =
    "SELECT l_returnflag, SUM(l_extendedprice * l_discount) AS revenue "
    "FROM lineitem "
    "WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 "
    "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24 "
    "GROUP BY l_returnflag";

prov::Valuation PoolSized(const prov::Valuation& v, std::size_t size) {
  prov::Valuation out = v;
  if (out.size() < size) out.Resize(size);
  return out;
}

}  // namespace

std::unique_ptr<rel::Database> MakeTelephonyDb() {
  data::TelephonyConfig config;
  config.num_customers = kTelephonyCustomers;
  auto db = std::make_unique<rel::Database>(data::GenerateTelephony(config));
  data::InstrumentTelephony(db.get()).CheckOK();
  return db;
}

void SetTelephonyBaseValues(core::Session* session) {
  InputRng rng(kTelephonyBaseSeed);
  for (const data::PlanInfo& plan : data::DefaultPlans()) {
    session->SetBaseValue(plan.variable, rng.Uniform(0.8, 1.2)).CheckOK();
  }
}

prov::Valuation TelephonyBase(const core::Session& session) {
  prov::Valuation base(session.pool());
  InputRng rng(kTelephonyBaseSeed);
  for (const data::PlanInfo& plan : data::DefaultPlans()) {
    base.SetByName(session.pool(), plan.variable, rng.Uniform(0.8, 1.2))
        .CheckOK();
  }
  return base;
}

Authored AuthorTelephony() {
  std::unique_ptr<rel::Database> db = MakeTelephonyDb();
  prov::PolySet provenance =
      rel::sql::RunSql(*db, data::TelephonyRevenueQuery())
          .ValueOrDie()
          .Provenance();
  Authored out;
  out.session = std::make_unique<core::Session>(db->var_pool());
  const std::size_t full = provenance.TotalMonomials();
  out.session->LoadPolynomials(std::move(provenance));
  out.session->SetTreeText(data::TelephonyPlanTreeText()).CheckOK();
  SetTelephonyBaseValues(out.session.get());
  out.session->SetBound(static_cast<std::size_t>(
      static_cast<double>(full) * kTelephonyBoundFraction));
  out.session->Compress(core::Algorithm::kOptimalDp).ValueOrDie();
  out.snapshot = out.session->Snapshot().ValueOrDie();
  out.base = TelephonyBase(*out.session);
  return out;
}

Authored AuthorTpchByOrder() {
  data::TpchConfig config;
  config.scale_factor = kTpchScaleFactor;
  rel::Database db = data::GenerateTpch(config);
  data::InstrumentTpchByOrder(&db).CheckOK();
  prov::PolySet provenance =
      rel::sql::RunSql(db, kTpchQ6PerOrder).ValueOrDie().Provenance(0);

  Authored out;
  out.session = std::make_unique<core::Session>(db.var_pool());
  const std::size_t full = provenance.TotalMonomials();
  out.session->LoadPolynomials(std::move(provenance));
  out.session
      ->SetTreeText(data::OrderBucketTreeText(config.NumOrders(), kTpchBucket))
      .CheckOK();
  // Non-uniform per-order base values: the greedy's merged buckets then
  // average distinct values, as real per-order adjustments would.
  prov::Valuation base(out.session->pool());
  InputRng rng(kTpchBaseSeed);
  for (std::size_t key = 1; key <= config.NumOrders(); ++key) {
    const prov::VarId id = out.session->pool().Find("o" + std::to_string(key));
    const double value = rng.Uniform(0.9, 1.1);
    if (id != prov::kInvalidVar) base.Set(id, value);
  }
  out.session->SetBaseValuation(base);
  out.session->SetBound(std::max<std::size_t>(1, full * kTpchBoundPercent / 100));
  out.session->Compress(core::Algorithm::kGreedy).ValueOrDie();
  out.snapshot = out.session->Snapshot().ValueOrDie();
  out.base = std::move(base);
  return out;
}

core::ScenarioSet ProbeScenarios(const core::CompiledSession& snapshot,
                                 std::size_t count) {
  std::vector<std::string> names;
  for (const core::MetaVar& var : snapshot.meta_vars()) names.push_back(var.name);
  std::sort(names.begin(), names.end());
  InputRng rng(kProbeSeed);
  core::ScenarioSet probes;
  probes.Add("probe-default").ValueOrDie();
  for (std::size_t i = 1; i < count; ++i) {
    auto handle = probes.Add("probe-" + std::to_string(i)).ValueOrDie();
    const std::size_t deltas = 1 + i % 2;
    for (std::size_t d = 0; d < deltas; ++d) {
      handle.Set(names[rng.Below(names.size())], rng.Uniform(0.6, 1.4));
    }
  }
  return probes;
}

Rows FlattenReport(const core::BatchAssignReport& report) {
  Rows rows;
  for (const core::AssignReport& scenario : report.reports) {
    for (const core::ResultDelta::Row& row : scenario.delta.rows) {
      rows.full.push_back(row.full);
      rows.compressed.push_back(row.compressed);
    }
  }
  return rows;
}

OracleRow Oracle(const prov::PolySet& full, const prov::PolySet& compressed,
                 const core::CompiledSession& snapshot,
                 const prov::Valuation& base, const core::Scenario& scenario) {
  const prov::VarPool& pool = snapshot.pool();
  const std::size_t pool_size = snapshot.pool_size();
  std::unordered_map<prov::VarId, const core::MetaVar*> meta_of;
  for (const core::MetaVar& var : snapshot.meta_vars()) meta_of[var.var] = &var;

  prov::Valuation meta = PoolSized(snapshot.default_meta_valuation(), pool_size);
  prov::Valuation truth = PoolSized(base, pool_size);
  for (const core::Scenario::Delta& delta : scenario.deltas) {
    const prov::VarId id = pool.Find(delta.var);
    meta.Set(id, delta.value);
    auto it = meta_of.find(id);
    if (it == meta_of.end()) {
      truth.Set(id, delta.value);
    } else {
      for (prov::VarId leaf : it->second->leaves) truth.Set(leaf, delta.value);
    }
  }
  const prov::Valuation expanded = snapshot.ExpandValuation(meta);
  OracleRow row;
  for (std::size_t g = 0; g < full.size(); ++g) {
    row.full.push_back(full.poly(g).Eval(expanded));
    row.truth.push_back(full.poly(g).Eval(truth));
  }
  for (std::size_t g = 0; g < compressed.size(); ++g) {
    row.compressed.push_back(compressed.poly(g).Eval(meta));
  }
  return row;
}

double CheckProbes(const Authored& authored,
                   const core::CompiledSession& snapshot,
                   const core::ScenarioSet& probes, const Rows& rows,
                   Ledger* ledger, const std::string& what) {
  const std::size_t groups = snapshot.labels().size();
  ledger->Check(rows.full.size() == probes.size() * groups &&
                    rows.compressed.size() == probes.size() * groups,
                what + ": probe row count");
  if (rows.full.size() != probes.size() * groups ||
      rows.compressed.size() != probes.size() * groups) {
    return 0.0;
  }
  double max_rel_err = 0.0;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const OracleRow oracle =
        Oracle(authored.session->full(), authored.session->compressed(),
               snapshot, authored.base, probes.scenario(p));
    ledger->Check(oracle.full.size() == groups &&
                      oracle.compressed.size() == groups,
                  what + ": oracle group count");
    if (oracle.full.size() != groups || oracle.compressed.size() != groups) {
      return 0.0;
    }
    for (std::size_t g = 0; g < groups; ++g) {
      const double served_full = rows.full[p * groups + g];
      const double served_comp = rows.compressed[p * groups + g];
      ledger->CheckClose(oracle.full[g], served_full, kOracleRelTol,
                         what + ": full side vs oracle, probe " +
                             std::to_string(p) + " group " + std::to_string(g));
      ledger->CheckClose(oracle.compressed[g], served_comp, kOracleRelTol,
                         what + ": compressed side vs oracle, probe " +
                             std::to_string(p) + " group " + std::to_string(g));
      if (oracle.truth[g] != 0.0) {
        max_rel_err = std::max(
            max_rel_err,
            std::fabs(oracle.truth[g] - served_comp) / std::fabs(oracle.truth[g]));
      }
    }
  }
  return max_rel_err;
}

}  // namespace e2ebench
