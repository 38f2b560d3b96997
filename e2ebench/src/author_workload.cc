// author — the authoring path, modelled on the interactive bound sweep
// (bench_e5): the telephony database is generated once, in setup (with one
// untimed warm-up job); each job
// runs SQL with provenance, the DP over the plan tree at a ladder of
// bounds, the greedy multi-tree (plan tree plus month→quarter tree) at one
// bound, then Snapshot → SerializeSnapshot → ParseSnapshot →
// VerifySnapshot → FromSnapshot, and ends with the loaded replica
// answering its first batch of probe scenarios. The only workload where
// rel, the compressor, io and verify are the work rather than setup.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/io.h"
#include "core/tree.h"
#include "data/telephony.h"
#include "fixtures.h"
#include "rel/sql/planner.h"
#include "trace.h"
#include "verify/verify.h"

namespace e2ebench {
namespace {

using namespace cobra;

/// DP bounds as shares of the full size; each job jitters them by up to
/// ±kLadderJitter from the seed.
constexpr double kDpLadder[] = {0.9, 0.7, 0.5, 0.3, 0.2};
constexpr double kLadderJitter = 0.02;
constexpr double kMultiTreeFraction = 0.2;
/// The replica's first batch: probe scenarios over its meta-variables.
constexpr std::size_t kReplicaProbes = 64;
/// Of those, how many the polynomial oracle re-evaluates.
constexpr std::size_t kOracleProbes = 8;
constexpr double kTailPct = 75.0;

struct JobOutput {
  bool ok = false;
  double ms = 0.0;
  std::size_t snapshot_bytes = 0;
  std::size_t full_monomials = 0;
  double max_rel_err = 0.0;
};

/// One authoring job; everything after the replica's first batch (the
/// answer checks) runs off the clock.
JobOutput RunJob(const rel::Database& db, InputRng* rng, bool corrupt,
                 Ledger* ledger) {
  JobOutput out;
  const Clock::time_point start = Clock::now();
  std::optional<trace::Span> job;
  job.emplace("bench.job");

  util::Result<rel::sql::QueryResult> query = util::Status::Internal("unset");
  {
    trace::Span span("rel.sql");
    query = rel::sql::RunSql(db, data::TelephonyRevenueQuery());
  }
  if (!query.ok()) return out;
  prov::PolySet provenance;
  {
    trace::Span span("prov.provenance");
    provenance = query->Provenance();
  }
  const std::size_t full = provenance.TotalMonomials();
  out.full_monomials = full;

  Authored authored;
  authored.session = std::make_unique<core::Session>(db.var_pool());
  core::Session& session = *authored.session;
  {
    trace::Span span("core.load");
    session.LoadPolynomials(std::move(provenance));
    session.SetTreeText(data::TelephonyPlanTreeText()).CheckOK();
    SetTelephonyBaseValues(&session);
  }
  for (double share : kDpLadder) {
    const double jitter = rng->Uniform(-kLadderJitter, kLadderJitter);
    const std::size_t bound =
        static_cast<std::size_t>(static_cast<double>(full) * (share + jitter));
    session.SetBound(bound);
    util::Result<core::CompressionReport> report = util::Status::Internal("unset");
    {
      trace::Span span("core.compress.dp");
      report = session.Compress(core::Algorithm::kOptimalDp);
    }
    if (!report.ok()) return out;
    ledger->Check(report->feasible &&
                      session.compressed().TotalMonomials() <= bound,
                  "DP rung: compressed size <= bound " + std::to_string(bound));
  }
  {
    trace::Span span("core.load");
    prov::VarPool* pool = session.mutable_pool();
    std::vector<core::AbstractionTree> trees;
    trees.push_back(core::ParseTree(data::TelephonyPlanTreeText(), pool).ValueOrDie());
    trees.push_back(core::ParseTree(data::MonthQuarterTreeText(12), pool).ValueOrDie());
    session.SetTrees(std::move(trees)).CheckOK();
  }
  const std::size_t mt_bound =
      static_cast<std::size_t>(static_cast<double>(full) * kMultiTreeFraction);
  session.SetBound(mt_bound);
  util::Result<core::CompressionReport> multi = util::Status::Internal("unset");
  {
    trace::Span span("core.compress.multitree");
    multi = session.Compress(core::Algorithm::kMultiTreeGreedy);
  }
  if (!multi.ok()) return out;
  ledger->Check(multi->feasible && session.compressed().TotalMonomials() <= mt_bound,
                "multi-tree: compressed size <= bound");

  std::shared_ptr<const core::CompiledSession> origin;
  core::SnapshotPackage package;
  {
    trace::Span span("core.snapshot");
    origin = session.Snapshot().ValueOrDie();
    package = core::MakeSnapshot(*origin);
  }
  std::string bytes;
  {
    trace::Span span("core.io.serialize");
    bytes = core::SerializeSnapshot(package);
  }
  util::Result<core::SnapshotPackage> parsed = util::Status::Internal("unset");
  {
    trace::Span span("core.io.parse");
    parsed = core::ParseSnapshot(bytes, "author");
  }
  if (!parsed.ok()) return out;
  verify::VerifyReport verified;
  {
    trace::Span span("verify.snapshot");
    verified = verify::VerifySnapshot(*parsed);
  }
  ledger->Check(verified.ok(), "round-tripped snapshot verifies");
  util::Result<std::shared_ptr<const core::CompiledSession>> replica =
      util::Status::Internal("unset");
  {
    trace::Span span("core.from_snapshot");
    replica = core::CompiledSession::FromSnapshot(*parsed);
  }
  if (!replica.ok()) return out;
  const core::ScenarioSet probes = ProbeScenarios(**replica, kReplicaProbes);
  util::Result<core::BatchAssignReport> answered = util::Status::Internal("unset");
  {
    trace::Span span("core.assign_batch");
    answered = (*replica)->AssignBatch(probes);
  }
  out.ms = MillisSince(start);
  job.reset();
  if (!answered.ok()) return out;
  out.ok = true;
  out.snapshot_bytes = bytes.size();

  // Off the clock: the replica's rows are bit-identical to the origin's,
  // and the first probes agree with the polynomial oracle.
  Rows served = FlattenReport(*answered);
  if (corrupt) FlipLowBit(&served.full[0]);
  const Rows expected = FlattenReport(origin->AssignBatch(probes).ValueOrDie());
  ledger->Check(HashDoubles(served.full, HashDoubles(served.compressed)) ==
                    HashDoubles(expected.full, HashDoubles(expected.compressed)),
                "round-tripped snapshot serves bit-identical probe rows");
  const std::size_t groups = origin->labels().size();
  core::ScenarioSet oracle_probes;
  for (std::size_t i = 0; i < kOracleProbes; ++i) {
    oracle_probes.Add(probes.scenario(i)).ValueOrDie();
  }
  const Rows first{
      std::vector<double>(served.full.begin(),
                          served.full.begin() + kOracleProbes * groups),
      std::vector<double>(served.compressed.begin(),
                          served.compressed.begin() + kOracleProbes * groups)};
  authored.base = TelephonyBase(session);
  out.max_rel_err =
      CheckProbes(authored, **replica, oracle_probes, first, ledger, "replica probes");
  return out;
}

struct Phase {
  PhaseStats stats;
  std::size_t snapshot_bytes = 0;
  std::size_t full_monomials = 0;
  double max_rel_err = 0.0;
};

Phase RunPhase(const rel::Database& db, double seconds, std::uint64_t seed,
               bool traced, bool corrupt, Ledger* ledger) {
  Phase out;
  trace::SetEnabled(traced);
  InputRng rng(seed);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::uint64_t op = 1; Clock::now() < deadline; ++op) {
    trace::SetOp(op);
    const JobOutput job = RunJob(db, &rng, corrupt, ledger);
    // Timed wall clock: the summed job times (the checks run off the
    // clock between jobs).
    out.stats.wall_s += job.ms * 1e-3;
    out.stats.Record(job.ms, out.stats.wall_s, kReplicaProbes, job.ok);
    if (!job.ok) continue;
    out.snapshot_bytes = job.snapshot_bytes;
    out.full_monomials = job.full_monomials;
    out.max_rel_err = std::max(out.max_rel_err, job.max_rel_err);
  }
  trace::SetEnabled(false);
  return out;
}

}  // namespace

void RunAuthor(const Args& args, RunResult* result) {
  std::vector<double> setup_s;
  std::unique_ptr<rel::Database> db;
  Ledger& ledger = result->ledger;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    db.reset();
    const Clock::time_point start = Clock::now();
    db = MakeTelephonyDb();
    // Warm-up: one untimed job (code, allocator and page-cache state).
    InputRng rng(0x3a3a);
    RunJob(*db, &rng, false, &ledger);
    setup_s.push_back(SecondsSince(start));
  }

  Phase untraced;
  Phase traced;
  if (!args.trace) {
    untraced = RunPhase(*db, args.seconds, args.seed, false, args.corrupt, &ledger);
  } else {
    untraced =
        RunPhase(*db, args.seconds / 2, args.seed, false, args.corrupt, &ledger);
    traced = RunPhase(*db, args.seconds / 2, args.seed ^ 0x7ace, true, false, &ledger);
  }

  result->Note("dp_rungs", std::to_string(std::size(kDpLadder)));
  result->Note("multitree_bound_share", std::to_string(kMultiTreeFraction));
  result->Note("replica_probes", std::to_string(kReplicaProbes));
  result->Note("scenarios_per_s_basis",
               "replica probe scenarios per second of summed job time");
  result->attempted = untraced.stats.attempted + traced.stats.attempted;
  result->failed = untraced.stats.failed + traced.stats.failed;
  if (!args.trace) {
    AddEndToEnd(untraced.stats, Median(setup_s), kTailPct, untraced.max_rel_err,
                PeakRssMb(), result);
    return;
  }
  const auto spans = trace::Collect();
  const double jobs =
      static_cast<double>(std::max<std::uint64_t>(1, traced.stats.attempted));
  LayerValues v;
  v["rel.sql_ms"] = trace::TotalMs(spans, "rel.sql") / jobs;
  v["prov.provenance_ms"] = trace::TotalMs(spans, "prov.provenance") / jobs;
  v["prov.full_monomials"] = static_cast<double>(traced.full_monomials);
  v["core.compress.dp_ms"] = trace::TotalMs(spans, "core.compress.dp") / jobs;
  v["core.compress.multitree_ms"] =
      trace::TotalMs(spans, "core.compress.multitree") / jobs;
  v["core.snapshot_ms"] = trace::TotalMs(spans, "core.snapshot") / jobs;
  v["core.io.serialize_ms"] = trace::TotalMs(spans, "core.io.serialize") / jobs;
  v["core.io.parse_ms"] = trace::TotalMs(spans, "core.io.parse") / jobs;
  v["core.from_snapshot_ms"] = trace::TotalMs(spans, "core.from_snapshot") / jobs;
  v["core.io.snapshot_bytes"] = static_cast<double>(traced.snapshot_bytes);
  v["verify.snapshot_ms"] = trace::TotalMs(spans, "verify.snapshot") / jobs;
  AddSpanLayers(static_cast<std::size_t>(jobs), &v);
  AddLayerMetrics(v, result);
  AddTraceOverhead(untraced.stats, traced.stats, result);
}

}  // namespace e2ebench
