// stream_topk — in-process bulk exploration, no server: one caller runs
// CompiledSession::AssignStream top-k queries (kSumAbsDelta) over
// CartesianSource grids of three meta-variable axes (4,096 scenarios) on
// the telephony snapshot. The compressed side and the generator do the
// work, and pruning skips most full-side rows: a full-sweep optimisation
// should show no change here, and a stream or pipeline refactor must not
// regress it.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "fixtures.h"
#include "trace.h"

namespace e2ebench {
namespace {

using namespace cobra;

constexpr std::size_t kStepsPerAxis = 16;  // 3 axes: 4,096 scenarios
constexpr std::size_t kTopK = 16;
constexpr double kTailPct = 90.0;
/// Queries whose top-k is re-derived from the materialized source (each
/// check sweeps all 4,096 scenarios on both sides).
constexpr std::size_t kCheckEvery = 16;
constexpr std::size_t kCheckCap = 2;
constexpr std::size_t kProbes = 8;

using Combination = std::vector<std::string>;

/// Every choice of three meta-variables, in a seed-shuffled order. Query i
/// sweeps combination i mod their count, so every run covers the
/// combinations evenly and its work mix does not depend on the seed.
std::vector<Combination> AxisCombinations(const std::vector<std::string>& vocab,
                                          InputRng* rng) {
  std::vector<Combination> out;
  for (std::size_t a = 0; a < vocab.size(); ++a) {
    for (std::size_t b = a + 1; b < vocab.size(); ++b) {
      for (std::size_t c = b + 1; c < vocab.size(); ++c) {
        out.push_back({vocab[a], vocab[b], vocab[c]});
      }
    }
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng->Below(i)]);
  }
  return out;
}

/// One grid over `vars`: each axis a linear sweep around the default 1.0.
std::vector<core::ValueAxis> MakeAxes(const Combination& vars, InputRng* rng) {
  std::vector<core::ValueAxis> axes;
  for (const std::string& var : vars) {
    axes.push_back(core::LinSpace(var, rng->Uniform(0.5, 0.9),
                                  rng->Uniform(1.1, 1.5), kStepsPerAxis));
  }
  return axes;
}

core::StreamOptions TopKOptions() {
  core::StreamOptions options;
  options.query.kind = core::StreamQuery::Kind::kTopK;
  options.query.metric = core::StreamQuery::Metric::kSumAbsDelta;
  options.query.k = kTopK;
  return options;
}

struct Checked {
  std::vector<core::ValueAxis> axes;
  core::SweepSummary summary;
};

/// Re-derives the top-k of one query from the materialized source: every
/// scenario's rows from AssignBatch, its metric (sum over groups of
/// |compressed − base compressed|), ranked metric-descending with ties by
/// ordinal. The kept entries must match index, metric and rows bit for bit,
/// and their rows must agree with the polynomial oracle.
void CheckTopK(const Authored& authored, const Checked& query, Ledger* ledger) {
  const core::CompiledSession& snapshot = *authored.snapshot;
  auto source = core::CartesianSource::Create(query.axes).ValueOrDie();
  core::ScenarioSet set = source->Materialize().ValueOrDie();
  const std::size_t n = set.size();
  set.Add("base").ValueOrDie();
  const Rows rows = FlattenReport(snapshot.AssignBatch(set).ValueOrDie());
  const std::size_t groups = snapshot.labels().size();
  const double* base = &rows.compressed[n * groups];
  std::vector<double> metric(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t g = 0; g < groups; ++g) {
      metric[i] += std::abs(rows.compressed[i * groups + g] - base[g]);
    }
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return metric[a] > metric[b];
  });
  const auto& entries = query.summary.entries;
  ledger->Check(entries.size() == std::min(kTopK, n), "top-k entry count");
  for (std::size_t j = 0; j < entries.size() && j < n; ++j) {
    const core::StreamEntry& e = entries[j];
    const std::size_t want = order[j];
    ledger->Check(e.index == want, "top-k rank " + std::to_string(j) +
                                       " is source ordinal " +
                                       std::to_string(want));
    if (e.index != want) continue;
    ledger->Check(SameBits(e.metric, metric[want]), "top-k metric bits");
    bool same = e.full.size() == groups && e.compressed.size() == groups;
    for (std::size_t g = 0; same && g < groups; ++g) {
      same = SameBits(e.full[g], rows.full[want * groups + g]) &&
             SameBits(e.compressed[g], rows.compressed[want * groups + g]);
    }
    ledger->Check(same, "top-k rows bit-identical to AssignBatch");
  }
  // Oracle on the first kept entry.
  if (!entries.empty() && entries[0].full.size() == groups) {
    core::ScenarioSet one;
    one.Add(set.scenario(static_cast<std::size_t>(entries[0].index))).ValueOrDie();
    CheckProbes(authored, snapshot, one, Rows{entries[0].full, entries[0].compressed},
                ledger, "top-1 entry");
  }
}

struct Phase {
  PhaseStats stats;
  std::vector<Checked> checked;
  core::SweepSummary totals;  ///< Summed timing and pruning fields.
};

Phase RunPhase(const Authored& authored, const std::vector<std::string>& vocab,
               double seconds, std::uint64_t seed, bool traced, bool corrupt) {
  Phase out;
  trace::SetEnabled(traced);
  InputRng rng(seed);
  const std::vector<Combination> combinations = AxisCombinations(vocab, &rng);
  const core::StreamOptions options = TopKOptions();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::uint64_t op = 1; Clock::now() < deadline; ++op) {
    std::vector<core::ValueAxis> axes =
        MakeAxes(combinations[(op - 1) % combinations.size()], &rng);
    auto source = core::CartesianSource::Create(axes).ValueOrDie();
    trace::SetOp(op);
    const Clock::time_point sent = Clock::now();
    util::Result<core::SweepSummary> summary = util::Status::Internal("unset");
    {
      trace::Span span("core.stream");
      summary = authored.snapshot->AssignStream(*source, options);
    }
    out.stats.Record(MillisSince(sent), SecondsSince(start),
                     summary.ok() ? summary->scenarios : 0, summary.ok());
    if (!summary.ok()) continue;
    core::SweepSummary& t = out.totals;
    t.generate_seconds += summary->generate_seconds;
    t.plan_seconds += summary->plan_seconds;
    t.full_sweep_seconds += summary->full_sweep_seconds;
    t.compressed_sweep_seconds += summary->compressed_sweep_seconds;
    t.full_rows_computed += summary->full_rows_computed;
    t.full_rows_skipped += summary->full_rows_skipped;
    t.engine = summary->engine;
    t.block_lanes = summary->block_lanes;
    t.layout = summary->layout;
    t.num_threads = summary->num_threads;
    t.window = summary->window;
    if ((op - 1) % kCheckEvery == 0 && out.checked.size() < kCheckCap) {
      if (corrupt && out.checked.empty() && !summary->entries.empty()) {
        FlipLowBit(&summary->entries[0].full[0]);
      }
      out.checked.push_back({std::move(axes), std::move(*summary)});
    }
  }
  out.stats.wall_s = SecondsSince(start);
  trace::SetEnabled(false);
  return out;
}

}  // namespace

void RunStreamTopK(const Args& args, RunResult* result) {
  std::vector<double> setup_s;
  Authored authored;
  std::vector<std::string> vocab;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    authored = Authored{};
    const Clock::time_point start = Clock::now();
    authored = AuthorTelephony();
    vocab.clear();
    for (const core::MetaVar& var : authored.snapshot->meta_vars()) {
      vocab.push_back(var.name);
    }
    // Warm-up: one query, the same on every seed (queries differ in how
    // much of the full side they prune, so a seeded one would make
    // setup_s depend on the seed).
    InputRng rng(0x3a3a);
    auto source = core::CartesianSource::Create(
                      MakeAxes(AxisCombinations(vocab, &rng).front(), &rng))
                      .ValueOrDie();
    authored.snapshot->AssignStream(*source, TopKOptions()).ValueOrDie();
    setup_s.push_back(SecondsSince(start));
  }

  Phase untraced;
  Phase traced;
  if (!args.trace) {
    untraced = RunPhase(authored, vocab, args.seconds, args.seed, false, args.corrupt);
  } else {
    untraced = RunPhase(authored, vocab, args.seconds / 2, args.seed, false,
                        args.corrupt);
    traced = RunPhase(authored, vocab, args.seconds / 2, args.seed ^ 0x7ace, true,
                      false);
  }

  const double peak_rss_mb = PeakRssMb();
  Ledger& ledger = result->ledger;
  for (const Checked& query : untraced.checked) CheckTopK(authored, query, &ledger);
  for (const Checked& query : traced.checked) CheckTopK(authored, query, &ledger);
  const core::ScenarioSet probes = ProbeScenarios(*authored.snapshot, kProbes);
  const double max_rel_err = CheckProbes(
      authored, *authored.snapshot, probes,
      FlattenReport(authored.snapshot->AssignBatch(probes).ValueOrDie()), &ledger,
      "in-process probes");

  const core::SweepSummary& t = untraced.totals;
  result->Note("engine", core::SweepName(t.engine));
  result->Note("lanes", std::to_string(t.block_lanes));
  result->Note("layout", prov::EvalLayoutName(t.layout));
  result->Note("sweep_threads", std::to_string(t.num_threads));
  result->Note("stream_window", std::to_string(t.window));
  result->Note("source_scenarios",
               std::to_string(kStepsPerAxis * kStepsPerAxis * kStepsPerAxis));
  result->Note("axis_combinations", std::to_string(vocab.size() * (vocab.size() - 1) *
                                                   (vocab.size() - 2) / 6));
  result->Note("top_k", std::to_string(kTopK));
  result->Note("queries_checked",
               std::to_string(untraced.checked.size() + traced.checked.size()));

  result->attempted = untraced.stats.attempted + traced.stats.attempted;
  result->failed = untraced.stats.failed + traced.stats.failed;
  if (!args.trace) {
    AddEndToEnd(untraced.stats, Median(setup_s), kTailPct, max_rel_err,
                peak_rss_mb, result);
    return;
  }
  const core::SweepSummary& s = traced.totals;
  const double n = static_cast<double>(
      std::max<std::uint64_t>(1, traced.stats.attempted - traced.stats.failed));
  LayerValues v;
  v["core.stream.generate_ms"] = s.generate_seconds * 1e3 / n;
  v["core.stream.plan_ms"] = s.plan_seconds * 1e3 / n;
  v["core.stream.full_ms"] = s.full_sweep_seconds * 1e3 / n;
  v["core.stream.compressed_ms"] = s.compressed_sweep_seconds * 1e3 / n;
  const double rows = static_cast<double>(s.full_rows_computed + s.full_rows_skipped);
  v["core.stream.full_rows_skipped_frac"] =
      rows > 0 ? static_cast<double>(s.full_rows_skipped) / rows : 0.0;
  v["prov.full_monomials"] = static_cast<double>(authored.snapshot->full_size());
  v["prov.full_terms_per_s"] =
      s.full_sweep_seconds > 0
          ? static_cast<double>(authored.snapshot->full_size()) *
                static_cast<double>(s.full_rows_computed) / s.full_sweep_seconds
          : 0.0;
  AddSpanLayers(static_cast<std::size_t>(traced.stats.attempted), &v);
  AddLayerMetrics(v, result);
  AddTraceOverhead(untraced.stats, traced.stats, result);
}

}  // namespace e2ebench
