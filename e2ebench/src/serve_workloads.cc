// The served workloads: closed-loop clients against an in-process
// CobraServer over loopback, with default ServerOptions.
//
//   serve_small — dashboard traffic on the per-order TPC-H Q6 snapshot:
//     16-scenario requests, half of them replaying a hot pool smaller than
//     the 64-entry plan cache (plan-cache hits and request coalescing), the
//     rest fresh (FIFO churn); 3 client connections plus a writer thread
//     that publishes a fresh snapshot version (parse, verify, load, Swap)
//     every fixed number of completed requests. Per-request kernel work is
//     sub-millisecond, so queueing, hand-off, the plan cache and swaps
//     dominate.
//   serve_bulk — analyst batches on the telephony snapshot: 300 distinct
//     scenarios per request (above the server's 256-scenario chunk, so the
//     chunked path runs), 2 connections, no repeats, no swaps. Kernels,
//     per-scenario report building and the wire dominate; the plan cache
//     and coalescing do nothing.
//
// The traced half replays every request through each layer's public
// functions (wire codec, PlanBatch, Execute) on a sibling session of the
// version that served it, with spans around each call.

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/io.h"
#include "fixtures.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "trace.h"
#include "verify/verify.h"

namespace e2ebench {
namespace {

using namespace cobra;

struct ServeShape {
  const char* name;
  std::size_t clients;
  std::size_t scenarios;  ///< Per request.
  std::size_t min_deltas;
  std::size_t max_deltas;
  double hot_share;       ///< Share of requests replaying the hot pool.
  std::size_t hot_pool;   ///< Hot scenario sets (fewer than the plan cache).
  std::size_t swap_every; ///< Writer period in completed requests; 0 = none.
  double tail_pct;        ///< Fixed tail percentile (≥10 samples beyond).
  std::size_t sample_every;  ///< Check every n-th OK response per client.
  std::size_t sample_cap;    ///< Checked responses per client and phase.
  std::size_t probes;
};

constexpr ServeShape kSmall{"serve_small", 3, 16, 2, 2, 0.5, 8, 500,
                            99.0, 29, 64, 8};
constexpr ServeShape kBulk{"serve_bulk", 2, 300, 1, 2, 0.0, 0, 0,
                           95.0, 5, 8, 8};

core::ScenarioSet MakeSet(const ServeShape& shape,
                          const std::vector<std::string>& vocab,
                          InputRng* rng) {
  core::ScenarioSet set;
  set.Reserve(shape.scenarios);
  for (std::size_t i = 0; i < shape.scenarios; ++i) {
    auto handle = set.Add("s" + std::to_string(i)).ValueOrDie();
    const std::size_t deltas =
        shape.min_deltas + rng->Below(shape.max_deltas - shape.min_deltas + 1);
    for (std::size_t d = 0; d < deltas; ++d) {
      handle.Set(vocab[rng->Below(vocab.size())], rng->Uniform(0.5, 1.5));
    }
  }
  return set;
}

/// The batches the server executes for `scenarios` (serve/server.cc): the
/// whole set up to the default chunk size, consecutive chunks beyond.
std::vector<core::ScenarioSet> ServerBatches(const core::ScenarioSet& scenarios) {
  const std::size_t chunk = static_cast<std::size_t>(
      serve::ServerOptions{}.deadline_check_scenarios);
  if (scenarios.size() <= chunk) return {scenarios};
  std::vector<core::ScenarioSet> batches;
  for (std::size_t offset = 0; offset < scenarios.size(); offset += chunk) {
    core::ScenarioSet& batch = batches.emplace_back();
    const std::size_t end = std::min(offset + chunk, scenarios.size());
    for (std::size_t i = offset; i < end; ++i) {
      batch.Add(scenarios.scenario(i)).ValueOrDie();
    }
  }
  return batches;
}

/// What the server answers for `scenarios` on `session`, computed in
/// process the way the server computes it.
util::Result<Rows> ExpectedRows(const core::CompiledSession& session,
                                const core::ScenarioSet& scenarios) {
  Rows rows;
  for (const core::ScenarioSet& batch : ServerBatches(scenarios)) {
    util::Result<core::BatchAssignReport> report = session.AssignBatch(batch);
    if (!report.ok()) return report.status();
    Rows part = FlattenReport(*report);
    rows.full.insert(rows.full.end(), part.full.begin(), part.full.end());
    rows.compressed.insert(rows.compressed.end(), part.compressed.begin(),
                           part.compressed.end());
  }
  return rows;
}

/// A served response kept for checking after the timed phase.
struct Sample {
  core::ScenarioSet scenarios;
  std::uint64_t version = 0;
  std::vector<std::string> names;
  std::uint64_t hash = 0;
};

std::uint64_t HashResponse(const serve::WireResponse& response) {
  return HashDoubles(response.compressed_values,
                     HashDoubles(response.full_values));
}

/// Plan-cache counters summed over every version the server has served:
/// versions stay "live" until two newer ones exist, then their final
/// counters are folded into the retired sums.
class CacheTally {
 public:
  void Publish(std::shared_ptr<const core::CompiledSession> session) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.push_back(std::move(session));
    while (live_.size() > 2) {
      Fold(live_.front()->plan_cache_stats(), &retired_hits_,
           &retired_lookups_);
      live_.erase(live_.begin());
    }
  }
  /// (hits + core_hits, lookups) so far.
  std::pair<double, double> Total() const {
    std::lock_guard<std::mutex> lock(mu_);
    double hits = retired_hits_;
    double lookups = retired_lookups_;
    for (const auto& session : live_) {
      Fold(session->plan_cache_stats(), &hits, &lookups);
    }
    return {hits, lookups};
  }

 private:
  static void Fold(const core::CompiledSession::PlanCacheStats& s,
                   double* hits, double* lookups) {
    *hits += static_cast<double>(s.hits + s.core_hits);
    *lookups += static_cast<double>(s.hits + s.core_hits + s.misses);
  }

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const core::CompiledSession>> live_;
  double retired_hits_ = 0.0;
  double retired_lookups_ = 0.0;
};

/// One setup: the authored snapshot (content 0) and, with a writer, a
/// second content that differs in its default valuation, both serialized;
/// a started server serving content 0 as version 1; connected clients; the
/// hot pool.
struct Serving {
  Authored authored;
  std::shared_ptr<const core::CompiledSession> content[2];
  std::string bytes[2];
  std::unique_ptr<serve::CobraServer> server;
  std::vector<serve::Client> clients;
  std::vector<std::string> vocab;
  std::vector<core::ScenarioSet> hot;
  CacheTally cache;

  std::mutex versions_mu;
  std::vector<int> content_of_version;  ///< Index: server version.

  int ContentOf(std::uint64_t version) {
    std::lock_guard<std::mutex> lock(versions_mu);
    return version < content_of_version.size()
               ? content_of_version[version]
               : -1;
  }
};

std::unique_ptr<Serving> SetUp(const ServeShape& shape, std::uint64_t seed) {
  auto s = std::make_unique<Serving>();
  s->authored = shape.swap_every > 0 ? AuthorTpchByOrder() : AuthorTelephony();
  s->content[0] = s->authored.snapshot;
  if (shape.swap_every > 0) {
    prov::Valuation meta = s->content[0]->default_meta_valuation();
    const auto& metas = s->content[0]->meta_vars();
    for (std::size_t i = 0; i < metas.size(); i += 3) {
      meta.Set(metas[i].var, meta.Get(metas[i].var) * 1.25);
    }
    s->content[1] = s->content[0]->WithDefaultMetaValuation(meta);
    for (int c = 0; c < 2; ++c) {
      s->bytes[c] = core::SerializeSnapshot(core::MakeSnapshot(*s->content[c]));
    }
  }
  for (const core::MetaVar& var : s->content[0]->meta_vars()) {
    s->vocab.push_back(var.name);
  }

  s->server = std::make_unique<serve::CobraServer>(serve::ServerOptions{});
  s->server->set_log([](const std::string&) {});
  s->server->Start().CheckOK();
  s->server->Swap(s->content[0], "v1");
  s->content_of_version.assign(s->server->snapshot_version() + 1, 0);
  s->cache.Publish(s->content[0]);
  for (std::size_t c = 0; c < shape.clients; ++c) {
    s->clients.push_back(
        serve::Client::Connect("127.0.0.1", s->server->port(), 30000)
            .ValueOrDie());
  }

  InputRng rng(seed);
  for (std::size_t h = 0; h < shape.hot_pool; ++h) {
    s->hot.push_back(MakeSet(shape, s->vocab, &rng));
  }
  // Warm-up: two fresh requests per connection, and every hot set once, so
  // the timed phase starts with the hot pool planned.
  std::vector<core::ScenarioSet> warm = s->hot;
  for (std::size_t i = 0; i < 2 * shape.clients; ++i) {
    warm.push_back(MakeSet(shape, s->vocab, &rng));
  }
  for (std::size_t i = 0; i < warm.size(); ++i) {
    serve::WireRequest request;
    request.type = serve::MsgType::kAssignBatch;
    request.request_id = i + 1;
    request.scenarios = warm[i];
    s->clients[i % shape.clients].Call(request).ValueOrDie();
  }
  return s;
}

/// Per-thread replay state and totals of the traced half.
struct Replayer {
  std::shared_ptr<const core::CompiledSession> sibling;
  std::uint64_t sibling_version = 0;
  std::uint64_t requests = 0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  double full_sweep_s = 0.0;
  double compressed_sweep_s = 0.0;
  double execute_s = 0.0;
  double full_terms = 0.0;  ///< Full monomials × scenarios swept.

  void Merge(const Replayer& o) {
    requests += o.requests;
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
    full_sweep_s += o.full_sweep_s;
    compressed_sweep_s += o.compressed_sweep_s;
    execute_s += o.execute_s;
    full_terms += o.full_terms;
  }
};

/// Replays one served request layer by layer: client encode, server
/// decode, PlanBatch + Execute per server chunk on a sibling of the served
/// version (a fresh sibling per version, so its plan cache starts cold as
/// the server's does after a swap), server encode, client decode.
void Replay(Serving* s, const serve::WireRequest& request,
            std::uint64_t version, Replayer* r) {
  if (r->sibling == nullptr || r->sibling_version != version) {
    const int content = s->ContentOf(version);
    const auto& origin = s->content[content < 0 ? 0 : content];
    r->sibling = origin->WithDefaultMetaValuation(origin->default_meta_valuation());
    r->sibling_version = version;
  }
  const core::CompiledSession& session = *r->sibling;

  std::string request_bytes;
  {
    trace::Span span("serve.wire.encode_request");
    request_bytes = serve::EncodeRequest(request);
  }
  util::Result<serve::WireRequest> decoded = util::Status::Internal("unset");
  {
    trace::Span span("serve.wire.decode_request");
    decoded = serve::DecodeRequest(request_bytes);
  }
  const core::ScenarioSet& scenarios = decoded.ValueOrDie().scenarios;

  serve::WireResponse response;
  response.type = request.type;
  response.request_id = request.request_id;
  response.snapshot_version = version;
  response.labels = session.labels();
  for (const core::ScenarioSet& batch : ServerBatches(scenarios)) {
    std::shared_ptr<const core::BatchPlan> plan;
    {
      trace::Span span("core.plan");
      plan = session.PlanBatch(batch).ValueOrDie();
    }
    util::Result<core::BatchAssignReport> report = util::Status::Internal("unset");
    const Clock::time_point start = Clock::now();
    {
      trace::Span span("core.execute");
      report = session.Execute(*plan);
    }
    r->execute_s += SecondsSince(start);
    r->full_sweep_s += report->full_sweep_seconds;
    r->compressed_sweep_s += report->compressed_sweep_seconds;
    r->full_terms += static_cast<double>(session.full_size()) *
                     static_cast<double>(batch.size());
    for (std::size_t i = 0; i < report->reports.size(); ++i) {
      response.scenario_names.push_back(report->scenario_names[i]);
      for (const core::ResultDelta::Row& row : report->reports[i].delta.rows) {
        response.full_values.push_back(row.full);
        response.compressed_values.push_back(row.compressed);
      }
    }
  }
  std::string response_bytes;
  {
    trace::Span span("serve.wire.encode_response");
    response_bytes = serve::EncodeResponse(response);
  }
  {
    trace::Span span("serve.wire.decode_response");
    serve::DecodeResponse(response_bytes).ValueOrDie();
  }
  r->requests += 1;
  r->request_bytes += static_cast<double>(request_bytes.size());
  r->response_bytes += static_cast<double>(response_bytes.size());
}

struct PhaseOutput {
  PhaseStats stats;
  std::vector<Sample> samples;
  Replayer replay;
  std::vector<double> swap_ms;
  std::size_t writer_failures = 0;
  serve::ServerStats server_before;
  serve::ServerStats server_after;
  std::pair<double, double> cache_before;
  std::pair<double, double> cache_after;
};

/// One timed closed-loop phase of `seconds`.
PhaseOutput RunPhase(Serving* s, const ServeShape& shape, double seconds,
                     std::uint64_t seed, bool traced, bool corrupt) {
  PhaseOutput out;
  out.server_before = s->server->stats();
  out.cache_before = s->cache.Total();
  trace::SetEnabled(traced);

  std::mutex mu;  // guards `completed`, `stop` and the merged outputs
  std::condition_variable cv;
  std::uint64_t completed = 0;
  bool stop = false;

  std::thread writer;
  if (shape.swap_every > 0) {
    writer = std::thread([&] {
      std::uint64_t next = shape.swap_every;
      std::uint64_t op = 1ULL << 60;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return stop || completed >= next; });
          if (stop) return;
        }
        next += shape.swap_every;
        const int which = s->ContentOf(s->server->snapshot_version()) == 0 ? 1 : 0;
        trace::SetOp(++op);
        const Clock::time_point start = Clock::now();
        trace::Span cycle("serve.swap_cycle");
        util::Result<core::SnapshotPackage> package = util::Status::Internal("unset");
        {
          trace::Span span("core.io.parse");
          package = core::ParseSnapshot(s->bytes[which], "writer");
        }
        if (!package.ok()) {
          ++out.writer_failures;
          continue;
        }
        verify::VerifyReport report;
        {
          trace::Span span("verify.snapshot");
          report = verify::VerifySnapshot(*package);
        }
        if (!report.ok()) {
          ++out.writer_failures;
          continue;
        }
        util::Result<std::shared_ptr<const core::CompiledSession>> loaded =
            util::Status::Internal("unset");
        {
          trace::Span span("core.from_snapshot");
          loaded = core::CompiledSession::FromSnapshot(*package);
        }
        if (!loaded.ok()) {
          ++out.writer_failures;
          continue;
        }
        {
          trace::Span span("serve.swap");
          std::lock_guard<std::mutex> lock(s->versions_mu);
          s->server->Swap(*loaded, "v" + std::to_string(next));
          s->content_of_version.resize(s->server->snapshot_version() + 1, which);
          s->content_of_version.back() = which;
        }
        s->cache.Publish(*loaded);
        out.swap_ms.push_back(MillisSince(start));
      }
    });
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  InputRng phase_rng(seed);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    clients.emplace_back([&, c, rng = phase_rng.Fork(c)]() mutable {
      serve::Client& client = s->clients[c];
      PhaseStats local;
      std::vector<Sample> samples;
      Replayer replay;
      std::uint64_t ok_count = 0;
      for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
        serve::WireRequest request;
        request.type = serve::MsgType::kAssignBatch;
        request.request_id = (static_cast<std::uint64_t>(c) << 40) | (i + 1);
        const bool hot = !s->hot.empty() && rng.Uniform(0.0, 1.0) < shape.hot_share;
        request.scenarios = hot ? s->hot[rng.Below(s->hot.size())]
                                : MakeSet(shape, s->vocab, &rng);
        trace::SetOp(request.request_id);
        const Clock::time_point sent = Clock::now();
        util::Result<serve::WireResponse> response =
            util::Status::Internal("unset");
        {
          trace::Span span("serve.call");
          response = client.Call(request);
        }
        const bool ok = response.ok() && response->code == serve::WireCode::kOk;
        local.Record(MillisSince(sent), SecondsSince(start),
                     request.scenarios.size(), ok);
        if (!ok) {
          if (!response.ok()) break;  // the connection is gone
        } else {
          if (ok_count++ % shape.sample_every == 0 &&
              samples.size() < shape.sample_cap) {
            if (corrupt && c == 0 && samples.empty()) {
              FlipLowBit(&response->full_values[0]);
            }
            samples.push_back({request.scenarios, response->snapshot_version,
                               response->scenario_names,
                               HashResponse(*response)});
          }
          if (traced) Replay(s, request, response->snapshot_version, &replay);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          ++completed;
        }
        cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(mu);
      out.stats.Merge(local);
      for (Sample& sample : samples) out.samples.push_back(std::move(sample));
      out.replay.Merge(replay);
    });
  }
  for (std::thread& thread : clients) thread.join();
  out.stats.wall_s = SecondsSince(start);
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  if (writer.joinable()) writer.join();
  trace::SetEnabled(false);
  out.server_after = s->server->stats();
  out.cache_after = s->cache.Total();
  return out;
}

/// Checks the sampled responses bit for bit against an in-process
/// AssignBatch on the session of the version that served them. Version 1
/// is the authored snapshot object itself; later versions were loaded by
/// the writer from one of the two serialized contents, so they are checked
/// against a separate load of the same bytes.
void CheckSamples(Serving* s, const std::vector<Sample>& samples,
                  Ledger* ledger) {
  std::shared_ptr<const core::CompiledSession> loaded[2];
  for (const Sample& sample : samples) {
    const int content = s->ContentOf(sample.version);
    ledger->Check(content >= 0, "sampled response names a version " +
                                    std::to_string(sample.version) +
                                    " that was never published");
    if (content < 0) continue;
    const core::CompiledSession* session = s->content[0].get();
    if (sample.version != 1) {
      if (loaded[content] == nullptr) {
        loaded[content] = core::CompiledSession::FromSnapshot(
                              core::ParseSnapshot(s->bytes[content], "check")
                                  .ValueOrDie())
                              .ValueOrDie();
      }
      session = loaded[content].get();
    }
    util::Result<Rows> expected = ExpectedRows(*session, sample.scenarios);
    ledger->Check(expected.ok(), "in-process AssignBatch of a sampled set");
    if (!expected.ok()) continue;
    ledger->Check(sample.names == sample.scenarios.Names(),
                  "served scenario names match the request");
    ledger->Check(sample.hash == HashDoubles(expected->compressed,
                                             HashDoubles(expected->full)),
                  "served rows bit-identical to in-process AssignBatch (version " +
                      std::to_string(sample.version) + ")");
  }
}

/// Sends the probe set through the server and checks the served rows
/// against the polynomial oracle of the serving version's content.
void CheckServedProbes(Serving* s, const core::ScenarioSet& probes,
                       Ledger* ledger) {
  serve::WireRequest request;
  request.type = serve::MsgType::kAssignBatch;
  request.request_id = 1ULL << 62;
  request.scenarios = probes;
  util::Result<serve::WireResponse> response = s->clients[0].Call(request);
  ledger->Check(response.ok() && response->code == serve::WireCode::kOk,
                "probe request served");
  if (!response.ok() || response->code != serve::WireCode::kOk) return;
  const int content = s->ContentOf(response->snapshot_version);
  ledger->Check(content >= 0, "probe served by a published version");
  if (content < 0) return;
  CheckProbes(s->authored, *s->content[content], probes,
              Rows{response->full_values, response->compressed_values}, ledger,
              "served probes");
}

void RunServe(const ServeShape& shape, const Args& args, RunResult* result) {
  std::vector<double> setup_s;
  std::unique_ptr<Serving> s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (s != nullptr) s->server->Stop();
    s.reset();
    const Clock::time_point start = Clock::now();
    s = SetUp(shape, args.seed);
    setup_s.push_back(SecondsSince(start));
  }

  PhaseOutput untraced;
  PhaseOutput traced;
  if (!args.trace) {
    untraced = RunPhase(s.get(), shape, args.seconds, args.seed ^ 0x5eed, false,
                        args.corrupt);
  } else {
    untraced = RunPhase(s.get(), shape, args.seconds / 2, args.seed ^ 0x5eed,
                        false, args.corrupt);
    traced = RunPhase(s.get(), shape, args.seconds / 2, args.seed ^ 0x7ace,
                      true, false);
  }

  const double peak_rss_mb = PeakRssMb();
  Ledger& ledger = result->ledger;
  CheckSamples(s.get(), untraced.samples, &ledger);
  CheckSamples(s.get(), traced.samples, &ledger);
  ledger.Check(untraced.writer_failures + traced.writer_failures == 0,
               "writer parse/verify/load succeeded");
  const core::ScenarioSet probes = ProbeScenarios(*s->content[0], shape.probes);
  CheckServedProbes(s.get(), probes, &ledger);
  // Accuracy of the served artifact: the authored snapshot's answers for
  // the probe set against the full provenance under the analyst's values.
  const double max_rel_err = CheckProbes(
      s->authored, *s->content[0], probes,
      FlattenReport(s->content[0]->AssignBatch(probes).ValueOrDie()), &ledger,
      "in-process probes");
  const serve::ServerStats final_stats = s->server->stats();
  s->clients.clear();
  s->server->Stop();

  const serve::ServerOptions options;
  result->Note("server_options",
               "num_workers=" + std::to_string(options.num_workers) +
                   " queue_capacity=" + std::to_string(options.queue_capacity) +
                   " default_deadline_ms=" +
                   std::to_string(options.default_deadline_ms) +
                   " deadline_check_scenarios=" +
                   std::to_string(options.deadline_check_scenarios));
  {
    // The resolved execution choices for one request-sized batch (the
    // first server chunk of it).
    InputRng rng(args.seed);
    const core::BatchAssignReport r =
        s->content[0]
            ->AssignBatch(ServerBatches(MakeSet(shape, s->vocab, &rng)).front())
            .ValueOrDie();
    result->Note("engine", core::SweepName(r.engine));
    result->Note("lanes", std::to_string(r.block_lanes));
    result->Note("layout", prov::EvalLayoutName(r.layout));
    result->Note("sweep_threads", std::to_string(r.num_threads));
  }
  result->Note("clients", std::to_string(shape.clients));
  result->Note("scenarios_per_request", std::to_string(shape.scenarios));
  result->Note("hot_share", std::to_string(shape.hot_share));
  result->Note("hot_pool", std::to_string(shape.hot_pool));
  result->Note("swap_every_requests", std::to_string(shape.swap_every));
  result->Note("full_monomials", std::to_string(s->content[0]->full_size()));
  result->Note("compressed_monomials",
               std::to_string(s->content[0]->compressed_size()));
  result->Note("groups", std::to_string(s->content[0]->labels().size()));
  result->Note("meta_vars", std::to_string(s->content[0]->meta_vars().size()));
  result->Note("server_swaps_total", std::to_string(final_stats.swaps));
  result->Note("sampled_responses_checked",
               std::to_string(untraced.samples.size() + traced.samples.size()));

  const double setup_median = Median(setup_s);
  result->attempted = untraced.stats.attempted + traced.stats.attempted;
  result->failed = untraced.stats.failed + traced.stats.failed;
  if (!args.trace) {
    AddEndToEnd(untraced.stats, setup_median, shape.tail_pct, max_rel_err,
                peak_rss_mb, result);
    return;
  }

  // Per-layer metrics of the traced half.
  const auto spans = trace::Collect();
  const Replayer& r = traced.replay;
  const double n = static_cast<double>(std::max<std::uint64_t>(1, r.requests));
  LayerValues v;
  const double encode = trace::TotalMs(spans, "serve.wire.encode_request") +
                        trace::TotalMs(spans, "serve.wire.encode_response");
  const double decode = trace::TotalMs(spans, "serve.wire.decode_request") +
                        trace::TotalMs(spans, "serve.wire.decode_response");
  const double plan = trace::TotalMs(spans, "core.plan");
  const double execute = trace::TotalMs(spans, "core.execute");
  const double call = trace::TotalMs(spans, "serve.call");
  const double calls = static_cast<double>(
      std::max<std::size_t>(1, trace::Count(spans, "serve.call")));
  v["serve.wire.encode_ms"] = encode / n;
  v["serve.wire.decode_ms"] = decode / n;
  v["serve.wire.request_bytes"] = r.request_bytes / n;
  v["serve.wire.response_bytes"] = r.response_bytes / n;
  v["serve.unattributed_ms"] = call / calls - (decode + plan + execute + encode) / n;
  const serve::ServerStats& b = traced.server_before;
  const serve::ServerStats& a = traced.server_after;
  const double completed = static_cast<double>(a.completed - b.completed);
  v["serve.coalesced_frac"] =
      completed > 0 ? static_cast<double>(a.coalesced - b.coalesced) / completed
                    : 0.0;
  v["serve.failed"] = static_cast<double>((a.shed - b.shed) +
                                          (a.deadline_exceeded - b.deadline_exceeded) +
                                          (a.failed - b.failed));
  v["serve.swap_ms"] = Mean(traced.swap_ms);
  v["serve.swaps"] = static_cast<double>(traced.swap_ms.size());
  v["core.plan_ms"] = plan / n;
  const double lookups = traced.cache_after.second - traced.cache_before.second;
  v["core.plan_cache.hit_frac"] =
      lookups > 0 ? (traced.cache_after.first - traced.cache_before.first) / lookups
                  : 0.0;
  v["core.execute_ms"] = execute / n;
  v["core.sweep.full_ms"] = r.full_sweep_s * 1e3 / n;
  v["core.sweep.compressed_ms"] = r.compressed_sweep_s * 1e3 / n;
  v["core.report_ms"] =
      (r.execute_s - r.full_sweep_s - r.compressed_sweep_s) * 1e3 / n;
  const double swaps = static_cast<double>(std::max<std::size_t>(1, traced.swap_ms.size()));
  if (!traced.swap_ms.empty()) {
    v["core.io.parse_ms"] = trace::TotalMs(spans, "core.io.parse") / swaps;
    v["verify.snapshot_ms"] = trace::TotalMs(spans, "verify.snapshot") / swaps;
    v["core.from_snapshot_ms"] =
        trace::TotalMs(spans, "core.from_snapshot") / swaps;
    v["core.io.snapshot_bytes"] = static_cast<double>(s->bytes[0].size());
  }
  v["prov.full_monomials"] = static_cast<double>(s->content[0]->full_size());
  v["prov.full_terms_per_s"] =
      r.full_sweep_s > 0 ? r.full_terms / r.full_sweep_s : 0.0;
  AddSpanLayers(static_cast<std::size_t>(calls), &v);
  AddLayerMetrics(v, result);
  AddTraceOverhead(untraced.stats, traced.stats, result);
}

}  // namespace

void RunServeSmall(const Args& args, RunResult* result) {
  RunServe(kSmall, args, result);
}

void RunServeBulk(const Args& args, RunResult* result) {
  RunServe(kBulk, args, result);
}

}  // namespace e2ebench
