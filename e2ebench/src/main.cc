// cobra_e2ebench — the end-to-end COBRA benchmark.
//
//   cobra_e2ebench --workload <serve_small|serve_bulk|stream_topk|author>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <path>] [--self-test corrupt]
//
// Builds the workload's inputs from the seed, measures for the given
// seconds, checks the answers, and prints as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports
// the end-to-end metrics; `--trace 1` runs an untraced and a traced half and
// reports the per-layer metrics and the tracing overhead. A line before it,
// starting "context ", records the host descriptor and run facts that are
// not metrics. A failed check prints no result and exits 1.

#include <sched.h>
#include <sys/resource.h>

#include <csignal>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace e2ebench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Ledger::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  if (failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++failures_;
}

void Ledger::CheckClose(double expected, double actual, double rel_tol,
                        const std::string& what) {
  const double scale = std::max(std::fabs(expected), 1e-300);
  const bool ok = std::isfinite(actual) &&
                  std::fabs(expected - actual) <= rel_tol * scale;
  Check(ok, what + " (expected " + std::to_string(expected) + ", got " +
                std::to_string(actual) + ")");
}

void PhaseStats::Merge(const PhaseStats& other) {
  attempted += other.attempted;
  failed += other.failed;
  latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                      other.latencies_ms.end());
  done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
  ok_scenarios.insert(ok_scenarios.end(), other.ok_scenarios.begin(),
                      other.ok_scenarios.end());
}

void AddEndToEnd(const PhaseStats& phase, double setup_s, double tail_pct,
                 double answer_max_rel_err, double peak_rss_mb,
                 RunResult* result) {
  const std::size_t n = phase.latencies_ms.size();
  const double beyond = static_cast<double>(n) * (100.0 - tail_pct) / 100.0;
  const std::size_t windows = std::clamp<std::size_t>(
      static_cast<std::size_t>(beyond / 10.0), 1, kMaxWindows);
  const double width = phase.wall_s / static_cast<double>(windows);
  std::vector<std::vector<double>> latencies(windows);
  std::vector<double> scenarios(windows, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = std::min(
        windows - 1, static_cast<std::size_t>(phase.done_s[i] / width));
    latencies[w].push_back(phase.latencies_ms[i]);
    scenarios[w] += phase.ok_scenarios[i];
  }
  std::vector<double> rate, p50, tail;
  for (std::size_t w = 0; w < windows; ++w) {
    rate.push_back(scenarios[w] / width);
    p50.push_back(Percentile(latencies[w], 50.0));
    tail.push_back(Percentile(latencies[w], tail_pct));
  }
  const double ok = static_cast<double>(phase.attempted - phase.failed);
  result->Add("setup_s", setup_s, "s");
  // A neighbour on a shared host only ever slows a window down, so the
  // quartile on the fast side of the windows tracks the program while up to
  // three quarters of them are disturbed; a median moves with the share.
  result->Add("scenarios_per_s", Percentile(rate, 75.0), "1/s");
  result->Add("latency_p50_ms", Percentile(p50, 25.0), "ms");
  result->Add("latency_tail_ms", Percentile(tail, 25.0), "ms");
  result->Add("ok_frac", ok / static_cast<double>(phase.attempted), "ratio");
  result->Add("answer_max_rel_err", answer_max_rel_err, "ratio");
  result->Add("peak_rss_mb", peak_rss_mb, "MiB");
  result->Note("latency_samples", std::to_string(n));
  result->Note("tail_percentile", std::to_string(tail_pct));
  result->Note("tail_samples_beyond",
               std::to_string(static_cast<std::size_t>(beyond)));
  result->Note("windows", std::to_string(windows));
  for (double p : {90.0, 95.0, 99.0, 99.9}) {
    result->Note("run_p" + std::to_string(p).substr(0, 4) + "_ms",
                 std::to_string(Percentile(phase.latencies_ms, p)));
  }
}

void AddTraceOverhead(const PhaseStats& untraced, const PhaseStats& traced,
                      RunResult* result) {
  const double base = Percentile(untraced.latencies_ms, 50.0);
  const double with = Percentile(traced.latencies_ms, 50.0);
  result->Note("untraced_latency_p50_ms", std::to_string(base));
  result->Note("traced_latency_p50_ms", std::to_string(with));
  result->Add("trace.overhead_frac", base > 0.0 ? with / base - 1.0 : 0.0,
              "ratio");
}

namespace {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order (BENCHMARK.json lists the same).
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"serve.wire.encode_ms", "ms"},
    {"serve.wire.decode_ms", "ms"},
    {"serve.wire.request_bytes", "bytes"},
    {"serve.wire.response_bytes", "bytes"},
    {"serve.unattributed_ms", "ms"},
    {"serve.coalesced_frac", "ratio"},
    {"serve.failed", "count"},
    {"serve.swap_ms", "ms"},
    {"serve.swaps", "count"},
    {"core.plan_ms", "ms"},
    {"core.plan_cache.hit_frac", "ratio"},
    {"core.execute_ms", "ms"},
    {"core.sweep.full_ms", "ms"},
    {"core.sweep.compressed_ms", "ms"},
    {"core.report_ms", "ms"},
    {"core.stream.generate_ms", "ms"},
    {"core.stream.plan_ms", "ms"},
    {"core.stream.full_ms", "ms"},
    {"core.stream.compressed_ms", "ms"},
    {"core.stream.full_rows_skipped_frac", "ratio"},
    {"core.compress.dp_ms", "ms"},
    {"core.compress.multitree_ms", "ms"},
    {"core.snapshot_ms", "ms"},
    {"core.io.serialize_ms", "ms"},
    {"core.io.parse_ms", "ms"},
    {"core.from_snapshot_ms", "ms"},
    {"core.io.snapshot_bytes", "bytes"},
    {"verify.snapshot_ms", "ms"},
    {"rel.sql_ms", "ms"},
    {"prov.provenance_ms", "ms"},
    {"prov.full_monomials", "count"},
    {"prov.full_terms_per_s", "1/s"},
    {"layer.rel.self_ms", "ms"},
    {"layer.prov.self_ms", "ms"},
    {"layer.core.self_ms", "ms"},
    {"layer.serve.self_ms", "ms"},
    {"layer.verify.self_ms", "ms"},
    {"layer.bench.self_ms", "ms"},
    {"trace.spans", "count"},
};

}  // namespace

void AddLayerMetrics(const LayerValues& values, RunResult* result) {
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    auto it = values.find(spec.name);
    result->Add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetricSpec& spec : kLayerMetrics) known |= name == spec.name;
    if (!known) {
      std::fprintf(stderr, "internal error: unlisted layer metric %s\n",
                   name.c_str());
      std::exit(3);
    }
  }
}

void AddSpanLayers(std::size_t ops, LayerValues* values) {
  const auto spans = trace::Collect();
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  for (const auto& [layer, ms] : trace::LayerSelfMs(spans)) {
    (*values)["layer." + layer + ".self_ms"] = ms * per_op;
  }
  std::size_t count = 0;
  for (const auto& thread : spans) count += thread.size();
  (*values)["trace.spans"] = static_cast<double>(count);
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Seconds one thread takes for a fixed floating-point burn, when
/// `threads` threads burn at once (the slowest thread's time).
double BurnSeconds(std::size_t threads) {
  std::vector<double> seconds(threads, 0.0);
  std::vector<double> sinks(threads, 0.0);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([t, &seconds, &sinks] {
      const Clock::time_point start = Clock::now();
      double x = 1.0 + static_cast<double>(t) * 1e-9;
      for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
      sinks[t] = x;
      seconds[t] = SecondsSince(start);
    });
  }
  for (std::thread& thread : pool) thread.join();
  double sink = 0.0;
  for (double s : sinks) sink += s;
  if (sink == 0.0) std::fprintf(stderr, "burn sink\n");
  return *std::max_element(seconds.begin(), seconds.end());
}

/// Host descriptor: CPU model, reported cores, and measured parallelism —
/// how many single-thread burns fit in the time of one when all cores
/// burn at once.
void DescribeHost(RunResult* result) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const std::size_t affinity =
      sched_getaffinity(0, sizeof set, &set) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&set))
          : std::thread::hardware_concurrency();
  const std::size_t nproc = std::max<std::size_t>(1, affinity);
  const double one = BurnSeconds(1);
  const double all = BurnSeconds(nproc);
  result->Note("host_cpu_model", CpuModel());
  result->Note("host_nproc", std::to_string(nproc));
  result->Note("host_burn_1t_ms", std::to_string(one * 1e3));
  result->Note("host_burn_nt_ms", std::to_string(all * 1e3));
  result->Note("host_measured_parallelism",
               std::to_string(static_cast<double>(nproc) * one / all));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Usage() {
  std::fprintf(stderr,
               "usage: cobra_e2ebench --workload "
               "<serve_small|serve_bulk|stream_topk|author> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--self-test corrupt]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0) || args->seconds > 600.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--self-test") {
      if (value != "corrupt") return false;
      args->corrupt = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  WorkloadFn run = nullptr;
  if (args.workload == "serve_small") run = RunServeSmall;
  if (args.workload == "serve_bulk") run = RunServeBulk;
  if (args.workload == "stream_topk") run = RunStreamTopK;
  if (args.workload == "author") run = RunAuthor;
  if (run == nullptr) {
    Usage();
    return 2;
  }

  // As cobra_serverd does: a peer that closed its socket must surface as a
  // write error, not kill the process hosting the server.
  std::signal(SIGPIPE, SIG_IGN);
  RunResult result;
  run(args, &result);
  if (result.ledger.failures() > 0 || result.ledger.checks() == 0) {
    std::fprintf(stderr, "%s: %zu of %zu answer checks failed; no result\n",
                 args.workload.c_str(), result.ledger.failures(),
                 result.ledger.checks());
    return 1;
  }
  if (args.trace && !args.trace_out.empty() &&
      !trace::WriteJsonLines(trace::Collect(), args.trace_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.trace_out.c_str());
    return 1;
  }
  DescribeHost(&result);

  std::string context = "{\"workload\":" + JsonString(args.workload) +
                        ",\"seed\":" + std::to_string(args.seed) +
                        ",\"default_seed\":" + std::to_string(kDefaultSeed) +
                        ",\"held_out_seed\":" + std::to_string(kHeldOutSeed) +
                        ",\"answer_checks\":" +
                        std::to_string(result.ledger.checks());
  for (const auto& [key, value] : result.context) {
    context += "," + JsonString(key) + ":" + JsonString(value);
  }
  std::printf("context %s}\n", context.c_str());

  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    line += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}
