// Shared plumbing of the end-to-end benchmark: command-line arguments, the
// seeded input generator, order statistics, the correctness ledger and the
// result record every workload fills in.

#ifndef COBRA_E2EBENCH_BENCH_H_
#define COBRA_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

/// The seed a run uses when none is given, and the seed held out while the
/// benchmark was written (re-check a claim on it before trusting it).
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7919;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: flip one bit of a sampled answer before it is checked; the
  /// run must then fail.
  bool corrupt = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

/// SplitMix64: the benchmark's own input generator, so the program under
/// test contributes nothing to the inputs it is fed.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  /// An independent stream for worker `stream` of this generator.
  InputRng Fork(std::uint64_t stream) {
    return InputRng(Next() ^ (stream * 0xd1b54a32d192ed03ULL));
  }

 private:
  std::uint64_t state_;
};

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The self-test's corruption: flips the lowest mantissa bit of `*v`.
inline void FlipLowBit(double* v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, v, sizeof bits);
  bits ^= 1;
  std::memcpy(v, &bits, sizeof bits);
}

/// Word-wise FNV-style hash of the bit patterns of `values`, folded into
/// `hash`: equal hashes stand for bit-identical rows.
inline std::uint64_t HashDoubles(const std::vector<double>& values,
                                 std::uint64_t hash = 1469598103934665603ULL) {
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    hash = (hash ^ bits) * 1099511628211ULL;
    hash ^= hash >> 29;
  }
  return hash;
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Records failed correctness checks. The run prints no metrics and exits
/// non-zero when any check failed.
class Ledger {
 public:
  void Check(bool ok, const std::string& what);
  void CheckClose(double expected, double actual, double rel_tol,
                  const std::string& what);
  std::size_t checks() const { return checks_; }
  std::size_t failures() const { return failures_; }

 private:
  std::size_t checks_ = 0;
  std::size_t failures_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one; `context`
/// records run facts that are not metrics (resolved engine, options,
/// percentile choices, sample counts).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;
  Ledger ledger;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
  }
};

/// Setup timing: each workload builds its serving state several times and
/// reports the median, so one slow build does not move `setup_s`.
inline constexpr int kSetupRepeats = 5;

/// Samples of one timed phase: per operation its latency, when it
/// completed (seconds into the phase) and how many scenarios it answered
/// OK (0 when it failed).
struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<double> latencies_ms;
  std::vector<double> done_s;
  std::vector<double> ok_scenarios;

  void Record(double latency_ms, double done, std::size_t scenarios, bool ok) {
    attempted += 1;
    failed += ok ? 0 : 1;
    latencies_ms.push_back(latency_ms);
    done_s.push_back(done);
    ok_scenarios.push_back(ok ? static_cast<double>(scenarios) : 0.0);
  }
  void Merge(const PhaseStats& other);
};

/// Most time windows a timed phase is cut into (see AddEndToEnd).
inline constexpr std::size_t kMaxWindows = 40;

/// Adds the end-to-end metrics every workload reports. `tail_pct` is the
/// workload's fixed tail percentile. The phase is cut into equal time
/// windows, as many (up to kMaxWindows) as leave ≥10 samples beyond the
/// tail percentile in each; throughput is the upper quartile of the window
/// rates and each latency percentile the lower quartile of the window
/// values, so stalls a shared host puts into some windows do not move the
/// result.
/// `peak_rss_mb` is read when the timed phase ends, before the answer
/// checks (which materialize far more than the workload does).
void AddEndToEnd(const PhaseStats& phase, double setup_s, double tail_pct,
                 double answer_max_rel_err, double peak_rss_mb,
                 RunResult* result);

/// Traced runs: the difference between the traced and the untraced phase.
void AddTraceOverhead(const PhaseStats& untraced, const PhaseStats& traced,
                      RunResult* result);

/// Per-layer values of a traced run, keyed by metric name. Every per-layer
/// metric is reported on every workload; one missing from the map reads 0
/// (its layer does no work on that workload).
using LayerValues = std::map<std::string, double>;
void AddLayerMetrics(const LayerValues& values, RunResult* result);

/// Fills the span-derived values every traced run reports: each layer's
/// self time per operation (`layer.<name>.self_ms`) and the span count.
void AddSpanLayers(std::size_t ops, LayerValues* values);

/// The workloads. Each fills `result` (metrics, context, answer checks).
using WorkloadFn = void (*)(const Args& args, RunResult* result);
void RunServeSmall(const Args& args, RunResult* result);
void RunServeBulk(const Args& args, RunResult* result);
void RunStreamTopK(const Args& args, RunResult* result);
void RunAuthor(const Args& args, RunResult* result);

}  // namespace e2ebench

#endif  // COBRA_E2EBENCH_BENCH_H_
