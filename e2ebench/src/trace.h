// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer of the program: name ("<layer>.<what>"), start, end, the enclosing
// span on the same thread, and the operation (request, query or job) they
// belong to. Each thread appends to its own buffer; nothing is written
// until the run ends. When tracing is off a Span costs one branch.

#ifndef COBRA_E2EBENCH_TRACE_H_
#define COBRA_E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench::trace {

struct SpanRecord {
  const char* name = nullptr;  ///< Static string, "<layer>.<what>".
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< Index into the same thread's spans, or -1.
  std::uint64_t op = 0;
  std::uint32_t thread = 0;
};

/// Turns recording on or off for every thread (off by default).
void SetEnabled(bool enabled);
bool Enabled();

/// Sets the operation id later spans on this thread carry.
void SetOp(std::uint64_t op);

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// Every span recorded so far, grouped by thread. Call only after the
/// recording threads have been joined.
std::vector<std::vector<SpanRecord>> Collect();

/// Summed duration of the spans named `name`, in ms.
double TotalMs(const std::vector<std::vector<SpanRecord>>& spans,
               const std::string& name);
/// Number of spans named `name`.
std::size_t Count(const std::vector<std::vector<SpanRecord>>& spans,
                  const std::string& name);
/// Self time per layer (span duration minus the time its children cover),
/// summed over all spans, in ms, keyed by layer (the name up to the first
/// '.').
std::map<std::string, double> LayerSelfMs(
    const std::vector<std::vector<SpanRecord>>& spans);

/// Writes every span as one JSON line; returns false on an I/O error.
bool WriteJsonLines(const std::vector<std::vector<SpanRecord>>& spans,
                    const std::string& path);

}  // namespace e2ebench::trace

#endif  // COBRA_E2EBENCH_TRACE_H_
