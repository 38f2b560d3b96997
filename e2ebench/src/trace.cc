#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace e2ebench::trace {
namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> records;
  std::int64_t open = -1;  ///< Innermost open span.
  std::uint64_t op = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadBuffer* ThisThread() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    buffer->records.reserve(1 << 12);
  }
  return buffer;
}

std::string LayerOf(const char* name) {
  std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetOp(std::uint64_t op) {
  if (Enabled()) ThisThread()->op = op;
}

Span::Span(const char* name) {
  if (!Enabled()) return;
  ThreadBuffer* buffer = ThisThread();
  index_ = static_cast<std::int64_t>(buffer->records.size());
  buffer->records.push_back(
      {name, NowNs(), 0, buffer->open, buffer->op, buffer->thread});
  buffer->open = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer* buffer = ThisThread();
  SpanRecord& record = buffer->records[static_cast<std::size_t>(index_)];
  record.end_ns = NowNs();
  buffer->open = record.parent;
}

std::vector<std::vector<SpanRecord>> Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<std::vector<SpanRecord>> out;
  out.reserve(g_buffers.size());
  for (const auto& buffer : g_buffers) out.push_back(buffer->records);
  return out;
}

double TotalMs(const std::vector<std::vector<SpanRecord>>& spans,
               const std::string& name) {
  std::int64_t total = 0;
  for (const auto& thread : spans) {
    for (const SpanRecord& r : thread) {
      if (name == r.name) total += r.end_ns - r.start_ns;
    }
  }
  return static_cast<double>(total) * 1e-6;
}

std::size_t Count(const std::vector<std::vector<SpanRecord>>& spans,
                  const std::string& name) {
  std::size_t n = 0;
  for (const auto& thread : spans) {
    for (const SpanRecord& r : thread) n += name == r.name ? 1 : 0;
  }
  return n;
}

std::map<std::string, double> LayerSelfMs(
    const std::vector<std::vector<SpanRecord>>& spans) {
  std::map<std::string, double> self;
  for (const auto& thread : spans) {
    std::vector<std::int64_t> children_ns(thread.size(), 0);
    for (const SpanRecord& r : thread) {
      if (r.parent >= 0) {
        children_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    for (std::size_t i = 0; i < thread.size(); ++i) {
      const SpanRecord& r = thread[i];
      self[LayerOf(r.name)] +=
          static_cast<double>(r.end_ns - r.start_ns - children_ns[i]) * 1e-6;
    }
  }
  return self;
}

bool WriteJsonLines(const std::vector<std::vector<SpanRecord>>& spans,
                    const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& thread : spans) {
    for (const SpanRecord& r : thread) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%lld,\"op\":%llu,\"thread\":%u}\n",
                   r.name, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.op), r.thread);
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace e2ebench::trace
