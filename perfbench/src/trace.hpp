// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only around the benchmark's own calls into the
// library's public functions and virtual seams (FrameSource::Next, a tenant
// subclass's InferView, the sinks, a Link decorator, DatacenterIngest::Pump,
// the fetch handler), so nothing under src/ knows it is being traced.
//
// Thread safety: every thread that records gets its own buffer, registered
// once with the tracer and owned by it (so a buffer outlives a pool worker
// that never exits). A buffer's mutex is only ever contended by Collect(),
// which the benchmark calls after the workload has stopped.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanEvent {
  const char* name = "";  // string literal: static lifetime
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t arg = -1;  // span-specific payload (stream, datagrams, ...)
  std::uint32_t tid = 0;
};

// Duration summary of every span of one name.
struct SpanSummary {
  std::int64_t count = 0;
  double total_ms = 0;
  double mean_ms = 0;
  std::int64_t arg_sum = 0;  // of positive args (e.g. datagrams pumped)
};

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const char* name, std::int64_t begin_ns, std::int64_t end_ns,
              std::int64_t arg = -1);

  // Every span recorded so far, all threads. Call once recording stopped.
  std::vector<SpanEvent> Collect() const;
  static std::map<std::string, SpanSummary> Summarize(
      const std::vector<SpanEvent>& spans);
  // Chrome trace-event JSON ("X" complete events, microseconds), which
  // Perfetto and chrome://tracing open offline. `meta` lands in
  // "otherData".
  static bool WriteChromeJson(const std::string& path,
                              const std::vector<SpanEvent>& spans,
                              const std::map<std::string, std::string>& meta);

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<SpanEvent> events;
    std::uint32_t tid = 0;
  };
  Buffer& LocalBuffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span: records [construction, destruction) when tracing was on at
// construction. Costs one relaxed load when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::int64_t arg = -1)
      : name_(name), arg_(arg),
        begin_ns_(Tracer::Get().enabled() ? NowNs() : -1) {}
  ~Span() {
    if (begin_ns_ >= 0) Tracer::Get().Record(name_, begin_ns_, NowNs(), arg_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_arg(std::int64_t arg) { arg_ = arg; }

 private:
  const char* name_;
  std::int64_t arg_;
  std::int64_t begin_ns_;
};

}  // namespace perfbench
