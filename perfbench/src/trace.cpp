#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::LocalBuffer() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    local = buffers_.back().get();
    local->tid = static_cast<std::uint32_t>(buffers_.size());
  }
  return *local;
}

void Tracer::Record(const char* name, std::int64_t begin_ns,
                    std::int64_t end_ns, std::int64_t arg) {
  Buffer& b = LocalBuffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.events.push_back(SpanEvent{name, begin_ns, end_ns, arg, b.tid});
}

std::vector<SpanEvent> Tracer::Collect() const {
  std::vector<SpanEvent> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> block(b->mu);
    all.insert(all.end(), b->events.begin(), b->events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.begin_ns < b.begin_ns;
            });
  return all;
}

std::map<std::string, SpanSummary> Tracer::Summarize(
    const std::vector<SpanEvent>& spans) {
  std::map<std::string, SpanSummary> out;
  for (const SpanEvent& e : spans) {
    SpanSummary& s = out[e.name];
    ++s.count;
    s.total_ms += static_cast<double>(e.end_ns - e.begin_ns) / 1e6;
    if (e.arg > 0) s.arg_sum += e.arg;
  }
  for (auto& [name, s] : out) s.mean_ms = s.total_ms / static_cast<double>(s.count);
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::vector<SpanEvent>& spans,
                             const std::map<std::string, std::string>& meta) {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().begin_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  for (const auto& [k, v] : meta) {
    out << (first ? "" : ",") << '"' << k << "\":\"" << v << '"';
    first = false;
  }
  out << "},\"traceEvents\":[\n";
  first = true;
  char buf[256];
  for (const SpanEvent& e : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%lld}}",
                  first ? "" : ",\n", e.name, e.tid,
                  static_cast<double>(e.begin_ns - t0) / 1e3,
                  static_cast<double>(e.end_ns - e.begin_ns) / 1e3,
                  static_cast<long long>(e.arg));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
