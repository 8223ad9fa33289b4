// Injectable monotonic time source.
//
// Latency accounting and the fleet's overload controller (core/edge_fleet)
// must be testable without sleeping: every policy decision is a pure
// function of timestamps read through this seam, so a test pins a FakeClock
// and the shed/keep schedule becomes deterministic (edge_fleet_overload_test
// asserts it is also identical between the synchronous and pipelined
// schedules). Production code uses SystemClock, a steady_clock wrapper.
//
// Clocks are shared across threads (the fleet's pipeline driver and any
// caller thread all read one clock), so NowNs() must be thread-safe.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace ff::util {

class Clock {
 public:
  virtual ~Clock() = default;
  // Monotonic nanoseconds since an arbitrary epoch. Thread-safe.
  virtual std::int64_t NowNs() = 0;
  double NowMs() { return static_cast<double>(NowNs()) / 1e6; }
};

// std::chrono::steady_clock. Stateless, so one process-wide instance serves
// every fleet that does not inject its own clock.
class SystemClock final : public Clock {
 public:
  std::int64_t NowNs() override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  static SystemClock& Instance() {
    static SystemClock clock;
    return clock;
  }
};

// Manually advanced clock for tests and benches. Never moves on its own;
// atomic so pipeline stages may read while the test thread advances.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::int64_t start_ns = 0) : now_ns_(start_ns) {}

  std::int64_t NowNs() override {
    return now_ns_.load(std::memory_order_relaxed);
  }

  void AdvanceNs(std::int64_t delta_ns) {
    now_ns_.fetch_add(delta_ns, std::memory_order_relaxed);
  }
  void AdvanceMs(std::int64_t delta_ms) { AdvanceNs(delta_ms * 1'000'000); }
  void SetNs(std::int64_t now_ns) {
    now_ns_.store(now_ns, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> now_ns_;
};

}  // namespace ff::util
