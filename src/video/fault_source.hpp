// Seeded fault/overload decorators over FrameSource — the video-plane
// analogue of net::FaultyLink: wrap any source and the failure mode becomes
// reproducible in tests and benches, bit-for-bit.
//
// Two decorators ship:
//   * BurstySource — stamps each frame with a deterministic capture
//     timestamp (video::Frame::capture_ts_ns) following a bursty arrival
//     schedule at a configurable multiple of the stream's nominal rate.
//     It models OFFERED LOAD, not pacing: it never sleeps and never
//     advances any clock — the fleet compares these scripted arrival times
//     against its own util::Clock, so a pinned FakeClock makes the whole
//     overload-control schedule deterministic (edge_fleet_overload_test)
//     while under a real clock the same arrivals genuinely overload the
//     box.
//   * StallingSource — throws or sleeps at a scripted frame ordinal,
//     reproducing a camera that dies or stalls mid-stream inside the
//     pipeline driver's gather (edge_fleet_pipeline_test pins that the
//     failure surfaces at StopPipeline without wedging WaitPipelineIdle and
//     without corrupting sibling streams).
//
// Both follow the FrameSource threading contract: driven by one thread at a
// time, no internal locking needed. `inner` is borrowed and must outlive
// the decorator.
#pragma once

#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "video/source.hpp"

namespace ff::video {

struct BurstConfig {
  // Offered load as a multiple of the nominal frame rate: mean arrival
  // spacing is (1/fps)/rate_multiplier. 2.0 = twice as many frames per
  // scripted second as the stream's fps — a fleet provisioned for 1× must
  // shed half to hold its SLO.
  double rate_multiplier = 1.0;
  // Frames arrive in bursts of this many, spaced `burst_compression`×
  // tighter than the mean, separated by gaps that restore the mean rate.
  // 1 disables bursting (uniform arrivals).
  std::int64_t burst_len = 8;
  double burst_compression = 4.0;
  // Uniform per-arrival jitter as a fraction of the spacing, in [0, 1).
  // Seeded, so the schedule is still fully deterministic.
  double jitter = 0.0;
  std::uint64_t seed = 1;
  // Timestamp of the first arrival.
  std::int64_t base_ts_ns = 0;
};

// Stamps deterministic bursty arrival timestamps onto an inner source's
// frames. Pixels, frame order, and end-of-stream pass through untouched.
class BurstySource final : public FrameSource {
 public:
  BurstySource(FrameSource& inner, const BurstConfig& cfg)
      : inner_(inner), cfg_(cfg), rng_(cfg.seed) {
    FF_CHECK_GT(cfg.rate_multiplier, 0.0);
    FF_CHECK_GE(cfg.burst_len, 1);
    FF_CHECK_GT(cfg.burst_compression, 0.0);
    FF_CHECK(cfg.jitter >= 0.0 && cfg.jitter < 1.0);
    const std::int64_t fps = inner.fps() > 0 ? inner.fps() : 15;
    mean_gap_ns_ = static_cast<double>(1'000'000'000) /
                   (static_cast<double>(fps) * cfg.rate_multiplier);
  }

  std::optional<Frame> Next() override {
    auto f = inner_.Next();
    if (!f) return f;
    f->capture_ts_ns = NextArrivalNs();
    return f;
  }

  void Reset() override {
    inner_.Reset();
    rng_ = util::Pcg32(cfg_.seed);
    arrivals_ = 0;
    next_ts_ = static_cast<double>(cfg_.base_ts_ns);
  }

  std::int64_t width() const override { return inner_.width(); }
  std::int64_t height() const override { return inner_.height(); }
  std::int64_t fps() const override { return inner_.fps(); }

  // Arrival timestamps stamped so far (the last one equals the most recent
  // frame's capture_ts_ns).
  std::int64_t arrivals() const { return arrivals_; }

 private:
  std::int64_t NextArrivalNs() {
    const std::int64_t ts = static_cast<std::int64_t>(next_ts_);
    // Position within the burst period decides the gap to the NEXT frame:
    // burst_len tight gaps, then one long gap that restores the mean.
    const std::int64_t phase = arrivals_ % cfg_.burst_len;
    double gap = mean_gap_ns_ / cfg_.burst_compression;
    if (phase == cfg_.burst_len - 1) {
      // The closing gap carries the burst's saved time so the long-run rate
      // stays rate_multiplier × fps exactly.
      gap = mean_gap_ns_ * static_cast<double>(cfg_.burst_len) -
            (mean_gap_ns_ / cfg_.burst_compression) *
                static_cast<double>(cfg_.burst_len - 1);
    }
    if (cfg_.jitter > 0.0) {
      gap *= 1.0 + rng_.Uniform(-cfg_.jitter, cfg_.jitter);
    }
    next_ts_ += gap;
    ++arrivals_;
    return ts;
  }

  FrameSource& inner_;
  BurstConfig cfg_;
  util::Pcg32 rng_;
  double mean_gap_ns_ = 0.0;
  std::int64_t arrivals_ = 0;
  double next_ts_ = 0.0;
};

struct StallConfig {
  // Frame ordinal (0-based count of Next() calls that yielded a frame so
  // far) at which Next() throws std::runtime_error instead of returning.
  // -1 never throws. The throw repeats on every later call — a dead camera
  // stays dead.
  std::int64_t throw_at = -1;
  // Sleep this long inside EVERY Next() call from ordinal `stall_from` on.
  // Models a slow/stalling decode; the fleet's pipelined driver must keep
  // sibling streams flowing and StopPipeline must only ever wait one stall.
  std::int64_t stall_ms = 0;
  std::int64_t stall_from = 0;
};

// Fault decorator: throws or stalls at scripted ordinals, otherwise passes
// the inner source through untouched.
class StallingSource final : public FrameSource {
 public:
  StallingSource(FrameSource& inner, const StallConfig& cfg)
      : inner_(inner), cfg_(cfg) {
    FF_CHECK_GE(cfg.stall_ms, 0);
  }

  std::optional<Frame> Next() override {
    if (cfg_.throw_at >= 0 && count_ >= cfg_.throw_at) {
      ++throws_;
      throw std::runtime_error("StallingSource: camera died at frame " +
                               std::to_string(cfg_.throw_at));
    }
    if (cfg_.stall_ms > 0 && count_ >= cfg_.stall_from) {
      std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.stall_ms));
    }
    auto f = inner_.Next();
    if (f) ++count_;
    return f;
  }

  void Reset() override {
    inner_.Reset();
    count_ = 0;
  }

  std::int64_t width() const override { return inner_.width(); }
  std::int64_t height() const override { return inner_.height(); }
  std::int64_t fps() const override { return inner_.fps(); }

  std::int64_t frames_delivered() const { return count_; }
  std::int64_t throws() const { return throws_; }

 private:
  FrameSource& inner_;
  StallConfig cfg_;
  std::int64_t count_ = 0;
  std::int64_t throws_ = 0;
};

}  // namespace ff::video
