// Pins three scheduler properties of the staged EdgeFleet:
//
//  (a) GEOMETRY BUCKETS — a heterogeneous fleet (streams of >= 2 distinct
//      WxH sharing one extractor) produces per-stream decision/upload byte
//      streams BITWISE-identical to running one homogeneous fleet per
//      geometry (and, transitively via edge_fleet_test, to a dedicated
//      EdgeNode per stream);
//  (b) PIPELINED DRIVER — StartPipeline/StopPipeline (Step()'s turn run in
//      a loop on one driver thread, which drops the fleet lock around
//      FrameSource::Next() and preprocessing) produces per-stream decisions
//      BITWISE-identical to the synchronous Step() schedule, including
//      under mid-run AddStream/RemoveStream churn (also while the driver is
//      inside a sibling's Next()), mixed geometries, push-driven streams,
//      and stop/restart with a synchronous tail;
//  (c) CONCURRENT PULLS — under either schedule, the sources of one gather
//      round decode at the same time, one pool task per source, and churn
//      still lands while every pull of a round is blocked.
//
// This suite runs under the CI ThreadSanitizer leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/edge_fleet.hpp"
#include "core/edge_node.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"
#include "video/dataset.hpp"
#include "video/fault_source.hpp"
#include "video/source.hpp"

namespace ff::core {
namespace {

constexpr const char* kTap = "conv3_2/sep";

video::DatasetSpec CamSpec(std::int64_t width, std::int64_t frames,
                           std::uint64_t seed) {
  auto spec = video::JacksonSpec(width, frames, seed);
  spec.mean_event_len = 8;
  return spec;
}

std::unique_ptr<Microclassifier> MakeMc(const dnn::FeatureExtractor& fx,
                                        const video::DatasetSpec& spec,
                                        const std::string& arch,
                                        std::uint64_t seed) {
  return MakeMicroclassifier(
      arch, {.name = arch + std::to_string(seed), .tap = kTap, .seed = seed},
      fx, spec.height, spec.width);
}

EdgeFleetConfig FleetConfig() {
  EdgeFleetConfig cfg;
  cfg.upload_bitrate_bps = 60'000;
  return cfg;
}

void ExpectSameResult(const McResult& a, const McResult& b) {
  EXPECT_EQ(a.first_frame, b.first_frame) << a.name;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << a.name;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    // Bitwise, not approximate: scheduling (buckets, batch composition,
    // pipelining) must never change a single mantissa bit.
    EXPECT_EQ(0, std::memcmp(&a.scores[i], &b.scores[i], sizeof(float)))
        << a.name << " score " << i;
  }
  EXPECT_EQ(a.raw, b.raw) << a.name;
  EXPECT_EQ(a.decisions, b.decisions) << a.name;
  EXPECT_EQ(a.event_ids, b.event_ids) << a.name;
  ASSERT_EQ(a.events.size(), b.events.size()) << a.name;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].begin, b.events[i].begin) << a.name;
    EXPECT_EQ(a.events[i].end, b.events[i].end) << a.name;
  }
}

// Polls a fleet accessor until it reports `goal` (the pipelined schedule
// has no synchronous step boundary to hook; accessors are thread-safe).
template <typename Fn>
void WaitUntil(Fn&& done) {
  while (!done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Like WaitUntil, but gives up after `limit`; the caller asserts after.
template <typename Fn>
void WaitUntilOrTimeout(Fn&& done,
                        std::chrono::milliseconds limit =
                            std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(EdgeFleetPipeline, HeterogeneousFleetMatchesHomogeneousFleetsBitwise) {
  // Four cameras, two geometries (128- and 160-wide walls) in ONE fleet;
  // reference: one homogeneous fleet per geometry, same tenant scripts.
  const std::int64_t kFrames = 10;
  const video::SyntheticDataset small0(CamSpec(128, kFrames, 71));
  const video::SyntheticDataset small1(CamSpec(128, kFrames, 72));
  const video::SyntheticDataset big0(CamSpec(160, kFrames, 73));
  const video::SyntheticDataset big1(CamSpec(160, kFrames, 74));
  const video::SyntheticDataset* cams[4] = {&small0, &big0, &small1, &big1};
  const char* archs[4] = {"windowed", "localized", "full_frame", "windowed"};

  auto run_mixed = [&](bool pipelined) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.max_batch = 3;  // not a multiple of either wall, deliberately
    EdgeFleet fleet(fx, cfg);
    std::vector<std::unique_ptr<video::DatasetSource>> sources;
    std::vector<std::unique_ptr<ResultCollector>> collectors;
    std::vector<StreamHandle> handles;
    for (int c = 0; c < 4; ++c) {
      sources.push_back(std::make_unique<video::DatasetSource>(*cams[c]));
      handles.push_back(fleet.AddStream(*sources.back()));
      McSpec spec{.mc = MakeMc(fx, cams[c]->spec(), archs[c],
                               900 + static_cast<std::uint64_t>(c))};
      collectors.push_back(std::make_unique<ResultCollector>());
      collectors.back()->Bind(spec);
      fleet.Attach(handles.back(), std::move(spec));
    }
    EXPECT_EQ(fleet.n_buckets(), 2u);
    std::vector<std::uint64_t> bytes;
    if (pipelined) {
      fleet.RunPipelined();
    } else {
      fleet.Run();
    }
    EXPECT_EQ(fleet.frames_processed(), 4 * kFrames);
    for (const StreamHandle h : handles) {
      bytes.push_back(fleet.upload_bytes(h));
    }
    // Both buckets really batched (each saw its own streams' frames), and
    // the pipelined schedule kept real batch widths — while a bucket's
    // sources have frames ready its partial batches must NOT flush early
    // (a gather fairness/readiness bug would collapse width toward 1,
    // silently costing the cross-stream batching this scheduler exists
    // for while every bitwise check still passes).
    const auto stats = fleet.bucket_stats();
    EXPECT_EQ(stats.size(), 2u);
    for (const auto& st : stats) {
      EXPECT_EQ(st.frames, 2 * kFrames);
      EXPECT_LE(st.batches, 2 * kFrames / cfg.max_batch + 4)
          << "batch width collapsed in the " << st.width << "x" << st.height
          << " bucket";
    }
    std::vector<McResult> results;
    for (const auto& c : collectors) results.push_back(c->result());
    return std::make_pair(results, bytes);
  };

  // Reference: one homogeneous fleet per geometry (the pre-redesign
  // workaround the buckets replace).
  auto run_homogeneous = [&](std::initializer_list<int> cam_ids) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.max_batch = 3;
    EdgeFleet fleet(fx, cfg);
    std::vector<std::unique_ptr<video::DatasetSource>> sources;
    std::vector<std::unique_ptr<ResultCollector>> collectors;
    std::vector<StreamHandle> handles;
    for (int c : cam_ids) {
      sources.push_back(std::make_unique<video::DatasetSource>(*cams[c]));
      handles.push_back(fleet.AddStream(*sources.back()));
      McSpec spec{.mc = MakeMc(fx, cams[c]->spec(), archs[c],
                               900 + static_cast<std::uint64_t>(c))};
      collectors.push_back(std::make_unique<ResultCollector>());
      collectors.back()->Bind(spec);
      fleet.Attach(handles.back(), std::move(spec));
    }
    fleet.Run();
    std::vector<McResult> results;
    std::vector<std::uint64_t> bytes;
    for (std::size_t i = 0; i < collectors.size(); ++i) {
      results.push_back(collectors[i]->result());
      bytes.push_back(fleet.upload_bytes(handles[i]));
    }
    return std::make_pair(results, bytes);
  };

  const auto [mixed, mixed_bytes] = run_mixed(/*pipelined=*/false);
  const auto [piped, piped_bytes] = run_mixed(/*pipelined=*/true);
  const auto [small_ref, small_bytes] = run_homogeneous({0, 2});
  const auto [big_ref, big_bytes] = run_homogeneous({1, 3});

  // Mixed fleet streams 0/2 are the small wall, 1/3 the big wall.
  ExpectSameResult(mixed[0], small_ref[0]);
  ExpectSameResult(mixed[2], small_ref[1]);
  ExpectSameResult(mixed[1], big_ref[0]);
  ExpectSameResult(mixed[3], big_ref[1]);
  EXPECT_EQ(mixed_bytes[0], small_bytes[0]);
  EXPECT_EQ(mixed_bytes[2], small_bytes[1]);
  EXPECT_EQ(mixed_bytes[1], big_bytes[0]);
  EXPECT_EQ(mixed_bytes[3], big_bytes[1]);

  // The pipelined schedule of the SAME heterogeneous wall is also bitwise
  // identical, upload bytes included.
  for (int c = 0; c < 4; ++c) {
    ExpectSameResult(piped[static_cast<std::size_t>(c)],
                     mixed[static_cast<std::size_t>(c)]);
    EXPECT_EQ(piped_bytes[static_cast<std::size_t>(c)],
              mixed_bytes[static_cast<std::size_t>(c)]);
  }
}

// Wraps a DatasetSource behind a gate: Next() calls from the `gate_from`-th
// on (0-based) block until Open(). This is how the churn script below makes
// "AddStream + Attach" atomic with respect to a RUNNING pipeline — between
// the two calls the driver may legally gather and process the new stream's
// frames, which the synchronous schedule cannot reproduce. Gating the
// source until the tenant is attached keeps both schedules on the same
// script.
class GatedSource : public video::FrameSource {
 public:
  explicit GatedSource(const video::SyntheticDataset& ds,
                       std::int64_t gate_from = 0)
      : src_(ds), gate_from_(gate_from) {}
  std::optional<video::Frame> Next() override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (calls_++ >= gate_from_ && !open_) {
        ++waiting_;
        cv_.notify_all();
        cv_.wait(lk, [&] { return open_; });
        --waiting_;
      }
    }
    return src_.Next();
  }
  // Returns once a Next() caller is waiting at the closed gate.
  void WaitForBlockedCaller() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return waiting_ > 0; });
  }
  void Reset() override { src_.Reset(); }
  std::int64_t width() const override { return src_.width(); }
  std::int64_t height() const override { return src_.height(); }
  std::int64_t fps() const override { return src_.fps(); }
  void Open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  video::DatasetSource src_;
  const std::int64_t gate_from_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t calls_ = 0;
  std::int64_t waiting_ = 0;
  bool open_ = false;
};

TEST(EdgeFleetPipeline, PipelinedMatchesSynchronousUnderChurn) {
  // Churn script, applied identically to a synchronous and a pipelined
  // fleet: streams A and B run from the start; A (short) is removed once
  // its source is exhausted and fully processed; C joins mid-run with its
  // own tenant. Every stream's history must match the synchronous run
  // bitwise.
  const std::int64_t kShort = 6, kLong = 14;
  const video::SyntheticDataset dsA(CamSpec(128, kShort, 81));
  const video::SyntheticDataset dsB(CamSpec(128, kLong, 82));
  const video::SyntheticDataset dsC(CamSpec(128, kLong, 83));

  struct RunOut {
    McResult a, b, c;
    std::int64_t frames = 0;
  };
  auto run = [&](bool pipelined) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.max_batch = 4;
    EdgeFleet fleet(fx, cfg);
    video::DatasetSource sa(dsA), sb(dsB);
    GatedSource sc(dsC);
    const StreamHandle ha = fleet.AddStream(sa);
    const StreamHandle hb = fleet.AddStream(sb);
    ResultCollector ca, cb, cc;
    McSpec spec_a{.mc = MakeMc(fx, dsA.spec(), "windowed", 501)};
    ca.Bind(spec_a);
    fleet.Attach(ha, std::move(spec_a));
    McSpec spec_b{.mc = MakeMc(fx, dsB.spec(), "localized", 502)};
    cb.Bind(spec_b);
    fleet.Attach(hb, std::move(spec_b));

    if (pipelined) fleet.StartPipeline();
    auto advance_until = [&](auto done) {
      if (pipelined) {
        WaitUntil(done);
      } else {
        while (!done()) ASSERT_GT(fleet.Step(), 0);
      }
    };

    // A leaves once fully processed (a deterministic churn point that both
    // schedules can hit exactly).
    advance_until([&] { return fleet.frames_processed(ha) == kShort; });
    fleet.RemoveStream(ha);
    EXPECT_FALSE(fleet.HasStream(ha));

    // C joins mid-run (B is genuinely mid-stream at this point in the
    // synchronous schedule; in the pipelined one the join lands at
    // whatever batch boundary the driver is at). Its source stays
    // gated until the tenant is attached, so both schedules see C's
    // tenant live from C's frame 0.
    const StreamHandle hc = fleet.AddStream(sc);
    McSpec spec_c{.mc = MakeMc(fx, dsC.spec(), "windowed", 503)};
    cc.Bind(spec_c);
    fleet.Attach(hc, std::move(spec_c));
    sc.Open();

    if (pipelined) {
      fleet.WaitPipelineIdle();
      fleet.StopPipeline();
      EXPECT_FALSE(fleet.pipeline_active());
    } else {
      while (fleet.Step() > 0) {
      }
    }
    fleet.Drain();
    EXPECT_EQ(fleet.frames_processed(hb), kLong);
    EXPECT_EQ(fleet.frames_processed(hc), kLong);
    EXPECT_EQ(fx.TapRefs(kTap), 0);
    RunOut out;
    out.a = ca.result();
    out.b = cb.result();
    out.c = cc.result();
    out.frames = fleet.frames_processed();
    return out;
  };

  const RunOut sync = run(/*pipelined=*/false);
  const RunOut piped = run(/*pipelined=*/true);
  // frames_processed() sums LIVE streams; A's kShort frames left with it.
  EXPECT_EQ(sync.frames, 2 * kLong);
  EXPECT_EQ(piped.frames, sync.frames);
  ExpectSameResult(piped.a, sync.a);
  ExpectSameResult(piped.b, sync.b);
  ExpectSameResult(piped.c, sync.c);
}

TEST(EdgeFleetPipeline, SiblingRemovedWhileDriverIsInsideNextStaysBitwise) {
  // The driver drops the fleet lock inside a stream's Next(), so a SIBLING
  // of that stream can be removed mid-gather. Script (deterministic): the
  // 128-px bucket holds R, then G; with max_batch 4 each of its gathers
  // pulls R, G, R, G. G has 6 frames and its 7th pull — end of stream —
  // blocks at a gate, so the 4th gather takes R's frame 6 and then sits
  // inside G's Next(). R is removed right there. The gather must then
  // re-resolve R by handle (a Stream* kept across the pull would dangle)
  // and ends with R's frame only, so the turn processes 0 frames while W,
  // in the 160-px bucket, still has frames: the driver must not park on
  // that. G and W must match the synchronous schedule bitwise.
  const std::int64_t kR = 12, kG = 6, kW = 24;
  const video::SyntheticDataset dsR(CamSpec(128, kR, 151));
  const video::SyntheticDataset dsG(CamSpec(128, kG, 152));
  const video::SyntheticDataset dsW(CamSpec(160, kW, 153));

  auto run = [&](bool pipelined) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.max_batch = 4;
    EdgeFleet fleet(fx, cfg);
    video::DatasetSource sr(dsR), sw(dsW);
    GatedSource sg(dsG, /*gate_from=*/kG);
    if (!pipelined) sg.Open();
    const StreamHandle hr = fleet.AddStream(sr);
    const StreamHandle hg = fleet.AddStream(sg);
    const StreamHandle hw = fleet.AddStream(sw);
    fleet.Attach(hr, {.mc = MakeMc(fx, dsR.spec(), "localized", 851)});
    ResultCollector cg, cw;
    McSpec spec_g{.mc = MakeMc(fx, dsG.spec(), "windowed", 852)};
    cg.Bind(spec_g);
    fleet.Attach(hg, std::move(spec_g));
    McSpec spec_w{.mc = MakeMc(fx, dsW.spec(), "localized", 853)};
    cw.Bind(spec_w);
    fleet.Attach(hw, std::move(spec_w));

    if (pipelined) {
      fleet.StartPipeline();
      sg.WaitForBlockedCaller();
      // The driver is inside G's end-of-stream Next() with R's frame 6
      // gathered and not processed.
      EXPECT_EQ(fleet.frames_processed(hr), 6);
      EXPECT_EQ(fleet.frames_processed(hg), kG);
      // R's frame 6 is pulled in the same round as G's blocked call, on
      // another thread, and may still be decoding when G blocks.
      WaitUntilOrTimeout([&] { return fleet.fleet_stats().in_flight == 1; });
      EXPECT_EQ(fleet.fleet_stats().in_flight, 1);
      fleet.RemoveStream(hr);
      sg.Open();
      fleet.WaitPipelineIdle();
      fleet.StopPipeline();
    } else {
      fleet.RemoveStream(hr);
      while (fleet.Step() > 0) {
      }
    }
    fleet.Drain();
    EXPECT_FALSE(fleet.HasStream(hr));
    EXPECT_EQ(fleet.frames_processed(hg), kG);
    EXPECT_EQ(fleet.frames_processed(hw), kW);
    EXPECT_EQ(fx.TapRefs(kTap), 0);
    return std::make_pair(cg.result(), cw.result());
  };

  const auto [pg, pw] = run(/*pipelined=*/true);
  const auto [sg, sw] = run(/*pipelined=*/false);
  ExpectSameResult(pg, sg);
  ExpectSameResult(pw, sw);
}

// Two sources that meet inside Next(): every call waits, up to 5 s, until
// the call after or before it in arrival order (made by the partner
// source) is inside Next() too. A gather that pulls one source at a time
// makes the first call time out; from then on no call waits and the
// meeting is recorded as missed, so the test fails instead of hanging.
class Rendezvous {
 public:
  void Meet() {
    std::unique_lock<std::mutex> lk(mu_);
    if (missed_) return;
    const std::int64_t pair = arrivals_++ / 2;
    cv_.notify_all();
    if (!cv_.wait_for(lk, std::chrono::seconds(5),
                      [&] { return arrivals_ >= 2 * pair + 2 || missed_; }) ||
        missed_) {
      missed_ = true;
      cv_.notify_all();
    }
  }
  bool missed() {
    std::lock_guard<std::mutex> lk(mu_);
    return missed_;
  }
  std::int64_t arrivals() {
    std::lock_guard<std::mutex> lk(mu_);
    return arrivals_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t arrivals_ = 0;
  bool missed_ = false;
};

class MeetingSource : public video::FrameSource {
 public:
  MeetingSource(const video::SyntheticDataset& ds, Rendezvous& rv)
      : src_(ds), rv_(rv) {}
  std::optional<video::Frame> Next() override {
    rv_.Meet();
    return src_.Next();
  }
  void Reset() override { src_.Reset(); }
  std::int64_t width() const override { return src_.width(); }
  std::int64_t height() const override { return src_.height(); }
  std::int64_t fps() const override { return src_.fps(); }

 private:
  video::DatasetSource src_;
  Rendezvous& rv_;
};

TEST(EdgeFleetPipeline, SourcesOfOneBucketArePulledConcurrently) {
  // Two cameras of one geometry: each gather round pulls both sources at
  // once, on the pool, under either schedule. Every Next() call must meet
  // its partner's, and the decisions must still match one fleet per
  // stream bitwise.
  const std::int64_t kFrames = 6;
  const video::SyntheticDataset ds0(CamSpec(128, kFrames, 161));
  const video::SyntheticDataset ds1(CamSpec(128, kFrames, 162));
  const video::SyntheticDataset* cams[2] = {&ds0, &ds1};

  auto run_pair = [&](bool pipelined) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.max_batch = 4;
    EdgeFleet fleet(fx, cfg);
    Rendezvous rv;
    MeetingSource s0(ds0, rv), s1(ds1, rv);
    MeetingSource* sources[2] = {&s0, &s1};
    std::vector<std::unique_ptr<ResultCollector>> collectors;
    for (int c = 0; c < 2; ++c) {
      const StreamHandle h = fleet.AddStream(*sources[c]);
      McSpec spec{.mc = MakeMc(fx, cams[c]->spec(), "windowed",
                               910 + static_cast<std::uint64_t>(c))};
      collectors.push_back(std::make_unique<ResultCollector>());
      collectors.back()->Bind(spec);
      fleet.Attach(h, std::move(spec));
    }
    if (pipelined) {
      fleet.RunPipelined();
    } else {
      fleet.Run();
    }
    EXPECT_FALSE(rv.missed())
        << (pipelined ? "pipelined" : "Step()")
        << ": a Next() call ran while its partner source was not pulled";
    // Each source: kFrames frames plus its end-of-stream call.
    EXPECT_EQ(rv.arrivals(), 2 * (kFrames + 1));
    EXPECT_EQ(fleet.frames_processed(), 2 * kFrames);
    return std::make_pair(collectors[0]->result(), collectors[1]->result());
  };

  auto run_solo = [&](int c) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.max_batch = 4;
    EdgeFleet fleet(fx, cfg);
    video::DatasetSource src(*cams[c]);
    const StreamHandle h = fleet.AddStream(src);
    ResultCollector rc;
    McSpec spec{.mc = MakeMc(fx, cams[c]->spec(), "windowed",
                             910 + static_cast<std::uint64_t>(c))};
    rc.Bind(spec);
    fleet.Attach(h, std::move(spec));
    fleet.Run();
    return rc.result();
  };

  const auto [sync0, sync1] = run_pair(/*pipelined=*/false);
  const auto [piped0, piped1] = run_pair(/*pipelined=*/true);
  const McResult solo0 = run_solo(0), solo1 = run_solo(1);
  ExpectSameResult(sync0, solo0);
  ExpectSameResult(sync1, solo1);
  ExpectSameResult(piped0, solo0);
  ExpectSameResult(piped1, solo1);
}

TEST(EdgeFleetPipeline, RemoveStreamDrainsWhileEveryPullIsBlocked) {
  // One round holds every pool worker and the driver inside a Next() that
  // blocks at a gate (one gated camera per thread; each camera's third
  // call blocks). Removing another camera then runs its windowed MC's tail
  // inference on the pool, under the fleet lock, and must complete before
  // any gate opens: a ParallelFor that waited for a worker would hold the
  // lock that each pull task takes once its Next() returns — a deadlock.
  const std::int64_t kFrames = 6;
  const std::size_t kCams = util::GlobalPool().size() + 1;
  // X's frames fit one turn (cap = 2 * kCams) at any pool size.
  const std::int64_t kFramesX =
      std::min<std::int64_t>(kFrames, static_cast<std::int64_t>(2 * kCams));
  std::vector<std::unique_ptr<video::SyntheticDataset>> ds;
  for (std::size_t c = 0; c < kCams; ++c) {
    ds.push_back(std::make_unique<video::SyntheticDataset>(
        CamSpec(128, kFrames, 171 + c)));
  }
  const video::SyntheticDataset dsx(CamSpec(160, kFramesX, 169));
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.max_batch = static_cast<std::int64_t>(2 * kCams);
  EdgeFleet fleet(fx, cfg);
  std::vector<std::unique_ptr<GatedSource>> gated;
  for (std::size_t c = 0; c < kCams; ++c) {
    gated.push_back(std::make_unique<GatedSource>(*ds[c], /*gate_from=*/2));
    const StreamHandle h = fleet.AddStream(*gated.back());
    fleet.Attach(h, {.mc = MakeMc(fx, ds[c]->spec(), "localized", 860 + c)});
  }
  video::DatasetSource sx(dsx);
  const StreamHandle hx = fleet.AddStream(sx);
  fleet.Attach(hx, {.mc = MakeMc(fx, dsx.spec(), "windowed", 859)});

  // Turn 1 takes every gated camera's frames 0-1, turn 2 all of X, turn 3
  // blocks.
  fleet.StartPipeline();
  for (auto& g : gated) g->WaitForBlockedCaller();
  EXPECT_EQ(fleet.frames_processed(hx), kFramesX);
  std::mutex mu;
  std::condition_variable cv;
  bool removed = false;
  std::thread remover([&] {
    fleet.RemoveStream(hx);
    const std::lock_guard<std::mutex> lk(mu);
    removed = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(30), [&] { return removed; })) {
      // The remover holds the fleet lock and waits on the pool; opening
      // the gates would deadlock the pull tasks on that lock, and nothing
      // can unwind it. End the process rather than hang.
      ADD_FAILURE() << "RemoveStream waited on pool workers held by pulls";
      std::fflush(nullptr);
      std::_Exit(1);
    }
  }
  for (auto& g : gated) g->Open();
  remover.join();
  fleet.WaitPipelineIdle();
  fleet.StopPipeline();
  fleet.Drain();
  EXPECT_FALSE(fleet.HasStream(hx));
  for (std::size_t c = 0; c < kCams; ++c) {
    EXPECT_EQ(fleet.frames_processed(static_cast<StreamHandle>(c)), kFrames);
  }
}

// Stamps every frame of `inner` as captured at time 0, so against a fleet
// clock far past the SLO every admission breaches.
class StaleSource : public video::FrameSource {
 public:
  explicit StaleSource(video::FrameSource& inner) : inner_(inner) {}
  std::optional<video::Frame> Next() override {
    auto f = inner_.Next();
    if (f) f->capture_ts_ns = 0;
    return f;
  }
  void Reset() override { inner_.Reset(); }
  std::int64_t width() const override { return inner_.width(); }
  std::int64_t height() const override { return inner_.height(); }
  std::int64_t fps() const override { return inner_.fps(); }

 private:
  video::FrameSource& inner_;
};

TEST(EdgeFleetPipeline, StreamRemovedWhileRepullingAfterAShedFrame) {
  // A shed frame makes the gather's next round pull its stream again,
  // with the fleet lock down (here the re-pull blocks at a gate). A RemoveStream
  // of that stream waits for the pull, and may take the lock before the
  // driver has it back; the driver must then drop the pulled frame and not
  // touch the erased stream. Which thread wins the lock is a race, so the
  // scenario repeats, with the test thread polling the fleet to contend
  // for the lock; the sanitizer legs catch a use of the erased stream.
  const video::SyntheticDataset ds(CamSpec(128, 6, 171));
  util::FakeClock clock(1'000'000'000'000);
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeFleetConfig cfg;
  cfg.enable_upload = false;
  cfg.clock = &clock;
  cfg.slo_ms = 1;  // every frame breaches: keep every 2nd, shed frame 0
  cfg.shed_breach_frames = 1;
  cfg.max_keep_every = 2;
  for (int rep = 0; rep < 100; ++rep) {
    EdgeFleet fleet(fx, cfg);
    GatedSource gated(ds, /*gate_from=*/1);  // the re-pull after frame 0
    StaleSource src(gated);
    const StreamHandle h = fleet.AddStream(src);
    fleet.StartPipeline();
    gated.WaitForBlockedCaller();
    EXPECT_EQ(fleet.fleet_stats().frames_shed, 1);
    std::thread remover([&] { fleet.RemoveStream(h); });
    gated.Open();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (fleet.HasStream(h) && std::chrono::steady_clock::now() < deadline) {
    }
    remover.join();
    fleet.WaitPipelineIdle();
    fleet.StopPipeline();
    EXPECT_FALSE(fleet.HasStream(h));
    EXPECT_EQ(fleet.fleet_stats().in_flight, 0);
  }
}

TEST(EdgeFleetPipeline, PushDrivenStreamsFlowThroughThePipeline) {
  // A push-driven stream (no FrameSource) fed while the pipeline runs:
  // the driver drains the bounded queue, and the result matches
  // the synchronous schedule bitwise.
  const std::int64_t kFrames = 9;
  const video::SyntheticDataset ds(CamSpec(128, kFrames, 91));

  auto run = [&](bool pipelined) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.max_batch = 3;
    cfg.queue_capacity = 4;
    EdgeFleet fleet(fx, cfg);
    const StreamHandle h = fleet.AddStream(
        StreamConfig{.frame_width = ds.spec().width,
                     .frame_height = ds.spec().height,
                     .fps = ds.spec().fps});
    ResultCollector rc;
    McSpec spec{.mc = MakeMc(fx, ds.spec(), "windowed", 601)};
    rc.Bind(spec);
    fleet.Attach(h, std::move(spec));
    if (pipelined) fleet.StartPipeline();
    for (std::int64_t t = 0; t < kFrames; ++t) {
      if (pipelined) {
        // The pipeline drains the queue concurrently; wait for room
        // instead of stepping.
        WaitUntil([&] { return fleet.queued_frames(h) < 4; });
        fleet.Push(h, ds.RenderFrame(t));
      } else {
        fleet.Push(h, ds.RenderFrame(t));
        if (fleet.queued_frames(h) == 3) fleet.Step();
      }
    }
    if (pipelined) {
      fleet.WaitPipelineIdle();
      fleet.StopPipeline();
    } else {
      while (fleet.Step() > 0) {
      }
    }
    fleet.Drain();
    EXPECT_EQ(fleet.frames_processed(h), kFrames);
    return rc.result();
  };

  ExpectSameResult(run(/*pipelined=*/true), run(/*pipelined=*/false));
}

TEST(EdgeFleetPipeline, QuietBucketFlushesWhileSiblingBucketStaysBusy) {
  // Bucket starvation regression: a partially filled bucket whose streams
  // have gone quiet must be processed MID-RUN, even while a sibling
  // bucket's sources keep the driver busy — its decisions must not be
  // withheld until StopPipeline.
  const std::int64_t kBusyFrames = 36;
  const video::SyntheticDataset busy0(CamSpec(128, kBusyFrames, 86));
  const video::SyntheticDataset busy1(CamSpec(128, kBusyFrames, 87));
  const video::SyntheticDataset quiet(CamSpec(160, 4, 88));
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.enable_upload = false;
  cfg.max_batch = 8;  // the quiet stream alone can never fill a batch
  EdgeFleet fleet(fx, cfg);
  video::DatasetSource b0(busy0), b1(busy1);
  const StreamHandle hb0 = fleet.AddStream(b0);
  const StreamHandle hb1 = fleet.AddStream(b1);
  fleet.Attach(hb0, {.mc = MakeMc(fx, busy0.spec(), "localized", 811)});
  fleet.Attach(hb1, {.mc = MakeMc(fx, busy1.spec(), "localized", 812)});
  // The quiet camera is push-driven in the OTHER geometry bucket.
  const StreamHandle hq = fleet.AddStream(
      StreamConfig{.frame_width = quiet.spec().width,
                   .frame_height = quiet.spec().height,
                   .fps = quiet.spec().fps});
  ResultCollector rq;
  McSpec spec_q{.mc = MakeMc(fx, quiet.spec(), "localized", 813)};
  rq.Bind(spec_q);
  fleet.Attach(hq, std::move(spec_q));

  fleet.StartPipeline();
  fleet.Push(hq, quiet.RenderFrame(0));
  // The single pushed frame must come back while the busy wall still has
  // work — under the starvation bug it only surfaced once every busy
  // source was exhausted (or at StopPipeline).
  WaitUntil([&] { return fleet.frames_processed(hq) == 1; });
  EXPECT_LT(fleet.frames_processed(hb0) + fleet.frames_processed(hb1),
            2 * kBusyFrames)
      << "quiet bucket only flushed after the busy wall drained";
  fleet.WaitPipelineIdle();
  fleet.StopPipeline();
  fleet.Drain();
  EXPECT_EQ(fleet.frames_processed(hq), 1);
  EXPECT_EQ(rq.result().decisions.size(), 1u);
}

TEST(EdgeFleetPipeline, StopRestartAndSynchronousTailStayBitwise) {
  // Stop mid-run (clean drain: staged frames processed, queued frames
  // kept), run a few synchronous Steps, restart the pipeline to the end.
  // The spliced schedule must still match a pure synchronous run.
  const std::int64_t kFrames = 16;
  const video::SyntheticDataset ds0(CamSpec(128, kFrames, 95));
  const video::SyntheticDataset ds1(CamSpec(128, kFrames, 96));

  auto run = [&](bool spliced) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.enable_upload = false;
    cfg.max_batch = 4;
    EdgeFleet fleet(fx, cfg);
    video::DatasetSource s0(ds0), s1(ds1);
    const StreamHandle h0 = fleet.AddStream(s0);
    const StreamHandle h1 = fleet.AddStream(s1);
    ResultCollector c0, c1;
    McSpec spec0{.mc = MakeMc(fx, ds0.spec(), "localized", 701)};
    c0.Bind(spec0);
    fleet.Attach(h0, std::move(spec0));
    McSpec spec1{.mc = MakeMc(fx, ds1.spec(), "windowed", 702)};
    c1.Bind(spec1);
    fleet.Attach(h1, std::move(spec1));
    if (spliced) {
      fleet.StartPipeline();
      WaitUntil([&] { return fleet.frames_processed() >= 8; });
      fleet.StopPipeline();  // drains staged frames, keeps queued ones
      fleet.Step();          // a synchronous interlude...
      fleet.StartPipeline();  // ...then pipelined to the end
      fleet.WaitPipelineIdle();
      fleet.StopPipeline();
      fleet.Drain();
    } else {
      fleet.Run();
    }
    EXPECT_EQ(fleet.frames_processed(h0), kFrames);
    EXPECT_EQ(fleet.frames_processed(h1), kFrames);
    return std::make_pair(c0.result(), c1.result());
  };

  const auto [p0, p1] = run(/*spliced=*/true);
  const auto [s0r, s1r] = run(/*spliced=*/false);
  ExpectSameResult(p0, s0r);
  ExpectSameResult(p1, s1r);
}

// A FrameSource that advertises one geometry but yields another — the
// pipelined analogue of edge_fleet_test's mid-gather validation: the
// driver must fail loudly and the error must surface at StopPipeline, not
// vanish on a background thread.
class LyingSource : public video::FrameSource {
 public:
  explicit LyingSource(const video::DatasetSpec& claimed)
      : claimed_(claimed) {}
  std::optional<video::Frame> Next() override { return video::Frame(8, 8); }
  void Reset() override {}
  std::int64_t width() const override { return claimed_.width; }
  std::int64_t height() const override { return claimed_.height; }
  std::int64_t fps() const override { return claimed_.fps; }

 private:
  video::DatasetSpec claimed_;
};

TEST(EdgeFleetPipeline, GatherErrorSurfacesAtStop) {
  const video::SyntheticDataset ds(CamSpec(128, 4, 97));
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.enable_upload = false;
  EdgeFleet fleet(fx, cfg);
  LyingSource liar(ds.spec());
  const StreamHandle h = fleet.AddStream(liar);
  fleet.Attach(h, {.mc = MakeMc(fx, ds.spec(), "localized", 801)});
  fleet.StartPipeline();
  fleet.WaitPipelineIdle();  // returns when the driver fails, too
  EXPECT_THROW(fleet.StopPipeline(), util::CheckError);
  EXPECT_FALSE(fleet.pipeline_active());
  // The fleet survives the failed pipeline: the liar can be removed and
  // the synchronous schedule still runs.
  fleet.RemoveStream(h);
  EXPECT_EQ(fleet.Step(), 0);
  fleet.Drain();
}

TEST(EdgeFleetPipeline, DeadCameraSurfacesAtStopAndSiblingStaysBitwise) {
  // A camera dies (FrameSource::Next() throws) inside the driver's gather
  // mid-run. The error must surface at StopPipeline — not vanish on the
  // background thread and not wedge WaitPipelineIdle — and the SIBLING
  // stream must come through bitwise-identical to a run that never shared
  // the box with the dead camera: an aborting pipeline restages gathered
  // frames instead of dropping them.
  const std::int64_t kFrames = 14;
  const video::SyntheticDataset ds_dead(CamSpec(128, kFrames, 131));
  const video::SyntheticDataset ds_ok(CamSpec(128, kFrames, 132));

  auto run_sibling_solo = [&] {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.enable_upload = false;
    cfg.max_batch = 4;
    EdgeFleet fleet(fx, cfg);
    video::DatasetSource src(ds_ok);
    const StreamHandle h = fleet.AddStream(src);
    ResultCollector rc;
    McSpec spec{.mc = MakeMc(fx, ds_ok.spec(), "localized", 821)};
    rc.Bind(spec);
    fleet.Attach(h, std::move(spec));
    fleet.Run();
    return rc.result();
  };

  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.enable_upload = false;
  cfg.max_batch = 4;
  EdgeFleet fleet(fx, cfg);
  video::DatasetSource raw_dead(ds_dead), src_ok(ds_ok);
  video::StallingSource dead(raw_dead, {.throw_at = 3});
  const StreamHandle hd = fleet.AddStream(dead);
  const StreamHandle ho = fleet.AddStream(src_ok);
  fleet.Attach(hd, {.mc = MakeMc(fx, ds_dead.spec(), "localized", 822)});
  ResultCollector rc;
  McSpec spec{.mc = MakeMc(fx, ds_ok.spec(), "localized", 821)};
  rc.Bind(spec);
  fleet.Attach(ho, std::move(spec));

  fleet.StartPipeline();
  fleet.WaitPipelineIdle();  // must return when the driver fails, not wedge
  EXPECT_THROW(fleet.StopPipeline(), std::runtime_error);
  EXPECT_FALSE(fleet.pipeline_active());
  EXPECT_GE(dead.throws(), 1);
  EXPECT_EQ(dead.frames_delivered(), 3);

  // The dead camera stays dead (its source keeps throwing); remove it and
  // finish the survivor synchronously. Nothing of the sibling's stream was
  // lost to the abort, so its whole history matches the solo run bitwise.
  fleet.RemoveStream(hd);
  while (fleet.Step() > 0) {
  }
  fleet.Drain();
  EXPECT_EQ(fleet.frames_processed(ho), kFrames);
  ExpectSameResult(rc.result(), run_sibling_solo());
}

TEST(EdgeFleetPipeline, StallingSourceStopsBoundedAndStaysBitwise) {
  // A camera that STALLS (slow Next(), never fails) must not wedge
  // StopPipeline — stop waits out at most the in-flight call — and the
  // spliced pipelined/synchronous schedule still matches a pure
  // synchronous run bitwise for both streams.
  const std::int64_t kFrames = 8;
  const video::SyntheticDataset ds_slow(CamSpec(128, kFrames, 141));
  const video::SyntheticDataset ds_fast(CamSpec(128, kFrames, 142));

  auto run = [&](bool pipelined) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = FleetConfig();
    cfg.enable_upload = false;
    cfg.max_batch = 4;
    EdgeFleet fleet(fx, cfg);
    video::DatasetSource raw_slow(ds_slow), src_fast(ds_fast);
    video::StallingSource slow(raw_slow, {.stall_ms = 5, .stall_from = 2});
    const StreamHandle hs = fleet.AddStream(slow);
    const StreamHandle hf = fleet.AddStream(src_fast);
    ResultCollector cs, cf;
    McSpec spec_s{.mc = MakeMc(fx, ds_slow.spec(), "windowed", 831)};
    cs.Bind(spec_s);
    fleet.Attach(hs, std::move(spec_s));
    McSpec spec_f{.mc = MakeMc(fx, ds_fast.spec(), "localized", 832)};
    cf.Bind(spec_f);
    fleet.Attach(hf, std::move(spec_f));
    if (pipelined) {
      fleet.StartPipeline();
      // Stop mid-stall: StopPipeline may wait for the one in-flight
      // Next(), never for the whole stream.
      WaitUntil([&] { return fleet.frames_processed() >= 4; });
      fleet.StopPipeline();
      EXPECT_FALSE(fleet.pipeline_active());
      fleet.StartPipeline();  // restart finishes the tail
      fleet.WaitPipelineIdle();
      fleet.StopPipeline();
    } else {
      while (fleet.Step() > 0) {
      }
    }
    fleet.Drain();
    EXPECT_EQ(fleet.frames_processed(hs), kFrames);
    EXPECT_EQ(fleet.frames_processed(hf), kFrames);
    return std::make_pair(cs.result(), cf.result());
  };

  const auto [ps, pf] = run(/*pipelined=*/true);
  const auto [ss, sf] = run(/*pipelined=*/false);
  ExpectSameResult(ps, ss);
  ExpectSameResult(pf, sf);
}

TEST(EdgeFleetPipeline, PipelineGuardsAndLifecycleChecks) {
  const video::SyntheticDataset ds(CamSpec(128, 4, 98));
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.enable_upload = false;
  EdgeFleet fleet(fx, cfg);
  video::DatasetSource src(ds);
  const StreamHandle h = fleet.AddStream(src);
  fleet.Attach(h, {.mc = MakeMc(fx, ds.spec(), "localized", 802)});
  EXPECT_THROW(fleet.StopPipeline(), util::CheckError);  // nothing running
  fleet.StartPipeline();
  EXPECT_TRUE(fleet.pipeline_active());
  EXPECT_THROW(fleet.StartPipeline(), util::CheckError);  // already running
  EXPECT_THROW(fleet.Step(), util::CheckError);   // synchronous schedule...
  EXPECT_THROW(fleet.Drain(), util::CheckError);  // ...and drain are gated
  fleet.WaitPipelineIdle();
  fleet.StopPipeline();
  fleet.Drain();
  EXPECT_EQ(fleet.frames_processed(h), ds.n_frames());
  EXPECT_THROW(fleet.StartPipeline(), util::CheckError);  // drained fleet
}

}  // namespace
}  // namespace ff::core
