// Pins the fleet's adaptive overload controller (graceful degradation):
//
//  (a) DETERMINISM — with a pinned util::FakeClock and scripted bursty
//      arrival timestamps, the shed/keep schedule is a pure function of the
//      inputs: two synchronous runs are identical, and the pipelined
//      schedule produces the SAME per-stream admissions and BITWISE the
//      same decision streams as Step() (single bucket, equal priorities —
//      the per-bucket determinism contract in edge_fleet.hpp);
//  (b) PRIORITY — under ~1.75x to ~6.25x sustained offered load,
//      low-priority streams decimate (keep-every-k escalates, frames shed)
//      while the high-priority stream loses ZERO frames, every queue stays
//      bounded, and the fleet's ingest→decision p95 respects the SLO; a
//      real-clock pipelined soak at 2x load keeps queues bounded, drains
//      every staged frame at stop, and sheds strictly low-first;
//  (c) DISABLED == OFF — with the controller disabled (the default), the
//      admission seam changes nothing: bitwise-identical results to a
//      config that never heard of overload control, zero shed counters.
//
// Plus: the controller eases back (keep_every returns to 1) after overload
// subsides; the first kept frame after a shed gap is archived as a forced
// keyframe; and fleet_stats()/bucket_stats() are safe to hammer from
// another thread while the pipeline runs (this suite is in the CI TSan leg).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/edge_fleet.hpp"
#include "util/clock.hpp"
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

void ExpectSameResult(const McResult& a, const McResult& b) {
  EXPECT_EQ(a.first_frame, b.first_frame) << a.name;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << a.name;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
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

StreamStats StatsFor(const EdgeFleet& fleet, StreamHandle h) {
  const FleetStats fs = fleet.fleet_stats();
  for (const auto& s : fs.streams) {
    if (s.handle == h) return s;
  }
  ADD_FAILURE() << "no StreamStats for stream " << h;
  return {};
}

// One priority-1 and three priority-0 push-driven streams of `spec`'s
// geometry, each with one localized tenant (seeds seed, seed+1, ...).
// Returns the high stream and the low ones.
std::pair<StreamHandle, std::vector<StreamHandle>> AddPriorityWall(
    EdgeFleet& fleet, const dnn::FeatureExtractor& fx,
    const video::DatasetSpec& spec, std::uint64_t seed) {
  const StreamConfig geom{
      .frame_width = spec.width, .frame_height = spec.height, .fps = spec.fps};
  StreamConfig high_cfg = geom;
  high_cfg.priority = 1;
  const StreamHandle high = fleet.AddStream(high_cfg);
  fleet.Attach(high, {.mc = MakeMc(fx, spec, "localized", seed)});
  std::vector<StreamHandle> lows;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    lows.push_back(fleet.AddStream(geom));
    fleet.Attach(lows.back(), {.mc = MakeMc(fx, spec, "localized", seed + i)});
  }
  return {high, lows};
}

// ---------------------------------------------------------------------------
// (a) Determinism: pinned clock + scripted arrivals => pure-function policy.

TEST(EdgeFleetOverload, FakeClockShedScheduleDeterministicAcrossSchedules) {
  // Two same-geometry cameras (ONE bucket — the determinism contract is
  // per-bucket) offer 2x-rate bursty arrivals whose timestamps span ~1.3s.
  // The clock is FROZEN at 700ms, so exactly the early arrivals (age >
  // 500ms) breach the SLO: the breach/recovery script — and with it every
  // shed decision — is a pure function of the scripted timestamps.
  const std::int64_t kFrames = 40;
  const video::SyntheticDataset ds0(CamSpec(128, kFrames, 171));
  const video::SyntheticDataset ds1(CamSpec(128, kFrames, 172));

  struct RunOut {
    McResult r0, r1;
    StreamStats s0, s1;
  };
  auto run = [&](bool pipelined) {
    util::FakeClock clock(700 * 1'000'000);  // frozen for the whole run
    dnn::FeatureExtractor fx({.include_classifier = false});
    EdgeFleetConfig cfg;
    cfg.enable_upload = false;
    cfg.max_batch = 3;
    cfg.clock = &clock;
    cfg.slo_ms = 500;
    cfg.shed_breach_frames = 2;
    cfg.shed_recover_frames = 4;
    cfg.max_keep_every = 4;
    EdgeFleet fleet(fx, cfg);
    video::DatasetSource raw0(ds0), raw1(ds1);
    video::BurstySource b0(raw0, {.rate_multiplier = 2.0,
                                  .burst_len = 5,
                                  .burst_compression = 4.0,
                                  .jitter = 0.25,
                                  .seed = 21});
    video::BurstySource b1(raw1, {.rate_multiplier = 2.0,
                                  .burst_len = 5,
                                  .burst_compression = 4.0,
                                  .jitter = 0.25,
                                  .seed = 22});
    const StreamHandle h0 = fleet.AddStream(b0);
    const StreamHandle h1 = fleet.AddStream(b1);
    ResultCollector c0, c1;
    McSpec spec0{.mc = MakeMc(fx, ds0.spec(), "windowed", 901)};
    c0.Bind(spec0);
    fleet.Attach(h0, std::move(spec0));
    McSpec spec1{.mc = MakeMc(fx, ds1.spec(), "localized", 902)};
    c1.Bind(spec1);
    fleet.Attach(h1, std::move(spec1));
    if (pipelined) {
      fleet.RunPipelined();
    } else {
      fleet.Run();
    }
    RunOut out;
    out.r0 = c0.result();
    out.r1 = c1.result();
    out.s0 = StatsFor(fleet, h0);
    out.s1 = StatsFor(fleet, h1);
    return out;
  };

  const RunOut sync1 = run(/*pipelined=*/false);
  const RunOut sync2 = run(/*pipelined=*/false);
  const RunOut piped = run(/*pipelined=*/true);

  // The schedule actually shed something (the early stale arrivals), and
  // every offered frame was either processed or shed — nothing vanished.
  EXPECT_GT(sync1.s0.frames_shed, 0);
  EXPECT_GT(sync1.s1.frames_shed, 0);
  for (const StreamStats* s : {&sync1.s0, &sync1.s1}) {
    EXPECT_EQ(s->frames_offered, kFrames);
    EXPECT_EQ(s->frames_admitted, kFrames - s->frames_shed);
    EXPECT_EQ(s->frames_processed, s->frames_admitted);
  }

  auto expect_same_stats = [](const StreamStats& a, const StreamStats& b) {
    EXPECT_EQ(a.frames_offered, b.frames_offered);
    EXPECT_EQ(a.frames_admitted, b.frames_admitted);
    EXPECT_EQ(a.frames_processed, b.frames_processed);
    EXPECT_EQ(a.frames_shed, b.frames_shed);
    EXPECT_EQ(a.keep_every, b.keep_every);
  };
  // Determinism: two synchronous runs are identical.
  ExpectSameResult(sync2.r0, sync1.r0);
  ExpectSameResult(sync2.r1, sync1.r1);
  expect_same_stats(sync2.s0, sync1.s0);
  expect_same_stats(sync2.s1, sync1.s1);
  // And the pipelined schedule admits the SAME frames and produces BITWISE
  // the same decision streams as Step().
  ExpectSameResult(piped.r0, sync1.r0);
  ExpectSameResult(piped.r1, sync1.r1);
  expect_same_stats(piped.s0, sync1.s0);
  expect_same_stats(piped.s1, sync1.s1);
}

// ---------------------------------------------------------------------------
// (b) Priority: under 1x-4x load the high tier never loses a frame.

TEST(EdgeFleetOverload, HighPriorityLosesNothingUnderSustainedOverload) {
  // One high-priority camera plus three low-priority cameras against a box
  // that processes Step(2) per round. Each low camera offers `load` frames
  // per round, so the fleet is offered ~1.75x (load 1) to ~6.25x (load 4)
  // what it processes. The low tier escalates to keep-every-k and sheds.
  // The high camera offers its fair share (half a frame per round) in
  // bursts of five, deep enough to breach its own queue trigger: only the
  // priority gate (CanEscalate: the lows are not fully decimated) keeps it
  // from shedding.
  const std::int64_t kRounds = 40;
  const std::int64_t kBurst = 5;
  const video::SyntheticDataset ds(CamSpec(128, 2, 181));  // frame template
  const video::Frame frame = ds.RenderFrame(0);

  for (const std::int64_t load : {1, 2, 4}) {
    SCOPED_TRACE("load " + std::to_string(load) + "x");
    util::FakeClock clock(0);
    dnn::FeatureExtractor fx({.include_classifier = false});
    EdgeFleetConfig cfg;
    cfg.enable_upload = false;
    cfg.clock = &clock;
    cfg.slo_ms = 500;
    cfg.shed_queue_depth = 3;
    cfg.shed_breach_frames = 2;
    cfg.shed_recover_frames = 1000;  // no easing inside this run
    cfg.max_keep_every = 32;  // the lows settle below it at every load
    cfg.queue_capacity = 16;
    EdgeFleet fleet(fx, cfg);
    const auto [high, lows] = AddPriorityWall(fleet, fx, ds.spec(), 911);

    for (std::int64_t r = 0; r < kRounds; ++r) {
      if (r % (2 * kBurst) == 0) {
        for (std::int64_t b = 0; b < kBurst; ++b) fleet.Push(high, frame);
      }
      for (const StreamHandle l : lows) {
        for (std::int64_t k = 0; k < load; ++k) fleet.Push(l, frame);
      }
      fleet.Step(2);
      clock.AdvanceMs(25);
    }
    while (fleet.Step() > 0) {
    }

    const StreamStats hs = StatsFor(fleet, high);
    EXPECT_EQ(hs.frames_offered, kRounds / 2);
    EXPECT_EQ(hs.frames_shed, 0) << "high priority must never shed here";
    EXPECT_EQ(hs.keep_every, 1);
    EXPECT_EQ(hs.frames_processed, kRounds / 2);
    EXPECT_GE(hs.queue_peak, cfg.shed_queue_depth + 1)
        << "the bursts must breach the high stream's own trigger";
    for (const StreamHandle l : lows) {
      const StreamStats ls = StatsFor(fleet, l);
      EXPECT_EQ(ls.frames_offered, load * kRounds);
      EXPECT_GT(ls.frames_shed, 0) << "low tier must decimate";
      EXPECT_GT(ls.keep_every, 1);  // recover window is longer than the run
      EXPECT_LT(ls.keep_every, cfg.max_keep_every);
      EXPECT_EQ(ls.frames_processed, ls.frames_admitted);
      EXPECT_LE(ls.queue_peak, 8) << "queues must stay bounded";
    }
    const FleetStats fs = fleet.fleet_stats();
    EXPECT_EQ(fs.frames_offered, kRounds / 2 + 3 * load * kRounds);
    EXPECT_EQ(fs.frames_admitted, fs.frames_offered - fs.frames_shed);
    EXPECT_EQ(fs.frames_processed, fs.frames_admitted);
    EXPECT_GT(fs.latency_samples, 0);
    EXPECT_LE(fs.latency_p95_ms, cfg.slo_ms)
        << "shedding exists to keep ingest→decision latency inside the SLO";
    fleet.Drain();
  }
}

// The same gates on the threaded pipeline under the real clock: Push-driven
// streams, each low camera offering twice the high camera's average rate
// while the driver thread races the pushes. Thread timing decides how much
// sheds and when, so every check below holds at any timing — a slow Debug
// or sanitized box sheds more, never differently.

TEST(EdgeFleetOverload, PipelinedSoakAtTwiceLoadKeepsEveryGate) {
  const std::int64_t kRounds = 120;
  const std::int64_t kBurst = 8;
  const video::SyntheticDataset ds(CamSpec(128, 2, 186));
  const video::Frame frame = ds.RenderFrame(0);
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeFleetConfig cfg;
  cfg.enable_upload = false;
  cfg.max_batch = 4;
  cfg.queue_capacity = 16;
  cfg.shed_queue_depth = 4;
  cfg.shed_breach_frames = 2;
  // Longer than the run: no stream ever eases back, so keep_every only
  // rises and the low-first check below holds in every snapshot.
  cfg.shed_recover_frames = 1'000'000;
  cfg.max_keep_every = 8;
  EdgeFleet fleet(fx, cfg);
  const auto [high, lows] = AddPriorityWall(fleet, fx, ds.spec(), 971);
  auto push = [&](StreamHandle h) {
    // Only this thread pushes, so a queue below the bound stays below it
    // until the Push. Skipping at the bound keeps a box too slow to drain
    // the high stream (which only sheds once the lows are exhausted) from
    // tripping the queue-full check.
    if (static_cast<std::int64_t>(fleet.queued_frames(h)) + 1 >=
        cfg.queue_capacity) {
      return;
    }
    fleet.Push(h, frame);
  };
  // Shed strictly low-first: in any snapshot, a high stream that has
  // escalated at all implies every low stream sits at the ceiling.
  auto expect_low_first = [&](const FleetStats& fs) {
    std::int64_t high_keep = 1;
    for (const auto& s : fs.streams) {
      if (s.handle == high) high_keep = s.keep_every;
    }
    if (high_keep == 1) return;
    for (const auto& s : fs.streams) {
      if (s.handle == high) continue;
      EXPECT_EQ(s.keep_every, cfg.max_keep_every)
          << "high stream escalated to keep-every-" << high_keep
          << " while low stream " << s.handle << " kept every "
          << s.keep_every;
    }
  };

  fleet.StartPipeline();
  for (std::int64_t r = 0; r < kRounds; ++r) {
    // The high stream offers one frame per round on average, in bursts
    // deep enough to breach its own queue trigger.
    if (r % kBurst == 0) {
      for (std::int64_t b = 0; b < kBurst; ++b) push(high);
    }
    for (const StreamHandle l : lows) {
      push(l);
      push(l);
    }
    expect_low_first(fleet.fleet_stats());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  fleet.StopPipeline();
  // Drain-on-stop: every frame the pipeline staged has been processed.
  EXPECT_EQ(fleet.fleet_stats().in_flight, 0);
  // Frames still queued at stop wait for the synchronous schedule.
  while (fleet.Step() > 0) {
  }
  fleet.Drain();

  const FleetStats fs = fleet.fleet_stats();
  EXPECT_GT(fs.frames_shed, 0) << "the soak must overload the box";
  expect_low_first(fs);
  for (const auto& s : fs.streams) {
    EXPECT_LE(s.queue_peak, cfg.queue_capacity) << "stream " << s.handle;
    EXPECT_EQ(s.frames_processed, s.frames_admitted) << "stream " << s.handle;
  }
}

// ---------------------------------------------------------------------------
// (c) Disabled == off: the admission seam adds nothing.

TEST(EdgeFleetOverload, DisabledControllerIsBitwiseInvisible) {
  // Same fleet, same cameras; one run with a config that never heard of
  // overload control, one with a clock injected and the controller armed
  // but... disabled (both triggers 0). Bitwise-identical everything, zero
  // shed counters — PR-over-PR parity for every caller that does not opt
  // in.
  const std::int64_t kFrames = 12;
  const video::SyntheticDataset ds0(CamSpec(128, kFrames, 191));
  const video::SyntheticDataset ds1(CamSpec(160, kFrames, 192));

  auto run = [&](bool inject_clock, bool pipelined) {
    util::FakeClock clock(123);
    dnn::FeatureExtractor fx({.include_classifier = false});
    EdgeFleetConfig cfg;
    cfg.upload_bitrate_bps = 60'000;
    cfg.max_batch = 3;
    if (inject_clock) {
      cfg.clock = &clock;
      // Triggers stay 0: the controller must remain fully disabled.
    }
    EdgeFleet fleet(fx, cfg);
    video::DatasetSource s0(ds0), s1(ds1);
    const StreamHandle h0 = fleet.AddStream(s0);
    const StreamHandle h1 = fleet.AddStream(s1);
    ResultCollector c0, c1;
    McSpec spec0{.mc = MakeMc(fx, ds0.spec(), "windowed", 921)};
    c0.Bind(spec0);
    fleet.Attach(h0, std::move(spec0));
    McSpec spec1{.mc = MakeMc(fx, ds1.spec(), "full_frame", 922)};
    c1.Bind(spec1);
    fleet.Attach(h1, std::move(spec1));
    if (pipelined) {
      fleet.RunPipelined();
    } else {
      fleet.Run();
    }
    const FleetStats fs = fleet.fleet_stats();
    EXPECT_EQ(fs.frames_shed, 0);
    EXPECT_EQ(fs.frames_offered, fs.frames_processed);
    for (const auto& s : fs.streams) EXPECT_EQ(s.keep_every, 1);
    return std::make_tuple(c0.result(), c1.result(), fleet.upload_bytes());
  };

  const auto [base0, base1, base_bytes] = run(false, /*pipelined=*/false);
  const auto [clk0, clk1, clk_bytes] = run(true, /*pipelined=*/false);
  const auto [pip0, pip1, pip_bytes] = run(true, /*pipelined=*/true);
  ExpectSameResult(clk0, base0);
  ExpectSameResult(clk1, base1);
  EXPECT_EQ(clk_bytes, base_bytes);
  ExpectSameResult(pip0, base0);
  ExpectSameResult(pip1, base1);
  EXPECT_EQ(pip_bytes, base_bytes);
}

// ---------------------------------------------------------------------------
// The controller eases back once the overload subsides.

TEST(EdgeFleetOverload, CadenceEasesBackToKeepAllAfterOverloadSubsides) {
  const video::SyntheticDataset ds(CamSpec(128, 2, 201));
  util::FakeClock clock(0);
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeFleetConfig cfg;
  cfg.enable_upload = false;
  cfg.clock = &clock;
  cfg.shed_queue_depth = 2;
  cfg.shed_breach_frames = 1;  // escalate on every breaching admission
  cfg.shed_recover_frames = 3;
  cfg.max_keep_every = 4;
  EdgeFleet fleet(fx, cfg);
  const StreamHandle h = fleet.AddStream(
      StreamConfig{.frame_width = ds.spec().width,
                   .frame_height = ds.spec().height,
                   .fps = ds.spec().fps});
  fleet.Attach(h, {.mc = MakeMc(fx, ds.spec(), "localized", 931)});
  const video::Frame frame = ds.RenderFrame(0);

  // Overload: pile 10 frames onto the queue with nothing draining it. Every
  // admission past depth 2 breaches, so the cadence pegs at the ceiling.
  for (int i = 0; i < 10; ++i) fleet.Push(h, frame);
  EXPECT_EQ(StatsFor(fleet, h).keep_every, cfg.max_keep_every);
  EXPECT_GT(StatsFor(fleet, h).frames_shed, 0);

  // Load vanishes: drain, then offer one frame per step. Three healthy
  // admissions per notch ease the cadence back to keep-all, after which
  // every offered frame is admitted again.
  while (fleet.Step() > 0) {
  }
  std::int64_t shed_at_recovery = -1;
  for (int i = 0; i < 18; ++i) {
    fleet.Push(h, frame);
    fleet.Step(2);
    clock.AdvanceMs(10);
    if (i == 12) shed_at_recovery = StatsFor(fleet, h).frames_shed;
  }
  const StreamStats end = StatsFor(fleet, h);
  EXPECT_EQ(end.keep_every, 1) << "cadence must ease back to keep-all";
  EXPECT_EQ(end.frames_shed, shed_at_recovery)
      << "no shedding once the cadence is back at 1";
  EXPECT_EQ(end.frames_processed, end.frames_admitted);
  EXPECT_EQ(end.queue_depth, 0);
  fleet.Drain();
}

// ---------------------------------------------------------------------------
// Drop-to-keyframe: archived runs stay decodable across shed gaps.

TEST(EdgeFleetOverload, FirstKeptFrameAfterShedGapIsForcedKeyframe) {
  const video::SyntheticDataset ds(CamSpec(128, 24, 211));
  const video::Frame frame = ds.RenderFrame(0);
  const StreamConfig geom{.frame_width = ds.spec().width,
                          .frame_height = ds.spec().height,
                          .fps = ds.spec().fps};

  auto run = [&](bool overload) {
    util::FakeClock clock(0);
    dnn::FeatureExtractor fx({.include_classifier = false});
    EdgeFleetConfig cfg;
    cfg.enable_upload = false;
    cfg.clock = &clock;
    cfg.edge_store_capacity = 128;
    cfg.archive_gop = 8;  // without shedding, most frames are P-frames
    if (overload) {
      cfg.shed_queue_depth = 1;
      cfg.shed_breach_frames = 1;
      cfg.shed_recover_frames = 1000;
      cfg.max_keep_every = 2;  // steady alternation: shed, keep, shed, ...
    }
    EdgeFleet fleet(fx, cfg);
    const StreamHandle h = fleet.AddStream(geom);
    fleet.Attach(h, {.mc = MakeMc(fx, ds.spec(), "localized", 941)});
    // Keep one frame permanently queued so (with the controller armed)
    // every later admission sees depth >= 1 and breaches.
    fleet.Push(h, frame);
    fleet.Push(h, frame);
    for (int r = 0; r < 16; ++r) {
      fleet.Push(h, frame);
      fleet.Step(1);
      clock.AdvanceMs(10);
    }
    while (fleet.Step() > 0) {
    }
    const StreamStats st = StatsFor(fleet, h);
    EdgeStore* store = fleet.edge_store(h);
    EXPECT_NE(store, nullptr);
    std::vector<bool> keyframes;
    for (std::int64_t i = store->first_available(); i < store->end_available();
         ++i) {
      keyframes.push_back(store->KeyframeAt(i).value());
    }
    EXPECT_EQ(static_cast<std::int64_t>(keyframes.size()),
              st.frames_processed);
    return std::make_pair(st, keyframes);
  };

  const auto [shed_stats, shed_keys] = run(/*overload=*/true);
  const auto [full_stats, full_keys] = run(/*overload=*/false);

  // Control: with nothing shed, the gop-8 cadence leaves P-frames.
  EXPECT_EQ(full_stats.frames_shed, 0);
  ASSERT_GT(full_keys.size(), 2u);
  EXPECT_TRUE(full_keys[0]);
  EXPECT_FALSE(full_keys[1]);

  // Under keep-every-2 alternation every kept frame follows a shed gap, so
  // EVERY archived frame must be an I-frame despite the gop-8 cadence —
  // the archive never predicts across frames it did not see.
  EXPECT_GT(shed_stats.frames_shed, 0);
  ASSERT_GT(shed_keys.size(), 1u);
  for (std::size_t i = 0; i < shed_keys.size(); ++i) {
    EXPECT_TRUE(shed_keys[i]) << "archived frame " << i
                              << " after a shed gap is not a keyframe";
  }
}

// ---------------------------------------------------------------------------
// Stats under concurrency: hammered from outside while the pipeline runs.
// (This suite runs under the CI ThreadSanitizer leg; the assertions below
// are consistency invariants of the under-one-lock snapshot.)

TEST(EdgeFleetOverload, StatsSnapshotsStayConsistentWhilePipelineRuns) {
  const std::int64_t kFrames = 48;
  const video::SyntheticDataset ds0(CamSpec(128, kFrames, 221));
  const video::SyntheticDataset ds1(CamSpec(128, kFrames, 222));
  util::FakeClock clock(0);
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeFleetConfig cfg;
  cfg.enable_upload = false;
  cfg.max_batch = 4;
  cfg.clock = &clock;
  cfg.slo_ms = 50;
  cfg.shed_breach_frames = 2;
  cfg.max_keep_every = 4;
  EdgeFleet fleet(fx, cfg);
  video::DatasetSource raw0(ds0), raw1(ds1);
  video::BurstySource b0(raw0, {.rate_multiplier = 3.0, .seed = 31});
  video::BurstySource b1(raw1, {.rate_multiplier = 3.0, .seed = 32});
  const StreamHandle h0 = fleet.AddStream(b0);
  const StreamHandle h1 = fleet.AddStream(b1);
  fleet.Attach(h0, {.mc = MakeMc(fx, ds0.spec(), "localized", 951)});
  fleet.Attach(h1, {.mc = MakeMc(fx, ds1.spec(), "windowed", 952)});

  fleet.StartPipeline();
  // Advance the clock and read stats concurrently with the driver: every
  // snapshot must be internally consistent (never torn) even while
  // admissions and batch completions land on other threads.
  for (int i = 0; i < 200 && fleet.frames_processed() < 2 * kFrames / 2;
       ++i) {
    clock.AdvanceMs(7);
    const FleetStats fs = fleet.fleet_stats();
    EXPECT_EQ(fs.frames_admitted, fs.frames_offered - fs.frames_shed);
    EXPECT_GE(fs.frames_admitted, fs.frames_processed);
    EXPECT_GE(fs.in_flight, 0);
    std::int64_t offered = 0;
    for (const auto& s : fs.streams) {
      EXPECT_EQ(s.frames_admitted, s.frames_offered - s.frames_shed);
      EXPECT_GE(s.frames_admitted, s.frames_processed);
      EXPECT_GE(s.queue_peak, s.queue_depth);
      offered += s.frames_offered;
    }
    EXPECT_EQ(offered, fs.frames_offered);
    for (const auto& b : fleet.bucket_stats()) {
      EXPECT_GE(b.queued, 0);
      EXPECT_GE(b.shed, 0);
    }
  }
  fleet.WaitPipelineIdle();
  fleet.StopPipeline();
  fleet.Drain();
  const FleetStats fs = fleet.fleet_stats();
  EXPECT_EQ(fs.frames_offered, 2 * kFrames);
  EXPECT_EQ(fs.frames_processed, fs.frames_admitted);
  EXPECT_EQ(fs.in_flight, 0);
}

// ---------------------------------------------------------------------------
// Latency accounting reads the injected clock, exactly.

TEST(EdgeFleetOverload, LatencyAccountingIsExactUnderFakeClock) {
  const video::SyntheticDataset ds(CamSpec(128, 2, 231));
  util::FakeClock clock(0);
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeFleetConfig cfg;
  cfg.enable_upload = false;
  cfg.clock = &clock;  // controller stays disabled: pure accounting
  EdgeFleet fleet(fx, cfg);
  const StreamHandle h = fleet.AddStream(
      StreamConfig{.frame_width = ds.spec().width,
                   .frame_height = ds.spec().height,
                   .fps = ds.spec().fps});
  fleet.Attach(h, {.mc = MakeMc(fx, ds.spec(), "localized", 961)});

  // Queued 250ms before its batch runs: ingest→decision = 250ms, and while
  // it waits the stream reports its age as the oldest staged frame.
  fleet.Push(h, ds.RenderFrame(0));
  clock.AdvanceMs(250);
  EXPECT_DOUBLE_EQ(StatsFor(fleet, h).oldest_staged_ms, 250.0);
  fleet.Step();
  StreamStats st = StatsFor(fleet, h);
  EXPECT_EQ(st.latency_samples, 1);
  EXPECT_DOUBLE_EQ(st.latency_p50_ms, 250.0);
  EXPECT_DOUBLE_EQ(st.latency_max_ms, 250.0);

  // A frame whose source stamped an older capture timestamp: age counts
  // from capture, not from Push.
  video::Frame f = ds.RenderFrame(1);
  f.capture_ts_ns = clock.NowNs() - 100 * 1'000'000;
  fleet.Push(h, std::move(f));
  clock.AdvanceMs(50);
  fleet.Step();
  st = StatsFor(fleet, h);
  EXPECT_EQ(st.latency_samples, 2);
  EXPECT_DOUBLE_EQ(st.latency_max_ms, 250.0);
  EXPECT_DOUBLE_EQ(st.latency_p50_ms, 200.0);  // midpoint of {150, 250}
  const FleetStats fs = fleet.fleet_stats();
  EXPECT_DOUBLE_EQ(fs.latency_p50_ms, 200.0);
  EXPECT_EQ(fs.latency_samples, 2);
  fleet.Drain();
}

}  // namespace
}  // namespace ff::core
