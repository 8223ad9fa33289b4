// Fleet-level tests of the cross-camera correlation plane (src/xcam wired
// through core::EdgeFleet::SetTopology):
//
//  (a) DEDUPE — a 2-, 4- or 8-camera wall pointed at ONE scripted scene
//      fuses every event into one cross-camera group and suppresses the
//      non-canonical clips, cutting uplink clip bytes by the member count
//      (>= 2x is the acceptance floor at every wall size) with ZERO
//      canonical-clip loss (the canonical stream's upload byte stream is
//      bitwise-identical to a fleet with no topology);
//  (b) ISOLATION — streams outside the topology, and every stream of a
//      fleet with no topology at all, keep decision/upload byte streams
//      bitwise-identical to a topology-free fleet;
//  (c) DETERMINISM — with a util::FakeClock and scripted capture
//      timestamps, the pipelined schedule produces bitwise-identical
//      decisions, uploads, suppression counts, and CrossEventRecords to the
//      synchronous Step() schedule;
//  (d) CONTROLS — declared-overlapping cameras whose capture timelines
//      never intersect fuse nothing and lose nothing (the deferred-upload
//      path is lossless), and StreamConfig::priority wins canonical
//      election over handle order;
//  (e) LEAD — each topology component's lead stream ships an event's clip
//      before the correlator's verdict on it, and re-election under churn
//      (the lead removed, a higher-priority stream added, both mid-event)
//      keeps every event shipped in full by some stream, with every
//      stream's uploads in frame order, under both schedules.
//
// Ground truth comes from video::OverlapScript: an OracleMc subclass
// returns the script's exact activity bit per frame, and vote_window =
// vote_k = 1 makes decisions equal the oracle, so events exactly bracket
// the scripted objects and every assertion is exact, not statistical.
//
// This suite runs under the CI ThreadSanitizer leg.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/datacenter.hpp"
#include "core/edge_fleet.hpp"
#include "util/clock.hpp"
#include "video/overlap_source.hpp"
#include "xcam/correlator.hpp"
#include "xcam/topology.hpp"

namespace ff::core {
namespace {

constexpr const char* kTap = "conv3_2/sep";
constexpr std::int64_t kMs = 1'000'000;

// Returns the script's exact ground truth for its stream: 1.0 when any
// scripted object is visible in the frame the fleet is scoring, else 0.0.
// Frames of one (stream, tenant) pair infer in stream order under every
// schedule, so the internal counter is exact and deterministic.
class OracleMc : public Microclassifier {
 public:
  // `first_frame`: the script frame of the stream's first frame.
  OracleMc(const dnn::FeatureExtractor& fx,
           std::shared_ptr<const video::OverlapScript> script,
           std::int64_t first_frame = 0)
      : Microclassifier({.name = "oracle", .tap = kTap}, fx,
                        script->spec().height, script->spec().width),
        script_(std::move(script)),
        frame_(first_frame) {}
  nn::Sequential& net() override { return net_; }

 protected:
  float InferView(const nn::TensorView&) override {
    return script_->Active(frame_++) ? 1.0f : 0.0f;
  }

 private:
  std::shared_ptr<const video::OverlapScript> script_;
  std::int64_t frame_ = 0;
  nn::Sequential net_{"oracle"};
};

std::shared_ptr<const video::OverlapScript> SharedScript() {
  // Defaults: 4 objects, 14 visible frames each, 12-frame gaps, 64x64.
  return std::make_shared<const video::OverlapScript>(
      video::OverlapScriptSpec{});
}

// Camera c of a wall: small parallax, per-camera gain and sensor noise, a
// shared capture timeline starting at t0_ns.
video::OverlapView CamView(int c, std::int64_t t0_ns = 0) {
  video::OverlapView v;
  v.shift_x = 2.0 * c;
  v.brightness = 3 * c;
  v.noise_amp = 2;
  v.noise_seed = 100 + static_cast<std::uint64_t>(c);
  v.t0_ns = t0_ns;
  return v;
}

xcam::CorrelatorConfig XcamConfig() {
  xcam::CorrelatorConfig ccfg;
  ccfg.window_ns = 50 * kMs;  // well under the 396 ms inter-event gaps
  ccfg.min_similarity = 0.6f;
  return ccfg;
}

struct WallSpec {
  std::vector<std::shared_ptr<const video::OverlapScript>> scripts;
  std::vector<video::OverlapView> views;
  std::vector<std::int64_t> priorities;  // empty = all zero
  bool with_topology = false;
  // Declared pairs (indices into scripts); empty + with_topology = full mesh.
  std::vector<std::pair<int, int>> edges;
  bool pipelined = false;
};

struct WallRun {
  std::vector<McResult> results;  // per camera, oracle tenant
  std::vector<std::vector<UploadPacket>> packets;
  // Per packet: how many CrossEventRecords the sinks had delivered before
  // it (packet p of camera c reached the sink before record g iff
  // xevents_before[c][p] <= g).
  std::vector<std::vector<std::size_t>> xevents_before;
  std::vector<std::uint64_t> bytes;       // upload_bytes per camera
  std::vector<std::int64_t> suppressed;   // frames_suppressed per camera
  std::vector<xcam::CrossEventRecord> xevents;
  xcam::Correlator::Stats stats;  // zero-filled when topology is off

  // Upload bytes of cameras 0..cams-1.
  std::uint64_t total_bytes(std::size_t cams) const {
    std::uint64_t n = 0;
    for (std::size_t c = 0; c < cams; ++c) n += bytes.at(c);
    return n;
  }
};

WallRun RunWall(const WallSpec& spec) {
  const std::size_t n = spec.scripts.size();
  dnn::FeatureExtractor fx({.include_classifier = false});
  util::FakeClock clock;
  EdgeFleetConfig cfg;
  cfg.upload_bitrate_bps = 60'000;
  // Decisions == oracle raw == script ground truth: events exactly bracket
  // the scripted objects, so every assertion below is exact.
  cfg.vote_window = 1;
  cfg.vote_k = 1;
  cfg.clock = &clock;
  EdgeFleet fleet(fx, cfg);

  std::vector<std::unique_ptr<video::OverlapSource>> sources;
  std::vector<StreamHandle> handles;
  for (std::size_t c = 0; c < n; ++c) {
    sources.push_back(
        std::make_unique<video::OverlapSource>(spec.scripts[c], spec.views[c]));
    StreamConfig scfg;
    if (!spec.priorities.empty()) scfg.priority = spec.priorities[c];
    handles.push_back(fleet.AddStream(*sources.back(), scfg));
  }

  WallRun run;
  run.packets.resize(n);
  run.xevents_before.resize(n);
  if (spec.with_topology) {
    xcam::Topology topo;
    if (spec.edges.empty()) {
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
          topo.AddOverlap(handles[a], handles[b]);
        }
      }
    } else {
      for (const auto& [a, b] : spec.edges) {
        topo.AddOverlap(handles[static_cast<std::size_t>(a)],
                        handles[static_cast<std::size_t>(b)]);
      }
    }
    fleet.SetTopology(std::move(topo), XcamConfig(), kTap);
    fleet.SetCrossEventSink([&run](const xcam::CrossEventRecord& rec) {
      run.xevents.push_back(rec);
    });
  }
  fleet.SetUploadSink([&](const UploadPacket& p) {
    for (std::size_t c = 0; c < n; ++c) {
      if (handles[c] == p.stream) {
        run.packets[c].push_back(p);
        run.xevents_before[c].push_back(run.xevents.size());
      }
    }
  });

  std::vector<std::unique_ptr<ResultCollector>> collectors;
  for (std::size_t c = 0; c < n; ++c) {
    McSpec mc_spec{.mc = std::make_unique<OracleMc>(fx, spec.scripts[c])};
    collectors.push_back(std::make_unique<ResultCollector>());
    collectors.back()->Bind(mc_spec);
    fleet.Attach(handles[c], std::move(mc_spec));
  }

  if (spec.pipelined) {
    fleet.RunPipelined();
  } else {
    fleet.Run();
  }

  for (std::size_t c = 0; c < n; ++c) {
    run.results.push_back(collectors[c]->result());
    run.bytes.push_back(fleet.upload_bytes(handles[c]));
    run.suppressed.push_back(fleet.frames_suppressed(handles[c]));
  }
  if (spec.with_topology) run.stats = fleet.xcam_stats();
  return run;
}

void ExpectSameResult(const McResult& a, const McResult& b) {
  EXPECT_EQ(a.first_frame, b.first_frame);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    // Bitwise: the correlation plane must never perturb a decision stream.
    EXPECT_EQ(0, std::memcmp(&a.scores[i], &b.scores[i], sizeof(float)))
        << "score " << i;
  }
  EXPECT_EQ(a.raw, b.raw);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.event_ids, b.event_ids);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].begin, b.events[i].begin);
    EXPECT_EQ(a.events[i].end, b.events[i].end);
    EXPECT_EQ(a.events[i].begin_ts_ns, b.events[i].begin_ts_ns);
    EXPECT_EQ(a.events[i].end_ts_ns, b.events[i].end_ts_ns);
  }
}

// Non-tombstone packets must match byte for byte (same chunks in the same
// order) — "zero canonical-clip loss" is a bitwise claim, not a count.
void ExpectSameClipBytes(const std::vector<UploadPacket>& a,
                         const std::vector<UploadPacket>& b) {
  std::vector<const UploadPacket*> ca, cb;
  for (const auto& p : a) {
    if (!p.tombstone) ca.push_back(&p);
  }
  for (const auto& p : b) {
    if (!p.tombstone) cb.push_back(&p);
  }
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i]->frame_index, cb[i]->frame_index) << "packet " << i;
    EXPECT_EQ(ca[i]->chunk, cb[i]->chunk) << "packet " << i;
  }
}

void ExpectSameCrossEvents(const std::vector<xcam::CrossEventRecord>& a,
                           const std::vector<xcam::CrossEventRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].global_id, b[i].global_id);
    EXPECT_EQ(a[i].canonical, b[i].canonical);
    EXPECT_EQ(a[i].begin_ts_ns, b[i].begin_ts_ns);
    EXPECT_EQ(a[i].end_ts_ns, b[i].end_ts_ns);
    ASSERT_EQ(a[i].members.size(), b[i].members.size());
    for (std::size_t m = 0; m < a[i].members.size(); ++m) {
      const auto& ma = a[i].members[m];
      const auto& mb = b[i].members[m];
      EXPECT_EQ(ma.stream, mb.stream);
      EXPECT_EQ(ma.mc, mb.mc);
      EXPECT_EQ(ma.event_id, mb.event_id);
      EXPECT_EQ(ma.begin, mb.begin);
      EXPECT_EQ(ma.end, mb.end);
      EXPECT_EQ(ma.begin_ts_ns, mb.begin_ts_ns);
      EXPECT_EQ(ma.end_ts_ns, mb.end_ts_ns);
      EXPECT_EQ(ma.priority, mb.priority);
    }
  }
}

WallSpec SharedWall(std::size_t cams, bool with_topology, bool pipelined) {
  WallSpec spec;
  auto script = SharedScript();
  for (std::size_t c = 0; c < cams; ++c) {
    spec.scripts.push_back(script);
    spec.views.push_back(CamView(static_cast<int>(c)));
  }
  spec.with_topology = with_topology;
  spec.pipelined = pipelined;
  return spec;
}

// The topology-free baseline of every shared-scene wall below, run once: a
// stream's output never depends on its siblings (the fleet ≡ per-stream
// EdgeNode pin of edge_fleet_test), so camera c of this 8-camera wall is
// byte for byte camera c of a 2-, 3- or 4-camera wall without a topology.
const WallRun& SharedWallBaseline() {
  static const WallRun base = RunWall(SharedWall(8, false, false));
  return base;
}

TEST(EdgeFleetXcam, CameraWallSuppressesDuplicateClips) {
  const auto script = SharedScript();
  const std::int64_t n_events = script->spec().n_events;
  const std::int64_t positives_per_cam =
      n_events * script->spec().event_frames;

  for (const std::size_t cams : {2, 4, 8}) {
    SCOPED_TRACE(std::to_string(cams) + " cameras");
    const WallRun& base = SharedWallBaseline();
    const WallRun dedup = RunWall(SharedWall(cams, true, false));
    const auto n_cams = static_cast<std::int64_t>(cams);

    // The plane never perturbs a decision stream — only the upload tail.
    for (std::size_t c = 0; c < cams; ++c) {
      ExpectSameResult(base.results[c], dedup.results[c]);
      ASSERT_EQ(dedup.results[c].events.size(),
                static_cast<std::size_t>(n_events));
    }

    // Every scripted object fused into one group holding every camera.
    EXPECT_EQ(dedup.stats.fused_groups, n_events);
    EXPECT_EQ(dedup.stats.members_fused, n_cams * n_events);
    EXPECT_EQ(dedup.stats.groups_emitted, n_events);
    ASSERT_EQ(dedup.xevents.size(), static_cast<std::size_t>(n_events));
    for (std::size_t g = 0; g < dedup.xevents.size(); ++g) {
      const auto& rec = dedup.xevents[g];
      EXPECT_EQ(rec.global_id, static_cast<std::int64_t>(g));
      ASSERT_EQ(rec.members.size(), cams);
      // Equal priorities: the tiebreak elects the earliest member key, i.e.
      // the lowest stream handle, the wall's lead.
      EXPECT_EQ(rec.canonical_member().stream, 0);
      const auto& obj = script->objects()[g];
      EXPECT_EQ(rec.canonical_member().begin, obj.begin);
      EXPECT_EQ(rec.canonical_member().end, obj.end);
    }

    // Zero canonical-clip loss: the canonical stream uploads the exact
    // bytes it would have without a topology; the others ship only
    // tombstones.
    ExpectSameClipBytes(base.packets[0], dedup.packets[0]);
    EXPECT_EQ(dedup.suppressed[0], 0);
    EXPECT_EQ(dedup.bytes[0], base.bytes[0]);
    for (std::size_t c = 1; c < cams; ++c) {
      EXPECT_EQ(dedup.suppressed[c], positives_per_cam) << "cam " << c;
      EXPECT_EQ(dedup.bytes[c], 0u) << "cam " << c;  // tombstones cost 0 B
      for (const auto& p : dedup.packets[c]) {
        EXPECT_TRUE(p.tombstone);
        EXPECT_TRUE(p.chunk.empty());
      }
    }

    // The acceptance floor is 2x at every wall size; one canonical view
    // out of C achieves ~Cx (per-camera encodings differ slightly, hence
    // the floor).
    EXPECT_GT(base.total_bytes(cams), 0u);
    EXPECT_LE(2 * dedup.total_bytes(cams), base.total_bytes(cams));

    // Datacenter view: the canonical receiver reassembles every event's
    // clip in full; a non-canonical receiver sees metadata-only tombstones.
    DatacenterReceiver canon(64, 64), shadow(64, 64);
    for (const auto& p : dedup.packets[0]) canon.Receive(p);
    for (const auto& p : dedup.packets[1]) shadow.Receive(p);
    EXPECT_EQ(canon.frames_received(), positives_per_cam);
    EXPECT_EQ(canon.tombstones_received(), 0);
    ASSERT_EQ(canon.Clips().size(), static_cast<std::size_t>(n_events));
    for (const auto& clip : canon.Clips()) {
      EXPECT_EQ(static_cast<std::int64_t>(clip.frame_slots.size()),
                script->spec().event_frames);
    }
    EXPECT_EQ(shadow.frames_received(), 0);
    EXPECT_EQ(shadow.tombstones_received(), positives_per_cam);
  }
}

TEST(EdgeFleetXcam, StreamsOutsideTheTopologyAreBitwiseUntouched) {
  WallSpec with = SharedWall(3, true, false);
  with.edges = {{0, 1}};  // camera 2 shares the scene but NOT the topology
  const WallRun dedup = RunWall(with);
  const WallRun& base = SharedWallBaseline();

  // The outsider's decision AND upload byte streams are bitwise-identical
  // to a fleet with no topology at all.
  ExpectSameResult(base.results[2], dedup.results[2]);
  EXPECT_EQ(dedup.suppressed[2], 0);
  EXPECT_EQ(dedup.bytes[2], base.bytes[2]);
  ExpectSameClipBytes(base.packets[2], dedup.packets[2]);
  for (const auto& p : dedup.packets[2]) EXPECT_FALSE(p.tombstone);

  // The declared pair still dedupes between themselves.
  const auto script = SharedScript();
  EXPECT_EQ(dedup.stats.fused_groups, script->spec().n_events);
  EXPECT_EQ(dedup.stats.members_fused, 2 * script->spec().n_events);
  EXPECT_EQ(dedup.suppressed[0], 0);
  EXPECT_EQ(dedup.suppressed[1],
            script->spec().n_events * script->spec().event_frames);
}

TEST(EdgeFleetXcam, PipelinedScheduleMatchesSynchronousBitwise) {
  const WallRun sync_run = RunWall(SharedWall(4, true, false));
  const WallRun pipe_run = RunWall(SharedWall(4, true, true));

  for (std::size_t c = 0; c < 4; ++c) {
    ExpectSameResult(sync_run.results[c], pipe_run.results[c]);
    EXPECT_EQ(sync_run.bytes[c], pipe_run.bytes[c]) << "cam " << c;
    EXPECT_EQ(sync_run.suppressed[c], pipe_run.suppressed[c]) << "cam " << c;
    ExpectSameClipBytes(sync_run.packets[c], pipe_run.packets[c]);
  }
  ExpectSameCrossEvents(sync_run.xevents, pipe_run.xevents);
  EXPECT_EQ(sync_run.stats.fused_groups, pipe_run.stats.fused_groups);
  EXPECT_EQ(sync_run.stats.groups_emitted, pipe_run.stats.groups_emitted);
  EXPECT_EQ(sync_run.stats.members_fused, pipe_run.stats.members_fused);
}

TEST(EdgeFleetXcam, DisjointTimelinesNeverFuseAndLoseNothing) {
  // Both cameras run the SAME script through a declared overlap, but camera
  // 1's capture timeline starts 100 s later: no capture windows intersect,
  // so nothing may fuse — and the deferred-upload path must be lossless
  // (every clip ships exactly as it would without a topology).
  auto script = SharedScript();
  WallSpec spec;
  spec.scripts = {script, script};
  spec.views = {CamView(0, 0), CamView(1, 100'000 * kMs)};
  spec.with_topology = true;
  const WallRun dedup = RunWall(spec);

  WallSpec base_spec = spec;
  base_spec.with_topology = false;
  const WallRun base = RunWall(base_spec);

  EXPECT_EQ(dedup.stats.fused_groups, 0);
  // Every event still emits, as a singleton group.
  EXPECT_EQ(dedup.stats.groups_emitted, 2 * script->spec().n_events);
  ASSERT_EQ(dedup.xevents.size(),
            static_cast<std::size_t>(2 * script->spec().n_events));
  for (const auto& rec : dedup.xevents) {
    EXPECT_EQ(rec.members.size(), 1u);
  }
  for (std::size_t c = 0; c < 2; ++c) {
    ExpectSameResult(base.results[c], dedup.results[c]);
    EXPECT_EQ(dedup.suppressed[c], 0) << "cam " << c;
    EXPECT_EQ(dedup.bytes[c], base.bytes[c]) << "cam " << c;
    ExpectSameClipBytes(base.packets[c], dedup.packets[c]);
  }
}

TEST(EdgeFleetXcam, PriorityWinsCanonicalElection) {
  // Camera 1 carries a higher StreamConfig::priority: it must win canonical
  // election for every group even though camera 0 has the earlier handle,
  // so ALL suppression lands on camera 0.
  WallSpec spec = SharedWall(2, true, false);
  spec.priorities = {0, 5};
  const WallRun dedup = RunWall(spec);

  const auto script = SharedScript();
  const std::int64_t positives =
      script->spec().n_events * script->spec().event_frames;
  EXPECT_EQ(dedup.stats.fused_groups, script->spec().n_events);
  ASSERT_EQ(dedup.xevents.size(),
            static_cast<std::size_t>(script->spec().n_events));
  for (const auto& rec : dedup.xevents) {
    ASSERT_EQ(rec.members.size(), 2u);
    EXPECT_EQ(rec.canonical_member().stream, 1);
    EXPECT_EQ(rec.canonical_member().priority, 5);
  }
  EXPECT_EQ(dedup.suppressed[0], positives);
  EXPECT_EQ(dedup.suppressed[1], 0);
  EXPECT_EQ(dedup.bytes[0], 0u);
  EXPECT_GT(dedup.bytes[1], 0u);
}

// Of one camera's `packets` for frames [begin, end) (`xevents_before` as
// in WallRun): how many reached the sink before cross-event record `g`, and
// how many after it.
struct RecordSplit {
  std::int64_t before = 0;
  std::int64_t after = 0;
};
RecordSplit SplitAtRecord(const std::vector<UploadPacket>& packets,
                          const std::vector<std::size_t>& xevents_before,
                          std::int64_t begin, std::int64_t end,
                          std::size_t g) {
  RecordSplit split;
  for (std::size_t p = 0; p < packets.size(); ++p) {
    const std::int64_t f = packets[p].frame_index;
    if (f < begin || f >= end) continue;
    ++(xevents_before[p] <= g ? split.before : split.after);
  }
  return split;
}

// Index of the record holding the event of `stream` that begins at frame
// `begin` (stream-local).
std::size_t RecordOf(const std::vector<xcam::CrossEventRecord>& xevents,
                     std::int64_t stream, std::int64_t begin) {
  for (std::size_t g = 0; g < xevents.size(); ++g) {
    for (const auto& m : xevents[g].members) {
      if (m.stream == stream && m.begin == begin) return g;
    }
  }
  ADD_FAILURE() << "no record for stream " << stream << " frame " << begin;
  return xevents.size();
}

TEST(EdgeFleetXcam, EachComponentsLeadShipsBeforeItsVerdict) {
  // Cameras 0+1 and 2+3 of one shared scene form two topology components.
  // Component {0, 1} is an equal-priority pair, so its lead is the lower
  // handle, 0; camera 3's priority makes it the lead of {2, 3}.
  WallSpec spec = SharedWall(4, true, false);
  spec.edges = {{0, 1}, {2, 3}};
  spec.priorities = {0, 0, 0, 3};
  const WallRun run = RunWall(spec);
  const WallRun& base = SharedWallBaseline();

  const auto script = SharedScript();
  const std::int64_t n_events = script->spec().n_events;
  const std::int64_t frames = script->spec().event_frames;
  EXPECT_EQ(run.stats.fused_groups, 2 * n_events);
  ASSERT_EQ(run.xevents.size(), static_cast<std::size_t>(2 * n_events));
  for (std::size_t g = 0; g < run.xevents.size(); ++g) {
    SCOPED_TRACE("record " + std::to_string(g));
    const auto& rec = run.xevents[g];
    ASSERT_EQ(rec.members.size(), 2u);
    // Members are sorted by stream: {0, 1} or {2, 3}.
    const bool first = rec.members[0].stream == 0;
    const std::size_t lead_idx = first ? 0 : 1;
    const std::int64_t lead = first ? 0 : 3;
    EXPECT_EQ(rec.canonical, static_cast<std::int64_t>(lead_idx));
    EXPECT_EQ(rec.canonical_member().stream, lead);
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& m = rec.members[i];
      const auto c = static_cast<std::size_t>(m.stream);
      const RecordSplit split = SplitAtRecord(
          run.packets[c], run.xevents_before[c], m.begin, m.end, g);
      if (i == lead_idx) {
        // The lead's clip reached the sink before the verdict on it...
        EXPECT_EQ(split.before, frames) << "lead " << c;
        EXPECT_EQ(split.after, 0) << "lead " << c;
      } else {
        // ...while the other member held its packets for the verdict.
        EXPECT_EQ(split.before, 0) << "member " << c;
        EXPECT_EQ(split.after, frames) << "member " << c;
      }
    }
  }
  // Each lead ships its exact no-topology bytes; the others tombstones.
  for (const std::size_t c : {0u, 3u}) {
    ExpectSameClipBytes(base.packets[c], run.packets[c]);
    EXPECT_EQ(run.suppressed[c], 0) << "cam " << c;
  }
  for (const std::size_t c : {1u, 2u}) {
    EXPECT_EQ(run.suppressed[c], n_events * frames) << "cam " << c;
    EXPECT_EQ(run.bytes[c], 0u) << "cam " << c;
  }

  // The pipelined schedule ships the same bytes and emits the same records.
  spec.pipelined = true;
  const WallRun pipe_run = RunWall(spec);
  for (std::size_t c = 0; c < 4; ++c) {
    ExpectSameResult(run.results[c], pipe_run.results[c]);
    EXPECT_EQ(run.bytes[c], pipe_run.bytes[c]) << "cam " << c;
    EXPECT_EQ(run.suppressed[c], pipe_run.suppressed[c]) << "cam " << c;
    ExpectSameClipBytes(run.packets[c], pipe_run.packets[c]);
  }
  ExpectSameCrossEvents(run.xevents, pipe_run.xevents);
}

// --- Churn: lead re-election mid-event -------------------------------------

// A push-driven, full-mesh wall over the shared script whose membership
// changes mid-run. Camera c joins when the wall reaches script frame
// join[c]; its first frame is script frame start[c] <= join[c] (a late
// camera pushes that backlog at once, so it can still see a whole event)
// and it leaves at script frame leave[c] (-1: never). Handles follow camera
// order, so join must be non-decreasing. Every pushed frame is processed
// before the next churn point, so the Step() and pipelined schedules see
// the same churn boundaries.
struct ChurnSpec {
  std::vector<std::int64_t> priorities;
  std::vector<std::int64_t> start;
  std::vector<std::int64_t> join;
  std::vector<std::int64_t> leave;
  bool pipelined = false;
};

struct ChurnRun {
  std::vector<McResult> results;
  std::vector<std::vector<UploadPacket>> packets;
  std::vector<std::vector<std::size_t>> xevents_before;  // as in WallRun
  std::vector<xcam::CrossEventRecord> xevents;
};

ChurnRun RunChurn(const ChurnSpec& spec) {
  const auto script = SharedScript();
  const std::size_t n = spec.start.size();
  dnn::FeatureExtractor fx({.include_classifier = false});
  util::FakeClock clock;
  EdgeFleetConfig cfg;
  cfg.upload_bitrate_bps = 60'000;
  cfg.vote_window = 1;
  cfg.vote_k = 1;
  cfg.queue_capacity = 0;  // unbounded: each phase is pushed at once
  cfg.clock = &clock;
  EdgeFleet fleet(fx, cfg);

  xcam::Topology topo;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      topo.AddOverlap(static_cast<StreamHandle>(a),
                      static_cast<StreamHandle>(b));
    }
  }
  fleet.SetTopology(std::move(topo), XcamConfig(), kTap);

  ChurnRun run;
  run.results.resize(n);
  run.packets.resize(n);
  run.xevents_before.resize(n);
  fleet.SetCrossEventSink([&run](const xcam::CrossEventRecord& rec) {
    run.xevents.push_back(rec);
  });
  fleet.SetUploadSink([&run](const UploadPacket& p) {
    const auto c = static_cast<std::size_t>(p.stream);
    run.packets[c].push_back(p);
    run.xevents_before[c].push_back(run.xevents.size());
  });

  std::vector<std::unique_ptr<video::OverlapSource>> sources(n);
  std::vector<std::unique_ptr<ResultCollector>> collectors(n);
  std::vector<std::int64_t> next(n, 0);  // next script frame to push
  std::vector<bool> live(n, false);
  std::set<std::int64_t> points{0, script->n_frames()};
  for (std::size_t c = 0; c < n; ++c) {
    points.insert(spec.join[c]);
    if (spec.leave[c] >= 0) points.insert(spec.leave[c]);
  }
  if (spec.pipelined) fleet.StartPipeline();
  for (auto it = points.begin(); std::next(it) != points.end(); ++it) {
    const std::int64_t now = *it;
    const std::int64_t until = *std::next(it);
    for (std::size_t c = 0; c < n; ++c) {
      if (live[c] && spec.leave[c] == now) {
        fleet.RemoveStream(static_cast<StreamHandle>(c));
        run.results[c] = collectors[c]->result();
        live[c] = false;
      }
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (spec.join[c] != now) continue;
      sources[c] = std::make_unique<video::OverlapSource>(
          script, CamView(static_cast<int>(c)));
      for (next[c] = 0; next[c] < spec.start[c]; ++next[c]) sources[c]->Next();
      StreamConfig scfg;
      scfg.frame_width = script->spec().width;
      scfg.frame_height = script->spec().height;
      scfg.fps = script->spec().fps;
      scfg.priority = spec.priorities[c];
      EXPECT_EQ(fleet.AddStream(scfg), static_cast<StreamHandle>(c));
      McSpec mc_spec{.mc = std::make_unique<OracleMc>(fx, script,
                                                      spec.start[c])};
      collectors[c] = std::make_unique<ResultCollector>();
      collectors[c]->Bind(mc_spec);
      fleet.Attach(static_cast<StreamHandle>(c), std::move(mc_spec));
      live[c] = true;
    }
    for (std::size_t c = 0; c < n; ++c) {
      for (; live[c] && next[c] < until; ++next[c]) {
        fleet.Push(static_cast<StreamHandle>(c), *sources[c]->Next());
      }
    }
    if (spec.pipelined) {
      fleet.WaitPipelineIdle();
    } else {
      while (fleet.Step() > 0) {
      }
    }
  }
  if (spec.pipelined) fleet.StopPipeline();
  fleet.Drain();
  for (std::size_t c = 0; c < n; ++c) {
    if (live[c]) run.results[c] = collectors[c]->result();
  }
  return run;
}

// Every scripted object reaches the uplink in full from at least one
// camera, and each camera's packets (clips and tombstones) are in frame
// order.
void ExpectChurnKeepsEveryClip(const ChurnRun& run, const ChurnSpec& spec) {
  const auto script = SharedScript();
  std::vector<std::set<std::int64_t>> shipped(run.packets.size());
  for (std::size_t c = 0; c < run.packets.size(); ++c) {
    for (std::size_t p = 0; p < run.packets[c].size(); ++p) {
      const UploadPacket& pkt = run.packets[c][p];
      if (p > 0) {
        EXPECT_LT(run.packets[c][p - 1].frame_index, pkt.frame_index)
            << "cam " << c;
      }
      if (!pkt.tombstone) shipped[c].insert(pkt.frame_index + spec.start[c]);
    }
  }
  for (const auto& obj : script->objects()) {
    bool full = false;
    for (const auto& frames : shipped) {
      bool all = true;
      for (std::int64_t f = obj.begin; f < obj.end; ++f) {
        all = all && frames.count(f) != 0;
      }
      full = full || all;
    }
    EXPECT_TRUE(full) << "no camera shipped the object at frame "
                      << obj.begin << " in full";
  }
}

void ExpectSameChurn(const ChurnRun& a, const ChurnRun& b) {
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t c = 0; c < a.packets.size(); ++c) {
    SCOPED_TRACE("cam " + std::to_string(c));
    ExpectSameResult(a.results[c], b.results[c]);
    ASSERT_EQ(a.packets[c].size(), b.packets[c].size());
    for (std::size_t p = 0; p < a.packets[c].size(); ++p) {
      EXPECT_EQ(a.packets[c][p].frame_index, b.packets[c][p].frame_index);
      EXPECT_EQ(a.packets[c][p].tombstone, b.packets[c][p].tombstone);
      EXPECT_EQ(a.packets[c][p].chunk, b.packets[c][p].chunk);
    }
  }
  ExpectSameCrossEvents(a.xevents, b.xevents);
}

TEST(EdgeFleetXcam, LeadRemovedMidEventPromotesTheNextWithoutLosingAClip) {
  // Equal priorities: camera 0 leads until it is removed five frames into
  // object 1; camera 1 is promoted.
  const auto script = SharedScript();
  const auto& objs = script->objects();
  const std::int64_t cut = objs[1].begin + 5;
  ChurnSpec spec;
  spec.priorities = {0, 0, 0};
  spec.start = {0, 0, 0};
  spec.join = {0, 0, 0};
  spec.leave = {cut, -1, -1};
  const ChurnRun run = RunChurn(spec);
  ExpectChurnKeepsEveryClip(run, spec);

  const std::int64_t frames = script->spec().event_frames;
  for (std::size_t k = 0; k < objs.size(); ++k) {
    SCOPED_TRACE("object " + std::to_string(k));
    const std::size_t g = RecordOf(run.xevents, 1, objs[k].begin);
    ASSERT_LT(g, run.xevents.size());
    const RecordSplit c1 = SplitAtRecord(run.packets[1], run.xevents_before[1],
                                         objs[k].begin, objs[k].end, g);
    if (k == 0) {
      // Before the cut camera 0 led: camera 1 deferred, then tombstoned.
      EXPECT_EQ(run.xevents[g].canonical_member().stream, 0);
      EXPECT_EQ(c1.after, frames);
    } else if (k == 1) {
      // The promoted lead drains its deferred backlog in order: the frames
      // it held from before the cut, and the rest of the open event behind
      // them, ship (in full) once the verdict arrives.
      EXPECT_EQ(run.xevents[g].canonical_member().stream, 1);
      EXPECT_EQ(c1.before, 0);
      EXPECT_EQ(c1.after, frames);
    } else {
      // Then it ships undeferred.
      EXPECT_EQ(run.xevents[g].canonical_member().stream, 1);
      EXPECT_EQ(c1.before, frames);
      EXPECT_EQ(c1.after, 0);
    }
  }
  // Camera 2 never leads: only tombstones.
  for (const auto& p : run.packets[2]) EXPECT_TRUE(p.tombstone);

  spec.pipelined = true;
  ExpectSameChurn(run, RunChurn(spec));
}

TEST(EdgeFleetXcam, HigherPriorityJoinMidEventDemotesTheLead) {
  // Camera 2 (priority 5) joins five frames into object 1 carrying a
  // backlog from the empty scene before it (its background model needs a
  // clean start to match); camera 0 leads until then.
  const auto script = SharedScript();
  const auto& objs = script->objects();
  const std::int64_t join = objs[1].begin + 5;
  ChurnSpec spec;
  spec.priorities = {0, 0, 5};
  spec.start = {0, 0, objs[0].end};
  spec.join = {0, 0, join};
  spec.leave = {-1, -1, -1};
  const ChurnRun run = RunChurn(spec);
  ExpectChurnKeepsEveryClip(run, spec);

  const std::int64_t frames = script->spec().event_frames;
  for (std::size_t k = 1; k < objs.size(); ++k) {
    SCOPED_TRACE("object " + std::to_string(k));
    // The new lead is canonical and ships as it decides.
    const std::int64_t local = objs[k].begin - spec.start[2];
    const std::size_t g = RecordOf(run.xevents, 2, local);
    ASSERT_LT(g, run.xevents.size());
    EXPECT_EQ(run.xevents[g].canonical_member().stream, 2);
    const RecordSplit c2 = SplitAtRecord(run.packets[2], run.xevents_before[2],
                                         local, local + frames, g);
    EXPECT_EQ(c2.before, frames);
    EXPECT_EQ(c2.after, 0);
  }
  // The demoted lead shipped object 0 and object 1's first five frames
  // directly, then deferred: its later frames are tombstoned. That is a
  // missed dedupe for object 1 (two copies of its head), never a lost clip.
  for (const auto& p : run.packets[0]) {
    const bool head = p.frame_index < join;
    EXPECT_EQ(p.tombstone, !head) << "frame " << p.frame_index;
  }

  spec.pipelined = true;
  ExpectSameChurn(run, RunChurn(spec));
}

}  // namespace
}  // namespace ff::core
