// Overlapping cameras, one physical scene: the cross-camera correlation
// plane (src/xcam) on a 4-camera wall.
//
// All four cameras render the SAME video::OverlapScript through per-camera
// view transforms (parallax, gain, independent sensor noise), like four
// mounts covering one intersection. Declaring the overlap topology makes
// the fleet fuse each scripted object's four per-stream events into ONE
// CrossEventRecord, elect a canonical view, and ship the other three
// members as metadata-only tombstones — the wall uploads each physical
// event's clip once instead of four times. The canonical camera is known
// before any event closes (the highest-priority camera, the wall's
// *lead*), so it uploads as it decides, undeferred; only the other three
// hold their packets until the correlator's verdict.
//
// The wall runs twice, without and with the topology, so the uplink byte
// cut is printed from measurement rather than asserted. The tenants are
// scripted stand-ins that fire exactly on the ground-truth objects: the
// demo shows the correlation plane's mechanics, not classifier training
// (see examples/pedestrian_monitor.cpp for the training side).
#include <cstdio>
#include <memory>
#include <vector>

#include "core/edge_fleet.hpp"
#include "util/clock.hpp"
#include "video/overlap_source.hpp"
#include "xcam/correlator.hpp"
#include "xcam/topology.hpp"

using namespace ff;

namespace {

constexpr int kCameras = 4;
constexpr const char* kTap = "conv3_2/sep";
constexpr std::int64_t kMs = 1'000'000;

// Fires exactly on the scripted objects, so events are the ground truth.
class ScriptedTenant : public core::Microclassifier {
 public:
  ScriptedTenant(const dnn::FeatureExtractor& fx,
                 std::shared_ptr<const video::OverlapScript> script)
      : core::Microclassifier({.name = "monitor", .tap = kTap}, fx,
                              script->spec().height, script->spec().width),
        script_(std::move(script)) {}
  nn::Sequential& net() override { return net_; }

 protected:
  float InferView(const nn::TensorView&) override {
    return script_->Active(frame_++) ? 1.0f : 0.0f;
  }

 private:
  std::shared_ptr<const video::OverlapScript> script_;
  std::int64_t frame_ = 0;
  nn::Sequential net_{"monitor"};
};

struct WallRun {
  std::uint64_t upload_bytes = 0;
  std::vector<std::uint64_t> bytes_per_cam;
  std::vector<std::int64_t> suppressed_per_cam;
  std::vector<xcam::CrossEventRecord> cross_events;
};

WallRun RunWall(const std::shared_ptr<const video::OverlapScript>& script,
                bool with_topology) {
  util::FakeClock clock;  // capture timestamps come from the script
  dnn::FeatureExtractor fx({.include_classifier = false});
  core::EdgeFleetConfig cfg;
  cfg.upload_bitrate_bps = 60'000;
  cfg.vote_window = 1;  // decisions == the scripted ground truth
  cfg.vote_k = 1;
  cfg.clock = &clock;
  core::EdgeFleet fleet(fx, cfg);

  std::vector<std::unique_ptr<video::OverlapSource>> sources;
  std::vector<core::StreamHandle> handles;
  for (int c = 0; c < kCameras; ++c) {
    video::OverlapView view;
    view.shift_x = 2.0 * c;  // parallax between mounts
    view.brightness = 3 * c;
    view.noise_amp = 2;
    view.noise_seed = 100 + static_cast<std::uint64_t>(c);
    sources.push_back(std::make_unique<video::OverlapSource>(script, view));
    core::StreamConfig scfg;
    scfg.priority = c == 2 ? 1 : 0;  // camera 2 has the best vantage point
    handles.push_back(fleet.AddStream(*sources.back(), scfg));
  }

  WallRun run;
  if (with_topology) {
    // Declare which cameras see the same scene (here: all pairs). Affinity
    // defaults to 1; a marginal overlap would pass a smaller value and
    // demand stronger signature agreement to fuse.
    xcam::Topology topo;
    for (std::size_t a = 0; a < handles.size(); ++a) {
      for (std::size_t b = a + 1; b < handles.size(); ++b) {
        topo.AddOverlap(handles[a], handles[b]);
      }
    }
    xcam::CorrelatorConfig ccfg;
    ccfg.window_ns = 50 * kMs;  // capture-time slack between cameras
    ccfg.min_similarity = 0.6f;
    fleet.SetTopology(std::move(topo), ccfg, kTap);
    fleet.SetCrossEventSink([&run](const xcam::CrossEventRecord& rec) {
      run.cross_events.push_back(rec);
    });
  }
  for (const core::StreamHandle h : handles) {
    fleet.Attach(h, {.mc = std::make_unique<ScriptedTenant>(fx, script)});
  }

  fleet.Run();
  run.upload_bytes = fleet.upload_bytes();
  for (const core::StreamHandle h : handles) {
    run.bytes_per_cam.push_back(fleet.upload_bytes(h));
    run.suppressed_per_cam.push_back(fleet.frames_suppressed(h));
  }
  return run;
}

}  // namespace

int main() {
  // One scripted scene: 4 objects crossing, 14 visible frames each, 64x64.
  const auto script = std::make_shared<const video::OverlapScript>(
      video::OverlapScriptSpec{});
  std::printf("one scene, %d overlapping cameras, %lld scripted objects "
              "(%lld frames each)\n\n",
              kCameras, static_cast<long long>(script->spec().n_events),
              static_cast<long long>(script->spec().event_frames));

  const WallRun baseline = RunWall(script, /*with_topology=*/false);
  const WallRun dedup = RunWall(script, /*with_topology=*/true);

  std::printf("cross-camera groups (window 50 ms, full-mesh topology):\n");
  for (const auto& rec : dedup.cross_events) {
    const auto& canon = rec.canonical_member();
    std::printf("  object %lld: %zu member views, canonical camera %lld "
                "(priority %lld), frames [%lld, %lld)\n",
                static_cast<long long>(rec.global_id), rec.members.size(),
                static_cast<long long>(canon.stream),
                static_cast<long long>(canon.priority),
                static_cast<long long>(canon.begin),
                static_cast<long long>(canon.end));
  }

  std::printf("\nper-camera uplink (dedupe on):\n");
  for (int c = 0; c < kCameras; ++c) {
    std::printf("  camera %d: %6llu clip bytes, %3lld frames suppressed%s\n",
                c,
                static_cast<unsigned long long>(
                    dedup.bytes_per_cam[static_cast<std::size_t>(c)]),
                static_cast<long long>(
                    dedup.suppressed_per_cam[static_cast<std::size_t>(c)]),
                c == 2 ? "  <- canonical lead (elected by priority, "
                         "uploads undeferred)"
                       : "");
  }

  std::printf("\nuplink clip bytes: %llu without topology, %llu with "
              "(%.2fx cut) — each physical event uploaded once, by the "
              "lead as it decided; the other views shipped as "
              "metadata-only tombstones after the verdict, still carrying "
              "event identity to the datacenter.\n",
              static_cast<unsigned long long>(baseline.upload_bytes),
              static_cast<unsigned long long>(dedup.upload_bytes),
              static_cast<double>(baseline.upload_bytes) /
                  static_cast<double>(dedup.upload_bytes));
  return 0;
}
