// EdgeFleet pinning tests: (a) per-stream decisions through a multi-stream
// fleet are BITWISE-identical to running each stream through its own
// dedicated EdgeNode — cross-stream batching is pure scheduling; (b)
// AddStream/RemoveStream work mid-run with full tail draining; (c)
// heterogeneous frame geometries land in separate batch buckets while
// invalid/zero geometry and per-stream frame mismatches stay loud; plus
// push-driven streams, bounded queues, round-robin batch formation, tap
// reference restoration under churn, and a sink that calls back into its
// own fleet failing loudly instead of deadlocking.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "core/edge_fleet.hpp"
#include "core/edge_node.hpp"
#include "video/dataset.hpp"
#include "video/source.hpp"

namespace ff::core {
namespace {

constexpr std::int64_t kW = 128;
constexpr const char* kTap = "conv3_2/sep";

video::DatasetSpec SmallSpec(std::int64_t frames, std::uint64_t seed) {
  auto spec = video::JacksonSpec(kW, frames, seed);
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

EdgeNodeConfig NodeConfig(const video::DatasetSpec& spec) {
  EdgeNodeConfig cfg;
  cfg.frame_width = spec.width;
  cfg.frame_height = spec.height;
  cfg.fps = spec.fps;
  cfg.upload_bitrate_bps = 60'000;
  return cfg;
}

// One tenant's architecture + seed script, applied identically to the fleet
// stream and its reference node.
struct TenantScript {
  std::string arch;
  std::uint64_t seed;
};

// Reference: the stream's frames [0, n) through a dedicated single-stream
// EdgeNode. Returns one McResult per scripted tenant plus upload accounting.
struct StreamRef {
  std::vector<McResult> results;
  std::int64_t uploaded = 0;
  std::uint64_t bytes = 0;
};

StreamRef RunDedicatedNode(const video::SyntheticDataset& ds, std::int64_t n,
                           const std::vector<TenantScript>& tenants) {
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNode node(fx, NodeConfig(ds.spec()));
  std::vector<std::unique_ptr<ResultCollector>> collectors;
  for (const auto& t : tenants) {
    McSpec spec{.mc = MakeMc(fx, ds.spec(), t.arch, t.seed)};
    collectors.push_back(std::make_unique<ResultCollector>());
    collectors.back()->Bind(spec);
    node.Attach(std::move(spec));
  }
  video::DatasetSource src(ds, 0, n);
  node.Run(src);
  StreamRef ref;
  for (const auto& c : collectors) ref.results.push_back(c->result());
  ref.uploaded = node.frames_uploaded();
  ref.bytes = node.upload_bytes();
  return ref;
}

void ExpectSameResult(const McResult& a, const McResult& b) {
  EXPECT_EQ(a.first_frame, b.first_frame) << a.name;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << a.name;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    // Bitwise, not approximate: the cross-stream batch computes each image
    // exactly as the dedicated node's pass does.
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

TEST(EdgeFleet, MultiStreamMatchesDedicatedNodesBitwise) {
  // Three cameras (same geometry, different days/seeds), heterogeneous
  // tenant mixes. The fleet interleaves them through shared cross-stream
  // batches; every stream must still see exactly its own dedicated-node
  // decision stream.
  const std::int64_t kFrames = 12;
  const video::SyntheticDataset ds0(SmallSpec(kFrames, 21));
  const video::SyntheticDataset ds1(SmallSpec(kFrames, 22));
  const video::SyntheticDataset ds2(SmallSpec(kFrames, 23));
  const std::vector<std::vector<TenantScript>> scripts = {
      {{"windowed", 100}, {"localized", 101}},
      {{"full_frame", 200}},
      {{"windowed", 300}},
  };

  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.max_batch = 4;  // not a multiple of the stream count, deliberately
  EdgeFleet fleet(fx, cfg);
  video::DatasetSource s0(ds0), s1(ds1), s2(ds2);
  const StreamHandle h0 = fleet.AddStream(s0);
  const StreamHandle h1 = fleet.AddStream(s1);
  const StreamHandle h2 = fleet.AddStream(s2);

  std::vector<std::vector<std::unique_ptr<ResultCollector>>> collectors(3);
  std::map<McHandle, StreamHandle> tenant_stream;
  const StreamHandle handles[3] = {h0, h1, h2};
  const video::SyntheticDataset* dss[3] = {&ds0, &ds1, &ds2};
  for (std::size_t s = 0; s < 3; ++s) {
    for (const auto& t : scripts[s]) {
      McSpec spec{.mc = MakeMc(fx, dss[s]->spec(), t.arch, t.seed)};
      collectors[s].push_back(std::make_unique<ResultCollector>());
      collectors[s].back()->Bind(spec);
      tenant_stream[fleet.Attach(handles[s], std::move(spec))] = handles[s];
    }
  }
  EXPECT_EQ(fleet.n_mcs(), 4u);
  EXPECT_EQ(fleet.n_streams(), 3u);

  // Uplink packets must route: stream-tagged, frame order per stream.
  std::map<StreamHandle, std::int64_t> last_index;
  fleet.SetUploadSink([&](const UploadPacket& p) {
    ASSERT_TRUE(p.stream == h0 || p.stream == h1 || p.stream == h2);
    auto [it, fresh] = last_index.try_emplace(p.stream, -1);
    EXPECT_GT(p.frame_index, it->second);
    it->second = p.frame_index;
    (void)fresh;
  });

  std::int64_t total = 0;
  while (const std::int64_t n = fleet.Step()) total += n;
  fleet.Drain();
  EXPECT_EQ(total, 3 * kFrames);
  EXPECT_EQ(fleet.frames_processed(), 3 * kFrames);

  for (std::size_t s = 0; s < 3; ++s) {
    const StreamRef ref = RunDedicatedNode(*dss[s], kFrames, scripts[s]);
    ASSERT_EQ(ref.results.size(), collectors[s].size());
    for (std::size_t t = 0; t < ref.results.size(); ++t) {
      ExpectSameResult(collectors[s][t]->result(), ref.results[t]);
    }
    EXPECT_EQ(fleet.frames_uploaded(handles[s]), ref.uploaded) << s;
    EXPECT_EQ(fleet.upload_bytes(handles[s]), ref.bytes) << s;
  }
}

TEST(EdgeFleet, StreamAndTenantChurnMidRunDrainsTails) {
  const video::SyntheticDataset dsA(SmallSpec(14, 31));
  const video::SyntheticDataset dsB(SmallSpec(14, 32));
  const video::SyntheticDataset dsC(SmallSpec(8, 33));

  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.max_batch = 3;
  EdgeFleet fleet(fx, cfg);
  video::DatasetSource sa(dsA), sb(dsB), sc(dsC);
  const StreamHandle ha = fleet.AddStream(sa);
  const StreamHandle hb = fleet.AddStream(sb);

  ResultCollector ca, cb, cc;
  std::vector<EventRecord> a_events;
  McSpec spec_a{.mc = MakeMc(fx, dsA.spec(), "windowed", 400)};
  ca.Bind(spec_a);
  fleet.Attach(ha, std::move(spec_a));
  McSpec spec_b{.mc = MakeMc(fx, dsB.spec(), "localized", 500)};
  cb.Bind(spec_b);
  fleet.Attach(hb, std::move(spec_b));
  EXPECT_EQ(fx.TapRefs(kTap), 2);

  // A few interleaved steps, then stream C joins mid-run.
  for (int i = 0; i < 3; ++i) fleet.Step();
  const StreamHandle hc = fleet.AddStream(sc);
  McSpec spec_c{.mc = MakeMc(fx, dsC.spec(), "windowed", 600)};
  cc.Bind(spec_c);
  fleet.Attach(hc, std::move(spec_c));
  EXPECT_EQ(fx.TapRefs(kTap), 3);

  for (int i = 0; i < 2; ++i) fleet.Step();

  // Stream A leaves mid-run: its tenant's window tail and K-voting state
  // drain NOW (one decision per processed frame), and its tap reference is
  // returned immediately.
  const std::int64_t a_frames = fleet.frames_processed(ha);
  ASSERT_GT(a_frames, 0);
  ASSERT_LT(a_frames, dsA.n_frames());  // genuinely mid-stream
  fleet.RemoveStream(ha);
  EXPECT_FALSE(fleet.HasStream(ha));
  EXPECT_EQ(fx.TapRefs(kTap), 2);
  EXPECT_EQ(ca.result().decisions.size(),
            static_cast<std::size_t>(a_frames));

  // The survivors run to exhaustion; then the fleet drains.
  const std::int64_t b_frames_goal = dsB.n_frames();
  while (fleet.Step() > 0) {
  }
  fleet.Drain();
  EXPECT_EQ(fleet.frames_processed(hb), b_frames_goal);
  EXPECT_EQ(fleet.frames_processed(hc), dsC.n_frames());

  // Every stream's history is bitwise-equal to a dedicated node fed exactly
  // the frames that stream processed — including the one removed mid-run
  // and the one added mid-run.
  ExpectSameResult(ca.result(),
                   RunDedicatedNode(dsA, a_frames, {{"windowed", 400}})
                       .results[0]);
  ExpectSameResult(cb.result(),
                   RunDedicatedNode(dsB, dsB.n_frames(), {{"localized", 500}})
                       .results[0]);
  ExpectSameResult(cc.result(),
                   RunDedicatedNode(dsC, dsC.n_frames(), {{"windowed", 600}})
                       .results[0]);

  // Drain released the remaining taps: the extractor early-exits again.
  EXPECT_EQ(fx.TapRefs(kTap), 0);
}

TEST(EdgeFleet, GeometryBucketsAndInvalidGeometryRejectedLoudly) {
  const video::SyntheticDataset small(SmallSpec(4, 41));
  const video::SyntheticDataset big(
      video::JacksonSpec(/*width=*/160, /*n_frames=*/4, 42));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeFleet fleet(fx, FleetConfig());
  video::DatasetSource s0(small), s1(big);
  fleet.AddStream(s0);
  EXPECT_EQ(fleet.n_buckets(), 1u);
  // A second geometry is no longer rejected — it becomes its own batch
  // bucket (the old one-fleet-per-geometry restriction is lifted; the
  // bitwise pinning lives in edge_fleet_pipeline_test).
  fleet.AddStream(s1);
  EXPECT_EQ(fleet.n_buckets(), 2u);
  // ...and a third stream of an existing geometry joins its bucket.
  video::DatasetSource s2(small);
  fleet.AddStream(s2);
  EXPECT_EQ(fleet.n_buckets(), 2u);
  const auto stats = fleet.bucket_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].width, small.spec().width);
  EXPECT_EQ(stats[0].streams, 2);
  EXPECT_EQ(stats[1].width, big.spec().width);
  EXPECT_EQ(stats[1].streams, 1);
  // What stays a loud error: a stream with no usable geometry at all...
  EXPECT_THROW(fleet.AddStream(StreamConfig{}), util::CheckError);
  // ...and a frame that contradicts its own stream's declared geometry
  // (the FF_CHECK names the stream and both sizes).
  const StreamHandle hp = fleet.AddStream(
      StreamConfig{.frame_width = small.spec().width,
                   .frame_height = small.spec().height,
                   .fps = small.spec().fps});
  try {
    fleet.Push(hp, big.RenderFrame(0));
    FAIL() << "mismatched frame must throw";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("stream " + std::to_string(hp)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(std::to_string(small.spec().width)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(std::to_string(big.spec().width)), std::string::npos)
        << msg;
  }
  EXPECT_EQ(fleet.n_streams(), 4u);
}

// A FrameSource that advertises one geometry but yields another — the kind
// of misbehaving camera the mid-gather validation must fail loudly on.
class LyingSource : public video::FrameSource {
 public:
  explicit LyingSource(const video::DatasetSpec& claimed) : claimed_(claimed) {}
  std::optional<video::Frame> Next() override {
    return video::Frame(8, 8);  // not what width()/height() promised
  }
  void Reset() override {}
  std::int64_t width() const override { return claimed_.width; }
  std::int64_t height() const override { return claimed_.height; }
  std::int64_t fps() const override { return claimed_.fps; }

 private:
  video::DatasetSpec claimed_;
};

TEST(EdgeFleet, MisbehavingSourceMidGatherLosesNoStagedFrames) {
  const video::SyntheticDataset ds(SmallSpec(4, 45));
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.enable_upload = false;
  cfg.max_batch = 4;
  EdgeFleet fleet(fx, cfg);
  const StreamHandle good = fleet.AddStream(
      StreamConfig{.frame_width = ds.spec().width,
                   .frame_height = ds.spec().height,
                   .fps = ds.spec().fps});
  fleet.Attach(good, {.mc = MakeMc(fx, ds.spec(), "localized", 450)});
  LyingSource liar(ds.spec());
  const StreamHandle bad = fleet.AddStream(liar);
  fleet.Push(good, ds.RenderFrame(0));
  fleet.Push(good, ds.RenderFrame(1));
  // The liar's first frame fails validation mid-gather; the good stream's
  // already-popped frames must be restaged, not dropped.
  EXPECT_THROW(fleet.Step(), util::CheckError);
  EXPECT_EQ(fleet.queued_frames(good), 2u);
  EXPECT_EQ(fleet.frames_processed(good), 0);
  fleet.RemoveStream(bad);
  EXPECT_EQ(fleet.Step(), 2);
  EXPECT_EQ(fleet.frames_processed(good), 2);
  fleet.Drain();
}

TEST(EdgeFleet, PushDrivenStreamQueueIsBoundedAndEquivalent) {
  const video::SyntheticDataset ds(SmallSpec(9, 51));
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.queue_capacity = 3;
  cfg.max_batch = 3;
  EdgeFleet fleet(fx, cfg);
  const StreamHandle h = fleet.AddStream(
      StreamConfig{.frame_width = ds.spec().width,
                   .frame_height = ds.spec().height,
                   .fps = ds.spec().fps});
  ResultCollector rc;
  McSpec spec{.mc = MakeMc(fx, ds.spec(), "windowed", 700)};
  rc.Bind(spec);
  fleet.Attach(h, std::move(spec));

  for (std::int64_t t = 0; t < ds.n_frames(); ++t) {
    fleet.Push(h, ds.RenderFrame(t));
    if (fleet.queued_frames(h) == 3) {
      // The queue is bounded: a fourth staged frame throws until Step()
      // makes room.
      if (t + 1 < ds.n_frames()) {
        EXPECT_THROW(fleet.Push(h, ds.RenderFrame(t + 1)), util::CheckError);
      }
      EXPECT_EQ(fleet.Step(), 3);
      EXPECT_EQ(fleet.queued_frames(h), 0u);
    }
  }
  while (fleet.Step() > 0) {
  }
  fleet.Drain();
  EXPECT_EQ(fleet.frames_processed(h), ds.n_frames());
  ExpectSameResult(
      rc.result(),
      RunDedicatedNode(ds, ds.n_frames(), {{"windowed", 700}}).results[0]);
}

TEST(EdgeFleet, BatchesFillAcrossStreamsRoundRobin) {
  // Four live streams, batch width four: every Step takes exactly one frame
  // from EACH stream — full batch parallelism with zero single-stream
  // future buffering (the whole point of the fleet).
  const std::int64_t kFrames = 5;
  std::vector<std::unique_ptr<video::SyntheticDataset>> dss;
  std::vector<std::unique_ptr<video::DatasetSource>> sources;
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.enable_upload = false;
  cfg.max_batch = 4;
  EdgeFleet fleet(fx, cfg);
  std::vector<StreamHandle> handles;
  for (int s = 0; s < 4; ++s) {
    dss.push_back(std::make_unique<video::SyntheticDataset>(
        SmallSpec(kFrames, 60 + static_cast<std::uint64_t>(s))));
    sources.push_back(std::make_unique<video::DatasetSource>(*dss.back()));
    handles.push_back(fleet.AddStream(*sources.back()));
    fleet.Attach(handles.back(),
                 {.mc = MakeMc(fx, dss.back()->spec(), "localized",
                               800 + static_cast<std::uint64_t>(s))});
  }
  for (std::int64_t step = 1; step <= kFrames; ++step) {
    EXPECT_EQ(fleet.Step(), 4);
    for (const StreamHandle h : handles) {
      EXPECT_EQ(fleet.frames_processed(h), step) << "stream " << h;
    }
  }
  EXPECT_EQ(fleet.Step(), 0);  // all sources exhausted
  EXPECT_EQ(fleet.batches_run(), kFrames);
  fleet.Drain();
  EXPECT_THROW(fleet.Step(), util::CheckError);
}

TEST(EdgeFleet, DecisionAndEventSinksCarryStreamHandles) {
  const video::SyntheticDataset ds(SmallSpec(6, 71));
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.enable_upload = false;
  EdgeFleet fleet(fx, cfg);
  video::DatasetSource src(ds);
  const StreamHandle h = fleet.AddStream(src);
  std::vector<McDecision> decisions;
  std::vector<EventRecord> events;
  auto mc = MakeMc(fx, ds.spec(), "full_frame", 900);
  const McHandle tenant = fleet.Attach(
      h, {.mc = std::move(mc),
          .threshold = 0.0f,  // every frame positive: one long event
          .on_decision = [&](const McDecision& d) { decisions.push_back(d); },
          .on_event = [&](const EventRecord& ev) { events.push_back(ev); }});
  fleet.Run();
  ASSERT_EQ(decisions.size(), static_cast<std::size_t>(ds.n_frames()));
  for (const auto& d : decisions) {
    EXPECT_EQ(d.stream, h);
    EXPECT_EQ(d.handle, tenant);
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].stream, h);
  EXPECT_EQ(events[0].begin, 0);
  EXPECT_EQ(events[0].end, ds.n_frames());
}

TEST(EdgeFleet, SinkCallingBackIntoItsOwnFleetThrowsInsteadOfHanging) {
  // Sinks fire with the fleet lock held. A sink that calls back into its
  // own fleet fails loudly instead of self-deadlocking on that lock; a call
  // into another fleet is fine.
  const video::SyntheticDataset ds(SmallSpec(4, 72));
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto cfg = FleetConfig();
  cfg.enable_upload = false;
  cfg.vote_window = 1;  // a decision per frame, delivered inside Step()
  cfg.vote_k = 1;
  EdgeFleet other(fx, cfg);
  other.AddStream(StreamConfig{.frame_width = ds.spec().width,
                               .frame_height = ds.spec().height,
                               .fps = ds.spec().fps});
  EdgeFleet fleet(fx, cfg);
  video::DatasetSource src(ds);
  const StreamHandle h = fleet.AddStream(src);
  std::size_t other_streams = 0;
  fleet.Attach(h, {.mc = MakeMc(fx, ds.spec(), "full_frame", 910),
                   .on_decision = [&](const McDecision&) {
                     other_streams = other.n_streams();
                     fleet.n_streams();
                   }});
  EXPECT_THROW(fleet.Step(), util::CheckError);
  EXPECT_EQ(other_streams, 1u);
  // The throw left the sink scope: this thread may use the fleet again.
  EXPECT_EQ(fleet.n_streams(), 1u);
}

// Runs one stream's frames end to end through an EdgeNode on the given
// extractor; used to pin the quantize=false config against the legacy path.
StreamRef RunNodeWithExtractor(dnn::FeatureExtractor& fx,
                               const video::SyntheticDataset& ds,
                               std::int64_t n,
                               const std::vector<TenantScript>& tenants) {
  EdgeNode node(fx, NodeConfig(ds.spec()));
  std::vector<std::unique_ptr<ResultCollector>> collectors;
  for (const auto& t : tenants) {
    McSpec spec{.mc = MakeMc(fx, ds.spec(), t.arch, t.seed)};
    collectors.push_back(std::make_unique<ResultCollector>());
    collectors.back()->Bind(spec);
    node.Attach(std::move(spec));
  }
  video::DatasetSource src(ds, 0, n);
  node.Run(src);
  StreamRef ref;
  for (const auto& c : collectors) ref.results.push_back(c->result());
  ref.uploaded = node.frames_uploaded();
  ref.bytes = node.upload_bytes();
  return ref;
}

TEST(EdgeFleet, QuantizeOffConfigIsBitwiseNoRegression) {
  // The int8 path is strictly opt-in: an extractor built from
  // FeatureExtractorConfig with quantize=false must drive the full pipeline
  // (trunk, MCs, smoothing, events, upload accounting) bitwise-identically
  // to the pre-config legacy constructor.
  const std::int64_t kFrames = 10;
  const video::SyntheticDataset ds(SmallSpec(kFrames, 31));
  const std::vector<TenantScript> tenants = {{"full_frame", 400},
                                             {"localized", 401}};

  const StreamRef legacy = RunDedicatedNode(ds, kFrames, tenants);
  dnn::FeatureExtractor configured(
      dnn::FeatureExtractorConfig{{.include_classifier = false},
                                  /*quantize=*/false});
  const StreamRef cfg = RunNodeWithExtractor(configured, ds, kFrames, tenants);

  ASSERT_EQ(legacy.results.size(), cfg.results.size());
  for (std::size_t t = 0; t < legacy.results.size(); ++t) {
    ExpectSameResult(cfg.results[t], legacy.results[t]);
  }
  EXPECT_EQ(cfg.uploaded, legacy.uploaded);
  EXPECT_EQ(cfg.bytes, legacy.bytes);
}

TEST(EdgeFleet, QuantizedExtractorRunsEndToEnd) {
  // Smoke for the opt-in path: a quantize=true extractor (auto-calibrated
  // from its first batch) drives the same pipeline end to end and yields a
  // full, finite decision stream.
  const std::int64_t kFrames = 10;
  const video::SyntheticDataset ds(SmallSpec(kFrames, 32));
  const std::vector<TenantScript> tenants = {{"localized", 500}};

  dnn::FeatureExtractor qfx(
      dnn::FeatureExtractorConfig{{.include_classifier = false},
                                  /*quantize=*/true});
  const StreamRef ref = RunNodeWithExtractor(qfx, ds, kFrames, tenants);
  EXPECT_TRUE(qfx.quantized_ready());
  ASSERT_EQ(ref.results.size(), 1u);
  ASSERT_EQ(ref.results[0].scores.size(), static_cast<std::size_t>(kFrames));
  for (const float s : ref.results[0].scores) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

}  // namespace
}  // namespace ff::core
