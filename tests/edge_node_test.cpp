// End-to-end EdgeNode session tests: multi-tenant filtering, decision
// alignment, upload accounting, event metadata, edge store demand-fetch,
// sink-based delivery, and session lifecycle (attach/submit/drain).
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/edge_node.hpp"
#include "metrics/event_metrics.hpp"
#include "video/dataset.hpp"
#include "video/source.hpp"

namespace ff::core {
namespace {

constexpr std::int64_t kW = 160;

video::DatasetSpec SmallSpec(std::int64_t frames, std::uint64_t seed) {
  auto spec = video::JacksonSpec(kW, frames, seed);
  spec.mean_event_len = 12;
  return spec;
}

EdgeNodeConfig MakeConfig(const video::DatasetSpec& spec) {
  EdgeNodeConfig cfg;
  cfg.frame_width = spec.width;
  cfg.frame_height = spec.height;
  cfg.fps = spec.fps;
  cfg.upload_bitrate_bps = 60'000;
  return cfg;
}

// Attaches a collector-backed MC; the collector must outlive the node.
McHandle AttachCollected(EdgeNode& node, ResultCollector& collector,
                         std::unique_ptr<Microclassifier> mc,
                         float threshold = 0.5f) {
  McSpec spec;
  spec.mc = std::move(mc);
  spec.threshold = threshold;
  collector.Bind(spec);
  return node.Attach(std::move(spec));
}

TEST(EdgeNode, SingleMcProducesAlignedDecisions) {
  const video::SyntheticDataset ds(SmallSpec(40, 7));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNode node(fx, MakeConfig(ds.spec()));
  ResultCollector rc;
  AttachCollected(node, rc,
                  MakeMicroclassifier("full_frame",
                                      {.name = "mc0", .tap = dnn::kLateTap},
                                      fx, ds.spec().height, ds.spec().width));
  video::DatasetSource src(ds);
  const std::int64_t n = node.Run(src);
  EXPECT_EQ(n, 40);
  const McResult& r = rc.result();
  EXPECT_EQ(r.first_frame, 0);
  EXPECT_EQ(r.scores.size(), 40u);
  EXPECT_EQ(r.raw.size(), 40u);
  EXPECT_EQ(r.decisions.size(), 40u);
  EXPECT_EQ(r.event_ids.size(), 40u);
}

TEST(EdgeNode, WindowedMcAlsoYieldsOneDecisionPerFrame) {
  const video::SyntheticDataset ds(SmallSpec(25, 8));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNodeConfig cfg = MakeConfig(ds.spec());
  cfg.enable_upload = false;
  EdgeNode node(fx, cfg);
  ResultCollector rc;
  AttachCollected(node, rc,
                  MakeMicroclassifier("windowed",
                                      {.name = "win", .tap = dnn::kMidTap},
                                      fx, ds.spec().height, ds.spec().width));
  video::DatasetSource src(ds);
  node.Run(src);
  EXPECT_EQ(rc.result().decisions.size(), 25u);
}

TEST(EdgeNode, MultiTenantMixedArchitectures) {
  const video::SyntheticDataset ds(SmallSpec(30, 9));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNode node(fx, MakeConfig(ds.spec()));
  std::vector<std::unique_ptr<ResultCollector>> collectors;
  int i = 0;
  for (const char* arch : {"full_frame", "localized", "windowed"}) {
    McConfig mc_cfg{.name = std::string("mc_") + arch,
                    .tap = arch == std::string("full_frame") ? dnn::kLateTap
                                                             : dnn::kMidTap,
                    .seed = static_cast<std::uint64_t>(40 + i++)};
    collectors.push_back(std::make_unique<ResultCollector>());
    AttachCollected(node, *collectors.back(),
                    MakeMicroclassifier(arch, mc_cfg, fx, ds.spec().height,
                                        ds.spec().width));
  }
  EXPECT_EQ(node.n_mcs(), 3u);
  video::DatasetSource src(ds);
  node.Run(src);
  for (const auto& rc : collectors) {
    EXPECT_EQ(rc->result().decisions.size(), 30u) << rc->result().name;
  }
  // Phase timers recorded both phases.
  EXPECT_GT(node.base_dnn_seconds(), 0.0);
  EXPECT_GT(node.mc_seconds(), 0.0);
}

TEST(EdgeNode, SerialAndPooledMcPhasesAgreeExactly) {
  // Co-tenancy is pure scheduling: each MC alone on its own node (one
  // phase-2 task, run inline) decides exactly as it does beside three
  // others on one node (four pool tasks).
  const video::SyntheticDataset ds(SmallSpec(20, 19));
  dnn::FeatureExtractor fx({.include_classifier = false});
  auto run = [&](const std::vector<int>& mcs) {
    EdgeNode node(fx, MakeConfig(ds.spec()));
    std::vector<std::unique_ptr<ResultCollector>> collectors;
    for (const int m : mcs) {
      collectors.push_back(std::make_unique<ResultCollector>());
      AttachCollected(
          node, *collectors.back(),
          MakeMicroclassifier(m % 2 == 0 ? "full_frame" : "windowed",
                              {.name = "mc" + std::to_string(m),
                               .tap = dnn::kMidTap,
                               .seed = static_cast<std::uint64_t>(70 + m)},
                              fx, ds.spec().height, ds.spec().width),
          0.5f);
    }
    video::DatasetSource src(ds);
    node.Run(src);
    std::vector<McResult> out;
    for (auto& rc : collectors) out.push_back(rc->result());
    return out;
  };
  const auto pooled = run({0, 1, 2, 3});
  ASSERT_EQ(pooled.size(), 4u);
  for (int m = 0; m < 4; ++m) {
    const auto alone = run({m});
    ASSERT_EQ(alone.size(), 1u);
    const McResult& p = pooled[static_cast<std::size_t>(m)];
    EXPECT_EQ(alone[0].scores, p.scores) << m;
    EXPECT_EQ(alone[0].decisions, p.decisions) << m;
    EXPECT_EQ(alone[0].event_ids, p.event_ids) << m;
  }
}

TEST(EdgeNode, EventIdsAreMonotonicAndMatchDecisions) {
  const video::SyntheticDataset ds(SmallSpec(60, 10));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNodeConfig cfg = MakeConfig(ds.spec());
  cfg.enable_upload = false;
  EdgeNode node(fx, cfg);
  // Threshold 0 => every frame positive; threshold 1.1 => none.
  ResultCollector rc_all, rc_none;
  AttachCollected(node, rc_all,
                  MakeMicroclassifier("full_frame",
                                      {.name = "all", .tap = dnn::kLateTap},
                                      fx, ds.spec().height, ds.spec().width),
                  0.0f);
  AttachCollected(
      node, rc_none,
      MakeMicroclassifier("full_frame",
                          {.name = "none", .tap = dnn::kLateTap, .seed = 9},
                          fx, ds.spec().height, ds.spec().width),
      1.1f);
  video::DatasetSource src(ds);
  node.Run(src);

  const McResult& all = rc_all.result();
  EXPECT_EQ(all.events.size(), 1u);  // one continuous event
  EXPECT_EQ(all.events[0].begin, 0);
  EXPECT_EQ(all.events[0].end, 60);
  for (const auto id : all.event_ids) EXPECT_EQ(id, 0);

  const McResult& none = rc_none.result();
  EXPECT_TRUE(none.events.empty());
  for (const auto d : none.decisions) EXPECT_EQ(d, 0);
  for (const auto id : none.event_ids) EXPECT_EQ(id, -1);
}

TEST(EdgeNode, UploadsExactlyMatchedFrames) {
  const video::SyntheticDataset ds(SmallSpec(30, 11));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNode node(fx, MakeConfig(ds.spec()));
  std::vector<FrameMetadata> uploaded;
  node.SetUploadSink(
      [&](const UploadPacket& p) { uploaded.push_back(p.metadata); });
  ResultCollector rc;
  AttachCollected(node, rc,
                  MakeMicroclassifier("full_frame",
                                      {.name = "all", .tap = dnn::kLateTap},
                                      fx, ds.spec().height, ds.spec().width),
                  0.0f);  // everything matches
  video::DatasetSource src(ds);
  node.Run(src);
  EXPECT_EQ(node.frames_uploaded(), 30);
  EXPECT_EQ(uploaded.size(), 30u);
  EXPECT_GT(node.upload_bytes(), 0u);
  // Frame metadata carries the (MC -> event) membership.
  for (const auto& meta : uploaded) {
    ASSERT_EQ(meta.memberships.size(), 1u);
    EXPECT_EQ(meta.memberships[0].first, "all");
    EXPECT_EQ(meta.memberships[0].second, 0);
  }
}

TEST(EdgeNode, NoMatchesMeansNoUploadBytes) {
  const video::SyntheticDataset ds(SmallSpec(20, 12));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNode node(fx, MakeConfig(ds.spec()));
  ResultCollector rc;
  AttachCollected(node, rc,
                  MakeMicroclassifier("full_frame",
                                      {.name = "none", .tap = dnn::kLateTap},
                                      fx, ds.spec().height, ds.spec().width),
                  1.1f);
  video::DatasetSource src(ds);
  node.Run(src);
  EXPECT_EQ(node.frames_uploaded(), 0);
  EXPECT_EQ(node.upload_bytes(), 0u);
  EXPECT_DOUBLE_EQ(node.UploadBitrateBps(), 0.0);
}

TEST(EdgeNode, FilteringSavesBandwidthVsUploadingEverything) {
  // The core bandwidth claim (§4.3) in miniature: a filter that matches only
  // ground-truth-positive frames uses far less uplink than uploading all
  // frames at the same quality. Use ground truth as an oracle MC via
  // threshold trickery: run twice with threshold 0 (all) vs oracle labels.
  const video::SyntheticDataset ds(SmallSpec(60, 13));

  auto run_with_labels =
      [&](const std::vector<std::uint8_t>& labels) -> std::uint64_t {
    codec::EncoderConfig ec;
    ec.width = ds.spec().width;
    ec.height = ds.spec().height;
    ec.fps = ds.spec().fps;
    ec.target_bitrate_bps = 60'000;
    codec::Encoder enc(ec);
    std::int64_t last = -2;
    for (std::int64_t t = 0; t < ds.n_frames(); ++t) {
      if (!labels[static_cast<std::size_t>(t)]) continue;
      enc.EncodeFrame(ds.RenderFrame(t), t != last + 1);
      last = t;
    }
    return enc.total_bytes();
  };

  const std::uint64_t oracle_bytes = run_with_labels(ds.labels());
  const std::uint64_t all_bytes =
      run_with_labels(std::vector<std::uint8_t>(ds.n_frames(), 1));
  EXPECT_LT(oracle_bytes * 2, all_bytes);  // at least 2x saving here
}

TEST(EdgeNode, EdgeStoreServesDemandFetch) {
  const video::SyntheticDataset ds(SmallSpec(25, 14));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNodeConfig cfg = MakeConfig(ds.spec());
  cfg.edge_store_capacity = 10;
  EdgeNode node(fx, cfg);
  ResultCollector rc;
  AttachCollected(node, rc,
                  MakeMicroclassifier("full_frame",
                                      {.name = "m", .tap = dnn::kLateTap},
                                      fx, ds.spec().height, ds.spec().width));
  video::DatasetSource src(ds);
  node.Run(src);

  EdgeStore* store = node.edge_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->end_available(), 25);
  EXPECT_EQ(store->first_available(), 15);  // capacity 10
  // Fetch a clip overlapping the stored window.
  const auto clip = store->FetchClip(18, 22, 80'000, ds.spec().fps);
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->chunks.size(), 4u);
  EXPECT_GT(clip->bytes, 0u);
  // Entirely evicted range.
  EXPECT_FALSE(store->FetchClip(0, 10, 80'000, ds.spec().fps).has_value());
}

TEST(EdgeNode, RejectsWrongDimsAndUnknownHandles) {
  const video::SyntheticDataset ds(SmallSpec(5, 15));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNode node(fx, MakeConfig(ds.spec()));
  const McHandle h = node.Attach(
      {.mc = MakeMicroclassifier("full_frame",
                                 {.name = "m", .tap = dnn::kLateTap}, fx,
                                 ds.spec().height, ds.spec().width)});
  node.Submit(ds.RenderFrame(0));
  video::Frame wrong(8, 8);
  EXPECT_THROW(node.Submit(wrong), util::CheckError);
  EXPECT_TRUE(node.IsAttached(h));
  EXPECT_THROW(node.Detach(h + 1), util::CheckError);
  node.Detach(h);
  EXPECT_FALSE(node.IsAttached(h));
  EXPECT_THROW(node.Detach(h), util::CheckError);
}

TEST(EdgeNode, BadFrameMidSpanLeavesNoState) {
  const video::SyntheticDataset ds(SmallSpec(6, 18));
  const auto run = [&](bool with_bad_span) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    EdgeNode node(fx, MakeConfig(ds.spec()));
    ResultCollector rc;
    AttachCollected(node, rc,
                    MakeMicroclassifier("windowed",
                                        {.name = "w", .tap = dnn::kMidTap},
                                        fx, ds.spec().height,
                                        ds.spec().width));
    std::vector<video::Frame> frames;
    for (std::int64_t t = 0; t < ds.n_frames(); ++t) {
      frames.push_back(ds.RenderFrame(t));
    }
    const std::span<const video::Frame> all(frames);
    node.Submit(all.subspan(0, 3));
    if (with_bad_span) {
      const std::size_t processed = static_cast<std::size_t>(
          node.frames_processed());
      const std::size_t pending = node.pending_frames();
      const std::size_t decided = rc.result().decisions.size();
      const std::int64_t offered = node.fleet_stats().frames_offered;
      EXPECT_GT(pending, 0u);  // the windowed tenant lags: state to protect
      // Two good frames, then one of the wrong geometry at index 2.
      const std::vector<video::Frame> bad = {frames[3], frames[4],
                                             video::Frame(8, 8)};
      EXPECT_THROW(node.Submit(bad), util::CheckError);
      EXPECT_EQ(static_cast<std::size_t>(node.frames_processed()), processed);
      EXPECT_EQ(node.pending_frames(), pending);
      EXPECT_EQ(rc.result().decisions.size(), decided);
      // Nothing of the span reached the fleet: no frame offered or queued.
      const FleetStats fs = node.fleet_stats();
      EXPECT_EQ(fs.frames_offered, offered);
      EXPECT_EQ(fs.streams.size(), 1u);
      EXPECT_EQ(fs.streams.at(0).queue_depth, 0);
    }
    node.Submit(all.subspan(3));
    node.Drain();
    return rc.result();
  };
  // The rejected span left no trace: the stream continues exactly as if it
  // had never been submitted.
  const McResult clean = run(false);
  const McResult after_bad = run(true);
  EXPECT_EQ(clean.scores, after_bad.scores);
  EXPECT_EQ(clean.decisions, after_bad.decisions);
  EXPECT_EQ(clean.events.size(), after_bad.events.size());
  EXPECT_EQ(after_bad.decisions.size(),
            static_cast<std::size_t>(ds.n_frames()));
}

TEST(EdgeNode, DrainedNodeRefusesFurtherWork) {
  const video::SyntheticDataset ds(SmallSpec(5, 16));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNode node(fx, MakeConfig(ds.spec()));
  ResultCollector rc;
  AttachCollected(node, rc,
                  MakeMicroclassifier("full_frame",
                                      {.name = "m", .tap = dnn::kLateTap},
                                      fx, ds.spec().height, ds.spec().width));
  node.Submit(ds.RenderFrame(0));
  node.Drain();
  EXPECT_EQ(node.n_mcs(), 0u);             // all tenants drained out
  EXPECT_EQ(rc.result().decisions.size(), 1u);
  node.Drain();                            // idempotent
  EXPECT_THROW(node.Submit(ds.RenderFrame(1)), util::CheckError);
  EXPECT_THROW(
      node.Attach({.mc = MakeMicroclassifier(
                       "full_frame", {.name = "late", .tap = dnn::kLateTap},
                       fx, ds.spec().height, ds.spec().width)}),
      util::CheckError);
}

TEST(EdgeNode, SinklessTenantsKeepMemoryBounded) {
  // Without collector sinks, nothing per-frame accumulates: the pending
  // buffer stays bounded by the decision lag even on a "long" stream.
  const video::SyntheticDataset ds(SmallSpec(50, 17));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNode node(fx, MakeConfig(ds.spec()));
  node.Attach({.mc = MakeMicroclassifier("windowed",
                                         {.name = "w", .tap = dnn::kMidTap},
                                         fx, ds.spec().height,
                                         ds.spec().width),
               .threshold = 0.5f});
  // Windowed delay 2 + K-voting delay 2 => at most 5 undecided frames.
  const std::size_t max_lag = 5;
  for (std::int64_t t = 0; t < ds.n_frames(); ++t) {
    node.Submit(ds.RenderFrame(t));
    EXPECT_LE(node.pending_frames(), max_lag) << "frame " << t;
  }
  node.Drain();
  EXPECT_EQ(node.pending_frames(), 0u);
}

}  // namespace
}  // namespace ff::core
