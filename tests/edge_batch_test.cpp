// Batched-vs-sequential equivalence of the frame path (the PR 3 batching
// contract): FeatureExtractor::Extract on an N-frame batch must match N
// single-frame calls bitwise, and EdgeNode::Submit(span) must yield exactly
// the per-tenant decision stream of frame-at-a-time Submit — including
// tenants attaching and detaching at batch boundaries.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "core/edge_node.hpp"
#include "util/rng.hpp"
#include "video/dataset.hpp"

namespace ff {
namespace {

void ExpectBitwiseEqual(const nn::Tensor& a, const nn::Tensor& b,
                        const std::string& what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.elements()) *
                               sizeof(float)))
      << what;
}

TEST(ExtractBatch, MatchesSingleFrameCallsBitwise) {
  dnn::FeatureExtractor fx({.include_classifier = false});
  fx.RequestTap("conv3_2/sep");
  fx.RequestTap("conv2_1/sep");

  const std::int64_t kN = 3, kH = 64, kW = 96;
  nn::Tensor batch(nn::Shape{kN, 3, kH, kW});
  util::Pcg32 rng(7);
  batch.FillNormal(rng, 0.7f);

  dnn::FeatureMaps batched = fx.Extract(batch);
  for (std::int64_t n = 0; n < kN; ++n) {
    dnn::FeatureMaps single = fx.Extract(batch.Slice(n));
    ASSERT_EQ(batched.size(), single.size());
    for (const auto& [tap, act] : single) {
      ExpectBitwiseEqual(batched.at(tap).Slice(n), act,
                         "tap " + tap + " image " + std::to_string(n));
    }
  }
}

// The trunk's image split (nn::ForEachImageSplit): with T = the pool width,
// a batch of N >= T frames runs T pool chunks of whole images and the
// N mod T rest with the images × out_c layer split. On both sides of each
// boundary, every image of every tap must equal a batch-1 Extract bitwise.
// Both taps matter: conv2_1/sep is copied out mid-walk, conv3_2/sep ends it.
class ExtractSplitTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr std::int64_t kH = 64, kW = 96;

  static std::vector<std::int64_t> BatchSizes() {
    const auto t = static_cast<std::int64_t>(nn::ImageSplitWidth());
    return {1, t - 1, t, t + 1, 2 * t + 1};
  }

  static nn::Tensor Frames(std::int64_t n) {
    nn::Tensor frames(nn::Shape{n, 3, kH, kW});
    util::Pcg32 rng(11);
    frames.FillUniform(rng, -1.0f, 1.0f);
    return frames;
  }
};

TEST_P(ExtractSplitTest, BatchedMatchesFrameAtATimeAroundPoolWidth) {
  const bool quantize = GetParam();
  dnn::FeatureExtractor fx(dnn::FeatureExtractorConfig{
      .model = {.include_classifier = false}, .quantize = quantize});
  fx.RequestTap("conv2_1/sep");
  fx.RequestTap("conv3_2/sep");
  const std::vector<std::int64_t> sizes = BatchSizes();
  const nn::Tensor frames = Frames(sizes.back());
  // One int8 program for every call, calibrated before any of them.
  if (quantize) fx.CalibrateQuantized(frames);

  std::vector<dnn::FeatureMaps> single;
  for (std::int64_t n = 0; n < sizes.back(); ++n) {
    single.push_back(fx.Extract(frames.Slice(n)));
  }
  for (const std::int64_t batch : sizes) {
    const dnn::FeatureMaps batched =
        fx.Extract(tensor::TensorView(frames).Prefix(batch));
    ASSERT_EQ(batched.size(), 2u);
    for (std::int64_t n = 0; n < batch; ++n) {
      for (const auto& [tap, act] : single[static_cast<std::size_t>(n)]) {
        ASSERT_EQ(batched.at(tap).shape().n, batch);
        ExpectBitwiseEqual(batched.at(tap).Slice(n), act,
                           "batch " + std::to_string(batch) + " tap " + tap +
                               " image " + std::to_string(n));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FloatAndInt8, ExtractSplitTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Int8" : "Float";
                         });

TEST(ExtractBatch, PreprocessIntoMatchesPreprocess) {
  const auto ds = video::SyntheticDataset(video::JacksonSpec(96, 4, 5));
  nn::Tensor batch(nn::Shape{3, 3, ds.spec().height, ds.spec().width});
  for (std::int64_t i = 0; i < 3; ++i) {
    const video::Frame f = ds.RenderFrame(i);
    dnn::PreprocessRgbInto(batch, i, f.r(), f.g(), f.b());
    const nn::Tensor single =
        dnn::PreprocessRgb(f.r(), f.g(), f.b(), f.height(), f.width());
    ExpectBitwiseEqual(batch.Slice(i), single,
                       "preprocess image " + std::to_string(i));
  }
}

// Fixture running the same stream through a frame-at-a-time node and a
// batched node with identical tenant churn, then comparing every sink's
// output exactly.
class BatchedSubmitTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kWidth = 128;
  static constexpr std::int64_t kFrames = 12;

  BatchedSubmitTest()
      : ds_(video::SyntheticDataset(video::JacksonSpec(kWidth, kFrames, 9))) {
    for (std::int64_t i = 0; i < kFrames; ++i) {
      frames_.push_back(ds_.RenderFrame(i));
    }
  }

  core::EdgeNodeConfig Config() const {
    core::EdgeNodeConfig cfg;
    cfg.frame_width = ds_.spec().width;
    cfg.frame_height = ds_.spec().height;
    cfg.fps = ds_.spec().fps;
    cfg.enable_upload = true;
    return cfg;
  }

  std::unique_ptr<core::Microclassifier> MakeMc(dnn::FeatureExtractor& fx,
                                                const std::string& arch,
                                                std::uint64_t seed) const {
    return core::MakeMicroclassifier(
        arch, {.name = arch, .tap = "conv3_2/sep", .seed = seed}, fx,
        ds_.spec().height, ds_.spec().width);
  }

  static void ExpectSameResult(const core::McResult& a,
                               const core::McResult& b) {
    EXPECT_EQ(a.first_frame, b.first_frame) << a.name;
    ASSERT_EQ(a.scores.size(), b.scores.size()) << a.name;
    for (std::size_t i = 0; i < a.scores.size(); ++i) {
      // Bitwise, not approximate: the batched phase 1 computes each image
      // exactly as the single-frame pass does.
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

  video::SyntheticDataset ds_;
  std::vector<video::Frame> frames_;
};

TEST_F(BatchedSubmitTest, SpanSubmitMatchesFrameAtATimeWithChurn) {
  // Script, expressed in frame indices: tenant A (windowed) lives for the
  // whole stream; tenant B (localized) attaches at frame 3 and detaches at
  // frame 8; tenant C (full_frame) attaches at frame 8. The batched node
  // runs the same script with Attach/Detach on its batch boundaries
  // (3 | 1 | 4 | 4), which line up with those frames.
  auto run = [&](auto&& submit_all) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    core::EdgeNode node(fx, Config());
    auto ca = std::make_unique<core::ResultCollector>();
    auto cb = std::make_unique<core::ResultCollector>();
    auto cc = std::make_unique<core::ResultCollector>();
    submit_all(node, fx, *ca, *cb, *cc);
    struct Out {
      core::McResult a, b, c;
      std::int64_t uploaded;
      std::uint64_t bytes;
    };
    return Out{ca->result(), cb->result(), cc->result(),
               node.frames_uploaded(), node.upload_bytes()};
  };

  const auto seq = run([&](core::EdgeNode& node, dnn::FeatureExtractor& fx,
                           core::ResultCollector& ca, core::ResultCollector& cb,
                           core::ResultCollector& cc) {
    core::McSpec sa{.mc = MakeMc(fx, "windowed", 100)};
    ca.Bind(sa);
    const auto ha = node.Attach(std::move(sa));
    core::McHandle hb = -1;
    for (std::int64_t i = 0; i < kFrames; ++i) {
      if (i == 3) {
        core::McSpec sb{.mc = MakeMc(fx, "localized", 200)};
        cb.Bind(sb);
        hb = node.Attach(std::move(sb));
      }
      if (i == 8) {
        node.Detach(hb);
        core::McSpec sc{.mc = MakeMc(fx, "full_frame", 300)};
        cc.Bind(sc);
        node.Attach(std::move(sc));
      }
      node.Submit(frames_[static_cast<std::size_t>(i)]);
    }
    node.Drain();
    (void)ha;
  });

  const auto batched = run([&](core::EdgeNode& node,
                               dnn::FeatureExtractor& fx,
                               core::ResultCollector& ca,
                               core::ResultCollector& cb,
                               core::ResultCollector& cc) {
    const std::span<const video::Frame> all(frames_);
    core::McSpec sa{.mc = MakeMc(fx, "windowed", 100)};
    ca.Bind(sa);
    node.Attach(std::move(sa));
    node.Submit(all.subspan(0, 3));
    core::McSpec sb{.mc = MakeMc(fx, "localized", 200)};
    cb.Bind(sb);
    const auto hb = node.Attach(std::move(sb));
    node.Submit(all.subspan(3, 1));
    node.Submit(all.subspan(4, 4));
    node.Detach(hb);
    core::McSpec sc{.mc = MakeMc(fx, "full_frame", 300)};
    cc.Bind(sc);
    node.Attach(std::move(sc));
    node.Submit(all.subspan(8, 4));
    node.Drain();
  });

  ExpectSameResult(seq.a, batched.a);
  ExpectSameResult(seq.b, batched.b);
  ExpectSameResult(seq.c, batched.c);
  EXPECT_EQ(seq.uploaded, batched.uploaded);
  EXPECT_EQ(seq.bytes, batched.bytes);
}

TEST_F(BatchedSubmitTest, RunWithSubmitBatchMatchesFrameAtATime) {
  auto run = [&](std::int64_t batch) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    auto cfg = Config();
    cfg.submit_batch = batch;
    core::EdgeNode node(fx, cfg);
    core::McSpec spec{.mc = MakeMc(fx, "windowed", 100)};
    auto collector = std::make_unique<core::ResultCollector>();
    collector->Bind(spec);
    node.Attach(std::move(spec));
    video::DatasetSource src(ds_);
    node.Run(src);
    return collector->result();
  };
  const auto one = run(1);
  // 5 does not divide 12: the tail batch is short.
  const auto five = run(5);
  ExpectSameResult(one, five);
}

TEST_F(BatchedSubmitTest, EmptyAndTenantlessSpansAreSafe) {
  dnn::FeatureExtractor fx({.include_classifier = false});
  core::EdgeNode node(fx, Config());
  node.Submit(std::span<const video::Frame>{});  // no-op
  EXPECT_EQ(node.frames_processed(), 0);
  // Tenantless batch: frames pass straight through (nothing can match).
  node.Submit(std::span<const video::Frame>(frames_.data(), 4));
  EXPECT_EQ(node.frames_processed(), 4);
  EXPECT_EQ(node.frames_uploaded(), 0);
  EXPECT_EQ(node.pending_frames(), 0u);
  node.Drain();
}

}  // namespace
}  // namespace ff
