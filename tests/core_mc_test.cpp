// Microclassifier tests: crop translation, architecture geometry (Fig. 2),
// marginal cost accounting, windowed buffer reuse equivalence, factory.
#include <gtest/gtest.h>

#include "core/crop.hpp"
#include "core/microclassifier.hpp"
#include "dnn/feature_extractor.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace ff::core {
namespace {

constexpr std::int64_t kW = 160, kH = 96;

dnn::FeatureExtractor& SharedFx() {
  static dnn::FeatureExtractor* fx = [] {
    auto* p = new dnn::FeatureExtractor({.include_classifier = false});
    p->RequestTap(dnn::kMidTap);
    p->RequestTap(dnn::kLateTap);
    return p;
  }();
  return *fx;
}

dnn::FeatureMaps ExtractTestFrame(std::uint64_t seed) {
  nn::Tensor in(nn::Shape{1, 3, kH, kW});
  util::Pcg32 rng(seed);
  in.FillUniform(rng, -1.0f, 1.0f);
  return SharedFx().Extract(in);
}

TEST(CropRect, OuterRoundingCoversPixelRegion) {
  // Pixel rows [539, 1079) at stride 16 on a 67-row grid: 539/16 = 33.7 -> 33
  // (floor), ceil(1079/16) = 68 -> clamped to 67.
  const tensor::Rect r =
      PixelRectToFeatureRect({539, 0, 1079, 1920}, 16, 67, 120);
  EXPECT_EQ(r.y0, 33);
  EXPECT_EQ(r.y1, 67);
  EXPECT_EQ(r.x0, 0);
  EXPECT_EQ(r.x1, 120);
}

TEST(CropRect, NeverEmptyEvenForTinyRegions) {
  const tensor::Rect r = PixelRectToFeatureRect({5, 5, 6, 6}, 16, 10, 10);
  EXPECT_EQ(r.height(), 1);
  EXPECT_EQ(r.width(), 1);
}

TEST(CropRect, ClampsToGrid) {
  const tensor::Rect r = PixelRectToFeatureRect({0, 0, 5000, 5000}, 32, 10, 12);
  EXPECT_EQ(r.y1, 10);
  EXPECT_EQ(r.x1, 12);
}

TEST(Microclassifier, CropReducesInputShape) {
  McConfig cfg{.name = "crop_mc", .tap = dnn::kMidTap};
  cfg.pixel_crop = tensor::Rect{kH / 2, 0, kH, kW};  // bottom half
  LocalizedBinaryClassifierMc mc(cfg, SharedFx(), kH, kW);
  const nn::Shape full = SharedFx().TapShape(dnn::kMidTap, kH, kW);
  EXPECT_EQ(mc.input_shape().c, full.c);
  EXPECT_LT(mc.input_shape().h, full.h);
  EXPECT_EQ(mc.input_shape().w, full.w);
}

TEST(Microclassifier, CropReducesMarginalCostProportionally) {
  // Paper §3.2: "this reduces an MC's computation load proportional to the
  // decrease in its input size".
  McConfig full{.name = "full", .tap = dnn::kMidTap, .seed = 5};
  McConfig half{.name = "half", .tap = dnn::kMidTap, .seed = 5};
  half.pixel_crop = tensor::Rect{kH / 2, 0, kH, kW};
  FullFrameObjectDetectorMc a(full, SharedFx(), kH, kW);
  FullFrameObjectDetectorMc b(half, SharedFx(), kH, kW);
  const double ratio = static_cast<double>(b.MarginalMacsPerFrame()) /
                       static_cast<double>(a.MarginalMacsPerFrame());
  const double area_ratio =
      static_cast<double>(b.input_shape().plane()) /
      static_cast<double>(a.input_shape().plane());
  EXPECT_NEAR(ratio, area_ratio, 0.05);
}

TEST(FullFrameMc, OutputsProbability) {
  FullFrameObjectDetectorMc mc({.name = "ff", .tap = dnn::kLateTap},
                               SharedFx(), kH, kW);
  const auto fm = ExtractTestFrame(1);
  const float p = mc.Infer(fm);
  EXPECT_GT(p, 0.0f);
  EXPECT_LT(p, 1.0f);
  // Deterministic.
  EXPECT_FLOAT_EQ(mc.Infer(fm), p);
}

TEST(FullFrameMc, ArchitectureMatchesFig2a) {
  FullFrameObjectDetectorMc mc({.name = "ff", .tap = dnn::kLateTap},
                               SharedFx(), kH, kW);
  // 1024 -> 32 -> 32 -> 1, max, sigmoid.
  auto& net = mc.net();
  ASSERT_EQ(net.n_layers(), 7u);
  const auto trace = net.CostTrace(mc.input_shape());
  EXPECT_EQ(trace[0].out_shape.c, 32);
  EXPECT_EQ(trace[2].out_shape.c, 32);
  EXPECT_EQ(trace[4].out_shape.c, 1);
  EXPECT_EQ(trace[5].out_shape.plane(), 1);  // global max
}

TEST(LocalizedMc, ArchitectureMatchesFig2b) {
  LocalizedBinaryClassifierMc mc({.name = "loc", .tap = dnn::kMidTap},
                                 SharedFx(), kH, kW);
  auto& net = mc.net();
  const auto trace = net.CostTrace(mc.input_shape());
  // sep1 produces 16 channels at full spatial dims; sep2 produces 32 at
  // ceil(half) dims; then FC 200 and FC 1.
  EXPECT_EQ(trace[1].out_shape.c, 16);
  EXPECT_EQ(trace[1].out_shape.h, mc.input_shape().h);
  EXPECT_EQ(trace[4].out_shape.c, 32);
  EXPECT_EQ(trace[4].out_shape.h, (mc.input_shape().h + 1) / 2);
  EXPECT_EQ(trace[6].out_shape.c, 200);
  EXPECT_EQ(trace[8].out_shape.c, 1);
}

TEST(LocalizedMc, InferProducesValidProbability) {
  LocalizedBinaryClassifierMc mc({.name = "loc", .tap = dnn::kMidTap},
                                 SharedFx(), kH, kW);
  const auto fm = ExtractTestFrame(2);
  const float p = mc.Infer(fm);
  EXPECT_GE(p, 0.0f);
  EXPECT_LE(p, 1.0f);
}

TEST(WindowedMc, DelayIsHalfWindow) {
  WindowedLocalizedMc mc({.name = "win", .tap = dnn::kMidTap}, SharedFx(), kH,
                         kW);
  EXPECT_EQ(mc.window(), 5);
  EXPECT_EQ(mc.DecisionDelay(), 2);
}

TEST(WindowedMc, BufferReuseMatchesRecompute) {
  // The reuse optimization must be a pure optimization: identical outputs.
  McConfig cfg{.name = "win", .tap = dnn::kMidTap, .seed = 77};
  WindowedLocalizedMc reuse(cfg, SharedFx(), kH, kW, 5, true);
  WindowedLocalizedMc naive(cfg, SharedFx(), kH, kW, 5, false);
  for (std::uint64_t t = 0; t < 8; ++t) {
    const auto fm = ExtractTestFrame(100 + t);
    const float a = reuse.Infer(fm);
    const float b = naive.Infer(fm);
    ASSERT_NEAR(a, b, 1e-5f) << "frame " << t;
  }
}

TEST(WindowedMc, ReuseSavesReduceCost) {
  WindowedLocalizedMc mc({.name = "win", .tap = dnn::kMidTap}, SharedFx(), kH,
                         kW);
  EXPECT_LT(mc.MarginalMacsPerFrame(), mc.MarginalMacsWithoutReuse());
  // Saving = (W-1) x reduce conv cost.
  const auto saving =
      mc.MarginalMacsWithoutReuse() - mc.MarginalMacsPerFrame();
  EXPECT_EQ(saving % 4, 0u);  // divisible by W-1 = 4
}

TEST(WindowedMc, ResetClearsTemporalState) {
  const auto fm1 = ExtractTestFrame(11);
  const auto fm2 = ExtractTestFrame(12);
  for (const bool reuse : {true, false}) {
    SCOPED_TRACE(reuse ? "reuse_buffers" : "recompute");
    WindowedLocalizedMc mc({.name = "win", .tap = dnn::kMidTap, .seed = 3},
                           SharedFx(), kH, kW,
                           WindowedLocalizedMc::kDefaultWindow, reuse);
    const float first = mc.Infer(fm1);
    mc.Infer(fm2);
    mc.ResetTemporalState();
    EXPECT_FLOAT_EQ(mc.Infer(fm1), first);  // same as a fresh stream
  }
}

TEST(Microclassifier, MarginalCostOrdering) {
  // At identical taps/crops: full-frame (pure 1x1) is cheapest per the
  // paper's design; windowed is the most expensive of the three.
  McConfig base{.name = "x", .tap = dnn::kMidTap};
  FullFrameObjectDetectorMc ff(
      {.name = "a", .tap = dnn::kLateTap}, SharedFx(), kH, kW);
  LocalizedBinaryClassifierMc loc(base, SharedFx(), kH, kW);
  WindowedLocalizedMc win({.name = "w", .tap = dnn::kMidTap}, SharedFx(), kH,
                          kW);
  EXPECT_LT(ff.MarginalMacsPerFrame(), win.MarginalMacsPerFrame());
  EXPECT_LT(loc.MarginalMacsPerFrame(), win.MarginalMacsPerFrame());
}

TEST(Microclassifier, MarginalCostTinyVsBaseDnn) {
  // The core economics (paper §3.1): MC marginal cost is a small fraction of
  // the base DNN's per-frame cost.
  FullFrameObjectDetectorMc mc({.name = "ff", .tap = dnn::kLateTap},
                               SharedFx(), kH, kW);
  const auto base = SharedFx().MacsPerFrame(kH, kW);
  EXPECT_LT(mc.MarginalMacsPerFrame() * 10, base);
}

TEST(Factory, BuildsAllArchitecturesAndRejectsUnknown) {
  for (const char* arch : {"full_frame", "localized", "windowed"}) {
    auto mc = MakeMicroclassifier(arch, {.name = arch, .tap = dnn::kMidTap},
                                  SharedFx(), kH, kW);
    ASSERT_NE(mc, nullptr);
    EXPECT_EQ(mc->name(), arch);
  }
  EXPECT_THROW(MakeMicroclassifier("mystery", {.name = "m"}, SharedFx(), kH,
                                   kW),
               util::CheckError);
}

TEST(Microclassifier, MissingTapInFeatureMapsThrows) {
  LocalizedBinaryClassifierMc mc({.name = "loc", .tap = dnn::kMidTap},
                                 SharedFx(), kH, kW);
  dnn::FeatureMaps empty;
  EXPECT_THROW(mc.Infer(empty), util::CheckError);
}

TEST(Microclassifier, WeightsRoundTripThroughSerialization) {
  // Models the paper's deployment flow: a developer trains an MC offline and
  // ships weights to the edge.
  McConfig cfg{.name = "ship", .tap = dnn::kMidTap, .seed = 1};
  LocalizedBinaryClassifierMc a(cfg, SharedFx(), kH, kW);
  cfg.seed = 2;
  LocalizedBinaryClassifierMc b(cfg, SharedFx(), kH, kW);
  const auto fm = ExtractTestFrame(21);
  EXPECT_NE(a.Infer(fm), b.Infer(fm));
  nn::DeserializeWeights(b.net(), nn::SerializeWeights(a.net()));
  EXPECT_FLOAT_EQ(a.Infer(fm), b.Infer(fm));
}

}  // namespace
}  // namespace ff::core
