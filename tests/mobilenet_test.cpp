// MobileNet base DNN + feature extractor: architecture geometry (including
// the paper's Fig. 2 dimensions), tap bookkeeping, early-exit behaviour,
// determinism, preprocessing.
#include <gtest/gtest.h>

#include <cstring>

#include "dnn/feature_extractor.hpp"
#include "dnn/mobilenet.hpp"
#include "nn/kernels.hpp"
#include "util/rng.hpp"

namespace ff::dnn {
namespace {

TEST(MobileNet, PaperFig2DimsAt1080p) {
  // Shape inference only — no full-res forward pass needed.
  const MobileNetOptions opts;
  nn::Sequential net = BuildMobileNetV1(opts);
  const nn::Shape in{1, 3, 1080, 1920};
  const nn::Shape mid = net.OutputShapeAt(in, "conv4_2/sep");
  EXPECT_EQ(mid, (nn::Shape{1, 512, 67, 120}));
  const nn::Shape late = net.OutputShapeAt(in, "conv5_6/sep");
  EXPECT_EQ(late, (nn::Shape{1, 1024, 33, 60}));
}

TEST(MobileNet, RoadwayResolutionDims) {
  nn::Sequential net = BuildMobileNetV1({});
  const nn::Shape in{1, 3, 850, 2048};
  const nn::Shape mid = net.OutputShapeAt(in, "conv4_2/sep");
  EXPECT_EQ(mid.c, 512);
  EXPECT_EQ(mid.h, 850 / 16);
  EXPECT_EQ(mid.w, 2048 / 16);
}

TEST(MobileNet, TapStridesAndChannels) {
  EXPECT_EQ(TapStride("conv1"), 2);
  EXPECT_EQ(TapStride("conv2_2/sep"), 4);
  EXPECT_EQ(TapStride("conv4_2/sep"), 16);
  EXPECT_EQ(TapStride("conv5_6/sep"), 32);
  EXPECT_EQ(TapChannels("conv4_2/sep", 1.0), 512);
  EXPECT_EQ(TapChannels("conv5_6/sep", 1.0), 1024);
  EXPECT_EQ(TapChannels("conv4_2/dw", 1.0), 256);
  EXPECT_THROW(TapStride("nonsense"), util::CheckError);
}

TEST(MobileNet, TapNamesExistInNetwork) {
  nn::Sequential net = BuildMobileNetV1({});
  for (const auto& tap : MobileNetTapNames()) {
    EXPECT_TRUE(net.Contains(tap)) << tap;
  }
  EXPECT_EQ(MobileNetTapNames().size(), 1u + 13u * 2u);
}

TEST(MobileNet, WidthMultiplierScalesChannels) {
  EXPECT_EQ(ScaledChannels(1024, 0.5), 512);
  EXPECT_EQ(ScaledChannels(32, 0.25), 8);
  EXPECT_EQ(ScaledChannels(8, 0.1), 8);  // floor of 8
  nn::Sequential half = BuildMobileNetV1({.alpha = 0.5});
  const nn::Shape s = half.OutputShapeAt({1, 3, 128, 128}, "conv4_2/sep");
  EXPECT_EQ(s.c, 256);
}

TEST(MobileNet, ClassifierTailShape) {
  nn::Sequential net = BuildMobileNetV1({.include_classifier = true});
  const nn::Shape out = net.OutputShape({1, 3, 96, 96});
  EXPECT_EQ(out, (nn::Shape{1, 1000, 1, 1}));
}

TEST(MobileNet, MacsScaleWithResolution) {
  nn::Sequential net = BuildMobileNetV1({.include_classifier = false});
  const auto macs_small = net.Macs({1, 3, 96, 96});
  const auto macs_big = net.Macs({1, 3, 192, 192});
  // Quadrupling pixels roughly quadruples multiply-adds.
  EXPECT_NEAR(static_cast<double>(macs_big) / static_cast<double>(macs_small),
              4.0, 0.35);
}

TEST(MobileNet, Mobilenet224MacsInKnownRange) {
  // MobileNet v1 at 224x224 is ~569M multiply-adds (Howard et al. 2017).
  // Ours differs slightly (floor padding, no final FC classifier included
  // in the canonical count) but must be the same magnitude.
  nn::Sequential net = BuildMobileNetV1({.include_classifier = false});
  const auto macs = net.Macs({1, 3, 224, 224});
  EXPECT_GT(macs, 400ull * 1000 * 1000);
  EXPECT_LT(macs, 700ull * 1000 * 1000);
}

TEST(MobileNet, DeterministicForward) {
  const MobileNetOptions opts{.seed = 123};
  nn::Sequential a = BuildMobileNetV1(opts);
  nn::Sequential b = BuildMobileNetV1(opts);
  nn::Tensor in(nn::Shape{1, 3, 64, 64});
  util::Pcg32 rng(9);
  in.FillNormal(rng, 0.5f);
  EXPECT_TRUE(nn::Tensor::AllClose(a.Forward(in), b.Forward(in), 0.0f));
}

// The whole float trunk, forced onto each ISA the host supports, must be
// byte-identical to the scalar reference. The input is a cropped view, so
// conv1 reads strided rows; its 33x49 output (1617 pixels) runs full
// 32-pixel pointwise tiles plus a 16-pixel block and a 1-pixel tail, and
// every stride-2 depthwise layer runs the stride-2 row kernel.
TEST(MobileNet, TrunkBitwiseAcrossIsas) {
  using nn::kernels::Isa;
  // kAvx512 needs AVX2 too, so no AVX2 table means no SIMD tier to compare.
  if (nn::kernels::TableFor(Isa::kAvx2) == nullptr) {
    GTEST_SKIP() << "no SIMD ISA available on this host";
  }
  nn::Sequential net = BuildMobileNetV1({.include_classifier = false});
  nn::Tensor frame(nn::Shape{2, 3, 70, 101});
  util::Pcg32 rng(17);
  frame.FillNormal(rng, 0.5f);
  const nn::TensorView crop = nn::TensorView(frame).CropHW(
      tensor::Rect{.y0 = 2, .x0 = 1, .y1 = 68, .x1 = 99});

  const Isa prev = nn::kernels::SetActiveIsaForTest(Isa::kScalar);
  const nn::Tensor ref = net.Forward(crop);
  for (const Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (nn::kernels::TableFor(isa) == nullptr) continue;
    nn::kernels::SetActiveIsaForTest(isa);
    const nn::Tensor got = net.Forward(crop);
    ASSERT_EQ(ref.shape(), got.shape());
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                             static_cast<std::size_t>(ref.elements()) *
                                 sizeof(float)))
        << "trunk output differs on " << nn::kernels::IsaName(isa);
  }
  nn::kernels::SetActiveIsaForTest(prev);
}

TEST(MobileNet, DifferentSeedsGiveDifferentFeatures) {
  nn::Sequential a = BuildMobileNetV1({.seed = 1});
  nn::Sequential b = BuildMobileNetV1({.seed = 2});
  nn::Tensor in(nn::Shape{1, 3, 64, 64}, 0.3f);
  EXPECT_GT(nn::Tensor::MaxAbsDiff(a.ForwardTo(in, "conv2_1/sep"),
                                   b.ForwardTo(in, "conv2_1/sep")),
            1e-3f);
}

TEST(FeatureExtractor, ExtractsRequestedTapsOnly) {
  FeatureExtractor fx({.include_classifier = false});
  fx.RequestTap("conv2_2/sep");
  fx.RequestTap("conv3_2/sep");
  nn::Tensor in(nn::Shape{1, 3, 64, 64}, 0.1f);
  const FeatureMaps fm = fx.Extract(in);
  EXPECT_EQ(fm.size(), 2u);
  EXPECT_TRUE(fm.count("conv2_2/sep"));
  EXPECT_TRUE(fm.count("conv3_2/sep"));
  EXPECT_EQ(fm.at("conv2_2/sep").shape(), (nn::Shape{1, 128, 16, 16}));
}

TEST(FeatureExtractor, RejectsUnknownTapAndEmptyTaps) {
  FeatureExtractor fx;
  EXPECT_THROW(fx.RequestTap("bogus"), util::CheckError);
  nn::Tensor in(nn::Shape{1, 3, 32, 32});
  EXPECT_THROW(fx.Extract(in), util::CheckError);
}

TEST(FeatureExtractor, EarlyTapCostsLessThanLateTap) {
  FeatureExtractor early;
  early.RequestTap("conv4_2/sep");
  FeatureExtractor late;
  late.RequestTap("conv5_6/sep");
  EXPECT_LT(early.MacsPerFrame(256, 256), late.MacsPerFrame(256, 256));
}

TEST(FeatureExtractor, TapShapeMatchesExtractedShape) {
  FeatureExtractor fx;
  fx.RequestTap("conv4_2/sep");
  const nn::Shape expected = fx.TapShape("conv4_2/sep", 96, 160);
  nn::Tensor in(nn::Shape{1, 3, 96, 160}, 0.0f);
  const FeatureMaps fm = fx.Extract(in);
  EXPECT_EQ(fm.at("conv4_2/sep").shape(), expected);
}

TEST(Preprocess, MapsRgbToUnitRange) {
  const std::int64_t h = 2, w = 3;
  std::vector<std::uint8_t> r(h * w, 0), g(h * w, 255), b(h * w, 128);
  const nn::Tensor t = PreprocessRgb(r.data(), g.data(), b.data(), h, w);
  EXPECT_EQ(t.shape(), (nn::Shape{1, 3, h, w}));
  EXPECT_FLOAT_EQ(t.at(0, 0, 0, 0), -1.0f);
  EXPECT_FLOAT_EQ(t.at(0, 1, 0, 0), 1.0f);
  EXPECT_NEAR(t.at(0, 2, 0, 0), 0.0f, 0.01f);
}

}  // namespace
}  // namespace ff::dnn
