// The int8 inference path (nn/quantize.hpp): plan structure over mixed
// conv/dense prefixes, quantized-vs-float accuracy, bitwise parity of the
// whole quantized pipeline across ISAs, the FFNQ serialization round trip
// (including its behavior on hostile bytes), and the extractor/MC plumbing
// that rides on it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/microclassifier.hpp"
#include "dnn/feature_extractor.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace ff::nn {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ff_quant_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

// A deliberately mixed prefix: strided conv + ReLU, an activation-less
// depthwise (signed output), pointwise + ReLU6, dense + ReLU, a bare dense,
// then a sigmoid tail the quantizer must refuse to cover.
Sequential MakeMixedNet(std::uint64_t seed) {
  Sequential net("mixed");
  net.Add(std::make_unique<Conv2D>("c1", 3, 8, 3, 2, Padding::kSameCeil));
  net.Add(MakeRelu("c1/relu"));
  net.Add(std::make_unique<DepthwiseConv2D>("dw", 8, 3, 1,
                                            Padding::kSameCeil));
  net.Add(std::make_unique<Conv2D>("pw", 8, 16, 1, 1, Padding::kSameCeil));
  net.Add(MakeRelu6("pw/relu6"));
  // 12x12 input -> 6x6 after the strided conv.
  net.Add(std::make_unique<FullyConnected>("fc1", 16 * 6 * 6, 24));
  net.Add(MakeRelu("fc1/relu"));
  net.Add(std::make_unique<FullyConnected>("fc2", 24, 2));
  net.Add(MakeSigmoid("prob"));
  HeInit(net, seed);
  return net;
}

Tensor MixedInput(std::int64_t n, std::uint64_t seed) {
  Tensor in(Shape{n, 3, 12, 12});
  util::Pcg32 rng(seed);
  in.FillNormal(rng, 0.5f);
  return in;
}

float RelativeL2(const Tensor& ref, const Tensor& got) {
  EXPECT_EQ(ref.elements(), got.elements());
  double num = 0.0, den = 0.0;
  for (std::int64_t i = 0; i < ref.elements(); ++i) {
    const double d = static_cast<double>(ref.data()[i]) -
                     static_cast<double>(got.data()[i]);
    num += d * d;
    den += static_cast<double>(ref.data()[i]) *
           static_cast<double>(ref.data()[i]);
  }
  return den > 0.0 ? static_cast<float>(std::sqrt(num / den)) : 0.0f;
}

TEST(QuantizePlan, FusedOpStructure) {
  Sequential net = MakeMixedNet(3);
  const QuantizedProgram plan = Quantizer::Plan(net);
  ASSERT_EQ(plan.n_ops(), 5u);
  // Fused ops take the activation layer's name so taps keep resolving;
  // activation-less ops keep their own.
  EXPECT_EQ(plan.op(0).name, "c1/relu");
  EXPECT_EQ(plan.op(0).kind, QuantOp::Kind::kConv);
  EXPECT_EQ(plan.op(1).name, "dw");
  EXPECT_EQ(plan.op(1).kind, QuantOp::Kind::kDepthwise);
  EXPECT_EQ(plan.op(2).name, "pw/relu6");
  EXPECT_EQ(plan.op(3).name, "fc1/relu");
  EXPECT_EQ(plan.op(3).kind, QuantOp::Kind::kDense);
  EXPECT_EQ(plan.op(4).name, "fc2");
  // Weight vectors are sized from geometry (validation targets for the
  // deserializer), zeroed until calibration.
  EXPECT_EQ(plan.op(0).w.size(), 8u * 3u * 3u * 3u);
  EXPECT_EQ(plan.op(1).w.size(), 8u * 3u * 3u);
  EXPECT_EQ(plan.op(3).w.size(), static_cast<std::size_t>(16 * 6 * 6 * 24));
  // The sigmoid tail is not covered; the float net resumes there.
  EXPECT_EQ(plan.resume_index(), net.n_layers() - 1);
  EXPECT_TRUE(plan.Covers("c1/relu"));
  EXPECT_TRUE(plan.Covers("dw"));
  EXPECT_FALSE(plan.Covers("c1"));
  EXPECT_FALSE(plan.Covers("prob"));
}

TEST(QuantizePlan, RejectsUnquantizableHead) {
  Sequential net("headless");
  net.Add(MakeSigmoid("prob"));
  EXPECT_THROW(Quantizer::Plan(net), util::CheckError);
}

TEST(QuantizeAccuracy, MixedNetCloseToFloat) {
  Sequential net = MakeMixedNet(5);
  // Evaluate on the calibration batch itself: in-sample error is pure
  // quantization noise (out-of-sample inputs additionally clip wherever a
  // tiny random calibration batch under-covers the activation tails —
  // that regime is pinned separately below).
  const Tensor calib = MixedInput(4, 100);
  const QuantizedProgram prog = Quantizer::Quantize(net, calib);

  const Tensor qout = prog.Forward(calib);
  const Tensor fout = net.ForwardRange(calib, 0, prog.resume_index());
  ASSERT_EQ(qout.shape().c, fout.shape().c);
  // Five chained int8 ops: each is ~1/255 of its layer's dynamic range, so
  // a few percent relative error end to end is the expected regime.
  EXPECT_LT(RelativeL2(fout, qout), 0.08f) << "quantized drifted from float";
}

TEST(QuantizeAccuracy, InputsOutsideCalibrationRangeSaturate) {
  Sequential net = MakeMixedNet(6);
  const QuantizedProgram prog = Quantizer::Quantize(net, MixedInput(4, 7));
  // 10x the calibration range: the u8 input clamp must saturate, not wrap.
  Tensor wild(Shape{1, 3, 12, 12});
  util::Pcg32 rng(8);
  wild.FillNormal(rng, 5.0f);
  const Tensor out = prog.Forward(wild);
  for (std::int64_t i = 0; i < out.elements(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST(QuantizeParity, BitwiseIdenticalAcrossIsas) {
  // kAvx512 needs AVX2 too, so no AVX2 table means no SIMD tier to compare.
  if (kernels::TableFor(kernels::Isa::kAvx2) == nullptr) {
    GTEST_SKIP() << "no SIMD ISA available on this host";
  }
  Sequential net = MakeMixedNet(9);
  const QuantizedProgram prog = Quantizer::Quantize(net, MixedInput(3, 55));
  const Tensor in = MixedInput(2, 66);

  const kernels::Isa prev = kernels::SetActiveIsaForTest(kernels::Isa::kScalar);
  const Tensor ref = prog.Forward(in);
  for (const kernels::Isa isa : {kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (kernels::TableFor(isa) == nullptr) continue;
    kernels::SetActiveIsaForTest(isa);
    const Tensor got = prog.Forward(in);
    ASSERT_EQ(ref.elements(), got.elements());
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                             static_cast<std::size_t>(ref.elements()) *
                                 sizeof(float)))
        << "quantized pipeline diverged on " << kernels::IsaName(isa);
  }
  kernels::SetActiveIsaForTest(prev);
}

TEST(QuantizeTaps, DequantizedTapsMatchShapes) {
  Sequential net = MakeMixedNet(12);
  const QuantizedProgram prog = Quantizer::Quantize(net, MixedInput(2, 77));
  const Tensor in = MixedInput(1, 88);
  const auto taps = prog.ForwardWithTaps(in, {"c1/relu", "pw/relu6"});
  ASSERT_EQ(taps.size(), 2u);
  EXPECT_EQ(taps.at("c1/relu").shape(), (Shape{1, 8, 6, 6}));
  EXPECT_EQ(taps.at("pw/relu6").shape(), (Shape{1, 16, 6, 6}));
  // Post-ReLU taps must come back non-negative (zp 0 + the u8 clamp IS the
  // fused ReLU); ReLU6's upper clip is absorbed by calibration.
  for (std::int64_t i = 0; i < taps.at("c1/relu").elements(); ++i) {
    EXPECT_GE(taps.at("c1/relu").data()[i], 0.0f);
  }
  for (std::int64_t i = 0; i < taps.at("pw/relu6").elements(); ++i) {
    EXPECT_LE(taps.at("pw/relu6").data()[i], 6.0f + 1e-4f);
  }
  EXPECT_THROW(prog.ForwardWithTaps(in, {"prob"}), util::CheckError);
}

TEST(QuantizeSerialize, RoundTripIsBitwise) {
  Sequential net = MakeMixedNet(21);
  const QuantizedProgram prog = Quantizer::Quantize(net, MixedInput(2, 31));
  const std::string bytes = SerializeQuantized(prog);
  EXPECT_EQ(SniffCheckpoint(bytes), CheckpointKind::kQuantized);
  const QuantizedProgram loaded = DeserializeQuantized(net, bytes);

  const Tensor in = MixedInput(2, 41);
  const Tensor a = prog.Forward(in);
  const Tensor b = loaded.Forward(in);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.elements()) *
                               sizeof(float)));
}

TEST(QuantizeSerialize, LoudOnKindMismatchBothWays) {
  Sequential net = MakeMixedNet(22);
  const std::string float_bytes = SerializeWeights(net);
  EXPECT_EQ(SniffCheckpoint(float_bytes), CheckpointKind::kFloat);
  // Float checkpoint into the quantized loader: loud, names both formats.
  try {
    DeserializeQuantized(net, float_bytes);
    FAIL() << "float checkpoint accepted by quantized loader";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("FLOAT (FFNW)"), std::string::npos)
        << e.what();
  }
  // Quantized checkpoint into the float loader: same, other direction.
  const std::string q_bytes =
      SerializeQuantized(Quantizer::Quantize(net, MixedInput(2, 1)));
  try {
    DeserializeWeights(net, q_bytes);
    FAIL() << "quantized checkpoint accepted by float loader";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("QUANTIZED (FFNQ)"),
              std::string::npos)
        << e.what();
  }
}

TEST(QuantizeSerialize, HostileBytesNeverLoadGarbage) {
  Sequential net = MakeMixedNet(23);
  const std::string bytes =
      SerializeQuantized(Quantizer::Quantize(net, MixedInput(2, 2)));

  // Truncation at every interesting boundary.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{3}, std::size_t{4}, std::size_t{11},
        bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(DeserializeQuantized(net, bytes.substr(0, len)),
                 util::CheckError)
        << "accepted truncation to " << len << " bytes";
  }
  EXPECT_EQ(SniffCheckpoint("xx"), CheckpointKind::kUnknown);
  EXPECT_THROW(DeserializeQuantized(net, "not a checkpoint"),
               util::CheckError);

  // Corrupt the first op's name: must be rejected by the plan comparison.
  std::string renamed = bytes;
  renamed[16] ^= 0x40;  // first name byte (after magic/version/in_q/count)
  EXPECT_THROW(DeserializeQuantized(net, renamed), util::CheckError);

  // A checkpoint from a different architecture never loads.
  Sequential other("other");
  other.Add(std::make_unique<Conv2D>("c1", 3, 8, 3, 2, Padding::kSameCeil));
  EXPECT_THROW(DeserializeQuantized(other, bytes), util::CheckError);
}

TEST(QuantizeSerialize, RejectsATrailingByte) {
  Sequential net = MakeMixedNet(24);
  const std::string bytes =
      SerializeQuantized(Quantizer::Quantize(net, MixedInput(2, 3)));
  EXPECT_THROW(DeserializeQuantized(net, bytes + 'x'), util::CheckError);
  DeserializeQuantized(net, bytes);  // the exact stream still loads
}

TEST(QuantizeSerialize, HugeNameLengthIsRefusedAtTheCap) {
  Sequential net = MakeMixedNet(25);
  const QuantizedProgram plan = Quantizer::Plan(net);
  // Magic, version 1, input scale 1.0 and zero point 0, the plan's op count,
  // then a name length of 2^32 - 1.
  std::string bytes = "FFNQ";
  const auto put = [&bytes](const auto v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint32_t{1});
  put(1.0f);
  put(std::int32_t{0});
  put(static_cast<std::uint32_t>(plan.n_ops()));
  put(std::uint32_t{0xFFFFFFFFu});
  try {
    DeserializeQuantized(net, bytes);
    FAIL() << "a 4 GiB name length was accepted";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cap of 4096"), std::string::npos)
        << e.what();
  }
}

// --- extractor plumbing ----------------------------------------------------

dnn::MobileNetOptions TinyTrunk() {
  dnn::MobileNetOptions opts;
  opts.alpha = 0.25;
  opts.include_classifier = false;
  return opts;
}

Tensor TinyFrames(std::int64_t n, std::uint64_t seed) {
  Tensor frames(Shape{n, 3, 64, 64});
  util::Pcg32 rng(seed);
  frames.FillNormal(rng, 0.4f);
  return frames;
}

TEST(QuantizedExtractor, QuantizeOffIsBitwiseIdentical) {
  dnn::FeatureExtractor legacy(TinyTrunk());
  dnn::FeatureExtractor configured(
      dnn::FeatureExtractorConfig{TinyTrunk(), /*quantize=*/false});
  EXPECT_FALSE(configured.quantized());
  legacy.RequestTap(dnn::kMidTap);
  configured.RequestTap(dnn::kMidTap);
  const Tensor frames = TinyFrames(2, 90);
  const auto a = legacy.Extract(frames);
  const auto b = configured.Extract(frames);
  const Tensor& ta = a.at(dnn::kMidTap);
  const Tensor& tb = b.at(dnn::kMidTap);
  ASSERT_EQ(ta.elements(), tb.elements());
  EXPECT_EQ(0, std::memcmp(ta.data(), tb.data(),
                           static_cast<std::size_t>(ta.elements()) *
                               sizeof(float)));
}

TEST(QuantizedExtractor, TrunkCloseToFloatAndAutoCalibrates) {
  dnn::FeatureExtractor fx(TinyTrunk());
  dnn::FeatureExtractor qfx(
      dnn::FeatureExtractorConfig{TinyTrunk(), /*quantize=*/true});
  EXPECT_TRUE(qfx.quantized());
  EXPECT_FALSE(qfx.quantized_ready());
  fx.RequestTap(dnn::kMidTap);
  qfx.RequestTap(dnn::kMidTap);

  const Tensor frames = TinyFrames(2, 91);
  const Tensor ref = fx.Extract(frames).at(dnn::kMidTap);
  const Tensor got = qfx.Extract(frames).at(dnn::kMidTap);  // auto-calibrates
  EXPECT_TRUE(qfx.quantized_ready());
  ASSERT_EQ(ref.shape(), got.shape());
  EXPECT_LT(RelativeL2(ref, got), 0.25f)
      << "int8 trunk drifted too far from float";
}

TEST(QuantizedExtractor, SaveLoadRoundTripAndKindMismatch) {
  TempDir dir("ckpt");
  const std::string qpath = dir.str() + "/trunk.ffnq";
  const std::string fpath = dir.str() + "/trunk.ffnw";

  dnn::FeatureExtractor qfx(
      dnn::FeatureExtractorConfig{TinyTrunk(), /*quantize=*/true});
  qfx.RequestTap(dnn::kMidTap);
  const Tensor frames = TinyFrames(2, 92);
  // Saving before calibration is a loud error, not an empty file.
  EXPECT_THROW(qfx.SaveWeights(qpath), util::CheckError);
  qfx.CalibrateQuantized(frames);
  qfx.SaveWeights(qpath);

  dnn::FeatureExtractor qfx2(
      dnn::FeatureExtractorConfig{TinyTrunk(), /*quantize=*/true});
  qfx2.RequestTap(dnn::kMidTap);
  qfx2.LoadWeights(qpath);
  EXPECT_TRUE(qfx2.quantized_ready());
  const Tensor a = qfx.Extract(frames).at(dnn::kMidTap);
  const Tensor b = qfx2.Extract(frames).at(dnn::kMidTap);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.elements()) *
                               sizeof(float)));

  // Kind mismatches in both directions are loud.
  dnn::FeatureExtractor ffx(
      dnn::FeatureExtractorConfig{TinyTrunk(), /*quantize=*/false});
  EXPECT_THROW(ffx.LoadWeights(qpath), util::CheckError);
  ffx.SaveWeights(fpath);
  EXPECT_THROW(qfx2.LoadWeights(fpath), util::CheckError);
  // Float extractors cannot be asked to calibrate.
  EXPECT_THROW(ffx.CalibrateQuantized(frames), util::CheckError);
}

TEST(QuantizedExtractor, RefusedCheckpointLeavesTheExtractorAsItWas) {
  TempDir dir("cut");
  const Tensor frames = TinyFrames(1, 94);
  for (const bool quantize : {false, true}) {
    SCOPED_TRACE(quantize ? "FFNQ" : "FFNW");
    const std::string path = dir.str() + "/donor.ckpt";
    dnn::MobileNetOptions donor_opts = TinyTrunk();
    donor_opts.seed = 7;
    dnn::FeatureExtractor donor(
        dnn::FeatureExtractorConfig{donor_opts, quantize});
    dnn::FeatureExtractor target(
        dnn::FeatureExtractorConfig{TinyTrunk(), quantize});
    for (auto* fx : {&donor, &target}) {
      fx->RequestTap(dnn::kMidTap);
      if (quantize) fx->CalibrateQuantized(frames);
    }
    donor.SaveWeights(path);
    const Tensor before = target.Extract(frames).at(dnn::kMidTap);

    // Cut the donor's checkpoint inside its last blob.
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 1));
    EXPECT_THROW(target.LoadWeights(path), util::CheckError);

    const Tensor after = target.Extract(frames).at(dnn::kMidTap);
    ASSERT_EQ(before.elements(), after.elements());
    EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                             static_cast<std::size_t>(before.elements()) *
                                 sizeof(float)))
        << "a refused checkpoint changed the extractor's output";
  }
}

// --- microclassifier plumbing ----------------------------------------------

TEST(QuantizedMc, ProbabilityTracksFloatCounterpart) {
  dnn::FeatureExtractor fx(TinyTrunk());
  fx.RequestTap(dnn::kMidTap);
  const auto fm = fx.Extract(TinyFrames(1, 93));

  for (const char* arch : {"full_frame", "localized"}) {
    core::McConfig fcfg{.name = "float_mc", .tap = dnn::kMidTap, .seed = 11};
    core::McConfig qcfg{.name = "quant_mc",
                        .tap = dnn::kMidTap,
                        .seed = 11,
                        .quantize = true};
    auto fmc = core::MakeMicroclassifier(arch, fcfg, fx, 64, 64);
    auto qmc = core::MakeMicroclassifier(arch, qcfg, fx, 64, 64);
    const float fp = fmc->Infer(fm);
    const float qp = qmc->Infer(fm);
    EXPECT_NEAR(fp, qp, 0.1f) << arch;
  }
}

TEST(QuantizedMc, WindowedArchitectureRejectsQuantize) {
  dnn::FeatureExtractor fx(TinyTrunk());
  core::McConfig cfg{.name = "win", .tap = dnn::kMidTap, .quantize = true};
  EXPECT_THROW(core::MakeMicroclassifier("windowed", cfg, fx, 64, 64),
               util::CheckError);
}

}  // namespace
}  // namespace ff::nn
