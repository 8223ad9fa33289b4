// Forward-path tests for the NN engine: convolution correctness against a
// naive reference, padding geometry, activations, pooling, FC, sequential
// plumbing (fused activations, recycled buffers, the re-entrancy check), MAC
// formulas, serialization.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/window_pack.hpp"
#include "util/rng.hpp"

namespace ff::nn {
namespace {

// Naive direct convolution used as the ground truth.
Tensor NaiveConv(const Tensor& in, const std::vector<float>& w,
                 const std::vector<float>& b, std::int64_t out_c,
                 std::int64_t k, std::int64_t s, Padding pad) {
  const auto gy = ComputeAxisGeometry(in.shape().h, k, s, pad);
  const auto gx = ComputeAxisGeometry(in.shape().w, k, s, pad);
  const std::int64_t in_c = in.shape().c;
  Tensor out(Shape{in.shape().n, out_c, gy.out, gx.out});
  for (std::int64_t n = 0; n < in.shape().n; ++n) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      for (std::int64_t oy = 0; oy < gy.out; ++oy) {
        for (std::int64_t ox = 0; ox < gx.out; ++ox) {
          double acc = b[static_cast<std::size_t>(oc)];
          for (std::int64_t ic = 0; ic < in_c; ++ic) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = oy * s + ky - gy.pad_begin;
                const std::int64_t ix = ox * s + kx - gx.pad_begin;
                if (iy < 0 || iy >= in.shape().h || ix < 0 ||
                    ix >= in.shape().w) {
                  continue;
                }
                acc += static_cast<double>(
                           w[static_cast<std::size_t>(
                               ((oc * in_c + ic) * k + ky) * k + kx)]) *
                       in.at(n, ic, iy, ix);
              }
            }
          }
          out.at(n, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  std::int64_t in_c, out_c, h, w, k, s;
  Padding pad;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, MatchesNaiveReference) {
  const ConvCase c = GetParam();
  Conv2D conv("c", c.in_c, c.out_c, c.k, c.s, c.pad);
  util::Pcg32 rng(42);
  for (auto& v : conv.weights()) v = static_cast<float>(rng.Normal(0, 0.5));
  for (auto& v : conv.bias()) v = static_cast<float>(rng.Normal(0, 0.5));
  Tensor in(Shape{2, c.in_c, c.h, c.w});
  in.FillNormal(rng, 1.0f);

  const Tensor got = conv.Forward(in);
  const Tensor want =
      NaiveConv(in, conv.weights(), conv.bias(), c.out_c, c.k, c.s, c.pad);
  EXPECT_EQ(got.shape(), want.shape());
  EXPECT_LT(Tensor::MaxAbsDiff(got, want), 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvParamTest,
    ::testing::Values(
        ConvCase{3, 8, 9, 11, 3, 1, Padding::kSameFloor},
        ConvCase{3, 8, 9, 11, 3, 2, Padding::kSameFloor},
        ConvCase{4, 6, 10, 10, 3, 2, Padding::kSameCeil},
        ConvCase{4, 6, 11, 13, 3, 1, Padding::kSameCeil},
        ConvCase{2, 5, 8, 8, 3, 3, Padding::kSameFloor},
        ConvCase{5, 7, 7, 9, 1, 1, Padding::kSameFloor},   // pointwise path
        ConvCase{16, 33, 6, 6, 1, 1, Padding::kSameCeil},  // pointwise, odd oc
        ConvCase{3, 4, 12, 12, 5, 2, Padding::kSameCeil},
        ConvCase{3, 4, 10, 10, 3, 1, Padding::kValid},
        ConvCase{1, 1, 16, 16, 3, 2, Padding::kValid}));

TEST(AxisGeometry, FloorModeMatchesPaperDims) {
  // 1080 -> /16 = 67 (not Caffe's 68): the paper's Fig. 2 dimensions.
  std::int64_t v = 1080;
  for (int i = 0; i < 4; ++i) {
    v = ComputeAxisGeometry(v, 3, 2, Padding::kSameFloor).out;
  }
  EXPECT_EQ(v, 67);
  v = ComputeAxisGeometry(v, 3, 2, Padding::kSameFloor).out;
  EXPECT_EQ(v, 33);
}

TEST(AxisGeometry, CeilModeMatchesFig2bDownsample) {
  EXPECT_EQ(ComputeAxisGeometry(67, 3, 2, Padding::kSameCeil).out, 34);
  EXPECT_EQ(ComputeAxisGeometry(120, 3, 2, Padding::kSameCeil).out, 60);
}

TEST(AxisGeometry, ValidModeRequiresFit) {
  EXPECT_EQ(ComputeAxisGeometry(10, 3, 1, Padding::kValid).out, 8);
  EXPECT_THROW(ComputeAxisGeometry(2, 3, 1, Padding::kValid),
               util::CheckError);
}

TEST(Conv2D, RejectsWrongChannelCount) {
  Conv2D conv("c", 3, 8, 3, 1, Padding::kSameCeil);
  Tensor in(Shape{1, 4, 8, 8});
  EXPECT_THROW(conv.Forward(in), util::CheckError);
}

TEST(DepthwiseConv2D, MatchesPerChannelNaive) {
  const std::int64_t C = 6, H = 9, W = 7;
  DepthwiseConv2D dw("dw", C, 3, 2, Padding::kSameFloor);
  util::Pcg32 rng(3);
  for (auto& v : dw.weights()) v = static_cast<float>(rng.Normal(0, 0.5));
  for (auto& v : dw.bias()) v = static_cast<float>(rng.Normal(0, 0.5));
  Tensor in(Shape{1, C, H, W});
  in.FillNormal(rng, 1.0f);
  const Tensor got = dw.Forward(in);

  // Per-channel naive reference via a 1-channel Conv2D.
  for (std::int64_t c = 0; c < C; ++c) {
    Conv2D ref("ref", 1, 1, 3, 2, Padding::kSameFloor);
    for (int i = 0; i < 9; ++i) {
      ref.weights()[static_cast<std::size_t>(i)] =
          dw.weights()[static_cast<std::size_t>(c * 9 + i)];
    }
    ref.bias()[0] = dw.bias()[static_cast<std::size_t>(c)];
    Tensor one(Shape{1, 1, H, W});
    for (std::int64_t y = 0; y < H; ++y) {
      for (std::int64_t x = 0; x < W; ++x) one.at(0, 0, y, x) = in.at(0, c, y, x);
    }
    const Tensor want = ref.Forward(one);
    for (std::int64_t y = 0; y < want.shape().h; ++y) {
      for (std::int64_t x = 0; x < want.shape().w; ++x) {
        ASSERT_NEAR(got.at(0, c, y, x), want.at(0, 0, y, x), 1e-4f);
      }
    }
  }
}

TEST(FullyConnected, ComputesAffineMap) {
  FullyConnected fc("fc", 3, 2);
  fc.weights() = {1, 2, 3, 4, 5, 6};  // [2][3]
  fc.bias() = {0.5f, -0.5f};
  const Tensor in = Tensor::FromData(Shape{1, 3, 1, 1}, {1, 1, 2});
  const Tensor out = fc.Forward(in);
  EXPECT_EQ(out.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1 + 2 + 6 + 0.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), 4 + 5 + 12 - 0.5f);
}

TEST(FullyConnected, FlattensSpatialInput) {
  FullyConnected fc("fc", 8, 1);
  fc.weights().assign(8, 1.0f);
  Tensor in(Shape{1, 2, 2, 2}, 1.0f);
  EXPECT_FLOAT_EQ(fc.Forward(in).data()[0], 8.0f);
  Tensor bad(Shape{1, 2, 2, 3});
  EXPECT_THROW(fc.Forward(bad), util::CheckError);
}

TEST(Activation, ReluRelu6SigmoidValues) {
  const Tensor in = Tensor::FromData(Shape{1, 1, 1, 4}, {-2, 0, 3, 8});
  Activation relu("r", ActKind::kRelu);
  Activation relu6("r6", ActKind::kRelu6);
  Activation sig("s", ActKind::kSigmoid);
  const Tensor r = relu.Forward(in);
  EXPECT_FLOAT_EQ(r.data()[0], 0);
  EXPECT_FLOAT_EQ(r.data()[3], 8);
  const Tensor r6 = relu6.Forward(in);
  EXPECT_FLOAT_EQ(r6.data()[2], 3);
  EXPECT_FLOAT_EQ(r6.data()[3], 6);
  const Tensor sg = sig.Forward(in);
  EXPECT_NEAR(sg.data()[1], 0.5f, 1e-6f);
  EXPECT_GT(sg.data()[3], 0.999f);
}

TEST(MaxPool2D, PicksWindowMaxima) {
  MaxPool2D pool("p", 2, 2);
  const Tensor in = Tensor::FromData(
      Shape{1, 1, 4, 4},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const Tensor out = pool.Forward(in);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 6);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 16);
}

TEST(GlobalPools, AvgAndMax) {
  const Tensor in = Tensor::FromData(Shape{1, 2, 1, 3}, {1, 2, 3, -5, 0, 5});
  GlobalAvgPool avg("a");
  GlobalMaxPool mx("m");
  const Tensor a = avg.Forward(in);
  EXPECT_FLOAT_EQ(a.at(0, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 1, 0, 0), 0.0f);
  const Tensor m = mx.Forward(in);
  EXPECT_FLOAT_EQ(m.at(0, 0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1, 0, 0), 5.0f);
}

TEST(WindowPack, ReshapesBatchToChannels) {
  WindowPack pack("w", 5);
  Tensor in(Shape{10, 4, 2, 2});
  const Tensor out = pack.Forward(in);
  EXPECT_EQ(out.shape(), (Shape{2, 20, 2, 2}));
  Tensor odd(Shape{7, 4, 2, 2});
  EXPECT_THROW(pack.Forward(odd), util::CheckError);
}

TEST(Sequential, ForwardTapsAndPrefix) {
  Sequential net("t");
  net.Add(std::make_unique<Conv2D>("c1", 1, 2, 3, 1, Padding::kSameCeil));
  net.Add(MakeRelu("r1"));
  net.Add(std::make_unique<Conv2D>("c2", 2, 3, 3, 2, Padding::kSameCeil));
  net.Add(MakeRelu("r2"));
  HeInit(net, 5);
  Tensor in(Shape{1, 1, 8, 8});
  util::Pcg32 rng(1);
  in.FillNormal(rng, 1.0f);

  const Tensor full = net.Forward(in);
  EXPECT_EQ(full.shape(), (Shape{1, 3, 4, 4}));

  auto taps = net.ForwardWithTaps(in, {"r1", "r2"});
  EXPECT_EQ(taps.size(), 2u);
  EXPECT_EQ(taps.at("r1").shape(), (Shape{1, 2, 8, 8}));
  EXPECT_TRUE(Tensor::AllClose(taps.at("r2"), full, 0.0f));

  const Tensor prefix = net.ForwardTo(in, "r1");
  EXPECT_TRUE(Tensor::AllClose(prefix, taps.at("r1"), 0.0f));
}

TEST(Sequential, ForwardRangeComposesToFullForward) {
  Sequential net("t");
  net.Add(std::make_unique<Conv2D>("c1", 2, 4, 1, 1, Padding::kSameCeil));
  net.Add(MakeRelu("r1"));
  net.Add(std::make_unique<Conv2D>("c2", 4, 2, 1, 1, Padding::kSameCeil));
  HeInit(net, 6);
  Tensor in(Shape{1, 2, 3, 3});
  util::Pcg32 rng(2);
  in.FillNormal(rng, 1.0f);
  const Tensor a = net.ForwardRange(in, 0, 2);
  const Tensor b = net.ForwardRange(a, 2, 3);
  EXPECT_TRUE(Tensor::AllClose(b, net.Forward(in), 1e-6f));
}

// Hand-chained Layer::Forward over layers [begin, end): the unfused,
// allocate-per-layer reference the Sequential forward must match bitwise.
Tensor ChainForward(Sequential& net, const TensorView& in, std::size_t begin,
                    std::size_t end) {
  Tensor x = net.layer(begin).Forward(in);
  for (std::size_t i = begin + 1; i < end; ++i) x = net.layer(i).Forward(x);
  return x;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.elements()) * sizeof(float)) ==
             0;
}

// Every fusable pattern of the trunk and the MC heads: 3x3 conv at stride 1
// and 2 -> ReLU, depthwise -> ReLU6, pointwise -> ReLU, then a trailing
// sigmoid. Random biases make the activations clip mid-range values.
Sequential FusionNet() {
  Sequential net("fuse");
  net.Add(std::make_unique<Conv2D>("c1/conv", 3, 8, 3, 1, Padding::kSameCeil));
  net.Add(MakeRelu("c1"));
  net.Add(std::make_unique<Conv2D>("c2/conv", 8, 12, 3, 2, Padding::kSameFloor));
  net.Add(MakeRelu("c2"));
  net.Add(std::make_unique<DepthwiseConv2D>("c3/dw/conv", 12, 3, 1,
                                            Padding::kSameCeil));
  net.Add(MakeRelu6("c3/dw"));
  net.Add(std::make_unique<Conv2D>("c3/sep/conv", 12, 16, 1, 1,
                                   Padding::kSameCeil));
  net.Add(MakeRelu("c3/sep"));
  net.Add(std::make_unique<Conv2D>("head", 16, 1, 1, 1, Padding::kSameCeil));
  net.Add(MakeSigmoid("prob"));
  HeInit(net, 21);
  util::Pcg32 rng(22);
  for (auto& p : net.Params()) {
    if (p.name.ends_with("/bias")) {
      for (auto& v : *p.value) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  return net;
}

TEST(Sequential, FusedRecycledForwardMatchesHandChainedLayers) {
  Sequential net = FusionNet();
  const std::size_t n = net.n_layers();
  const std::size_t c2 = net.IndexOf("c2");
  util::Pcg32 rng(23);
  // A cropped (strided) view at batch 3, a second geometry, then the first
  // again: stale contents of the recycled buffers would show on the rerun.
  Tensor frame(Shape{3, 3, 30, 40});
  frame.FillUniform(rng, -4.0f, 4.0f);
  const TensorView crop = TensorView(frame).CropHW(tensor::Rect{3, 5, 25, 34});
  Tensor other(Shape{3, 3, 17, 13});
  other.FillUniform(rng, -4.0f, 4.0f);
  for (const TensorView& in : {crop, TensorView(other), crop}) {
    const Tensor want = ChainForward(net, in, 0, n);
    const Tensor pre = ChainForward(net, in, 0, c2);  // ends on c2/conv
    const Tensor kept = net.Forward(in);
    EXPECT_TRUE(BitwiseEqual(kept, want));
    EXPECT_TRUE(BitwiseEqual(net.ForwardTo(in, "c3/sep"),
                             ChainForward(net, in, 0, n - 2)));
    // Range ends that split a (conv, ReLU) group must not fuse across them.
    EXPECT_TRUE(BitwiseEqual(net.ForwardRange(in, 0, c2), pre));
    EXPECT_TRUE(BitwiseEqual(net.ForwardRange(pre, c2, n), want));

    // A tap on the pre-activation c2/conv keeps that conv unfused.
    const auto taps = net.ForwardWithTaps(in, {"c2/conv", "c2", "c3/dw"});
    EXPECT_TRUE(BitwiseEqual(taps.at("c2/conv"), pre));
    EXPECT_LT(taps.at("c2/conv").Min(), 0.0f);
    EXPECT_TRUE(BitwiseEqual(taps.at("c2"), ChainForward(net, in, 0, c2 + 1)));
    EXPECT_TRUE(BitwiseEqual(taps.at("c3/dw"),
                             ChainForward(net, in, 0, net.IndexOf("c3/dw") + 1)));
    EXPECT_EQ(taps.at("c3/dw").Max(), 6.0f);  // ReLU6 really clipped

    // Returned tensors are owned: a later forward leaves them untouched.
    (void)net.Forward(other);
    EXPECT_TRUE(BitwiseEqual(kept, want));
    EXPECT_TRUE(BitwiseEqual(taps.at("c2/conv"), pre));
  }
}

TEST(Sequential, TrainingModeForwardAndBackwardUnchanged) {
  Sequential net = FusionNet();
  Sequential ref = FusionNet();
  net.SetTraining(true);
  ref.SetTraining(true);
  Tensor in(Shape{2, 3, 12, 10});
  util::Pcg32 rng(24);
  in.FillUniform(rng, -4.0f, 4.0f);
  const Tensor y = net.Forward(in);
  EXPECT_TRUE(BitwiseEqual(y, ChainForward(ref, in, 0, ref.n_layers())));

  Tensor g(y.shape());
  g.FillNormal(rng, 1.0f);
  const Tensor dx = net.Backward(g);
  Tensor dx_ref = g;
  for (std::size_t i = ref.n_layers(); i-- > 0;) {
    dx_ref = ref.layer(i).Backward(dx_ref);
  }
  EXPECT_TRUE(BitwiseEqual(dx, dx_ref));
  const auto p = net.Params();
  const auto p_ref = ref.Params();
  ASSERT_EQ(p.size(), p_ref.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(*p[i].grad, *p_ref[i].grad) << p[i].name;
  }
}

// Identity layer whose first Forward parks until the test releases it, so a
// second forward can be attempted while the first is in flight. Later calls
// pass straight through, so a missing check fails the test instead of
// hanging it.
class ParkingLayer : public Layer {
 public:
  ParkingLayer() : Layer("park") {}
  Shape OutputShape(const Shape& in) const override { return in; }
  Tensor Forward(const TensorView& in) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (calls_++ == 0) {
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return in.Materialize();
  }
  Tensor Backward(const Tensor& g) override { return g; }
  std::uint64_t Macs(const Shape&) const override { return 0; }

  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return calls_ > 0; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int calls_ = 0;
  bool released_ = false;
};

TEST(Sequential, ConcurrentForwardOnOneNetworkFails) {
  Sequential net("t");
  auto& park = static_cast<ParkingLayer&>(
      net.Add(std::make_unique<ParkingLayer>()));
  net.Add(std::make_unique<Conv2D>("c", 1, 2, 1, 1, Padding::kSameCeil));
  const Tensor in(Shape{1, 1, 4, 4}, 1.0f);

  Tensor first;
  std::thread holder([&] { first = net.Forward(in); });
  park.WaitParked();
  bool rejected = false;
  std::thread second([&] {
    try {
      (void)net.ForwardWithTaps(in, {"c"});
    } catch (const util::CheckError&) {
      rejected = true;
    }
  });
  second.join();
  park.Release();
  holder.join();
  EXPECT_TRUE(rejected);
  EXPECT_EQ(first.shape(), (Shape{1, 2, 4, 4}));
  // Once the first forward has returned the network runs again.
  EXPECT_NO_THROW((void)net.Forward(in));
}

// A ParkingLayer that also records the widest batch any call handed it.
class WidthRecordingParkingLayer : public ParkingLayer {
 public:
  Tensor Forward(const TensorView& in) override {
    std::int64_t seen = widest_.load();
    while (seen < in.shape().n &&
           !widest_.compare_exchange_weak(seen, in.shape().n)) {
    }
    return ParkingLayer::Forward(in);
  }
  std::int64_t widest() const { return widest_.load(); }

 private:
  std::atomic<std::int64_t> widest_{0};
};

// The image split runs pool chunks of one image each; the busy flag covers
// the whole call, so a second caller is refused while a chunk is parked.
TEST(Sequential, SplitForwardRefusesASecondCaller) {
  Sequential net("t");
  auto& park = static_cast<WidthRecordingParkingLayer&>(
      net.Add(std::make_unique<WidthRecordingParkingLayer>()));
  net.Add(std::make_unique<Conv2D>("c", 1, 2, 1, 1, Padding::kSameCeil));
  HeInit(net, 5);
  util::Pcg32 rng(5);
  const auto n = static_cast<std::int64_t>(ImageSplitWidth());
  Tensor in(Shape{n, 1, 4, 4});
  in.FillNormal(rng, 1.0f);

  std::map<std::string, Tensor> first;
  std::thread holder([&] { first = net.ForwardWithTaps(in, {"c"}); });
  park.WaitParked();
  int rejected = 0;
  std::thread second([&] {
    try {
      (void)net.ForwardWithTaps(in, {"c"});
    } catch (const util::CheckError&) {
      ++rejected;
    }
    try {
      (void)net.Forward(in);
    } catch (const util::CheckError&) {
      ++rejected;
    }
  });
  second.join();
  park.Release();
  holder.join();
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(park.widest(), 1);
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(BitwiseEqual(first.at("c").Slice(i), net.Forward(in.Slice(i))))
        << "image " << i;
  }
}

// A layer in training mode keeps the whole batch on the calling thread: its
// saved input must cover every image for Backward.
TEST(Sequential, TrainingForwardWithTapsKeepsTheWholeBatch) {
  Sequential net("t");
  net.Add(std::make_unique<Conv2D>("c", 1, 2, 3, 1, Padding::kSameCeil));
  net.Add(MakeRelu("r"));
  HeInit(net, 6);
  net.SetTraining(true);
  util::Pcg32 rng(6);
  const auto n = static_cast<std::int64_t>(ImageSplitWidth()) + 1;
  Tensor in(Shape{n, 1, 6, 6});
  in.FillNormal(rng, 1.0f);
  const auto taps = net.ForwardWithTaps(in, {"r"});
  const Tensor dx = net.Backward(Tensor(taps.at("r").shape(), 1.0f));
  EXPECT_EQ(dx.shape(), in.shape());
}

TEST(Sequential, DuplicateNamesRejected) {
  Sequential net("t");
  net.Add(MakeRelu("same"));
  EXPECT_THROW(net.Add(MakeRelu("same")), util::CheckError);
}

TEST(Macs, MatchPaperFormulas) {
  // Conv: H/S * W/S * M * K^2 * F.
  Conv2D conv("c", 8, 16, 3, 2, Padding::kSameCeil);
  const Shape in{1, 8, 20, 20};
  EXPECT_EQ(conv.Macs(in), 10ull * 10 * 8 * 9 * 16);
  // Depthwise: H/S * W/S * M * K^2.
  DepthwiseConv2D dw("d", 8, 3, 2, Padding::kSameCeil);
  EXPECT_EQ(dw.Macs(in), 10ull * 10 * 8 * 9);
  // Separable = depthwise + pointwise = H/S*W/S*M*(K^2 + F).
  Conv2D pw("p", 8, 16, 1, 1, Padding::kSameCeil);
  const Shape mid{1, 8, 10, 10};
  EXPECT_EQ(dw.Macs(in) + pw.Macs(mid), 10ull * 10 * 8 * (9 + 16));
  // FC: N * flattened.
  FullyConnected fc("f", 100, 10);
  EXPECT_EQ(fc.Macs(Shape{1, 4, 5, 5}), 1000u);
}

TEST(Serialize, RoundTripRestoresWeights) {
  Sequential a("n"), b("n");
  for (auto* net : {&a, &b}) {
    net->Add(std::make_unique<Conv2D>("c1", 2, 4, 3, 1, Padding::kSameCeil));
    net->Add(std::make_unique<FullyConnected>("fc", 4, 2));
  }
  HeInit(a, 11);
  HeInit(b, 22);
  const std::string bytes = SerializeWeights(a);
  DeserializeWeights(b, bytes);
  // b now computes exactly what a computes.
  Tensor in(Shape{1, 2, 1, 1});
  util::Pcg32 rng(8);
  in.FillNormal(rng, 1.0f);
  EXPECT_TRUE(Tensor::AllClose(a.Forward(in), b.Forward(in), 0.0f));
}

TEST(Serialize, DetectsArchitectureMismatch) {
  Sequential a("a");
  a.Add(std::make_unique<FullyConnected>("fc", 4, 2));
  Sequential b("b");
  b.Add(std::make_unique<FullyConnected>("other", 4, 2));
  const std::string bytes = SerializeWeights(a);
  EXPECT_THROW(DeserializeWeights(b, bytes), util::CheckError);
  Sequential c("c");
  c.Add(std::make_unique<FullyConnected>("fc", 8, 2));
  EXPECT_THROW(DeserializeWeights(c, bytes), util::CheckError);
}

TEST(Serialize, RejectsGarbage) {
  Sequential a("a");
  a.Add(std::make_unique<FullyConnected>("fc", 4, 2));
  EXPECT_THROW(DeserializeWeights(a, "not a weight file"), util::CheckError);
}

// Two nets of one architecture with different weights: `donor` writes the
// checkpoint, `target` loads it.
struct SerializePair {
  Sequential donor{"n"}, target{"n"};
  SerializePair() {
    for (auto* net : {&donor, &target}) {
      net->Add(std::make_unique<Conv2D>("c1", 2, 4, 3, 1, Padding::kSameCeil));
      net->Add(std::make_unique<FullyConnected>("fc", 4, 2));
    }
    HeInit(donor, 11);
    HeInit(target, 22);
  }
  std::vector<std::vector<float>> TargetWeights() {
    std::vector<std::vector<float>> out;
    for (const auto& p : target.Params()) out.push_back(*p.value);
    return out;
  }
};

TEST(Serialize, CheckpointCutInItsLastBlobLeavesEveryWeightUnchanged) {
  SerializePair pair;
  const auto before = pair.TargetWeights();
  ASSERT_GE(before.size(), 2u);
  const std::string bytes = SerializeWeights(pair.donor);
  EXPECT_THROW(DeserializeWeights(pair.target,
                                  bytes.substr(0, bytes.size() - 1)),
               util::CheckError);
  const auto after = pair.TargetWeights();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i].size(), after[i].size());
    EXPECT_EQ(0, std::memcmp(before[i].data(), after[i].data(),
                             before[i].size() * sizeof(float)))
        << "blob " << i << " was overwritten by a refused checkpoint";
  }
}

TEST(Serialize, RejectsATrailingByte) {
  SerializePair pair;
  const std::string bytes = SerializeWeights(pair.donor);
  EXPECT_THROW(DeserializeWeights(pair.target, bytes + '\0'),
               util::CheckError);
  DeserializeWeights(pair.target, bytes);  // the exact stream still loads
}

TEST(Serialize, HugeNameLengthIsRefusedAtTheCap) {
  SerializePair pair;
  // Magic, version 1, the net's blob count, then a name length of 2^32 - 1.
  std::string bytes = "FFNW";
  for (const std::uint32_t v :
       {1u, static_cast<std::uint32_t>(pair.target.Params().size()),
        0xFFFFFFFFu}) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  try {
    DeserializeWeights(pair.target, bytes);
    FAIL() << "a 4 GiB name length was accepted";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cap of 4096"), std::string::npos)
        << e.what();
  }
}

TEST(HeInit, DeterministicPerLayerName) {
  Sequential a("x"), b("x");
  for (auto* net : {&a, &b}) {
    net->Add(std::make_unique<Conv2D>("c1", 2, 4, 3, 1, Padding::kSameCeil));
  }
  HeInit(a, 7);
  HeInit(b, 7);
  auto pa = a.Params()[0];
  auto pb = b.Params()[0];
  EXPECT_EQ(*pa.value, *pb.value);
  // Different seed -> different weights.
  HeInit(b, 8);
  EXPECT_NE(*pa.value, *pb.value);
}

}  // namespace
}  // namespace ff::nn
