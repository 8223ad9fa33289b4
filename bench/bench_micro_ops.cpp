// google-benchmark microbenchmarks for the kernels underneath every
// experiment: convolutions (the base DNN's cost), DCT/quantization and
// motion search (the codec), K-voting and event metrics (the filtering
// tail), and synthetic-frame rendering (the workload generator).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "codec/dct.hpp"
#include "core/smoothing.hpp"
#include "metrics/event_metrics.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"
#include "video/dataset.hpp"

namespace {

using namespace ff;

void BM_PointwiseConv(benchmark::State& state) {
  const std::int64_t c_in = state.range(0);
  const std::int64_t c_out = state.range(1);
  nn::Conv2D conv("pw", c_in, c_out, 1, 1, nn::Padding::kSameCeil);
  nn::HeInitLayer(conv, 1);
  nn::Tensor in(nn::Shape{1, c_in, 24, 40});
  util::Pcg32 rng(2);
  in.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(in));
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(conv.Macs(in.shape())) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PointwiseConv)->Args({128, 128})->Args({512, 512})->Args({512, 32});

void BM_DepthwiseConv3x3(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  nn::DepthwiseConv2D conv("dw", c, 3, 1, nn::Padding::kSameFloor);
  nn::HeInitLayer(conv, 1);
  nn::Tensor in(nn::Shape{1, c, 24, 40});
  util::Pcg32 rng(3);
  in.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(in));
  }
}
BENCHMARK(BM_DepthwiseConv3x3)->Arg(128)->Arg(512);

void BM_Conv3x3Stride2(benchmark::State& state) {
  nn::Conv2D conv("c", 3, 32, 3, 2, nn::Padding::kSameFloor);
  nn::HeInitLayer(conv, 1);
  nn::Tensor in(nn::Shape{1, 3, 180, 320});
  util::Pcg32 rng(4);
  in.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(in));
  }
}
BENCHMARK(BM_Conv3x3Stride2);

// --- SIMD kernel library (dispatched vs scalar; arg 0 selects) -------------

const nn::kernels::OpTable& KernelTable(std::int64_t simd) {
  return simd != 0 ? nn::kernels::Active() : nn::kernels::scalar::Table();
}

void BM_KernelPwAcc4(benchmark::State& state) {
  const auto& ops = KernelTable(state.range(0));
  const std::int64_t n = 960, n_ic = 128;
  util::Pcg32 rng(12);
  std::vector<float> xdata(static_cast<std::size_t>(n * n_ic));
  for (auto& v : xdata) v = rng.NextFloat();
  std::vector<const float*> xs(static_cast<std::size_t>(n_ic));
  for (std::int64_t ic = 0; ic < n_ic; ++ic) xs[static_cast<std::size_t>(ic)] = xdata.data() + ic * n;
  std::vector<float> w(static_cast<std::size_t>(4 * n_ic)), y(static_cast<std::size_t>(4 * n));
  for (auto& v : w) v = rng.NextFloat();
  for (auto _ : state) {
    ops.pw_acc4(xs.data(), n_ic, w.data(), n_ic, y.data(), y.data() + n,
                y.data() + 2 * n, y.data() + 3 * n, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(4 * n_ic * n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KernelPwAcc4)->Arg(0)->Arg(1);

// The 8-output-channel pointwise tile (8 x 32 pixels in zmm registers on
// AVX-512; two pw_acc4 calls on the narrower tiers).
void BM_KernelPwAcc8(benchmark::State& state) {
  const auto& ops = KernelTable(state.range(0));
  const std::int64_t n = 960, n_ic = 128;
  util::Pcg32 rng(14);
  std::vector<float> xdata(static_cast<std::size_t>(n * n_ic));
  for (auto& v : xdata) v = rng.NextFloat();
  std::vector<const float*> xs(static_cast<std::size_t>(n_ic));
  for (std::int64_t ic = 0; ic < n_ic; ++ic) xs[static_cast<std::size_t>(ic)] = xdata.data() + ic * n;
  std::vector<float> w(static_cast<std::size_t>(8 * n_ic)), y(static_cast<std::size_t>(8 * n));
  for (auto& v : w) v = rng.NextFloat();
  for (auto _ : state) {
    ops.pw_acc8(xs.data(), n_ic, w.data(), n_ic, y.data(), n, n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(8 * n_ic * n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KernelPwAcc8)->Arg(0)->Arg(1);

// One stride-2 tap over a 64x64 output plane read from a 128-wide input,
// the shape of a stride-2 depthwise layer's inner call.
void BM_KernelAxpyRowsS2(benchmark::State& state) {
  const auto& ops = KernelTable(state.range(0));
  const std::int64_t rows = 64, n = 64, x_stride = 2 * 128;
  util::Pcg32 rng(15);
  std::vector<float> x(static_cast<std::size_t>(rows * x_stride)),
      y(static_cast<std::size_t>(rows * n));
  for (auto& v : x) v = rng.NextFloat();
  for (auto _ : state) {
    ops.axpy_rows_s2(0.7f, x.data(), x_stride, y.data(), n, rows, n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(rows * n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KernelAxpyRowsS2)->Arg(0)->Arg(1);

void BM_KernelSad16x16(benchmark::State& state) {
  const auto& ops = KernelTable(state.range(0));
  util::Pcg32 rng(13);
  std::vector<std::uint8_t> a(64 * 64), b(64 * 64);
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.Uniform(0, 256));
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.Uniform(0, 256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.sad16x16(a.data(), 64, b.data() + 5, 64));
  }
}
BENCHMARK(BM_KernelSad16x16)->Arg(0)->Arg(1);

void BM_KernelDot(benchmark::State& state) {
  const auto& ops = KernelTable(state.range(0));
  const std::int64_t n = 4608;
  util::Pcg32 rng(14);
  std::vector<float> a(static_cast<std::size_t>(n)), b(a.size());
  for (auto& v : a) v = rng.NextFloat();
  for (auto& v : b) v = rng.NextFloat();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.dot(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_KernelDot)->Arg(0)->Arg(1);

// --- int8 kernels (GOP/s vs the float counterparts above) ------------------

void BM_KernelQPwAcc2Packed(benchmark::State& state) {
  // Two output channels of a 128-channel pointwise contraction through the
  // channel-quad packed layout (pack amortized across all output channels,
  // as RunOp does). The second arg is the plane size: 960 matches the float
  // pw_acc benches, 144 is the 9x16 conv5 plane at 256px input whose
  // 16-pixel tail used to fall off the SIMD path.
  const auto& ops = KernelTable(state.range(0));
  const std::int64_t n = state.range(1), n_ic = 128;
  util::Pcg32 rng(21);
  std::vector<std::uint8_t> xdata(static_cast<std::size_t>(n * n_ic));
  for (auto& v : xdata) v = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  std::vector<const std::uint8_t*> xs(static_cast<std::size_t>(n_ic));
  for (std::int64_t ic = 0; ic < n_ic; ++ic) {
    xs[static_cast<std::size_t>(ic)] = xdata.data() + ic * n;
  }
  std::vector<std::uint8_t> packed(static_cast<std::size_t>(n_ic * n));
  ops.qpw_pack(xs.data(), n_ic, packed.data(), n);
  std::vector<std::int8_t> w(static_cast<std::size_t>(2 * n_ic));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.UniformInt(-127, 127));
  std::vector<std::int32_t> acc0(static_cast<std::size_t>(n));
  std::vector<std::int32_t> acc1(static_cast<std::size_t>(n));
  for (auto _ : state) {
    std::fill(acc0.begin(), acc0.end(), 0);
    std::fill(acc1.begin(), acc1.end(), 0);
    ops.qpw_acc2p(packed.data(), n_ic, w.data(), w.data() + n_ic,
                  acc0.data(), acc1.data(), n);
    benchmark::DoNotOptimize(acc0.data());
    benchmark::DoNotOptimize(acc1.data());
  }
  state.counters["GOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(2 * n_ic * n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KernelQPwAcc2Packed)
    ->Args({0, 960})
    ->Args({1, 960})
    ->Args({0, 144})
    ->Args({1, 144});

void BM_KernelQAxpyRowsS2(benchmark::State& state) {
  // Stride-2 row accumulate (conv1's downsampling taps): even bytes of each
  // padded row scaled into the s32 plane.
  const auto& ops = KernelTable(state.range(0));
  const std::int64_t rows = 72, n = 128, xstride = 2 * n + 2;
  util::Pcg32 rng(24);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(rows * xstride) + 32);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * n));
  for (auto _ : state) {
    ops.qaxpy_rows_s2(-77, x.data(), xstride, acc.data(), n, rows, n);
    benchmark::DoNotOptimize(acc.data());
  }
  state.counters["GOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(rows * n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KernelQAxpyRowsS2)->Arg(0)->Arg(1);

void BM_KernelQDot(benchmark::State& state) {
  const auto& ops = KernelTable(state.range(0));
  const std::int64_t n = 4608;
  util::Pcg32 rng(22);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(n));
  std::vector<std::int8_t> w(x.size());
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.UniformInt(-127, 127));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.qdot(x.data(), w.data(), n));
  }
  state.counters["GOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KernelQDot)->Arg(0)->Arg(1);

void BM_KernelQRequant(benchmark::State& state) {
  const auto& ops = KernelTable(state.range(0));
  const std::int64_t n = 960;
  util::Pcg32 rng(23);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
  for (auto& v : acc) {
    v = static_cast<std::int32_t>(rng.UniformInt(-2'000'000, 2'000'000));
  }
  std::vector<std::uint8_t> y(acc.size());
  for (auto _ : state) {
    ops.qrequant(acc.data(), 2.47e-4f, 3.5f, y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Gelem/s"] = benchmark::Counter(
      1e-9 * static_cast<double>(n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KernelQRequant)->Arg(0)->Arg(1);

void BM_QuantizedPointwiseConv(benchmark::State& state) {
  // End-to-end int8 pointwise op (quantize + conv + requant + dequant
  // boundaries amortized over the program), against BM_PointwiseConv.
  const std::int64_t c_in = state.range(0);
  const std::int64_t c_out = state.range(1);
  nn::Sequential net("qpw");
  net.Add(std::make_unique<nn::Conv2D>("pw", c_in, c_out, 1, 1,
                                       nn::Padding::kSameCeil));
  net.Add(nn::MakeRelu("pw/relu"));
  nn::HeInit(net, 1);
  nn::Tensor in(nn::Shape{1, c_in, 24, 40});
  util::Pcg32 rng(2);
  in.FillNormal(rng, 1.0f);
  const auto prog = nn::Quantizer::Quantize(net, in);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prog.Forward(in));
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(net.layer(0).Macs(in.shape())) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_QuantizedPointwiseConv)
    ->Args({128, 128})
    ->Args({512, 512})
    ->Args({512, 32});

void BM_Dct8x8RoundTrip(benchmark::State& state) {
  util::Pcg32 rng(5);
  codec::Block b{};
  for (auto& v : b) v = static_cast<float>(rng.Uniform(-128, 128));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::InverseDct(codec::ForwardDct(b)));
  }
}
BENCHMARK(BM_Dct8x8RoundTrip);

// Renders a clip up front, so the codec benches time the codec alone.
std::vector<video::Frame> RenderClip(const video::SyntheticDataset& ds) {
  std::vector<video::Frame> frames;
  for (std::int64_t t = 0; t < ds.n_frames(); ++t) {
    frames.push_back(ds.RenderFrame(t));
  }
  return frames;
}

void BM_EncodeFrame(benchmark::State& state) {
  const video::SyntheticDataset ds(video::JacksonSpec(320, 64, 41));
  const std::vector<video::Frame> frames = RenderClip(ds);
  codec::EncoderConfig cfg{.width = ds.spec().width,
                           .height = ds.spec().height};
  cfg.target_bitrate_bps = 200000;
  codec::Encoder enc(cfg);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.EncodeFrame(frames[i++ % frames.size()]));
  }
}
BENCHMARK(BM_EncodeFrame);

// perfbench's camera feed: 256x144 Jackson at constant QP 20, GOP 30.
void BM_DecodeFrame(benchmark::State& state) {
  const video::SyntheticDataset ds(video::JacksonSpec(256, 60, 43));
  codec::EncoderConfig cfg{.width = ds.spec().width,
                           .height = ds.spec().height};
  cfg.initial_qp = 20;
  cfg.gop_size = 30;
  codec::Encoder enc(cfg);
  std::vector<std::string> chunks;
  for (const video::Frame& f : RenderClip(ds)) {
    chunks.push_back(enc.EncodeFrame(f));
  }
  // The clip opens with an I-frame, so cycling through it keeps every
  // P-frame's reference.
  codec::Decoder dec(cfg.width, cfg.height);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.DecodeFrame(chunks[i++ % chunks.size()]));
  }
}
BENCHMARK(BM_DecodeFrame);

void BM_RenderFrame(benchmark::State& state) {
  const video::SyntheticDataset ds(video::JacksonSpec(320, 64, 42));
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.RenderFrame(i % 64));
    ++i;
  }
}
BENCHMARK(BM_RenderFrame);

void BM_KVotingSmoothing(benchmark::State& state) {
  util::Pcg32 rng(6);
  std::vector<std::uint8_t> raw(10000);
  for (auto& v : raw) v = rng.Bernoulli(0.2) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SmoothLabels(raw, 5, 2));
  }
}
BENCHMARK(BM_KVotingSmoothing);

void BM_EventMetrics(benchmark::State& state) {
  util::Pcg32 rng(7);
  std::vector<std::uint8_t> truth(10000), pred(10000);
  for (auto& v : truth) v = rng.Bernoulli(0.2) ? 1 : 0;
  for (auto& v : pred) v = rng.Bernoulli(0.25) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::ComputeEventMetrics(truth, pred));
  }
}
BENCHMARK(BM_EventMetrics);

}  // namespace

BENCHMARK_MAIN();
