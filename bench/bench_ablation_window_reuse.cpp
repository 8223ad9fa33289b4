// Ablation of the windowed MC's 1x1-conv buffer reuse (paper §3.3.3: "the
// 1x1 convolutions are only computed once, and their outputs are buffered
// and reused by subsequent windows, eliminating redundant computation").
//
// Measures per-frame inference time and analytic multiply-adds with the
// optimization on and off, verifying outputs stay identical: the exit status
// is non-zero when any output differs by more than kMaxOutputDiff.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

using namespace ff;
using bench::BenchParams;

namespace {
// The tolerance core_mc_test's WindowedMc.BufferReuseMatchesRecompute asserts.
constexpr double kMaxOutputDiff = 1e-5;
}  // namespace

int main(int argc, char** argv) {
  BenchParams bp;
  bench::PrintHeader("Ablation: windowed MC 1x1 buffer reuse", bp);
  bench::JsonResult json("ablation_window_reuse",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);
  const std::int64_t timed = util::EnvInt("FF_BENCH_FRAMES", 8);
  const std::int64_t n_frames = bench::kWarmupFrames + timed;

  auto spec = video::RoadwaySpec(bp.width, n_frames + 1, 33);
  spec.object_scale = bp.object_scale;
  const video::SyntheticDataset ds(spec);
  const std::string tap = bench::TapForScale(bp.width);

  dnn::FeatureExtractor fx({.include_classifier = false});
  fx.RequestTap(tap);
  core::McConfig cfg{.name = "win", .tap = tap, .seed = 9};
  cfg.pixel_crop = spec.crop;
  core::WindowedLocalizedMc with_reuse(cfg, fx, spec.height, spec.width, 5,
                                       /*reuse_buffers=*/true);
  core::WindowedLocalizedMc without_reuse(cfg, fx, spec.height, spec.width, 5,
                                          /*reuse_buffers=*/false);

  // Extract features once.
  std::vector<dnn::FeatureMaps> fms;
  for (std::int64_t i = 0; i < n_frames; ++i) {
    fms.push_back(fx.Extract(bench::Preprocess(ds.RenderFrame(i))));
  }

  // Time both paths over every frame (warm-up included in the outputs), then
  // check they agree.
  const auto time_ms = [&](core::WindowedLocalizedMc& mc,
                           std::vector<float>& out) {
    return bench::TimeFrames(timed, [&](std::int64_t i) {
             out.push_back(mc.Infer(fms[i]));
           })
        .Map([](double s) { return s * 1e3; });
  };
  std::vector<float> a, b;
  const bench::Spread reuse = time_ms(with_reuse, a);
  const bench::Spread naive = time_ms(without_reuse, b);
  const double reuse_ms = reuse.median, naive_ms = naive.median;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(static_cast<double>(a[i] - b[i])));
  }

  util::Table t({"variant", "ms/frame", "M multiply-adds/frame"});
  t.AddRow({"with buffer reuse (paper)", util::Table::Num(reuse_ms, 3),
            util::Table::Num(
                static_cast<double>(with_reuse.MarginalMacsPerFrame()) / 1e6,
                2)});
  t.AddRow({"without reuse", util::Table::Num(naive_ms, 3),
            util::Table::Num(
                static_cast<double>(with_reuse.MarginalMacsWithoutReuse()) /
                    1e6,
                2)});
  t.Print(std::cout);
  std::printf("\nspeedup: %.2fx measured, %.2fx analytic; max output "
              "difference: %.2e (must be ~0 — the optimization is exact)\n",
              naive_ms / reuse_ms,
              static_cast<double>(with_reuse.MarginalMacsWithoutReuse()) /
                  static_cast<double>(with_reuse.MarginalMacsPerFrame()),
              max_diff);
  json.Set("reuse_ms_per_frame", reuse);
  json.Set("no_reuse_ms_per_frame", naive);
  json.Set("measured_speedup_x", naive_ms / reuse_ms);
  json.Set("analytic_speedup_x",
           static_cast<double>(with_reuse.MarginalMacsWithoutReuse()) /
               static_cast<double>(with_reuse.MarginalMacsPerFrame()));
  json.Set("max_output_diff", max_diff);
  json.Write();
  if (max_diff > kMaxOutputDiff) {
    std::fprintf(stderr, "FAIL: max output difference %.2e exceeds %.0e\n",
                 max_diff, kMaxOutputDiff);
    return 1;
  }
  return 0;
}
