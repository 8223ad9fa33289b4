// Fig. 5 reproduction: filtering throughput (fps) vs number of concurrent
// classifiers for FilterForward's three MC architectures, NoScope-style
// discrete classifiers, and multiple full MobileNets.
//
// Paper shapes this bench must reproduce:
//  * single classifier: FF runs at ~0.32-0.34x the DCs' speed;
//  * FF overtakes the DCs at 3-4 concurrent classifiers;
//  * by 20 classifiers FF is ~3-4x faster; by 50, up to ~6x;
//  * multiple MobileNets are never optimal and hit OOM at paper scale
//    beyond ~30 instances (flagged analytically below).
//
// All systems run on the same frames at the same resolution through the
// same kernels, as in the paper's testbed. Throughput is measured, not
// modeled. Weights are untrained (throughput does not depend on values).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <span>
#include <vector>

#include "baselines/discrete.hpp"
#include "baselines/mobilenet_filter.hpp"
#include "bench_common.hpp"
#include "core/edge_node.hpp"
#include "nn/kernels.hpp"

using namespace ff;
using bench::BenchParams;

namespace {

// FF_BENCH_QUANT=1 re-runs the FilterForward side on the int8 path: a
// quantize=true extractor (auto-calibrated on the warmup frame) plus
// quantized MCs for the single-frame architectures (windowed keeps its
// float net — it does not support quantize). Baselines stay float either
// way; they model competing systems, not our kernels.
const bool kQuantized = ff::util::EnvInt("FF_BENCH_QUANT", 0) != 0;

std::vector<std::int64_t> ClassifierCounts(std::int64_t max) {
  std::vector<std::int64_t> counts;
  for (const std::int64_t c : {1, 2, 3, 4, 5, 8, 12, 20, 35, 50}) {
    if (c <= max) counts.push_back(c);
  }
  return counts;
}

// Renders the measurement frames once (shared by all systems).
std::vector<video::Frame> RenderFrames(const video::SyntheticDataset& ds,
                                       std::int64_t n) {
  std::vector<video::Frame> frames;
  for (std::int64_t i = 0; i < n; ++i) frames.push_back(ds.RenderFrame(i));
  return frames;
}

double MeasureFilterForward(const std::string& arch,
                            const video::SyntheticDataset& ds,
                            const std::vector<video::Frame>& frames,
                            std::int64_t n_classifiers,
                            std::int64_t submit_batch) {
  dnn::FeatureExtractor fx(dnn::FeatureExtractorConfig{
      {.include_classifier = false}, /*quantize=*/kQuantized});
  // The paper's feature extractor evaluates the complete base DNN every
  // frame (its break-even analysis assumes the full MobileNet cost). Our
  // extractor can stop at the deepest requested tap — an extension beyond
  // the paper — so for a faithful Fig. 5 we force the full backbone.
  fx.RequestTap("conv6/sep");
  core::EdgeNodeConfig cfg;
  cfg.frame_width = ds.spec().width;
  cfg.frame_height = ds.spec().height;
  cfg.fps = ds.spec().fps;
  cfg.enable_upload = false;  // measure pure filtering, like the paper
  core::EdgeNode node(fx, cfg);
  const std::string tap = arch == "full_frame"
                              ? bench::LateTapForScale(ds.spec().width)
                              : bench::TapForScale(ds.spec().width);
  for (std::int64_t i = 0; i < n_classifiers; ++i) {
    node.Attach({.mc = core::MakeMicroclassifier(
                     arch,
                     {.name = arch + std::to_string(i), .tap = tap,
                      .seed = static_cast<std::uint64_t>(100 + i),
                      .quantize = kQuantized && arch != "windowed"},
                     fx, ds.spec().height, ds.spec().width)});
  }
  // Warmup one frame, then measure; FF_BENCH_BATCH > 1 measures the batched
  // Submit path (identical decisions, wider phase-1 parallelism).
  node.Submit(frames[0]);
  const std::span<const video::Frame> rest(frames.data() + 1,
                                           frames.size() - 1);
  util::WallTimer timer;
  if (submit_batch <= 1) {
    for (const auto& frame : rest) node.Submit(frame);
  } else {
    for (std::size_t i = 0; i < rest.size();
         i += static_cast<std::size_t>(submit_batch)) {
      node.Submit(rest.subspan(
          i, std::min(static_cast<std::size_t>(submit_batch),
                      rest.size() - i)));
    }
  }
  const double seconds = timer.ElapsedSeconds();
  node.Drain();
  return static_cast<double>(frames.size() - 1) / seconds;
}

double MeasurePixelBank(
    const std::vector<video::Frame>& frames,
    const std::function<float(const nn::Tensor&)>& infer_all) {
  // Warmup.
  {
    const auto& f = frames[0];
    infer_all(dnn::PreprocessRgb(f.r(), f.g(), f.b(), f.height(), f.width()));
  }
  util::WallTimer timer;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const auto& f = frames[i];
    infer_all(dnn::PreprocessRgb(f.r(), f.g(), f.b(), f.height(), f.width()));
  }
  return static_cast<double>(frames.size() - 1) / timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  BenchParams bp;
  bench::PrintHeader("Fig. 5: throughput vs number of classifiers", bp);
  const std::int64_t max_classifiers =
      util::EnvInt("FF_BENCH_MAX_CLASSIFIERS", 50);
  const std::int64_t n_frames = util::EnvInt("FF_BENCH_FRAMES", 3) + 1;
  const std::int64_t submit_batch = util::EnvInt("FF_BENCH_BATCH", 1);
  bench::JsonResult json("fig5_throughput",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);
  json.Set("frames_per_point", static_cast<double>(n_frames - 1));
  json.Set("submit_batch", static_cast<double>(submit_batch));
  json.Set("quantized", kQuantized ? 1.0 : 0.0);

  auto spec = video::JacksonSpec(bp.width, n_frames + 1, 31);
  spec.object_scale = bp.object_scale;
  const video::SyntheticDataset ds(spec);
  const auto frames = RenderFrames(ds, n_frames);
  const std::int64_t H = ds.spec().height, W = ds.spec().width;

  // Full base DNN cost at this resolution (the paper's extractor runs the
  // whole backbone), for the DC representative choice.
  dnn::FeatureExtractor probe({.include_classifier = false});
  probe.RequestTap("conv6/sep");
  const std::uint64_t base_macs = probe.MacsPerFrame(H, W);

  // Representative DC: the costliest Pareto-frontier member (the paper's
  // 100M-2.5B multiply-add family tops out at ~12% of the base DNN's cost;
  // we pick the family member closest to that upper end). Note the paper's
  // measured crossover (3-4 classifiers) reflects its DCs running on a
  // slower-per-MAC framework (TensorFlow) than its base DNN (Intel Caffe +
  // MKL-DNN); with both sides on identical kernels, the MAC-faithful
  // crossover lands somewhat later (see EXPERIMENTS.md).
  baselines::DiscreteClassifierSpec rep{};
  std::uint64_t best_diff = UINT64_MAX;
  for (const auto& s : baselines::DiscreteClassifierFamily()) {
    const auto macs = baselines::DiscreteClassifierMacs(s, H, W);
    const auto target = base_macs / 8;  // ~the family's costliest member
    const auto diff = macs > target ? macs - target : target - macs;
    if (diff < best_diff) {
      best_diff = diff;
      rep = s;
    }
  }
  std::printf("base DNN: %.1f M multiply-adds/frame; DC representative '%s': "
              "%.1f M (ratio %.2f)\n\n",
              static_cast<double>(base_macs) / 1e6, rep.name.c_str(),
              static_cast<double>(baselines::DiscreteClassifierMacs(rep, H, W)) /
                  1e6,
              static_cast<double>(baselines::DiscreteClassifierMacs(rep, H, W)) /
                  static_cast<double>(base_macs));

  const std::uint64_t mobilenet_bytes_paper_scale =
      baselines::MobileNetFilter::EstimateBytes(1080, 1920);

  util::Table t({"classifiers", "FF full-frame (fps)", "FF windowed (fps)",
                 "FF localized (fps)", "discrete classifiers (fps)",
                 "multiple MobileNets (fps)", "MobileNets note"});
  double ff_at_1 = 0, dc_at_1 = 0;
  double ff_last = 0, dc_last = 0;
  std::int64_t crossover = -1;
  for (const std::int64_t k : ClassifierCounts(max_classifiers)) {
    const double ff_full =
        MeasureFilterForward("full_frame", ds, frames, k, submit_batch);
    const double ff_win =
        MeasureFilterForward("windowed", ds, frames, k, submit_batch);
    const double ff_loc =
        MeasureFilterForward("localized", ds, frames, k, submit_batch);

    std::vector<std::unique_ptr<baselines::DiscreteClassifier>> dcs;
    for (std::int64_t i = 0; i < k; ++i) {
      auto s = rep;
      s.seed = static_cast<std::uint64_t>(200 + i);
      dcs.push_back(std::make_unique<baselines::DiscreteClassifier>(s, H, W));
    }
    const double dc_fps = MeasurePixelBank(frames, [&](const nn::Tensor& px) {
      float acc = 0;
      for (auto& dc : dcs) acc += dc->Infer(px);
      return acc;
    });

    std::vector<std::unique_ptr<baselines::MobileNetFilter>> mobs;
    for (std::int64_t i = 0; i < k; ++i) {
      mobs.push_back(std::make_unique<baselines::MobileNetFilter>(
          H, W, static_cast<std::uint64_t>(300 + i)));
    }
    const double mob_fps = MeasurePixelBank(frames, [&](const nn::Tensor& px) {
      float acc = 0;
      for (auto& m : mobs) acc += m->Infer(px);
      return acc;
    });
    // Paper-scale memory check (TF/Caffe overhead ~2x raw tensors).
    const double paper_gb = static_cast<double>(k) * 2.0 *
                            static_cast<double>(mobilenet_bytes_paper_scale) /
                            (1024.0 * 1024.0 * 1024.0);
    const std::string note =
        paper_gb > 32.0 ? "OOM at paper scale (" +
                              util::Table::Num(paper_gb, 0) + " GB > 32 GB)"
                        : util::Table::Num(paper_gb, 1) + " GB at paper scale";

    t.AddRow({std::to_string(k), util::Table::Num(ff_full, 2),
              util::Table::Num(ff_win, 2), util::Table::Num(ff_loc, 2),
              util::Table::Num(dc_fps, 2), util::Table::Num(mob_fps, 2),
              note});
    json.NewRow();
    json.Row("classifiers", static_cast<double>(k));
    json.Row("ff_full_frame_fps", ff_full);
    json.Row("ff_windowed_fps", ff_win);
    json.Row("ff_localized_fps", ff_loc);
    json.Row("discrete_fps", dc_fps);
    json.Row("mobilenets_fps", mob_fps);
    const double ff_best = std::max({ff_full, ff_win, ff_loc});
    if (k == 1) {
      ff_at_1 = ff_best;
      dc_at_1 = dc_fps;
    }
    if (crossover < 0 && ff_best > dc_fps) crossover = k;
    ff_last = ff_best;
    dc_last = dc_fps;
  }
  t.Print(std::cout);

  std::printf("\nsummary (paper: 0.32-0.34x at 1, crossover at 3-4, up to "
              "6.1x at 50):\n");
  std::printf("  FF/DC speed at 1 classifier : %.2fx\n", ff_at_1 / dc_at_1);
  std::printf("  crossover (FF beats DCs)    : %lld classifiers\n",
              static_cast<long long>(crossover));
  std::printf("  FF/DC speed at %lld         : %.2fx\n",
              static_cast<long long>(max_classifiers), ff_last / dc_last);
  json.Set("ff_dc_ratio_at_1", ff_at_1 / dc_at_1);
  json.Set("crossover_classifiers", static_cast<double>(crossover));
  json.Set("ff_dc_ratio_at_max", ff_last / dc_last);
  json.Set("base_dnn_mmacs", static_cast<double>(base_macs) / 1e6);
  json.Write();
  return 0;
}
