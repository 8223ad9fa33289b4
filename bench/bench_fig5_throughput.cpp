// Fig. 5 and Fig. 6 reproduction, one experiment as in paper §4.4:
// filtering throughput (fps) vs number of concurrent classifiers for
// FilterForward's three MC architectures, NoScope-style discrete
// classifiers, and multiple full MobileNets (Fig. 5); and, for the same
// FilterForward cells, the per-frame time of the shared base DNN vs the
// microclassifiers (Fig. 6).
//
// Paper shapes this bench must reproduce:
//  * single classifier: FF runs at ~0.32-0.34x the DCs' speed;
//  * FF overtakes the DCs at 3-4 concurrent classifiers;
//  * by 20 classifiers FF is ~3-4x faster; by 50, up to ~6x;
//  * multiple MobileNets are never optimal and hit OOM at paper scale
//    beyond ~30 instances (flagged analytically below);
//  * the base DNN dominates at low classifier counts, total time grows only
//    modestly with dozens of MCs, and the base DNN's CPU time equals that of
//    roughly 15-40 MCs (the "base = N MCs" column).
//
// All systems run on the same frames at the same resolution through the
// same kernels, as in the paper's testbed. Throughput is measured, not
// modeled. Weights are untrained (throughput does not depend on values).
// Every cell is the median of FF_BENCH_FRAMES per-frame samples after
// bench::kWarmupFrames untimed frames; the JSON rows carry the quartiles.
#include <algorithm>
#include <cstdio>
#include <iostream>
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

constexpr const char* kArchs[] = {"full_frame", "windowed", "localized"};

std::vector<std::int64_t> ClassifierCounts(std::int64_t max) {
  std::vector<std::int64_t> counts;
  for (const std::int64_t c : {1, 2, 3, 4, 5, 8, 12, 20, 35, 50}) {
    if (c <= max) counts.push_back(c);
  }
  return counts;
}

// One FilterForward cell: k MCs of one architecture on one extractor.
struct FfCell {
  bench::Spread fps;   // Fig. 5: EdgeNode frames per second
  bench::Spread base;  // Fig. 6: batch-1 base DNN, seconds per frame
  bench::Spread mcs;   // Fig. 6: every MC, serially, seconds per frame
};

FfCell MeasureFilterForward(const std::string& arch,
                            const video::SyntheticDataset& ds,
                            const std::vector<video::Frame>& frames,
                            std::int64_t n_classifiers, std::int64_t timed) {
  dnn::FeatureExtractor fx(dnn::FeatureExtractorConfig{
      {.include_classifier = false}, /*quantize=*/kQuantized});
  // The paper's feature extractor evaluates the complete base DNN every
  // frame (its break-even analysis assumes the full MobileNet cost). Our
  // extractor can stop at the deepest requested tap — an extension beyond
  // the paper — so for a faithful Fig. 5/6 we force the full backbone.
  fx.RequestTap("conv6/sep");
  const std::string tap = arch == "full_frame"
                              ? bench::LateTapForScale(ds.spec().width)
                              : bench::TapForScale(ds.spec().width);
  fx.RequestTap(tap);
  std::vector<std::unique_ptr<core::Microclassifier>> mcs;
  for (std::int64_t i = 0; i < n_classifiers; ++i) {
    mcs.push_back(core::MakeMicroclassifier(
        arch,
        {.name = arch + std::to_string(i), .tap = tap,
         .seed = static_cast<std::uint64_t>(100 + i),
         .quantize = kQuantized && arch != "windowed"},
        fx, ds.spec().height, ds.spec().width));
  }

  // Fig. 6: the two phases of an EdgeNode frame, timed here: one batch-1
  // base DNN forward, then every MC in attach order on this thread. Serial
  // MCs attribute per-MC *CPU* cost (the "base = N MCs" column), which the
  // node's pooled phase-2 wall time would hide.
  dnn::FeatureMaps fm;
  const auto [base, mc] = bench::SampleFrames(timed, [&](std::int64_t i) {
    const nn::Tensor input = bench::Preprocess(frames[i]);
    const util::WallTimer base_timer;
    fm = fx.Extract(input);
    const double base_s = base_timer.ElapsedSeconds();
    const util::WallTimer mc_timer;
    for (auto& m : mcs) m->Infer(fm);
    return std::array{base_s, mc_timer.ElapsedSeconds()};
  });
  // End of stream, as EdgeNode::Drain: a windowed MC replays the last
  // frame's maps to score its final DecisionDelay() frames. That tail is
  // spread over every frame of the stream.
  const util::WallTimer tail_timer;
  for (auto& m : mcs) {
    const std::int64_t tail = std::min<std::int64_t>(
        m->DecisionDelay(), static_cast<std::int64_t>(frames.size()));
    for (std::int64_t i = 0; i < tail; ++i) m->Infer(fm);
  }
  const double tail_s =
      tail_timer.ElapsedSeconds() / static_cast<double>(frames.size());

  // Fig. 5: the same extractor and MCs, with fresh temporal state, through
  // the node frame by frame.
  core::EdgeNodeConfig cfg;
  cfg.frame_width = ds.spec().width;
  cfg.frame_height = ds.spec().height;
  cfg.fps = ds.spec().fps;
  cfg.enable_upload = false;  // measure pure filtering, like the paper
  core::EdgeNode node(fx, cfg);
  for (auto& m : mcs) {
    m->ResetTemporalState();
    node.Attach({.mc = std::move(m)});
  }
  const bench::Spread per_frame = bench::TimeFrames(timed, [&](std::int64_t i) {
    node.Submit(frames[i]);
  });
  node.Drain();
  return {per_frame.Inverse(), base,
          mc.Map([tail_s](double s) { return s + tail_s; })};
}

}  // namespace

int main(int argc, char** argv) {
  BenchParams bp;
  bench::PrintHeader(
      "Fig. 5/6: throughput and time breakdown vs number of classifiers", bp);
  const std::int64_t max_classifiers =
      util::EnvInt("FF_BENCH_MAX_CLASSIFIERS", 50);
  const std::int64_t timed = util::EnvInt("FF_BENCH_FRAMES", 3);
  const std::int64_t n_frames = bench::kWarmupFrames + timed;
  std::printf("each cell: median of %lld timed frames after %lld warm-up "
              "frame(s)\n",
              static_cast<long long>(timed),
              static_cast<long long>(bench::kWarmupFrames));
  bench::JsonResult json("fig5_throughput",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);
  json.Set("frames_per_point", static_cast<double>(timed));
  json.Set("warmup_frames", static_cast<double>(bench::kWarmupFrames));
  json.Set("quantized", kQuantized ? 1.0 : 0.0);

  auto spec = video::JacksonSpec(bp.width, n_frames + 1, 31);
  spec.object_scale = bp.object_scale;
  const video::SyntheticDataset ds(spec);
  std::vector<video::Frame> frames;  // shared by all systems
  for (std::int64_t i = 0; i < n_frames; ++i) {
    frames.push_back(ds.RenderFrame(i));
  }
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

  // Fig. 6 rows, one table per architecture, filled as the sweep goes.
  std::vector<util::Table> breakdown;
  for (std::size_t a = 0; a < std::size(kArchs); ++a) {
    breakdown.emplace_back(std::vector<std::string>{
        "classifiers", "base DNN (s/frame)", "MCs (s/frame)",
        "total (s/frame)", "MC share", "base = N MCs"});
  }
  util::Table t({"classifiers", "FF full-frame (fps)", "FF windowed (fps)",
                 "FF localized (fps)", "discrete classifiers (fps)",
                 "multiple MobileNets (fps)", "MobileNets note"});
  double ff_at_1 = 0, dc_at_1 = 0;
  double ff_last = 0, dc_last = 0;
  std::int64_t crossover = -1;
  const std::vector<std::int64_t> counts = ClassifierCounts(max_classifiers);
  FF_CHECK_MSG(!counts.empty(), "FF_BENCH_MAX_CLASSIFIERS must be >= 1");
  for (const std::int64_t k : counts) {
    std::vector<FfCell> ff;
    for (std::size_t a = 0; a < std::size(kArchs); ++a) {
      const FfCell& c = ff.emplace_back(
          MeasureFilterForward(kArchs[a], ds, frames, k, timed));
      const double base_s = c.base.median, mc_s = c.mcs.median;
      const double per_mc = mc_s / static_cast<double>(k);
      breakdown[a].AddRow(
          {std::to_string(k), util::Table::Num(base_s, 4),
           util::Table::Num(mc_s, 4), util::Table::Num(base_s + mc_s, 4),
           util::Table::Num(100.0 * mc_s / (base_s + mc_s), 1) + "%",
           util::Table::Num(per_mc > 0 ? base_s / per_mc : 0, 1)});
      json.NewRow();
      json.Row("table", "fig6");
      json.Row("arch", kArchs[a]);
      json.Row("classifiers", static_cast<double>(k));
      json.Row("base_dnn_s_per_frame", c.base);
      json.Row("mc_s_per_frame", c.mcs);
    }
    const double ff_full = ff[0].fps.median, ff_win = ff[1].fps.median,
                 ff_loc = ff[2].fps.median;

    // Pixel banks: k independent classifiers, each on the whole frame.
    const auto pixel_bank_fps = [&](auto make_classifier) {
      std::vector<decltype(make_classifier(0))> bank;
      for (std::int64_t i = 0; i < k; ++i) bank.push_back(make_classifier(i));
      return bench::TimeFrames(timed, [&](std::int64_t i) {
               const nn::Tensor px = bench::Preprocess(frames[i]);
               for (auto& c : bank) c->Infer(px);
             })
          .Inverse();
    };
    const bench::Spread dc = pixel_bank_fps([&](std::int64_t i) {
      auto s = rep;
      s.seed = static_cast<std::uint64_t>(200 + i);
      return std::make_unique<baselines::DiscreteClassifier>(s, H, W);
    });
    const bench::Spread mob = pixel_bank_fps([&](std::int64_t i) {
      return std::make_unique<baselines::MobileNetFilter>(
          H, W, static_cast<std::uint64_t>(300 + i));
    });
    const double dc_fps = dc.median;
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
              util::Table::Num(dc_fps, 2), util::Table::Num(mob.median, 2),
              note});
    json.NewRow();
    json.Row("table", "fig5");
    json.Row("classifiers", static_cast<double>(k));
    json.Row("ff_full_frame_fps", ff[0].fps);
    json.Row("ff_windowed_fps", ff[1].fps);
    json.Row("ff_localized_fps", ff[2].fps);
    json.Row("discrete_fps", dc);
    json.Row("mobilenets_fps", mob);
    const double ff_best = std::max({ff_full, ff_win, ff_loc});
    if (k == 1) {
      ff_at_1 = ff_best;
      dc_at_1 = dc_fps;
    }
    if (crossover < 0 && ff_best > dc_fps) crossover = k;
    ff_last = ff_best;
    dc_last = dc_fps;
  }
  std::printf("--- Fig. 5 ---\n");
  t.Print(std::cout);

  std::printf("\nsummary (paper: 0.32-0.34x at 1, crossover at 3-4, up to "
              "6.1x at 50):\n");
  std::printf("  FF/DC speed at 1 classifier : %.2fx\n", ff_at_1 / dc_at_1);
  std::printf("  crossover (FF beats DCs)    : %lld classifiers\n",
              static_cast<long long>(crossover));
  std::printf("  FF/DC speed at %lld         : %.2fx\n",
              static_cast<long long>(counts.back()), ff_last / dc_last);
  json.Set("ff_dc_ratio_at_1", ff_at_1 / dc_at_1);
  json.Set("crossover_classifiers", static_cast<double>(crossover));
  json.Set("ff_dc_ratio_at_max", ff_last / dc_last);
  json.Set("base_dnn_mmacs", static_cast<double>(base_macs) / 1e6);

  for (std::size_t a = 0; a < std::size(kArchs); ++a) {
    std::printf("\n--- Fig. 6 (%s) ---\n", kArchs[a]);
    breakdown[a].Print(std::cout);
  }
  std::printf("\npaper: base DNN dominates at low counts; its CPU time is "
              "equivalent to ~15-40 MCs depending on the architecture.\n");
  json.Write();
  return 0;
}
