// Fig. 6 reproduction: per-frame execution-time breakdown of FilterForward's
// two phases — the shared base DNN vs. the microclassifiers — as the number
// of concurrent MCs grows from 1 to 50, for each MC architecture.
//
// Paper shapes: the base DNN dominates at low classifier counts; total time
// grows only modestly with dozens of MCs; the base DNN's CPU time equals
// that of roughly 15-40 MCs (printed as the "break-even" column).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/microclassifier.hpp"
#include "dnn/feature_extractor.hpp"
#include "util/timer.hpp"

using namespace ff;
using bench::BenchParams;

int main(int argc, char** argv) {
  BenchParams bp;
  bench::PrintHeader("Fig. 6: execution time breakdown (base DNN vs MCs)",
                     bp);
  const std::int64_t max_classifiers =
      util::EnvInt("FF_BENCH_MAX_CLASSIFIERS", 50);
  const std::int64_t n_frames = util::EnvInt("FF_BENCH_FRAMES", 3) + 1;
  bench::JsonResult json("fig6_breakdown",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);

  auto spec = video::JacksonSpec(bp.width, n_frames + 1, 32);
  spec.object_scale = bp.object_scale;
  const video::SyntheticDataset ds(spec);
  std::vector<video::Frame> frames;
  for (std::int64_t i = 0; i < n_frames; ++i) frames.push_back(ds.RenderFrame(i));

  for (const char* arch : {"full_frame", "localized", "windowed"}) {
    std::printf("--- Fig. 6 (%s) ---\n", arch);
    util::Table t({"classifiers", "base DNN (s/frame)", "MCs (s/frame)",
                   "total (s/frame)", "MC share", "base = N MCs"});
    for (const std::int64_t k : {1, 2, 4, 8, 16, 32, 50}) {
      if (k > max_classifiers) break;
      dnn::FeatureExtractor fx({.include_classifier = false});
      // Faithful to the paper: the extractor runs the complete base DNN
      // (see the matching note in bench_fig5_throughput.cpp).
      fx.RequestTap("conv6/sep");
      const std::string tap = std::string(arch) == "full_frame"
                                  ? bench::LateTapForScale(ds.spec().width)
                                  : bench::TapForScale(ds.spec().width);
      fx.RequestTap(tap);
      std::vector<std::unique_ptr<core::Microclassifier>> mcs;
      for (std::int64_t i = 0; i < k; ++i) {
        mcs.push_back(core::MakeMicroclassifier(
            arch,
            {.name = arch + std::to_string(i), .tap = tap,
             .seed = static_cast<std::uint64_t>(500 + i)},
            fx, ds.spec().height, ds.spec().width));
      }
      // The two phases of an EdgeNode frame, timed here: one batch-1 base
      // DNN forward, then every MC in attach order on this thread. Serial
      // MCs attribute per-MC *CPU* cost (the "base = N MCs" column), which
      // the node's pooled phase-2 wall time would hide.
      util::PhaseTimer base_timer, mc_timer;
      dnn::FeatureMaps fm;
      for (const auto& f : frames) {
        const nn::Tensor input = dnn::PreprocessRgb(
            f.r(), f.g(), f.b(), ds.spec().height, ds.spec().width);
        base_timer.Start();
        fm = fx.Extract(input);
        base_timer.Stop();
        mc_timer.Start();
        for (auto& mc : mcs) mc->Infer(fm);
        mc_timer.Stop();
      }
      // End of stream, as EdgeNode::Drain: a windowed MC replays the last
      // frame's maps to score its final DecisionDelay() frames.
      mc_timer.Start();
      for (auto& mc : mcs) {
        const std::int64_t tail = std::min<std::int64_t>(
            mc->DecisionDelay(), static_cast<std::int64_t>(frames.size()));
        for (std::int64_t i = 0; i < tail; ++i) mc->Infer(fm);
      }
      mc_timer.Stop();
      const auto n = static_cast<double>(frames.size());
      const double base_s = base_timer.total_seconds() / n;
      const double mc_s = mc_timer.total_seconds() / n;
      const double per_mc = mc_s / static_cast<double>(k);
      t.AddRow({std::to_string(k), util::Table::Num(base_s, 4),
                util::Table::Num(mc_s, 4),
                util::Table::Num(base_s + mc_s, 4),
                util::Table::Num(100.0 * mc_s / (base_s + mc_s), 1) + "%",
                util::Table::Num(per_mc > 0 ? base_s / per_mc : 0, 1)});
      json.NewRow();
      json.Row("arch", arch);
      json.Row("classifiers", static_cast<double>(k));
      json.Row("base_dnn_s_per_frame", base_s);
      json.Row("mc_s_per_frame", mc_s);
    }
    t.Print(std::cout);
    std::printf("\n");
  }
  std::printf("paper: base DNN dominates at low counts; its CPU time is "
              "equivalent to ~15-40 MCs depending on the architecture.\n");
  json.Write();
  return 0;
}
