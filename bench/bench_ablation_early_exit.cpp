// Ablation of this implementation's early-exit feature extraction — an
// extension beyond the paper. The paper's extractor evaluates the complete
// base DNN per frame; ours stops at the deepest tap any tenant requested,
// so an edge node whose MCs all read mid-network layers skips the deepest
// (and widest) layers entirely.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace ff;
using bench::BenchParams;

int main(int argc, char** argv) {
  BenchParams bp;
  bench::PrintHeader("Ablation: early-exit feature extraction (extension)",
                     bp);
  bench::JsonResult json("ablation_early_exit",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);
  const std::int64_t timed = util::EnvInt("FF_BENCH_FRAMES", 6);
  auto spec = video::JacksonSpec(bp.width, bench::kWarmupFrames + timed + 1,
                                 34);
  const video::SyntheticDataset ds(spec);
  std::vector<nn::Tensor> inputs;
  for (std::int64_t i = 0; i < bench::kWarmupFrames + timed; ++i) {
    inputs.push_back(bench::Preprocess(ds.RenderFrame(i)));
  }

  util::Table t({"deepest tap", "stride", "G multiply-adds/frame",
                 "ms/frame", "vs full backbone"});
  double full_ms = 0;
  // Taps from deepest to shallowest; the first row is the paper's behavior.
  for (const std::string& tap : {std::string("conv6/sep"),
                                std::string("conv5_6/sep"),
                                std::string("conv4_2/sep"),
                                std::string("conv3_2/sep")}) {
    dnn::FeatureExtractor fx({.include_classifier = false});
    fx.RequestTap(tap);
    const bench::Spread ms_per_frame =
        bench::TimeFrames(timed, [&](std::int64_t i) {
          fx.Extract(inputs[i]);
        }).Map([](double s) { return s * 1e3; });
    const double ms = ms_per_frame.median;
    if (tap == "conv6/sep") full_ms = ms;
    t.AddRow({tap, std::to_string(dnn::TapStride(tap)),
              util::Table::Num(static_cast<double>(fx.MacsPerFrame(
                                   ds.spec().height, ds.spec().width)) / 1e9,
                               3),
              util::Table::Num(ms, 2),
              util::Table::Num(full_ms / ms, 2) + "x faster"});
    json.NewRow();
    json.Row("deepest_tap", tap);
    json.Row("gmacs_per_frame",
             static_cast<double>(
                 fx.MacsPerFrame(ds.spec().height, ds.spec().width)) / 1e9);
    json.Row("ms_per_frame", ms_per_frame);
    json.Row("speedup_vs_full", full_ms / ms);
  }
  t.Print(std::cout);
  json.Write();
  std::printf("\nWhen every tenant taps mid-network layers, stopping there "
              "skips the deepest (widest) base-DNN layers — compounding the "
              "paper's computation sharing.\n");
  return 0;
}
