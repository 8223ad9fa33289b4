// Ablation of the K-voting smoothing parameters (paper §3.5: N = 5, K = 2
// "provides fairly aggressive false negative mitigation at the expense of
// potential false positives").
//
// One localized MC is trained once; its raw test scores are then smoothed
// with each (N, K) and scored. Also sweeps the threshold jointly to show
// the tradeoff is robust.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

using namespace ff;
using bench::BenchParams;

int main(int argc, char** argv) {
  BenchParams bp;
  bp.train_frames = util::EnvInt("FF_BENCH_TRAIN_FRAMES", 1600);
  bp.test_frames = util::EnvInt("FF_BENCH_TEST_FRAMES", 700);
  bench::PrintHeader("Ablation: K-voting smoothing (N, K)", bp);
  bench::JsonResult json("ablation_voting",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);

  const video::SyntheticDataset train_ds(
      bench::TrainSpec(video::Profile::kRoadway, bp));
  const video::SyntheticDataset test_ds(
      bench::TestSpec(video::Profile::kRoadway, bp));
  const std::string tap = bench::TapForScale(bp.width);

  core::McConfig cfg{.name = "loc", .tap = tap};
  cfg.pixel_crop = train_ds.spec().crop;
  dnn::FeatureExtractor train_fx({.include_classifier = false});
  std::printf("training localized MC...\n");
  auto trained =
      bench::TrainOneMc("localized", train_ds, train_fx, cfg, bp.epochs);

  dnn::FeatureExtractor fx({.include_classifier = false});
  fx.RequestTap(tap);
  const auto scores = bench::ScoreDataset(*trained.mc, fx, test_ds);

  std::vector<std::uint8_t> raw(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    raw[i] = scores[i] >= trained.threshold ? 1 : 0;
  }

  util::Table t({"N", "K", "event F1", "recall", "precision",
                 "detected events"});
  struct NK {
    std::int64_t n, k;
  };
  for (const NK nk : {NK{1, 1}, NK{3, 1}, NK{3, 2}, NK{5, 1}, NK{5, 2},
                      NK{5, 3}, NK{5, 4}, NK{7, 2}, NK{7, 4}, NK{9, 2}}) {
    const auto smoothed = core::SmoothLabels(raw, nk.n, nk.k);
    const auto m = metrics::ComputeEventMetrics(test_ds.labels(),
                                                test_ds.events(), smoothed);
    const std::string tag =
        nk.n == 5 && nk.k == 2 ? " <- paper default" : "";
    t.AddRow({std::to_string(nk.n) + tag, std::to_string(nk.k),
              util::Table::Num(m.f1, 3), util::Table::Num(m.event_recall, 3),
              util::Table::Num(m.precision, 3),
              std::to_string(m.detected_events) + "/" +
                  std::to_string(m.truth_events)});
    json.NewRow();
    json.Row("n", static_cast<double>(nk.n));
    json.Row("k", static_cast<double>(nk.k));
    json.Row("event_f1", m.f1);
    json.Row("event_recall", m.event_recall);
    json.Row("precision", m.precision);
    json.Row("detected_events", static_cast<double>(m.detected_events));
    json.Row("truth_events", static_cast<double>(m.truth_events));
  }
  t.Print(std::cout);
  std::printf("\npaper §3.5: smaller K favors recall (fewer missed events), "
              "larger K favors precision; (5, 2) biases toward not missing "
              "events.\n");
  json.Write();
  return 0;
}
