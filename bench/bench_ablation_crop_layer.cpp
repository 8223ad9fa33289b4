// Ablation of the two microclassifier input choices the paper calls out:
//   * feature-map crop vs no crop (§3.2: cropping "increases accuracy (for
//     certain applications)" and cuts marginal cost proportionally);
//   * which base-DNN layer to tap (§3.4: "Choosing which base DNN layer to
//     use as input to each microclassifier is critical to their accuracy").
//
// Grid: {crop, no-crop} x {tap layers} for the localized MC on Roadway.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

using namespace ff;
using bench::BenchParams;

int main(int argc, char** argv) {
  BenchParams bp;
  bp.train_frames = util::EnvInt("FF_BENCH_TRAIN_FRAMES", 1600);
  bp.test_frames = util::EnvInt("FF_BENCH_TEST_FRAMES", 700);
  bench::PrintHeader("Ablation: spatial crop and tap-layer choice", bp);
  bench::JsonResult json("ablation_crop_layer",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);

  const video::SyntheticDataset train_ds(
      bench::TrainSpec(video::Profile::kRoadway, bp));
  const video::SyntheticDataset test_ds(
      bench::TestSpec(video::Profile::kRoadway, bp));

  util::Table t({"tap layer", "crop", "marginal M-MACs", "event F1",
                 "recall", "precision"});
  for (const std::string& tap :
       {std::string("conv2_2/sep"), std::string("conv3_2/sep"),
        std::string("conv4_2/sep")}) {
    for (const bool crop : {true, false}) {
      core::McConfig cfg{.name = "loc_" + tap + (crop ? "_crop" : "_full"),
                         .tap = tap};
      if (crop) cfg.pixel_crop = train_ds.spec().crop;
      dnn::FeatureExtractor train_fx({.include_classifier = false});
      std::printf("training localized MC on %s (%s)...\n", tap.c_str(),
                  crop ? "cropped" : "full frame");
      auto trained = bench::TrainOneMc("localized", train_ds, train_fx, cfg,
                                       bp.epochs);
      dnn::FeatureExtractor fx({.include_classifier = false});
      fx.RequestTap(tap);
      const auto m =
          bench::EvalScores(bench::ScoreDataset(*trained.mc, fx, test_ds),
                            test_ds, trained.threshold);
      t.AddRow({tap, crop ? "yes" : "no",
                util::Table::Num(
                    static_cast<double>(trained.mc->MarginalMacsPerFrame()) /
                        1e6,
                    2),
                util::Table::Num(m.f1, 3), util::Table::Num(m.event_recall, 3),
                util::Table::Num(m.precision, 3)});
      json.NewRow();
      json.Row("tap", tap);
      json.Row("crop", crop ? 1.0 : 0.0);
      json.Row("marginal_mmacs",
               static_cast<double>(trained.mc->MarginalMacsPerFrame()) / 1e6);
      json.Row("event_f1", m.f1);
      json.Row("event_recall", m.event_recall);
      json.Row("precision", m.precision);
    }
  }
  t.Print(std::cout);
  std::printf("\npaper §3.2/§3.4: cropping reduces MC cost proportionally to "
              "the input-area reduction and helps accuracy; tap-layer choice "
              "is critical (too late loses small details).\n");
  json.Write();
  return 0;
}
