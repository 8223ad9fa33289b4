// Fig. 7 reproduction: marginal compute cost (multiply-adds) vs event F1 for
// FilterForward's microclassifiers and NoScope-style discrete classifiers,
// on both datasets/tasks (7a Jackson/Pedestrian, 7b Roadway/People-with-red).
//
// Paper shapes: MCs sit far left (an order of magnitude cheaper — they
// consume feature maps, not pixels) at equal or better F1; the paper
// reports MCs up to 1.3x more accurate at 23x lower marginal cost (Jackson)
// and 1.1x / 11x (Roadway).
//
// MCs and DCs train on the same training video ("0.5 epochs" in the paper;
// our synthetic videos are far shorter, so we take a few passes — sample
// counts remain orders of magnitude below the paper's, see EXPERIMENTS.md).
// The x-axis is analytic multiply-adds at the bench resolution; the
// paper-resolution equivalent is also printed.
// Quantization guardrail (int8 path): every MC cost point is also
// evaluated with the int8 trunk + int8 MC (same trained weights, same
// threshold); the quantized event F1 must stay within FF_QUANT_F1_EPS
// (default 0.1) of float, or the bench exits nonzero. This is the repo's
// one int8 accuracy gate; CI runs it with --json, and each MC row of the
// JSON carries both the float and the int8 F1.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "baselines/discrete.hpp"
#include "bench_common.hpp"
#include "nn/serialize.hpp"

using namespace ff;
using bench::BenchParams;

namespace {

struct Row {
  std::string model;
  std::uint64_t macs;
  std::uint64_t macs_paper_res;
  double f1;
  double recall;
  double precision;
  std::optional<double> f1_quant;  // MC rows only; DCs have no int8 path
};

}  // namespace

int main(int argc, char** argv) {
  BenchParams bp;
  // Fig. 7 trains many models; default to a slightly smaller split than the
  // other benches unless overridden.
  bp.train_frames = util::EnvInt("FF_BENCH_TRAIN_FRAMES", 1600);
  bp.test_frames = util::EnvInt("FF_BENCH_TEST_FRAMES", 700);
  bench::PrintHeader("Fig. 7: multiply-adds vs event F1 (MCs vs DCs)", bp);
  bench::JsonResult json("fig7_cost_accuracy",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);

  const std::int64_t n_dcs = util::EnvInt("FF_BENCH_DC_COUNT", 2);
  // Declared accuracy epsilon for the int8 path: quantized event F1 at every
  // MC cost point must stay within this of float, or the run fails.
  const double quant_eps = util::EnvDouble("FF_QUANT_F1_EPS", 0.1);
  json.Set("quant_f1_eps", quant_eps);
  std::vector<std::string> quant_violations;

  for (const auto profile :
       {video::Profile::kJackson, video::Profile::kRoadway}) {
    const bool jackson = profile == video::Profile::kJackson;
    std::printf("--- Fig. 7%s: %s ---\n", jackson ? "a" : "b",
                jackson ? "Jackson / Pedestrian" : "Roadway / People with red");
    const video::SyntheticDataset train_ds(bench::TrainSpec(profile, bp));
    const video::SyntheticDataset test_ds(bench::TestSpec(profile, bp));
    const std::int64_t H = train_ds.spec().height;
    const std::int64_t W = train_ds.spec().width;
    const std::int64_t paper_h = jackson ? 1080 : 850;
    const std::int64_t paper_w = jackson ? 1920 : 2048;
    const std::string tap = bench::TapForScale(W);
    std::vector<Row> rows;

    // --- Microclassifiers (spatial crops per Fig. 3c) ---
    for (const auto& [arch, epochs] :
         {std::pair{"full_frame", 6.0}, {"localized", 2.0}}) {
      std::printf("training MC %s (%.0f passes)...\n", arch, epochs);
      core::McConfig cfg{.name = arch, .tap = tap};
      cfg.pixel_crop = train_ds.spec().crop;
      dnn::FeatureExtractor train_fx({.include_classifier = false});
      auto trained =
          bench::TrainOneMc(arch, train_ds, train_fx, cfg, epochs);

      dnn::FeatureExtractor fx({.include_classifier = false});
      fx.RequestTap(tap);
      const auto m =
          bench::EvalScores(bench::ScoreDataset(*trained.mc, fx, test_ds),
                            test_ds, trained.threshold);

      // Same trained weights, same threshold, int8 trunk + int8 MC: the
      // quantized cost point the guardrail below compares against float.
      dnn::FeatureExtractor qfx(dnn::FeatureExtractorConfig{
          {.include_classifier = false}, /*quantize=*/true});
      qfx.RequestTap(tap);
      qfx.CalibrateQuantized(bench::CalibBatch(test_ds, 4));
      core::McConfig qcfg = cfg;
      qcfg.name += "_quant";
      qcfg.quantize = true;
      auto qmc = core::MakeMicroclassifier(arch, qcfg, qfx, H, W);
      nn::DeserializeWeights(qmc->net(),
                             nn::SerializeWeights(trained.mc->net()));
      const auto qm = bench::EvalScores(bench::ScoreDataset(*qmc, qfx, test_ds),
                                        test_ds, trained.threshold);

      // Paper-resolution marginal cost of the same architecture (built at
      // paper dims with the paper's tap).
      dnn::FeatureExtractor paper_fx({.include_classifier = false});
      core::McConfig paper_cfg{.name = std::string(arch) + "_paper",
                               .tap = std::string(arch) == "full_frame"
                                          ? dnn::kLateTap
                                          : dnn::kMidTap};
      paper_cfg.pixel_crop =
          jackson ? video::JacksonSpec(paper_w, 10).crop
                  : video::RoadwaySpec(paper_w, 10).crop;
      auto paper_mc = core::MakeMicroclassifier(arch, paper_cfg, paper_fx,
                                                paper_h, paper_w);
      rows.push_back({std::string("MC ") + arch,
                      trained.mc->MarginalMacsPerFrame(),
                      paper_mc->MarginalMacsPerFrame(), m.f1, m.event_recall,
                      m.precision, qm.f1});
    }

    // --- Discrete classifiers: representative members of the family ---
    const auto family = baselines::DiscreteClassifierFamily();
    for (std::int64_t i = 0; i < n_dcs && i < static_cast<std::int64_t>(
                                                  family.size());
         ++i) {
      // Spread picks across the family's cost range.
      const auto& spec =
          family[static_cast<std::size_t>(i * (family.size() - 1) /
                                          std::max<std::int64_t>(1, n_dcs - 1))];
      std::printf("training DC %s...\n", spec.name.c_str());
      baselines::DiscreteClassifier dc(spec, H, W);
      train::TrainConfig tc;
      tc.epochs = 2.0;
      tc.lr = 2e-3;
      train::BinaryNetTrainer trainer(dc.net(), tc);
      for (std::int64_t t = 0; t < train_ds.n_frames(); ++t) {
        trainer.AddFrame(bench::Preprocess(train_ds.RenderFrame(t)),
                         train_ds.Label(t));
      }
      trainer.Train();
      const float thr = train::CalibrateThreshold(
          trainer.ScoreCachedFrames(), train_ds.labels(), 5, 2);
      std::vector<float> scores;
      for (std::int64_t t = 0; t < test_ds.n_frames(); ++t) {
        scores.push_back(dc.Infer(bench::Preprocess(test_ds.RenderFrame(t))));
      }
      const auto m = bench::EvalScores(scores, test_ds, thr);
      rows.push_back({std::string("DC ") + spec.name, dc.MacsPerFrame(),
                      baselines::DiscreteClassifierMacs(spec, paper_h, paper_w),
                      m.f1, m.event_recall, m.precision, std::nullopt});
    }

    util::Table t({"model", "M multiply-adds (bench res)",
                   "M multiply-adds (paper res)", "event F1", "int8 F1",
                   "recall", "precision"});
    for (const auto& r : rows) {
      t.AddRow({r.model, util::Table::Num(static_cast<double>(r.macs) / 1e6, 2),
                util::Table::Num(static_cast<double>(r.macs_paper_res) / 1e6, 1),
                util::Table::Num(r.f1, 3),
                r.f1_quant ? util::Table::Num(*r.f1_quant, 3) : "-",
                util::Table::Num(r.recall, 3),
                util::Table::Num(r.precision, 3)});
      json.NewRow();
      json.Row("dataset", jackson ? "jackson" : "roadway");
      json.Row("model", r.model);
      json.Row("mmacs", static_cast<double>(r.macs) / 1e6);
      json.Row("mmacs_paper_res", static_cast<double>(r.macs_paper_res) / 1e6);
      json.Row("event_f1", r.f1);
      if (r.f1_quant) json.Row("event_f1_quant", *r.f1_quant);
      json.Row("event_recall", r.recall);
      json.Row("precision", r.precision);
      if (r.f1_quant && std::fabs(*r.f1_quant - r.f1) > quant_eps) {
        quant_violations.push_back(
            (jackson ? "jackson/" : "roadway/") + r.model + ": float F1 " +
            util::Table::Num(r.f1, 3) + " vs int8 F1 " +
            util::Table::Num(*r.f1_quant, 3));
      }
    }
    t.Print(std::cout);

    // Summary: best MC vs best DC.
    const Row* best_mc = nullptr;
    const Row* best_dc = nullptr;
    for (const auto& r : rows) {
      if (r.model.rfind("MC", 0) == 0 && (!best_mc || r.f1 > best_mc->f1)) {
        best_mc = &r;
      }
      if (r.model.rfind("DC", 0) == 0 && (!best_dc || r.f1 > best_dc->f1)) {
        best_dc = &r;
      }
    }
    if (best_mc && best_dc && best_dc->f1 > 0) {
      std::printf("\nbest MC vs best DC: %.2fx the accuracy at %.1fx lower "
                  "marginal cost (paper: %s)\n\n",
                  best_mc->f1 / best_dc->f1,
                  static_cast<double>(best_dc->macs) /
                      static_cast<double>(best_mc->macs),
                  jackson ? "1.3x accuracy, 23x cheaper"
                          : "1.1x accuracy, 11x cheaper");
      const std::string prefix = jackson ? "jackson" : "roadway";
      json.Set(prefix + "_mc_dc_f1_ratio", best_mc->f1 / best_dc->f1);
      json.Set(prefix + "_mc_cost_saving_x",
               static_cast<double>(best_dc->macs) /
                   static_cast<double>(best_mc->macs));
    } else {
      std::printf("\n");
    }
  }
  json.Set("quant_guard_violations",
           static_cast<double>(quant_violations.size()));
  json.Write();
  if (!quant_violations.empty()) {
    std::printf("\nQUANT GUARDRAIL FAILED (eps %.3f):\n", quant_eps);
    for (const auto& v : quant_violations) {
      std::printf("  %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("\nquant guardrail: all MC cost points within eps %.3f of "
              "float F1\n", quant_eps);
  return 0;
}
