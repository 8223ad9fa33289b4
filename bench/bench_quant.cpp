// Quantized-inference guardrail bench (ROADMAP: int8 path). Two gates, one
// JSON (--json <path>):
//
//  1. Trunk throughput: the full MobileNet backbone (conv1..conv6/sep) in
//     int8 vs float over identical preprocessed frames. Target: >= 2x on an
//     AVX2 host (the maddubs pointwise path retires ~2 quad-MACs per cycle
//     where the float path retires one 8-wide FMA-less MAC).
//  2. Accuracy: trained MCs evaluated float vs int8 (same weights, same
//     threshold, int8 trunk feeding int8 MCs); event F1 must stay within
//     FF_QUANT_F1_EPS (default 0.1) at every cost point, both datasets.
//
// Exits nonzero if any F1 point breaks the epsilon, so CI can gate on it.
// (The throughput ratio is recorded, not gated: CI machines are noisy and
// may be scalar-only. perfbench's trunk.i8.* and trunk.f32.* per-layer
// metrics are the repeated, machine-stamped measurement.)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/serialize.hpp"

using namespace ff;
using bench::BenchParams;

namespace {

// Preprocessed (1, 3, H, W) inputs for the throughput loop.
std::vector<nn::Tensor> PreprocessedFrames(const video::SyntheticDataset& ds,
                                           std::int64_t n) {
  std::vector<nn::Tensor> inputs;
  for (std::int64_t i = 0; i < n; ++i) {
    const video::Frame f = ds.RenderFrame(i);
    inputs.push_back(
        dnn::PreprocessRgb(f.r(), f.g(), f.b(), f.height(), f.width()));
  }
  return inputs;
}

double MeasureTrunkFps(dnn::FeatureExtractor& fx,
                       const std::vector<nn::Tensor>& inputs,
                       std::int64_t reps) {
  (void)fx.Extract(inputs[0]);  // warmup (and int8 auto-calibration)
  util::WallTimer timer;
  std::int64_t frames = 0;
  for (std::int64_t r = 0; r < reps; ++r) {
    for (const auto& in : inputs) {
      (void)fx.Extract(in);
      ++frames;
    }
  }
  return static_cast<double>(frames) / timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  BenchParams bp;
  // MC training is the dominant cost; default to a slightly smaller split
  // than the full fig7 run (same spirit as that bench's reduced defaults).
  bp.train_frames = util::EnvInt("FF_BENCH_TRAIN_FRAMES", 1200);
  bp.test_frames = util::EnvInt("FF_BENCH_TEST_FRAMES", 600);
  bench::PrintHeader("Quantized int8 path: trunk speedup + F1 guardrail", bp);
  bench::JsonResult json("quant",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);
  const double quant_eps = util::EnvDouble("FF_QUANT_F1_EPS", 0.1);
  json.Set("quant_f1_eps", quant_eps);

  // --- gate 1: trunk throughput -------------------------------------------
  const std::int64_t n_frames = util::EnvInt("FF_BENCH_FRAMES", 3);
  const std::int64_t reps = util::EnvInt("FF_BENCH_REPS", 2);
  json.Set("frames_per_measurement", static_cast<double>(n_frames * reps));
  auto spec = video::JacksonSpec(bp.width, n_frames + 1, 31);
  spec.object_scale = bp.object_scale;
  const video::SyntheticDataset tds(spec);
  const auto inputs = PreprocessedFrames(tds, n_frames);

  dnn::FeatureExtractor ffx({.include_classifier = false});
  ffx.RequestTap("conv6/sep");  // full backbone, as in Fig. 5
  const double float_fps = MeasureTrunkFps(ffx, inputs, reps);

  dnn::FeatureExtractor qfx(dnn::FeatureExtractorConfig{
      {.include_classifier = false}, /*quantize=*/true});
  qfx.RequestTap("conv6/sep");
  qfx.CalibrateQuantized(bench::CalibBatch(tds, 2));
  const double quant_fps = MeasureTrunkFps(qfx, inputs, reps);

  const double speedup = quant_fps / float_fps;
  std::printf("trunk (conv1..conv6/sep, %lldpx): float %.2f fps, int8 %.2f "
              "fps -> %.2fx (target >= 2x on AVX2)\n\n",
              static_cast<long long>(bp.width), float_fps, quant_fps,
              speedup);
  json.Set("trunk_float_fps", float_fps);
  json.Set("trunk_quant_fps", quant_fps);
  json.Set("trunk_speedup", speedup);

  // --- gate 2: event-F1 parity at every MC cost point ---------------------
  std::vector<std::string> violations;
  for (const auto profile :
       {video::Profile::kJackson, video::Profile::kRoadway}) {
    const bool jackson = profile == video::Profile::kJackson;
    const video::SyntheticDataset train_ds(bench::TrainSpec(profile, bp));
    const video::SyntheticDataset test_ds(bench::TestSpec(profile, bp));
    const std::int64_t H = train_ds.spec().height;
    const std::int64_t W = train_ds.spec().width;
    const std::string tap = bench::TapForScale(W);

    for (const auto& [arch, epochs] :
         {std::pair{"full_frame", 6.0}, {"localized", 2.0}}) {
      std::printf("[%s] training MC %s (%.0f passes)...\n",
                  jackson ? "jackson" : "roadway", arch, epochs);
      core::McConfig cfg{.name = arch, .tap = tap};
      cfg.pixel_crop = train_ds.spec().crop;
      dnn::FeatureExtractor train_fx({.include_classifier = false});
      auto trained = bench::TrainOneMc(arch, train_ds, train_fx, cfg, epochs);

      // Float reference.
      dnn::FeatureExtractor fx({.include_classifier = false});
      fx.RequestTap(tap);
      train::McScorer scorer(*trained.mc);
      train::StreamDatasetFeatures(
          test_ds, fx, 0, test_ds.n_frames(),
          [&](std::int64_t, const dnn::FeatureMaps& fm) {
            scorer.Observe(fm);
          });
      const auto fm_ =
          bench::EvalScores(scorer.Finish(), test_ds, trained.threshold);

      // Same weights through the int8 trunk + int8 MC.
      dnn::FeatureExtractor qtfx(dnn::FeatureExtractorConfig{
          {.include_classifier = false}, /*quantize=*/true});
      qtfx.RequestTap(tap);
      qtfx.CalibrateQuantized(bench::CalibBatch(test_ds, 4));
      core::McConfig qcfg = cfg;
      qcfg.name += "_quant";
      qcfg.quantize = true;
      auto qmc = core::MakeMicroclassifier(arch, qcfg, qtfx, H, W);
      nn::DeserializeWeights(qmc->net(),
                             nn::SerializeWeights(trained.mc->net()));
      train::McScorer qscorer(*qmc);
      train::StreamDatasetFeatures(
          test_ds, qtfx, 0, test_ds.n_frames(),
          [&](std::int64_t, const dnn::FeatureMaps& fm) {
            qscorer.Observe(fm);
          });
      const auto qm =
          bench::EvalScores(qscorer.Finish(), test_ds, trained.threshold);

      const double delta = std::fabs(qm.f1 - fm_.f1);
      std::printf("  %s: float F1 %.3f, int8 F1 %.3f (|delta| %.3f, eps "
                  "%.3f)\n",
                  arch, fm_.f1, qm.f1, delta, quant_eps);
      json.NewRow();
      json.Row("dataset", jackson ? "jackson" : "roadway");
      json.Row("model", std::string("MC ") + arch);
      json.Row("mmacs",
               static_cast<double>(trained.mc->MarginalMacsPerFrame()) / 1e6);
      json.Row("event_f1", fm_.f1);
      json.Row("event_f1_quant", qm.f1);
      json.Row("f1_delta", delta);
      if (delta > quant_eps) {
        violations.push_back(std::string(jackson ? "jackson/" : "roadway/") +
                             arch);
      }
    }
  }

  json.Set("quant_guard_violations", static_cast<double>(violations.size()));
  json.Write();
  if (!violations.empty()) {
    std::printf("\nQUANT GUARDRAIL FAILED (eps %.3f):", quant_eps);
    for (const auto& v : violations) std::printf(" %s", v.c_str());
    std::printf("\n");
    return 1;
  }
  std::printf("\nquant guardrail: every cost point within eps %.3f; trunk "
              "speedup %.2fx\n", quant_eps, speedup);
  return 0;
}
