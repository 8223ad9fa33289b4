// Shared plumbing for the figure/table reproduction benches.
//
// Every bench runs at a scaled-down default (see docs/ARCHITECTURE.md,
// "Scaled defaults") and prints the actual parameters in its header. Environment
// knobs:
//   FF_BENCH_WIDTH            frame width (default 256)
//   FF_BENCH_TRAIN_FRAMES     training-video frames (default 2400)
//   FF_BENCH_TEST_FRAMES      test-video frames (default 900)
//   FF_BENCH_EPOCHS           training passes for the localized MC
//   FF_BENCH_OBJECT_SCALE     object size multiplier (default 3: preserves
//                             the paper's object-to-feature-cell ratio at
//                             scaled resolutions)
//   FF_BENCH_EVENT_LEN        mean ground-truth event length in frames
//                             (default 22)
//   FF_BENCH_FRAMES           timed frames per measurement, after
//                             kWarmupFrames untimed ones (default 3;
//                             the two timed ablations default to 6 and 8)
//   FF_BENCH_MAX_CLASSIFIERS  top of the Fig. 5/6 sweep (default 50)
#pragma once

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/microclassifier.hpp"
#include "core/smoothing.hpp"
#include "dnn/feature_extractor.hpp"
#include "metrics/event_metrics.hpp"
#include "nn/kernels.hpp"
#include "train/experiment.hpp"
#include "train/trainer.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "video/dataset.hpp"
#include "video/source.hpp"

namespace ff::bench {

struct BenchParams {
  std::int64_t width = util::EnvInt("FF_BENCH_WIDTH", 256);
  std::int64_t train_frames = util::EnvInt("FF_BENCH_TRAIN_FRAMES", 2400);
  std::int64_t test_frames = util::EnvInt("FF_BENCH_TEST_FRAMES", 900);
  double epochs = util::EnvDouble("FF_BENCH_EPOCHS", 2.0);
  double object_scale = util::EnvDouble("FF_BENCH_OBJECT_SCALE", 3.0);
  std::int64_t mean_event_len = util::EnvInt("FF_BENCH_EVENT_LEN", 22);
};

// Train/test videos: same camera (shared scene seed), different days
// (different schedule seeds) — paper §4.1.
inline video::DatasetSpec TrainSpec(video::Profile p, const BenchParams& bp) {
  auto spec = p == video::Profile::kJackson
                  ? video::JacksonSpec(bp.width, bp.train_frames, 11)
                  : video::RoadwaySpec(bp.width, bp.train_frames, 21);
  spec.mean_event_len = bp.mean_event_len;
  spec.object_scale = bp.object_scale;
  return spec;
}

inline video::DatasetSpec TestSpec(video::Profile p, const BenchParams& bp) {
  auto spec = p == video::Profile::kJackson
                  ? video::JacksonSpec(bp.width, bp.test_frames, 12)
                  : video::RoadwaySpec(bp.width, bp.test_frames, 22);
  spec.mean_event_len = bp.mean_event_len;
  spec.object_scale = bp.object_scale;
  return spec;
}

// Tap selection (paper §3.4 heuristic, applied to the scaled geometry): the
// first layer whose stride gives a 1-2 cell object footprint. At paper
// resolution that is conv4_2/sep (localized) and conv5_6/sep (full-frame);
// at our scaled default the same rule selects one level earlier.
inline std::string TapForScale(std::int64_t width) {
  return width >= 1024 ? dnn::kMidTap : "conv3_2/sep";
}
inline std::string LateTapForScale(std::int64_t width) {
  return width >= 1024 ? dnn::kLateTap : "conv4_2/sep";
}

// A trained, threshold-calibrated microclassifier.
struct TrainedMc {
  std::unique_ptr<core::Microclassifier> mc;
  float threshold = 0.5f;
  double final_loss = 0.0;
};

// Trains one MC on the training video (one shared feature pass per call —
// callers training several MCs should use StreamDatasetFeatures themselves;
// this helper is for the single-MC case).
inline TrainedMc TrainOneMc(const std::string& arch,
                            const video::SyntheticDataset& train_ds,
                            dnn::FeatureExtractor& fx, core::McConfig cfg,
                            double epochs, double lr = 2e-3) {
  auto mc = core::MakeMicroclassifier(arch, std::move(cfg), fx,
                                      train_ds.spec().height,
                                      train_ds.spec().width);
  fx.RequestTap(mc->config().tap);
  train::TrainConfig tc;
  tc.epochs = epochs;
  tc.lr = lr;
  const std::int64_t window = arch == "windowed" ? 5 : 1;
  train::BinaryNetTrainer trainer(mc->net(), tc, window);
  train::StreamDatasetFeatures(
      train_ds, fx, 0, train_ds.n_frames(),
      [&](std::int64_t t, const dnn::FeatureMaps& fm) {
        trainer.AddFrame(mc->CropFeatures(fm), train_ds.Label(t));
      });
  TrainedMc out;
  out.final_loss = trainer.Train();
  const auto scores = trainer.ScoreCachedFrames();
  out.threshold = train::CalibrateThreshold(
      scores, train_ds.labels(), 5, 2);
  out.mc = std::move(mc);
  return out;
}

// `mc`'s score for every frame of `ds`, its features from `fx`.
inline std::vector<float> ScoreDataset(core::Microclassifier& mc,
                                       dnn::FeatureExtractor& fx,
                                       const video::SyntheticDataset& ds) {
  train::McScorer scorer(mc);
  train::StreamDatasetFeatures(
      ds, fx, 0, ds.n_frames(),
      [&](std::int64_t, const dnn::FeatureMaps& fm) { scorer.Observe(fm); });
  return scorer.Finish();
}

// One frame as the (1, 3, H, W) input every model here takes.
inline nn::Tensor Preprocess(const video::Frame& f) {
  return dnn::PreprocessRgb(f.r(), f.g(), f.b(), f.height(), f.width());
}

// Preprocessed batch of the dataset's first `n` frames — the calibration
// input for quantize-configured extractors (int8 activation scales must see
// representative frames, not noise).
inline nn::Tensor CalibBatch(const video::SyntheticDataset& ds,
                             std::int64_t n) {
  const video::Frame f0 = ds.RenderFrame(0);
  nn::Tensor batch(nn::Shape{n, 3, f0.height(), f0.width()});
  for (std::int64_t i = 0; i < n; ++i) {
    const video::Frame f = ds.RenderFrame(i);
    dnn::PreprocessRgbInto(batch, i, f.r(), f.g(), f.b());
  }
  return batch;
}

// Event metrics of thresholded+smoothed scores against dataset truth.
inline metrics::EventMetrics EvalScores(const std::vector<float>& scores,
                                        const video::SyntheticDataset& ds,
                                        float threshold) {
  std::vector<std::uint8_t> raw(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    raw[i] = scores[i] >= threshold ? 1 : 0;
  }
  const auto smoothed = core::SmoothLabels(raw, 5, 2);
  return metrics::ComputeEventMetrics(ds.labels(), ds.events(), smoothed);
}

// Untimed frames each timing loop runs before its samples: first-touch
// allocations, int8 auto-calibration and cold caches land here.
inline constexpr std::int64_t kWarmupFrames = 1;

// Median and quartiles of one timing loop's per-frame samples.
struct Spread {
  double median = 0, p25 = 0, p75 = 0;

  // Under an increasing function, e.g. seconds to milliseconds.
  template <typename F>
  Spread Map(F f) const {
    return {f(median), f(p25), f(p75)};
  }
  // Rates from seconds per frame (fps): the quartiles swap places.
  Spread Inverse() const { return {1 / median, 1 / p75, 1 / p25}; }
};

// The benches' one timing loop. Calls frame(i) for i in [0, kWarmupFrames)
// and drops what it returns, then for the next `timed` frames adds each
// call's samples to one util::RunningStat per sample. frame(i) returns a
// std::array of the seconds it timed itself; TimeFrames below times the
// whole call.
template <typename Fn>
auto SampleFrames(std::int64_t timed, Fn&& frame) {
  FF_CHECK_MSG(timed > 0, "FF_BENCH_FRAMES must be positive, got " << timed);
  using Samples = decltype(frame(std::int64_t{0}));
  constexpr std::size_t kN = std::tuple_size_v<Samples>;
  for (std::int64_t i = 0; i < kWarmupFrames; ++i) frame(i);
  std::array<util::RunningStat, kN> stats;
  for (std::int64_t i = kWarmupFrames; i < kWarmupFrames + timed; ++i) {
    const Samples s = frame(i);
    for (std::size_t k = 0; k < kN; ++k) stats[k].Add(s[k]);
  }
  std::array<Spread, kN> out;
  for (std::size_t k = 0; k < kN; ++k) {
    out[k] = {stats[k].Percentile(50), stats[k].Percentile(25),
              stats[k].Percentile(75)};
  }
  return out;
}

// Wall seconds per frame(i) call.
template <typename Fn>
Spread TimeFrames(std::int64_t timed, Fn&& frame) {
  return SampleFrames(timed, [&](std::int64_t i) {
    const util::WallTimer timer;
    frame(i);
    return std::array{timer.ElapsedSeconds()};
  })[0];
}

// Machine-readable bench results: scalar summary fields plus a "rows" array
// of per-sweep-point objects, written as one JSON file (CI uploads them as
// artifacts; perfbench/ is where PRs are compared). Construct with the path
// from `--json <path>` (or the FF_BENCH_JSON env var); an empty path
// disables the writer and every call becomes a no-op.
class JsonResult {
 public:
  static std::string PathFromArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        FF_CHECK_MSG(i + 1 < argc, "--json needs a path argument");
        return argv[i + 1];
      }
    }
    return util::EnvString("FF_BENCH_JSON", "");
  }

  JsonResult(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {
    // Every result records the ISA its numbers were measured on — a
    // scalar-vs-AVX2 run is not a perf regression.
    Set("isa", nn::kernels::IsaName(nn::kernels::ActiveIsa()));
  }

  bool enabled() const { return !path_.empty(); }

  void Set(const std::string& key, double v) {
    if (enabled()) scalars_.push_back({key, Num(v)});
  }
  void Set(const std::string& key, const std::string& v) {
    if (enabled()) scalars_.push_back({key, Quote(v)});
  }
  void NewRow() {
    if (enabled()) rows_.emplace_back();
  }
  void Row(const std::string& key, double v) {
    if (enabled()) CurrentRow().push_back({key, Num(v)});
  }
  void Row(const std::string& key, const std::string& v) {
    if (enabled()) CurrentRow().push_back({key, Quote(v)});
  }
  // The median under `key`, the quartiles under `key`_p25 and `key`_p75.
  void Set(const std::string& key, const Spread& v) {
    Set(key, v.median);
    Set(key + "_p25", v.p25);
    Set(key + "_p75", v.p75);
  }
  void Row(const std::string& key, const Spread& v) {
    Row(key, v.median);
    Row(key + "_p25", v.p25);
    Row(key + "_p75", v.p75);
  }

  // Writes the file and reports the path on stdout; no-op when disabled.
  void Write() const {
    if (!enabled()) return;
    std::ofstream out(path_);
    out << "{\n  \"bench\": " << Quote(bench_);
    for (const auto& f : scalars_) {
      out << ",\n  " << Quote(f.key) << ": " << f.json;
    }
    out << ",\n  \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "    {";
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        out << (i == 0 ? "" : ", ") << Quote(rows_[r][i].key) << ": "
            << rows_[r][i].json;
      }
      out << "}";
    }
    out << "\n  ]\n}\n";
    std::printf("\nwrote %s\n", path_.c_str());
  }

 private:
  struct Field {
    std::string key;
    std::string json;  // pre-rendered value
  };

  std::vector<Field>& CurrentRow() {
    FF_CHECK_MSG(!rows_.empty(), "JsonResult::Row before NewRow");
    return rows_.back();
  }

  static std::string Num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::string bench_;
  std::string path_;
  std::vector<Field> scalars_;
  std::vector<std::vector<Field>> rows_;
};

// Records the shared sweep parameters every bench should carry in its JSON.
inline void AddParams(JsonResult& json, const BenchParams& bp) {
  json.Set("width", static_cast<double>(bp.width));
  json.Set("test_frames", static_cast<double>(bp.test_frames));
  json.Set("object_scale", bp.object_scale);
}

inline void PrintHeader(const char* what, const BenchParams& bp) {
  std::printf("=== %s ===\n", what);
  std::printf(
      "scaled defaults: width=%lld train_frames=%lld test_frames=%lld "
      "epochs=%.2f object_scale=%.2f (env FF_BENCH_* to change)\n\n",
      static_cast<long long>(bp.width),
      static_cast<long long>(bp.train_frames),
      static_cast<long long>(bp.test_frames), bp.epochs, bp.object_scale);
}

}  // namespace ff::bench
