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
//   FF_BENCH_FRAMES           frames per throughput measurement (default 3)
//   FF_BENCH_MAX_CLASSIFIERS  top of the Fig. 5/6 sweep (default 50)
#pragma once

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
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
