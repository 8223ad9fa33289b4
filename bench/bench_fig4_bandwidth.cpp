// Fig. 4 reproduction: average bandwidth use vs event F1 on the Roadway
// "People with red" task, for two offload strategies:
//
//   * FilterForward — the real edge pipeline filters the ORIGINAL stream;
//     matched frames are re-encoded and uploaded. The series sweeps the
//     MC's operating point (threshold around the calibrated value) and two
//     upload bitrates.
//   * Compress everything — the whole stream is encoded at a target bitrate
//     and the SAME trained MC runs on the decoded frames in "the cloud".
//     The series sweeps the stream bitrate.
//
// Paper shapes: FF uses ~6-13x less bandwidth at its operating point than
// full-stream compression at comparable accuracy, and at matched bandwidth
// FF's F1 is ~1.5-1.9x higher (heavy compression destroys the small red
// articles the task depends on).
//
// One panel per MC architecture (4a full-frame object detector, 4b
// localized binary classifier).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "codec/transcode.hpp"

using namespace ff;
using bench::BenchParams;

namespace {

struct SeriesPoint {
  double bandwidth_bps;
  double f1;
  std::string label;
};

// Uplink bytes for a given set of matched-frame decisions at a bitrate
// (I-frame restart at each segment start, exactly like core::EdgeNode).
std::uint64_t UploadBytes(const video::SyntheticDataset& ds,
                          const std::vector<std::uint8_t>& decisions,
                          double bitrate_bps) {
  codec::EncoderConfig ec;
  ec.width = ds.spec().width;
  ec.height = ds.spec().height;
  ec.fps = ds.spec().fps;
  ec.target_bitrate_bps = bitrate_bps;
  codec::Encoder enc(ec);
  std::int64_t last = -2;
  for (std::int64_t t = 0; t < ds.n_frames(); ++t) {
    if (!decisions[static_cast<std::size_t>(t)]) continue;
    enc.EncodeFrame(ds.RenderFrame(t), t != last + 1);
    last = t;
  }
  return enc.total_bytes();
}

}  // namespace

int main(int argc, char** argv) {
  BenchParams bp;
  bench::PrintHeader(
      "Fig. 4: bandwidth vs event F1 (Roadway, People with red)", bp);
  bench::JsonResult json("fig4_bandwidth",
                         bench::JsonResult::PathFromArgs(argc, argv));
  bench::AddParams(json, bp);

  const video::SyntheticDataset train_ds(
      bench::TrainSpec(video::Profile::kRoadway, bp));
  const video::SyntheticDataset test_ds(
      bench::TestSpec(video::Profile::kRoadway, bp));
  const double test_seconds = test_ds.spec().duration_seconds();
  const std::string tap = bench::TapForScale(bp.width);

  // "Sufficiently good quality" upload bitrates for this codec/resolution
  // (the paper used 250/500 Kb/s for its H.264 at 2048x850; quality, not
  // bits, is the transferable quantity — see docs/ARCHITECTURE.md, "Codec:
  // the H.264 stand-in").
  const double px_rate = static_cast<double>(test_ds.spec().width *
                                             test_ds.spec().height *
                                             test_ds.spec().fps);
  const double bpp_good = 0.10;  // ~transparent for this codec
  const std::vector<double> upload_bitrates = {bpp_good * px_rate * 0.5,
                                               bpp_good * px_rate};
  const std::vector<double> stream_bitrates = {
      bpp_good * px_rate * 0.125, bpp_good * px_rate * 0.25,
      bpp_good * px_rate * 0.5,   bpp_good * px_rate,
      bpp_good * px_rate * 2.0,   bpp_good * px_rate * 4.0};

  struct ArchSpec {
    const char* arch;
    const char* panel;
    double epochs;
  };
  for (const ArchSpec as : {ArchSpec{"full_frame", "4a", 6.0},
                            ArchSpec{"localized", "4b", 2.0}}) {
    std::printf("--- Fig. %s: %s MC ---\n", as.panel, as.arch);
    core::McConfig cfg{.name = as.arch, .tap = tap};
    cfg.pixel_crop = train_ds.spec().crop;
    std::printf("training (%.1f epochs)...\n", as.epochs);
    dnn::FeatureExtractor train_fx({.include_classifier = false});
    auto trained = bench::TrainOneMc(as.arch, train_ds, train_fx, cfg,
                                     as.epochs);

    // Score the ORIGINAL test stream once (edge-side FF).
    dnn::FeatureExtractor fx({.include_classifier = false});
    fx.RequestTap(tap);
    const auto edge_scores = bench::ScoreDataset(*trained.mc, fx, test_ds);

    std::vector<SeriesPoint> ff_series;
    std::size_t ff_main_idx = 0;  // calibrated threshold at good quality
    // Operating-point sweep: thresholds around the calibrated value.
    for (const float dthr : {-0.15f, 0.0f, 0.15f}) {
      const float thr = std::clamp(trained.threshold + dthr, 0.02f, 0.98f);
      std::vector<std::uint8_t> raw(edge_scores.size());
      for (std::size_t i = 0; i < raw.size(); ++i) {
        raw[i] = edge_scores[i] >= thr ? 1 : 0;
      }
      const auto decisions = core::SmoothLabels(raw, 5, 2);
      const auto m = metrics::ComputeEventMetrics(test_ds.labels(),
                                                  test_ds.events(), decisions);
      for (const double bps : upload_bitrates) {
        if (dthr != 0.0f && bps != upload_bitrates.back()) continue;
        const std::uint64_t bytes = UploadBytes(test_ds, decisions, bps);
        if (dthr == 0.0f && bps == upload_bitrates.back()) {
          ff_main_idx = ff_series.size();
        }
        ff_series.push_back(
            {static_cast<double>(bytes) * 8.0 / test_seconds, m.f1,
             "thr=" + util::Table::Num(thr, 2) +
                 " q=" + util::Table::Num(bps / 1000, 0) + "kb/s"});
      }
    }

    // Compress-everything: decode at each stream bitrate, filter in the
    // cloud with the same MC/threshold.
    std::vector<SeriesPoint> ce_series;
    for (const double bps : stream_bitrates) {
      video::DatasetSource inner(test_ds);
      codec::EncoderConfig ec;
      ec.width = test_ds.spec().width;
      ec.height = test_ds.spec().height;
      ec.fps = test_ds.spec().fps;
      ec.target_bitrate_bps = bps;
      codec::TranscodedSource compressed(inner, ec);
      trained.mc->ResetTemporalState();
      train::McScorer cloud_scorer(*trained.mc);
      train::StreamSourceFeatures(compressed, fx,
                                  [&](std::int64_t, const dnn::FeatureMaps& fm) {
                                    cloud_scorer.Observe(fm);
                                  });
      const auto cloud_scores = cloud_scorer.Finish();
      const auto m =
          bench::EvalScores(cloud_scores, test_ds, trained.threshold);
      ce_series.push_back({compressed.AverageBitrateBps(), m.f1,
                           "target=" + util::Table::Num(bps / 1000, 0) +
                               "kb/s"});
    }

    util::Table t({"strategy", "operating point", "avg bandwidth (kb/s)",
                   "event F1"});
    for (const auto& p : ff_series) {
      t.AddRow({"FilterForward", p.label,
                util::Table::Num(p.bandwidth_bps / 1000, 1),
                util::Table::Num(p.f1, 3)});
    }
    for (const auto& p : ce_series) {
      t.AddRow({"Compress everything", p.label,
                util::Table::Num(p.bandwidth_bps / 1000, 1),
                util::Table::Num(p.f1, 3)});
    }
    t.Print(std::cout);
    for (const auto* series : {&ff_series, &ce_series}) {
      for (const auto& p : *series) {
        json.NewRow();
        json.Row("panel", as.panel);
        json.Row("arch", as.arch);
        json.Row("strategy", series == &ff_series ? "filterforward"
                                                  : "compress_everything");
        json.Row("operating_point", p.label);
        json.Row("bandwidth_kbps", p.bandwidth_bps / 1000);
        json.Row("event_f1", p.f1);
      }
    }

    // Summary ratios: compare FF's main point against the cheapest
    // compress-everything point with F1 >= FF's (bandwidth ratio), and the
    // compressed point nearest FF's bandwidth (accuracy ratio).
    const SeriesPoint& ff_main = ff_series[ff_main_idx];
    double ce_band_at_f1 = -1;
    for (const auto& p : ce_series) {
      if (p.f1 >= ff_main.f1 * 0.95 &&
          (ce_band_at_f1 < 0 || p.bandwidth_bps < ce_band_at_f1)) {
        ce_band_at_f1 = p.bandwidth_bps;
      }
    }
    const SeriesPoint* nearest = &ce_series[0];
    for (const auto& p : ce_series) {
      if (std::abs(std::log(p.bandwidth_bps / ff_main.bandwidth_bps)) <
          std::abs(std::log(nearest->bandwidth_bps / ff_main.bandwidth_bps))) {
        nearest = &p;
      }
    }
    std::printf("\nFF point: %.1f kb/s at F1 %.3f\n",
                ff_main.bandwidth_bps / 1000, ff_main.f1);
    json.Set(std::string(as.arch) + "_ff_kbps", ff_main.bandwidth_bps / 1000);
    json.Set(std::string(as.arch) + "_ff_f1", ff_main.f1);
    json.Set(std::string(as.arch) + "_bandwidth_saving_x",
             ce_band_at_f1 > 0 ? ce_band_at_f1 / ff_main.bandwidth_bps : -1.0);
    if (ce_band_at_f1 > 0) {
      std::printf("bandwidth saving vs compression at matched F1: %.1fx "
                  "(paper: 6.3x full-frame, 13x localized)\n",
                  ce_band_at_f1 / ff_main.bandwidth_bps);
    } else {
      std::printf("no compress-everything point reaches FF's F1 — saving "
                  "exceeds the sweep range (paper: 6.3-13x)\n");
    }
    std::printf("F1 vs compression at matched bandwidth (%.1f kb/s): "
                "%.3f vs %.3f = %.2fx (paper: 1.5-1.9x)\n\n",
                nearest->bandwidth_bps / 1000, ff_main.f1, nearest->f1,
                nearest->f1 > 0 ? ff_main.f1 / nearest->f1 : 0.0);
    json.Set(std::string(as.arch) + "_f1_ratio_at_matched_bandwidth",
             nearest->f1 > 0 ? ff_main.f1 / nearest->f1 : 0.0);
  }
  json.Write();
  return 0;
}
