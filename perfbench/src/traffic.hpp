// Synthetic camera traffic: feeds rendered and encoded during set-up, and a
// FrameSource that decodes one chunk per Next() so ingest decode is real edge
// work inside the fleet's prefetch stage.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "nn/layer.hpp"
#include "tensor/shape.hpp"
#include "video/dataset.hpp"
#include "video/overlap_source.hpp"
#include "video/source.hpp"

namespace perfbench {

// Coarse luma thumbnail (kThumbCell x kThumbCell block means) used to check
// that a frame delivered at the datacenter shows the camera frame it claims
// to be, without keeping every raw frame in memory.
inline constexpr std::int64_t kThumbCell = 16;
using Thumb = std::vector<std::uint8_t>;
Thumb MakeThumb(const ff::video::Frame& f);
// Mean absolute difference of two thumbnails of one geometry.
double ThumbDiff(const Thumb& a, const Thumb& b);

// One camera's encoded stream plus its exact ground truth. The stream loops:
// frame i of a run is chunk i % n (chunk 0 is an I-frame, so decoding
// restarts cleanly at the wrap).
struct Feed {
  std::int64_t width = 0, height = 0, fps = 15;
  std::vector<std::string> chunks;
  std::shared_ptr<const std::vector<std::uint8_t>> labels;
  std::vector<Thumb> thumbs;  // of the decoded frames the fleet sees
  ff::tensor::Rect roi;       // task region, pixels (localized MCs)

  std::int64_t n() const { return static_cast<std::int64_t>(chunks.size()); }
  bool Label(std::int64_t i) const { return (*labels)[static_cast<std::size_t>(i % n())] != 0; }
};

Feed RenderDatasetFeed(const ff::video::DatasetSpec& spec);

// The feed's first `n` frames, decoded and preprocessed into a base-DNN
// input batch (n, 3, h, w).
ff::nn::Tensor PreprocessedBatch(const Feed& feed, std::int64_t n);
Feed RenderOverlapFeed(std::shared_ptr<const ff::video::OverlapScript> script,
                       const ff::video::OverlapView& view);

// Per-source counters. Written only by the thread driving the source (one
// at a time, per the FrameSource contract); read after the run, except
// `offered`, which the main thread samples live.
struct SourceStats {
  std::atomic<std::int64_t> offered{0};
  std::vector<std::int64_t> capture_ns;  // by offered index
  std::vector<double> lateness_ms;       // paced sources only
};

// Decodes `feed` one chunk per Next(). Closed loop by default: a frame is
// captured when pulled. Returns end-of-stream once `stop` is set.
class EncodedSource : public ff::video::FrameSource {
 public:
  EncodedSource(const Feed& feed, const std::atomic<bool>& stop);

  // Open loop: frame i is due at t0 + i * period. Next() sleeps until the
  // frame is due, and a frame pulled late keeps its due time as capture
  // timestamp. Call before the first Next().
  void Pace(std::int64_t t0_ns, std::int64_t period_ns) {
    t0_ns_ = t0_ns;
    period_ns_ = period_ns;
  }

  std::optional<ff::video::Frame> Next() override;
  void Reset() override;
  std::int64_t width() const override { return feed_.width; }
  std::int64_t height() const override { return feed_.height; }
  std::int64_t fps() const override { return feed_.fps; }

  const SourceStats& stats() const { return stats_; }

 private:
  const Feed& feed_;
  const std::atomic<bool>& stop_;
  std::int64_t t0_ns_ = 0, period_ns_ = 0;
  ff::codec::Decoder decoder_;
  std::int64_t next_ = 0;
  SourceStats stats_;
};

}  // namespace perfbench
