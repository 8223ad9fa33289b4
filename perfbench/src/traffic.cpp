#include "traffic.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "dnn/feature_extractor.hpp"
#include "trace.hpp"
#include "util/check.hpp"

namespace perfbench {

Thumb MakeThumb(const ff::video::Frame& f) {
  const std::int64_t cw = (f.width() + kThumbCell - 1) / kThumbCell;
  const std::int64_t ch = (f.height() + kThumbCell - 1) / kThumbCell;
  std::vector<std::int64_t> sum(static_cast<std::size_t>(cw * ch), 0);
  std::vector<std::int64_t> cnt(sum.size(), 0);
  for (std::int64_t y = 0; y < f.height(); ++y) {
    for (std::int64_t x = 0; x < f.width(); ++x) {
      const std::int64_t i = y * f.width() + x;
      const auto cell =
          static_cast<std::size_t>((y / kThumbCell) * cw + x / kThumbCell);
      sum[cell] += f.r()[i] + f.g()[i] + f.b()[i];
      cnt[cell] += 3;
    }
  }
  Thumb t(sum.size());
  for (std::size_t c = 0; c < sum.size(); ++c) {
    t[c] = static_cast<std::uint8_t>(sum[c] / cnt[c]);
  }
  return t;
}

double ThumbDiff(const Thumb& a, const Thumb& b) {
  if (a.size() != b.size() || a.empty()) return 255.0;
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d += std::abs(static_cast<int>(a[i]) - static_cast<int>(b[i]));
  }
  return d / static_cast<double>(a.size());
}

namespace {

// Encodes rendered frames and keeps thumbnails of what decoding yields.
template <typename RenderFn>
void EncodeFeed(Feed& feed, std::int64_t n, RenderFn render) {
  ff::codec::EncoderConfig ecfg;
  ecfg.width = feed.width;
  ecfg.height = feed.height;
  ecfg.fps = feed.fps;
  ecfg.initial_qp = 20;  // constant QP: camera-quality ingest
  ecfg.gop_size = 30;
  ff::codec::Encoder enc(ecfg);
  ff::codec::Decoder dec(feed.width, feed.height);
  feed.chunks.reserve(static_cast<std::size_t>(n));
  feed.thumbs.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    feed.chunks.push_back(enc.EncodeFrame(render(i), i == 0));
    feed.thumbs.push_back(MakeThumb(dec.DecodeFrame(feed.chunks.back())));
  }
}

}  // namespace

Feed RenderDatasetFeed(const ff::video::DatasetSpec& spec) {
  const ff::video::SyntheticDataset ds(spec);
  Feed feed;
  feed.width = spec.width;
  feed.height = spec.height;
  feed.fps = spec.fps;
  feed.roi = spec.crop;
  feed.labels = std::make_shared<const std::vector<std::uint8_t>>(ds.labels());
  EncodeFeed(feed, spec.n_frames,
             [&ds](std::int64_t i) { return ds.RenderFrame(i); });
  return feed;
}

ff::nn::Tensor PreprocessedBatch(const Feed& feed, std::int64_t n) {
  ff::nn::Tensor batch(ff::nn::Shape{n, 3, feed.height, feed.width});
  ff::codec::Decoder dec(feed.width, feed.height);
  for (std::int64_t i = 0; i < n; ++i) {
    const ff::video::Frame f =
        dec.DecodeFrame(feed.chunks[static_cast<std::size_t>(i % feed.n())]);
    ff::dnn::PreprocessRgbInto(batch, i, f.r(), f.g(), f.b());
  }
  return batch;
}

Feed RenderOverlapFeed(std::shared_ptr<const ff::video::OverlapScript> script,
                       const ff::video::OverlapView& view) {
  const ff::video::OverlapSource src(script, view);
  Feed feed;
  feed.width = script->spec().width;
  feed.height = script->spec().height;
  feed.fps = script->spec().fps;
  // Objects walk through the middle band of the scene.
  feed.roi = {feed.height / 4, 0, feed.height * 3 / 4, feed.width};
  std::vector<std::uint8_t> labels(static_cast<std::size_t>(script->n_frames()));
  for (std::int64_t i = 0; i < script->n_frames(); ++i) {
    labels[static_cast<std::size_t>(i)] = script->Active(i) ? 1 : 0;
  }
  feed.labels = std::make_shared<const std::vector<std::uint8_t>>(std::move(labels));
  EncodeFeed(feed, script->n_frames(),
             [&src](std::int64_t i) { return src.RenderFrame(i); });
  return feed;
}

EncodedSource::EncodedSource(const Feed& feed, const std::atomic<bool>& stop)
    : feed_(feed), stop_(stop), decoder_(feed.width, feed.height) {
  FF_CHECK_GT(feed.n(), 0);
}

std::optional<ff::video::Frame> EncodedSource::Next() {
  Span span("FrameSource::Next");
  if (stop_.load(std::memory_order_relaxed)) return std::nullopt;
  std::int64_t capture = NowNs();
  if (period_ns_ > 0) {
    const std::int64_t due = t0_ns_ + next_ * period_ns_;
    stats_.lateness_ms.push_back(
        static_cast<double>(std::max<std::int64_t>(0, capture - due)) / 1e6);
    // Sleep in slices so a stop request is honoured promptly.
    while (NowNs() < due) {
      if (stop_.load(std::memory_order_relaxed)) return std::nullopt;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::int64_t>(due - NowNs(), 5'000'000)));
    }
    capture = due;
  }
  ff::video::Frame frame;
  {
    Span decode("decode");
    frame = decoder_.DecodeFrame(
        feed_.chunks[static_cast<std::size_t>(next_ % feed_.n())]);
  }
  frame.index = next_;
  frame.capture_ts_ns = capture;
  stats_.capture_ns.push_back(capture);
  ++next_;
  stats_.offered.fetch_add(1, std::memory_order_relaxed);
  return frame;
}

void EncodedSource::Reset() {
  FF_CHECK_MSG(false, "benchmark sources are not rewindable");
}

}  // namespace perfbench
