#include "core/edge_node.hpp"

#include <algorithm>

namespace ff::core {

namespace {

EdgeFleetConfig FleetConfig(const EdgeNodeConfig& cfg) {
  EdgeFleetConfig fc;
  fc.upload_bitrate_bps = cfg.upload_bitrate_bps;
  fc.enable_upload = cfg.enable_upload;
  fc.edge_store_capacity = cfg.edge_store_capacity;
  fc.max_batch = std::max<std::int64_t>(1, cfg.submit_batch);
  // Submit() stages and drains within one call (each span is exactly one
  // Step), so the node bounds its own in-flight frames; the fleet queue
  // need not.
  fc.queue_capacity = 0;
  return fc;
}

}  // namespace

EdgeNode::EdgeNode(dnn::FeatureExtractor& fx, const EdgeNodeConfig& cfg)
    : cfg_(cfg), fleet_(fx, FleetConfig(cfg)) {
  FF_CHECK_GT(cfg.frame_width, 0);
  FF_CHECK_GT(cfg.frame_height, 0);
  FF_CHECK_GT(cfg.fps, 0);
  stream_ = fleet_.AddStream(StreamConfig{.frame_width = cfg.frame_width,
                                          .frame_height = cfg.frame_height,
                                          .fps = cfg.fps});
}

void EdgeNode::Submit(const video::Frame& frame) {
  Submit(std::span<const video::Frame>(&frame, 1));
}

void EdgeNode::Submit(std::span<const video::Frame> frames) {
  // Whole-or-nothing: check the entire span before the first Push, so a
  // bad frame anywhere in it leaves no state behind.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    FF_CHECK_MSG(frames[i].width() == cfg_.frame_width &&
                     frames[i].height() == cfg_.frame_height,
                 "node is configured for " << cfg_.frame_width << "x"
                     << cfg_.frame_height << " but frame " << i
                     << " of the span is " << frames[i].width() << "x"
                     << frames[i].height());
  }
  // The same path as Run(): each frame is copied onto the stream's queue
  // and the span is processed as exactly one fleet step (an empty span
  // steps an empty queue — a no-op).
  for (const video::Frame& f : frames) fleet_.Push(stream_, f);
  fleet_.Step(static_cast<std::int64_t>(frames.size()));
}

std::int64_t EdgeNode::Run(video::FrameSource& source) {
  FF_CHECK_MSG(!fleet_.drained(), "cannot submit to a drained node");
  const std::int64_t batch = std::max<std::int64_t>(1, cfg_.submit_batch);
  // Source frames are ours: move them straight onto the stream's queue
  // (dimension checks happen in Push) and cut a phase-1 batch whenever
  // `batch` are staged — no staging vector, no pixel copies.
  std::int64_t staged = 0;
  while (auto frame = source.Next()) {
    fleet_.Push(stream_, std::move(*frame));
    if (++staged == batch) {
      fleet_.Step(staged);
      staged = 0;
    }
  }
  if (staged > 0) fleet_.Step(staged);
  Drain();
  return frames_processed();
}

}  // namespace ff::core
