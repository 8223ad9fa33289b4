// The FilterForward edge node as a long-lived, multi-tenant streaming
// session (paper Fig. 1, §2.2.3/§3.1: many concurrent per-application
// microclassifiers sharing one box).
//
// Since the EdgeFleet redesign this class is a thin single-stream facade
// over core::EdgeFleet (src/core/edge_fleet.hpp): one push-driven stream,
// the same phases, the same decision/upload semantics — the fleet is the
// implementation, the node is the one-camera view of it. Everything
// documented below is preserved bitwise (edge_fleet_test pins fleet ≡
// per-stream EdgeNode; edge_batch_test pins batched ≡ frame-at-a-time).
//
// Lifecycle:
//
//   EdgeNode node(fx, cfg);
//   McHandle h = node.Attach({.mc = ..., .threshold = ...});  // any time
//   node.Submit(frame);          // streaming ingestion, one call per frame
//   node.Detach(h);              // tenant leaves mid-stream (tail drained)
//   node.Drain();                // end of stream
//
// Tenants attach and detach at frame boundaries (between Submit calls).
// Results are *pushed*, not accumulated: each tenant installs a
// DecisionSink (one finalized McDecision per frame the tenant was live for,
// in frame order) and an EventSink (one EventRecord per closed event).
// Without sinks the node retains nothing per frame, so memory stays bounded
// no matter how long the stream runs; ResultCollector reproduces the old
// accumulate-everything McResult for tests and benches.
//
// Per frame, in phases (phased — not pipelined — execution, §4.4: the base
// DNN and the MCs never compete for cores):
//   1. preprocess + base DNN forward to the deepest requested tap
//   2. every live tenant's MC infers from the shared feature maps — fanned
//      out across util::GlobalPool() (one task per tenant, a lone tenant
//      inline; kernel-level parallelism inside a pool task auto-serializes,
//      see util/thread_pool.hpp)
//   3. per-tenant K-voting smoothing and transition detection, serially in
//      attach order (sinks always fire on the Submit/Detach/Drain caller's
//      thread)
//   4. frames matched by >= 1 live tenant are re-encoded at the configured
//      upload bitrate and handed to the upload sink (bits are counted by a
//      real encoder); packet metadata records (MC -> event id) memberships
//   5. optionally, every original frame is archived (encoded to the edge
//      store) for later demand-fetch.
//
// Decision alignment: a windowed MC's output refers to the center of its
// window and K-voting refers to the middle of its vote window, so decisions
// trail the input. The node buffers pending frames until every tenant that
// was live at submission has decided on them, then finalizes uploads in
// frame order. Detach replays the last feature maps through the departing
// tenant's window tail and flushes its K-voting state, so a tenant live for
// frames [a, b) delivers exactly one decision for each of them before its
// handle dies; Drain() does the same for every remaining tenant.
#pragma once

#include <span>

#include "core/edge_fleet.hpp"

namespace ff::core {

struct EdgeNodeConfig {
  std::int64_t frame_width = 0;
  std::int64_t frame_height = 0;
  std::int64_t fps = 15;
  // Target bitrate for re-encoding matched frames.
  double upload_bitrate_bps = 500'000;
  // Disable to skip the uplink encoder entirely (pure-filtering benches).
  bool enable_upload = true;
  // Edge store capacity in frames (0 disables archiving/demand-fetch).
  std::int64_t edge_store_capacity = 0;
  // Frames per phase-1 batch in Run(): the base DNN forwards (N, 3, H, W)
  // at a time, so its conv kernels parallelize across n × out_c instead of
  // out_c alone. Decisions are bitwise-identical to frame-at-a-time
  // submission; only latency (one batch of buffering) and parallel width
  // change. Callers using Submit directly pick their own batch via the
  // span overload. (An EdgeFleet fills the same batch width across
  // DIFFERENT streams, cutting the per-stream buffering to ~batch/streams.)
  std::int64_t submit_batch = 1;
};

class EdgeNode {
 public:
  EdgeNode(dnn::FeatureExtractor& fx, const EdgeNodeConfig& cfg);

  // Registers a tenant; legal at any frame boundary, including before the
  // first Submit and mid-stream. The tenant's first live frame is the next
  // submitted one.
  McHandle Attach(McSpec spec) { return fleet_.Attach(stream_, std::move(spec)); }

  // Removes a tenant at a frame boundary. Drains its windowed-MC tail and
  // K-voting state first: its sinks receive the decisions for every
  // remaining live frame, then its final events, before this returns.
  void Detach(McHandle handle) { fleet_.Detach(handle); }

  bool IsAttached(McHandle handle) const { return fleet_.IsAttached(handle); }
  std::size_t n_mcs() const { return fleet_.n_mcs(); }

  // Streaming ingestion of the next frame.
  void Submit(const video::Frame& frame);

  // Batched ingestion: phase 1 runs the base DNN once over the whole
  // (N, 3, H, W) batch; phases 2-5 then run per frame in stream order, so
  // every tenant sees exactly the per-frame decision stream that N
  // single-frame Submit calls would produce (pinned by edge_batch_test).
  // Every frame's geometry is checked before any work, so a bad frame
  // anywhere in the span throws and leaves no state behind. The frames are
  // then COPIED onto the node's fleet stream (EdgeFleet::Push) and
  // processed as one EdgeFleet::Step — the same staging path as Run() and
  // every fleet stream; the span itself is not retained. The tenant set
  // is fixed for the whole batch — Attach/Detach remain frame-boundary
  // operations and batches are their coarser boundary: a tenant attached
  // after Submit(span of N) is live from global frame index
  // frames_processed(); a detaching tenant drains through the last
  // submitted batch.
  void Submit(std::span<const video::Frame> frames);

  // End of stream: drains every remaining tenant (as Detach does) and
  // finalizes all pending uploads. Idempotent; the node accepts no further
  // Submit/Attach afterwards.
  void Drain() { fleet_.Drain(); }

  // Convenience: Submit() every frame of `source` (in batches of
  // config().submit_batch), then Drain(). Returns frames processed.
  std::int64_t Run(video::FrameSource& source);

  // Uplink sink: every uploaded frame's bitstream chunk and metadata is
  // delivered here (e.g. to a DatacenterReceiver). Binds late: takes effect
  // for frames finalized after the call. Requires uploads enabled.
  void SetUploadSink(UploadSink sink) { fleet_.SetUploadSink(std::move(sink)); }

  // The tenant's microclassifier (e.g. for marginal-cost accounting).
  const Microclassifier& mc(McHandle handle) const { return fleet_.mc(handle); }

  std::int64_t frames_processed() const {
    return fleet_.frames_processed(stream_);
  }
  std::int64_t frames_uploaded() const {
    return fleet_.frames_uploaded(stream_);
  }
  std::uint64_t upload_bytes() const { return fleet_.upload_bytes(stream_); }
  // Average uplink bitrate over the processed duration.
  double UploadBitrateBps() const { return fleet_.UploadBitrateBps(stream_); }
  // Frames buffered awaiting decisions — bounded by the largest tenant
  // decision lag (windowed delay + K-voting delay), not by stream length.
  std::size_t pending_frames() const { return fleet_.pending_frames(stream_); }

  EdgeStore* edge_store() { return fleet_.edge_store(stream_); }
  // Shared ownership for demand-fetch handlers (see EdgeFleet).
  std::shared_ptr<EdgeStore> edge_store_shared() {
    return fleet_.edge_store_shared(stream_);
  }

  // Phase time totals in seconds. mc_seconds is the wall time of the
  // fanned-out phase 2 (bench_fig5_throughput's Fig. 6 breakdown times
  // each MC itself).
  double base_dnn_seconds() const { return fleet_.base_dnn_seconds(); }
  double mc_seconds() const { return fleet_.mc_seconds(); }
  double smooth_seconds() const { return fleet_.smooth_seconds(); }
  double upload_seconds() const { return fleet_.upload_seconds(); }

  const EdgeNodeConfig& config() const { return cfg_; }
  // The underlying one-stream fleet (e.g. to observe batches_run()).
  const EdgeFleet& fleet() const { return fleet_; }
  // Latency/overload accounting for the node's single stream (the fleet
  // roll-up and the one StreamStats coincide here).
  FleetStats fleet_stats() const { return fleet_.fleet_stats(); }

 private:
  EdgeNodeConfig cfg_;
  EdgeFleet fleet_;
  StreamHandle stream_ = -1;
};

}  // namespace ff::core
