// The FilterForward edge box as a fleet: ONE constrained node, MANY camera
// streams, one shared base DNN (paper Fig. 1 generalized to the multi-camera
// deployments of §2.2.3 — real edge boxes multiplex several streams, and the
// batch dimension opened in the frame path is filled *across* streams
// instead of buffering one stream's future).
//
// Lifecycle:
//
//   EdgeFleet fleet(fx, cfg);
//   StreamHandle s = fleet.AddStream(source, {...});  // any step boundary
//   McHandle h = fleet.Attach(s, {.mc = ...});        // tenants per stream
//   fleet.Step();          // one cross-stream phase-1 batch + phases 2-5
//   fleet.RemoveStream(s); // stream leaves mid-run (tenant tails drained)
//   fleet.Run();           // Step() until exhausted, then Drain()
//
//   fleet.StartPipeline(); // or: the same turns on one driver thread
//   ...                    // Push/AddStream/Attach/... at batch boundaries
//   fleet.StopPipeline();  // join the driver; the batch in hand processed
//
// The scheduler runs one TURN at a time over per-geometry BATCH BUCKETS
// (one reusable staging tensor per distinct WxH):
//
//   (A) gather — pick the next bucket (round-robin) with a frame ready and
//       take frames round-robin across its streams, each from the stream's
//       bounded Push() queue or its FrameSource, preprocessed into the
//       bucket's staging tensor. The sources of one round (the next
//       streams in cursor order, each at most once) decode concurrently,
//       one util::GlobalPool() task per source — a round is the only
//       place the fleet pulls a source; a stream whose frame is shed at
//       admission is pulled again at the cursor's next visit;
//   (B) phase 1 — run the shared FeatureExtractor once over the batch;
//   (C) phase 2 fan-out — one util::GlobalPool() task per (stream, tenant)
//       pair over the shared maps — then phases 3-5 (K-voting, events,
//       upload, archive) per frame in batch order.
//
// Both schedules run the same turn (RunTurn). Synchronous Step() runs one
// turn on the caller, holding the fleet lock throughout; sinks fire on the
// caller's thread. StartPipeline()/StopPipeline() run turns in a loop on
// one driver thread, which drops the lock only around a round's
// FrameSource::Next() calls and preprocessing (so Push/churn/stats callers
// are not held up by decode) and parks when no stream has a frame ready.
// Decode overlaps other streams' decode, not B/C: B/C hold the lock, so a
// decode thread running ahead would only let frames age in a queue
// (docs/ARCHITECTURE.md has the measurements).
// StopPipeline drains — the batch being gathered is processed before the
// driver joins, and frames still in Push() queues remain queued for a
// later Step()/StartPipeline(). In pipelined mode sinks fire on the driver
// thread, one batch at a time. Either schedule appends each batch's frames
// to their streams' archives at the end of its turn, after the batch's
// sinks have fired.
//
// Scheduling is still pull-driven and fair: each batch gathers up to
// `max_batch` frames round-robin across the live streams OF ONE BUCKET
// (each bucket keeps its own fairness cursor), so with S streams of a
// geometry and batch N a stream buffers only ~N/S of its own frames per
// batch. The base DNN forwards the whole batch once (conv kernels spread
// n × out_c across the pool); phase 2 fans out streams × tenants wide.
//
// Isolation: every stream owns its tenants, K-voting smoothers, transition
// detectors, pending-upload buffer, uplink encoder, and edge store. The
// pinning property (edge_fleet_test, edge_fleet_pipeline_test): a stream's
// decision/event/upload byte stream through the fleet is BITWISE-IDENTICAL
// to running that stream through a dedicated single-stream EdgeNode, no
// matter how the fleet interleaves its batches, which geometries share the
// box, or whether the schedule is synchronous or pipelined — bucketed
// cross-stream batching is pure scheduling.
//
// Heterogeneous walls: streams of DIFFERENT frame geometries now share one
// fleet — each distinct WxH gets its own batch bucket and the buckets share
// the extractor, the phase-2 pool, and the uplink sink. Invalid (zero)
// geometry is still rejected loudly at AddStream; a frame that does not
// match ITS OWN stream's geometry is still rejected loudly at Push/gather.
// fps may differ per stream (it only paces that stream's uplink).
//
// Threading contract: all public methods are serialized on one internal
// mutex and are safe to call while the pipeline runs — stream/tenant churn
// and Push() land at batch boundaries. StartPipeline/StopPipeline/
// WaitPipelineIdle themselves must come from one controlling thread.
//
// Overload control (graceful degradation): when configured with an SLO
// (EdgeFleetConfig::slo_ms / shed_queue_depth), the fleet sheds load at
// ADMISSION — Push() and the source gather paths — by per-stream frame-rate
// decimation: a stream whose frames keep arriving older than the SLO (or
// whose ingest queue keeps sitting at the shed depth) escalates its
// keep-every-k cadence one notch at a time, and eases back one notch after
// a run of healthy admissions. Priority tenants (StreamConfig::priority)
// shed strictly low-first: a stream may only escalate once every live
// stream of strictly lower priority is already fully decimated, so
// high-priority streams keep their full frame rate until the low tiers are
// exhausted. Shed frames vanish before batching (never scored, never
// archived); the next KEPT frame after a gap is archived as a forced
// keyframe so every archived run stays independently decodable. All policy
// decisions read time through the injectable util::Clock
// (EdgeFleetConfig::clock), which makes the shed/keep schedule a pure
// function of the arrival timestamps — deterministic under a FakeClock,
// and identical between the synchronous and pipelined schedules for
// streams of one bucket (edge_fleet_overload_test pins both; admission
// ORDER across different buckets may differ between schedules, so the
// bitwise contract is per-bucket). With the controller disabled (the
// default), admission is a no-op and the fleet behaves exactly as before.
// fleet_stats() reports the accounting: per-stream ingest→decision latency
// percentiles over a sliding window, queue depths/peaks, shed counters,
// and the current keep-every cadence.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/codec.hpp"
#include "core/datacenter.hpp"
#include "core/edge_store.hpp"
#include "core/events.hpp"
#include "core/microclassifier.hpp"
#include "core/smoothing.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "video/source.hpp"
#include "xcam/correlator.hpp"
#include "xcam/signature.hpp"

namespace ff::core {

// Identifies one stream of a fleet; monotonically increasing, never reused.
using StreamHandle = std::int64_t;

// Identifies one attached tenant; monotonically increasing across the whole
// fleet (an EdgeNode facade is a one-stream fleet), never reused.
using McHandle = std::int64_t;

// One finalized per-frame result for one tenant of one stream.
struct McDecision {
  McHandle handle = -1;
  StreamHandle stream = -1;
  std::int64_t frame_index = -1;  // index within the owning stream
  float score = 0.0f;             // MC probability for this frame
  bool raw = false;               // thresholded, pre-smoothing
  bool decision = false;          // post K-voting
  std::int64_t event_id = -1;     // valid when decision is positive
};

// Sink contract (all three kinds): sinks fire on the thread driving the
// schedule — the Step/Detach/RemoveStream/Drain caller, or the pipeline's
// driver thread — WITH THE FLEET LOCK HELD, so per-stream delivery order
// is exact even while churn lands concurrently. A sink must therefore not
// call back into its own fleet/node: such a call throws util::CheckError
// (instead of self-deadlocking on the non-recursive lock). Hand results
// off and return. Calling into a DIFFERENT fleet is fine.
using DecisionSink = std::function<void(const McDecision&)>;
// Closed events, begin/end in the owning stream's frame indices.
using EventSink = std::function<void(const EventRecord&)>;
using UploadSink = std::function<void(const UploadPacket&)>;
// Cross-camera groups emitted by the xcam correlation plane (SetTopology),
// in deterministic global-id order. Same lock-held contract as the others.
using CrossEventSink = std::function<void(const xcam::CrossEventRecord&)>;

// Everything needed to attach one tenant. The explicit nullptr defaults let
// designated initializers omit the sinks without tripping
// -Wmissing-field-initializers (same trick as McConfig::pixel_crop).
struct McSpec {
  std::unique_ptr<Microclassifier> mc;
  // Threshold converts the MC's probability into the raw per-frame label.
  float threshold = 0.5f;
  DecisionSink on_decision = nullptr;  // optional
  EventSink on_event = nullptr;        // optional
};

// Accumulated per-tenant stream results, as the pre-session API returned
// them. Produced by ResultCollector; frame i of the vectors is stream frame
// first_frame + i.
struct McResult {
  std::string name;
  std::int64_t first_frame = 0;
  std::vector<float> scores;            // per-frame probability
  std::vector<std::uint8_t> raw;        // thresholded, pre-smoothing
  std::vector<std::uint8_t> decisions;  // post K-voting
  std::vector<std::int64_t> event_ids;  // per-frame event id or -1
  std::vector<EventRecord> events;
};

// Opt-in sink pair that rebuilds a McResult from the push stream. Must
// outlive the fleet/node session it is bound into.
class ResultCollector {
 public:
  ResultCollector() = default;
  ResultCollector(const ResultCollector&) = delete;
  ResultCollector& operator=(const ResultCollector&) = delete;

  // Installs this collector's sinks on `spec` (which must not have sinks
  // yet) and records the MC's name. One collector serves one tenant;
  // binding twice throws.
  void Bind(McSpec& spec);

  const McResult& result() const { return result_; }

 private:
  McResult result_;
  bool bound_ = false;
};

// Fleet-wide policy. Per-stream geometry lives in StreamConfig; everything
// here applies to every stream (matching the single-node EdgeNodeConfig
// fields so the facade maps 1:1).
struct EdgeFleetConfig {
  // K-voting parameters (paper §3.5: N = 5, K = 2) for every tenant.
  std::int64_t vote_window = 5;
  std::int64_t vote_k = 2;
  // Target bitrate for re-encoding matched frames (per-stream encoder).
  double upload_bitrate_bps = 500'000;
  // Disable to skip the uplink encoders entirely (pure-filtering benches).
  bool enable_upload = true;
  // Per-stream edge store capacity in frames (0 disables archiving unless
  // archive_dir is set; with a dir, 0 means "bounded by bytes only").
  std::int64_t edge_store_capacity = 0;
  // Durable archiving: when non-empty, each stream's edge store is a
  // memory-mapped pack on disk under <archive_dir>/stream-<handle>/ that
  // survives restarts (store::PackArchive); empty keeps the in-RAM store.
  std::string archive_dir;
  // Per-stream archive byte budget (0 = unbounded; pack evicts whole
  // segments, RAM evicts keyframe groups).
  std::uint64_t archive_budget_bytes = 0;
  // Archival-encode keyframe cadence; 1 = every frame an I-frame (the
  // pre-durability retention semantics), larger gops compress better.
  std::int64_t archive_gop = 1;
  // Records per pack segment file.
  std::int64_t archive_segment_frames = 64;
  // Frames per phase-1 batch: each batch drains up to this many frames
  // round-robin across one bucket's live streams. With >= max_batch live
  // streams a batch holds one frame per stream — full batch parallelism
  // with no single-stream future buffering.
  std::int64_t max_batch = 8;
  // Bounded per-stream Push() ingest queue; 0 = unbounded (for callers that
  // manage their own batching, e.g. the EdgeNode facade).
  std::int64_t queue_capacity = 16;

  // --- Overload control (defaults: fully disabled — no behavior change) ---

  // Time source for latency accounting and shed decisions. Borrowed, must
  // outlive the fleet; null uses the process-wide steady clock. Tests
  // inject a util::FakeClock to make the shed schedule deterministic.
  util::Clock* clock = nullptr;
  // Admission SLO: a frame arriving more than this many milliseconds after
  // its capture timestamp counts as a breach. 0 disables the age trigger.
  double slo_ms = 0;
  // Queue-depth trigger: admission while the stream's ingest queue already
  // holds at least this many frames counts as a breach. 0 disables it.
  // Either trigger alone arms the controller.
  std::int64_t shed_queue_depth = 0;
  // Consecutive breaching admissions before the stream's keep-every cadence
  // escalates one notch (hysteresis against one-off spikes).
  std::int64_t shed_breach_frames = 4;
  // Consecutive healthy admissions before the cadence eases one notch.
  std::int64_t shed_recover_frames = 8;
  // Ceiling on the decimation cadence: at k the stream keeps every k-th
  // offered frame, so max_keep_every bounds the worst-case shed ratio at
  // (k-1)/k and is what "fully decimated" means for the priority gate.
  std::int64_t max_keep_every = 8;
};

// Per-stream geometry. Zeros mean "read it from the source's metadata
// hooks"; push-only streams (no source) must set width/height explicitly.
struct StreamConfig {
  std::int64_t frame_width = 0;
  std::int64_t frame_height = 0;
  std::int64_t fps = 0;  // 0: source metadata, else 15
  // Overload-shedding tier: under overload, streams shed strictly
  // lowest-priority-first — a stream escalates its decimation only once
  // every live stream of strictly lower priority is already at
  // max_keep_every. Equal priorities degrade together. Irrelevant while
  // the controller is disabled.
  std::int64_t priority = 0;
};

// Observability for one geometry bucket (examples/benches report per-bucket
// batch occupancy to make the fairness cursor and batching shape visible).
struct BucketStats {
  std::int64_t width = 0, height = 0;
  std::int64_t streams = 0;  // live streams currently in this bucket
  std::int64_t batches = 0;  // phase-1 batches run for this bucket
  std::int64_t frames = 0;   // frames processed through this bucket
  std::int64_t queued = 0;   // frames on member streams' ingest queues
  std::int64_t shed = 0;     // frames shed across member streams
};

// Per-stream overload/latency accounting (fleet_stats()). Latency is
// ingest→decision wall time: from the frame's capture timestamp (stamped at
// admission when the source did not provide one) to the end of the batch
// that processed it, in milliseconds, over the last 512 processed frames.
// Percentile fields are 0 until a frame has completed.
struct StreamStats {
  StreamHandle handle = -1;
  std::int64_t priority = 0;
  std::int64_t frames_offered = 0;   // admission attempts (Push/gather)
  std::int64_t frames_admitted = 0;  // offered - shed
  std::int64_t frames_processed = 0;
  std::int64_t frames_shed = 0;
  std::int64_t keep_every = 1;  // current decimation cadence (1 = keep all)
  std::int64_t queue_depth = 0;
  std::int64_t queue_peak = 0;
  double oldest_staged_ms = 0;  // age of the oldest queued frame
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_max_ms = 0;
  std::int64_t latency_samples = 0;  // frames ever measured
};

// Fleet-wide roll-up plus the per-stream breakdown. The fleet-wide latency
// window pools every stream's samples.
struct FleetStats {
  std::int64_t frames_offered = 0;
  std::int64_t frames_admitted = 0;
  std::int64_t frames_processed = 0;
  std::int64_t frames_shed = 0;
  std::int64_t batches = 0;
  // Frames the driver's gather has pulled or staged, not yet processed.
  std::int64_t in_flight = 0;
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_max_ms = 0;
  std::int64_t latency_samples = 0;
  std::vector<StreamStats> streams;
};

class EdgeFleet {
 public:
  EdgeFleet(dnn::FeatureExtractor& fx, const EdgeFleetConfig& cfg);
  // Stops a still-running pipeline (discarding any deferred pipeline
  // error), then releases any remaining tenants' tap references (the shared
  // extractor outlives the fleet); does NOT drain tails — call Drain().
  ~EdgeFleet();

  // --- Stream lifecycle (legal at any batch boundary) ----------------------

  // Registers a pull-driven stream; the scheduler draws frames from
  // `source`, which must outlive the stream. Geometry comes from `scfg`
  // where set, else from the source's metadata; the stream joins the batch
  // bucket for its WxH (created on first sight — heterogeneous walls are
  // fine, each distinct geometry batches separately). Invalid/zero
  // geometry throws loudly.
  StreamHandle AddStream(video::FrameSource& source, StreamConfig scfg = {});
  // Registers a push-driven stream (frames arrive via Push). `scfg` must
  // carry the frame geometry.
  StreamHandle AddStream(StreamConfig scfg);

  // Removes a stream at a batch boundary: every tenant's windowed tail and
  // K-voting state is drained (sinks receive the decisions for all frames
  // the stream processed), pending uploads are finalized, and the handle
  // dies. Frames still queued — or taken by the pipeline driver's gather
  // but not yet processed — are discarded.
  void RemoveStream(StreamHandle stream);

  bool HasStream(StreamHandle stream) const;
  std::size_t n_streams() const;

  // --- Tenants (legal at any batch boundary) -------------------------------

  // Registers a tenant on one stream; its first live frame is the next one
  // that stream processes.
  McHandle Attach(StreamHandle stream, McSpec spec);
  // Removes a tenant, draining its windowed-MC tail and K-voting state
  // first (exactly one decision per frame it was live for).
  void Detach(McHandle handle);
  bool IsAttached(McHandle handle) const;
  // Tenants across all streams.
  std::size_t n_mcs() const;
  const Microclassifier& mc(McHandle handle) const;

  // --- Ingestion and scheduling --------------------------------------------

  // Stages a frame on a push-driven (or pull) stream's bounded queue; the
  // frame is processed by a later batch. Throws when the queue is full.
  // The move overload stages without copying pixel planes (the copying one
  // exists for callers that must keep their frame).
  void Push(StreamHandle stream, const video::Frame& frame);
  void Push(StreamHandle stream, video::Frame&& frame);
  std::size_t queued_frames(StreamHandle stream) const;

  // Synchronous schedule: processes one batch inline — picks the next
  // bucket (round-robin) with a frame ready, gathers up to max_frames
  // (0 = the configured max_batch) frames round-robin across that bucket's
  // streams, runs the base DNN once over the whole batch, fans phase 2 out
  // across streams × tenants, and runs phases 3-5 per frame in batch
  // order. Sinks fire on this caller's thread. Returns frames processed;
  // 0 means every queue is empty and every source exhausted. Illegal while
  // the pipeline is running.
  std::int64_t Step(std::int64_t max_frames = 0);

  // Step() until no stream yields a frame, then Drain(). Returns total
  // frames processed by the fleet.
  std::int64_t Run();

  // --- Pipelined schedule --------------------------------------------------

  // Starts the pipelined schedule: one driver thread runs Step()'s turn in
  // a loop (gather a bucket batch, base DNN, MC fan-out, per-frame tail),
  // parking while no stream has a frame ready. Per-stream decisions are
  // bitwise-identical to the synchronous schedule
  // (edge_fleet_pipeline_test). Sinks fire on the driver thread.
  void StartPipeline();
  // Joins the driver. The batch it was gathering is processed before this
  // returns (clean drain — no gap in any stream's decision stream); frames
  // still in Push() queues stay queued. Rethrows the first error the
  // pipeline hit (e.g. a source yielding a frame that contradicts its
  // declared geometry, a FrameSource::Next() that threw mid-gather, or an
  // archive append the store rejected after its batch was processed).
  // An ABORTED pipeline is lossless for the surviving streams: admitted
  // frames that were gathered but not processed when the driver failed are
  // restaged onto their streams' queues in order, so after removing the
  // offending stream the synchronous schedule (or a fresh pipeline)
  // continues every sibling bitwise-unchanged. The fleet is synchronous
  // again afterwards.
  void StopPipeline();
  // Blocks until the pipeline has nothing left to do: every source
  // exhausted, every queue empty and the driver parked (the pipelined
  // analogue of Run()'s exhaustion), or the pipeline failed. Does not stop
  // the pipeline — streams can still be added or pushed after.
  void WaitPipelineIdle();
  bool pipeline_active() const;
  // StartPipeline() + WaitPipelineIdle() + StopPipeline() + Drain().
  // Returns total frames processed by the fleet.
  std::int64_t RunPipelined();

  // End of the world: drains every tenant of every stream and finalizes all
  // pending uploads. Idempotent; the fleet accepts no further
  // Push/Step/Attach/AddStream afterwards. Streams and their accounting
  // remain readable. Illegal while the pipeline is running.
  void Drain();
  bool drained() const;

  // Uplink sink shared by all streams; packets carry their stream handle.
  // Binds late (frames finalized after the call). Requires uploads enabled.
  void SetUploadSink(UploadSink sink);

  // --- Cross-camera correlation plane (xcam) -------------------------------

  // Arms the correlation plane over the declared overlap `topology`. Member
  // streams compute per-event signatures zero-copy from the base DNN's
  // `tap` (spatially pooled per matched frame, background-subtracted,
  // accumulated per event — no extra forward passes) and feed closed events
  // into an xcam::Correlator that fuses the same physical event seen from
  // overlapping cameras. Non-canonical members of a fused group suppress
  // their clip upload (a metadata-only tombstone crosses the wire; the full
  // clip stays in the edge archive, demand-fetchable). Streams OUTSIDE the
  // topology are untouched — their decision/upload/archive byte streams
  // stay bitwise-identical to a fleet with no topology, and with no
  // topology set the whole plane is compiled out of the hot path.
  //
  // Each connected component of the topology, over its live member
  // streams, has one *lead*: the highest StreamConfig::priority, ties to
  // the lowest handle. Every group holding a lead event elects the lead
  // canonical, so the lead uploads as it decides, exactly its no-topology
  // bytes; only the other members hold their clip packets until the
  // correlator's verdict. Churn re-elects: a promoted lead first drains
  // its deferred backlog in order, a demoted one defers from its next
  // finalized frame. A verdict that disagrees with frames an ex-lead
  // already shipped costs a missed dedupe (two full copies), never a clip.
  //
  // Call once, before any member stream has processed a frame. Member
  // streams may be added before or after (flagged by handle as they
  // appear). Topology must be non-empty.
  void SetTopology(xcam::Topology topology, xcam::CorrelatorConfig ccfg = {},
                   std::string tap = dnn::kMidTap);
  // Receives every fused CrossEventRecord (same thread/lock contract as the
  // other sinks). Bind before or after SetTopology.
  void SetCrossEventSink(CrossEventSink sink);
  bool xcam_enabled() const;
  xcam::Correlator::Stats xcam_stats() const;
  // Uploads suppressed by cross-camera dedupe (tombstoned frames).
  std::int64_t frames_suppressed() const;       // fleet total
  std::int64_t frames_suppressed(StreamHandle stream) const;

  // --- Accounting ----------------------------------------------------------

  std::int64_t frames_processed() const;  // fleet total
  std::int64_t frames_processed(StreamHandle stream) const;
  std::int64_t frames_uploaded(StreamHandle stream) const;
  std::uint64_t upload_bytes() const;  // fleet total
  std::uint64_t upload_bytes(StreamHandle stream) const;
  // Average uplink bitrate of one stream over its processed duration.
  double UploadBitrateBps(StreamHandle stream) const;
  // Frames buffered awaiting decisions — bounded by the stream's largest
  // tenant decision lag, not by stream length.
  std::size_t pending_frames(StreamHandle stream) const;
  // The stream's archive. Live streams resolve to their store (null when
  // archiving is disabled); removed streams keep resolving — their archive
  // outlives the stream so historical demand-fetch still works — and a
  // handle never seen throws loudly.
  EdgeStore* edge_store(StreamHandle stream);
  // Shared ownership of the same store, for demand-fetch handlers that must
  // not touch the fleet lock on their serving thread (see
  // net::UplinkClient::SetFetchHandler).
  std::shared_ptr<EdgeStore> edge_store_shared(StreamHandle stream);

  // Phase-1 batches run so far (all buckets); frames_processed() /
  // batches_run() / n_streams() is the per-stream buffering depth.
  std::int64_t batches_run() const;

  // Geometry buckets: one per distinct WxH ever added (buckets persist
  // after their last stream leaves, keeping their accounting readable).
  std::size_t n_buckets() const;
  std::vector<BucketStats> bucket_stats() const;

  // Overload/latency accounting: fleet-wide roll-up plus one StreamStats
  // per live stream. Consistent snapshot (taken under the fleet lock, so
  // never torn against a concurrently running pipeline).
  FleetStats fleet_stats() const;

  // Phase time totals in seconds (Fig. 6's breakdown, fleet-wide).
  // mc_seconds is the wall time of the fanned-out phase 2.
  double base_dnn_seconds() const;
  double mc_seconds() const;
  double smooth_seconds() const;
  double upload_seconds() const;

  const EdgeFleetConfig& config() const { return cfg_; }

 private:
  struct Tenant {
    McHandle handle = -1;
    std::unique_ptr<Microclassifier> mc;
    float threshold = 0.5f;
    KVotingSmoother smoother;
    TransitionDetector detector;
    DecisionSink on_decision;
    EventSink on_event;
    std::int64_t first_frame = 0;  // stream index of local frame 0
    std::int64_t scored = 0;       // scores delivered into the smoother
    std::int64_t decided = 0;      // decisions finalized
    // (score, raw) per scored-but-undecided frame; bounded by vote delay.
    std::deque<std::pair<float, bool>> undecided;
    // --- xcam event tracking (capture-time bounds + signature) -----------
    // Capture ts of the last decided frame (watermark floor when no event
    // is open) and of the open event's first/last positive frame.
    std::int64_t last_decided_ts = std::numeric_limits<std::int64_t>::min();
    std::int64_t open_begin_ts = -1;
    std::int64_t open_last_ts = -1;
    float open_peak = 0.0f;  // max post-smoothing score in the open event
    xcam::SignatureAccumulator xacc;  // pooled-tap sum over the open event
  };

  struct PendingFrame {
    video::Frame frame;
    std::size_t needed = 0;  // live tenants at submission
    std::size_t decided = 0;
    bool any_positive = false;
    std::vector<std::pair<std::string, std::int64_t>> memberships;
  };

  struct Bucket;

  struct Stream {
    StreamHandle handle = -1;
    video::FrameSource* source = nullptr;  // null: push-driven
    bool source_done = false;
    // The pipeline driver's gather round is inside this stream's
    // source->Next() right now (RemoveStream waits on this before the
    // handle — and with it the caller's source-outlives-stream guarantee —
    // dies). Cleared as soon as that call returns, not at the round's end.
    bool pulling = false;
    std::int64_t width = 0, height = 0, fps = 15;
    // Overload controller state (all mutated under mu_ at admission).
    std::int64_t priority = 0;
    std::int64_t frames_offered = 0;
    std::int64_t frames_shed = 0;
    std::int64_t keep_every = 1;  // admit every k-th offered frame
    std::int64_t since_kept = 0;
    std::int64_t breach_streak = 0;
    std::int64_t ok_streak = 0;
    // A shed gap is open: the next KEPT admission gets
    // Frame::force_keyframe stamped on it (the flag travels WITH that
    // frame through the queue/staging, so older frames still queued ahead
    // of the gap archive normally) and the archive never predicts across
    // frames it did not see.
    bool force_keyframe_next = false;
    std::int64_t queue_peak = 0;
    util::WindowedStat latency;  // ingest→decision ms, sliding window
    Bucket* bucket = nullptr;        // geometry bucket; stable, never null
    std::deque<video::Frame> queue;  // staged frames (Push), bounded
    std::vector<std::unique_ptr<Tenant>> tenants;
    std::int64_t frames_processed = 0;
    dnn::FeatureMaps last_fm;  // retained for windowed-MC tail padding
    // Upload path (all per stream: frame indices are stream-local).
    std::deque<PendingFrame> pending;
    std::int64_t pending_base = 0;
    std::unique_ptr<codec::Encoder> uplink;
    std::int64_t last_uploaded = -2;
    std::int64_t frames_uploaded = 0;
    // Shared: demand-fetch handlers hold references that outlive stream
    // churn (fetch-after-detach).
    std::shared_ptr<EdgeStore> store;
    // --- xcam state (only populated for topology member streams) ---------
    bool in_topology = false;
    // The canonical stream of its topology component (ElectLeads): ships
    // uploads directly once `deferred` is empty.
    bool xcam_lead = false;
    // Per-stream background model over the pooled tap (subtracts the
    // static scene so signatures describe the moving object).
    std::unique_ptr<xcam::BackgroundModel> bg;
    // Capture ts + background-subtracted pooled signature per processed
    // frame, ring-buffered and pruned once every tenant has decided past
    // it (bounded by the largest tenant decision lag). Entry i describes
    // stream frame sig_ring_base + i. ts is tracked for every stream with
    // tenants (event capture-time bounds need it); sig only for topology
    // members.
    struct SigEntry {
      std::int64_t ts_ns = -1;
      std::shared_ptr<const std::vector<float>> sig;
    };
    std::deque<SigEntry> sig_ring;
    std::int64_t sig_ring_base = 0;
    // Finalized positive frames awaiting a cross-camera verdict before
    // encoding (non-lead topology members, and a promoted lead's backlog;
    // non-members keep the immediate upload path untouched).
    struct DeferredUpload {
      video::Frame frame;
      std::int64_t index = -1;
      std::vector<std::pair<std::string, std::int64_t>> memberships;
    };
    std::deque<DeferredUpload> deferred;
    // (mc, event id) -> (suppress, event end frame): verdicts delivered by
    // the correlator while a frame of the event may still defer, pruned as
    // frames finalize past them.
    std::map<std::pair<std::string, std::int64_t>,
             std::pair<bool, std::int64_t>>
        xverdicts;
    std::int64_t frames_suppressed = 0;
  };

  // One admitted frame staged into a bucket's batch. Every staged frame
  // owns a slot in the base-DNN input — tenantless streams' frames too,
  // because a tenant may attach before the batch computes. Its capture
  // timestamp (stamped at admission) is the latency origin. Streams are
  // referenced by handle, not pointer: a stream removed while its frames
  // are staged simply stops resolving and those frames are discarded at
  // processing.
  struct StagedEntry {
    StreamHandle stream = -1;
    video::Frame frame;
  };

  // The batch one turn gathers: entry i is preprocessed into image i of
  // the bucket's staging tensor.
  struct StagedBatch {
    Bucket* bucket = nullptr;
    std::vector<StagedEntry> entries;
  };

  // One geometry's batching state. Buckets are heap-stable and never die,
  // so Stream::bucket and StagedBatch::bucket stay valid across churn.
  struct Bucket {
    std::int64_t width = 0, height = 0;
    std::size_t rr = 0;  // fairness cursor among this bucket's streams
    // (capacity, 3, H, W), reused by every turn on this bucket — one turn
    // runs at a time, so the turn gathering into it owns it.
    nn::Tensor staging;
    std::int64_t batches = 0, frames = 0;  // accounting (bucket_stats)
  };

  // The fleet lock, as every public method takes it. Throws CheckError when
  // the caller is the thread delivering this fleet's sinks: that thread
  // already holds mu_, and re-locking it would hang.
  std::unique_lock<std::mutex> Lock() const;
  // Marks the calling thread as the sink thread for the lifetime of one
  // sink-firing scope (ProcessStaged, Detach, RemoveStream, Drain). The
  // caller holds mu_.
  class SinkScope;

  StreamHandle FinishAddStream(std::unique_ptr<Stream> s);
  std::size_t StreamIndex(StreamHandle stream) const;
  Stream* FindStream(StreamHandle stream) const;  // null when gone
  // Shared Push preamble: drained/geometry/capacity checks, then the
  // stream whose queue accepts the frame.
  Stream& PushTarget(StreamHandle stream, const video::Frame& frame);
  // Owning stream and tenant index for `handle`; throws if not attached.
  std::pair<Stream*, std::size_t> TenantRef(McHandle handle) const;
  void ValidateFrame(const Stream& s, const video::Frame& frame) const;
  // Overload-control admission, called (under mu_) for every frame entering
  // via Push or a gather round's source pull. Stamps the frame's capture
  // timestamp when the source left it unset, updates the stream's
  // breach/recovery streaks, and returns whether the frame is kept (false =
  // shed now, before any staging).
  bool AdmitFrame(Stream& s, video::Frame& frame);
  // Priority gate: may `s` escalate its decimation? Only when every live
  // stream of strictly lower priority is already at max_keep_every.
  bool CanEscalate(const Stream& s) const;
  bool overload_enabled() const {
    return cfg_.slo_ms > 0 || cfg_.shed_queue_depth > 0;
  }

  Bucket& BucketFor(std::int64_t width, std::int64_t height);
  // Any live stream with a queued frame or an unexhausted source.
  bool AnyFrameReady() const;

  // One attempt of a gather round: a member stream and, when its source
  // must be pulled, that FrameSource::Next() call. `stream` stays valid for
  // the Next() call: Step() holds mu_, and the pipeline driver sets the
  // stream's pulling flag, which RemoveStream waits out. In the pipeline the
  // flag drops before the driver has the lock back, so once PullFrames
  // returns, the stream must be re-resolved from `handle`.
  struct Pull {
    StreamHandle handle = -1;
    Stream* stream = nullptr;
    video::FrameSource* source = nullptr;  // null: the attempt pulls nothing
    std::optional<video::Frame> frame;     // nullopt: end of stream
    std::exception_ptr error;              // what Next() threw, if it did
  };
  // Runs every pull's Next(), one util::GlobalPool() task per source (a
  // single pull runs inline), and counts each frame in in_flight_. Step()
  // passes no `io_lock` and holds mu_ throughout, so the tasks touch no
  // fleet state. The pipeline driver passes its lock, dropped for the
  // round; each task clears its stream's pulling flag under mu_ as soon as
  // its Next() returns. Errors are stored, not thrown.
  void PullFrames(const std::vector<Pull*>& pulls,
                  std::unique_lock<std::mutex>* io_lock);
  // How StageFrame settled one attempt of a gather round.
  enum class Attempt {
    kStaged,  // a frame joined the batch
    kMiss,    // the stream had nothing ready
    kShed,    // the pulled frame was shed at admission
  };
  // Stage A, one attempt of a turn's gather: settles `pulled`, the frame
  // RunTurn's round pulled from the source of `s` (validated, then
  // admitted), or, when null, the front of its Push() queue (queued frames
  // were admitted at Push). An admitted frame is appended to `batch` and
  // preprocessed into the next image of the bucket's staging tensor (grown
  // to `cap` images on the batch's first frame if narrower). The pipeline
  // driver passes its lock, released around preprocessing; when
  // StopPipeline has landed, an admitted source frame is restaged at the
  // queue front instead of staged (a kMiss).
  Attempt StageFrame(Stream& s, StagedBatch& batch, std::int64_t cap,
                     std::unique_lock<std::mutex>* io_lock,
                     std::optional<video::Frame>* pulled);
  // Stages B + C: bookkeeping, one base-DNN forward over the staged batch,
  // the (stream, tenant) MC fan-out, phases 3-5 per frame in batch order,
  // then the archive appends (after every sink of the batch has fired).
  // Returns frames processed (staged entries whose stream is gone are
  // discarded). Caller must hold mu_.
  std::int64_t ProcessStaged(StagedBatch& batch);
  // One turn of either schedule: picks the next bucket (round-robin) with a
  // frame ready and gathers up to `cap` frames round-robin across its
  // streams, then processes the batch (ProcessStaged). The gather runs in
  // rounds: the next members in cursor order, each at most once, have
  // their sources pulled concurrently (PullFrames), and are then settled
  // one by one in cursor order (StageFrame), so the batch is the one a
  // one-at-a-time gather would take. The rounds are the fleet's only
  // FrameSource::Next() site: a stream whose pulled frame is shed is pulled
  // again when the cursor next reaches it. A gather that throws returns
  // what it took to the queue fronts, so an aborted gather opens no gap in
  // any surviving stream's decision sequence. Returns frames processed — 0
  // when no bucket had a frame ready, or when every frame gathered belonged
  // to a stream removed mid-gather. Caller holds mu_; `io_lock` as for
  // PullFrames.
  std::int64_t RunTurn(std::int64_t cap, std::unique_lock<std::mutex>* io_lock);

  // The pipelined schedule's one fleet thread: RunTurn in a loop.
  void DriverThreadMain();
  bool archiving_enabled() const {
    return cfg_.edge_store_capacity > 0 || !cfg_.archive_dir.empty();
  }

  void DeliverScore(Stream& s, Tenant& tenant, float score);
  void NotifyDecision(Stream& s, Tenant& tenant, bool positive);
  void DeliverClosedEvent(Stream& s, Tenant& tenant, const EventRecord& ev);
  void DrainTenantTail(Stream& s, Tenant& tenant);
  void FinalizeReadyFrames(Stream& s);
  // Encodes and ships one finalized positive frame (the shared tail of the
  // immediate and deferred upload paths — byte-identical either way).
  void ShipUpload(Stream& s, std::int64_t index, const video::Frame& frame,
                  std::vector<std::pair<std::string, std::int64_t>>
                      memberships);
  // Hands frame `index` of `s` to the upload sink, if one is bound: the
  // encoded `chunk`, or a metadata-only tombstone.
  void SendUpload(const Stream& s, std::int64_t index, bool tombstone,
                  std::string chunk,
                  std::vector<std::pair<std::string, std::int64_t>>
                      memberships);
  // Drains every tenant of `s` and finalizes its uploads (RemoveStream and
  // Drain share this tail).
  void DrainStream(Stream& s);

  // --- xcam plumbing (all under mu_) ---------------------------------------
  const Stream::SigEntry& SigAt(const Stream& s,
                                std::int64_t frame_index) const;
  void PruneSigRing(Stream& s);
  // Correlator sink: records per-member suppress/upload verdicts.
  void OnCrossEvent(const xcam::CrossEventRecord& rec);
  // Recomputes Stream::xcam_lead (xcam::ComponentLeads over the live member
  // streams); called whenever that set changes.
  void ElectLeads();
  // Drops verdicts no frame after `index` can reference.
  static void PruneVerdicts(Stream& s, std::int64_t index);
  // Advances the correlator watermark from the streams' tenant progress and
  // flushes deferred uploads whose verdicts have arrived. No-op without a
  // topology.
  void XcamPump();
  void FlushDeferredUploads(Stream& s);

  dnn::FeatureExtractor& fx_;
  EdgeFleetConfig cfg_;
  util::Clock* clock_ = nullptr;  // borrowed (cfg.clock) or the SystemClock
  util::WindowedStat fleet_latency_;  // pooled ingest→decision ms
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Bucket>> buckets_;
  // Archives of removed streams, still fetchable by their old handle.
  std::vector<std::pair<StreamHandle, std::shared_ptr<EdgeStore>>>
      retired_stores_;
  StreamHandle next_stream_ = 0;
  McHandle next_handle_ = 0;
  std::size_t bucket_rr_ = 0;  // next bucket a turn tries first
  bool drained_ = false;
  std::int64_t batches_run_ = 0;
  UploadSink upload_sink_;

  // Cross-camera correlation plane; null until SetTopology (the hot path
  // tests this one pointer).
  struct XcamPlane {
    xcam::Topology topology;
    std::string tap;
    std::unique_ptr<xcam::Correlator> correlator;
  };
  std::unique_ptr<XcamPlane> xcam_;
  CrossEventSink cross_event_sink_;

  // Pipeline state (all guarded by mu_).
  mutable std::mutex mu_;
  // The thread inside a SinkScope, or none. Written under mu_; Lock() reads
  // it before taking mu_, and only ever compares it with its own id.
  std::atomic<std::thread::id> sink_thread_{};
  std::thread driver_thread_;
  bool pipeline_active_ = false;
  bool pipeline_stop_ = false;
  bool driver_idle_ = false;      // driver parked with no frame ready
  std::int64_t in_flight_ = 0;    // frames pulled or staged, not processed
  std::exception_ptr pipeline_error_;
  std::condition_variable driver_cv_;  // wakes the driver (work/stop)
  std::condition_variable idle_cv_;    // wakes WaitPipelineIdle & waiters

  util::PhaseTimer base_timer_, mc_timer_, smooth_timer_, upload_timer_;
};

}  // namespace ff::core
