#include "core/edge_fleet.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "dnn/feature_extractor.hpp"
#include "tensor/tensor_view.hpp"
#include "util/thread_pool.hpp"

namespace ff::core {
namespace {

// Sliding-window size for the per-stream and fleet-wide ingest→decision
// latency percentiles reported by fleet_stats().
constexpr std::size_t kLatencyWindow = 512;

// Archival encode: constant-QP (no target bitrate), and no fdatasync per
// append (a crash loses at most the page-cache tail of the open segment).
constexpr double kArchiveBitrateBps = 0;
constexpr bool kArchiveFsync = false;

}  // namespace

void ResultCollector::Bind(McSpec& spec) {
  FF_CHECK_MSG(spec.mc != nullptr, "Bind needs a spec holding an MC");
  FF_CHECK_MSG(!spec.on_decision && !spec.on_event,
               "spec already has sinks installed");
  FF_CHECK_MSG(!bound_, "collector already bound to " << result_.name
                            << "; one collector serves one tenant");
  bound_ = true;
  result_.name = spec.mc->name();
  spec.on_decision = [this](const McDecision& d) {
    if (result_.scores.empty()) result_.first_frame = d.frame_index;
    result_.scores.push_back(d.score);
    result_.raw.push_back(d.raw ? 1 : 0);
    result_.decisions.push_back(d.decision ? 1 : 0);
    result_.event_ids.push_back(d.event_id);
  };
  spec.on_event = [this](const EventRecord& ev) {
    result_.events.push_back(ev);
  };
}

class EdgeFleet::SinkScope {
 public:
  explicit SinkScope(EdgeFleet& fleet) : thread_(fleet.sink_thread_) {
    thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }
  ~SinkScope() { thread_.store(std::thread::id(), std::memory_order_relaxed); }
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;

 private:
  std::atomic<std::thread::id>& thread_;
};

std::unique_lock<std::mutex> EdgeFleet::Lock() const {
  // Relaxed suffices: a thread only ever matches its own id, and it always
  // observes its own latest store.
  FF_CHECK_MSG(sink_thread_.load(std::memory_order_relaxed) !=
                   std::this_thread::get_id(),
               "a sink called back into its own fleet; sinks run with the "
               "fleet lock held, so hand results off and return");
  return std::unique_lock<std::mutex>(mu_);
}

EdgeFleet::EdgeFleet(dnn::FeatureExtractor& fx, const EdgeFleetConfig& cfg)
    : fx_(fx),
      cfg_(cfg),
      clock_(cfg.clock != nullptr ? cfg.clock
                                  : &util::SystemClock::Instance()),
      fleet_latency_(kLatencyWindow) {
  // Fail at construction, not first Attach: KVotingSmoother would throw
  // these checks after the tap reference was already taken.
  FF_CHECK_GE(cfg.vote_window, 1);
  FF_CHECK(cfg.vote_k >= 1 && cfg.vote_k <= cfg.vote_window);
  FF_CHECK_GE(cfg.max_batch, 1);
  FF_CHECK_GE(cfg.queue_capacity, 0);
  FF_CHECK_GE(cfg.slo_ms, 0.0);
  FF_CHECK_GE(cfg.shed_queue_depth, 0);
  FF_CHECK_GE(cfg.shed_breach_frames, 1);
  FF_CHECK_GE(cfg.shed_recover_frames, 1);
  FF_CHECK_GE(cfg.max_keep_every, 1);
  // A queue-depth trigger at or above the queue capacity could never fire:
  // Push would throw queue-full first. Catch the misconfig loudly.
  if (cfg.shed_queue_depth > 0 && cfg.queue_capacity > 0) {
    FF_CHECK_MSG(cfg.shed_queue_depth <= cfg.queue_capacity,
                 "shed_queue_depth (" << cfg.shed_queue_depth
                                      << ") exceeds queue_capacity ("
                                      << cfg.queue_capacity
                                      << ") — the trigger would never fire");
  }
}

EdgeFleet::~EdgeFleet() {
  // A fleet destroyed with the pipeline still running joins its driver
  // first (no thread may outlive the object). Deferred pipeline errors
  // cannot propagate out of a destructor; they are dropped.
  if (pipeline_active_) {
    try {
      StopPipeline();
    } catch (...) {
    }
  }
  // A fleet destroyed without Drain() must still hand its tap references
  // back — the shared extractor outlives the session, and a leaked deep
  // tap would tax every later user of it. No tail drain here: the sinks'
  // owners may already be gone.
  for (auto& s : streams_) {
    for (auto& tenant : s->tenants) fx_.ReleaseTap(tenant->mc->config().tap);
  }
  if (xcam_ != nullptr) fx_.ReleaseTap(xcam_->tap);
}

EdgeFleet::Bucket& EdgeFleet::BucketFor(std::int64_t width,
                                        std::int64_t height) {
  for (auto& b : buckets_) {
    if (b->width == width && b->height == height) return *b;
  }
  auto b = std::make_unique<Bucket>();
  b->width = width;
  b->height = height;
  buckets_.push_back(std::move(b));
  return *buckets_.back();
}

StreamHandle EdgeFleet::FinishAddStream(std::unique_ptr<Stream> s) {
  FF_CHECK_MSG(!drained_, "cannot add a stream to a drained fleet");
  // Heterogeneous geometries are welcome (each WxH gets its own batch
  // bucket); what stays a loud error is a stream that declares no usable
  // geometry at all — the bucket's staging tensor needs real dimensions.
  FF_CHECK_MSG(s->width > 0 && s->height > 0,
               "stream " << next_stream_ << " declares invalid geometry "
                         << s->width << "x" << s->height
                         << " — set StreamConfig.frame_width/frame_height or "
                            "implement FrameSource::width()/height()");
  FF_CHECK_MSG(s->fps > 0, "stream " << next_stream_
                                     << " declares invalid fps " << s->fps);
  s->bucket = &BucketFor(s->width, s->height);
  if (cfg_.enable_upload) {
    codec::EncoderConfig ec;
    ec.width = s->width;
    ec.height = s->height;
    ec.fps = s->fps;
    ec.target_bitrate_bps = cfg_.upload_bitrate_bps;
    s->uplink = std::make_unique<codec::Encoder>(ec);
  }
  if (archiving_enabled()) {
    EdgeStoreConfig sc;
    sc.capacity_frames = cfg_.edge_store_capacity;
    sc.budget_bytes = cfg_.archive_budget_bytes;
    sc.gop = cfg_.archive_gop;
    sc.bitrate_bps = kArchiveBitrateBps;
    sc.fps = s->fps;
    sc.segment_frames = cfg_.archive_segment_frames;
    sc.fsync_each_append = kArchiveFsync;
    if (!cfg_.archive_dir.empty()) {
      sc.dir = cfg_.archive_dir + "/stream-" + std::to_string(next_stream_);
    }
    s->store = std::make_shared<EdgeStore>(sc);
  }
  s->handle = next_stream_++;
  const bool member = xcam_ != nullptr && xcam_->topology.Contains(s->handle);
  if (member) {
    s->in_topology = true;
    s->bg = std::make_unique<xcam::BackgroundModel>();
  }
  s->latency = util::WindowedStat(kLatencyWindow);
  streams_.push_back(std::move(s));
  if (member) ElectLeads();
  // A pipelined fleet has a new stream to service.
  driver_cv_.notify_all();
  return streams_.back()->handle;
}

StreamHandle EdgeFleet::AddStream(video::FrameSource& source,
                                  StreamConfig scfg) {
  const auto lock = Lock();
  auto s = std::make_unique<Stream>();
  s->source = &source;
  s->width = scfg.frame_width > 0 ? scfg.frame_width : source.width();
  s->height = scfg.frame_height > 0 ? scfg.frame_height : source.height();
  s->fps = scfg.fps > 0 ? scfg.fps : (source.fps() > 0 ? source.fps() : 15);
  s->priority = scfg.priority;
  return FinishAddStream(std::move(s));
}

StreamHandle EdgeFleet::AddStream(StreamConfig scfg) {
  const auto lock = Lock();
  auto s = std::make_unique<Stream>();
  FF_CHECK_MSG(scfg.frame_width > 0 && scfg.frame_height > 0,
               "a push-driven stream needs explicit StreamConfig geometry");
  s->width = scfg.frame_width;
  s->height = scfg.frame_height;
  s->fps = scfg.fps > 0 ? scfg.fps : 15;
  s->priority = scfg.priority;
  return FinishAddStream(std::move(s));
}

std::size_t EdgeFleet::StreamIndex(StreamHandle stream) const {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i]->handle == stream) return i;
  }
  FF_CHECK_MSG(false, "no stream with handle " << stream);
  return 0;  // unreachable; FF_CHECK_MSG(false, ...) throws
}

EdgeFleet::Stream* EdgeFleet::FindStream(StreamHandle stream) const {
  for (const auto& s : streams_) {
    if (s->handle == stream) return s.get();
  }
  return nullptr;
}

bool EdgeFleet::HasStream(StreamHandle stream) const {
  const auto lock = Lock();
  return FindStream(stream) != nullptr;
}

std::size_t EdgeFleet::n_streams() const {
  const auto lock = Lock();
  return streams_.size();
}

void EdgeFleet::DrainStream(Stream& s) {
  for (auto& tenant : s.tenants) {
    DrainTenantTail(s, *tenant);
    fx_.ReleaseTap(tenant->mc->config().tap);
  }
  s.tenants.clear();
  FinalizeReadyFrames(s);
  FF_CHECK(s.pending.empty());
  PruneSigRing(s);
  // The tail drain may have closed events; once the LAST topology stream
  // drains this Finish()es the correlator and resolves every deferred
  // upload.
  XcamPump();
}

void EdgeFleet::RemoveStream(StreamHandle stream) {
  auto lock = Lock();
  // The pipeline driver may be inside this stream's source->Next(); the
  // handle — and with it the caller's source-outlives-stream guarantee —
  // cannot die under it. Re-resolve after every wait (the wait drops mu_).
  for (;;) {
    Stream* s = FindStream(stream);
    FF_CHECK_MSG(s != nullptr, "no stream with handle " << stream);
    if (!s->pulling) break;
    idle_cv_.wait(lock);
  }
  const SinkScope sinks(*this);
  const std::size_t idx = StreamIndex(stream);
  DrainStream(*streams_[idx]);
  if (xcam_ != nullptr && streams_[idx]->in_topology) {
    // Force verdicts for every pending group touching this stream (its
    // deferred uploads must resolve before the handle dies). Flushing may
    // also unblock siblings whose deferred frames fused into the same
    // groups — a missed dedupe at the churn boundary, never a lost clip.
    xcam_->correlator->FlushStream(stream);
    if (cfg_.enable_upload) {
      for (const auto& s : streams_) {
        if (s->in_topology) FlushDeferredUploads(*s);
      }
      FF_CHECK(streams_[idx]->deferred.empty());
    }
  }
  // The archive outlives the stream: a datacenter application can still
  // demand-fetch history from a camera that has since detached.
  if (streams_[idx]->store != nullptr) {
    retired_stores_.emplace_back(stream, streams_[idx]->store);
  }
  // Frames of this stream in a gather under way stop resolving and are
  // discarded at processing.
  const bool member = streams_[idx]->in_topology;
  streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(idx));
  if (member) ElectLeads();
}

McHandle EdgeFleet::Attach(StreamHandle stream, McSpec spec) {
  const auto lock = Lock();
  FF_CHECK_MSG(!drained_, "cannot attach to a drained fleet");
  FF_CHECK(spec.mc != nullptr);
  Stream& s = *streams_[StreamIndex(stream)];
  auto t = std::make_unique<Tenant>();
  t->handle = next_handle_++;
  t->mc = std::move(spec.mc);
  t->threshold = spec.threshold;
  t->smoother = KVotingSmoother(cfg_.vote_window, cfg_.vote_k);
  t->on_decision = std::move(spec.on_decision);
  t->on_event = std::move(spec.on_event);
  t->first_frame = s.frames_processed;
  // Reserve first so the push_back after RequestTap cannot throw — a throw
  // on either side of RequestTap must not leave a dangling tap reference.
  s.tenants.reserve(s.tenants.size() + 1);
  fx_.RequestTap(t->mc->config().tap);
  s.tenants.push_back(std::move(t));
  return s.tenants.back()->handle;
}

std::pair<EdgeFleet::Stream*, std::size_t> EdgeFleet::TenantRef(
    McHandle handle) const {
  for (const auto& s : streams_) {
    for (std::size_t i = 0; i < s->tenants.size(); ++i) {
      if (s->tenants[i]->handle == handle) return {s.get(), i};
    }
  }
  FF_CHECK_MSG(false, "no attached microclassifier with handle " << handle);
  return {nullptr, 0};  // unreachable; FF_CHECK_MSG(false, ...) throws
}

void EdgeFleet::Detach(McHandle handle) {
  const auto lock = Lock();
  const SinkScope sinks(*this);
  const auto [s, idx] = TenantRef(handle);
  Tenant& tenant = *s->tenants[idx];
  DrainTenantTail(*s, tenant);
  // Drop the tenant's tap reference: if it was the last reader of the
  // deepest tap, the base DNN stops earlier again from the next frame.
  fx_.ReleaseTap(tenant.mc->config().tap);
  s->tenants.erase(s->tenants.begin() + static_cast<std::ptrdiff_t>(idx));
  FinalizeReadyFrames(*s);
  PruneSigRing(*s);
  XcamPump();  // the tail drain may have closed (and observed) events
}

bool EdgeFleet::IsAttached(McHandle handle) const {
  const auto lock = Lock();
  for (const auto& s : streams_) {
    for (const auto& t : s->tenants) {
      if (t->handle == handle) return true;
    }
  }
  return false;
}

std::size_t EdgeFleet::n_mcs() const {
  const auto lock = Lock();
  std::size_t n = 0;
  for (const auto& s : streams_) n += s->tenants.size();
  return n;
}

const Microclassifier& EdgeFleet::mc(McHandle handle) const {
  const auto lock = Lock();
  const auto [s, idx] = TenantRef(handle);
  return *s->tenants[idx]->mc;
}

void EdgeFleet::SetUploadSink(UploadSink sink) {
  const auto lock = Lock();
  FF_CHECK_MSG(cfg_.enable_upload, "uploads are disabled in this fleet");
  upload_sink_ = std::move(sink);
}

void EdgeFleet::SetTopology(xcam::Topology topology,
                            xcam::CorrelatorConfig ccfg, std::string tap) {
  const auto lock = Lock();
  FF_CHECK_MSG(!drained_, "cannot arm xcam on a drained fleet");
  FF_CHECK_MSG(xcam_ == nullptr, "the fleet's topology is already set");
  FF_CHECK_MSG(!topology.empty(), "SetTopology needs a non-empty topology");
  // Signatures are background-subtracted from the stream's first frame on;
  // a member that already processed frames would correlate with a cold
  // background model and silently degrade matching. Refuse loudly.
  for (const auto& s : streams_) {
    if (topology.Contains(s->handle)) {
      FF_CHECK_MSG(s->frames_processed == 0,
                   "stream " << s->handle
                             << " already processed frames — set the "
                                "topology before stepping its members");
    }
  }
  auto plane = std::make_unique<XcamPlane>();
  plane->topology = std::move(topology);
  plane->tap = std::move(tap);
  // The plane holds its own tap reference for the fleet's lifetime, so the
  // pooled signature reads an activation the base DNN computes anyway.
  fx_.RequestTap(plane->tap);
  plane->correlator =
      std::make_unique<xcam::Correlator>(plane->topology, ccfg);
  plane->correlator->set_sink(
      [this](const xcam::CrossEventRecord& rec) { OnCrossEvent(rec); });
  xcam_ = std::move(plane);
  for (const auto& s : streams_) {
    if (xcam_->topology.Contains(s->handle)) {
      s->in_topology = true;
      s->bg = std::make_unique<xcam::BackgroundModel>();
    }
  }
  ElectLeads();
}

void EdgeFleet::SetCrossEventSink(CrossEventSink sink) {
  const auto lock = Lock();
  cross_event_sink_ = std::move(sink);
}

bool EdgeFleet::xcam_enabled() const {
  const auto lock = Lock();
  return xcam_ != nullptr;
}

xcam::Correlator::Stats EdgeFleet::xcam_stats() const {
  const auto lock = Lock();
  FF_CHECK_MSG(xcam_ != nullptr, "no topology set (SetTopology first)");
  return xcam_->correlator->stats();
}

std::int64_t EdgeFleet::frames_suppressed() const {
  const auto lock = Lock();
  std::int64_t n = 0;
  for (const auto& s : streams_) n += s->frames_suppressed;
  return n;
}

std::int64_t EdgeFleet::frames_suppressed(StreamHandle stream) const {
  const auto lock = Lock();
  return streams_[StreamIndex(stream)]->frames_suppressed;
}

void EdgeFleet::ValidateFrame(const Stream& s,
                              const video::Frame& frame) const {
  // Name the offending stream and BOTH geometries: with heterogeneous
  // buckets the common mistake is pushing camera A's frames onto camera
  // B's handle, and "size mismatch" alone does not say which wall segment
  // misbehaved.
  FF_CHECK_MSG(frame.width() == s.width && frame.height() == s.height,
               "stream " << s.handle << " is registered as " << s.width << "x"
                         << s.height << " but received a " << frame.width()
                         << "x" << frame.height()
                         << " frame — a stream's frames must match its "
                            "declared geometry (streams of another size can "
                            "join the same fleet as their own bucket via "
                            "AddStream)");
}

bool EdgeFleet::CanEscalate(const Stream& s) const {
  // Shed strictly lowest-priority-first: `s` may only decimate harder once
  // every live stream BELOW it is already fully decimated. Equal-priority
  // streams never gate each other (they degrade together).
  for (const auto& other : streams_) {
    if (other->priority < s.priority &&
        other->keep_every < cfg_.max_keep_every)
      return false;
  }
  return true;
}

bool EdgeFleet::AdmitFrame(Stream& s, video::Frame& frame) {
  ++s.frames_offered;
  const std::int64_t now = clock_->NowNs();
  // Stamp the arrival time when the source carries no capture timestamp —
  // from here on the frame's age is well-defined on the fleet's clock.
  if (frame.capture_ts_ns < 0) frame.capture_ts_ns = now;
  if (!overload_enabled()) return true;

  const double age_ms =
      static_cast<double>(now - frame.capture_ts_ns) / 1e6;
  const bool breach =
      (cfg_.slo_ms > 0 && age_ms > cfg_.slo_ms) ||
      (cfg_.shed_queue_depth > 0 &&
       static_cast<std::int64_t>(s.queue.size()) >= cfg_.shed_queue_depth);
  if (breach) {
    s.ok_streak = 0;
    if (++s.breach_streak >= cfg_.shed_breach_frames) {
      s.breach_streak = 0;
      if (s.keep_every < cfg_.max_keep_every && CanEscalate(s)) {
        ++s.keep_every;
      }
    }
  } else {
    s.breach_streak = 0;
    if (++s.ok_streak >= cfg_.shed_recover_frames) {
      s.ok_streak = 0;
      if (s.keep_every > 1) --s.keep_every;
    }
  }

  if (++s.since_kept >= s.keep_every) {
    s.since_kept = 0;
    // Bind the post-gap keyframe to THIS frame at admission: older frames
    // of the same stream may still be queued ahead of it, and they precede
    // the gap — the restart must land on the first frame after it.
    if (s.force_keyframe_next) {
      frame.force_keyframe = true;
      s.force_keyframe_next = false;
    }
    return true;
  }
  ++s.frames_shed;
  s.force_keyframe_next = true;
  return false;
}

EdgeFleet::Stream& EdgeFleet::PushTarget(StreamHandle stream,
                                         const video::Frame& frame) {
  FF_CHECK_MSG(!drained_, "cannot push to a drained fleet");
  Stream& s = *streams_[StreamIndex(stream)];
  ValidateFrame(s, frame);
  return s;
}

void EdgeFleet::Push(StreamHandle stream, const video::Frame& frame) {
  Push(stream, video::Frame(frame));
}

void EdgeFleet::Push(StreamHandle stream, video::Frame&& frame) {
  const auto lock = Lock();
  Stream& s = PushTarget(stream, frame);
  // Admission first: a shed frame vanishes here, quietly — in particular a
  // full queue is exactly when the controller sheds, and shedding must not
  // trip the queue-full error an ADMITTED frame would still hit.
  if (!AdmitFrame(s, frame)) return;
  FF_CHECK_MSG(cfg_.queue_capacity == 0 ||
                   static_cast<std::int64_t>(s.queue.size()) <
                       cfg_.queue_capacity,
               "stream " << stream << " ingest queue is full ("
                         << cfg_.queue_capacity
                         << " frames): Step() the fleet before pushing more");
  s.queue.push_back(std::move(frame));
  s.queue_peak = std::max(s.queue_peak,
                          static_cast<std::int64_t>(s.queue.size()));
  driver_cv_.notify_all();
}

std::size_t EdgeFleet::queued_frames(StreamHandle stream) const {
  const auto lock = Lock();
  return streams_[StreamIndex(stream)]->queue.size();
}

void EdgeFleet::DeliverScore(Stream& s, Tenant& tenant, float score) {
  const bool raw = score >= tenant.threshold;
  tenant.undecided.emplace_back(score, raw);
  ++tenant.scored;
  if (const auto decision = tenant.smoother.Push(raw)) {
    NotifyDecision(s, tenant, *decision);
  }
}

void EdgeFleet::DeliverClosedEvent(Stream& s, Tenant& tenant,
                                   const EventRecord& ev) {
  // Detector frames are tenant-local; report stream frame indices.
  EventRecord global = ev;
  global.stream = s.handle;
  global.mc = tenant.mc->name();
  global.begin += tenant.first_frame;
  global.end += tenant.first_frame;
  // Capture-time bounds: first/last positive frame, tracked as decisions
  // were delivered (NotifyDecision).
  global.begin_ts_ns = tenant.open_begin_ts;
  global.end_ts_ns = tenant.open_last_ts;
  if (s.in_topology && xcam_ != nullptr) {
    xcam::ObservedEvent oe;
    oe.event = global;
    oe.signature = tenant.xacc.Normalized();
    oe.peak_score = tenant.open_peak;
    oe.priority = s.priority;
    xcam_->correlator->Observe(std::move(oe));
  }
  tenant.xacc.Reset();
  tenant.open_begin_ts = -1;
  tenant.open_last_ts = -1;
  tenant.open_peak = 0.0f;
  if (tenant.on_event) tenant.on_event(global);
}

void EdgeFleet::NotifyDecision(Stream& s, Tenant& tenant, bool positive) {
  const auto closed = tenant.detector.Push(positive);
  const std::int64_t frame_index = tenant.first_frame + tenant.decided;
  // Capture ts (and, for topology members, the pooled signature) of the
  // frame this decision refers to. A decision can lag the frame by the
  // vote/window delay; the ring holds exactly the undecided span.
  const Stream::SigEntry& se = SigAt(s, frame_index);
  tenant.last_decided_ts = se.ts_ns;

  FF_CHECK(!tenant.undecided.empty());
  McDecision d;
  d.handle = tenant.handle;
  d.stream = s.handle;
  d.frame_index = frame_index;
  d.score = tenant.undecided.front().first;
  d.raw = tenant.undecided.front().second;
  d.decision = positive;
  d.event_id = positive ? tenant.detector.last_state().event_id : -1;
  tenant.undecided.pop_front();
  ++tenant.decided;
  if (tenant.on_decision) tenant.on_decision(d);
  if (closed) DeliverClosedEvent(s, tenant, *closed);
  if (positive) {
    // A positive never closes an event (closures ride negatives/Finish),
    // so these trackers always describe the event this frame extends.
    if (tenant.open_begin_ts < 0) tenant.open_begin_ts = se.ts_ns;
    tenant.open_last_ts = se.ts_ns;
    tenant.open_peak = std::max(tenant.open_peak, d.score);
    if (s.in_topology && se.sig != nullptr) tenant.xacc.Add(*se.sig);
  }

  if (!cfg_.enable_upload) return;
  const auto slot = static_cast<std::size_t>(frame_index - s.pending_base);
  FF_CHECK_LT(slot, s.pending.size());
  PendingFrame& pf = s.pending[slot];
  ++pf.decided;
  if (positive) {
    pf.any_positive = true;
    pf.memberships.emplace_back(tenant.mc->name(), d.event_id);
  }
}

void EdgeFleet::ShipUpload(Stream& s, std::int64_t index,
                           const video::Frame& frame,
                           std::vector<std::pair<std::string, std::int64_t>>
                               memberships) {
  upload_timer_.Start();
  // Restart prediction when the previous uploaded frame is not the
  // temporal predecessor of this one.
  const bool force_i = index != s.last_uploaded + 1;
  std::string chunk = s.uplink->EncodeFrame(frame, force_i);
  upload_timer_.Stop();
  s.last_uploaded = index;
  ++s.frames_uploaded;
  SendUpload(s, index, false, std::move(chunk), std::move(memberships));
}

void EdgeFleet::SendUpload(const Stream& s, std::int64_t index,
                           bool tombstone, std::string chunk,
                           std::vector<std::pair<std::string, std::int64_t>>
                               memberships) {
  if (!upload_sink_) return;
  UploadPacket packet;
  packet.stream = s.handle;
  packet.frame_index = index;
  packet.frame_width = s.width;
  packet.frame_height = s.height;
  packet.tombstone = tombstone;
  packet.chunk = std::move(chunk);
  packet.metadata.frame_index = index;
  packet.metadata.memberships = std::move(memberships);
  upload_sink_(packet);
}

void EdgeFleet::FinalizeReadyFrames(Stream& s) {
  if (!cfg_.enable_upload) return;
  while (!s.pending.empty() &&
         s.pending.front().decided == s.pending.front().needed) {
    PendingFrame& pf = s.pending.front();
    const std::int64_t index = s.pending_base;
    if (pf.any_positive) {
      if (s.in_topology && xcam_ != nullptr &&
          !(s.xcam_lead && s.deferred.empty())) {
        // Non-lead topology member: the frame's upload-or-tombstone verdict
        // arrives once the correlator finalizes every event it belongs to.
        // A lead is canonical in every group it joins, so it ships as it
        // decides once any backlog from before its promotion has drained
        // (uploads stay in frame order). Streams outside the topology take
        // the same immediate branch — their upload byte stream is
        // untouched by the plane.
        Stream::DeferredUpload d;
        d.frame = std::move(pf.frame);
        d.index = index;
        d.memberships = std::move(pf.memberships);
        s.deferred.push_back(std::move(d));
      } else {
        ShipUpload(s, index, pf.frame, std::move(pf.memberships));
        PruneVerdicts(s, index);
      }
    }
    s.pending.pop_front();
    ++s.pending_base;
  }
}

void EdgeFleet::FlushDeferredUploads(Stream& s) {
  while (!s.deferred.empty()) {
    Stream::DeferredUpload& d = s.deferred.front();
    bool all_decided = true;
    bool upload = false;
    for (const auto& m : d.memberships) {
      const auto it = s.xverdicts.find(m);
      if (it == s.xverdicts.end()) {
        all_decided = false;
        break;
      }
      // Ship the clip frame if ANY of its events kept this stream as the
      // canonical (or unmatched) view.
      if (!it->second.first) upload = true;
    }
    if (!all_decided) break;  // later frames wait too (uploads are in order)
    if (upload) {
      ShipUpload(s, d.index, d.frame, std::move(d.memberships));
    } else {
      // Every event this frame belongs to was fused under another stream's
      // canonical view: ship a metadata-only tombstone. The frame is never
      // encoded (the next real upload restarts with an I-frame because its
      // index is non-contiguous) and the full clip stays in the edge
      // archive, demand-fetchable.
      ++s.frames_suppressed;
      SendUpload(s, d.index, true, {}, std::move(d.memberships));
    }
    PruneVerdicts(s, d.index);
    s.deferred.pop_front();
  }
}

void EdgeFleet::PruneVerdicts(Stream& s, std::int64_t index) {
  // Verdicts for events that ended at or before frame `index` can never be
  // referenced by a later frame; drop them so the map stays bounded by the
  // open-event set.
  for (auto it = s.xverdicts.begin(); it != s.xverdicts.end();) {
    if (it->second.second <= index + 1) {
      it = s.xverdicts.erase(it);
    } else {
      ++it;
    }
  }
}

const EdgeFleet::Stream::SigEntry& EdgeFleet::SigAt(
    const Stream& s, std::int64_t frame_index) const {
  const std::int64_t off = frame_index - s.sig_ring_base;
  FF_CHECK_MSG(off >= 0 &&
                   off < static_cast<std::int64_t>(s.sig_ring.size()),
               "stream " << s.handle << " has no ring entry for frame "
                         << frame_index);
  return s.sig_ring[static_cast<std::size_t>(off)];
}

void EdgeFleet::PruneSigRing(Stream& s) {
  // Entries below every tenant's decision cursor can never be consulted
  // again; the ring stays bounded by the largest tenant decision lag.
  std::int64_t min_needed = s.frames_processed;
  for (const auto& t : s.tenants) {
    min_needed = std::min(min_needed, t->first_frame + t->decided);
  }
  while (!s.sig_ring.empty() && s.sig_ring_base < min_needed) {
    s.sig_ring.pop_front();
    ++s.sig_ring_base;
  }
}

void EdgeFleet::OnCrossEvent(const xcam::CrossEventRecord& rec) {
  if (cfg_.enable_upload) {
    for (std::size_t i = 0; i < rec.members.size(); ++i) {
      const xcam::CrossMember& m = rec.members[i];
      Stream* s = FindStream(m.stream);
      // Keep a verdict only while a frame of the event may still defer:
      // one is queued, or the event has frames not yet finalized (a lead
      // demoted before they finalize defers them). A lead that shipped the
      // whole event directly needs none, and nothing would prune it.
      if (s != nullptr && (!s->deferred.empty() || m.end > s->pending_base)) {
        s->xverdicts[{m.mc, m.event_id}] = {
            static_cast<std::int64_t>(i) != rec.canonical, m.end};
      }
    }
  }
  if (cross_event_sink_) cross_event_sink_(rec);
}

void EdgeFleet::ElectLeads() {
  std::map<StreamHandle, std::int64_t> live;  // member handle -> priority
  for (const auto& s : streams_) {
    if (s->in_topology) live.emplace(s->handle, s->priority);
  }
  const std::vector<StreamHandle> leads =
      xcam::ComponentLeads(xcam_->topology, live);
  for (const auto& s : streams_) {
    s->xcam_lead = std::binary_search(leads.begin(), leads.end(), s->handle);
  }
}

void EdgeFleet::XcamPump() {
  if (xcam_ == nullptr) return;
  // Watermark: no topology tenant can ever again close an event whose
  // begin_ts precedes its open event's begin (an open event closes at or
  // after where it began) or, with nothing open, its last decided frame's
  // capture ts (per-stream capture time is monotone).
  bool contributors = false;
  std::int64_t wm = std::numeric_limits<std::int64_t>::max();
  for (const auto& s : streams_) {
    if (!s->in_topology) continue;
    for (const auto& t : s->tenants) {
      contributors = true;
      wm = std::min(wm, t->open_begin_ts >= 0 ? t->open_begin_ts
                                              : t->last_decided_ts);
    }
  }
  if (contributors) {
    // min() means some tenant has not decided a frame yet — it may still
    // observe arbitrarily early events, so the watermark cannot move.
    if (wm > std::numeric_limits<std::int64_t>::min()) {
      xcam_->correlator->AdvanceWatermark(wm);
    }
  } else {
    xcam_->correlator->Finish();
  }
  if (cfg_.enable_upload) {
    for (const auto& s : streams_) {
      if (s->in_topology) FlushDeferredUploads(*s);
    }
  }
}

bool EdgeFleet::AnyFrameReady() const {
  for (const auto& s : streams_) {
    if (!s->queue.empty() || (s->source != nullptr && !s->source_done)) {
      return true;
    }
  }
  return false;
}

void EdgeFleet::PullFrames(const std::vector<Pull*>& pulls,
                           std::unique_lock<std::mutex>* io_lock) {
  if (pulls.empty()) return;
  // Decode outside the lock, so Push/churn/stats callers are not held up by
  // it. The pulling flags keep RemoveStream from invalidating a stream (and
  // the caller's source) mid-call; other streams may be removed meanwhile
  // (RunTurn re-resolves its members).
  if (io_lock != nullptr) {
    for (Pull* p : pulls) p->stream->pulling = true;
    io_lock->unlock();
  }
  const auto pull = [&](std::size_t i) {
    Pull& p = *pulls[i];
    try {
      p.frame = p.source->Next();
    } catch (...) {
      p.error = std::current_exception();
    }
    if (io_lock == nullptr) return;  // Step(): the caller holds mu_
    // Release this stream at once, not at the end of the round: a
    // RemoveStream of it must not wait behind a sibling's blocked Next().
    const std::lock_guard<std::mutex> lock(mu_);
    p.stream->pulling = false;
    if (p.frame) ++in_flight_;
    idle_cv_.notify_all();
  };
  // One task per source; a single pull runs inline.
  util::GlobalPool().ParallelFor(pulls.size(), pull);
  if (io_lock != nullptr) {
    io_lock->lock();
  } else {
    for (const Pull* p : pulls) in_flight_ += p->frame ? 1 : 0;
  }
}

EdgeFleet::Attempt EdgeFleet::StageFrame(
    Stream& s, StagedBatch& batch, std::int64_t cap,
    std::unique_lock<std::mutex>* io_lock, std::optional<video::Frame>* pulled) {
  video::Frame frame;
  if (pulled == nullptr) {
    // Queued frames passed admission at Push; never re-admit.
    if (s.queue.empty()) return Attempt::kMiss;
    frame = std::move(s.queue.front());
    s.queue.pop_front();
    ++in_flight_;
  } else {
    if (!*pulled) {
      s.source_done = true;
      return Attempt::kMiss;
    }
    // Validate and admit BEFORE the stop check: a misreporting source
    // must stay loud even at stop (the throw surfaces at StopPipeline
    // like any pipeline error), and the shed schedule must not depend on
    // when StopPipeline happened to land.
    ValidateFrame(s, **pulled);  // sources may misreport their metadata
    const bool admitted = AdmitFrame(s, **pulled);
    if (io_lock != nullptr && pipeline_stop_) {
      // Keep an ADMITTED decoded frame for the next Step or pipeline
      // restart, at the queue front (every queued frame is post-admission,
      // so only admitted frames may be restaged).
      if (admitted) s.queue.push_front(std::move(**pulled));
      --in_flight_;
      return Attempt::kMiss;
    }
    if (!admitted) {
      // A shed frame vanishes before staging; the cursor's next visit
      // pulls the source again.
      --in_flight_;
      return Attempt::kShed;
    }
    frame = std::move(**pulled);
  }
  nn::Tensor& staging = batch.bucket->staging;
  // Reallocate only when the batch width grows; a wider tensor serves a
  // narrower batch through TensorView::Prefix.
  if (batch.entries.empty() && (staging.empty() || staging.shape().n < cap)) {
    staging = nn::Tensor(nn::Shape{cap, 3, batch.bucket->height,
                                   batch.bucket->width});
  }
  batch.entries.push_back(StagedEntry{s.handle, std::move(frame)});
  const video::Frame& f = batch.entries.back().frame;
  const auto image = static_cast<std::int64_t>(batch.entries.size()) - 1;
  // The driver preprocesses outside the lock: the batch and its bucket's
  // staging tensor are private to the turn.
  if (io_lock != nullptr) io_lock->unlock();
  dnn::PreprocessRgbInto(staging, image, f.r(), f.g(), f.b());
  if (io_lock != nullptr) io_lock->lock();
  return Attempt::kStaged;
}

std::int64_t EdgeFleet::ProcessStaged(StagedBatch& batch) {
  struct Item {
    Stream* stream = nullptr;
    std::int64_t image = -1;      // entry index = staging / feature-map image
    std::int64_t ingest_ns = -1;  // capture timestamp (latency stats)
    std::vector<float> scores;    // one per tenant of `stream`
  };
  // Resolve handles to live streams; a stream removed while its frames
  // were staged stops resolving and those frames are discarded (the same
  // contract as frames still queued at RemoveStream).
  std::vector<Item> items;
  items.reserve(batch.entries.size());
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    if (Stream* s = FindStream(batch.entries[i].stream)) {
      items.push_back(Item{s, static_cast<std::int64_t>(i),
                           batch.entries[i].frame.capture_ts_ns, {}});
    }
  }
  if (items.empty()) return 0;
  const SinkScope sinks(*this);

  // Bookkeeping for the whole batch up front (as the single-node path
  // did): the tenant set cannot change mid-batch, so every frame sees the
  // same `needed` count it would have seen frame-at-a-time.
  for (Item& it : items) {
    Stream& s = *it.stream;
    StagedEntry& e = batch.entries[static_cast<std::size_t>(it.image)];
    if (cfg_.enable_upload) {
      if (s.tenants.empty()) {
        // No tenant live on this stream: the frame can never match.
        // Finalize it trivially instead of buffering it.
        FF_CHECK(s.pending.empty());
        ++s.pending_base;
      } else {
        PendingFrame pf;
        // The frame moves into the pending buffer (its pixels already live
        // in the staging tensor) — or is copied when the archive tail below
        // still needs it.
        if (s.store != nullptr) {
          pf.frame = e.frame;
        } else {
          pf.frame = std::move(e.frame);
        }
        pf.needed = s.tenants.size();
        s.pending.push_back(std::move(pf));
      }
    }
  }

  // Phase 1: one shared base-DNN forward over the staged batch — images
  // from different streams side by side in the bucket's (N, 3, H, W)
  // staging tensor, handed over as a Prefix view so a partial batch never
  // reallocates. Skipped when no staged frame has a live tenant (frames of
  // tenantless streams ride along in a batch that does run).
  std::vector<Item*> active;
  std::vector<Stream*> active_streams;
  // Per-stream items of this batch, in stream order (parallel to
  // active_streams). Scratch, rebuilt every batch.
  std::vector<std::vector<Item*>> stream_items;
  for (Item& it : items) {
    if (it.stream->tenants.empty()) continue;
    active.push_back(&it);
    auto pos =
        std::find(active_streams.begin(), active_streams.end(), it.stream);
    if (pos == active_streams.end()) {
      active_streams.push_back(it.stream);
      stream_items.emplace_back();
      pos = active_streams.end() - 1;
    }
    stream_items[static_cast<std::size_t>(pos - active_streams.begin())]
        .push_back(&it);
    it.scores.resize(it.stream->tenants.size());
  }

  dnn::FeatureMaps fm;
  if (!active.empty()) {
    base_timer_.Start();
    fm = fx_.Extract(tensor::TensorView(batch.bucket->staging)
                         .Prefix(static_cast<std::int64_t>(
                             batch.entries.size())));
    base_timer_.Stop();
  }

  // Phase 2: MC inference fanned out across streams × tenants — one pool
  // task per (stream, tenant) pair (a lone task runs inline), each walking
  // its stream's images of this batch IN ORDER (windowed MCs are stateful;
  // per-tenant sequencing is what makes fleet decisions bitwise-equal to a
  // dedicated node). Tasks write disjoint score slots and read the shared
  // maps const, so they are data-race-free; kernel parallelism inside a
  // pooled MC degrades to serial (see util/thread_pool.hpp).
  if (!active.empty()) {
    struct McTask {
      std::size_t stream_slot = 0;  // into active_streams / stream_items
      std::size_t tenant = 0;
    };
    std::vector<McTask> tasks;
    for (std::size_t si = 0; si < active_streams.size(); ++si) {
      for (std::size_t t = 0; t < active_streams[si]->tenants.size(); ++t) {
        tasks.push_back({si, t});
      }
    }
    const auto run_task = [&](std::size_t ti) {
      const McTask& task = tasks[ti];
      Microclassifier& tenant_mc =
          *active_streams[task.stream_slot]->tenants[task.tenant]->mc;
      for (Item* it : stream_items[task.stream_slot]) {
        it->scores[task.tenant] = tenant_mc.Infer(fm, it->image);
      }
    };
    mc_timer_.Start();
    util::GlobalPool().ParallelFor(tasks.size(), run_task);
    mc_timer_.Stop();
  }

  // xcam: the tap the pooled signatures read. Resolved once per batch; the
  // plane holds its own tap reference, so the extract above computed it.
  const nn::Tensor* xcam_tap = nullptr;
  if (xcam_ != nullptr && !active.empty()) {
    const auto tap_it = fm.find(xcam_->tap);
    if (tap_it != fm.end()) xcam_tap = &tap_it->second;
  }

  // Phases 3-5 per frame, in batch order, on this thread (sinks fire
  // here). Streams are independent, so only the per-stream frame order —
  // which staging preserved — matters. One clock read serves the whole
  // batch's ingest→decision latency samples (frames of one batch complete
  // together, so per-frame reads would only measure the loop below).
  const std::int64_t batch_now = clock_->NowNs();
  for (Item& it : items) {
    Stream& s = *it.stream;
    const double latency_ms =
        std::max(0.0, static_cast<double>(batch_now - it.ingest_ns) / 1e6);
    s.latency.Add(latency_ms);
    fleet_latency_.Add(latency_ms);
    if (!s.tenants.empty()) {
      // Capture ts (+ pooled tap signature for topology members) of this
      // frame, consulted when its decisions finalize. The batched-extract
      // bitwise guarantee (image n of a batch ≡ a batch-1 extract of frame
      // n) makes the pooled vector independent of batch composition, so
      // signatures are identical between the sync and pipelined schedules.
      Stream::SigEntry se;
      se.ts_ns = it.ingest_ns;
      if (s.in_topology && xcam_ != nullptr) {
        FF_CHECK(xcam_tap != nullptr);
        se.sig = std::make_shared<const std::vector<float>>(
            s.bg->Update(xcam::PoolSpatial(*xcam_tap, it.image)));
      }
      if (s.sig_ring.empty()) s.sig_ring_base = s.frames_processed;
      s.sig_ring.push_back(std::move(se));
      smooth_timer_.Start();
      for (std::size_t t = 0; t < s.tenants.size(); ++t) {
        Tenant& tenant = *s.tenants[t];
        // A windowed MC's output at time t refers to frame t - delay; its
        // first `delay` outputs precede the tenant's first live frame and
        // are dropped.
        const std::int64_t local_t = s.frames_processed - tenant.first_frame;
        if (local_t - tenant.mc->DecisionDelay() >= 0) {
          DeliverScore(s, tenant, it.scores[t]);
        }
      }
      smooth_timer_.Stop();
    }
    FinalizeReadyFrames(s);
    PruneSigRing(s);
    ++s.frames_processed;
    ++batch.bucket->frames;
  }

  // Retain each active stream's final maps (owning, batch-1) for
  // windowed-MC tail padding at Detach/RemoveStream/Drain. A single-image
  // batch moves the maps instead of slicing (the frame-at-a-time path pays
  // no copy).
  if (!active.empty()) {
    if (batch.entries.size() == 1) {
      active_streams[0]->last_fm = std::move(fm);
    } else {
      for (std::size_t si = 0; si < active_streams.size(); ++si) {
        const Item* last = stream_items[si].back();
        dnn::FeatureMaps lf;
        for (const auto& [tap, act] : fm) {
          lf.emplace(tap, act.Slice(last->image));
        }
        active_streams[si]->last_fm = std::move(lf);
      }
    }
  }

  // Cross-camera plane: advance the correlator watermark from this batch's
  // decision progress and resolve deferred uploads whose verdicts arrived.
  // One null test when the plane is off.
  XcamPump();

  ++batches_run_;
  ++batch.bucket->batches;

  // Archive tail, after every sink of the batch has fired, so the encode
  // and disk append stay off this batch's decision latency. Per-stream
  // append order is batch order in both schedules. The first kept frame
  // after a shed gap restarts archival prediction (the gap's frames were
  // never encoded); AdmitFrame stamped the flag onto that frame, so it
  // lands on exactly one append in FIFO order.
  for (const Item& it : items) {
    if (it.stream->store == nullptr) continue;
    const video::Frame& f =
        batch.entries[static_cast<std::size_t>(it.image)].frame;
    it.stream->store->Archive(f, f.capture_ts_ns, f.force_keyframe);
  }
  return static_cast<std::int64_t>(items.size());
}

std::int64_t EdgeFleet::RunTurn(std::int64_t cap,
                                std::unique_lock<std::mutex>* io_lock) {
  // One batch serves one geometry: try each bucket round-robin and process
  // the first that yields a frame.
  const std::size_t nb = buckets_.size();
  for (std::size_t k = 0; k < nb; ++k) {
    Bucket& b = *buckets_[(bucket_rr_ + k) % nb];
    // Handles, not pointers: the gather may drop the lock, and a member
    // other than the one being pulled can be removed meanwhile.
    std::vector<StreamHandle> members;
    for (const auto& s : streams_) {
      if (s->bucket == &b) members.push_back(s->handle);
    }
    if (members.empty()) continue;
    // Gather round-robin across the bucket's live streams: one frame per
    // stream per cycle, continuing around until the batch is full or a
    // whole cycle yields nothing. With >= cap streams ready, each
    // contributes one frame; with fewer, their queues fill the remaining
    // width — the per-stream buffering depth is ~cap / live_streams. A
    // frame shed at admission stages nothing, but its stream had one
    // ready: the miss run restarts, and the cursor's next visit pulls that
    // source again (the decimator keeps every k-th OFFERED frame).
    //
    // The attempts run in rounds of the next `width` members in cursor
    // order, sized so a one-at-a-time loop would make every one of them
    // (the batch cannot fill and the misses cannot reach n before the
    // round's last attempt) and no stream appears twice. Every attempt
    // that needs its source is pulled concurrently; then, in attempt
    // order, each is settled as that loop would settle it, so queue order,
    // batch order and admission order match a one-at-a-time gather.
    StagedBatch batch;
    batch.bucket = &b;
    const std::size_t n = members.size();
    std::size_t idx = b.rr % n;
    std::size_t misses = 0;  // consecutive attempts with nothing ready
    std::vector<Pull> round;    // the attempts, in cursor order
    std::size_t unsettled = 0;  // first attempt of `round` not yet settled
    const auto stopping = [&] { return io_lock != nullptr && pipeline_stop_; };
    try {
      while (static_cast<std::int64_t>(batch.entries.size()) < cap &&
             misses < n && !stopping()) {
        const std::size_t width = std::min(
            static_cast<std::size_t>(cap) - batch.entries.size(), n - misses);
        round.assign(width, Pull{});
        unsettled = width;  // nothing pulled yet
        std::vector<Pull*> pulls;
        for (Pull& p : round) {
          p.handle = members[idx];
          idx = (idx + 1) % n;
          Stream* s = FindStream(p.handle);
          if (s != nullptr && s->queue.empty() && s->source != nullptr &&
              !s->source_done) {
            p.stream = s;
            p.source = s->source;
            pulls.push_back(&p);
          }
        }
        PullFrames(pulls, io_lock);
        for (std::size_t i = 0; i < width; ++i) {
          unsettled = i + 1;
          Pull& p = round[i];
          if (p.error) std::rethrow_exception(p.error);
          Stream* s = FindStream(p.handle);
          const bool was_pulled = p.source != nullptr;
          Attempt a = Attempt::kMiss;
          if (s == nullptr) {
            // Removed while the lock was down: its frame goes with it.
            if (p.frame) --in_flight_;
          } else if (was_pulled || !stopping()) {
            // After a stop, a pulled frame is still settled (StageFrame
            // restages it); no queued frame is taken.
            a = StageFrame(*s, batch, cap, io_lock,
                           was_pulled ? &p.frame : nullptr);
          }
          misses = a == Attempt::kMiss ? misses + 1 : 0;
        }
      }
    } catch (...) {
      // One stream's source misbehaved (e.g. a mismatched frame): the loud
      // failure must not silently eat a frame of anyone's decision stream.
      // Frames the round pulled for later attempts go back to their queue
      // fronts, admitted as settling would have admitted them (a
      // frame contradicting its stream's geometry is dropped: the first
      // error in attempt order is the one that surfaces). Then reverse
      // batch order restores each queue's front-to-back order; frames of a
      // stream removed meanwhile are dropped, like its queue.
      for (std::size_t i = unsettled; i < round.size(); ++i) {
        Pull& p = round[i];
        Stream* s = FindStream(p.handle);
        if (s == nullptr || p.source == nullptr || p.error) continue;
        if (!p.frame) {
          s->source_done = true;
        } else if (p.frame->width() == s->width &&
                   p.frame->height() == s->height &&
                   AdmitFrame(*s, *p.frame)) {
          s->queue.push_front(std::move(*p.frame));
        }
      }
      in_flight_ = 0;
      for (auto it = batch.entries.rbegin(); it != batch.entries.rend();
           ++it) {
        if (Stream* s = FindStream(it->stream)) {
          s->queue.push_front(std::move(it->frame));
        }
      }
      throw;
    }
    in_flight_ = 0;
    b.rr = idx;  // the next gather resumes where this one stopped
    if (batch.entries.empty()) continue;
    bucket_rr_ = (bucket_rr_ + k + 1) % nb;
    return ProcessStaged(batch);
  }
  return 0;
}

std::int64_t EdgeFleet::Step(std::int64_t max_frames) {
  const auto lock = Lock();
  FF_CHECK_MSG(!drained_, "cannot step a drained fleet");
  FF_CHECK_MSG(!pipeline_active_,
               "Step() is the synchronous schedule; StopPipeline() first");
  return RunTurn(max_frames > 0 ? max_frames : cfg_.max_batch, nullptr);
}

// --- Pipelined schedule ------------------------------------------------------

void EdgeFleet::DriverThreadMain() {
  try {
    std::unique_lock<std::mutex> lock(mu_);
    while (!pipeline_stop_) {
      RunTurn(cfg_.max_batch, &lock);
      // Park only while no stream has a frame ready, checked under the lock:
      // work that arrived while the turn had the lock dropped is seen here,
      // and later work notifies the wait. The turn's return value is no
      // guide — it reads 0 when every frame it gathered belonged to a
      // stream removed mid-gather, with siblings still busy.
      const auto wake = [&] { return pipeline_stop_ || AnyFrameReady(); };
      if (wake()) continue;
      driver_idle_ = true;
      idle_cv_.notify_all();
      driver_cv_.wait(lock, wake);
      driver_idle_ = false;
    }
  } catch (...) {
    // The turn's lock is gone with the try block; StopPipeline() rethrows.
    std::lock_guard<std::mutex> lock(mu_);
    pipeline_error_ = std::current_exception();
    pipeline_stop_ = true;
    idle_cv_.notify_all();
  }
}

void EdgeFleet::StartPipeline() {
  const auto lock = Lock();
  FF_CHECK_MSG(!drained_, "cannot start a pipeline on a drained fleet");
  FF_CHECK_MSG(!pipeline_active_, "pipeline already running");
  pipeline_stop_ = false;
  driver_idle_ = false;
  pipeline_error_ = nullptr;
  pipeline_active_ = true;
  driver_thread_ = std::thread(&EdgeFleet::DriverThreadMain, this);
}

void EdgeFleet::StopPipeline() {
  auto lock = Lock();
  FF_CHECK_MSG(pipeline_active_, "no pipeline is running");
  pipeline_stop_ = true;
  driver_cv_.notify_all();
  lock.unlock();
  // The driver finishes the turn it is in — the batch it gathered is
  // processed (clean drain-on-stop) — and exits.
  driver_thread_.join();

  lock.lock();
  pipeline_active_ = false;
  const std::exception_ptr err = pipeline_error_;
  pipeline_error_ = nullptr;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

bool EdgeFleet::pipeline_active() const {
  const auto lock = Lock();
  return pipeline_active_;
}

void EdgeFleet::WaitPipelineIdle() {
  auto lock = Lock();
  FF_CHECK_MSG(pipeline_active_, "no pipeline is running");
  idle_cv_.wait(lock, [&] {
    if (pipeline_error_) return true;  // StopPipeline() rethrows it
    return driver_idle_ && !AnyFrameReady();
  });
}

std::int64_t EdgeFleet::RunPipelined() {
  StartPipeline();
  WaitPipelineIdle();
  StopPipeline();
  Drain();
  return frames_processed();
}

void EdgeFleet::DrainTenantTail(Stream& s, Tenant& tenant) {
  const std::int64_t live = s.frames_processed - tenant.first_frame;
  // Tail-pad a windowed MC by replaying the final frame's features so its
  // last `delay` live frames receive scores (at most `delay` replays; fewer
  // when the tenant saw fewer frames than its delay).
  std::int64_t replay_budget = tenant.mc->DecisionDelay();
  while (tenant.scored < live) {
    FF_CHECK_GT(replay_budget--, 0);
    mc_timer_.Start();
    const float score = tenant.mc->Infer(s.last_fm);
    mc_timer_.Stop();
    DeliverScore(s, tenant, score);
  }
  FF_CHECK_EQ(tenant.scored, live);
  // Flush the K-voting tail, then close any open event.
  smooth_timer_.Start();
  for (const bool d : tenant.smoother.Flush()) NotifyDecision(s, tenant, d);
  if (const auto ev = tenant.detector.Finish()) {
    DeliverClosedEvent(s, tenant, ev.value());
  }
  smooth_timer_.Stop();
  FF_CHECK_EQ(tenant.decided, live);
  FF_CHECK(tenant.undecided.empty());
}

void EdgeFleet::Drain() {
  const auto lock = Lock();
  if (drained_) return;
  FF_CHECK_MSG(!pipeline_active_, "StopPipeline() before Drain()");
  drained_ = true;
  const SinkScope sinks(*this);
  for (auto& s : streams_) DrainStream(*s);
}

bool EdgeFleet::drained() const {
  const auto lock = Lock();
  return drained_;
}

std::int64_t EdgeFleet::Run() {
  while (Step() > 0) {
  }
  Drain();
  return frames_processed();
}

std::int64_t EdgeFleet::frames_processed() const {
  const auto lock = Lock();
  std::int64_t n = 0;
  for (const auto& s : streams_) n += s->frames_processed;
  return n;
}

std::int64_t EdgeFleet::frames_processed(StreamHandle stream) const {
  const auto lock = Lock();
  return streams_[StreamIndex(stream)]->frames_processed;
}

std::int64_t EdgeFleet::frames_uploaded(StreamHandle stream) const {
  const auto lock = Lock();
  return streams_[StreamIndex(stream)]->frames_uploaded;
}

std::uint64_t EdgeFleet::upload_bytes() const {
  const auto lock = Lock();
  std::uint64_t n = 0;
  for (const auto& s : streams_) n += s->uplink ? s->uplink->total_bytes() : 0;
  return n;
}

std::uint64_t EdgeFleet::upload_bytes(StreamHandle stream) const {
  const auto lock = Lock();
  const Stream& s = *streams_[StreamIndex(stream)];
  return s.uplink ? s.uplink->total_bytes() : 0;
}

double EdgeFleet::UploadBitrateBps(StreamHandle stream) const {
  const auto lock = Lock();
  const Stream& s = *streams_[StreamIndex(stream)];
  if (s.frames_processed == 0) return 0.0;
  const double seconds = static_cast<double>(s.frames_processed) /
                         static_cast<double>(s.fps);
  const std::uint64_t bytes = s.uplink ? s.uplink->total_bytes() : 0;
  return static_cast<double>(bytes) * 8.0 / seconds;
}

std::size_t EdgeFleet::pending_frames(StreamHandle stream) const {
  const auto lock = Lock();
  return streams_[StreamIndex(stream)]->pending.size();
}

EdgeStore* EdgeFleet::edge_store(StreamHandle stream) {
  // The fleet keeps its own reference (live or retired), so the raw pointer
  // stays valid after the temporary shared_ptr dies.
  return edge_store_shared(stream).get();
}

std::shared_ptr<EdgeStore> EdgeFleet::edge_store_shared(StreamHandle stream) {
  const auto lock = Lock();
  if (Stream* s = FindStream(stream)) return s->store;
  for (const auto& [handle, st] : retired_stores_) {
    if (handle == stream) return st;
  }
  FF_CHECK_MSG(false, "no stream (live or retired) with handle " << stream);
  return nullptr;  // unreachable; FF_CHECK_MSG(false, ...) throws
}

std::int64_t EdgeFleet::batches_run() const {
  const auto lock = Lock();
  return batches_run_;
}

std::size_t EdgeFleet::n_buckets() const {
  const auto lock = Lock();
  return buckets_.size();
}

std::vector<BucketStats> EdgeFleet::bucket_stats() const {
  const auto lock = Lock();
  std::vector<BucketStats> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    BucketStats st;
    st.width = b->width;
    st.height = b->height;
    st.batches = b->batches;
    st.frames = b->frames;
    for (const auto& s : streams_) {
      if (s->bucket == b.get()) {
        ++st.streams;
        st.queued += static_cast<std::int64_t>(s->queue.size());
        st.shed += s->frames_shed;
      }
    }
    out.push_back(st);
  }
  return out;
}

FleetStats EdgeFleet::fleet_stats() const {
  const auto lock = Lock();
  FleetStats fs;
  const std::int64_t now = clock_->NowNs();
  for (const auto& s : streams_) {
    StreamStats st;
    st.handle = s->handle;
    st.priority = s->priority;
    st.frames_offered = s->frames_offered;
    st.frames_shed = s->frames_shed;
    st.frames_admitted = s->frames_offered - s->frames_shed;
    st.frames_processed = s->frames_processed;
    st.keep_every = s->keep_every;
    st.queue_depth = static_cast<std::int64_t>(s->queue.size());
    st.queue_peak = s->queue_peak;
    if (!s->queue.empty() && s->queue.front().capture_ts_ns >= 0) {
      st.oldest_staged_ms = std::max(
          0.0,
          static_cast<double>(now - s->queue.front().capture_ts_ns) / 1e6);
    }
    if (s->latency.window_count() > 0) {
      st.latency_p50_ms = s->latency.Percentile(50);
      st.latency_p95_ms = s->latency.Percentile(95);
      st.latency_max_ms = s->latency.max();
    }
    st.latency_samples = s->latency.count();
    fs.frames_offered += st.frames_offered;
    fs.frames_admitted += st.frames_admitted;
    fs.frames_processed += st.frames_processed;
    fs.frames_shed += st.frames_shed;
    fs.streams.push_back(std::move(st));
  }
  fs.batches = batches_run_;
  fs.in_flight = in_flight_;
  if (fleet_latency_.window_count() > 0) {
    fs.latency_p50_ms = fleet_latency_.Percentile(50);
    fs.latency_p95_ms = fleet_latency_.Percentile(95);
    fs.latency_max_ms = fleet_latency_.max();
  }
  fs.latency_samples = fleet_latency_.count();
  return fs;
}

double EdgeFleet::base_dnn_seconds() const {
  const auto lock = Lock();
  return base_timer_.total_seconds();
}

double EdgeFleet::mc_seconds() const {
  const auto lock = Lock();
  return mc_timer_.total_seconds();
}

double EdgeFleet::smooth_seconds() const {
  const auto lock = Lock();
  return smooth_timer_.total_seconds();
}

double EdgeFleet::upload_seconds() const {
  const auto lock = Lock();
  return upload_timer_.total_seconds();
}

}  // namespace ff::core
