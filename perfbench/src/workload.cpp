#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stop_token>
#include <thread>

#include "core/edge_fleet.hpp"
#include "core/smoothing.hpp"
#include "dnn/feature_extractor.hpp"
#include "net/ingest.hpp"
#include "net/link.hpp"
#include "net/uplink.hpp"
#include "stats.hpp"
#include "sweep.hpp"
#include "tenants.hpp"
#include "trace.hpp"
#include "traffic.hpp"
#include "xcam/topology.hpp"

namespace perfbench {

namespace {

namespace core = ff::core;
namespace net = ff::net;

constexpr std::uint64_t kFleetId = 1;
constexpr std::int64_t kVoteN = 5;
constexpr std::int64_t kVoteK = 2;
constexpr std::int64_t kSetupReps = 3;       // setup_s is their median
constexpr std::int64_t kContextFrames = 8;   // pre-roll of a fetched clip
constexpr double kThumbTolerance = 12.0;     // mean |luma| diff, 0..255
constexpr std::int64_t kDrainTimeoutNs = 60'000'000'000;

// ---------------------------------------------------------------------------
// Workload plans
// ---------------------------------------------------------------------------

struct TenantPlan {
  const char* arch;  // MakeMicroclassifier architecture
  bool int8;
  bool crop;         // localized to the camera's task region
  const char* span;  // traced self-time name
};

struct Plan {
  std::string name;
  std::vector<std::string> cams;  // "jackson" | "roadway" | "overlap"
  std::vector<std::vector<TenantPlan>> tenants;  // per camera
  std::int64_t width = 256;
  std::int64_t max_batch = 8;
  std::int64_t clip_frames = 240;  // per camera; the stream loops
  bool pipelined = true;   // else the benchmark drives Step()
  double paced_fps = 0;    // > 0: open loop at this rate per camera
  bool int8_trunk = false;
  bool archive = false;    // durable PackArchive + demand-fetch
  bool lossy = false;      // FaultyLink in both directions
  bool xcam = false;       // all-pairs topology
  double slo_ms = 0;       // overload controller armed when > 0
};

const TenantPlan kFull{"full_frame", false, false, "mc.full_frame"};
const TenantPlan kLocal{"localized", false, true, "mc.localized"};
const TenantPlan kWindowed{"windowed", false, true, "mc.windowed"};
const TenantPlan kFullI8{"full_frame", true, false, "mc.full_frame_i8"};
const TenantPlan kLocalI8{"localized", true, true, "mc.localized_i8"};

Plan MakePlan(const Options& opt) {
  Plan p;
  p.name = opt.workload;
  const double warm = opt.smoke ? 0.5 : 1.0;
  if (opt.workload == "mixed_wall") {
    // 8 cameras in two geometry buckets, 4 tenants each (32 MCs).
    for (int c = 0; c < 8; ++c) {
      p.cams.push_back(c % 2 == 0 ? "jackson" : "roadway");
      p.tenants.push_back({kFull, kLocal, kWindowed, c % 2 == 0 ? kFull : kLocal});
    }
    p.max_batch = 8;
  } else if (opt.workload == "lossy_wan") {
    for (int c = 0; c < 4; ++c) {
      p.cams.push_back("roadway");
      p.tenants.push_back({kWindowed});
    }
    // 192 px keeps 40 fps offered near half the box's capacity, so the
    // WAN, the archive and the fetches shape the latency, not a saturated
    // trunk.
    p.width = 192;
    p.max_batch = 4;
    p.paced_fps = 10;
    // Open loop: render exactly what the schedule can pull (no wrap).
    p.clip_frames = static_cast<std::int64_t>(
        std::ceil((opt.seconds + warm + 1.0) * p.paced_fps));
    p.archive = true;
    p.lossy = true;
    p.slo_ms = 250;
  } else if (opt.workload == "overlap_int8") {
    for (int c = 0; c < 4; ++c) {
      p.cams.push_back("overlap");
      p.tenants.push_back({kFullI8, kLocalI8});
    }
    p.max_batch = 4;
    p.pipelined = false;
    p.int8_trunk = true;
    p.xcam = true;
  } else {
    FF_CHECK_MSG(false, "unknown workload " << opt.workload);
  }
  if (opt.smoke) {
    p.width = 128;
    p.clip_frames = std::min<std::int64_t>(p.clip_frames, 90);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Set-up: render + encode the feeds, build the extractor (and calibrate it)
// ---------------------------------------------------------------------------

struct World {
  std::vector<Feed> feeds;
  std::unique_ptr<ff::dnn::FeatureExtractor> fx;
};

World BuildWorld(const Plan& plan, std::uint64_t seed) {
  World w;
  w.feeds.resize(plan.cams.size());
  std::shared_ptr<const ff::video::OverlapScript> script;
  if (std::count(plan.cams.begin(), plan.cams.end(), "overlap") > 0) {
    ff::video::OverlapScriptSpec ss;
    ss.width = plan.width;
    ss.height = plan.width * 9 / 16;
    ss.fps = 15;
    ss.object_scale = 3.0;
    // Object paths are part of the workload like the dataset schedules: some
    // paths defeat cross-camera fusion, which would make upload volume a
    // property of the seed.
    ss.seed = 301;
    ss.event_frames = 14;
    ss.gap_frames = 40;
    ss.n_events = std::max<std::int64_t>(2, plan.clip_frames / 54);
    script = std::make_shared<const ff::video::OverlapScript>(ss);
  }
  // Cameras render and encode in parallel (each camera is independent).
  // The seed picks each camera's scenery (dataset background, sensor noise);
  // the event schedule of a camera slot is part of the workload, so upload
  // volume is a property of the workload rather than of the seed.
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < plan.cams.size(); ++c) {
    workers.emplace_back([&, c] {
      const std::uint64_t cam_seed = seed * 1000 + c + 1;
      const std::string& kind = plan.cams[c];
      if (kind == "overlap") {
        ff::video::OverlapView view;
        view.shift_x = 2.0 * static_cast<double>(c);
        view.brightness = 3 * static_cast<int>(c);
        view.noise_amp = 2;
        view.noise_seed = cam_seed;
        w.feeds[c] = RenderOverlapFeed(script, view);
      } else {
        const std::uint64_t slot = 101 + c;
        ff::video::DatasetSpec spec =
            kind == "jackson"
                ? ff::video::JacksonSpec(plan.width, plan.clip_frames, slot)
                : ff::video::RoadwaySpec(plan.width, plan.clip_frames, slot);
        spec.mean_event_len = 15;
        spec.scene_seed = cam_seed;
        w.feeds[c] = RenderDatasetFeed(spec);
      }
    });
  }
  for (auto& t : workers) t.join();

  ff::dnn::FeatureExtractorConfig xcfg;
  xcfg.model.include_classifier = false;
  xcfg.quantize = plan.int8_trunk;
  w.fx = std::make_unique<ff::dnn::FeatureExtractor>(xcfg);
  if (plan.int8_trunk) {
    // Calibrate on one batch of the first camera's decoded frames.
    w.fx->CalibrateQuantized(PreprocessedBatch(w.feeds.front(), plan.max_batch));
  }
  return w;
}

// ---------------------------------------------------------------------------
// Link decorator: times every datagram the benchmark's links carry
// ---------------------------------------------------------------------------

class TracedLink final : public net::Link {
 public:
  TracedLink(net::Link& inner, const char* send_span, const char* poll_span)
      : inner_(inner), send_span_(send_span), poll_span_(poll_span) {}

  void Send(std::string datagram) override {
    Span s(send_span_, static_cast<std::int64_t>(datagram.size()));
    inner_.Send(std::move(datagram));
  }

  std::optional<std::string> Poll() override {
    if (!Tracer::Get().enabled()) return inner_.Poll();
    const std::int64_t t0 = NowNs();
    auto d = inner_.Poll();
    // Empty polls are the pump loops' idle spin; only deliveries count.
    if (d) {
      Tracer::Get().Record(poll_span_, t0, NowNs(),
                           static_cast<std::int64_t>(d->size()));
    }
    return d;
  }

 private:
  net::Link& inner_;
  const char* send_span_;
  const char* poll_span_;
};

// ---------------------------------------------------------------------------
// Per-stream bookkeeping, filled from outside the fleet
// ---------------------------------------------------------------------------

struct Track {
  const Feed* feed = nullptr;
  std::unique_ptr<EncodedSource> source;
  core::StreamHandle handle = -1;
  std::int64_t lag = 0;  // capture lag of a frame's final decision
  std::vector<std::string> mc_names;
  // Decision sink (fires on the fleet's scheduling thread, lock held).
  std::vector<std::uint8_t> decisions;  // tenant 0, by frame index
  std::vector<std::int64_t> tenant_decisions;
  std::atomic<std::int64_t> decided{0};
  // Datacenter side (pump thread).
  std::map<std::int64_t, std::int64_t> arrival_ns;  // frame -> arrival
  std::size_t frames_seen = 0;
};

// The datacenter: pumps the ingest, stamps arrivals, and demand-fetches a
// context clip for each delivered event. Driven by one thread at a time.
class Datacenter {
 public:
  Datacenter(net::DatacenterIngest& ingest, std::vector<Track*> tracks,
             bool fetch)
      : ingest_(ingest), tracks_(std::move(tracks)), fetch_(fetch) {}

  void Tick() {
    std::size_t n = 0;
    {
      Span s("DatacenterIngest::Pump");
      n = ingest_.Pump();
      s.set_arg(static_cast<std::int64_t>(n));
    }
    if (n == 0) {
      if (!pending_.empty()) PollFetches();
      return;
    }
    const std::int64_t now = NowNs();
    for (Track* t : tracks_) {
      const core::DatacenterReceiver* rx = ingest_.receiver(kFleetId, t->handle);
      if (rx == nullptr) continue;
      const auto& idx = rx->frame_indices();
      for (; t->frames_seen < idx.size(); ++t->frames_seen) {
        t->arrival_ns[idx[t->frames_seen]] = now;
      }
    }
    if (fetch_) {
      const net::IngestStats st = ingest_.stats();
      if (static_cast<std::size_t>(st.events_delivered) > events_seen_) {
        const std::vector<core::EventRecord> evs = ingest_.events(kFleetId);
        for (; events_seen_ < evs.size(); ++events_seen_) {
          const core::EventRecord& e = evs[events_seen_];
          // Only one tenant per stream fetches (tenants share the truth).
          if (!IsFirstTenant(e)) continue;
          Fetch f;
          f.stream = e.stream;
          f.begin = std::max<std::int64_t>(0, e.begin - kContextFrames);
          f.end = e.end;
          f.sent_ns = NowNs();
          f.id = ingest_.RequestClip(kFleetId, f.stream, f.begin, f.end);
          pending_.push_back(f);
          ++fetches_;
        }
      }
      // Publish the new fetches before the events that caused them, so a
      // reader never sees every event handled and no fetch pending in between.
      pending_count_.store(static_cast<std::int64_t>(pending_.size()));
      events_total_.store(static_cast<std::int64_t>(events_seen_));
    }
    PollFetches();
  }

  std::int64_t pending() const { return pending_count_.load(); }
  std::int64_t events_seen() const { return events_total_.load(); }
  std::int64_t fetches() const { return fetches_; }
  std::int64_t fetch_failures() const {
    return fetch_failures_ + static_cast<std::int64_t>(pending_.size());
  }
  const std::vector<double>& fetch_ms() const { return fetch_ms_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  struct Fetch {
    std::uint64_t id = 0;
    std::int64_t stream = -1, begin = 0, end = 0, sent_ns = 0;
  };

  bool IsFirstTenant(const core::EventRecord& e) const {
    for (const Track* t : tracks_) {
      if (t->handle == e.stream) return t->mc_names.front() == e.mc;
    }
    return false;
  }

  void PollFetches() {
    for (auto it = pending_.begin(); it != pending_.end();) {
      auto clip = ingest_.TakeFetched(it->id);
      if (!clip) {
        ++it;
        continue;
      }
      fetch_ms_.push_back(static_cast<double>(NowNs() - it->sent_ns) / 1e6);
      if (!CheckClip(*it, *clip)) ++fetch_failures_;
      it = pending_.erase(it);
    }
    pending_count_.store(static_cast<std::int64_t>(pending_.size()));
  }

  bool CheckClip(const Fetch& f, const net::FetchedClip& clip) {
    const Track* t = nullptr;
    for (const Track* c : tracks_) {
      if (c->handle == f.stream) t = c;
    }
    char buf[160];
    if (!clip.ok || clip.begin != f.begin || clip.end != f.end) {
      std::snprintf(buf, sizeof(buf),
                    "fetch stream %lld [%lld,%lld): ok=%d served [%lld,%lld)",
                    static_cast<long long>(f.stream),
                    static_cast<long long>(f.begin),
                    static_cast<long long>(f.end), clip.ok ? 1 : 0,
                    static_cast<long long>(clip.begin),
                    static_cast<long long>(clip.end));
      problems_.emplace_back(buf);
      return false;
    }
    const std::vector<ff::video::Frame> frames = clip.DecodeFrames();
    for (std::size_t j = 0; j < frames.size(); ++j) {
      const std::int64_t k = f.begin + static_cast<std::int64_t>(j);
      const double d = ThumbDiff(
          MakeThumb(frames[j]),
          t->feed->thumbs[static_cast<std::size_t>(k % t->feed->n())]);
      if (d > kThumbTolerance) {
        std::snprintf(buf, sizeof(buf),
                      "fetch stream %lld frame %lld differs from the camera "
                      "frame (%.1f)",
                      static_cast<long long>(f.stream),
                      static_cast<long long>(k), d);
        problems_.emplace_back(buf);
        return false;
      }
    }
    return true;
  }

  net::DatacenterIngest& ingest_;
  std::vector<Track*> tracks_;
  bool fetch_;
  std::size_t events_seen_ = 0;
  std::atomic<std::int64_t> events_total_{0};
  std::vector<Fetch> pending_;
  std::atomic<std::int64_t> pending_count_{0};
  std::int64_t fetches_ = 0;
  std::int64_t fetch_failures_ = 0;
  std::vector<double> fetch_ms_;
  std::vector<std::string> problems_;
};

// Maximal runs of positive frames: (begin, end) per event, in order.
std::vector<std::pair<std::int64_t, std::int64_t>> Runs(
    const std::vector<std::uint8_t>& v) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(v.size()); ++i) {
    if (!v[static_cast<std::size_t>(i)]) continue;
    if (!out.empty() && out.back().second == i) {
      out.back().second = i + 1;
    } else {
      out.emplace_back(i, i + 1);
    }
  }
  return out;
}

// Fixed-window switch between traced and untraced measurement, so one run
// yields both the per-layer spans and the tracing overhead.
class TraceWindows {
 public:
  static constexpr std::int64_t kWindowNs = 500'000'000;

  explicit TraceWindows(bool active) : active_(active) {}

  // Called from the measuring loop with the fleet's decided-frame count.
  void Update(std::int64_t now, std::int64_t decided) {
    if (!active_) return;
    if (start_ns_ < 0) {
      start_ns_ = now;
      last_ns_ = now;
      last_decided_ = decided;
      Tracer::Get().SetEnabled(on_);
      return;
    }
    if (now - last_ns_ < kWindowNs) return;
    Close(now, decided);
    on_ = !on_;
    Tracer::Get().SetEnabled(on_);
  }

  void Close(std::int64_t now, std::int64_t decided) {
    if (!active_ || start_ns_ < 0) return;
    const int w = on_ ? 1 : 0;
    frames_[w] += decided - last_decided_;
    ns_[w] += now - last_ns_;
    last_ns_ = now;
    last_decided_ = decided;
  }

  double fps(bool traced) const {
    const int w = traced ? 1 : 0;
    return ns_[w] > 0 ? static_cast<double>(frames_[w]) * 1e9 /
                            static_cast<double>(ns_[w])
                      : 0;
  }

 private:
  bool active_;
  bool on_ = true;
  std::int64_t start_ns_ = -1, last_ns_ = 0, last_decided_ = 0;
  std::int64_t frames_[2] = {0, 0};
  std::int64_t ns_[2] = {0, 0};
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"mixed_wall", "lossy_wan",
                                                 "overlap_int8"};
  return names;
}

Outcome RunWorkload(const Options& opt) {
  const std::int64_t t_main = NowNs();
  Outcome out;
  const Plan plan = MakePlan(opt);
  const double warm_s = opt.smoke ? 0.5 : 1.0;

  // --- Set-up (timed). The feeds and models are built kSetupReps times and
  // setup_s is the median build plus the one-off wiring below.
  std::vector<double> build_s;
  World world;
  const std::int64_t setup_reps = opt.trace ? 1 : kSetupReps;
  for (std::int64_t r = 0; r < setup_reps; ++r) {
    world = World{};
    const std::int64_t t0 = NowNs();
    world = BuildWorld(plan, opt.seed);
    build_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::int64_t t_wiring = NowNs();
  const double pre_build_s = static_cast<double>(t_wiring - t_main) / 1e9 -
                             std::accumulate(build_s.begin(), build_s.end(), 0.0);
  ff::dnn::FeatureExtractor& fx = *world.fx;
  // Removes the archive after everything that maps it is gone.
  const std::filesystem::path archive_dir =
      std::filesystem::path(opt.work_dir) / ("archive-" + plan.name);
  struct DirGuard {
    std::filesystem::path dir;
    bool armed;
    ~DirGuard() {
      std::error_code ec;
      if (armed) std::filesystem::remove_all(dir, ec);
    }
  } archive_guard{archive_dir, plan.archive};
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<Track>> tracks;

  // --- Transport: one duplex channel, optionally lossy both ways ----------
  auto [edge_end, server_end] = net::LocalLink::MakePair();
  std::unique_ptr<net::FaultyLink> up_fault, down_fault;
  net::Link* edge_link = edge_end.get();
  net::Link* server_link = server_end.get();
  if (plan.lossy) {
    net::FaultConfig fc;
    fc.drop = 0.05;
    fc.duplicate = 0.01;
    fc.reorder = 0.02;
    fc.delay_window = 2;
    fc.seed = opt.seed * 2 + 1;
    up_fault = std::make_unique<net::FaultyLink>(*edge_end, fc);
    fc.seed = opt.seed * 2 + 2;
    down_fault = std::make_unique<net::FaultyLink>(*server_end, fc);
    edge_link = up_fault.get();
    server_link = down_fault.get();
  }
  TracedLink edge_traced(*edge_link, "Link::Send.edge", "Link::Poll.edge");
  TracedLink server_traced(*server_link, "Link::Send.dc", "Link::Poll.dc");

  net::DatacenterIngest ingest;
  ingest.AddFleet(kFleetId, server_traced);
  net::UplinkConfig ucfg;
  ucfg.fleet = kFleetId;
  ucfg.queue_capacity = 64;
  ucfg.window = 32;
  net::UplinkClient uplink(edge_traced, ucfg);

  // --- The edge fleet ------------------------------------------------------
  core::EdgeFleetConfig cfg;
  cfg.vote_window = kVoteN;
  cfg.vote_k = kVoteK;
  cfg.max_batch = plan.max_batch;
  cfg.slo_ms = plan.slo_ms;
  if (plan.archive) {
    std::filesystem::remove_all(archive_dir);
    cfg.archive_dir = archive_dir.string();
    cfg.archive_gop = 15;
  }
  auto fleet = std::make_unique<core::EdgeFleet>(fx, cfg);

  for (std::size_t c = 0; c < plan.cams.size(); ++c) {
    auto t = std::make_unique<Track>();
    t->feed = &world.feeds[c];
    t->source = std::make_unique<EncodedSource>(*t->feed, stop);
    t->handle = fleet->AddStream(*t->source);
    tracks.push_back(std::move(t));
  }

  if (plan.xcam) {
    ff::xcam::Topology topo;
    for (std::size_t a = 0; a < tracks.size(); ++a) {
      for (std::size_t b = a + 1; b < tracks.size(); ++b) {
        topo.AddOverlap(tracks[a]->handle, tracks[b]->handle);
      }
    }
    ff::xcam::CorrelatorConfig ccfg;
    ccfg.window_ns = 50'000'000;
    fleet->SetTopology(std::move(topo), ccfg);
    fleet->SetCrossEventSink(uplink.cross_event_sink());
  }

  // Upload sink: time each enqueue (backpressure blocks here) and count the
  // codec bytes the uplink carries.
  std::int64_t upload_chunks = 0, upload_chunk_bytes = 0;
  const core::UploadSink enqueue = uplink.sink();
  fleet->SetUploadSink([&](const core::UploadPacket& p) {
    Span s("UploadSink", p.stream);
    if (!p.tombstone) {
      ++upload_chunks;
      upload_chunk_bytes += static_cast<std::int64_t>(p.chunk.size());
    }
    enqueue(p);
  });
  const core::EventSink event_enqueue = uplink.event_sink();

  for (std::size_t c = 0; c < tracks.size(); ++c) {
    Track& t = *tracks[c];
    const Feed& feed = *t.feed;
    std::int64_t max_delay = 0;
    const auto& tenants = plan.tenants[c];
    t.tenant_decisions.assign(tenants.size(), 0);
    for (std::size_t j = 0; j < tenants.size(); ++j) {
      const TenantPlan& tp = tenants[j];
      core::McConfig mcfg;
      char name[64];
      std::snprintf(name, sizeof(name), "c%zu.%s%zu", c, tp.arch, j);
      mcfg.name = name;
      mcfg.seed = 100 + c * 10 + j;  // weights are part of the workload
      mcfg.quantize = tp.int8;
      if (tp.crop) mcfg.pixel_crop = feed.roi;
      std::unique_ptr<core::Microclassifier> mc;
      const std::string arch = tp.arch;
      if (arch == "full_frame") {
        mc = std::make_unique<LabelledMc<core::FullFrameObjectDetectorMc>>(
            feed.labels, tp.span, mcfg, fx, feed.height, feed.width);
      } else if (arch == "localized") {
        mc = std::make_unique<LabelledMc<core::LocalizedBinaryClassifierMc>>(
            feed.labels, tp.span, mcfg, fx, feed.height, feed.width);
      } else {
        mc = std::make_unique<LabelledMc<core::WindowedLocalizedMc>>(
            feed.labels, tp.span, mcfg, fx, feed.height, feed.width);
      }
      max_delay = std::max(max_delay, mc->DecisionDelay());
      t.mc_names.push_back(mcfg.name);
      core::McSpec spec;
      spec.mc = std::move(mc);
      spec.threshold = 0.5f;
      spec.on_decision = [&t, j](const core::McDecision& d) {
        ++t.tenant_decisions[j];
        if (j != 0) return;
        if (static_cast<std::int64_t>(t.decisions.size()) <= d.frame_index) {
          t.decisions.resize(static_cast<std::size_t>(d.frame_index + 1), 0);
        }
        t.decisions[static_cast<std::size_t>(d.frame_index)] = d.decision ? 1 : 0;
        t.decided.fetch_add(1, std::memory_order_relaxed);
      };
      spec.on_event = [&event_enqueue](const core::EventRecord& e) {
        Span s("EventSink", e.stream);
        event_enqueue(e);
      };
      fleet->Attach(t.handle, std::move(spec));
    }
    t.lag = kVoteN / 2 + max_delay;
  }

  std::vector<Track*> track_ptrs;
  for (auto& t : tracks) track_ptrs.push_back(t.get());
  Datacenter dc(ingest, track_ptrs, plan.archive);
  if (plan.archive) {
    const net::FetchHandler serve = net::MakeFleetFetchHandler(*fleet);
    uplink.SetFetchHandler([serve](const net::FetchRequest& req) {
      Span s("FetchHandler", req.stream);
      return serve(req);
    });
  }

  auto decided_total = [&] {
    std::int64_t n = 0;
    for (const auto& t : tracks) n += t->decided.load(std::memory_order_relaxed);
    return n;
  };

  // --- Run -----------------------------------------------------------------
  const CpuTimes cpu_start = ReadCpuTimes();
  const std::int64_t t_start = NowNs();
  const double setup_s = pre_build_s + Median(build_s) +
                         static_cast<double>(t_start - t_wiring) / 1e9;
  const std::int64_t t_warm = t_start + static_cast<std::int64_t>(warm_s * 1e9);
  const std::int64_t t_end = t_warm + static_cast<std::int64_t>(opt.seconds * 1e9);
  if (plan.paced_fps > 0) {
    // Frame-synchronized cameras on one schedule from the first offer.
    for (auto& t : tracks) {
      t->source->Pace(t_start, static_cast<std::int64_t>(1e9 / plan.paced_fps));
    }
  }
  TraceWindows windows(opt.trace);
  std::int64_t decided_warm = -1, decided_end = 0;
  std::int64_t warm_ns = t_warm, end_ns = t_end;
  std::int64_t in_flight_peak = 0;
  std::int64_t last_sample = 0;
  const auto observe = [&](std::int64_t now) {
    const std::int64_t d = decided_total();
    if (decided_warm < 0 && now >= t_warm) {
      decided_warm = d;
      warm_ns = now;
    }
    if (decided_warm >= 0) windows.Update(now, d);
    if (opt.trace && now - last_sample > 100'000'000) {
      last_sample = now;
      const core::FleetStats fs = fleet->fleet_stats();
      in_flight_peak = std::max(in_flight_peak, fs.in_flight);
    }
  };

  uplink.Start();
  // Joins on every exit path (jthread requests stop, then joins).
  std::jthread dc_thread;
  if (plan.pipelined) {
    dc_thread = std::jthread([&](std::stop_token st) {
      while (!st.stop_requested()) {
        // FaultyLink holds datagrams until later sends displace them; on a
        // link idle between camera ticks that would park the tail of every
        // burst for a whole frame period. Flushing each pump bounds the
        // reorder delay to one pump interval.
        if (up_fault) up_fault->Flush();
        if (down_fault) down_fault->Flush();
        dc.Tick();
        // The ingest re-sends unanswered fetches every few pumps; pumping
        // every millisecond keeps that cadence sane.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      dc.Tick();
    });
    fleet->StartPipeline();
    for (std::int64_t now = NowNs(); now < t_end; now = NowNs()) {
      observe(now);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  } else {
    for (std::int64_t now = NowNs(); now < t_end; now = NowNs()) {
      observe(now);
      fleet->Step();
      dc.Tick();
    }
  }
  end_ns = NowNs();
  const CpuTimes cpu_end = ReadCpuTimes();
  decided_end = decided_total();
  windows.Close(end_ns, decided_end);
  Tracer::Get().SetEnabled(false);
  const core::FleetStats live_stats = fleet->fleet_stats();

  // --- Drain: stop the cameras, finish every frame, deliver everything -----
  stop = true;
  if (plan.pipelined) {
    fleet->WaitPipelineIdle();
    fleet->StopPipeline();
  } else {
    while (fleet->Step() > 0) dc.Tick();
  }
  fleet->Drain();
  const std::int64_t drain_deadline = NowNs() + kDrainTimeoutNs;
  auto delivered = [&] {
    const net::UplinkStats us = uplink.stats();
    const net::IngestStats is = ingest.stats();
    return uplink.idle() &&
           us.uploads_enqueued == is.uploads_delivered &&
           us.events_enqueued == is.events_delivered &&
           us.xevents_enqueued == is.xevents_delivered &&
           dc.pending() == 0 &&
           (!plan.archive || dc.events_seen() == is.events_delivered);
  };
  while (!delivered() && NowNs() < drain_deadline) {
    if (plan.pipelined) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else {
      dc.Tick();
    }
  }
  if (plan.pipelined) {
    dc_thread.request_stop();
    dc_thread.join();
  }
  uplink.Stop();

  // --- Output check --------------------------------------------------------
  const core::FleetStats fs = fleet->fleet_stats();
  const net::UplinkStats us = uplink.stats();
  const net::IngestStats is = ingest.stats();
  std::vector<std::string>& problems = out.problems;
  char buf[256];
  std::int64_t offered = 0, shed = 0, undecided = 0, clip_mismatches = 0;
  std::int64_t frame_mismatches = 0;
  std::vector<double> latency_ms;
  std::int64_t positives = 0;
  // xcam: per (tenant role, event index) whether some stream shipped it.
  std::map<std::pair<std::size_t, std::size_t>, bool> shipped_somewhere;
  for (const auto& tp : tracks) {
    Track& t = *tp;
    const std::int64_t off = t.source->stats().offered.load();
    std::int64_t t_shed = 0;
    for (const auto& ss : fs.streams) {
      if (ss.handle == t.handle) t_shed = ss.frames_shed;
    }
    const auto n = static_cast<std::int64_t>(t.decisions.size());
    offered += off;
    shed += t_shed;
    if (off != n + t_shed) {
      std::snprintf(buf, sizeof(buf),
                    "stream %lld: offered %lld != decided %lld + shed %lld",
                    static_cast<long long>(t.handle),
                    static_cast<long long>(off), static_cast<long long>(n),
                    static_cast<long long>(t_shed));
      problems.emplace_back(buf);
      undecided += std::max<std::int64_t>(0, off - n - t_shed);
    }
    for (std::size_t j = 0; j < t.tenant_decisions.size(); ++j) {
      if (t.tenant_decisions[j] != n) {
        std::snprintf(buf, sizeof(buf), "stream %lld tenant %zu: %lld decisions for %lld frames",
                      static_cast<long long>(t.handle), j,
                      static_cast<long long>(t.tenant_decisions[j]),
                      static_cast<long long>(n));
        problems.emplace_back(buf);
      }
    }

    // Expected decisions: the K-voting-smoothed ground truth.
    std::vector<std::uint8_t> truth(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) truth[static_cast<std::size_t>(i)] = t.feed->Label(i);
    const std::vector<std::uint8_t> expected = core::SmoothLabels(truth, kVoteN, kVoteK);
    if (expected != t.decisions) {
      std::snprintf(buf, sizeof(buf), "stream %lld: decisions differ from the smoothed ground truth",
                    static_cast<long long>(t.handle));
      problems.emplace_back(buf);
    }
    const auto runs = Runs(expected);
    for (const std::uint8_t e : expected) positives += e;

    // Clips reassembled at the datacenter.
    const core::DatacenterReceiver* rx = ingest.receiver(kFleetId, t.handle);
    std::map<std::string, std::vector<core::DatacenterReceiver::EventClip>> by_mc;
    if (rx != nullptr) {
      for (const auto& clip : rx->Clips()) by_mc[clip.mc_name].push_back(clip);
    }
    const std::vector<core::EventRecord> events = ingest.events(kFleetId);
    for (std::size_t j = 0; j < t.mc_names.size(); ++j) {
      const auto& clips = by_mc[t.mc_names[j]];
      std::vector<std::pair<std::int64_t, std::int64_t>> ev_got;
      for (const auto& e : events) {
        if (e.stream == t.handle && e.mc == t.mc_names[j]) ev_got.emplace_back(e.begin, e.end);
      }
      if (ev_got != runs) {
        std::snprintf(buf, sizeof(buf), "stream %lld %s: %zu events delivered, %zu expected",
                      static_cast<long long>(t.handle), t.mc_names[j].c_str(),
                      ev_got.size(), runs.size());
        problems.emplace_back(buf);
      }
      const std::size_t m = std::max(clips.size(), runs.size());
      for (std::size_t k = 0; k < m; ++k) {
        bool ok = k < clips.size() && k < runs.size();
        bool full = false;
        if (ok) {
          const auto& clip = clips[k];
          const auto len = static_cast<std::size_t>(runs[k].second - runs[k].first);
          full = clip.frame_slots.size() == len;
          ok = clip.event_id == static_cast<std::int64_t>(k) &&
               clip.first_frame == runs[k].first &&
               clip.last_frame == runs[k].second - 1 &&
               (full || (plan.xcam && clip.frame_slots.empty()));
        }
        if (!ok) {
          ++clip_mismatches;
          std::snprintf(buf, sizeof(buf), "stream %lld %s: clip %zu differs from the expected clip",
                        static_cast<long long>(t.handle), t.mc_names[j].c_str(), k);
          problems.emplace_back(buf);
        }
        if (k < runs.size()) shipped_somewhere[{j, k}] |= full;
      }
    }

    // Every delivered frame decodes to the camera frame it claims to be.
    if (rx != nullptr) {
      const auto& frames = rx->frames();
      for (std::size_t s = 0; s < frames.size(); ++s) {
        const std::int64_t k = rx->frame_indices()[s];
        const double d = ThumbDiff(
            MakeThumb(frames[s]),
            t.feed->thumbs[static_cast<std::size_t>(k % t.feed->n())]);
        if (frames[s].width() != t.feed->width || d > kThumbTolerance) {
          ++frame_mismatches;
          if (frame_mismatches <= 3) {
            std::snprintf(buf, sizeof(buf), "stream %lld frame %lld does not decode to its camera frame (%.1f)",
                          static_cast<long long>(t.handle), static_cast<long long>(k), d);
            problems.emplace_back(buf);
          }
        }
      }
    }

    // Capture -> datacenter latency of each uploaded frame, measured from the
    // capture of the last frame its decision depends on.
    const std::vector<std::int64_t>& cap = t.source->stats().capture_ns;
    core::EdgeStore* store = plan.archive ? fleet->edge_store(t.handle) : nullptr;
    auto capture_of = [&](std::int64_t k) -> std::int64_t {
      if (t_shed == 0) return cap[static_cast<std::size_t>(k)];
      // Shedding decouples processed from offered indices; the archive
      // keeps each processed frame's capture time.
      const auto ts = store != nullptr ? store->TimestampOf(k) : std::nullopt;
      return ts.value_or(-1);
    };
    for (std::int64_t i = 0; i + t.lag < n; ++i) {
      if (!expected[static_cast<std::size_t>(i)]) continue;
      const std::int64_t c = capture_of(i + t.lag);
      if (c < warm_ns || c >= end_ns) continue;
      const auto it = t.arrival_ns.find(i);
      if (it != t.arrival_ns.end()) {
        latency_ms.push_back(static_cast<double>(it->second - c) / 1e6);
      } else if (!plan.xcam) {
        latency_ms.push_back(std::numeric_limits<double>::infinity());
      }
    }
  }
  if (plan.xcam) {
    for (const auto& [key, full] : shipped_somewhere) {
      if (!full) {
        ++clip_mismatches;
        std::snprintf(buf, sizeof(buf), "tenant role %zu event %zu: no camera shipped its clip",
                      key.first, key.second);
        problems.emplace_back(buf);
      }
    }
  }
  const std::int64_t records_sent =
      us.uploads_enqueued + us.events_enqueued + us.xevents_enqueued;
  const std::int64_t records_got =
      is.uploads_delivered + is.events_delivered + is.xevents_delivered;
  if (records_got != records_sent || is.bad_records != 0) {
    std::snprintf(buf, sizeof(buf), "%lld records enqueued, %lld reassembled, %lld bad",
                  static_cast<long long>(records_sent),
                  static_cast<long long>(records_got),
                  static_cast<long long>(is.bad_records));
    problems.emplace_back(buf);
  }
  for (const auto& p : dc.problems()) problems.push_back(p);

  out.attempted = offered + records_sent + dc.fetches();
  out.failed = shed + undecided + std::max<std::int64_t>(0, records_sent - records_got) +
               dc.fetch_failures() + clip_mismatches + frame_mismatches;
  out.correct = problems.empty();

  // --- Metrics -------------------------------------------------------------
  const double measured_s = static_cast<double>(end_ns - warm_ns) / 1e9;
  const double fleet_fps =
      measured_s > 0 ? static_cast<double>(decided_end - std::max<std::int64_t>(0, decided_warm)) /
                           measured_s
                     : 0;
  const double failed_ratio =
      static_cast<double>(out.failed) / static_cast<double>(std::max<std::int64_t>(1, out.attempted));
  std::vector<double> fetch_ms = dc.fetch_ms();

  std::printf("workload %s: %lld frames offered, %lld decided, %lld shed; "
              "%lld uploads (%lld bytes on the wire), %lld fetches\n",
              plan.name.c_str(), static_cast<long long>(offered),
              static_cast<long long>(offered - shed - undecided),
              static_cast<long long>(shed),
              static_cast<long long>(us.uploads_enqueued),
              static_cast<long long>(us.wire_bytes),
              static_cast<long long>(dc.fetches()));
  const std::int64_t busy = cpu_end.busy - cpu_start.busy;
  const std::int64_t steal = cpu_end.steal - cpu_start.steal;
  std::printf("  host: %.1f%% of CPU time stolen by the hypervisor during the run\n",
              busy + steal > 0 ? 100.0 * static_cast<double>(steal) / static_cast<double>(busy + steal) : 0.0);
  std::printf("  dc latency: %zu samples, p50 %.2f, p90 %.2f, p95 %.2f, p99 %.2f ms; "
              "failed %lld of %lld (ratio %.4f)\n",
              latency_ms.size(), Percentile(latency_ms, 50), Percentile(latency_ms, 90),
              Percentile(latency_ms, 95), Percentile(latency_ms, 99),
              static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted), failed_ratio);

  // A result that never arrived is beyond any limit; report it as the
  // whole run rather than an unprintable infinity.
  auto finite = [&](double v) {
    return std::isinf(v) ? static_cast<double>(NowNs() - t_start) / 1e6 : v;
  };
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.metrics.push_back(Metric{name, value, unit});
  };

  if (!opt.trace) {
    add("setup_s", setup_s, "s");
    add("fleet_fps", fleet_fps, "1/s");
    add("dc_latency_p50_ms", finite(Percentile(latency_ms, 50)), "ms");
    add("dc_latency_p95_ms", finite(Percentile(latency_ms, 95)), "ms");
    add("uplink_bytes_per_frame",
        static_cast<double>(us.wire_bytes) / static_cast<double>(std::max<std::int64_t>(1, offered)),
        "B");
    add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  // The trunk sweep at this workload's batch size and first geometry, traced
  // so its ForwardRange / ForwardWithTaps calls land in the trace file.
  std::vector<UnitTiming> units;
  {
    const Feed& f = world.feeds.front();
    const ff::nn::Tensor batch = PreprocessedBatch(f, plan.max_batch);
    Tracer::Get().SetEnabled(true);
    units = SweepTrunk(fx.network(), batch, opt.smoke ? 2 : 7);
    Tracer::Get().SetEnabled(false);
    std::printf("trunk sweep at batch %lld, %lldx%lld:\n", static_cast<long long>(plan.max_batch),
                static_cast<long long>(f.width), static_cast<long long>(f.height));
    PrintSweep(units);
  }

  // Per-layer: spans from the traced windows, plus the public accessors.
  const std::vector<SpanEvent> spans = Tracer::Get().Collect();
  const auto sum = Tracer::Summarize(spans);
  auto mean_ms = [&](const char* name) {
    const auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second.mean_ms;
  };
  const double processed = static_cast<double>(std::max<std::int64_t>(1, fleet->frames_processed()));
  std::vector<double> lateness;
  std::int64_t queue_peak = in_flight_peak;
  for (const auto& t : tracks) {
    const auto& l = t->source->stats().lateness_ms;
    lateness.insert(lateness.end(), l.begin(), l.end());
  }
  for (const auto& ss : live_stats.streams) queue_peak = std::max(queue_peak, ss.queue_peak);
  const auto pump = sum.find("DatacenterIngest::Pump");
  const double pump_ms = pump == sum.end() ? 0 : pump->second.total_ms;
  const std::int64_t pump_datagrams = pump == sum.end() ? 0 : pump->second.arg_sum;
  const ff::xcam::Correlator::Stats xs =
      plan.xcam ? fleet->xcam_stats() : ff::xcam::Correlator::Stats{};
  const double fps_off = windows.fps(false), fps_on = windows.fps(true);

  add("ingest.decode_ms", mean_ms("decode"), "ms");
  add("gen.lateness_ms_p95", Percentile(lateness, 95), "ms");
  add("fleet.base_dnn_ms_per_frame", fleet->base_dnn_seconds() * 1e3 / processed, "ms");
  add("fleet.mc_ms_per_frame", fleet->mc_seconds() * 1e3 / processed, "ms");
  add("fleet.smooth_ms_per_frame", fleet->smooth_seconds() * 1e3 / processed, "ms");
  add("fleet.upload_ms_per_frame", fleet->upload_seconds() * 1e3 / processed, "ms");
  add("fleet.batch_fill",
      processed / static_cast<double>(std::max<std::int64_t>(1, fleet->batches_run())) /
          static_cast<double>(plan.max_batch),
      "ratio");
  add("fleet.decision_latency_p95_ms", live_stats.latency_p95_ms, "ms");
  add("fleet.queue_peak", static_cast<double>(queue_peak), "count");
  add("mc.full_frame.us", mean_ms("mc.full_frame") * 1e3, "us");
  add("mc.localized.us", mean_ms("mc.localized") * 1e3, "us");
  add("mc.windowed.us", mean_ms("mc.windowed") * 1e3, "us");
  add("mc.full_frame_i8.us", mean_ms("mc.full_frame_i8") * 1e3, "us");
  add("mc.localized_i8.us", mean_ms("mc.localized_i8") * 1e3, "us");
  add("uplink.enqueue_wait_ms", mean_ms("UploadSink"), "ms");
  add("uplink.retransmit_ratio",
      static_cast<double>(us.retransmits) / static_cast<double>(std::max<std::int64_t>(1, us.frames_sent)),
      "ratio");
  add("uplink.wire_overhead",
      static_cast<double>(us.wire_bytes) / static_cast<double>(std::max<std::uint64_t>(1, us.record_bytes)),
      "ratio");
  add("ingest.pump_us_per_datagram",
      pump_datagrams > 0 ? pump_ms * 1e3 / static_cast<double>(pump_datagrams) : 0, "us");
  add("ingest.duplicate_frames", static_cast<double>(is.duplicate_frames), "count");
  add("codec.bytes_per_upload",
      upload_chunks > 0 ? static_cast<double>(upload_chunk_bytes) / static_cast<double>(upload_chunks) : 0,
      "B");
  add("store.fetch_ms", mean_ms("FetchHandler"), "ms");
  add("fetch.latency_p50_ms", Percentile(fetch_ms, 50), "ms");
  add("fetch.count", static_cast<double>(fetch_ms.size()), "count");
  add("xcam.dedupe_rate",
      positives > 0 ? static_cast<double>(fleet->frames_suppressed()) / static_cast<double>(positives) : 0,
      "ratio");
  add("xcam.pairs_per_event",
      xs.events_observed > 0 ? static_cast<double>(xs.pairs_tested) / static_cast<double>(xs.events_observed) : 0,
      "ratio");
  add("dc.latency_samples", static_cast<double>(latency_ms.size()), "count");
  add("failed_ratio", failed_ratio, "ratio");
  add("trace.fleet_fps_traced", fps_on, "1/s");
  add("trace.overhead_pct", fps_off > 0 ? 100.0 * (fps_off - fps_on) / fps_off : 0, "%");
  add("trace.spans", static_cast<double>(spans.size()), "count");
  for (const UnitTiming& u : units) {
    add("trunk.f32." + MetricUnitName(u.unit) + ".ms", u.f32_ms, "ms");
  }
  for (const UnitTiming& u : units) {
    add("trunk.i8." + MetricUnitName(u.unit) + ".ms", u.i8_ms, "ms");
  }

  if (!opt.trace_out.empty()) {
    std::map<std::string, std::string> meta = {
        {"workload", plan.name}, {"seed", std::to_string(opt.seed)}};
    if (!Tracer::WriteChromeJson(opt.trace_out, spans, meta)) {
      std::printf("warning: could not write %s\n", opt.trace_out.c_str());
    } else {
      std::printf("trace: %zu spans -> %s\n", spans.size(), opt.trace_out.c_str());
    }
  }
  std::printf("tracing overhead: %.2f fps untraced vs %.2f fps traced\n", fps_off, fps_on);
  return out;
}

}  // namespace perfbench
