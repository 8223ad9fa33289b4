// End-to-end uplink-plane tests: a real EdgeFleet's upload/event stream is
// captured ONCE, then replayed through UplinkClient -> Link -> DatacenterIngest
// under a matrix of injected WAN faults (loss, reorder, duplication,
// corruption, and all at once). Under EVERY fault configuration the
// reassembled per-stream output must be BITWISE-IDENTICAL to the in-process
// path — decoded frame planes, frame indices, byte counts, clip structure,
// and per-stream event order. A final threaded test runs the async pump
// against a concurrently pumping ingest under loss (the TSan CI leg).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec/codec.hpp"
#include "core/datacenter.hpp"
#include "core/edge_fleet.hpp"
#include "net/ingest.hpp"
#include "net/link.hpp"
#include "net/uplink.hpp"
#include "net/wire.hpp"
#include "video/dataset.hpp"
#include "video/source.hpp"

namespace ff::net {
namespace {

constexpr std::uint64_t kFleetId = 17;

// Everything one fleet run emits, in emission order, plus the in-process
// reference receivers the networked path must match bitwise.
struct Capture {
  std::vector<core::UploadPacket> packets;  // interleaved across streams
  std::vector<core::EventRecord> events;
  std::vector<core::StreamHandle> streams;
  std::map<core::StreamHandle,
           std::unique_ptr<core::DatacenterReceiver>> reference;
};

// Runs a two-camera fleet (threshold 0 => every frame uploads) exactly once;
// the fault matrix replays this capture, so the expensive DNN work is paid
// once per suite, not once per fault configuration.
const Capture& GetCapture() {
  static const Capture* capture = [] {
    auto* c = new Capture;
    auto spec0 = video::JacksonSpec(96, 18, 71);
    auto spec1 = video::JacksonSpec(96, 18, 72);
    spec0.mean_event_len = 6;
    spec1.mean_event_len = 6;
    const video::SyntheticDataset ds0(spec0), ds1(spec1);

    dnn::FeatureExtractor fx({.include_classifier = false});
    core::EdgeFleetConfig cfg;
    cfg.upload_bitrate_bps = 60'000;
    cfg.max_batch = 4;
    core::EdgeFleet fleet(fx, cfg);
    video::DatasetSource src0(ds0), src1(ds1);
    const core::StreamHandle s0 = fleet.AddStream(src0);
    const core::StreamHandle s1 = fleet.AddStream(src1);
    c->streams = {s0, s1};
    fleet.SetUploadSink(
        [c](const core::UploadPacket& p) { c->packets.push_back(p); });
    for (const core::StreamHandle s : c->streams) {
      core::McSpec spec;
      spec.mc = core::MakeMicroclassifier(
          "full_frame",
          {.name = "mc_s" + std::to_string(s), .tap = dnn::kLateTap,
           .seed = 40 + static_cast<std::uint64_t>(s)},
          fx, spec0.height, spec0.width);
      spec.threshold = 0.0f;  // everything matches: a dense upload stream
      spec.on_event = [c](const core::EventRecord& ev) {
        c->events.push_back(ev);
      };
      fleet.Attach(s, std::move(spec));
    }
    fleet.Run();

    // In-process reference: the captured packets fed straight to per-stream
    // receivers, no wire in between.
    for (const core::StreamHandle s : c->streams) {
      c->reference[s] = std::make_unique<core::DatacenterReceiver>(
          spec0.width, spec0.height);
    }
    for (const auto& p : c->packets) c->reference[p.stream]->Receive(p);
    return c;
  }();
  return *capture;
}

void ExpectFramesBitwiseEqual(const video::Frame& a, const video::Frame& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  const auto n = static_cast<std::size_t>(a.pixels());
  EXPECT_EQ(0, std::memcmp(a.r(), b.r(), n));
  EXPECT_EQ(0, std::memcmp(a.g(), b.g(), n));
  EXPECT_EQ(0, std::memcmp(a.b(), b.b(), n));
}

void ExpectReceiverMatchesReference(const core::DatacenterReceiver& got,
                                    const core::DatacenterReceiver& want) {
  ASSERT_EQ(got.frames_received(), want.frames_received());
  EXPECT_EQ(got.bytes_received(), want.bytes_received());
  EXPECT_EQ(got.frame_indices(), want.frame_indices());
  for (std::size_t i = 0; i < got.frames().size(); ++i) {
    ExpectFramesBitwiseEqual(got.frames()[i], want.frames()[i]);
  }
  const auto got_clips = got.Clips();
  const auto want_clips = want.Clips();
  ASSERT_EQ(got_clips.size(), want_clips.size());
  for (std::size_t i = 0; i < got_clips.size(); ++i) {
    EXPECT_EQ(got_clips[i].mc_name, want_clips[i].mc_name);
    EXPECT_EQ(got_clips[i].event_id, want_clips[i].event_id);
    EXPECT_EQ(got_clips[i].first_frame, want_clips[i].first_frame);
    EXPECT_EQ(got_clips[i].last_frame, want_clips[i].last_frame);
    EXPECT_EQ(got_clips[i].frame_slots, want_clips[i].frame_slots);
  }
}

std::vector<core::EventRecord> EventsOfStream(
    const std::vector<core::EventRecord>& events, core::StreamHandle s) {
  std::vector<core::EventRecord> out;
  for (const auto& ev : events) {
    if (ev.stream == s) out.push_back(ev);
  }
  return out;
}

// Asserts the networked path delivered exactly the in-process output:
// receivers bitwise-equal per stream, per-stream event order intact.
void VerifyDeliveryMatchesReference(const DatacenterIngest& ingest,
                                    const Capture& cap) {
  for (const core::StreamHandle s : cap.streams) {
    const core::DatacenterReceiver* got = ingest.receiver(kFleetId, s);
    ASSERT_NE(got, nullptr) << "stream " << s << " never delivered";
    ExpectReceiverMatchesReference(*got, *cap.reference.at(s));
  }
  const auto delivered = ingest.events(kFleetId);
  std::size_t total_events = 0;
  for (const core::StreamHandle s : cap.streams) {
    const auto want = EventsOfStream(cap.events, s);
    const auto got = EventsOfStream(delivered, s);
    ASSERT_EQ(got.size(), want.size()) << "stream " << s;
    total_events += got.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].begin, want[i].begin);
      EXPECT_EQ(got[i].end, want[i].end);
      EXPECT_EQ(got[i].mc, want[i].mc);
    }
  }
  EXPECT_EQ(total_events, delivered.size());
}

// Replays the capture through the uplink plane under `data_faults` on the
// edge->datacenter direction and `ack_faults` on the return path, driving
// both ends with a fake clock, and asserts bitwise equality with the
// in-process reference.
struct ReplayResult {
  UplinkStats uplink;
  IngestStats ingest;
  FaultyLink::Stats data_link;
};

ReplayResult ReplayUnderFaults(const FaultConfig& data_faults,
                               const FaultConfig& ack_faults) {
  const Capture& cap = GetCapture();
  auto [edge_end, server_end] = LocalLink::MakePair();
  FaultyLink edge_link(*edge_end, data_faults);    // breaks DATA direction
  FaultyLink server_link(*server_end, ack_faults);  // breaks ACK direction

  std::int64_t now = 0;
  UplinkConfig ucfg;
  ucfg.fleet = kFleetId;
  // Replay enqueues everything up front from this thread; blocking
  // backpressure needs a concurrent pump, so size the queue for the run.
  ucfg.queue_capacity = cap.packets.size() + cap.events.size() + 1;
  ucfg.window = 8;
  ucfg.max_payload = 600;
  ucfg.rto_ms = 20;
  ucfg.clock_ms = [&now] { return now; };
  UplinkClient uplink(edge_link, ucfg);

  DatacenterIngest ingest;
  ingest.AddFleet(kFleetId, server_link);

  // Interleave uploads and events in their original emission order so the
  // wire sees the same record sequence the in-process sinks saw.
  auto sink = uplink.sink();
  auto event_sink = uplink.event_sink();
  std::size_t pi = 0, ei = 0;
  for (const auto& p : cap.packets) {
    // Events close on frame boundaries; emit any whose end precedes the
    // next packet's frame on the same stream. (Exact interleaving does not
    // matter for correctness — per-stream order is what the plane pins —
    // but mixing the two record kinds exercises the shared path.)
    while (ei < cap.events.size() && pi % 3 == 0 && ei * 3 < pi) {
      event_sink(cap.events[ei++]);
    }
    sink(p);
    ++pi;
  }
  while (ei < cap.events.size()) event_sink(cap.events[ei++]);

  // Pump both ends until the uplink drains or we give up. Held (delayed)
  // datagrams are displaced by retransmissions; a periodic Flush models the
  // link eventually delivering its tail.
  int iters = 0;
  while (!uplink.idle() && iters < 200'000) {
    uplink.Pump(now);
    ingest.Pump();
    now += 5;
    ++iters;
    if (iters % 1000 == 0) {
      edge_link.Flush();
      server_link.Flush();
    }
  }
  edge_link.Flush();
  server_link.Flush();
  uplink.Pump(now);
  ingest.Pump();
  uplink.Pump(now);
  EXPECT_TRUE(uplink.idle()) << "uplink failed to drain under faults";

  VerifyDeliveryMatchesReference(ingest, cap);

  ReplayResult r;
  r.uplink = uplink.stats();
  r.ingest = ingest.stats();
  r.data_link = edge_link.stats();
  return r;
}

// Cross-camera records and wire-format tolerance, straight through the
// datagram plane: a kXEvent record lands in xevents(), a tombstone upload
// reaches its stream's receiver as metadata-only, and a legacy (pre-xcam)
// event record decodes with defaults and bumps the legacy counter instead
// of poisoning the stream.
TEST(NetIngest, XEventsTombstonesAndLegacyRecordsDeliver) {
  auto [edge_end, server_end] = LocalLink::MakePair();
  DatacenterIngest ingest;
  ingest.AddFleet(kFleetId, *server_end);

  std::uint64_t wire_seq = 0;
  auto send = [&](std::int64_t stream, std::uint64_t record_seq,
                  const std::string& record) {
    for (DataFrame f : FragmentRecord(kFleetId, stream, record_seq, record,
                                      600)) {
      f.wire_seq = wire_seq++;
      edge_end->Send(EncodeFrame(f));
    }
  };

  core::UploadPacket tomb;
  tomb.stream = 3;
  tomb.frame_index = 0;
  tomb.frame_width = 32;
  tomb.frame_height = 32;
  tomb.tombstone = true;
  tomb.metadata.frame_index = 0;
  tomb.metadata.memberships.emplace_back("mc0", 9);
  send(3, 0, EncodeUploadRecord(tomb));

  core::EventRecord ev;
  ev.id = 9;
  ev.begin = 0;
  ev.end = 4;
  ev.stream = 3;
  ev.mc = "mc0";
  ev.begin_ts_ns = 1'000;
  ev.end_ts_ns = 2'000;
  std::string legacy_bytes = EncodeEventRecord(ev);
  legacy_bytes.resize(legacy_bytes.size() - 16);  // pre-xcam encoder output
  send(3, 1, legacy_bytes);
  send(3, 2, EncodeEventRecord(ev));

  xcam::CrossEventRecord xev;
  xev.global_id = 4;
  xev.canonical = 0;
  xev.begin_ts_ns = 1'000;
  xev.end_ts_ns = 2'000;
  xcam::CrossMember m;
  m.stream = 3;
  m.mc = "mc0";
  m.event_id = 9;
  m.begin = 0;
  m.end = 4;
  m.begin_ts_ns = 1'000;
  m.end_ts_ns = 2'000;
  m.peak_score = 0.9f;
  m.priority = 2;
  xev.members.push_back(m);
  send(-1, 0, EncodeXEventRecord(xev));

  ingest.Pump();
  const IngestStats stats = ingest.stats();
  EXPECT_EQ(stats.records_completed, 4);
  EXPECT_EQ(stats.events_delivered, 2);
  EXPECT_EQ(stats.xevents_delivered, 1);
  EXPECT_EQ(stats.legacy_records, 1);
  EXPECT_EQ(stats.uploads_delivered, 1);
  EXPECT_EQ(stats.bad_records, 0);

  const core::DatacenterReceiver* rx = ingest.receiver(kFleetId, 3);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->tombstones_received(), 1);
  EXPECT_EQ(rx->frames_received(), 0);

  const auto events = ingest.events(kFleetId);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].begin_ts_ns, -1);  // legacy record: defaulted bounds
  EXPECT_EQ(events[0].end_ts_ns, -1);
  EXPECT_EQ(events[1].begin_ts_ns, 1'000);
  EXPECT_EQ(events[1].end_ts_ns, 2'000);

  const auto xevents = ingest.xevents(kFleetId);
  ASSERT_EQ(xevents.size(), 1u);
  EXPECT_EQ(xevents[0].global_id, 4);
  ASSERT_EQ(xevents[0].members.size(), 1u);
  EXPECT_EQ(xevents[0].members[0].event_id, 9);
  EXPECT_EQ(xevents[0].members[0].priority, 2);
}

// A chunk that decodes to garbage is untrusted input like any other: the
// ingest refuses and counts it, Pump() returns, the stream's P-frames that
// follow are refused too (their reference is gone), the stream resumes at
// its next I-frame, and the other stream's frames are untouched.
TEST(NetIngest, RefusedChunkIsCountedAndTheStreamResumesAtItsNextIFrame) {
  constexpr std::int64_t kFrames = 10;
  const video::SyntheticDataset ds(video::JacksonSpec(64, kFrames, 73));
  const std::int64_t w = ds.spec().width, h = ds.spec().height;
  auto [edge_end, server_end] = LocalLink::MakePair();
  DatacenterIngest ingest;
  ingest.AddFleet(kFleetId, *server_end);

  // Two streams of the same clip, I-frames at 0, 4 and 8. Stream 1's
  // frame 1 is mutated to zeros, which no decoder accepts.
  std::map<std::int64_t, std::unique_ptr<core::DatacenterReceiver>> clean;
  std::vector<std::uint64_t> chunk_bytes;  // stream 1's, per frame
  std::uint64_t wire_seq = 0;
  for (const std::int64_t stream : {0, 1}) {
    clean[stream] = std::make_unique<core::DatacenterReceiver>(w, h);
    codec::EncoderConfig cfg{.width = w, .height = h};
    cfg.gop_size = 4;
    codec::Encoder enc(cfg);
    for (std::int64_t t = 0; t < kFrames; ++t) {
      core::UploadPacket p;
      p.stream = stream;
      p.frame_index = t;
      p.frame_width = w;
      p.frame_height = h;
      p.chunk = enc.EncodeFrame(ds.RenderFrame(t));
      p.metadata.frame_index = t;
      p.metadata.memberships.emplace_back("mc", 1);
      clean[stream]->Receive(p);
      if (stream == 1) chunk_bytes.push_back(p.chunk.size());
      if (stream == 1 && t == 1) {
        ASSERT_FALSE(enc.last_stats().is_iframe);
        p.chunk.assign(p.chunk.size(), '\0');
      }
      for (DataFrame f : FragmentRecord(kFleetId, stream,
                                        static_cast<std::uint64_t>(t),
                                        EncodeUploadRecord(p), 600)) {
        f.wire_seq = wire_seq++;
        edge_end->Send(EncodeFrame(f));
      }
    }
  }

  EXPECT_GT(ingest.Pump(), 0u);
  const IngestStats stats = ingest.stats();
  EXPECT_EQ(stats.bad_records, 3);  // the mutated frame 1, then P-frames 2, 3
  EXPECT_EQ(stats.uploads_delivered, 2 * kFrames - 3);

  const core::DatacenterReceiver* intact = ingest.receiver(kFleetId, 0);
  ASSERT_NE(intact, nullptr);
  ExpectReceiverMatchesReference(*intact, *clean[0]);

  const core::DatacenterReceiver* hit = ingest.receiver(kFleetId, 1);
  ASSERT_NE(hit, nullptr);
  const std::vector<std::int64_t> kept = {0, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(hit->frame_indices(), kept);
  std::uint64_t kept_bytes = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const auto t = static_cast<std::size_t>(kept[i]);
    ExpectFramesBitwiseEqual(hit->frames()[i], clean[1]->frames()[t]);
    kept_bytes += chunk_bytes[t];
  }
  EXPECT_EQ(hit->bytes_received(), kept_bytes);  // refused chunks count none
  const auto clips = hit->Clips();
  ASSERT_EQ(clips.size(), 1u);
  EXPECT_EQ(clips[0].first_frame, 0);
  EXPECT_EQ(clips[0].last_frame, kFrames - 1);
  EXPECT_EQ(clips[0].frame_slots.size(), kept.size());
}

TEST(NetIngest, CleanLinkMatchesInProcessBitwise) {
  const ReplayResult r = ReplayUnderFaults({}, {});
  EXPECT_EQ(r.uplink.retransmits, 0);
  EXPECT_EQ(r.ingest.corrupt_datagrams, 0);
  EXPECT_EQ(r.ingest.duplicate_frames, 0);
}

TEST(NetIngest, TenPercentLossMatchesBitwise) {
  FaultConfig f;
  f.drop = 0.10;
  f.seed = 201;
  const ReplayResult r = ReplayUnderFaults(f, {});
  EXPECT_GT(r.data_link.dropped, 0);
  EXPECT_GT(r.uplink.retransmits, 0);  // loss is recovered, not ignored
}

TEST(NetIngest, HalfLossBothDirectionsMatchesBitwise) {
  FaultConfig data;
  data.drop = 0.50;
  data.seed = 202;
  FaultConfig ack;
  ack.drop = 0.50;
  ack.seed = 203;
  const ReplayResult r = ReplayUnderFaults(data, ack);
  EXPECT_GT(r.uplink.retransmits, r.uplink.frames_sent / 2);
  // Lost acks force duplicate data deliveries; ingest must absorb them.
  EXPECT_GT(r.ingest.duplicate_frames, 0);
}

TEST(NetIngest, ReorderingMatchesBitwise) {
  FaultConfig f;
  f.reorder = 0.5;
  f.delay_window = 12;
  f.seed = 204;
  const ReplayResult r = ReplayUnderFaults(f, {});
  EXPECT_GT(r.data_link.reordered, 0);
}

TEST(NetIngest, DuplicationMatchesBitwise) {
  FaultConfig f;
  f.duplicate = 0.30;
  f.seed = 205;
  const ReplayResult r = ReplayUnderFaults(f, {});
  EXPECT_GT(r.data_link.duplicated, 0);
  EXPECT_GT(r.ingest.duplicate_frames, 0);
}

TEST(NetIngest, CorruptionMatchesBitwise) {
  FaultConfig f;
  f.corrupt = 0.20;
  f.seed = 206;
  const ReplayResult r = ReplayUnderFaults(f, {});
  EXPECT_GT(r.data_link.corrupted, 0);
  // Every corrupted datagram was caught by the checksum, none delivered.
  EXPECT_GE(r.ingest.corrupt_datagrams, r.data_link.corrupted);
}

TEST(NetIngest, EverythingAtOnceMatchesBitwise) {
  FaultConfig data;
  data.drop = 0.15;
  data.duplicate = 0.10;
  data.corrupt = 0.10;
  data.reorder = 0.25;
  data.delay_window = 6;
  data.seed = 207;
  FaultConfig ack;
  ack.drop = 0.15;
  ack.corrupt = 0.10;
  ack.seed = 208;
  const ReplayResult r = ReplayUnderFaults(data, ack);
  EXPECT_GT(r.uplink.retransmits, 0);
}

TEST(NetIngest, RejectsWrongFleetFrames) {
  auto [edge_end, server_end] = LocalLink::MakePair();
  std::int64_t now = 0;
  UplinkConfig ucfg;
  ucfg.fleet = kFleetId + 1;  // not the id the ingest registered
  ucfg.clock_ms = [&now] { return now; };
  UplinkClient uplink(*edge_end, ucfg);
  DatacenterIngest ingest;
  ingest.AddFleet(kFleetId, *server_end);

  core::EventRecord ev;
  ev.id = 1;
  ev.stream = 0;
  uplink.EnqueueEvent(ev);
  uplink.Pump(now);
  ingest.Pump();
  EXPECT_EQ(ingest.stats().unroutable, 1);
  EXPECT_EQ(ingest.stats().acks_sent, 0);  // unroutable frames get no ack
  EXPECT_TRUE(ingest.events(kFleetId).empty());
}

// The async-threaded path under loss: the uplink's pump thread and a
// concurrently pumping ingest, real clock. This is the configuration the
// TSan CI leg exercises for data races.
TEST(NetIngest, ThreadedUplinkUnderLossDeliversEverything) {
  const Capture& cap = GetCapture();
  auto [edge_end, server_end] = LocalLink::MakePair();
  FaultConfig f;
  f.drop = 0.10;
  f.seed = 209;
  FaultyLink edge_link(*edge_end, f);

  UplinkConfig ucfg;
  ucfg.fleet = kFleetId;
  ucfg.queue_capacity = 8;  // small: the blocking sink must backpressure
  ucfg.window = 8;
  ucfg.max_payload = 600;
  ucfg.rto_ms = 5;
  ucfg.pump_interval_ms = 1;
  UplinkClient uplink(edge_link, ucfg);
  DatacenterIngest ingest;
  ingest.AddFleet(kFleetId, *server_end);

  std::atomic<bool> stop_ingest{false};
  std::thread ingest_thread([&] {
    while (!stop_ingest.load()) {
      ingest.Pump();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ingest.Pump();
  });

  uplink.Start();
  auto sink = uplink.sink();
  for (const auto& p : cap.packets) sink(p);  // blocks when the queue fills
  ASSERT_TRUE(uplink.WaitIdle(/*timeout_ms=*/60'000));
  uplink.Stop();
  stop_ingest = true;
  ingest_thread.join();
  ingest.Pump();

  for (const core::StreamHandle s : cap.streams) {
    const core::DatacenterReceiver* got = ingest.receiver(kFleetId, s);
    ASSERT_NE(got, nullptr);
    ExpectReceiverMatchesReference(*got, *cap.reference.at(s));
  }
  EXPECT_EQ(ingest.stats().uploads_delivered,
            static_cast<std::int64_t>(cap.packets.size()));
}

}  // namespace
}  // namespace ff::net
