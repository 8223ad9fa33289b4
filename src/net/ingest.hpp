// The datacenter side of the uplink plane: one DatacenterIngest server
// multiplexes many edge fleets' uplinks, each over its own Link end, and
// turns lossy, reordered, duplicated, corrupt datagram delivery back into
// the exact in-process stream core::DatacenterReceiver expects.
//
// Per valid DATA frame the server (1) acks its wire_seq — always, including
// duplicates, so a lost ack cannot wedge the sender — and (2) files the
// fragment under (fleet, stream, record_seq). A record completes when all
// frag_count fragments are present; completed records are DELIVERED IN
// record_seq ORDER per stream (out-of-order completions are held), which
// restores both the frame order the receiver's stateful codec decoder
// needs and the event order applications see. Upload records feed a
// per-stream DatacenterReceiver (created on the stream's first delivery,
// geometry from the record header); event records append to the fleet's
// event log.
//
// Corrupt datagrams (checksum/parse failures) are counted and dropped —
// the sender's retransmission recovers the content. Per-stream reassembly
// state holds only records at or past the delivery cursor that are still
// incomplete or waiting on a gap; it is bounded by how far the sender's
// window runs ahead of its oldest unacked frame, and duplicate/ordering
// bookkeeping never grows with loss rate or stream length.
//
// DEMAND-FETCH (paper §3.2): the ingest is also the datacenter-side client
// of the edge archive. RequestClip() sends a FetchRequest frame down the
// fleet's link; fetch frames are fire-and-forget like acks, so Pump()
// re-sends every unanswered request on a fixed pump cadence until the
// matching ClipRecord arrives on the reliable record path (the edge dedups
// re-sent request_ids). TakeFetched() hands the completed clip — refusals
// included — to the caller exactly once.
//
// Pump() drains every registered link and is single-threaded; all public
// methods are serialized on one internal mutex, so stats/accessors may be
// read while another thread pumps.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/datacenter.hpp"
#include "core/events.hpp"
#include "net/link.hpp"
#include "net/wire.hpp"
#include "video/frame.hpp"

namespace ff::net {

struct IngestStats {
  std::int64_t datagrams = 0;          // polled off all links
  std::int64_t data_frames = 0;        // valid DATA frames accepted
  std::int64_t corrupt_datagrams = 0;  // failed checksum/parse, dropped
  std::int64_t unroutable = 0;         // valid frame, fleet id mismatch
  std::int64_t duplicate_frames = 0;   // already-seen fragment/record
  std::int64_t acks_sent = 0;
  std::int64_t records_completed = 0;  // fully reassembled
  std::int64_t uploads_delivered = 0;  // fed to a DatacenterReceiver
  std::int64_t events_delivered = 0;
  std::int64_t xevents_delivered = 0;  // cross-camera fused events
  std::int64_t bad_records = 0;        // reassembled but undecodable, or
                                       // an upload its receiver refused
  std::int64_t legacy_records = 0;     // pre-xcam encoder, fields defaulted
  std::int64_t fetch_requests = 0;     // RequestClip calls
  std::int64_t fetch_retransmits = 0;  // re-sent unanswered requests
  std::int64_t clips_delivered = 0;    // ClipRecords completed
  std::uint64_t wire_bytes = 0;        // datagram bytes polled
};

// A completed demand-fetch. ok == false means the edge refused (range
// evicted/never recorded, or the stream is unknown there); otherwise chunks
// holds one bitstream chunk per frame of the served range [begin, end).
struct FetchedClip {
  bool ok = false;
  std::int64_t stream = -1;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t width = 0;
  std::int64_t height = 0;
  std::vector<std::string> chunks;

  // Decodes the chunks back to pixels (a clip always opens with an
  // I-frame, so it replays like a receiver's frames). Requires ok.
  std::vector<video::Frame> DecodeFrames() const;
};

class DatacenterIngest {
 public:
  DatacenterIngest() = default;
  DatacenterIngest(const DatacenterIngest&) = delete;
  DatacenterIngest& operator=(const DatacenterIngest&) = delete;

  // Registers one fleet's uplink. `link` is the ingest-side end of the
  // channel to that fleet's UplinkClient and must outlive this server.
  // Frames arriving on the link with a different fleet id are counted
  // unroutable and dropped.
  void AddFleet(std::uint64_t fleet, Link& link);

  // Drains every registered fleet's link (decode, ack, reassemble, deliver),
  // then re-sends unanswered fetch requests past their pump cadence.
  // Returns the number of datagrams processed.
  std::size_t Pump();

  // Demand-fetches frames [begin, end) of one stream's edge archive at the
  // given re-encode parameters (both must be positive — checked loudly; the
  // fleet must be registered). Sends immediately; Pump() re-sends until the
  // clip record arrives. Returns the request_id to poll TakeFetched with.
  std::uint64_t RequestClip(std::uint64_t fleet, std::int64_t stream,
                            std::int64_t begin, std::int64_t end,
                            std::int64_t bitrate_bps = 500'000,
                            std::int64_t fps = 15);

  // Takes the completed clip for `request_id` out of the ingest (one-shot:
  // a second call returns nullopt). nullopt while still unanswered.
  std::optional<FetchedClip> TakeFetched(std::uint64_t request_id);

  // Per-(fleet, stream) receiver; nullptr until the stream's first upload
  // record is delivered. The pointer stays valid for the server's lifetime.
  const core::DatacenterReceiver* receiver(std::uint64_t fleet,
                                           std::int64_t stream) const;
  // Streams of `fleet` that have delivered at least one record, ascending.
  std::vector<std::int64_t> streams(std::uint64_t fleet) const;
  // Event records of `fleet` in delivery order (per stream this is the
  // edge's emission order; across streams it is completion order).
  std::vector<core::EventRecord> events(std::uint64_t fleet) const;
  // Cross-camera fused events of `fleet` in delivery order (the edge
  // correlator's deterministic emission order — they ride one lane).
  std::vector<xcam::CrossEventRecord> xevents(std::uint64_t fleet) const;

  IngestStats stats() const;

 private:
  struct PartialRecord {
    std::uint32_t frag_count = 0;
    std::uint32_t received = 0;
    std::vector<std::string> frags;  // by frag_index; empty = missing
    std::vector<bool> present;
  };
  struct StreamState {
    std::uint64_t next_record_seq = 0;  // delivery cursor
    std::map<std::uint64_t, PartialRecord> partials;
    std::unique_ptr<core::DatacenterReceiver> receiver;
    std::int64_t width = 0, height = 0;  // pinned at first delivery
  };
  struct FleetState {
    Link* link = nullptr;
    std::map<std::int64_t, StreamState> streams;
    std::vector<core::EventRecord> events;
    std::vector<xcam::CrossEventRecord> xevents;
  };

  struct PendingFetch {
    FetchRequest req;
    std::int64_t pumps_since_send = 0;
  };

  // All private helpers run under mu_.
  void HandleDatagram(std::uint64_t fleet, FleetState& fs,
                      const std::string& datagram);
  void FileFragment(FleetState& fs, DataFrame frame);
  void DeliverReady(FleetState& fs, StreamState& ss);
  void DeliverRecord(FleetState& fs, StreamState& ss,
                     const std::string& record);
  void ResendFetches();

  mutable std::mutex mu_;
  std::map<std::uint64_t, FleetState> fleets_;
  std::uint64_t next_request_id_ = 1;
  std::map<std::uint64_t, PendingFetch> pending_fetches_;   // by request_id
  std::map<std::uint64_t, FetchedClip> completed_fetches_;  // by request_id
  IngestStats stats_;
};

}  // namespace ff::net
