// Datacenter side of the edge-to-cloud loop (paper Fig. 1, right half).
//
// The edge pipeline streams matched frames as codec chunks with per-frame
// metadata (which MC matched, which event the frame belongs to). The
// receiver decodes the uplink stream and reassembles per-(application,
// event) clips — what a datacenter analytics application consumes. Event
// IDs in frame metadata "are used by applications to determine the event
// boundaries" (paper §3.5); this module is that consumer.
//
// What is retained: the bitstream, not pixels. Receive() decodes every chunk
// (the decode validates it and advances the stream's reference), drops the
// pixels and keeps only the accepted chunk: hundreds of bytes to a few KB,
// where its decoded frame is ~110 KB at 256x144. frames() decodes a slot
// when it is read: it replays from the slot's I-frame, so a read costs up
// to one GOP of decodes, and a view read in slot order decodes each chunk
// once. Reads must not race Receive(), the same contract a reference into
// a growing vector has.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "core/events.hpp"
#include "video/frame.hpp"

namespace ff::core {

// One uploaded frame as it crosses the wide-area link.
struct UploadPacket {
  // Originating stream (core::StreamHandle) — an EdgeFleet shares one
  // uplink sink across cameras and the receiver side demultiplexes on
  // this (frame_index is stream-local; feed each stream its own
  // DatacenterReceiver, whose decoder state is per-stream).
  std::int64_t stream = -1;
  std::int64_t frame_index = -1;
  // Stream geometry, the "container header" a networked receiver needs to
  // construct its decoder (DatacenterReceiver's ctor takes it out-of-band;
  // net::DatacenterIngest reads it from here). Filled by the fleet; zero
  // for hand-built in-process packets that never cross a wire.
  std::int64_t frame_width = 0;
  std::int64_t frame_height = 0;
  // Cross-camera dedupe (xcam plane): a tombstone ships METADATA ONLY — the
  // chunk is empty because every event this frame belongs to was fused into
  // a cross-camera group whose canonical view is another stream. The full
  // clip stays in the edge archive and remains demand-fetchable.
  bool tombstone = false;
  std::string chunk;       // codec bitstream for this frame (tombstone: empty)
  FrameMetadata metadata;  // (MC -> event id) memberships
};

class DatacenterReceiver {
 public:
  DatacenterReceiver(std::int64_t frame_width, std::int64_t frame_height);

  // Feeds the next packet (packets arrive in frame order). Throws
  // util::CheckError on a packet out of order or a chunk the decoder
  // refuses; a refused packet counts nowhere. A refused chunk also drops
  // the decoder's reference, so the stream's P-frames are refused until its
  // next I-frame instead of decoding against a stale reference.
  void Receive(const UploadPacket& packet);

  // A contiguous run of received frames belonging to one (MC, event).
  struct EventClip {
    std::string mc_name;
    std::int64_t event_id = -1;
    std::int64_t first_frame = -1;  // original stream indices
    std::int64_t last_frame = -1;   // inclusive
    std::vector<std::size_t> frame_slots;  // indices into frames()
  };

  // Clips observed so far, grouped per MC in (mc, event id) order.
  std::vector<EventClip> Clips() const;

  // The received frames in arrival order (frame_slots index into this),
  // decoded on read. A view holds its own one-frame cache, so separate
  // views may be read concurrently but one view may not; it must not
  // outlive its receiver.
  class FrameView {
   public:
    std::size_t size() const { return rx_->chunks_.size(); }
    // The frame in `slot`, with its stream index.
    video::Frame operator[](std::size_t slot) const;

   private:
    friend class DatacenterReceiver;
    explicit FrameView(const DatacenterReceiver& rx)
        : rx_(&rx), replay_(rx.width_, rx.height_) {}

    const DatacenterReceiver* rx_;
    mutable codec::ChunkReplay replay_;
  };
  FrameView frames() const { return FrameView(*this); }
  const std::vector<std::int64_t>& frame_indices() const {
    return frame_indices_;
  }

  std::uint64_t bytes_received() const { return bytes_received_; }
  std::int64_t frames_received() const {
    return static_cast<std::int64_t>(chunks_.size());
  }
  // Metadata-only packets whose clip was suppressed by cross-camera dedupe.
  std::int64_t tombstones_received() const { return tombstones_received_; }

 private:
  std::int64_t width_, height_;
  codec::Decoder decoder_;
  std::vector<std::string> chunks_;  // the accepted chunks, by slot
  std::vector<std::int64_t> frame_indices_;
  // (mc, event id) -> clip under assembly.
  std::map<std::pair<std::string, std::int64_t>, EventClip> clips_;
  std::uint64_t bytes_received_ = 0;
  std::int64_t last_index_ = -1;
  std::int64_t tombstones_received_ = 0;
};

}  // namespace ff::core
