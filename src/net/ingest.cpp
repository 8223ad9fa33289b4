#include "net/ingest.hpp"

#include <numeric>
#include <utility>

#include "codec/codec.hpp"
#include "util/check.hpp"

namespace ff::net {

namespace {
// Re-send an unanswered fetch request every this many Pump() calls. Fetch
// frames are fire-and-forget; this is their whole loss-recovery story.
constexpr std::int64_t kFetchResendPumps = 4;
}  // namespace

std::vector<video::Frame> FetchedClip::DecodeFrames() const {
  FF_CHECK_MSG(ok, "DecodeFrames on a refused clip");
  codec::ChunkReplay replay(width, height);
  std::vector<video::Frame> frames;
  frames.reserve(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    frames.push_back(replay.Decode(chunks, i));
  }
  return frames;
}

void DatacenterIngest::AddFleet(std::uint64_t fleet, Link& link) {
  std::lock_guard<std::mutex> lock(mu_);
  FF_CHECK_MSG(fleets_.find(fleet) == fleets_.end(),
               "fleet " << fleet << " already registered");
  fleets_[fleet].link = &link;
}

std::size_t DatacenterIngest::Pump() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (auto& [fleet, fs] : fleets_) {
    while (auto datagram = fs.link->Poll()) {
      ++n;
      ++stats_.datagrams;
      stats_.wire_bytes += datagram->size();
      HandleDatagram(fleet, fs, *datagram);
    }
  }
  ResendFetches();
  return n;
}

std::uint64_t DatacenterIngest::RequestClip(std::uint64_t fleet,
                                            std::int64_t stream,
                                            std::int64_t begin,
                                            std::int64_t end,
                                            std::int64_t bitrate_bps,
                                            std::int64_t fps) {
  FF_CHECK_GT(bitrate_bps, 0);
  FF_CHECK_GT(fps, 0);
  std::lock_guard<std::mutex> lock(mu_);
  const auto fit = fleets_.find(fleet);
  FF_CHECK_MSG(fit != fleets_.end(), "fleet " << fleet << " not registered");
  FetchRequest req;
  req.fleet = fleet;
  req.stream = stream;
  req.request_id = next_request_id_++;
  req.begin = begin;
  req.end = end;
  req.bitrate_bps = bitrate_bps;
  req.fps = fps;
  fit->second.link->Send(EncodeFrame(req));
  ++stats_.fetch_requests;
  pending_fetches_[req.request_id] = PendingFetch{req, 0};
  return req.request_id;
}

void DatacenterIngest::ResendFetches() {
  for (auto& [id, pending] : pending_fetches_) {
    if (++pending.pumps_since_send < kFetchResendPumps) continue;
    pending.pumps_since_send = 0;
    const auto fit = fleets_.find(pending.req.fleet);
    if (fit == fleets_.end()) continue;
    fit->second.link->Send(EncodeFrame(pending.req));
    ++stats_.fetch_retransmits;
  }
}

std::optional<FetchedClip> DatacenterIngest::TakeFetched(
    std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = completed_fetches_.find(request_id);
  if (it == completed_fetches_.end()) return std::nullopt;
  FetchedClip clip = std::move(it->second);
  completed_fetches_.erase(it);
  return clip;
}

void DatacenterIngest::HandleDatagram(std::uint64_t fleet, FleetState& fs,
                                      const std::string& datagram) {
  DecodedFrame frame;
  const DecodeResult res = DecodeFrame(datagram, &frame);
  if (!res.ok()) {
    // Truncated or corrupt: the payload is unrecoverable and unattributable
    // (the checksum is what tells us the ids are trustworthy), so the only
    // safe move is to drop it and let the sender's retransmission recover.
    ++stats_.corrupt_datagrams;
    return;
  }
  if (frame.type != FrameType::kData) return;  // acks never arrive here
  if (frame.data.fleet != fleet) {
    ++stats_.unroutable;
    return;
  }
  ++stats_.data_frames;
  // Ack first, unconditionally — duplicates included. The peer retransmits
  // exactly until an ack survives the return path, so re-acking duplicates
  // is what terminates the loop when the ORIGINAL ack was the casualty.
  fs.link->Send(EncodeFrame(AckFrame{fleet, frame.data.wire_seq}));
  ++stats_.acks_sent;
  FileFragment(fs, std::move(frame.data));
}

void DatacenterIngest::FileFragment(FleetState& fs, DataFrame frame) {
  StreamState& ss = fs.streams[frame.stream];
  if (frame.record_seq < ss.next_record_seq) {
    ++stats_.duplicate_frames;  // record already delivered
    return;
  }
  PartialRecord& pr = ss.partials[frame.record_seq];
  if (pr.frag_count == 0) {
    pr.frag_count = frame.frag_count;
    pr.frags.resize(frame.frag_count);
    pr.present.assign(frame.frag_count, false);
  } else if (pr.frag_count != frame.frag_count) {
    // Same record, contradictory geometry: one of the two frames lied
    // despite its checksum. Keep the first story; drop the contradiction.
    ++stats_.corrupt_datagrams;
    return;
  }
  if (frame.frag_index >= pr.frag_count ||
      pr.present[frame.frag_index]) {
    ++stats_.duplicate_frames;
    return;
  }
  pr.present[frame.frag_index] = true;
  pr.frags[frame.frag_index] = std::move(frame.payload);
  ++pr.received;
  if (pr.received == pr.frag_count &&
      frame.record_seq == ss.next_record_seq) {
    DeliverReady(fs, ss);
  }
}

void DatacenterIngest::DeliverReady(FleetState& fs, StreamState& ss) {
  // Deliver the contiguous run of complete records at the cursor; a
  // completion out of order waits here until the gap before it fills.
  for (auto it = ss.partials.find(ss.next_record_seq);
       it != ss.partials.end() && it->second.received == it->second.frag_count;
       it = ss.partials.find(ss.next_record_seq)) {
    std::string record;
    record.reserve(std::accumulate(
        it->second.frags.begin(), it->second.frags.end(), std::size_t{0},
        [](std::size_t acc, const std::string& f) { return acc + f.size(); }));
    for (const std::string& f : it->second.frags) record += f;
    ss.partials.erase(it);
    ++ss.next_record_seq;
    ++stats_.records_completed;
    DeliverRecord(fs, ss, record);
  }
}

void DatacenterIngest::DeliverRecord(FleetState& fs, StreamState& ss,
                                     const std::string& record) {
  DecodedRecord rec;
  const DecodeResult res = DecodeRecord(record, &rec);
  if (!res.ok()) {
    // Possible only via a checksum collision or a buggy sender; count it
    // loudly and keep the stream moving (the cursor already advanced).
    ++stats_.bad_records;
    return;
  }
  if (rec.legacy) ++stats_.legacy_records;
  if (rec.type == RecordType::kEvent) {
    fs.events.push_back(std::move(rec.event));
    ++stats_.events_delivered;
    return;
  }
  if (rec.type == RecordType::kXEvent) {
    fs.xevents.push_back(std::move(rec.xevent));
    ++stats_.xevents_delivered;
    return;
  }
  if (rec.type == RecordType::kClip) {
    ClipRecord& clip = rec.clip;
    // A clip answering a request we never made (or already took) is stale —
    // e.g. the edge's dedup window forgot a drop-then-reserve pair. Count
    // delivery either way; record it only when someone is waiting.
    if (pending_fetches_.erase(clip.request_id) > 0) {
      FetchedClip out;
      out.ok = clip.ok;
      out.stream = clip.stream;
      out.begin = clip.begin;
      out.end = clip.end;
      out.width = clip.width;
      out.height = clip.height;
      out.chunks = std::move(clip.chunks);
      completed_fetches_[clip.request_id] = std::move(out);
    }
    ++stats_.clips_delivered;
    return;
  }
  core::UploadPacket& p = rec.upload;
  if (ss.receiver == nullptr) {
    if (p.frame_width <= 0 || p.frame_height <= 0) {
      ++stats_.bad_records;
      return;
    }
    ss.width = p.frame_width;
    ss.height = p.frame_height;
    ss.receiver = std::make_unique<core::DatacenterReceiver>(p.frame_width,
                                                             p.frame_height);
  } else if (p.frame_width != ss.width || p.frame_height != ss.height) {
    // A stream cannot change geometry mid-flight; refuse the packet rather
    // than corrupt the receiver's decoder state.
    ++stats_.bad_records;
    return;
  }
  try {
    ss.receiver->Receive(p);
  } catch (const util::CheckError&) {
    // A chunk the decoder refuses, or a P-frame after one: count it and
    // keep pumping. The receiver dropped its reference, so the stream
    // resumes at its next I-frame; the other streams never notice.
    ++stats_.bad_records;
    return;
  }
  ++stats_.uploads_delivered;
}

const core::DatacenterReceiver* DatacenterIngest::receiver(
    std::uint64_t fleet, std::int64_t stream) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto fit = fleets_.find(fleet);
  if (fit == fleets_.end()) return nullptr;
  const auto sit = fit->second.streams.find(stream);
  if (sit == fit->second.streams.end()) return nullptr;
  return sit->second.receiver.get();
}

std::vector<std::int64_t> DatacenterIngest::streams(
    std::uint64_t fleet) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> out;
  const auto fit = fleets_.find(fleet);
  if (fit == fleets_.end()) return out;
  for (const auto& [stream, ss] : fit->second.streams) {
    if (ss.next_record_seq > 0) out.push_back(stream);
  }
  return out;
}

std::vector<core::EventRecord> DatacenterIngest::events(
    std::uint64_t fleet) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto fit = fleets_.find(fleet);
  if (fit == fleets_.end()) return {};
  return fit->second.events;
}

std::vector<xcam::CrossEventRecord> DatacenterIngest::xevents(
    std::uint64_t fleet) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto fit = fleets_.find(fleet);
  if (fit == fleets_.end()) return {};
  return fit->second.xevents;
}

IngestStats DatacenterIngest::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ff::net
