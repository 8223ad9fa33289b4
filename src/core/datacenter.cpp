#include "core/datacenter.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ff::core {

DatacenterReceiver::DatacenterReceiver(std::int64_t frame_width,
                                       std::int64_t frame_height)
    : width_(frame_width),
      height_(frame_height),
      decoder_(frame_width, frame_height) {}

video::Frame DatacenterReceiver::FrameView::operator[](std::size_t slot) const {
  video::Frame frame = replay_.Decode(rx_->chunks_, slot);
  frame.index = rx_->frame_indices_[slot];
  return frame;
}

void DatacenterReceiver::Receive(const UploadPacket& packet) {
  FF_CHECK_MSG(packet.frame_index > last_index_,
               "packets must arrive in frame order (got "
                   << packet.frame_index << " after " << last_index_ << ")");
  FF_CHECK_EQ(packet.frame_index, packet.metadata.frame_index);

  // Tombstones carry metadata only: the clip was suppressed by cross-camera
  // dedupe (its canonical view arrives on another stream's receiver). The
  // decoder must not see them — suppressed frames were never encoded, and
  // the next real upload restarts with an I-frame.
  std::size_t slot = static_cast<std::size_t>(-1);
  if (packet.tombstone) {
    FF_CHECK_MSG(packet.chunk.empty(), "tombstone packets carry no bitstream");
    ++tombstones_received_;
  } else {
    // The decode validates the chunk and advances the stream's reference;
    // the pixels are dropped, and frames() decodes them again when read.
    try {
      decoder_.DecodeFrame(packet.chunk);
    } catch (const util::CheckError&) {
      decoder_.DropReference();
      throw;
    }
    chunks_.push_back(packet.chunk);
    frame_indices_.push_back(packet.frame_index);
    slot = chunks_.size() - 1;
  }
  last_index_ = packet.frame_index;
  bytes_received_ += packet.chunk.size();

  for (const auto& [mc_name, event_id] : packet.metadata.memberships) {
    const auto key = std::make_pair(mc_name, event_id);
    auto it = clips_.find(key);
    if (it == clips_.end()) {
      EventClip clip;
      clip.mc_name = mc_name;
      clip.event_id = event_id;
      clip.first_frame = packet.frame_index;
      it = clips_.emplace(key, std::move(clip)).first;
    }
    it->second.last_frame = packet.frame_index;
    if (!packet.tombstone) it->second.frame_slots.push_back(slot);
  }
}

std::vector<DatacenterReceiver::EventClip> DatacenterReceiver::Clips() const {
  std::vector<EventClip> clips;
  clips.reserve(clips_.size());
  for (const auto& [key, clip] : clips_) clips.push_back(clip);
  return clips;
}

}  // namespace ff::core
