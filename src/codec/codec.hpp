// A block-transform video codec — the H.264 stand-in (see
// docs/ARCHITECTURE.md, "Codec: the H.264 stand-in").
//
// Structure per frame:
//   * I-frames: every macroblock is intra-coded against a flat 128
//     prediction (the DC coefficient carries the block mean).
//   * P-frames: per-16x16-macroblock diamond motion search on luma against
//     the previous *reconstructed* frame, skip mode for static blocks,
//     DCT + flat quantization of the residual, Exp-Golomb entropy coding.
//   * Closed-loop rate control nudges QP each frame toward a target bitrate.
//
// The encoder's reference frame is produced by the same reconstruction code
// path the decoder runs, so encode->decode round trips are exact (tested).
// What matters for the paper's experiments is that (a) bits are really
// counted, and (b) lowering bitrate destroys small/fine details first —
// both properties of this design.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "codec/yuv.hpp"
#include "video/frame.hpp"

namespace ff::codec {

struct EncoderConfig {
  std::int64_t width = 0;
  std::int64_t height = 0;
  std::int64_t fps = 15;
  // Target bitrate in bits/second; 0 disables rate control (constant QP).
  double target_bitrate_bps = 0;
  int initial_qp = 32;
  int min_qp = 2;
  int max_qp = 50;
  // I-frame cadence. 15 = one intra refresh per second at 15 fps.
  int gop_size = 15;
  // Motion search range in pixels (each direction).
  int search_range = 12;
};

struct FrameStats {
  bool is_iframe = false;
  int qp = 0;
  std::uint64_t bytes = 0;
  std::int64_t skip_blocks = 0;
  std::int64_t coded_blocks = 0;
};

class Encoder {
 public:
  explicit Encoder(const EncoderConfig& cfg);

  // Encodes one frame and returns its bitstream chunk. `force_iframe`
  // restarts prediction — the FilterForward uplink uses it at the start of
  // each event segment, where the previous uploaded frame is not the
  // temporal predecessor.
  std::string EncodeFrame(const video::Frame& frame, bool force_iframe = false);

  const FrameStats& last_stats() const { return stats_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::int64_t frames_encoded() const { return frame_idx_; }
  const EncoderConfig& config() const { return cfg_; }

  // Average bitrate so far, assuming cfg.fps frames/second.
  double AverageBitrateBps() const;

 private:
  void UpdateRateControl(std::uint64_t frame_bits, bool was_iframe);

  EncoderConfig cfg_;
  std::int64_t pad_w_, pad_h_;
  YuvImage ref_;  // reconstructed reference
  bool have_ref_ = false;
  int qp_;
  std::int64_t frame_idx_ = 0;
  std::uint64_t total_bytes_ = 0;
  double cum_target_bits_ = 0;
  double cum_bits_ = 0;
  FrameStats stats_;
};

class Decoder {
 public:
  // The decoder is configured with the stream geometry (out-of-band, like a
  // container header would carry).
  Decoder(std::int64_t width, std::int64_t height);

  // Throws util::CheckError on a malformed chunk and keeps the reference
  // it had.
  video::Frame DecodeFrame(std::string_view chunk);

  // Forgets the reference: P-frames are refused until the next I-frame.
  void DropReference() { have_ref_ = false; }

 private:
  std::int64_t width_, height_, pad_w_, pad_h_;
  YuvImage ref_;
  bool have_ref_ = false;
};

// True when `chunk` codes an I-frame (its first bit), which decodes without
// a reference. False for an empty chunk.
bool IsIFrame(std::string_view chunk);

// Decodes a stored run of chunks on demand. The run must be chunks one
// Decoder accepted in order, so each is an I-frame or a P-frame against the
// chunk before it, and the first is an I-frame. A read replays from the
// slot's I-frame, which decodes as it would on a fresh Decoder. The replay
// keeps its decoder and the frame it decoded last, so reading the slots in
// order decodes each chunk once. Every call must pass the same run, which
// may have grown since.
class ChunkReplay {
 public:
  ChunkReplay(std::int64_t width, std::int64_t height);

  // The frame chunks[slot] decodes to. Throws util::CheckError on a chunk
  // the decoder refuses.
  const video::Frame& Decode(const std::vector<std::string>& chunks,
                             std::size_t slot);

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  Decoder decoder_;
  std::size_t slot_ = kNone;  // the slot frame_ and decoder_ are at
  video::Frame frame_;
};

}  // namespace ff::codec
