// Edge archive + demand-fetch (paper §3.2): "edge nodes record the original
// video stream to disk so that datacenter applications can demand-fetch
// additional video (e.g., context segments surrounding a matched segment)".
//
// The store archives each frame ONCE, as an encoded bitstream chunk, into a
// store::ArchiveBackend — in RAM (store::MemoryArchive) or as a durable
// memory-mapped pack on disk (store::PackArchive) when `dir` is set. Both
// backends hold byte-identical chunks, and FetchClip runs one shared
// decode-from-keyframe + re-encode path over either, so a clip fetched from
// disk is bitwise-equal to one fetched from RAM (store_pack_test pins this).
//
// Retention keeps the most recent window under the configured frame/byte
// budget. A datacenter-side application fetches a clip by frame range; the
// clip is re-encoded on demand at the requested bitrate and returned as real
// bitstream chunks.
//
// Thread-safe: Archive and FetchClip may race (the fleet appends at the end
// of each turn while a demand-fetch handler reads on its own thread); an
// internal mutex serializes them.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "store/archive.hpp"
#include "store/pack.hpp"
#include "video/frame.hpp"

namespace ff::core {

struct EdgeStoreConfig {
  // Retention window. At least one bound (or a dir, whose disk budget can be
  // the only bound) must be set; an unbounded in-RAM archive is a misconfig.
  std::int64_t capacity_frames = 0;  // 0 = unbounded
  std::uint64_t budget_bytes = 0;    // 0 = unbounded
  // Archival-encode keyframe cadence. 1 (every frame an I-frame) keeps the
  // pre-durability retention semantics: evictions move one frame at a time.
  // Larger gops compress much better but evict in keyframe groups.
  std::int64_t gop = 1;
  // Archival encode rate. 0 = constant-QP (rate control off).
  double bitrate_bps = 0;
  std::int64_t fps = 30;
  // Empty: in-RAM MemoryArchive. Non-empty: durable PackArchive rooted at
  // this directory (created if needed, recovered if it holds a prior run).
  std::string dir;
  std::int64_t segment_frames = 64;
  bool fsync_each_append = false;
};

class EdgeStore {
 public:
  explicit EdgeStore(const EdgeStoreConfig& config);
  // Pre-durability convenience: in-RAM store of the given frame capacity.
  explicit EdgeStore(std::int64_t capacity_frames);

  // Encodes and appends one frame at index end_available(). The archive
  // timeline is the store's own contiguous counter — deliberately decoupled
  // from fleet frame numbering so it spans process restarts (a reopened pack
  // keeps appending where the previous run stopped).
  //
  // `ts_ns` is the frame's capture timestamp — the wall-clock index stored
  // alongside the frame index so FetchClipByTime can address by time. It is
  // clamped to be non-decreasing (a stale clock never corrupts the index);
  // pass -1 for "unknown" and the store synthesizes last + 1 (0 for the
  // first record), which keeps time-addressing well-defined for callers
  // that only ever use frame indices.
  //
  // `force_keyframe` forces the archival encoder to emit an I-frame — the
  // fleet's drop-to-keyframe degradation uses it so the first archived frame
  // after a shed gap is independently decodable.
  void Archive(const video::Frame& frame, std::int64_t ts_ns = -1,
               bool force_keyframe = false);

  std::int64_t capacity() const { return config_.capacity_frames; }
  // Range of frame indices currently held: [first_available, end_available).
  std::int64_t first_available() const;
  std::int64_t end_available() const;
  std::uint64_t stored_bytes() const;

  struct Clip {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::vector<std::string> chunks;  // one bitstream chunk per frame
    std::uint64_t bytes = 0;
  };

  // Re-encodes frames [begin, end) at `bitrate_bps`/`fps` (both must be
  // positive — checked loudly). The range is clamped to what is still
  // stored; returns nullopt when nothing overlaps (including begin > end
  // and fully-evicted ranges).
  std::optional<Clip> FetchClip(std::int64_t begin, std::int64_t end,
                                double bitrate_bps, std::int64_t fps) const;

  // Time-addressed fetch: maps the wall-clock range [ts_begin_ns, ts_end_ns)
  // onto frame indices via the archive's timestamp index, then fetches that
  // range exactly like FetchClip. Returns nullopt when no retained frame
  // falls inside the range. Timestamps are the (clamped) values passed to
  // Archive; Clip::begin/end report which frame indices the range mapped to.
  std::optional<Clip> FetchClipByTime(std::int64_t ts_begin_ns,
                                      std::int64_t ts_end_ns,
                                      double bitrate_bps,
                                      std::int64_t fps) const;

  // Stored capture timestamp of one archived frame; nullopt when evicted or
  // never archived.
  std::optional<std::int64_t> TimestampOf(std::int64_t frame_index) const;

  // Whether the archived chunk at `frame_index` is a keyframe; nullopt when
  // outside the retained window. Tests use this to pin drop-to-keyframe.
  std::optional<bool> KeyframeAt(std::int64_t frame_index) const;

  // Copy of the archived chunk at `frame_index` (nullopt when evicted or
  // never archived). Bitwise-equality tests compare these across backends.
  std::optional<std::string> ReadChunk(std::int64_t frame_index) const;

  // Recovery report from opening a durable archive; nullopt for in-RAM
  // stores. A non-clean() report means the previous run ended in a crash.
  std::optional<store::RecoveryReport> recovery() const;

  // Stream geometry (width/height/fps/gop) once known — set by the first
  // Archive, or already on disk for a reopened pack. nullopt before either.
  std::optional<store::StreamMeta> meta() const;

 private:
  void ArchiveLocked(const video::Frame& frame, std::int64_t ts_ns,
                     bool force_keyframe);
  std::optional<Clip> FetchClipLocked(std::int64_t begin, std::int64_t end,
                                      double bitrate_bps,
                                      std::int64_t fps) const;

  EdgeStoreConfig config_;
  mutable std::mutex mu_;
  std::unique_ptr<store::ArchiveBackend> backend_;
  // Lazily built on the first Archive (geometry comes from the frame).
  std::unique_ptr<codec::Encoder> archival_encoder_;
  // Timestamp of the newest archived record (-1 before the first). Seeds the
  // non-decreasing clamp; initialized from a reopened pack's newest record
  // so the wall-clock index stays monotone across restarts too.
  std::int64_t last_ts_ns_ = -1;
};

}  // namespace ff::core
