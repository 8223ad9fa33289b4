// PackArchive: the durable, memory-mapped segment-file backend ("hostpack").
//
// On-disk layout. An archive is a directory of segment files named
// `seg-<first_frame_index>.ffseg`, each holding a contiguous run of records
// that starts at a keyframe:
//
//   segment header (48 bytes)
//     [0..3]   magic "FFS1"
//     [4]      version (kPackVersion)
//     [5..7]   reserved, must be zero
//     [8..15]  first frame index   (little-endian i64)
//     [16..23] stream width        (i64)
//     [24..31] stream height       (i64)
//     [32..39] stream fps          (i64)
//     [40..47] archival gop        (i64)
//
//   record (32-byte header + payload), repeated
//     [0..3]   magic "FFR1"
//     [4]      keyframe flag (0 or 1)
//     [5..7]   reserved, must be zero
//     [8..11]  payload length      (u32, <= kMaxChunkBytes)
//     [12..15] CRC-32 of payload
//     [16..23] frame index         (i64, contiguous within the segment)
//     [24..31] capture timestamp   (i64 ns, non-negative, non-decreasing
//              within the segment — the wall-clock index)
//
//   footer index (sealed segments only)
//     count × 24-byte entries:
//       [0..7]   record header offset from file start (u64)
//       [8..11]  payload length (u32)
//       [12]     keyframe flag
//       [13..15] reserved, must be zero
//       [16..23] capture timestamp (i64 ns, cross-checked against the
//                record header it points at)
//     16-byte trailer at EOF:
//       [0..3]   magic "FFX1"
//       [4]      version
//       [5..7]   reserved, must be zero
//       [8..11]  entry count (u32)
//       [12..15] CRC-32 of the entry bytes
//
// Format history: version 2 added the capture timestamp to record headers
// (24 -> 32 bytes) and footer entries (16 -> 24 bytes) — the time-based
// index FetchClipByTime addresses. There is no migration path: a version-1
// file fails the version check at reopen and is removed loudly (reported in
// RecoveryReport), exactly like any other unrecoverable file.
//
// Reopen protocol. Sealed segments load in O(1) via the footer (every byte
// of which is untrusted and bounds-checked; any inconsistency falls back to
// a record-by-record scan). The segment that was active at the crash has no
// footer and is scanned: the first record whose header, bounds, CRC, or
// frame index does not check out ends the segment, and the torn tail beyond
// it is truncated away and reported in RecoveryReport — a kill -9 mid-append
// costs at most the record being written, never a crash and never torn
// bytes. Unrecoverable files (no valid header, zero valid records) are
// removed and reported.
//
// Retention. Eviction drops whole segments from the front (oldest first),
// never the newest one, whenever the frame/byte budget is exceeded. Reads
// are zero-copy views into the segment's mmap.
//
// Not thread-safe; core::EdgeStore serializes access.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/archive.hpp"
#include "store/mmio.hpp"

namespace ff::store {

inline constexpr std::uint32_t kSegMagic = 0x31534646u;  // "FFS1"
inline constexpr std::uint32_t kRecMagic = 0x31524646u;  // "FFR1"
inline constexpr std::uint32_t kIdxMagic = 0x31584646u;  // "FFX1"
inline constexpr std::uint8_t kPackVersion = 2;
inline constexpr std::size_t kSegHeaderBytes = 48;
inline constexpr std::size_t kRecHeaderBytes = 32;
inline constexpr std::size_t kIdxEntryBytes = 24;
inline constexpr std::size_t kIdxTrailerBytes = 16;
// Caps on untrusted on-disk values, same motivation as net::kMaxBody: a
// flipped length byte must not drive a giant allocation or over-read.
inline constexpr std::size_t kMaxChunkBytes = 1u << 24;
inline constexpr std::uint32_t kMaxSegmentRecords = 1u << 20;

struct PackConfig {
  RetentionPolicy retention;
  // Records per segment before the pack rolls to a new file (the roll waits
  // for the next keyframe so every segment starts decodable).
  std::int64_t segment_frames = 64;
  // fdatasync after every append. Durable to power loss, much slower; off,
  // a crash can also cost records the OS had not written back yet (reopen
  // still recovers cleanly — recovery never depends on this knob).
  bool fsync_each_append = false;
};

// What reopen found. `removed_files`/`dropped_bytes` are non-zero only when
// something was actually wrong on disk; ToString() is the loud report.
struct RecoveryReport {
  std::int64_t recovered_records = 0;
  std::int64_t segments_loaded = 0;
  std::int64_t segments_scanned = 0;  // of those, loaded without a footer
  std::uint64_t dropped_bytes = 0;    // torn tail truncated away
  std::vector<std::string> removed_files;
  std::vector<std::string> notes;  // human-readable, one per anomaly

  // A scanned segment means the previous run never sealed it — a crash or
  // kill, even when the tear happened to land on a record boundary and no
  // bytes were lost. Clean shutdowns seal everything, so a clean reopen
  // loads every segment from its footer.
  bool clean() const {
    return dropped_bytes == 0 && removed_files.empty() && notes.empty() &&
           segments_scanned == 0;
  }
  std::string ToString() const;
};

class PackArchive final : public ArchiveBackend {
 public:
  // Opens (creating if needed) the archive at directory `dir` and runs the
  // reopen protocol above; recovery() reports what it found.
  PackArchive(std::string dir, const PackConfig& config);
  ~PackArchive() override;

  void SetStreamMeta(const StreamMeta& meta) override;
  StreamMeta stream_meta() const override { return meta_; }
  bool has_stream_meta() const override { return has_meta_; }

  void Append(std::int64_t frame_index, bool keyframe, std::int64_t ts_ns,
              std::string_view chunk) override;
  std::int64_t first_available() const override;
  std::int64_t end_available() const override;
  std::optional<RecordRef> Read(std::int64_t frame_index) const override;
  std::optional<std::int64_t> KeyframeAtOrBefore(
      std::int64_t frame_index) const override;
  std::optional<std::int64_t> FirstIndexAtOrAfterTime(
      std::int64_t ts_ns) const override;
  std::optional<std::int64_t> LastTimestamp() const override {
    if (segments_.empty() || segments_.back().entries.empty())
      return std::nullopt;
    return segments_.back().entries.back().ts_ns;
  }
  std::uint64_t stored_bytes() const override { return total_file_bytes_; }
  void Flush() override;

  const RecoveryReport& recovery() const { return recovery_; }
  std::int64_t segment_count() const {
    return static_cast<std::int64_t>(segments_.size());
  }
  const std::string& dir() const { return dir_; }

 private:
  struct Entry {
    std::uint64_t offset = 0;  // record header offset from file start
    std::uint32_t length = 0;  // payload length
    bool keyframe = false;
    std::int64_t ts_ns = 0;  // capture timestamp (the wall-clock index)
  };

  struct Segment {
    std::string path;
    std::int64_t first = 0;  // frame index of the first record
    std::vector<Entry> entries;
    std::uint64_t file_bytes = 0;  // current file size incl. headers/footer
    bool sealed = false;
    // Lazily opened, widened as the active segment grows.
    mutable MappedFile map;
  };

  void OpenDir();
  // Loads one existing segment file; returns false (and reports) when the
  // file held nothing recoverable and was removed.
  bool LoadSegment(const std::string& path);
  bool TryLoadFooter(Segment& seg, std::string_view file);
  void ScanSegment(Segment& seg, std::string_view file);
  // A segment's index footer over `entries`, as the seal and the reopen
  // re-seal both write it.
  static std::string Footer(const std::vector<Entry>& entries);
  void SealActive();
  void StartSegment(std::int64_t frame_index);
  void EvictFront();
  const Segment* FindSegment(std::int64_t frame_index) const;
  std::string_view SegmentBytes(const Segment& seg) const;

  std::string dir_;
  PackConfig config_;
  StreamMeta meta_;
  bool has_meta_ = false;
  std::int64_t total_records_ = 0;
  std::uint64_t total_file_bytes_ = 0;
  std::vector<Segment> segments_;  // ordered by first frame index
  AppendFile active_;              // open iff the last segment is unsealed
  RecoveryReport recovery_;
};

}  // namespace ff::store
