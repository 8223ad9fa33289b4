#include "store/pack.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/crc32.hpp"

namespace ff::store {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kSegPrefix = "seg-";
constexpr std::string_view kSegSuffix = ".ffseg";

// Little-endian field helpers, mirroring the wire format's conventions.
void PutU32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void PutU64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void PutI64(std::string& s, std::int64_t v) {
  PutU64(s, static_cast<std::uint64_t>(v));
}

std::uint32_t GetU32(std::string_view s, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(s[at + static_cast<std::size_t>(i)]);
  return v;
}
std::uint64_t GetU64(std::string_view s, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(s[at + static_cast<std::size_t>(i)]);
  return v;
}
std::int64_t GetI64(std::string_view s, std::size_t at) {
  return static_cast<std::int64_t>(GetU64(s, at));
}

std::string SegmentFileName(std::int64_t first_frame_index) {
  std::ostringstream os;
  os << kSegPrefix;
  os.width(12);
  os.fill('0');
  os << first_frame_index << kSegSuffix;
  return os.str();
}

bool IsSegmentFileName(const std::string& name) {
  return name.size() > kSegPrefix.size() + kSegSuffix.size() &&
         name.compare(0, kSegPrefix.size(), kSegPrefix) == 0 &&
         name.compare(name.size() - kSegSuffix.size(), kSegSuffix.size(),
                      kSegSuffix) == 0;
}

std::string RecordHeader(std::int64_t frame_index, bool keyframe,
                         std::int64_t ts_ns, std::string_view chunk) {
  std::string h;
  h.reserve(kRecHeaderBytes);
  PutU32(h, kRecMagic);
  h.push_back(keyframe ? 1 : 0);
  h.push_back(0);
  h.push_back(0);
  h.push_back(0);
  PutU32(h, static_cast<std::uint32_t>(chunk.size()));
  PutU32(h, util::Crc32(chunk));
  PutI64(h, frame_index);
  PutI64(h, ts_ns);
  return h;
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::ostringstream os;
  os << "pack recovery: " << recovered_records << " records across "
     << segments_loaded << " segments (" << segments_scanned
     << " scanned without a footer)";
  if (dropped_bytes > 0) os << "; truncated " << dropped_bytes << " torn bytes";
  for (const std::string& f : removed_files) os << "; removed " << f;
  for (const std::string& n : notes) os << "; " << n;
  return os.str();
}

PackArchive::PackArchive(std::string dir, const PackConfig& config)
    : dir_(std::move(dir)), config_(config) {
  FF_CHECK_MSG(!dir_.empty(), "PackArchive requires a directory");
  FF_CHECK_GT(config_.segment_frames, 0);
  OpenDir();
}

PackArchive::~PackArchive() {
  // Sealing writes the footer so the next open is O(1); a failure here
  // (disk full, fs gone) must not terminate, reopen scans instead.
  try {
    SealActive();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void PackArchive::OpenDir() {
  fs::create_directories(dir_);

  std::vector<std::string> paths;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
    if (!e.is_regular_file()) continue;
    if (IsSegmentFileName(e.path().filename().string()))
      paths.push_back(e.path().string());
  }
  for (const std::string& path : paths) LoadSegment(path);

  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) { return a.first < b.first; });

  // The newest segment is authoritative for stream metadata; any segment
  // that disagrees (or does not chain contiguously into the newest run) is
  // stale or foreign and gets dropped, loudly.
  if (!segments_.empty()) {
    std::size_t keep_from = segments_.size() - 1;
    while (keep_from > 0) {
      const Segment& prev = segments_[keep_from - 1];
      const Segment& next = segments_[keep_from];
      if (prev.first + static_cast<std::int64_t>(prev.entries.size()) !=
          next.first)
        break;
      --keep_from;
    }
    for (std::size_t i = 0; i < keep_from; ++i) {
      Segment& seg = segments_[i];
      recovery_.notes.push_back("dropped non-contiguous segment " + seg.path);
      recovery_.removed_files.push_back(seg.path);
      seg.map.Close();
      fs::remove(seg.path);
    }
    segments_.erase(segments_.begin(),
                    segments_.begin() + static_cast<std::ptrdiff_t>(keep_from));
  }

  for (const Segment& seg : segments_) {
    total_records_ += static_cast<std::int64_t>(seg.entries.size());
    total_file_bytes_ += seg.file_bytes;
  }
  recovery_.recovered_records = total_records_;
  recovery_.segments_loaded = static_cast<std::int64_t>(segments_.size());
}

bool PackArchive::LoadSegment(const std::string& path) {
  const std::int64_t size = FileSize(path);
  auto reject = [&](const std::string& why) {
    recovery_.notes.push_back("removed unrecoverable segment " + path + ": " +
                              why);
    recovery_.removed_files.push_back(path);
    fs::remove(path);
    return false;
  };
  if (size < static_cast<std::int64_t>(kSegHeaderBytes))
    return reject("shorter than the segment header");

  Segment seg;
  seg.path = path;
  seg.map.Open(path);
  const std::string_view file = seg.map.bytes();

  if (GetU32(file, 0) != kSegMagic) return reject("bad magic");
  if (static_cast<std::uint8_t>(file[4]) != kPackVersion)
    return reject("unknown version");
  if (file[5] != 0 || file[6] != 0 || file[7] != 0)
    return reject("reserved header bytes set");
  seg.first = GetI64(file, 8);
  StreamMeta meta;
  meta.width = GetI64(file, 16);
  meta.height = GetI64(file, 24);
  meta.fps = GetI64(file, 32);
  meta.gop = GetI64(file, 40);
  if (seg.first < 0 || meta.width <= 0 || meta.height <= 0 || meta.fps < 0 ||
      meta.gop <= 0)
    return reject("implausible header fields");
  if (has_meta_ &&
      (meta.width != meta_.width || meta.height != meta_.height ||
       meta.fps != meta_.fps || meta.gop != meta_.gop))
    return reject("stream metadata disagrees with other segments");

  seg.file_bytes = static_cast<std::uint64_t>(size);
  if (!TryLoadFooter(seg, file)) {
    // Scanning repairs the file (truncate + re-seal).
    ScanSegment(seg, file);
    ++recovery_.segments_scanned;
  }
  if (seg.entries.empty()) return reject("no intact records");

  if (!has_meta_) {
    meta_ = meta;
    has_meta_ = true;
  }
  seg.sealed = true;
  segments_.push_back(std::move(seg));
  return true;
}

// Footer bytes are untrusted: every offset/length/count is bounds-checked
// against the file and cross-checked against the record headers it points
// at. Any inconsistency falls back to the scan path.
bool PackArchive::TryLoadFooter(Segment& seg, std::string_view file) {
  if (file.size() < kSegHeaderBytes + kIdxTrailerBytes) return false;
  const std::size_t trailer_at = file.size() - kIdxTrailerBytes;
  if (GetU32(file, trailer_at) != kIdxMagic) return false;
  if (static_cast<std::uint8_t>(file[trailer_at + 4]) != kPackVersion)
    return false;
  if (file[trailer_at + 5] != 0 || file[trailer_at + 6] != 0 ||
      file[trailer_at + 7] != 0)
    return false;
  const std::uint32_t count = GetU32(file, trailer_at + 8);
  if (count == 0 || count > kMaxSegmentRecords) return false;
  const std::uint64_t idx_bytes =
      static_cast<std::uint64_t>(count) * kIdxEntryBytes;
  if (idx_bytes + kIdxTrailerBytes + kSegHeaderBytes > file.size())
    return false;
  const std::size_t idx_start = trailer_at - static_cast<std::size_t>(idx_bytes);
  if (GetU32(file, trailer_at + 12) !=
      util::Crc32(file.substr(idx_start, static_cast<std::size_t>(idx_bytes))))
    return false;

  std::vector<Entry> entries;
  entries.reserve(count);
  std::uint64_t expect_offset = kSegHeaderBytes;
  std::int64_t prev_ts = -1;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = idx_start + i * kIdxEntryBytes;
    Entry e;
    e.offset = GetU64(file, at);
    e.length = GetU32(file, at + 8);
    const std::uint8_t kf = static_cast<std::uint8_t>(file[at + 12]);
    if (kf > 1) return false;
    e.keyframe = kf == 1;
    if (file[at + 13] != 0 || file[at + 14] != 0 || file[at + 15] != 0)
      return false;
    e.ts_ns = GetI64(file, at + 16);
    if (e.ts_ns < 0 || e.ts_ns < prev_ts) return false;
    prev_ts = e.ts_ns;
    if (e.offset != expect_offset) return false;
    if (e.length > kMaxChunkBytes) return false;
    if (e.offset + kRecHeaderBytes + e.length > idx_start) return false;
    // Cross-check the record header the entry points at (cheap: no payload
    // read). A mutated payload still loads here — Read() catches it via the
    // payload CRC, loudly.
    const std::size_t rec = static_cast<std::size_t>(e.offset);
    if (GetU32(file, rec) != kRecMagic) return false;
    if ((static_cast<std::uint8_t>(file[rec + 4]) == 1) != e.keyframe)
      return false;
    if (GetU32(file, rec + 8) != e.length) return false;
    if (GetI64(file, rec + 16) != seg.first + static_cast<std::int64_t>(i))
      return false;
    if (GetI64(file, rec + 24) != e.ts_ns) return false;
    expect_offset = e.offset + kRecHeaderBytes + e.length;
    entries.push_back(e);
  }
  if (expect_offset != idx_start) return false;
  if (!entries.front().keyframe) return false;

  seg.entries = std::move(entries);
  return true;
}

// Record-by-record scan for segments without a usable footer (the active
// segment at a crash, or a fuzz-corrupted footer). The first record that
// fails any check ends the segment; everything past it is a torn tail,
// truncated away and reported. The recovered segment is then re-sealed with
// a fresh footer so the NEXT open is O(1) again.
void PackArchive::ScanSegment(Segment& seg, std::string_view file) {
  std::size_t pos = kSegHeaderBytes;
  std::int64_t expect_index = seg.first;
  std::int64_t prev_ts = -1;
  std::vector<Entry> entries;
  while (true) {
    if (pos + kRecHeaderBytes > file.size()) break;
    if (GetU32(file, pos) != kRecMagic) break;
    const std::uint8_t kf = static_cast<std::uint8_t>(file[pos + 4]);
    if (kf > 1) break;
    if (file[pos + 5] != 0 || file[pos + 6] != 0 || file[pos + 7] != 0) break;
    const std::uint32_t len = GetU32(file, pos + 8);
    if (len > kMaxChunkBytes) break;
    if (pos + kRecHeaderBytes + len > file.size()) break;
    if (GetI64(file, pos + 16) != expect_index) break;
    const std::int64_t ts = GetI64(file, pos + 24);
    // A negative or time-travelling timestamp can only be a torn/corrupt
    // record (appends enforce monotonicity); it ends the segment.
    if (ts < 0 || ts < prev_ts) break;
    if (GetU32(file, pos + 12) !=
        util::Crc32(file.substr(pos + kRecHeaderBytes, len)))
      break;
    if (entries.empty() && kf != 1) break;  // undecodable without a keyframe
    entries.push_back(Entry{pos, len, kf == 1, ts});
    prev_ts = ts;
    pos += kRecHeaderBytes + len;
    ++expect_index;
  }

  seg.entries = std::move(entries);
  if (seg.entries.empty()) return;  // caller removes the file

  if (pos < file.size()) {
    const std::uint64_t dropped = file.size() - pos;
    recovery_.dropped_bytes += dropped;
    recovery_.notes.push_back("truncated " + std::to_string(dropped) +
                              " torn tail bytes of " + seg.path);
    seg.map.Close();
    TruncateFile(seg.path, pos);
  } else {
    seg.map.Close();
  }

  // Re-seal: append a fresh footer over the surviving records.
  const std::string footer = Footer(seg.entries);

  AppendFile out;
  out.Open(seg.path);
  out.Write(footer);
  out.Flush();
  out.Close();
  seg.file_bytes = static_cast<std::uint64_t>(pos) + footer.size();
}

void PackArchive::SetStreamMeta(const StreamMeta& meta) {
  FF_CHECK_GT(meta.width, 0);
  FF_CHECK_GT(meta.height, 0);
  FF_CHECK_GE(meta.fps, 0);
  FF_CHECK_GT(meta.gop, 0);
  if (has_meta_) {
    FF_CHECK_MSG(meta.width == meta_.width && meta.height == meta_.height &&
                     meta.fps == meta_.fps && meta.gop == meta_.gop,
                 "stream metadata changed for pack at '"
                     << dir_ << "' (was " << meta_.width << "x" << meta_.height
                     << "@" << meta_.fps << " gop " << meta_.gop << ")");
    return;
  }
  meta_ = meta;
  has_meta_ = true;
}

void PackArchive::Append(std::int64_t frame_index, bool keyframe,
                         std::int64_t ts_ns, std::string_view chunk) {
  FF_CHECK_MSG(has_meta_, "SetStreamMeta must precede the first Append");
  FF_CHECK_GE(frame_index, 0);
  FF_CHECK_GE(ts_ns, 0);
  FF_CHECK_LE(chunk.size(), kMaxChunkBytes);
  if (!segments_.empty()) {
    FF_CHECK_EQ(frame_index, end_available());
    const std::int64_t prev_ts = segments_.back().entries.empty()
                                     ? -1
                                     : segments_.back().entries.back().ts_ns;
    FF_CHECK_MSG(ts_ns >= prev_ts,
                 "archive timestamps must be non-decreasing (got "
                     << ts_ns << " after " << prev_ts << ")");
  }

  const bool need_new =
      segments_.empty() || segments_.back().sealed ||
      (static_cast<std::int64_t>(segments_.back().entries.size()) >=
           config_.segment_frames &&
       keyframe);
  if (need_new) {
    FF_CHECK_MSG(keyframe, "a new segment must start at a keyframe (frame "
                               << frame_index << " is not one)");
    SealActive();
    StartSegment(frame_index);
  }

  Segment& seg = segments_.back();
  std::string rec = RecordHeader(frame_index, keyframe, ts_ns, chunk);
  rec.append(chunk);
  const std::uint64_t offset = active_.size();
  active_.Write(rec);
  if (config_.fsync_each_append) active_.Flush();

  seg.entries.push_back(
      Entry{offset, static_cast<std::uint32_t>(chunk.size()), keyframe, ts_ns});
  seg.file_bytes += rec.size();
  total_file_bytes_ += rec.size();
  ++total_records_;
  EvictFront();
}

std::string PackArchive::Footer(const std::vector<Entry>& entries) {
  std::string footer;
  for (const Entry& e : entries) {
    PutU64(footer, e.offset);
    PutU32(footer, e.length);
    footer.push_back(e.keyframe ? 1 : 0);
    footer.push_back(0);
    footer.push_back(0);
    footer.push_back(0);
    PutI64(footer, e.ts_ns);
  }
  const std::uint32_t idx_crc = util::Crc32(footer);
  PutU32(footer, kIdxMagic);
  footer.push_back(static_cast<char>(kPackVersion));
  footer.push_back(0);
  footer.push_back(0);
  footer.push_back(0);
  PutU32(footer, static_cast<std::uint32_t>(entries.size()));
  PutU32(footer, idx_crc);
  return footer;
}

void PackArchive::SealActive() {
  if (segments_.empty() || segments_.back().sealed) return;
  Segment& seg = segments_.back();
  const std::string footer = Footer(seg.entries);
  active_.Write(footer);
  active_.Flush();
  active_.Close();
  seg.file_bytes += footer.size();
  total_file_bytes_ += footer.size();
  seg.sealed = true;
}

void PackArchive::StartSegment(std::int64_t frame_index) {
  Segment seg;
  seg.path = dir_ + "/" + SegmentFileName(frame_index);
  seg.first = frame_index;
  // A stale file with this name can only be leftover garbage (reopen removed
  // every unrecoverable file and live segments all end before frame_index).
  fs::remove(seg.path);
  active_.Open(seg.path);

  std::string header;
  header.reserve(kSegHeaderBytes);
  PutU32(header, kSegMagic);
  header.push_back(static_cast<char>(kPackVersion));
  header.push_back(0);
  header.push_back(0);
  header.push_back(0);
  PutI64(header, frame_index);
  PutI64(header, meta_.width);
  PutI64(header, meta_.height);
  PutI64(header, meta_.fps);
  PutI64(header, meta_.gop);
  active_.Write(header);

  seg.file_bytes = kSegHeaderBytes;
  total_file_bytes_ += kSegHeaderBytes;
  segments_.push_back(std::move(seg));
}

void PackArchive::EvictFront() {
  auto over_budget = [&] {
    if (config_.retention.capacity_frames > 0 &&
        total_records_ > config_.retention.capacity_frames)
      return true;
    if (config_.retention.budget_bytes > 0 &&
        total_file_bytes_ > config_.retention.budget_bytes)
      return true;
    return false;
  };
  while (over_budget() && segments_.size() > 1) {
    Segment& seg = segments_.front();
    total_records_ -= static_cast<std::int64_t>(seg.entries.size());
    total_file_bytes_ -= seg.file_bytes;
    seg.map.Close();
    fs::remove(seg.path);
    segments_.erase(segments_.begin());
  }
}

std::int64_t PackArchive::first_available() const {
  return segments_.empty() ? 0 : segments_.front().first;
}

std::int64_t PackArchive::end_available() const {
  if (segments_.empty()) return 0;
  const Segment& seg = segments_.back();
  return seg.first + static_cast<std::int64_t>(seg.entries.size());
}

const PackArchive::Segment* PackArchive::FindSegment(
    std::int64_t frame_index) const {
  if (segments_.empty()) return nullptr;
  // Last segment with first <= frame_index.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), frame_index,
      [](std::int64_t idx, const Segment& s) { return idx < s.first; });
  if (it == segments_.begin()) return nullptr;
  --it;
  const std::int64_t off = frame_index - it->first;
  if (off >= static_cast<std::int64_t>(it->entries.size())) return nullptr;
  return &*it;
}

std::string_view PackArchive::SegmentBytes(const Segment& seg) const {
  if (!seg.map.is_open()) {
    seg.map.Open(seg.path);
  } else if (seg.map.size() < seg.file_bytes) {
    seg.map.Remap();  // the active segment grew since the last read
  }
  return seg.map.bytes();
}

std::optional<RecordRef> PackArchive::Read(std::int64_t frame_index) const {
  const Segment* seg = FindSegment(frame_index);
  if (seg == nullptr) return std::nullopt;
  const Entry& e =
      seg->entries[static_cast<std::size_t>(frame_index - seg->first)];
  const std::string_view file = SegmentBytes(*seg);
  FF_CHECK_MSG(e.offset + kRecHeaderBytes + e.length <= file.size(),
               "segment " << seg->path << " shrank under an indexed record");
  const std::string_view payload =
      file.substr(static_cast<std::size_t>(e.offset) + kRecHeaderBytes,
                  e.length);
  const std::uint32_t stored_crc =
      GetU32(file, static_cast<std::size_t>(e.offset) + 12);
  FF_CHECK_MSG(util::Crc32(payload) == stored_crc,
               "CRC mismatch reading frame " << frame_index << " from "
                                             << seg->path
                                             << " — on-disk corruption");
  return RecordRef{frame_index, e.keyframe, e.ts_ns, payload};
}

std::optional<std::int64_t> PackArchive::KeyframeAtOrBefore(
    std::int64_t frame_index) const {
  const Segment* seg = FindSegment(frame_index);
  if (seg == nullptr) return std::nullopt;
  for (std::int64_t i = frame_index - seg->first; i >= 0; --i) {
    if (seg->entries[static_cast<std::size_t>(i)].keyframe)
      return seg->first + i;
  }
  // Unreachable: every segment's first record is a keyframe by construction.
  FF_CHECK_MSG(false, "segment " << seg->path << " does not start at a keyframe");
  return std::nullopt;
}

std::optional<std::int64_t> PackArchive::FirstIndexAtOrAfterTime(
    std::int64_t ts_ns) const {
  // Timestamps are non-decreasing across the whole archive (the Append
  // invariant spans segment rolls), so binary-search segments, then entries.
  // Last segment whose FIRST entry timestamp is <= ts_ns could still be too
  // early throughout; the next segment then answers.
  for (const Segment& seg : segments_) {
    if (seg.entries.back().ts_ns < ts_ns) continue;
    const auto it = std::partition_point(
        seg.entries.begin(), seg.entries.end(),
        [ts_ns](const Entry& e) { return e.ts_ns < ts_ns; });
    return seg.first + (it - seg.entries.begin());
  }
  return std::nullopt;
}

void PackArchive::Flush() {
  if (active_.is_open()) active_.Flush();
}

}  // namespace ff::store
