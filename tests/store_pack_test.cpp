// The durable edge archive (src/store): MemoryArchive/PackArchive behind
// core::EdgeStore. Pins the legacy in-RAM retention semantics, the FetchClip
// argument contract, disk-vs-RAM bitwise equality, segment rolling and
// whole-segment eviction, reopen-and-continue, and — the crash-safety core —
// a truncation matrix that chops the newest segment file at EVERY byte
// offset plus a seeded corruption fuzz. Recovery must never crash and never
// surface torn bytes: every chunk that survives reopen is byte-identical to
// what was appended, and everything lost is reported loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/edge_store.hpp"
#include "store/mmio.hpp"
#include "store/pack.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "video/frame.hpp"

namespace ff {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ff_store_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

// Deterministic moving pattern: enough structure that the codec produces
// non-trivial I- and P-frames, fully reproducible across runs.
video::Frame TestFrame(std::int64_t w, std::int64_t h, std::int64_t i) {
  video::Frame f(w, h);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      f.Set(x, y,
            {static_cast<std::uint8_t>((x * 7 + i * 3) & 0xFF),
             static_cast<std::uint8_t>((y * 11 + i * 5) & 0xFF),
             static_cast<std::uint8_t>((x + y + i) & 0xFF)});
    }
  }
  f.FillRect((i * 2) % w, (i * 3) % h, w / 4, h / 4, {250, 20, 20});
  f.index = i;
  return f;
}

void ArchiveFrames(core::EdgeStore& store, std::int64_t w, std::int64_t h,
                   std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    store.Archive(TestFrame(w, h, i));
  }
}

// Segment files of a pack dir, sorted by name (== by first frame index,
// zero-padded).
std::vector<fs::path> SegmentFiles(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ffseg") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

void CopyDir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), to / entry.path().filename());
  }
}

std::string ReadFileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// --- Legacy in-RAM semantics -----------------------------------------------

TEST(MemoryStore, LegacyCapacityRetentionIsPerFrame) {
  core::EdgeStore store(/*capacity_frames=*/10);
  ArchiveFrames(store, 32, 24, 0, 25);
  EXPECT_EQ(store.first_available(), 15);
  EXPECT_EQ(store.end_available(), 25);
  EXPECT_FALSE(store.ReadChunk(14).has_value());
  EXPECT_TRUE(store.ReadChunk(15).has_value());
  EXPECT_FALSE(store.recovery().has_value());  // in-RAM: no recovery story
}

TEST(MemoryStore, ByteBudgetBoundsStoredBytes) {
  core::EdgeStoreConfig cfg;
  cfg.budget_bytes = 4096;
  core::EdgeStore store(cfg);
  ArchiveFrames(store, 32, 24, 0, 40);
  EXPECT_LE(store.stored_bytes(), 4096u + 2048u);  // at most one extra frame
  EXPECT_GT(store.first_available(), 0);
  EXPECT_EQ(store.end_available(), 40);
}

TEST(MemoryStore, UnboundedConfigIsRefusedLoudly) {
  core::EdgeStoreConfig cfg;  // no capacity, no budget, no dir
  EXPECT_THROW(core::EdgeStore store(cfg), util::CheckError);
  EXPECT_THROW(core::EdgeStore store2(0), util::CheckError);
}

// --- FetchClip argument contract (satellite: loud parameter checks) --------

TEST(FetchClip, RejectsNonPositiveBitrateAndFps) {
  core::EdgeStore store(/*capacity_frames=*/10);
  ArchiveFrames(store, 32, 24, 0, 5);
  EXPECT_THROW(store.FetchClip(0, 5, /*bitrate_bps=*/0.0, /*fps=*/15),
               util::CheckError);
  EXPECT_THROW(store.FetchClip(0, 5, /*bitrate_bps=*/-1.0, /*fps=*/15),
               util::CheckError);
  EXPECT_THROW(store.FetchClip(0, 5, /*bitrate_bps=*/50'000, /*fps=*/0),
               util::CheckError);
  EXPECT_THROW(store.FetchClip(0, 5, /*bitrate_bps=*/50'000, /*fps=*/-3),
               util::CheckError);
}

TEST(FetchClip, EmptyAndInvertedAndEvictedRangesReturnNullopt) {
  core::EdgeStore store(/*capacity_frames=*/10);
  EXPECT_FALSE(store.FetchClip(0, 5, 50'000, 15).has_value());  // empty store
  ArchiveFrames(store, 32, 24, 0, 25);                          // keeps [15,25)
  EXPECT_FALSE(store.FetchClip(5, 2, 50'000, 15).has_value());  // begin > end
  EXPECT_FALSE(store.FetchClip(7, 7, 50'000, 15).has_value());  // empty range
  EXPECT_FALSE(store.FetchClip(0, 10, 50'000, 15).has_value());  // evicted
  EXPECT_FALSE(store.FetchClip(25, 30, 50'000, 15).has_value());  // future
}

TEST(FetchClip, ClampsToRetainedWindow) {
  core::EdgeStore store(/*capacity_frames=*/10);
  ArchiveFrames(store, 32, 24, 0, 25);  // keeps [15, 25)
  const auto clip = store.FetchClip(0, 100, 50'000, 15);
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->begin, 15);
  EXPECT_EQ(clip->end, 25);
  EXPECT_EQ(clip->chunks.size(), 10u);
  EXPECT_GT(clip->bytes, 0u);
}

// --- Pack roundtrip & bitwise equality with the in-RAM backend -------------

core::EdgeStoreConfig PackCfg(const std::string& dir, std::int64_t gop = 1,
                              std::int64_t segment_frames = 8) {
  core::EdgeStoreConfig cfg;
  cfg.dir = dir;
  cfg.gop = gop;
  cfg.segment_frames = segment_frames;
  return cfg;
}

TEST(PackStore, ChunksAndClipsAreBitwiseEqualToMemory) {
  for (const std::int64_t gop : {std::int64_t{1}, std::int64_t{4}}) {
    TempDir dir("bitwise_gop" + std::to_string(gop));
    core::EdgeStoreConfig mem_cfg;
    mem_cfg.capacity_frames = 100;
    mem_cfg.gop = gop;
    core::EdgeStore mem(mem_cfg);
    core::EdgeStore pack(PackCfg(dir.str(), gop));
    ArchiveFrames(mem, 48, 32, 0, 30);
    ArchiveFrames(pack, 48, 32, 0, 30);

    // Both backends hold the exact bytes the archival encoder emitted.
    for (std::int64_t i = 0; i < 30; ++i) {
      const auto a = mem.ReadChunk(i);
      const auto b = pack.ReadChunk(i);
      ASSERT_TRUE(a.has_value() && b.has_value()) << "frame " << i;
      EXPECT_EQ(*a, *b) << "frame " << i;
    }

    // One shared decode+re-encode path => clips match bitwise, including a
    // range that opens mid-gop and spans a segment boundary.
    const auto ca = mem.FetchClip(5, 21, 80'000, 10);
    const auto cb = pack.FetchClip(5, 21, 80'000, 10);
    ASSERT_TRUE(ca.has_value() && cb.has_value());
    EXPECT_EQ(ca->begin, cb->begin);
    EXPECT_EQ(ca->end, cb->end);
    EXPECT_EQ(ca->bytes, cb->bytes);
    ASSERT_EQ(ca->chunks.size(), cb->chunks.size());
    for (std::size_t i = 0; i < ca->chunks.size(); ++i) {
      EXPECT_EQ(ca->chunks[i], cb->chunks[i]) << "clip chunk " << i;
    }
  }
}

TEST(PackStore, RollsSegmentsAndEvictsWholeSegmentsOnly) {
  TempDir dir("evict");
  auto cfg = PackCfg(dir.str(), /*gop=*/1, /*segment_frames=*/8);
  cfg.capacity_frames = 20;
  core::EdgeStore store(cfg);
  ArchiveFrames(store, 32, 24, 0, 50);
  // Eviction drops whole front segments; with gop 1 every segment is exactly
  // 8 records, so the window's front is segment-aligned and the retained
  // count stays within one segment of the budget.
  EXPECT_EQ(store.first_available() % 8, 0);
  EXPECT_EQ(store.end_available(), 50);
  const std::int64_t retained = store.end_available() - store.first_available();
  EXPECT_GE(retained, 20 - 8);
  EXPECT_LE(retained, 20 + 8);
  EXPECT_GE(SegmentFiles(dir.path).size(), 2u);
}

TEST(PackStore, ByteBudgetEvictsButKeepsNewestSegment) {
  TempDir dir("bytebudget");
  auto cfg = PackCfg(dir.str(), /*gop=*/1, /*segment_frames=*/4);
  cfg.budget_bytes = 1;  // absurdly tight: everything but the newest must go
  core::EdgeStore store(cfg);
  ArchiveFrames(store, 32, 24, 0, 20);
  EXPECT_EQ(store.end_available(), 20);
  // The newest (active) segment is never evicted, so the window stays
  // non-empty and readable.
  EXPECT_LT(store.first_available(), store.end_available());
  EXPECT_TRUE(store.ReadChunk(19).has_value());
  EXPECT_LE(SegmentFiles(dir.path).size(), 2u);
}

// --- Reopen: continue where the previous run stopped -----------------------

TEST(PackStore, ReopenContinuesTimelineAndPreservesBytes) {
  TempDir dir("reopen");
  std::vector<std::string> first_run_chunks;
  {
    core::EdgeStore store(PackCfg(dir.str(), /*gop=*/4));
    ArchiveFrames(store, 48, 32, 0, 20);
    for (std::int64_t i = 0; i < 20; ++i) {
      first_run_chunks.push_back(*store.ReadChunk(i));
    }
  }  // clean shutdown seals the active segment

  core::EdgeStore store(PackCfg(dir.str(), /*gop=*/4));
  ASSERT_TRUE(store.recovery().has_value());
  EXPECT_TRUE(store.recovery()->clean()) << store.recovery()->ToString();
  EXPECT_EQ(store.first_available(), 0);
  EXPECT_EQ(store.end_available(), 20);
  ASSERT_TRUE(store.meta().has_value());
  EXPECT_EQ(store.meta()->width, 48);
  EXPECT_EQ(store.meta()->height, 32);
  for (std::int64_t i = 0; i < 20; ++i) {
    const auto chunk = store.ReadChunk(i);
    ASSERT_TRUE(chunk.has_value()) << "frame " << i;
    EXPECT_EQ(*chunk, first_run_chunks[static_cast<std::size_t>(i)]);
  }

  // Appending continues the archive's own timeline at 20 (the fresh encoder
  // opens with a keyframe, so the continuation is independently decodable).
  ArchiveFrames(store, 48, 32, 20, 30);
  EXPECT_EQ(store.end_available(), 30);
  const auto clip = store.FetchClip(18, 24, 80'000, 10);  // spans the restart
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->chunks.size(), 6u);
}

TEST(PackStore, ReopenRejectsMismatchedGeometry) {
  TempDir dir("geometry");
  {
    core::EdgeStore store(PackCfg(dir.str()));
    ArchiveFrames(store, 48, 32, 0, 5);
  }
  core::EdgeStore store(PackCfg(dir.str()));
  EXPECT_THROW(store.Archive(TestFrame(32, 48, 5)), util::CheckError);
}

// --- Crash safety: the truncation matrix (satellite) -----------------------
//
// Build a pristine two-segment pack, then truncate the NEWEST segment file
// at every byte offset — every possible kill -9 point of the append path —
// and reopen. Required at every offset: no crash, a loud (non-clean)
// recovery report, and every surviving chunk byte-identical to the pristine
// one. Whole records survive, partial records are truncated away.

TEST(PackStore, TailTruncationAtEveryByteOffsetRecoversLoudly) {
  TempDir pristine("trunc_pristine");
  std::vector<std::string> chunks;
  constexpr std::int64_t kFrames = 8;
  {
    core::EdgeStore store(PackCfg(pristine.str(), /*gop=*/1,
                                  /*segment_frames=*/4));
    ArchiveFrames(store, 16, 12, 0, kFrames);
    for (std::int64_t i = 0; i < kFrames; ++i) {
      chunks.push_back(*store.ReadChunk(i));
    }
  }
  const auto files = SegmentFiles(pristine.path);
  ASSERT_EQ(files.size(), 2u);  // [0,4) sealed early + [4,8) sealed at close
  const fs::path newest = files.back();
  const auto full_size = static_cast<std::int64_t>(fs::file_size(newest));
  ASSERT_GT(full_size, 0);

  TempDir scratch("trunc_scratch");
  for (std::int64_t cut = 0; cut < full_size; ++cut) {
    CopyDir(pristine.path, scratch.path);
    store::TruncateFile((scratch.path / newest.filename()).string(), cut);

    core::EdgeStore store(PackCfg(scratch.str(), /*gop=*/1,
                                  /*segment_frames=*/4));  // must not throw
    ASSERT_TRUE(store.recovery().has_value());
    EXPECT_FALSE(store.recovery()->clean())
        << "cut at " << cut << " went unreported";
    // The first (untouched) segment always survives intact; the truncated
    // one contributes exactly its complete records.
    EXPECT_EQ(store.first_available(), 0) << "cut at " << cut;
    const std::int64_t end = store.end_available();
    EXPECT_GE(end, 4) << "cut at " << cut;
    EXPECT_LE(end, kFrames) << "cut at " << cut;
    for (std::int64_t i = 0; i < end; ++i) {
      const auto chunk = store.ReadChunk(i);
      ASSERT_TRUE(chunk.has_value()) << "cut at " << cut << " frame " << i;
      EXPECT_EQ(*chunk, chunks[static_cast<std::size_t>(i)])
          << "torn bytes at cut " << cut << " frame " << i;
    }
    // Recovery re-seals what it kept: the next reopen is clean.
    core::EdgeStore again(PackCfg(scratch.str(), /*gop=*/1,
                                  /*segment_frames=*/4));
    EXPECT_EQ(again.end_available(), end) << "cut at " << cut;
  }
}

// Truncating at a record boundary (the honest crash-between-appends case)
// loses nothing: all N records, or all but the one mid-write, come back.
TEST(PackStore, TruncationMidFinalRecordKeepsAllButOne) {
  TempDir pristine("trunc_final");
  {
    core::EdgeStore store(PackCfg(pristine.str(), /*gop=*/1,
                                  /*segment_frames=*/64));
    ArchiveFrames(store, 16, 12, 0, 6);
  }
  const auto files = SegmentFiles(pristine.path);
  ASSERT_EQ(files.size(), 1u);
  // Chop the sealed footer (6 entries + trailer) plus one byte of the final
  // record's payload: a crash mid-append of record 6.
  const auto footer_bytes =
      static_cast<std::int64_t>(6 * store::kIdxEntryBytes +
                                store::kIdxTrailerBytes);
  const auto full = static_cast<std::int64_t>(fs::file_size(files[0]));
  store::TruncateFile(files[0].string(), full - footer_bytes - 1);

  core::EdgeStore store(PackCfg(pristine.str(), /*gop=*/1,
                                /*segment_frames=*/64));
  EXPECT_EQ(store.end_available(), 5);  // N-1: only the torn record is lost
  EXPECT_FALSE(store.recovery()->clean());
  EXPECT_GT(store.recovery()->dropped_bytes, 0u);
}

// --- Corruption fuzz (runs under ASan/UBSan in CI) -------------------------

TEST(PackStore, SeededByteFlipFuzzNeverCrashesOrServesTornBytes) {
  TempDir pristine("fuzz_pristine");
  std::vector<std::string> chunks;
  {
    core::EdgeStore store(PackCfg(pristine.str(), /*gop=*/2,
                                  /*segment_frames=*/4));
    ArchiveFrames(store, 16, 12, 0, 10);
    for (std::int64_t i = 0; i < 10; ++i) {
      chunks.push_back(*store.ReadChunk(i));
    }
  }
  util::Pcg32 rng(1234);
  TempDir scratch("fuzz_scratch");
  for (int trial = 0; trial < 200; ++trial) {
    CopyDir(pristine.path, scratch.path);
    const auto files = SegmentFiles(scratch.path);
    const auto& victim = files[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(files.size()) - 1))];
    std::string bytes = ReadFileBytes(victim);
    const std::int64_t flips = rng.UniformInt(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[at] = static_cast<char>(bytes[at] ^
                                    static_cast<char>(rng.UniformInt(1, 255)));
    }
    std::ofstream(victim, std::ios::binary).write(bytes.data(),
                                                  bytes.size());

    // Reopen must absorb arbitrary corruption without crashing...
    core::EdgeStore store(PackCfg(scratch.str(), /*gop=*/2,
                                  /*segment_frames=*/4));
    // ...and every read either throws loudly (CRC caught it at read time),
    // returns nullopt (the record was dropped), or returns pristine bytes —
    // never silently-wrong data.
    for (std::int64_t i = store.first_available(); i < store.end_available();
         ++i) {
      try {
        const auto chunk = store.ReadChunk(i);
        if (chunk.has_value()) {
          EXPECT_EQ(*chunk, chunks[static_cast<std::size_t>(i)])
              << "trial " << trial << " frame " << i;
        }
      } catch (const util::CheckError&) {
        // Loud corruption detection is an accepted outcome.
      }
    }
  }
}

TEST(PackStore, GarbageSegmentFileIsRemovedAndReported) {
  TempDir dir("garbage");
  {
    core::EdgeStore store(PackCfg(dir.str()));
    ArchiveFrames(store, 16, 12, 0, 5);
  }
  const fs::path junk = dir.path / "seg-000000009999.ffseg";
  std::ofstream(junk, std::ios::binary) << "this is not a segment";
  core::EdgeStore store(PackCfg(dir.str()));
  ASSERT_TRUE(store.recovery().has_value());
  EXPECT_FALSE(store.recovery()->clean());
  EXPECT_FALSE(store.recovery()->removed_files.empty());
  EXPECT_FALSE(fs::exists(junk));  // gone, not silently ignored
  EXPECT_EQ(store.end_available(), 5);  // real data untouched
}

// --- Concurrency (runs under TSan in CI) -----------------------------------

TEST(PackStore, ConcurrentAppendAndFetchIsSerializedSafely) {
  TempDir dir("concurrent");
  auto cfg = PackCfg(dir.str(), /*gop=*/2, /*segment_frames=*/8);
  cfg.capacity_frames = 64;
  core::EdgeStore store(cfg);
  store.Archive(TestFrame(32, 24, 0));  // non-empty before readers start

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::int64_t i = 1; i < 160; ++i) {
      store.Archive(TestFrame(32, 24, i));
    }
    done = true;
  });
  std::thread reader([&] {
    std::int64_t fetched = 0;
    while (!done.load() || fetched == 0) {
      const std::int64_t first = store.first_available();
      const std::int64_t end = store.end_available();
      if (end > first) {
        const auto clip =
            store.FetchClip(std::max(first, end - 4), end, 50'000, 15);
        if (clip.has_value()) ++fetched;
        (void)store.ReadChunk(end - 1);
        (void)store.stored_bytes();
      }
    }
    EXPECT_GT(fetched, 0);
  });
  writer.join();
  reader.join();
  EXPECT_EQ(store.end_available(), 160);
}

// --- Wall-clock time index (satellite) -------------------------------------

// Archives [begin, end) with explicit capture timestamps ts = (i + 1) * 1ms,
// so frame index i sits at a known, strictly increasing wall-clock point.
void ArchiveFramesTimed(core::EdgeStore& store, std::int64_t w, std::int64_t h,
                        std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    store.Archive(TestFrame(w, h, i), /*ts_ns=*/(i + 1) * 1'000'000);
  }
}

TEST(TimeIndex, DefaultTimestampsSynthesizeContiguousSequence) {
  core::EdgeStore store(/*capacity_frames=*/16);
  ArchiveFrames(store, 32, 24, 0, 5);  // default ts_ns = -1 throughout
  for (std::int64_t i = 0; i < 5; ++i) {
    const auto ts = store.TimestampOf(i);
    ASSERT_TRUE(ts.has_value());
    EXPECT_EQ(*ts, i);  // synthesized 0, 1, 2, ...
  }
  EXPECT_FALSE(store.TimestampOf(-1).has_value());
  EXPECT_FALSE(store.TimestampOf(5).has_value());  // never archived
}

TEST(TimeIndex, StaleClockIsClampedMonotoneAndDefaultContinues) {
  core::EdgeStore store(/*capacity_frames=*/16);
  store.Archive(TestFrame(32, 24, 0), /*ts_ns=*/5'000);
  store.Archive(TestFrame(32, 24, 1), /*ts_ns=*/3'000);  // clock went backwards
  store.Archive(TestFrame(32, 24, 2));                   // unknown after known
  EXPECT_EQ(store.TimestampOf(0).value(), 5'000);
  EXPECT_EQ(store.TimestampOf(1).value(), 5'000);  // clamped, never decreasing
  EXPECT_EQ(store.TimestampOf(2).value(), 5'001);  // synthesized last + 1
}

TEST(TimeIndex, TimestampsPersistAcrossReopenAndSeedContinuation) {
  TempDir dir("time_reopen");
  {
    core::EdgeStore store(PackCfg(dir.str()));
    ArchiveFramesTimed(store, 32, 24, 0, 6);
  }
  core::EdgeStore store(PackCfg(dir.str()));
  ASSERT_TRUE(store.recovery().has_value());
  EXPECT_TRUE(store.recovery()->clean());
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(store.TimestampOf(i).value(), (i + 1) * 1'000'000);
  }
  // A default-ts append after reopen continues from the on-disk newest
  // timestamp — the index stays monotone across the process restart.
  store.Archive(TestFrame(32, 24, 6));
  EXPECT_EQ(store.TimestampOf(6).value(), 6 * 1'000'000 + 1);
}

TEST(TimeIndex, FetchClipByTimeBoundaryMatrix) {
  core::EdgeStore store(/*capacity_frames=*/100);
  ArchiveFramesTimed(store, 32, 24, 0, 8);  // ts = 1ms .. 8ms

  // Exact hits on stored timestamps: [2ms, 5ms) -> frames 1, 2, 3.
  auto clip = store.FetchClipByTime(2'000'000, 5'000'000, 50'000, 15);
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->begin, 1);
  EXPECT_EQ(clip->end, 4);

  // Boundaries between samples round up to the next captured frame.
  clip = store.FetchClipByTime(1'500'000, 3'500'000, 50'000, 15);
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->begin, 1);  // first ts >= 1.5ms is frame 1 @ 2ms
  EXPECT_EQ(clip->end, 3);    // first ts >= 3.5ms is frame 3 @ 4ms

  // A range opening before the first capture starts at the first frame; one
  // extending past the newest runs to end_available().
  clip = store.FetchClipByTime(0, 2'000'000'000, 50'000, 15);
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->begin, 0);
  EXPECT_EQ(clip->end, 8);

  // Nothing retained at or after ts_begin, or a degenerate range: nullopt.
  EXPECT_FALSE(store.FetchClipByTime(9'000'000, 10'000'000, 50'000, 15)
                   .has_value());
  EXPECT_FALSE(store.FetchClipByTime(3'000'000, 3'000'000, 50'000, 15)
                   .has_value());
  EXPECT_FALSE(store.FetchClipByTime(5'000'000, 2'000'000, 50'000, 15)
                   .has_value());

  // Time-addressing is pure index mapping: the clip is bitwise what
  // FetchClip returns for the mapped frame range.
  const auto by_time = store.FetchClipByTime(2'000'000, 5'000'000, 50'000, 15);
  const auto by_index = store.FetchClip(1, 4, 50'000, 15);
  ASSERT_TRUE(by_time.has_value());
  ASSERT_TRUE(by_index.has_value());
  EXPECT_EQ(by_time->chunks, by_index->chunks);
  EXPECT_EQ(by_time->bytes, by_index->bytes);
}

TEST(TimeIndex, EvictionMovesTheQueryableWindowForward) {
  core::EdgeStore store(/*capacity_frames=*/4);
  ArchiveFramesTimed(store, 32, 24, 0, 10);  // retains frames [6, 10)
  EXPECT_FALSE(store.TimestampOf(5).has_value());  // evicted
  EXPECT_EQ(store.TimestampOf(6).value(), 7'000'000);
  // A query opening inside the evicted prefix clamps to the retained window.
  const auto clip = store.FetchClipByTime(0, 9'000'000, 50'000, 15);
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->begin, 6);
  EXPECT_EQ(clip->end, 8);  // first ts >= 9ms is frame 8 @ 9ms
}

TEST(TimeIndex, PackMatchesMemoryForTimeFetch) {
  TempDir dir("time_parity");
  core::EdgeStoreConfig mem_cfg;
  mem_cfg.capacity_frames = 100;
  mem_cfg.gop = 4;
  core::EdgeStore mem(mem_cfg);
  core::EdgeStore pack(PackCfg(dir.str(), /*gop=*/4));
  ArchiveFramesTimed(mem, 32, 24, 0, 12);
  ArchiveFramesTimed(pack, 32, 24, 0, 12);
  for (std::int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(mem.TimestampOf(i), pack.TimestampOf(i));
  }
  const auto a = mem.FetchClipByTime(3'000'000, 9'000'000, 60'000, 15);
  const auto b = pack.FetchClipByTime(3'000'000, 9'000'000, 60'000, 15);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->begin, b->begin);
  EXPECT_EQ(a->end, b->end);
  EXPECT_EQ(a->chunks, b->chunks);
}

}  // namespace
}  // namespace ff
