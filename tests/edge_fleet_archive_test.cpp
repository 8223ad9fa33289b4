// The fleet's archive tail (phase 5) against the durable store subsystem:
// per-stream pack archives under EdgeFleetConfig::archive_dir, appended at
// the end of each turn — on the Step() caller or the pipeline driver —
// after the batch's sinks have fired.
// Pins: (a) the pipelined schedule archives BITWISE-identically to the
// synchronous one, (b) AddStream/RemoveStream churn mid-run keeps every
// archive consistent, (c) a removed stream's archive remains fetchable
// (fetch-after-detach via the retired-store registry), (d) a fleet
// archive survives fleet destruction and reopens clean, and (e) an append
// that throws surfaces on either schedule and leaves a destructible fleet.
//
// This suite runs under the CI ThreadSanitizer leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/edge_fleet.hpp"
#include "core/edge_store.hpp"
#include "util/check.hpp"
#include "video/dataset.hpp"
#include "video/source.hpp"

namespace ff::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ff_fleet_archive_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

video::DatasetSpec CamSpec(std::int64_t width, std::int64_t frames,
                           std::uint64_t seed) {
  auto spec = video::JacksonSpec(width, frames, seed);
  spec.mean_event_len = 8;
  return spec;
}

video::Frame PushFrame(std::int64_t w, std::int64_t h, std::int64_t i) {
  video::Frame f(w, h);
  f.FillRect((i * 5) % w, (i * 3) % h, w / 3, h / 3,
             {static_cast<std::uint8_t>(60 + i * 7), 120, 40});
  f.index = i;
  return f;
}

void ExpectArchivesBitwiseEqual(EdgeStore& a, EdgeStore& b) {
  ASSERT_EQ(a.first_available(), b.first_available());
  ASSERT_EQ(a.end_available(), b.end_available());
  for (std::int64_t i = a.first_available(); i < a.end_available(); ++i) {
    const auto ca = a.ReadChunk(i);
    const auto cb = b.ReadChunk(i);
    ASSERT_TRUE(ca.has_value() && cb.has_value()) << "frame " << i;
    EXPECT_EQ(*ca, *cb) << "archived chunk " << i << " differs";
  }
}

// (a) The pipelined archive tail appends, per stream, exactly the bytes the
// synchronous schedule appends — same chunks, same order, same windows —
// even though the pipeline driver interleaves them with later gathers.
TEST(EdgeFleetArchive, PipelinedArchiveMatchesSynchronousBitwise) {
  const std::int64_t kFrames = 10;
  TempDir sync_dir("sync");
  TempDir pipe_dir("pipe");

  auto run = [&](const std::string& dir, bool pipelined) {
    const video::SyntheticDataset cam0(CamSpec(128, kFrames, 31));
    const video::SyntheticDataset cam1(CamSpec(128, kFrames, 32));
    dnn::FeatureExtractor fx({.include_classifier = false});
    EdgeFleetConfig cfg;
    cfg.enable_upload = false;  // isolate the archive tail
    cfg.archive_dir = dir;
    cfg.archive_gop = 4;  // keyframe groups span batches
    cfg.max_batch = 3;    // deliberately not a multiple of the stream count
    EdgeFleet fleet(fx, cfg);
    video::DatasetSource src0(cam0), src1(cam1);
    const StreamHandle s0 = fleet.AddStream(src0);
    const StreamHandle s1 = fleet.AddStream(src1);
    const std::int64_t n = pipelined ? fleet.RunPipelined() : fleet.Run();
    EXPECT_EQ(n, 2 * kFrames);
    EXPECT_EQ(fleet.edge_store(s0)->end_available(), kFrames);
    EXPECT_EQ(fleet.edge_store(s1)->end_available(), kFrames);
  };
  run(sync_dir.str(), /*pipelined=*/false);
  run(pipe_dir.str(), /*pipelined=*/true);

  // Compare the packs on disk, stream by stream (both fleets assigned
  // handles 0 and 1 in AddStream order).
  for (const char* stream : {"stream-0", "stream-1"}) {
    EdgeStoreConfig cfg;
    cfg.gop = 4;
    cfg.dir = (sync_dir.path / stream).string();
    EdgeStore sync_store(cfg);
    cfg.dir = (pipe_dir.path / stream).string();
    EdgeStore pipe_store(cfg);
    ASSERT_TRUE(sync_store.recovery()->clean())
        << sync_store.recovery()->ToString();
    ASSERT_TRUE(pipe_store.recovery()->clean())
        << pipe_store.recovery()->ToString();
    EXPECT_EQ(sync_store.end_available(), kFrames);
    ExpectArchivesBitwiseEqual(sync_store, pipe_store);
  }
}

// (b)+(c) Stream churn while the pipeline runs:
// streams added mid-run archive from their first frame, a stream removed
// mid-run keeps its archive fetchable through the retired-store registry,
// and handles the fleet never saw fail loudly.
TEST(EdgeFleetArchive, ChurnMidRunAndFetchAfterDetach) {
  TempDir dir("churn");
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeFleetConfig cfg;
  cfg.enable_upload = false;
  cfg.archive_dir = dir.str();
  cfg.archive_gop = 2;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  EdgeFleet fleet(fx, cfg);
  fleet.StartPipeline();

  const StreamHandle a = fleet.AddStream({.frame_width = 128,
                                          .frame_height = 96,
                                          .fps = 15});
  for (std::int64_t i = 0; i < 8; ++i) fleet.Push(a, PushFrame(128, 96, i));
  fleet.WaitPipelineIdle();
  EXPECT_EQ(fleet.edge_store(a)->end_available(), 8);

  // Add a second stream mid-run; keep feeding both.
  const StreamHandle b = fleet.AddStream({.frame_width = 128,
                                          .frame_height = 96,
                                          .fps = 15});
  for (std::int64_t i = 0; i < 6; ++i) fleet.Push(b, PushFrame(128, 96, 100 + i));
  for (std::int64_t i = 8; i < 12; ++i) fleet.Push(a, PushFrame(128, 96, i));
  fleet.WaitPipelineIdle();

  std::shared_ptr<EdgeStore> store_a = fleet.edge_store_shared(a);
  EXPECT_EQ(store_a->end_available(), 12);
  const auto before = *store_a->ReadChunk(10);

  // Remove A while the pipeline is live. Its archive must stay readable:
  // the fleet retires the store instead of dropping it.
  fleet.RemoveStream(a);
  EXPECT_FALSE(fleet.HasStream(a));
  EdgeStore* retired = fleet.edge_store(a);
  ASSERT_NE(retired, nullptr);
  EXPECT_EQ(retired->end_available(), 12);
  EXPECT_EQ(*retired->ReadChunk(10), before);
  const auto clip = retired->FetchClip(6, 12, 80'000, 15);
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->chunks.size(), 6u);

  // B keeps archiving after A's departure.
  for (std::int64_t i = 6; i < 10; ++i) fleet.Push(b, PushFrame(128, 96, 100 + i));
  fleet.WaitPipelineIdle();
  fleet.StopPipeline();
  fleet.Drain();
  EXPECT_EQ(fleet.edge_store(b)->end_available(), 10);

  // A handle the fleet never issued fails loudly, live or retired.
  EXPECT_THROW(fleet.edge_store(static_cast<StreamHandle>(999)),
               util::CheckError);
}

// (d) The per-stream pack outlives both the stream and the fleet: after the
// fleet (and every shared store handle) is gone, reopening the directory
// recovers the archive cleanly with every chunk intact.
TEST(EdgeFleetArchive, ArchiveSurvivesFleetDestructionAndReopensClean) {
  TempDir dir("survive");
  std::vector<std::string> chunks;
  {
    dnn::FeatureExtractor fx({.include_classifier = false});
    EdgeFleetConfig cfg;
    cfg.enable_upload = false;
    cfg.archive_dir = dir.str();
    cfg.archive_segment_frames = 4;
    EdgeFleet fleet(fx, cfg);
    const StreamHandle s = fleet.AddStream({.frame_width = 128,
                                            .frame_height = 96,
                                            .fps = 15});
    fleet.StartPipeline();
    for (std::int64_t i = 0; i < 9; ++i) fleet.Push(s, PushFrame(128, 96, i));
    fleet.WaitPipelineIdle();
    fleet.StopPipeline();
    fleet.Drain();
    for (std::int64_t i = 0; i < 9; ++i) {
      chunks.push_back(*fleet.edge_store(s)->ReadChunk(i));
    }
  }  // fleet gone; stores sealed on destruction

  EdgeStoreConfig cfg;
  cfg.dir = (dir.path / "stream-0").string();
  EdgeStore store(cfg);
  ASSERT_TRUE(store.recovery().has_value());
  EXPECT_TRUE(store.recovery()->clean()) << store.recovery()->ToString();
  ASSERT_EQ(store.end_available(), 9);
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(*store.ReadChunk(i), chunks[static_cast<std::size_t>(i)]);
  }
}

// In-RAM archiving (capacity only, no dir) drives the same pipelined
// archive tail; the retention window tracks the configured capacity.
TEST(EdgeFleetArchive, InRamCapacityArchivingWorksPipelined) {
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeFleetConfig cfg;
  cfg.enable_upload = false;
  cfg.edge_store_capacity = 6;
  EdgeFleet fleet(fx, cfg);
  const StreamHandle s = fleet.AddStream({.frame_width = 128,
                                          .frame_height = 96,
                                          .fps = 15});
  fleet.StartPipeline();
  for (std::int64_t i = 0; i < 15; ++i) fleet.Push(s, PushFrame(128, 96, i));
  fleet.WaitPipelineIdle();
  fleet.StopPipeline();
  fleet.Drain();
  EXPECT_EQ(fleet.edge_store(s)->end_available(), 15);
  EXPECT_EQ(fleet.edge_store(s)->first_available(), 9);
  EXPECT_FALSE(fleet.edge_store(s)->recovery().has_value());
}

// (e) A store that rejects the append fails the turn it runs in. The pack
// left under stream 0's directory has another geometry, so the first
// append throws (EdgeStore's reopened-geometry check) after the batch was
// processed. Pipelined, WaitPipelineIdle() returns rather than hangs and
// StopPipeline() rethrows; synchronous, Step() throws. Either way the
// fleet then destructs cleanly.
TEST(EdgeFleetArchive, AppendErrorSurfacesOnEitherSchedule) {
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "synchronous");
    TempDir dir(pipelined ? "error_pipe" : "error_sync");
    {
      EdgeStoreConfig sc;
      sc.dir = (dir.path / "stream-0").string();
      EdgeStore other(sc);
      other.Archive(PushFrame(64, 48, 0), 0, false);
    }
    dnn::FeatureExtractor fx({.include_classifier = false});
    EdgeFleetConfig cfg;
    cfg.enable_upload = false;
    cfg.archive_dir = dir.str();
    EdgeFleet fleet(fx, cfg);
    const StreamHandle s = fleet.AddStream({.frame_width = 128,
                                            .frame_height = 96,
                                            .fps = 15});
    fleet.Push(s, PushFrame(128, 96, 0));
    if (pipelined) {
      fleet.StartPipeline();
      fleet.WaitPipelineIdle();
      EXPECT_THROW(fleet.StopPipeline(), util::CheckError);
      EXPECT_FALSE(fleet.pipeline_active());
    } else {
      EXPECT_THROW(fleet.Step(), util::CheckError);
    }
    // The append runs after the batch's decisions: the frame counts as
    // processed even though its archive write failed, and the reopened
    // pack still holds only its own frame.
    EXPECT_EQ(fleet.frames_processed(s), 1);
    EXPECT_EQ(fleet.edge_store(s)->end_available(), 1);
  }
}

}  // namespace
}  // namespace ff::core
