// End-to-end edge -> cloud tests: the edge node's upload sink feeding a
// DatacenterReceiver, clip reassembly, and decoded-frame fidelity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>

#include "codec/codec.hpp"
#include "core/datacenter.hpp"
#include "core/edge_node.hpp"
#include "video/dataset.hpp"
#include "video/source.hpp"

namespace ff::core {
namespace {

video::DatasetSpec SmallSpec(std::int64_t frames, std::uint64_t seed) {
  auto spec = video::JacksonSpec(160, frames, seed);
  spec.mean_event_len = 10;
  return spec;
}

struct EdgeCloudRun {
  std::unique_ptr<video::SyntheticDataset> ds;
  std::unique_ptr<dnn::FeatureExtractor> fx;
  std::unique_ptr<ResultCollector> collector;
  std::unique_ptr<EdgeNode> node;
  std::unique_ptr<DatacenterReceiver> receiver;
};

// Runs a 1-MC edge node with the given threshold, wired to a receiver.
EdgeCloudRun RunEdgeCloud(std::int64_t frames, float threshold,
                          std::uint64_t seed = 61) {
  EdgeCloudRun r;
  r.ds = std::make_unique<video::SyntheticDataset>(SmallSpec(frames, seed));
  r.fx = std::make_unique<dnn::FeatureExtractor>(
      dnn::MobileNetOptions{.include_classifier = false});
  EdgeNodeConfig cfg;
  cfg.frame_width = r.ds->spec().width;
  cfg.frame_height = r.ds->spec().height;
  cfg.fps = r.ds->spec().fps;
  cfg.upload_bitrate_bps = 80'000;
  r.collector = std::make_unique<ResultCollector>();
  r.node = std::make_unique<EdgeNode>(*r.fx, cfg);
  r.receiver = std::make_unique<DatacenterReceiver>(cfg.frame_width,
                                                    cfg.frame_height);
  r.node->SetUploadSink(
      [rec = r.receiver.get()](const UploadPacket& p) { rec->Receive(p); });
  McSpec spec;
  spec.mc = MakeMicroclassifier(
      "full_frame", {.name = "mc", .tap = dnn::kLateTap, .seed = 3}, *r.fx,
      r.ds->spec().height, r.ds->spec().width);
  spec.threshold = threshold;
  r.collector->Bind(spec);
  r.node->Attach(std::move(spec));
  video::DatasetSource src(*r.ds);
  r.node->Run(src);
  return r;
}

TEST(Datacenter, ReceivesExactlyUploadedFrames) {
  const auto r = RunEdgeCloud(25, 0.0f);  // everything matches
  EXPECT_EQ(r.receiver->frames_received(), 25);
  EXPECT_EQ(r.receiver->frames_received(), r.node->frames_uploaded());
  EXPECT_EQ(r.receiver->bytes_received(), r.node->upload_bytes());
  // Frame indices arrive in order.
  for (std::size_t i = 0; i < r.receiver->frame_indices().size(); ++i) {
    EXPECT_EQ(r.receiver->frame_indices()[i], static_cast<std::int64_t>(i));
  }
}

TEST(Datacenter, NoMatchesNothingReceived) {
  const auto r = RunEdgeCloud(15, 1.1f);
  EXPECT_EQ(r.receiver->frames_received(), 0);
  EXPECT_EQ(r.receiver->bytes_received(), 0u);
  EXPECT_TRUE(r.receiver->Clips().empty());
}

TEST(Datacenter, ClipsMatchEdgeNodeEvents) {
  const auto r = RunEdgeCloud(40, 0.0f);
  const auto clips = r.receiver->Clips();
  const auto& events = r.collector->result().events;
  ASSERT_EQ(clips.size(), events.size());
  for (std::size_t i = 0; i < clips.size(); ++i) {
    EXPECT_EQ(clips[i].mc_name, "mc");
    EXPECT_EQ(clips[i].event_id, events[i].id);
    EXPECT_EQ(clips[i].first_frame, events[i].begin);
    EXPECT_EQ(clips[i].last_frame, events[i].end - 1);
    EXPECT_EQ(static_cast<std::int64_t>(clips[i].frame_slots.size()),
              events[i].length());
  }
}

TEST(Datacenter, DecodedFramesResembleOriginals) {
  const auto r = RunEdgeCloud(20, 0.0f);
  ASSERT_GT(r.receiver->frames_received(), 0);
  double psnr_sum = 0;
  for (std::size_t i = 0; i < r.receiver->frames().size(); ++i) {
    const auto& decoded = r.receiver->frames()[i];
    const video::Frame original =
        r.ds->RenderFrame(r.receiver->frame_indices()[i]);
    psnr_sum += video::Psnr(original, decoded);
  }
  EXPECT_GT(psnr_sum / static_cast<double>(r.receiver->frames_received()),
            24.0);
}

TEST(Datacenter, RejectsOutOfOrderPackets) {
  DatacenterReceiver rec(160, 90);
  // Build two valid packets via an encoder.
  codec::EncoderConfig ec{.width = 160, .height = 90};
  codec::Encoder enc(ec);
  const video::SyntheticDataset ds(SmallSpec(4, 62));
  UploadPacket p0;
  p0.frame_index = 2;
  p0.metadata.frame_index = 2;
  p0.chunk = enc.EncodeFrame(ds.RenderFrame(2), true);
  rec.Receive(p0);
  UploadPacket p1;
  p1.frame_index = 1;  // out of order
  p1.metadata.frame_index = 1;
  p1.chunk = enc.EncodeFrame(ds.RenderFrame(1), true);
  EXPECT_THROW(rec.Receive(p1), util::CheckError);
}

TEST(Datacenter, TombstonesCarryMetadataOnlyAndClipsStayLive) {
  // Tombstones (cross-camera dedupe) must never reach the decoder, must
  // count separately, and must still extend clip bookkeeping — the
  // suppressed event's bounds stay visible even though its frames live on
  // another stream's receiver.
  DatacenterReceiver rec(160, 90);
  auto tomb = [](std::int64_t index, std::int64_t event_id) {
    UploadPacket p;
    p.frame_index = index;
    p.metadata.frame_index = index;
    p.tombstone = true;
    p.metadata.memberships.emplace_back("mc", event_id);
    return p;
  };
  for (std::int64_t i = 0; i < 5; ++i) rec.Receive(tomb(i, 0));
  EXPECT_EQ(rec.tombstones_received(), 5);
  EXPECT_EQ(rec.frames_received(), 0);
  EXPECT_EQ(rec.bytes_received(), 0u);

  const auto clips = rec.Clips();
  ASSERT_EQ(clips.size(), 1u);
  EXPECT_EQ(clips[0].first_frame, 0);
  EXPECT_EQ(clips[0].last_frame, 4);
  EXPECT_TRUE(clips[0].frame_slots.empty());  // no decoded frames

  // Clips() after the next Receive() reflects the new event.
  rec.Receive(tomb(7, 1));
  const auto fresh = rec.Clips();
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[1].event_id, 1);
  EXPECT_EQ(fresh[1].first_frame, 7);

  // A tombstone claiming a bitstream contradicts itself.
  UploadPacket bad = tomb(9, 2);
  bad.chunk = "x";
  EXPECT_THROW(rec.Receive(bad), util::CheckError);
}

TEST(Datacenter, SinkRequiresUploadsEnabled) {
  const video::SyntheticDataset ds(SmallSpec(5, 63));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNodeConfig cfg;
  cfg.frame_width = ds.spec().width;
  cfg.frame_height = ds.spec().height;
  cfg.enable_upload = false;
  EdgeNode no_upload(fx, cfg);
  EXPECT_THROW(no_upload.SetUploadSink([](const UploadPacket&) {}),
               util::CheckError);
}

TEST(Datacenter, UploadSinkBindsLate) {
  // The sink may be installed mid-stream; it receives the frames finalized
  // after the call (the old API silently required pre-stream binding).
  const video::SyntheticDataset ds(SmallSpec(12, 64));
  dnn::FeatureExtractor fx({.include_classifier = false});
  EdgeNodeConfig cfg;
  cfg.frame_width = ds.spec().width;
  cfg.frame_height = ds.spec().height;
  cfg.fps = ds.spec().fps;
  cfg.upload_bitrate_bps = 80'000;
  EdgeNode node(fx, cfg);
  node.Attach({.mc = MakeMicroclassifier(
                   "full_frame",
                   {.name = "mc", .tap = dnn::kLateTap, .seed = 3}, fx,
                   ds.spec().height, ds.spec().width),
               .threshold = 0.0f});  // everything matches
  std::vector<std::int64_t> seen;
  for (std::int64_t t = 0; t < 6; ++t) node.Submit(ds.RenderFrame(t));
  const std::int64_t already = node.frames_uploaded();
  node.SetUploadSink(
      [&](const UploadPacket& p) { seen.push_back(p.frame_index); });
  for (std::int64_t t = 6; t < 12; ++t) node.Submit(ds.RenderFrame(t));
  node.Drain();
  EXPECT_EQ(node.frames_uploaded(), 12);
  ASSERT_FALSE(seen.empty());
  // The late-bound sink saw exactly the frames finalized after binding.
  EXPECT_EQ(seen.front(), already);
  EXPECT_EQ(seen.back(), 11);
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), 12 - already);
}

// A receiver fed packets across several GOPs, with tombstones and one
// mutated chunk mid-GOP, next to what a reference decoder returned for each
// accepted chunk at receive time (the decode the receiver used to keep).
struct ReplayFixture {
  DatacenterReceiver rec{160, 90};
  std::vector<video::Frame> want;  // by slot, index set
  std::vector<std::int64_t> refused;  // frame indices
  std::vector<std::int64_t> iframes;  // frame indices of I-frame chunks
};

ReplayFixture FeedSeveralGops() {
  constexpr std::int64_t kFrames = 40;
  constexpr std::int64_t kMutated = 12;  // a P-frame mid-GOP
  const std::vector<std::int64_t> tombstones = {3, 4, 19, 27};
  const video::SyntheticDataset ds(SmallSpec(kFrames, 65));
  codec::Encoder enc({.width = 160, .height = 90, .gop_size = 6});
  codec::Decoder ref(160, 90);
  ReplayFixture f;
  for (std::int64_t t = 0; t < kFrames; ++t) {
    UploadPacket p;
    p.frame_index = t;
    p.metadata.frame_index = t;
    p.metadata.memberships.emplace_back("mc", t / 10);
    if (std::find(tombstones.begin(), tombstones.end(), t) !=
        tombstones.end()) {
      p.tombstone = true;
      f.rec.Receive(p);
      continue;
    }
    // An event start forces an I-frame off the GOP cadence, as the edge's
    // upload path does.
    p.chunk = enc.EncodeFrame(ds.RenderFrame(t), /*force_iframe=*/t == 25);
    if (codec::IsIFrame(p.chunk)) f.iframes.push_back(t);
    if (t == kMutated) {
      EXPECT_FALSE(codec::IsIFrame(p.chunk));
      std::fill(p.chunk.begin(), p.chunk.end(), '\0');
    }
    try {
      video::Frame frame = ref.DecodeFrame(p.chunk);
      frame.index = t;
      f.want.push_back(std::move(frame));
    } catch (const util::CheckError&) {
      ref.DropReference();
      f.refused.push_back(t);
      EXPECT_THROW(f.rec.Receive(p), util::CheckError) << "frame " << t;
      continue;
    }
    f.rec.Receive(p);
  }
  return f;
}

void ExpectSameFrame(const video::Frame& got, const video::Frame& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  EXPECT_EQ(got.index, want.index);
  const auto n = static_cast<std::size_t>(want.pixels());
  EXPECT_EQ(0, std::memcmp(got.r(), want.r(), n)) << "frame " << want.index;
  EXPECT_EQ(0, std::memcmp(got.g(), want.g(), n)) << "frame " << want.index;
  EXPECT_EQ(0, std::memcmp(got.b(), want.b(), n)) << "frame " << want.index;
}

TEST(Datacenter, FeedSpansGopsTombstonesAndARefusedRun) {
  const ReplayFixture f = FeedSeveralGops();
  // gop_size counts encoded frames, so the tombstones shift the cadence:
  // I-frames at 0, 8, 14, 21, the forced 25, then 28 and 34.
  EXPECT_EQ(f.iframes, (std::vector<std::int64_t>{0, 8, 14, 21, 25, 28, 34}));
  // The mutated P-frame and the P-frames after it are refused until the
  // next I-frame; the rest of the run decodes.
  EXPECT_EQ(f.refused, (std::vector<std::int64_t>{12, 13}));
  ASSERT_EQ(f.rec.frames_received(), static_cast<std::int64_t>(f.want.size()));
  EXPECT_EQ(f.rec.tombstones_received(), 4);
  for (std::size_t s = 0; s < f.want.size(); ++s) {
    EXPECT_EQ(f.rec.frame_indices()[s], f.want[s].index);
  }
}

TEST(Datacenter, DecodeOnReadIsBitwiseInAnyReadOrder) {
  const ReplayFixture f = FeedSeveralGops();
  const std::size_t n = f.want.size();
  ASSERT_EQ(f.rec.frames().size(), n);

  std::vector<std::size_t> forward(n);
  std::iota(forward.begin(), forward.end(), std::size_t{0});
  std::vector<std::size_t> reverse(forward.rbegin(), forward.rend());
  // Seeded random order, then some slots read twice in a row or again later.
  std::vector<std::size_t> shuffled = forward;
  std::mt19937 rng(66);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (std::size_t k = 0; k < n; k += 3) {
    shuffled.insert(shuffled.begin() + static_cast<std::ptrdiff_t>(k),
                    shuffled[k]);
  }
  shuffled.insert(shuffled.end(), {n - 1, 0, n / 2, n / 2, 1});

  for (const auto* order : {&forward, &reverse, &shuffled}) {
    const auto view = f.rec.frames();  // one cache across the whole order
    for (const std::size_t s : *order) ExpectSameFrame(view[s], f.want[s]);
  }
  // A fresh view per read starts every read from a cold cache.
  for (const std::size_t s : shuffled) {
    ExpectSameFrame(f.rec.frames()[s], f.want[s]);
  }
}

}  // namespace
}  // namespace ff::core
