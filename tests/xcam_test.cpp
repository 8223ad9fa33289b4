// Unit coverage for the cross-camera correlation plane's building blocks:
// the overlap Topology, the pooled-tap signature path (PoolSpatial /
// BackgroundModel / SignatureAccumulator / Cosine), and the Correlator's
// matching, watermark finalization, deterministic emission, canonical
// election, and stream-flush semantics. Fleet-level integration (deferred
// uploads, tombstones, bitwise guards) lives in edge_fleet_xcam_test.
//
// This suite runs under the CI ThreadSanitizer leg.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "xcam/correlator.hpp"
#include "xcam/signature.hpp"
#include "xcam/topology.hpp"

namespace ff::xcam {
namespace {

constexpr std::int64_t kMs = 1'000'000;  // ns per ms

TEST(XcamTopology, EdgesAreUndirectedAndAffinityIsPerPair) {
  Topology topo;
  EXPECT_TRUE(topo.empty());
  topo.AddOverlap(0, 1, 1.0f).AddOverlap(1, 2, 0.5f);
  EXPECT_FALSE(topo.empty());
  EXPECT_EQ(topo.edge_count(), 2u);
  EXPECT_TRUE(topo.Overlaps(0, 1));
  EXPECT_TRUE(topo.Overlaps(1, 0));  // undirected
  EXPECT_FALSE(topo.Overlaps(0, 2));
  EXPECT_FLOAT_EQ(topo.Affinity(2, 1), 0.5f);
  EXPECT_FLOAT_EQ(topo.Affinity(0, 2), 0.0f);  // undeclared
  EXPECT_TRUE(topo.Contains(0));
  EXPECT_TRUE(topo.Contains(2));
  EXPECT_FALSE(topo.Contains(3));
  // Re-adding overwrites the affinity without growing the edge set.
  topo.AddOverlap(1, 0, 0.25f);
  EXPECT_EQ(topo.edge_count(), 2u);
  EXPECT_FLOAT_EQ(topo.Affinity(0, 1), 0.25f);
}

TEST(XcamTopology, RejectsSelfEdgesAndBadAffinity) {
  Topology topo;
  EXPECT_THROW(topo.AddOverlap(3, 3), util::CheckError);
  EXPECT_THROW(topo.AddOverlap(0, 1, 0.0f), util::CheckError);
  EXPECT_THROW(topo.AddOverlap(0, 1, 1.5f), util::CheckError);
}

TEST(XcamSignature, PoolSpatialIsThePerChannelMean) {
  tensor::Tensor t(tensor::Shape{2, 2, 2, 2});
  // Image 1, channel 0: {1, 2, 3, 4} -> mean 2.5; channel 1: all 8 -> 8.
  t.at(1, 0, 0, 0) = 1.0f;
  t.at(1, 0, 0, 1) = 2.0f;
  t.at(1, 0, 1, 0) = 3.0f;
  t.at(1, 0, 1, 1) = 4.0f;
  for (std::int64_t y = 0; y < 2; ++y)
    for (std::int64_t x = 0; x < 2; ++x) t.at(1, 1, y, x) = 8.0f;
  const std::vector<float> p0 = PoolSpatial(t, 0);
  const std::vector<float> p1 = PoolSpatial(t, 1);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_FLOAT_EQ(p0[0], 0.0f);
  EXPECT_FLOAT_EQ(p0[1], 0.0f);
  EXPECT_FLOAT_EQ(p1[0], 2.5f);
  EXPECT_FLOAT_EQ(p1[1], 8.0f);
  EXPECT_THROW(PoolSpatial(t, 2), util::CheckError);
}

TEST(XcamSignature, BackgroundModelSubtractsTheStaticScene) {
  BackgroundModel bg(0.5f);
  // The first frame initializes the background: zero residual.
  const std::vector<float> r0 = bg.Update({10.0f, 20.0f});
  EXPECT_EQ(r0, std::vector<float>({0.0f, 0.0f}));
  // Second frame: residual against the initialized background, then the EMA
  // folds half of it in.
  const std::vector<float> r1 = bg.Update({14.0f, 20.0f});
  EXPECT_FLOAT_EQ(r1[0], 4.0f);
  EXPECT_FLOAT_EQ(r1[1], 0.0f);
  EXPECT_FLOAT_EQ(bg.background()[0], 12.0f);
  const std::vector<float> r2 = bg.Update({12.0f, 20.0f});
  EXPECT_FLOAT_EQ(r2[0], 0.0f);
  EXPECT_EQ(bg.frames(), 3);
}

TEST(XcamSignature, AccumulatorNormalizesAndHandlesDegenerateSums) {
  SignatureAccumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_TRUE(acc.Normalized().empty());
  acc.Add({3.0f, 0.0f});
  acc.Add({0.0f, 4.0f});
  const std::vector<float> sig = acc.Normalized();
  ASSERT_EQ(sig.size(), 2u);
  EXPECT_FLOAT_EQ(sig[0], 0.6f);
  EXPECT_FLOAT_EQ(sig[1], 0.8f);
  acc.Reset();
  EXPECT_TRUE(acc.empty());
  // An all-zero accumulated vector has no direction: empty signature, which
  // the correlator treats as never-matching.
  acc.Add({0.0f, 0.0f});
  EXPECT_TRUE(acc.Normalized().empty());
}

TEST(XcamSignature, CosineBoundsAndDegenerateInputs) {
  EXPECT_FLOAT_EQ(Cosine({1, 0}, {1, 0}), 1.0f);
  EXPECT_FLOAT_EQ(Cosine({1, 0}, {0, 1}), 0.0f);
  EXPECT_FLOAT_EQ(Cosine({1, 0}, {-1, 0}), -1.0f);
  EXPECT_FLOAT_EQ(Cosine({}, {1, 0}), 0.0f);
  EXPECT_FLOAT_EQ(Cosine({1, 0}, {1, 0, 0}), 0.0f);  // dim mismatch
  EXPECT_FLOAT_EQ(Cosine({0, 0}, {1, 0}), 0.0f);     // zero vector
}

// --- Correlator ------------------------------------------------------------

ObservedEvent Ev(std::int64_t stream, std::int64_t id, std::int64_t begin_ms,
                 std::int64_t end_ms, std::vector<float> sig,
                 float peak = 0.9f, std::int64_t priority = 0) {
  ObservedEvent ev;
  ev.event.stream = stream;
  ev.event.mc = "mc";
  ev.event.id = id;
  ev.event.begin = begin_ms;  // frame bounds: arbitrary but distinct
  ev.event.end = end_ms;
  ev.event.begin_ts_ns = begin_ms * kMs;
  ev.event.end_ts_ns = end_ms * kMs;
  ev.signature = std::move(sig);
  ev.peak_score = peak;
  ev.priority = priority;
  return ev;
}

TEST(XcamCorrelator, FusesOverlappingStreamsAndEmitsOnWatermark) {
  Topology topo;
  topo.AddOverlap(0, 1);
  Correlator corr(topo, {.window_ns = 10 * kMs, .min_similarity = 0.6f});
  std::vector<CrossEventRecord> out;
  corr.set_sink([&](const CrossEventRecord& rec) { out.push_back(rec); });

  corr.Observe(Ev(0, 0, 100, 200, {1.0f, 0.0f}));
  corr.Observe(Ev(1, 0, 105, 195, {0.98f, 0.2f}));
  EXPECT_EQ(corr.pending_events(), 2);
  EXPECT_TRUE(out.empty());

  // Watermark just past the group: not yet provably unreachable (a future
  // event at begin_ts 201ms could still link within the 10ms window).
  corr.AdvanceWatermark(205 * kMs);
  EXPECT_TRUE(out.empty());
  // Past end + 2*window: finalized.
  corr.AdvanceWatermark(221 * kMs);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].global_id, 0);
  ASSERT_EQ(out[0].members.size(), 2u);
  EXPECT_EQ(out[0].members[0].stream, 0);
  EXPECT_EQ(out[0].members[1].stream, 1);
  EXPECT_EQ(out[0].begin_ts_ns, 100 * kMs);
  EXPECT_EQ(out[0].end_ts_ns, 200 * kMs);
  EXPECT_EQ(corr.pending_events(), 0);
  EXPECT_EQ(corr.stats().fused_groups, 1);
  EXPECT_EQ(corr.stats().members_fused, 2);
}

TEST(XcamCorrelator, UndeclaredPairsAndDissimilarSignaturesStaySeparate) {
  Topology topo;
  topo.AddOverlap(0, 1);
  Correlator corr(topo, {.window_ns = 10 * kMs, .min_similarity = 0.6f});
  std::vector<CrossEventRecord> out;
  corr.set_sink([&](const CrossEventRecord& rec) { out.push_back(rec); });

  // Stream 2 is not in the topology: never tested, never fused.
  corr.Observe(Ev(0, 0, 100, 200, {1.0f, 0.0f}));
  corr.Observe(Ev(2, 0, 100, 200, {1.0f, 0.0f}));
  // Stream 1 overlaps 0 in time, but the signature is orthogonal.
  corr.Observe(Ev(1, 0, 100, 200, {0.0f, 1.0f}));
  corr.Finish();
  ASSERT_EQ(out.size(), 3u);
  for (const CrossEventRecord& rec : out) EXPECT_EQ(rec.members.size(), 1u);
  EXPECT_EQ(corr.stats().fused_groups, 0);
}

TEST(XcamCorrelator, TemporalWindowGatesTheLink) {
  Topology topo;
  topo.AddOverlap(0, 1);
  Correlator corr(topo, {.window_ns = 5 * kMs, .min_similarity = 0.6f});
  std::vector<CrossEventRecord> out;
  corr.set_sink([&](const CrossEventRecord& rec) { out.push_back(rec); });
  corr.Observe(Ev(0, 0, 100, 200, {1.0f, 0.0f}));
  // Begins 11ms after the first ends; expanded windows (5ms each side) miss.
  corr.Observe(Ev(1, 0, 211, 300, {1.0f, 0.0f}));
  // Begins 9ms after: expanded windows touch.
  corr.Observe(Ev(1, 1, 209, 300, {1.0f, 0.0f}));
  corr.Finish();
  ASSERT_EQ(out.size(), 2u);
  // Groups emit in (begin_ts, first member key) order: the fused pair first.
  ASSERT_EQ(out[0].members.size(), 2u);
  EXPECT_EQ(out[0].members[1].event_id, 1);
  EXPECT_EQ(out[1].members.size(), 1u);
  EXPECT_EQ(out[1].members[0].event_id, 0);
}

TEST(XcamCorrelator, AffinityModulatesTheRequiredSimilarity) {
  Topology topo;
  topo.AddOverlap(0, 1, 0.5f);  // marginal overlap
  Correlator corr(topo, {.window_ns = 0, .min_similarity = 0.6f});
  EXPECT_FLOAT_EQ(corr.RequiredSimilarity(1.0f), 0.6f);
  EXPECT_FLOAT_EQ(corr.RequiredSimilarity(0.5f), 0.8f);
  std::vector<CrossEventRecord> out;
  corr.set_sink([&](const CrossEventRecord& rec) { out.push_back(rec); });
  // cos = ~0.707: clears min_similarity but not the affinity-raised bar.
  corr.Observe(Ev(0, 0, 100, 200, {1.0f, 0.0f}));
  corr.Observe(Ev(1, 0, 100, 200, {1.0f, 1.0f}));
  corr.Finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].members.size(), 1u);
  EXPECT_EQ(out[1].members.size(), 1u);
}

TEST(XcamCorrelator, EmissionIsObservationOrderInsensitive) {
  // Three streams pairwise overlapping; B links A and C transitively. The
  // emitted group (membership, canonical, global id) must be identical no
  // matter the order the per-stream events arrive in.
  Topology topo;
  topo.AddOverlap(0, 1).AddOverlap(1, 2).AddOverlap(0, 2);
  auto run = [&](std::vector<int> order) {
    Correlator corr(topo, {.window_ns = 10 * kMs, .min_similarity = 0.6f});
    std::vector<CrossEventRecord> out;
    corr.set_sink([&](const CrossEventRecord& rec) { out.push_back(rec); });
    std::vector<ObservedEvent> evs;
    evs.push_back(Ev(0, 0, 100, 200, {1.0f, 0.1f}, 0.7f));
    evs.push_back(Ev(1, 0, 110, 210, {0.9f, 0.2f}, 0.9f));
    evs.push_back(Ev(2, 0, 120, 220, {0.95f, 0.15f}, 0.8f));
    for (int i : order) corr.Observe(evs[static_cast<std::size_t>(i)]);
    corr.Finish();
    return out;
  };
  const auto a = run({0, 1, 2});
  const auto b = run({2, 0, 1});
  const auto c = run({1, 2, 0});
  for (const auto* out : {&a, &b, &c}) {
    ASSERT_EQ(out->size(), 1u);
    const CrossEventRecord& rec = (*out)[0];
    EXPECT_EQ(rec.global_id, 0);
    ASSERT_EQ(rec.members.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(rec.members[i].stream, static_cast<std::int64_t>(i));
    // Equal priority: the lowest member key (stream 0) is canonical, even
    // though stream 1 has the strongest MC response.
    EXPECT_EQ(rec.canonical, 0);
    EXPECT_EQ(rec.canonical_member().stream, 0);
  }
}

TEST(XcamCorrelator, CanonicalElectionPriorityBeatsPeakScore) {
  Topology topo;
  topo.AddOverlap(0, 1);
  Correlator corr(topo, {.window_ns = 10 * kMs, .min_similarity = 0.6f});
  std::vector<CrossEventRecord> out;
  corr.set_sink([&](const CrossEventRecord& rec) { out.push_back(rec); });
  // Stream 0 has the stronger response, stream 1 the higher priority tier.
  corr.Observe(Ev(0, 0, 100, 200, {1.0f, 0.0f}, /*peak=*/0.99f,
                  /*priority=*/0));
  corr.Observe(Ev(1, 0, 100, 200, {1.0f, 0.0f}, /*peak=*/0.55f,
                  /*priority=*/5));
  corr.Finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].canonical_member().stream, 1);
}

TEST(XcamCorrelator, ComponentLeadsAreWhatTheElectionPicks) {
  // Components {0, 1, 2} (a chain) and {3, 4}; stream 5 is declared but not
  // live, and it is the only bridge from {3, 4} to stream 6.
  Topology topo;
  topo.AddOverlap(0, 1).AddOverlap(1, 2).AddOverlap(3, 4).AddOverlap(4, 5)
      .AddOverlap(5, 6);
  // handle -> priority: 1 and 2 tie on the top tier; 4 outranks 3; 6 is on
  // its own once 5 is gone.
  const std::map<std::int64_t, std::int64_t> live{
      {0, 0}, {1, 2}, {2, 2}, {3, 0}, {4, 1}, {6, 0}};
  EXPECT_EQ(ComponentLeads(topo, live),
            (std::vector<std::int64_t>{1, 4, 6}));

  // A group holding the lead's event elects the lead, whatever the peak
  // scores and whichever member links the chain.
  Correlator corr(topo, {.window_ns = 10 * kMs, .min_similarity = 0.6f});
  std::vector<CrossEventRecord> out;
  corr.set_sink([&](const CrossEventRecord& rec) { out.push_back(rec); });
  corr.Observe(Ev(0, 0, 100, 200, {1.0f, 0.0f}, /*peak=*/0.99f, 0));
  corr.Observe(Ev(2, 0, 100, 200, {1.0f, 0.0f}, /*peak=*/0.5f, 2));
  corr.Observe(Ev(1, 0, 100, 200, {1.0f, 0.0f}, /*peak=*/0.6f, 2));
  corr.Finish();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].members.size(), 3u);
  EXPECT_EQ(out[0].canonical_member().stream, 1);
}

TEST(XcamCorrelator, FlushStreamForceFinalizesItsGroups) {
  Topology topo;
  topo.AddOverlap(0, 1);
  Correlator corr(topo, {.window_ns = 10 * kMs, .min_similarity = 0.6f});
  std::vector<CrossEventRecord> out;
  corr.set_sink([&](const CrossEventRecord& rec) { out.push_back(rec); });
  corr.Observe(Ev(0, 0, 100, 200, {1.0f, 0.0f}));
  corr.Observe(Ev(1, 0, 105, 195, {1.0f, 0.1f}));
  corr.Observe(Ev(1, 1, 500, 600, {0.0f, 1.0f}));  // unrelated, stays pending
  corr.FlushStream(0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].members.size(), 2u);
  EXPECT_EQ(corr.pending_events(), 1);
  corr.Finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].members[0].event_id, 1);
}

TEST(XcamCorrelator, FusesEverySyntheticGroupAsTheWatermarkAdvances) {
  // 256 groups of 2, 4 or 8 full-mesh members on a shared capture timeline,
  // groups 400 ms apart. Members of a group carry correlated 128-dim
  // signatures: one random base plus small per-camera noise, renormalized.
  // The watermark advances group by group, as the fleet advances it, so
  // finalized groups leave the pending set — and every group fuses whole.
  constexpr std::int64_t kGroups = 256;
  constexpr std::size_t kSigDim = 128;
  for (const std::int64_t cams : {2, 4, 8}) {
    SCOPED_TRACE(std::to_string(cams) + " cameras");
    Topology topo;
    for (std::int64_t a = 0; a < cams; ++a) {
      for (std::int64_t b = a + 1; b < cams; ++b) topo.AddOverlap(a, b);
    }
    Correlator corr(topo, {.window_ns = 50 * kMs});
    std::int64_t whole_groups = 0;
    corr.set_sink([&](const CrossEventRecord& rec) {
      if (static_cast<std::int64_t>(rec.members.size()) == cams) {
        ++whole_groups;
      }
    });
    util::Pcg32 rng(7);
    for (std::int64_t g = 0; g < kGroups; ++g) {
      // Every event of the groups before g has been observed.
      corr.AdvanceWatermark(g * 400 * kMs);
      std::vector<float> base(kSigDim);
      for (auto& x : base) x = rng.NextFloat() - 0.5f;
      for (std::int64_t c = 0; c < cams; ++c) {
        std::vector<float> sig(kSigDim);
        double norm = 0.0;
        for (std::size_t i = 0; i < kSigDim; ++i) {
          sig[i] = base[i] + 0.05f * (rng.NextFloat() - 0.5f);
          norm += static_cast<double>(sig[i]) * static_cast<double>(sig[i]);
        }
        for (auto& x : sig) x = static_cast<float>(x / std::sqrt(norm));
        const std::int64_t begin_ms = g * 400 + c;
        corr.Observe(Ev(c, g, begin_ms, begin_ms + 100, std::move(sig)));
      }
      EXPECT_LE(corr.pending_events(), cams);
    }
    corr.Finish();
    EXPECT_EQ(whole_groups, kGroups);
    EXPECT_EQ(corr.stats().fused_groups, kGroups);
    EXPECT_EQ(corr.stats().members_fused, kGroups * cams);
  }
}

TEST(XcamCorrelator, WatermarkNeverRegressesAndEventsNeedBounds) {
  Topology topo;
  topo.AddOverlap(0, 1);
  Correlator corr(topo, {});
  ObservedEvent bad = Ev(0, 0, 100, 200, {1.0f});
  bad.event.begin_ts_ns = -1;
  EXPECT_THROW(corr.Observe(bad), util::CheckError);
  std::vector<CrossEventRecord> out;
  corr.set_sink([&](const CrossEventRecord& rec) { out.push_back(rec); });
  corr.AdvanceWatermark(1000 * kMs);
  corr.AdvanceWatermark(500 * kMs);  // ignored, never regresses
  corr.Observe(Ev(0, 0, 2000, 2100, {1.0f, 0.0f}));
  corr.AdvanceWatermark(3000 * kMs);
  EXPECT_EQ(out.size(), 1u);
}

}  // namespace
}  // namespace ff::xcam
