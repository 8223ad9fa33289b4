// Cross-camera event correlation: fuses per-stream events describing the
// same physical object into one CrossEventRecord with an elected canonical
// view (docs/ARCHITECTURE.md, "The cross-camera correlation plane";
// "Collaborative Intelligent Cross-Camera Video Analytics at Edge",
// PAPERS.md).
//
// The correlator is a pure function of its inputs: closed per-stream events
// (capture-time bounds + appearance signature + election metadata) and a
// monotone capture-time watermark. Two events link when their streams are
// declared overlapping in the Topology, their capture windows (expanded by
// the configured slack) intersect, and their signatures agree by cosine
// similarity at the affinity-modulated threshold. Groups are the connected
// components of that link relation — computed with a union-find over the
// pending set, so the partition is independent of observation order.
//
// A group finalizes once the watermark proves no future event can link into
// it (directly or transitively): max member end_ts + 2*window < watermark,
// under the caller's contract that every event with begin_ts < watermark has
// already been observed. Eligible groups are emitted in (begin_ts, member
// key) order, so emission — including global id assignment — is a
// deterministic function of the event set and the watermark values, not of
// arrival interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/events.hpp"
#include "xcam/topology.hpp"

namespace ff::xcam {

// A closed per-stream event as the fleet hands it to the correlator.
struct ObservedEvent {
  core::EventRecord event;       // stream/mc/id/frame + capture-ts bounds
  std::vector<float> signature;  // L2-normalized; empty = never matches
  // Max MC score over the event's frames; reported on the member, never
  // used for election (it is only known once the event closes).
  float peak_score = 0.0f;
  std::int64_t priority = 0;  // StreamConfig::priority of the stream
};

// One member view of a fused cross-camera event.
struct CrossMember {
  std::int64_t stream = -1;
  std::string mc;
  std::int64_t event_id = -1;
  std::int64_t begin = 0;  // stream-local frame bounds, [begin, end)
  std::int64_t end = 0;
  std::int64_t begin_ts_ns = -1;  // capture ts of first/last member frame
  std::int64_t end_ts_ns = -1;
  float peak_score = 0.0f;  // informational (ObservedEvent::peak_score)
  std::int64_t priority = 0;
};

// One physical event across the fleet: a global object id, every member
// (stream, mc, event) view, and the elected canonical view whose clip is
// uploaded in full (all other members ship metadata-only tombstones). The
// canonical view is the highest-priority member, ties to the lowest
// (stream, mc, event) key.
struct CrossEventRecord {
  std::int64_t global_id = -1;
  std::int64_t canonical = -1;  // index into members
  std::vector<CrossMember> members;
  std::int64_t begin_ts_ns = -1;  // union of member capture bounds
  std::int64_t end_ts_ns = -1;

  const CrossMember& canonical_member() const {
    return members[static_cast<std::size_t>(canonical)];
  }
};

struct CorrelatorConfig {
  // Capture-time slack: two events may describe one physical object even if
  // their camera-local bounds disagree by up to this much.
  std::int64_t window_ns = 0;
  // Cosine-similarity floor at affinity 1. A pair with affinity a must
  // clear min_similarity + (1 - a) * (1 - min_similarity): weaker declared
  // overlap demands stronger signature agreement.
  float min_similarity = 0.6f;
};

// The stream of each connected component of `topology`, taken over the
// `live` streams (handle -> StreamConfig::priority), that the Correlator
// elects canonical in every group holding one of its events: the highest
// priority, ties to the lowest handle. Known before any event closes, so a
// fleet can let these *lead* streams upload without waiting for verdicts.
// Returns the leads in handle order.
std::vector<std::int64_t> ComponentLeads(
    const Topology& topology,
    const std::map<std::int64_t, std::int64_t>& live);

class Correlator {
 public:
  using Sink = std::function<void(const CrossEventRecord&)>;

  explicit Correlator(Topology topology, CorrelatorConfig cfg = {});

  // Finalized groups are delivered through here (from inside Observe /
  // AdvanceWatermark / FlushStream / Finish — reentry is not allowed).
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  // Feeds one closed per-stream event. Contract: events arrive before the
  // watermark passes their begin_ts_ns.
  void Observe(ObservedEvent ev);

  // Promises every event with begin_ts_ns < watermark_ns has been observed;
  // finalizes and emits all groups no future event can reach. Values below
  // the current watermark are ignored (the watermark never regresses).
  void AdvanceWatermark(std::int64_t watermark_ns);

  // Force-finalizes every pending group containing an event of `stream`
  // (stream removal: its deferred uploads need verdicts now). Groups that
  // might later have fused with a finalized one simply form their own group
  // — a missed dedupe at the churn boundary, never a lost clip.
  void FlushStream(std::int64_t stream);

  // Finalizes everything (end of run).
  void Finish();

  const Topology& topology() const { return topo_; }
  const CorrelatorConfig& config() const { return cfg_; }
  std::int64_t pending_events() const {
    return static_cast<std::int64_t>(pending_.size());
  }

  struct Stats {
    std::int64_t events_observed = 0;
    std::int64_t pairs_tested = 0;   // link predicate evaluations
    std::int64_t pairs_linked = 0;
    std::int64_t groups_emitted = 0;
    std::int64_t fused_groups = 0;   // emitted groups with >= 2 members
    std::int64_t members_fused = 0;  // total members across fused groups
  };
  const Stats& stats() const { return stats_; }

  // Similarity a pair at `affinity` must reach to link.
  float RequiredSimilarity(float affinity) const {
    return cfg_.min_similarity + (1.0f - affinity) * (1.0f - cfg_.min_similarity);
  }

 private:
  struct Node {
    ObservedEvent ev;
    std::int64_t parent;  // union-find parent key (self-rooted initially)
  };

  std::int64_t Find(std::int64_t key);
  void Union(std::int64_t a, std::int64_t b);
  bool Linked(const ObservedEvent& a, const ObservedEvent& b);
  // Emits and erases the groups rooted at `roots` in deterministic order.
  void EmitGroups(const std::vector<std::int64_t>& roots);

  Topology topo_;
  CorrelatorConfig cfg_;
  Sink sink_;
  std::map<std::int64_t, Node> pending_;  // keyed by arrival sequence
  std::int64_t next_key_ = 0;
  std::int64_t next_global_ = 0;
  std::int64_t watermark_ = std::numeric_limits<std::int64_t>::min();
  Stats stats_;
};

}  // namespace ff::xcam
