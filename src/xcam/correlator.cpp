#include "xcam/correlator.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "util/check.hpp"
#include "xcam/signature.hpp"

namespace ff::xcam {

std::vector<std::int64_t> ComponentLeads(
    const Topology& topology,
    const std::map<std::int64_t, std::int64_t>& live) {
  // A group's members overlap along declared edges between live streams, so
  // they share one component. Flood-fill each component from its lowest
  // unplaced handle.
  std::vector<std::int64_t> leads;
  std::set<std::int64_t> placed;
  for (const auto& [seed, seed_priority] : live) {
    if (!placed.insert(seed).second) continue;
    std::int64_t lead = seed, lead_priority = seed_priority;
    std::vector<std::int64_t> frontier{seed};
    while (!frontier.empty()) {
      const std::int64_t a = frontier.back();
      frontier.pop_back();
      for (const auto& [b, priority] : live) {
        if (placed.count(b) != 0 || !topology.Overlaps(a, b)) continue;
        placed.insert(b);
        frontier.push_back(b);
        if (priority > lead_priority ||
            (priority == lead_priority && b < lead)) {
          lead = b;
          lead_priority = priority;
        }
      }
    }
    leads.push_back(lead);
  }
  std::sort(leads.begin(), leads.end());
  return leads;
}

Correlator::Correlator(Topology topology, CorrelatorConfig cfg)
    : topo_(std::move(topology)), cfg_(cfg) {
  FF_CHECK_MSG(cfg_.window_ns >= 0, "xcam: window_ns must be >= 0");
  FF_CHECK_MSG(cfg_.min_similarity >= -1.0f && cfg_.min_similarity <= 1.0f,
               "xcam: min_similarity must be in [-1, 1]");
}

std::int64_t Correlator::Find(std::int64_t key) {
  std::int64_t root = key;
  while (pending_.at(root).parent != root) root = pending_.at(root).parent;
  // Path compression keeps chains short; it never changes the partition.
  while (pending_.at(key).parent != key) {
    std::int64_t next = pending_.at(key).parent;
    pending_.at(key).parent = root;
    key = next;
  }
  return root;
}

void Correlator::Union(std::int64_t a, std::int64_t b) {
  std::int64_t ra = Find(a), rb = Find(b);
  if (ra == rb) return;
  // Root at the smaller key so the representative is order-independent.
  if (ra < rb)
    pending_.at(rb).parent = ra;
  else
    pending_.at(ra).parent = rb;
}

bool Correlator::Linked(const ObservedEvent& a, const ObservedEvent& b) {
  const std::int64_t sa = a.event.stream, sb = b.event.stream;
  if (!topo_.Overlaps(sa, sb)) return false;
  ++stats_.pairs_tested;
  // Expanded capture windows must intersect.
  const std::int64_t w = cfg_.window_ns;
  if (a.event.begin_ts_ns - w > b.event.end_ts_ns + w) return false;
  if (b.event.begin_ts_ns - w > a.event.end_ts_ns + w) return false;
  if (a.signature.empty() || b.signature.empty()) return false;
  const float sim = Cosine(a.signature, b.signature);
  if (sim < RequiredSimilarity(topo_.Affinity(sa, sb))) return false;
  ++stats_.pairs_linked;
  return true;
}

void Correlator::Observe(ObservedEvent ev) {
  FF_CHECK_MSG(ev.event.begin_ts_ns >= 0 && ev.event.end_ts_ns >= 0,
               "xcam: observed event lacks capture-time bounds");
  const std::int64_t key = next_key_++;
  ++stats_.events_observed;
  Node node{std::move(ev), key};
  // Test against every pending event; union-find makes the resulting
  // partition the connected components of the symmetric link relation, so
  // it cannot depend on the order streams delivered their events.
  std::vector<std::int64_t> links;
  for (const auto& [other_key, other] : pending_)
    if (Linked(node.ev, other.ev)) links.push_back(other_key);
  pending_.emplace(key, std::move(node));
  for (std::int64_t other_key : links) Union(key, other_key);
}

void Correlator::AdvanceWatermark(std::int64_t watermark_ns) {
  if (watermark_ns <= watermark_) return;
  watermark_ = watermark_ns;
  // A future event has begin_ts >= watermark, so its expanded window starts
  // at watermark - window. A group whose expanded window ends before that —
  // max end_ts + window < watermark - window — is unreachable, directly or
  // through any chain (an intermediate event would itself have to overlap
  // the group's expanded window, putting its begin_ts below the watermark,
  // i.e. it has already been observed and unioned).
  std::map<std::int64_t, std::int64_t> group_max_end;  // root -> max end_ts
  for (auto& [key, node] : pending_) {
    const std::int64_t root = Find(key);
    auto [it, inserted] = group_max_end.emplace(root, node.ev.event.end_ts_ns);
    if (!inserted) it->second = std::max(it->second, node.ev.event.end_ts_ns);
  }
  std::vector<std::int64_t> roots;
  for (const auto& [root, max_end] : group_max_end)
    if (max_end + 2 * cfg_.window_ns < watermark_) roots.push_back(root);
  EmitGroups(roots);
}

void Correlator::FlushStream(std::int64_t stream) {
  std::vector<std::int64_t> roots;
  for (auto& [key, node] : pending_) {
    if (node.ev.event.stream != stream) continue;
    const std::int64_t root = Find(key);
    if (std::find(roots.begin(), roots.end(), root) == roots.end())
      roots.push_back(root);
  }
  EmitGroups(roots);
}

void Correlator::Finish() {
  std::vector<std::int64_t> roots;
  for (auto& [key, node] : pending_) {
    (void)node;
    const std::int64_t root = Find(key);
    if (std::find(roots.begin(), roots.end(), root) == roots.end())
      roots.push_back(root);
  }
  EmitGroups(roots);
}

void Correlator::EmitGroups(const std::vector<std::int64_t>& roots) {
  if (roots.empty()) return;
  // Collect members per finalizing root.
  std::map<std::int64_t, std::vector<std::int64_t>> groups;  // root -> keys
  for (std::int64_t root : roots) groups.emplace(root, std::vector<std::int64_t>{});
  for (auto& [key, node] : pending_) {
    (void)node;
    auto it = groups.find(Find(key));
    if (it != groups.end()) it->second.push_back(key);
  }

  struct Built {
    CrossEventRecord rec;
    std::vector<std::int64_t> keys;
  };
  std::vector<Built> built;
  built.reserve(groups.size());
  for (auto& [root, keys] : groups) {
    (void)root;
    CrossEventRecord rec;
    rec.members.reserve(keys.size());
    for (std::int64_t key : keys) {
      const ObservedEvent& ev = pending_.at(key).ev;
      CrossMember m;
      m.stream = ev.event.stream;
      m.mc = ev.event.mc;
      m.event_id = ev.event.id;
      m.begin = ev.event.begin;
      m.end = ev.event.end;
      m.begin_ts_ns = ev.event.begin_ts_ns;
      m.end_ts_ns = ev.event.end_ts_ns;
      m.peak_score = ev.peak_score;
      m.priority = ev.priority;
      rec.members.push_back(std::move(m));
    }
    std::sort(rec.members.begin(), rec.members.end(),
              [](const CrossMember& a, const CrossMember& b) {
                return std::tie(a.stream, a.mc, a.event_id) <
                       std::tie(b.stream, b.mc, b.event_id);
              });
    rec.begin_ts_ns = rec.members.front().begin_ts_ns;
    rec.end_ts_ns = rec.members.front().end_ts_ns;
    for (const CrossMember& m : rec.members) {
      rec.begin_ts_ns = std::min(rec.begin_ts_ns, m.begin_ts_ns);
      rec.end_ts_ns = std::max(rec.end_ts_ns, m.end_ts_ns);
    }
    // Canonical election: priority tier first (paper-side arbitration the
    // overload controller already uses), then the lowest (stream, mc,
    // event) key. Both are known before any event closes, so a fleet can
    // name each component's canonical stream up front (ComponentLeads) and
    // let it upload undeferred. Members are sorted by key, so the first
    // member of the top tier wins.
    std::size_t best = 0;
    for (std::size_t i = 1; i < rec.members.size(); ++i) {
      if (rec.members[i].priority > rec.members[best].priority) best = i;
    }
    rec.canonical = static_cast<std::int64_t>(best);
    built.push_back(Built{std::move(rec), std::move(keys)});
  }

  // Deterministic emission order: capture begin, then canonical member key.
  std::sort(built.begin(), built.end(), [](const Built& a, const Built& b) {
    const CrossMember& ma = a.rec.members.front();
    const CrossMember& mb = b.rec.members.front();
    return std::tie(a.rec.begin_ts_ns, ma.stream, ma.mc, ma.event_id) <
           std::tie(b.rec.begin_ts_ns, mb.stream, mb.mc, mb.event_id);
  });

  for (Built& g : built) {
    g.rec.global_id = next_global_++;
    ++stats_.groups_emitted;
    if (g.rec.members.size() >= 2) {
      ++stats_.fused_groups;
      stats_.members_fused += static_cast<std::int64_t>(g.rec.members.size());
    }
    for (std::int64_t key : g.keys) pending_.erase(key);
    if (sink_) sink_(g.rec);
  }
}

}  // namespace ff::xcam
