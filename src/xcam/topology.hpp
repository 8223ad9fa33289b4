// Cross-camera overlap topology (docs/ARCHITECTURE.md, "The cross-camera
// correlation plane").
//
// A deployment declares which cameras physically see the same scene; the
// correlator only ever tries to fuse events across declared pairs. Edges are
// undirected and carry an *affinity* in (0, 1] — how much of the two views
// overlaps. Affinity modulates the signature-similarity threshold: a pair
// with affinity 1 (near-identical views) fuses at the configured minimum
// similarity, while a marginal overlap demands proportionally stronger
// signature agreement (see Correlator::RequiredSimilarity).
//
// The topology is a value type over `core::StreamHandle`s; it knows nothing
// about the fleet. An empty topology means the correlation plane is off.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "util/check.hpp"

namespace ff::xcam {

class Topology {
 public:
  // Declares that streams `a` and `b` overlap. Self-edges are meaningless
  // (an event never fuses with another event of its own stream) and
  // rejected. Re-adding a pair overwrites its affinity.
  Topology& AddOverlap(std::int64_t a, std::int64_t b, float affinity = 1.0f) {
    FF_CHECK_MSG(a != b, "xcam: self-overlap is meaningless");
    FF_CHECK_MSG(affinity > 0.0f && affinity <= 1.0f,
                 "xcam: affinity must be in (0, 1]");
    edges_[Key(a, b)] = affinity;
    streams_.insert(a);
    streams_.insert(b);
    return *this;
  }

  bool Overlaps(std::int64_t a, std::int64_t b) const {
    return edges_.count(Key(a, b)) != 0;
  }

  // Affinity of the (a, b) edge; 0 when the pair is not declared.
  float Affinity(std::int64_t a, std::int64_t b) const {
    auto it = edges_.find(Key(a, b));
    return it == edges_.end() ? 0.0f : it->second;
  }

  // Whether `stream` participates in any overlap pair.
  bool Contains(std::int64_t stream) const {
    return streams_.count(stream) != 0;
  }

  bool empty() const { return edges_.empty(); }
  std::size_t edge_count() const { return edges_.size(); }
  const std::set<std::int64_t>& streams() const { return streams_; }

 private:
  static std::pair<std::int64_t, std::int64_t> Key(std::int64_t a,
                                                   std::int64_t b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  std::map<std::pair<std::int64_t, std::int64_t>, float> edges_;
  std::set<std::int64_t> streams_;
};

}  // namespace ff::xcam
