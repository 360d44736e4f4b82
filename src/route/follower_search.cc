#include "route/follower_search.h"

#include <algorithm>

#include "util/macros.h"

namespace atr {
namespace {

uint64_t HeapKey(uint32_t layer, EdgeId e) {
  return (static_cast<uint64_t>(layer) << 32) | e;
}

}  // namespace

FollowerSearch::FollowerSearch(const Graph& g)
    : g_(g),
      owned_triangles_(std::make_unique<const TriangleIncidence>(
          BuildTriangleIncidence(g))),
      triangles_(*owned_triangles_),
      epoch_(g.NumEdges(), 0),
      status_(g.NumEdges(), 0),
      splus_(g.NumEdges(), 0) {}

FollowerSearch::FollowerSearch(const Graph& g,
                               const TriangleIncidence& triangles)
    : g_(g),
      triangles_(triangles),
      epoch_(g.NumEdges(), 0),
      status_(g.NumEdges(), 0),
      splus_(g.NumEdges(), 0) {
  ATR_CHECK(triangles.offsets.size() == g.NumEdges() + size_t{1});
}

void FollowerSearch::SetState(const TrussDecomposition* decomp,
                              const std::vector<bool>* anchored) {
  ATR_CHECK(decomp != nullptr);
  ATR_CHECK(decomp->trussness.size() == g_.NumEdges());
  decomp_ = decomp;
  anchored_ = anchored;
}

bool FollowerSearch::Countable(EdgeId p, EdgeId e, uint32_t level) const {
  if (p == current_anchor_ || IsAnchoredEdge(p)) return true;
  const uint32_t tp = decomp_->trussness[p];
  if (tp < level) return false;  // eliminated wholesale (Alg. 3 line 6)
  if (tp > level) return true;   // already in T_{level+1}
  // Same level: consult the batch status.
  switch (GetStatus(p)) {
    case kEliminated:
      return false;
    case kSurvived:
      return true;
    case kUnchecked:
    case kInHeap:
      // Optimistic: p is deleted no earlier than e in the original order.
      return decomp_->layer[e] <= decomp_->layer[p];
  }
  return false;
}

uint32_t FollowerSearch::ComputeSPlus(EdgeId e, uint32_t level) const {
  uint32_t count = 0;
  triangles_.ForEachTriangleOf(e, [&](EdgeId e1, EdgeId e2) {
    if (Countable(e1, e, level) && Countable(e2, e, level)) ++count;
  });
  return count;
}

void FollowerSearch::EliminateAndScan(EdgeId r, bool was_survived,
                                      uint32_t level) {
  // Marking r eliminated and scanning its triangles must be one atomic
  // step: a triangle dies the moment its first edge dies, and every
  // countability test below has to observe exactly that moment's state.
  // (Deferring the scan lets a second partner of the same triangle die
  // first, after which neither death would decrement the surviving third
  // edge.) The decrements themselves are pure bookkeeping and are queued.
  SetStatus(r, kEliminated);
  triangles_.ForEachTriangleOf(r, [&](EdgeId a, EdgeId b) {
    // The survived partner p may lose this triangle; o is the third edge.
    for (int side = 0; side < 2; ++side) {
      const EdgeId p = (side == 0) ? a : b;
      const EdgeId o = (side == 0) ? b : a;
      if (p == current_anchor_ || IsAnchoredEdge(p)) continue;
      if (decomp_->trussness[p] != level) continue;
      if (GetStatus(p) != kSurvived) continue;
      // Was r counted by p? Either p ≺ r statically, or r had survived
      // (layer-ordered pops make this time-consistent; see header).
      if (!was_survived && decomp_->layer[p] > decomp_->layer[r]) {
        continue;
      }
      // The triangle only counted if the third edge is countable too.
      if (!Countable(o, p, level)) continue;
      decrement_queue_.push_back(p);
    }
  });
}

void FollowerSearch::Retract(EdgeId e, bool was_survived, uint32_t level) {
  decrement_queue_.clear();
  EliminateAndScan(e, was_survived, level);
  for (size_t head = 0; head < decrement_queue_.size(); ++head) {
    const EdgeId p = decrement_queue_[head];
    // Decrements owed to an edge that has died in the meantime are dropped:
    // its own death already scanned its triangles with the correct state.
    if (GetStatus(p) != kSurvived) continue;
    ATR_DCHECK(splus_[p] > 0);
    --splus_[p];
    if (splus_[p] < level - 1) {
      EliminateAndScan(p, /*was_survived=*/true, level);
    }
  }
}

void FollowerSearch::ProcessLevel(uint32_t level,
                                  const std::vector<uint32_t>* edge_node,
                                  const std::vector<uint32_t>* allowed_nodes) {
  std::make_heap(heap_.begin(), heap_.end(), std::greater<uint64_t>());
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<uint64_t>());
    const EdgeId e = static_cast<EdgeId>(heap_.back() & 0xffffffffu);
    heap_.pop_back();
    if (GetStatus(e) != kInHeap) continue;  // eliminated while queued
    const uint32_t threshold = level - 1;   // sup needed inside T_{level+1}
    const uint32_t splus = ComputeSPlus(e, level);
    if (splus >= threshold) {
      SetStatus(e, kSurvived);
      splus_[e] = splus;
      survivors_.push_back(e);
      // Expand the upward route: same-level neighbor-edges ordered no
      // earlier than e (Algorithm 3 lines 12-14).
      triangles_.ForEachTriangleOf(e, [&](EdgeId e1, EdgeId e2) {
        for (const EdgeId p : {e1, e2}) {
          if (p == current_anchor_ || IsAnchoredEdge(p)) continue;
          if (decomp_->trussness[p] != level) continue;
          if (decomp_->layer[p] < decomp_->layer[e]) continue;  // need e ≺ p
          if (allowed_nodes != nullptr &&
              !std::binary_search(allowed_nodes->begin(),
                                  allowed_nodes->end(), (*edge_node)[p])) {
            continue;
          }
          if (GetStatus(p) == kUnchecked) {
            SetStatus(p, kInHeap);
            heap_.push_back(HeapKey(decomp_->layer[p], p));
            std::push_heap(heap_.begin(), heap_.end(),
                           std::greater<uint64_t>());
          }
        }
      });
    } else {
      Retract(e, /*was_survived=*/false, level);
    }
  }
}

void FollowerSearch::CollectSeeds(EdgeId x) {
  seeds_.clear();
  triangles_.ForEachTriangleOf(x, [&](EdgeId e1, EdgeId e2) {
    for (const EdgeId p : {e1, e2}) {
      if (IsAnchoredEdge(p)) continue;
      // The index holds triangles of the full graph, so a partner may
      // have been removed from the maintained subgraph — its sentinel
      // trussness must not enter the ≺ comparison.
      if (!decomp_->IsComputed(p)) continue;
      // Lemma 2 condition (i): t(p) > t(x), or equal trussness with a
      // strictly later deletion layer.
      if (!decomp_->StrictlyPrecedes(x, p)) continue;
      seeds_.push_back(p);
    }
  });
  std::sort(seeds_.begin(), seeds_.end());
  seeds_.erase(std::unique(seeds_.begin(), seeds_.end()), seeds_.end());
}

template <typename OnFollower>
void FollowerSearch::SearchLevels(EdgeId x,
                                  const std::vector<uint32_t>* edge_node,
                                  const std::vector<uint32_t>* allowed_nodes,
                                  OnFollower&& on_follower) {
  ATR_CHECK(decomp_ != nullptr);
  ATR_CHECK(x < g_.NumEdges());
  ATR_CHECK_MSG(!IsAnchoredEdge(x), "candidate is already anchored");
  current_anchor_ = x;
  CollectSeeds(x);
  // Batches are per trussness LEVEL, not per node: the candidate's own
  // triangles can couple two same-level nodes (their edges support each
  // other through the always-countable hypothetical anchor), so same-level
  // nodes must be solved as one fixed point. Different levels stay
  // independent.
  std::stable_sort(seeds_.begin(), seeds_.end(), [this](EdgeId a, EdgeId b) {
    return decomp_->trussness[a] < decomp_->trussness[b];
  });
  size_t i = 0;
  while (i < seeds_.size()) {
    const uint32_t level = decomp_->trussness[seeds_[i]];
    ++current_epoch_;
    heap_.clear();
    survivors_.clear();
    // Seeds are distinct and the epoch is fresh, so each one is unchecked.
    for (; i < seeds_.size() && decomp_->trussness[seeds_[i]] == level; ++i) {
      const EdgeId s = seeds_[i];
      if (allowed_nodes != nullptr &&
          !std::binary_search(allowed_nodes->begin(), allowed_nodes->end(),
                              (*edge_node)[s])) {
        continue;
      }
      SetStatus(s, kInHeap);
      heap_.push_back(HeapKey(decomp_->layer[s], s));
    }
    if (heap_.empty()) continue;
    ProcessLevel(level, edge_node, allowed_nodes);
    for (const EdgeId e : survivors_) {
      if (GetStatus(e) == kSurvived) on_follower(e);  // else retracted later
    }
  }
  current_anchor_ = kInvalidEdge;
}

uint32_t FollowerSearch::CountFollowers(EdgeId x,
                                        std::vector<EdgeId>* followers) {
  if (followers != nullptr) followers->clear();
  uint32_t total = 0;
  SearchLevels(x, nullptr, nullptr, [&](EdgeId e) {
    ++total;
    if (followers != nullptr) followers->push_back(e);
  });
  return total;
}

void FollowerSearch::FollowersByNode(
    EdgeId x, const std::vector<uint32_t>& edge_node,
    const std::vector<uint32_t>& allowed_nodes,
    std::vector<std::pair<uint32_t, uint32_t>>* counts) {
  ATR_CHECK(edge_node.size() == g_.NumEdges());
  // Seeds whose node is not allowed are skipped, and route expansion is
  // confined to allowed nodes; the caller guarantees that coupled nodes
  // are always recomputed together (level groups).
  follower_nodes_.clear();
  SearchLevels(x, &edge_node, &allowed_nodes,
               [&](EdgeId e) { follower_nodes_.push_back(edge_node[e]); });
  // Attribute followers to their nodes.
  std::sort(follower_nodes_.begin(), follower_nodes_.end());
  for (size_t j = 0; j < follower_nodes_.size();) {
    const uint32_t node = follower_nodes_[j];
    uint32_t count = 0;
    for (; j < follower_nodes_.size() && follower_nodes_[j] == node; ++j) {
      ++count;
    }
    counts->emplace_back(node, count);
  }
}

uint32_t FollowerSearch::RouteSize(EdgeId x) {
  ATR_CHECK(decomp_ != nullptr);
  if (IsAnchoredEdge(x)) return 0;
  current_anchor_ = x;
  CollectSeeds(x);
  ++current_epoch_;
  // Plain reachability along upward routes (no support check): BFS from the
  // seeds expanding to same-level neighbor-edges with e ≺ e'.
  std::vector<EdgeId> stack;
  uint32_t count = 0;
  for (EdgeId s : seeds_) {
    if (GetStatus(s) == kUnchecked) {
      SetStatus(s, kInHeap);
      stack.push_back(s);
      ++count;
    }
  }
  while (!stack.empty()) {
    const EdgeId e = stack.back();
    stack.pop_back();
    const uint32_t level = decomp_->trussness[e];
    triangles_.ForEachTriangleOf(e, [&](EdgeId e1, EdgeId e2) {
      for (const EdgeId p : {e1, e2}) {
        if (p == current_anchor_ || IsAnchoredEdge(p)) continue;
        if (decomp_->trussness[p] != level) continue;
        if (decomp_->layer[p] < decomp_->layer[e]) continue;
        if (GetStatus(p) == kUnchecked) {
          SetStatus(p, kInHeap);
          stack.push_back(p);
          ++count;
        }
      }
    });
  }
  current_anchor_ = kInvalidEdge;
  return count;
}

}  // namespace atr
