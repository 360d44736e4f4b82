// Follower computation for a single anchor edge — Algorithm 3 of the paper
// (upward-route search with the effective-triangle support check and the
// retract cascade), plus the route-size probe used by Table IV and the Tur
// baseline.
//
// Given the current decomposition (t(e), l(e)) of the anchored graph, the
// followers F(x) of anchoring edge x are exactly the edges whose trussness
// rises (each by 1, Lemma 1). The search:
//   1. seeds with the neighbor-edges of x satisfying Lemma 2 condition (i)
//      (t > t(x), or equal trussness and strictly later layer),
//   2. processes each trussness level independently with a min-heap keyed by
//      layer (pops are nondecreasing in layer, which is what makes the
//      optimistic support counting consistent),
//   3. counts s+(e), the effective triangles of Definition 8: a triangle
//      counts when both partner edges are "countable" — the hypothetical
//      anchor, an existing anchor, a higher-trussness edge, or a same-level
//      edge that is not eliminated and either survived or ordered no earlier
//      than e (e ≺ partner),
//   4. survives e when s+(e) >= t(e) - 1 (Lemma 3 threshold), expanding the
//      route to same-level neighbor-edges with e ≺ e'; otherwise eliminates
//      e and retracts: survived edges that counted a triangle through the
//      eliminated edge lose it and may cascade.
//
// Levels are independent because a level-k follower rises to exactly k+1 and
// is therefore not in T_{k+2}; per-level batches also never interact across
// truss components (a counted triangle's same-level edges are always in the
// same k-truss component), which is what makes GAS's per-tree-node caching
// (FollowersByNode) coherent with the full search.
//
// All scratch state is epoch-stamped, so one FollowerSearch instance can be
// reused across the m candidate evaluations of a greedy round with O(route)
// cost per call instead of O(m).
//
// Every triangle walk (s+ counting, the retract scan, route expansion, seed
// collection, RouteSize) reads the shared whole-graph triangle-incidence
// index (TriangleIncidence, graph/triangle_index.h): an edge's triangles
// are one contiguous run of zipped partner pairs, not a FindEdge binary
// search per neighbour. A greedy solve builds one index and every worker's
// search borrows it; the single-argument constructor builds its own. No
// result depends on triangle order: seeds are sorted and deduplicated, heap
// keys (layer, edge) are unique, and s+ is a count.

#ifndef ATR_ROUTE_FOLLOWER_SEARCH_H_
#define ATR_ROUTE_FOLLOWER_SEARCH_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"

namespace atr {

class FollowerSearch {
 public:
  // Builds and owns a whole-graph triangle index of `g`.
  explicit FollowerSearch(const Graph& g);

  // Borrows `triangles`, the whole-graph index of `g`
  // (BuildTriangleIncidence(g)); it must outlive the search and is only
  // read, so any number of searches on any threads may share one.
  FollowerSearch(const Graph& g, const TriangleIncidence& triangles);

  FollowerSearch(const FollowerSearch&) = delete;
  FollowerSearch& operator=(const FollowerSearch&) = delete;

  // Binds the current decomposition and anchor mask. Both must outlive the
  // subsequent calls and reflect the same anchored graph. `anchored` may be
  // null when no anchors exist yet.
  void SetState(const TrussDecomposition* decomp,
                const std::vector<bool>* anchored);

  // Computes F(x): all followers of hypothetically anchoring `x`. When
  // `followers` is non-null it receives the follower edge ids (unsorted but
  // deterministic). Returns |F(x)|, i.e. TG({x}) by Lemma 1.
  uint32_t CountFollowers(EdgeId x, std::vector<EdgeId>* followers = nullptr);

  // GAS variant: computes followers restricted to the tree nodes listed in
  // `allowed_nodes` (sorted node ids). `edge_node` maps every edge to its
  // tree-node id. Appends (node id, follower count) pairs, in ascending
  // node order, for each allowed node that produced at least one follower.
  //
  // Exactness contract: same-level nodes can be coupled through the
  // candidate's own triangles, so the caller must list *all* nodes of a
  // coupled level group whenever it lists one of them (see gas.cc).
  void FollowersByNode(EdgeId x, const std::vector<uint32_t>& edge_node,
                       const std::vector<uint32_t>& allowed_nodes,
                       std::vector<std::pair<uint32_t, uint32_t>>* counts);

  // Size of the upward-route candidate set of `x` (Table IV / Tur): the
  // number of distinct edges reachable from the Lemma 2 seeds along
  // same-trussness routes with nondecreasing deletion order, with no
  // support check applied.
  uint32_t RouteSize(EdgeId x);

 private:
  enum Status : uint8_t {
    kUnchecked = 0,
    kInHeap = 1,
    kSurvived = 2,
    kEliminated = 3,
  };

  Status GetStatus(EdgeId e) const {
    return epoch_[e] == current_epoch_ ? static_cast<Status>(status_[e])
                                       : kUnchecked;
  }
  void SetStatus(EdgeId e, Status s) {
    epoch_[e] = current_epoch_;
    status_[e] = static_cast<uint8_t>(s);
  }

  // Whether partner `p` can support a level-`level` candidate `e` in an
  // effective triangle (Definition 8), given current statuses.
  bool Countable(EdgeId p, EdgeId e, uint32_t level) const;

  // Effective-triangle count s+(e) for candidate `e` at its own level.
  uint32_t ComputeSPlus(EdgeId e, uint32_t level) const;

  // Eliminates `e` (which had `was_survived` status) and cascades
  // (Algorithm 3's Retract), updating stored s+ of survived edges.
  void Retract(EdgeId e, bool was_survived, uint32_t level);

  // Marks `r` eliminated and, atomically with that state change, queues a
  // decrement for every survived partner that was counting a triangle
  // through `r`.
  void EliminateAndScan(EdgeId r, bool was_survived, uint32_t level);

  // Runs one level batch given seeds already marked kInHeap and pushed onto
  // heap_. When `allowed_nodes` is non-null, route expansion is confined to
  // edges whose tree node is listed. Survivors are appended to survivors_.
  void ProcessLevel(uint32_t level, const std::vector<uint32_t>* edge_node,
                    const std::vector<uint32_t>* allowed_nodes);

  // Collects the Lemma 2 condition (i) seeds of x into seeds_.
  void CollectSeeds(EdgeId x);

  // The level loop shared by CountFollowers and FollowersByNode: collects
  // x's seeds, solves each trussness level as one batch, and calls
  // on_follower(e) for every edge that survives its level. When
  // `allowed_nodes` is non-null, seeds and route expansion are confined to
  // edges whose tree node (`edge_node`) is listed.
  template <typename OnFollower>
  void SearchLevels(EdgeId x, const std::vector<uint32_t>* edge_node,
                    const std::vector<uint32_t>* allowed_nodes,
                    OnFollower&& on_follower);

  bool IsAnchoredEdge(EdgeId e) const {
    return anchored_ != nullptr && !anchored_->empty() && (*anchored_)[e];
  }

  const Graph& g_;
  // Set only by the single-argument constructor; triangles_ points into it.
  std::unique_ptr<const TriangleIncidence> owned_triangles_;
  const TriangleIncidence& triangles_;
  const TrussDecomposition* decomp_ = nullptr;
  const std::vector<bool>* anchored_ = nullptr;

  EdgeId current_anchor_ = kInvalidEdge;
  uint32_t current_epoch_ = 0;

  std::vector<uint32_t> epoch_;
  std::vector<uint8_t> status_;
  std::vector<uint32_t> splus_;

  // Min-heap of (layer << 32 | edge) for the level being processed.
  std::vector<uint64_t> heap_;
  std::vector<EdgeId> seeds_;
  std::vector<EdgeId> survivors_;
  std::vector<EdgeId> decrement_queue_;
  std::vector<uint32_t> follower_nodes_;  // FollowersByNode scratch
};

}  // namespace atr

#endif  // ATR_ROUTE_FOLLOWER_SEARCH_H_
