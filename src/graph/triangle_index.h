// Triangle-incidence index: every edge's triangles stored as zipped partner
// pairs in CSR form (the MaxTruss layout, SNIPPETS.md Snippet 2).
//
// ForEachTriangleOfEdge (graph/triangles.h) re-finds an edge's triangles on
// every call, with one FindEdge binary search per neighbour of the
// lower-degree endpoint. The kernels that visit the same edges' triangles
// over and over read this index instead:
//
//  * the flat peel (truss/flat_peel.cc) builds one per decomposition over
//    its alive subgraph, and each peel round touches exactly the stored
//    pairs of its dying edges;
//  * a greedy solve (BASE+, GAS) builds one over the whole graph; every
//    worker's FollowerSearch, GAS's seed and sla(x) walks and the commit's
//    search in IncrementalTruss borrow it read-only.
//
// The index lives for one decomposition or one solve and is never cached
// on a graph version: at 8 bytes per edge plus 24 per triangle it would
// grow every held snapshot by a large share of its footprint
// (docs/DESIGN.md §5).

#ifndef ATR_GRAPH_TRIANGLE_INDEX_H_
#define ATR_GRAPH_TRIANGLE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/flat_view.h"
#include "graph/graph.h"

namespace atr {

struct TriangleIncidence {
  // pairs[offsets[e] .. offsets[e+1]) holds FlatZip(e1, e2) for every
  // indexed triangle {e, e1, e2}. The order of an edge's pairs and of the
  // two ids inside a pair is deterministic but unspecified.
  std::vector<uint64_t> offsets;  // size m + 1
  std::vector<uint64_t> pairs;    // 3 entries per indexed triangle

  // Number of indexed triangles containing `e` (its support).
  uint32_t Support(EdgeId e) const {
    return static_cast<uint32_t>(offsets[e + 1] - offsets[e]);
  }

  std::span<const uint64_t> PairsOf(EdgeId e) const {
    return std::span<const uint64_t>(pairs).subspan(offsets[e], Support(e));
  }

  // Calls `fn(e1, e2)` once per indexed triangle {e, e1, e2}.
  template <typename Fn>
  void ForEachTriangleOf(EdgeId e, Fn&& fn) const {
    for (const uint64_t pair : PairsOf(e)) fn(FlatHi(pair), FlatLo(pair));
  }
};

// One forward oriented sweep over `view` (each triangle visited exactly
// once). With a non-empty `alive` mask (one byte per edge) only triangles
// whose three edges are all alive are indexed, so dead edges index none.
// O(sum of oriented out-degrees intersected) time; 3 CSR entries plus one
// 12-byte scratch record per indexed triangle.
TriangleIncidence BuildTriangleIncidence(const FlatGraphView& view,
                                         std::span<const uint8_t> alive = {});

// The whole-graph index of `g`, through a temporary FlatGraphView.
TriangleIncidence BuildTriangleIncidence(const Graph& g);

}  // namespace atr

#endif  // ATR_GRAPH_TRIANGLE_INDEX_H_
