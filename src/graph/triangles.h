// Triangle enumeration and per-edge support computation.
//
// Two access patterns are provided:
//  * ForEachTriangle enumerates every triangle of the graph exactly once
//    using the degree-ordered "forward" algorithm (O(m^1.5) on bounded
//    arboricity inputs). Used for support computation and for building the
//    truss-component tree.
//  * ForEachTriangleOfEdge enumerates the triangles containing one specific
//    edge in O(min(d(u), d(v)) * log max(d(u), d(v))), which is the inner
//    loop of peeling and of the follower search.

#ifndef ATR_GRAPH_TRIANGLES_H_
#define ATR_GRAPH_TRIANGLES_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace atr {

// A triangle reported as its three edge ids plus the apex vertex that
// completes the queried/iterated edge.
struct TriangleEdges {
  EdgeId e1;
  EdgeId e2;
  EdgeId e3;
};

// Calls `fn(TriangleEdges)` once per triangle in the graph. Edge order
// within the callback is unspecified but deterministic.
template <typename Fn>
void ForEachTriangle(const Graph& g, Fn&& fn);

// Calls `fn(w, ew_u, ew_v)` for every common neighbor `w` of the endpoints
// (u, v) of edge `e`, where ew_u = edge {u, w} and ew_v = edge {v, w}.
template <typename Fn>
void ForEachTriangleOfEdge(const Graph& g, EdgeId e, Fn&& fn) {
  const EdgeEndpoints ends = g.Edge(e);
  VertexId a = ends.u;
  VertexId b = ends.v;
  if (g.Degree(a) > g.Degree(b)) std::swap(a, b);
  for (const AdjEntry& entry : g.Neighbors(a)) {
    if (entry.neighbor == b) continue;
    const EdgeId other = g.FindEdge(b, entry.neighbor);
    if (other == kInvalidEdge) continue;
    // entry.edge connects a-w; `other` connects b-w. Report in (u, v) order.
    if (a == ends.u) {
      fn(entry.neighbor, entry.edge, other);
    } else {
      fn(entry.neighbor, other, entry.edge);
    }
  }
}

// Number of triangles containing edge `e` (its support).
uint32_t EdgeSupport(const Graph& g, EdgeId e);

// Support of every edge, computed with one triangle sweep. With a
// non-empty `within` mask only triangles whose three edges are all set
// count, so edges outside the mask report 0.
std::vector<uint32_t> ComputeSupport(const Graph& g,
                                     const std::vector<bool>& within = {});

// Total number of triangles in the graph.
uint64_t CountTriangles(const Graph& g);

namespace internal {

// The orientation every triangle sweep uses (ForEachTriangle here, the flat
// peel's FlatGraphView): u -> v iff (deg(u), u) < (deg(v), v). This bounds
// every out-degree by O(sqrt(m)), which is what gives the O(m^1.5) sweep.
inline bool OrientedPrecedes(const Graph& g, VertexId a, VertexId b) {
  const uint32_t da = g.Degree(a);
  const uint32_t db = g.Degree(b);
  return da < db || (da == db && a < b);
}

// Degree-ordered orientation used by ForEachTriangle: for each vertex, the
// out-neighbors are those later in the (degree, id) order, sorted by id.
struct OrientedAdjacency {
  std::vector<uint32_t> offsets;
  std::vector<AdjEntry> out;
};

OrientedAdjacency BuildOrientedAdjacency(const Graph& g);

}  // namespace internal

template <typename Fn>
void ForEachTriangle(const Graph& g, Fn&& fn) {
  const internal::OrientedAdjacency oriented =
      internal::BuildOrientedAdjacency(g);
  const uint32_t n = g.NumVertices();
  for (VertexId u = 0; u < n; ++u) {
    const AdjEntry* ubeg = oriented.out.data() + oriented.offsets[u];
    const AdjEntry* uend = oriented.out.data() + oriented.offsets[u + 1];
    for (const AdjEntry* uv = ubeg; uv != uend; ++uv) {
      const VertexId v = uv->neighbor;
      // Two-pointer intersection of out(u) and out(v): every common
      // out-neighbor w closes triangle (u, v, w) exactly once, since the
      // orientation is acyclic (degree-then-id order).
      const AdjEntry* p = ubeg;
      const AdjEntry* q = oriented.out.data() + oriented.offsets[v];
      const AdjEntry* qend = oriented.out.data() + oriented.offsets[v + 1];
      while (p != uend && q != qend) {
        if (p->neighbor < q->neighbor) {
          ++p;
        } else if (q->neighbor < p->neighbor) {
          ++q;
        } else {
          fn(TriangleEdges{uv->edge, p->edge, q->edge});
          ++p;
          ++q;
        }
      }
    }
  }
}

}  // namespace atr

#endif  // ATR_GRAPH_TRIANGLES_H_
