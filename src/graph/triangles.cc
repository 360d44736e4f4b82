#include "graph/triangles.h"

#include <algorithm>

#include "util/macros.h"

namespace atr {
namespace internal {

OrientedAdjacency BuildOrientedAdjacency(const Graph& g) {
  const uint32_t n = g.NumVertices();
  // Orientation: u -> v iff (deg(u), u) < (deg(v), v). This bounds every
  // out-degree by O(sqrt(m)), which is what gives the O(m^1.5) sweep.
  auto precedes = [&g](VertexId a, VertexId b) {
    const uint32_t da = g.Degree(a);
    const uint32_t db = g.Degree(b);
    return da != db ? da < db : a < b;
  };

  OrientedAdjacency out;
  out.offsets.assign(n + 1, 0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const EdgeEndpoints ends = g.Edge(e);
    ++out.offsets[precedes(ends.u, ends.v) ? ends.u : ends.v];
  }
  uint32_t running = 0;
  for (uint32_t v = 0; v <= n; ++v) {
    const uint32_t count = (v < n) ? out.offsets[v] : 0;
    out.offsets[v] = running;
    running += count;
  }
  out.out.resize(g.NumEdges());
  std::vector<uint32_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const EdgeEndpoints ends = g.Edge(e);
    const VertexId from = precedes(ends.u, ends.v) ? ends.u : ends.v;
    const VertexId to = (from == ends.u) ? ends.v : ends.u;
    out.out[cursor[from]++] = AdjEntry{to, e};
  }
  for (uint32_t v = 0; v < n; ++v) {
    std::sort(out.out.begin() + out.offsets[v],
              out.out.begin() + out.offsets[v + 1],
              [](const AdjEntry& a, const AdjEntry& b) {
                return a.neighbor < b.neighbor;
              });
  }
  return out;
}

}  // namespace internal

uint32_t EdgeSupport(const Graph& g, EdgeId e) {
  uint32_t support = 0;
  ForEachTriangleOfEdge(g, e, [&support](VertexId, EdgeId, EdgeId) {
    ++support;
  });
  return support;
}

std::vector<uint32_t> ComputeSupport(const Graph& g,
                                     const std::vector<bool>& within) {
  ATR_CHECK(within.empty() || within.size() == g.NumEdges());
  std::vector<uint32_t> support(g.NumEdges(), 0);
  ForEachTriangle(g, [&](TriangleEdges t) {
    if (!within.empty() && !(within[t.e1] && within[t.e2] && within[t.e3])) {
      return;
    }
    ++support[t.e1];
    ++support[t.e2];
    ++support[t.e3];
  });
  return support;
}

uint64_t CountTriangles(const Graph& g) {
  uint64_t count = 0;
  ForEachTriangle(g, [&count](TriangleEdges) { ++count; });
  return count;
}

}  // namespace atr
