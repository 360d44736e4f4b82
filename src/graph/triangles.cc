#include "graph/triangles.h"

#include "util/macros.h"

namespace atr {
namespace internal {

OrientedAdjacency BuildOrientedAdjacency(const Graph& g) {
  // One linear pass: keeping only the forward entries of each vertex's
  // neighbor-sorted adjacency leaves every out-list sorted by id.
  const uint32_t n = g.NumVertices();
  OrientedAdjacency out;
  out.offsets.assign(n + 1, 0);
  out.out.reserve(g.NumEdges());
  for (VertexId u = 0; u < n; ++u) {
    out.offsets[u] = static_cast<uint32_t>(out.out.size());
    for (const AdjEntry& entry : g.Neighbors(u)) {
      if (OrientedPrecedes(g, u, entry.neighbor)) out.out.push_back(entry);
    }
  }
  out.offsets[n] = static_cast<uint32_t>(out.out.size());
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
