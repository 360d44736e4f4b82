#include "graph/triangle_index.h"

#include "util/macros.h"

namespace atr {

TriangleIncidence BuildTriangleIncidence(const FlatGraphView& view,
                                         std::span<const uint8_t> alive) {
  const uint32_t m = view.num_edges;
  ATR_CHECK(alive.empty() || alive.size() == m);
  const bool full_graph = alive.empty();

  TriangleIncidence tri;
  tri.offsets.assign(m + 1, 0);
  // Pass 1 counts each edge's support into offsets[e + 1] and records the
  // triangles as flat (euv, euw, evw) triples.
  std::vector<uint32_t> triangles;
  for (VertexId u = 0; u < view.num_vertices; ++u) {
    const std::span<const uint64_t> ou = view.OrientedOf(u);
    for (const uint64_t hv : ou) {
      const VertexId v = FlatHi(hv);
      const EdgeId euv = FlatLo(hv);
      if (!full_graph && !alive[euv]) continue;
      const std::span<const uint64_t> ov = view.OrientedOf(v);
      size_t i = 0;
      size_t j = 0;
      while (i < ou.size() && j < ov.size()) {
        const uint32_t wa = FlatHi(ou[i]);
        const uint32_t wb = FlatHi(ov[j]);
        if (wa < wb) {
          ++i;
        } else if (wb < wa) {
          ++j;
        } else {
          const EdgeId euw = FlatLo(ou[i]);
          const EdgeId evw = FlatLo(ov[j]);
          if (full_graph || (alive[euw] && alive[evw])) {
            ++tri.offsets[euv + 1];
            ++tri.offsets[euw + 1];
            ++tri.offsets[evw + 1];
            triangles.push_back(euv);
            triangles.push_back(euw);
            triangles.push_back(evw);
          }
          ++i;
          ++j;
        }
      }
    }
  }

  // Pass 2 scatters each triangle's partner pairs into its edges' slots.
  for (EdgeId e = 0; e < m; ++e) tri.offsets[e + 1] += tri.offsets[e];
  tri.pairs.resize(triangles.size());
  std::vector<uint64_t> cursor(tri.offsets.begin(), tri.offsets.end() - 1);
  for (size_t t = 0; t < triangles.size(); t += 3) {
    const EdgeId a = triangles[t];
    const EdgeId b = triangles[t + 1];
    const EdgeId c = triangles[t + 2];
    tri.pairs[cursor[a]++] = FlatZip(b, c);
    tri.pairs[cursor[b]++] = FlatZip(a, c);
    tri.pairs[cursor[c]++] = FlatZip(a, b);
  }
  return tri;
}

TriangleIncidence BuildTriangleIncidence(const Graph& g) {
  return BuildTriangleIncidence(FlatGraphView::Build(g));
}

}  // namespace atr
