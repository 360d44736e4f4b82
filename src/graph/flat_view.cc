#include "graph/flat_view.h"

#include <utility>

#include "graph/triangles.h"

namespace atr {

FlatGraphView FlatGraphView::Build(const Graph& g) {
  FlatGraphView view;
  view.num_vertices = g.NumVertices();
  view.num_edges = g.NumEdges();

  view.offsets.assign(view.num_vertices + 1, 0);
  view.adj.reserve(static_cast<size_t>(view.num_edges) * 2);
  for (VertexId u = 0; u < view.num_vertices; ++u) {
    view.offsets[u] = static_cast<uint32_t>(view.adj.size());
    for (const AdjEntry& entry : g.Neighbors(u)) {
      view.adj.push_back(FlatZip(entry.neighbor, entry.edge));
    }
  }
  view.offsets[view.num_vertices] = static_cast<uint32_t>(view.adj.size());

  // Oriented half-edges: the (degree, id)-forward entries of each vertex,
  // still in ascending-neighbor order.
  view.oriented_offsets.assign(view.num_vertices + 1, 0);
  view.oriented.reserve(view.num_edges);
  for (VertexId u = 0; u < view.num_vertices; ++u) {
    view.oriented_offsets[u] = static_cast<uint32_t>(view.oriented.size());
    for (const AdjEntry& entry : g.Neighbors(u)) {
      if (internal::OrientedPrecedes(g, u, entry.neighbor)) {
        view.oriented.push_back(FlatZip(entry.neighbor, entry.edge));
      }
    }
  }
  view.oriented_offsets[view.num_vertices] =
      static_cast<uint32_t>(view.oriented.size());

  view.edge_ends.reserve(view.num_edges);
  for (const EdgeEndpoints& e : g.edges()) {
    view.edge_ends.push_back(FlatZip(e.u, e.v));
  }
  return view;
}

}  // namespace atr
