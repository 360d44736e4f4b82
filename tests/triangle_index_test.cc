// Differential tests for the triangle-incidence index (graph/triangle_index.h)
// against the index-free per-edge enumeration it replaces in the flat peel,
// the follower search and GAS: for every edge, the stored partner pairs must
// equal ForEachTriangleOfEdge's as a multiset of unordered pairs, and the
// offset difference must equal EdgeSupport. The alive-mask build must equal
// the full index filtered to triangles with three alive edges.

#include "graph/triangle_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators/generators.h"
#include "graph/triangles.h"
#include "tests/paper_fixtures.h"
#include "util/prng.h"

namespace atr {
namespace {

using PairList = std::vector<std::pair<EdgeId, EdgeId>>;

std::pair<EdgeId, EdgeId> Unordered(EdgeId a, EdgeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

PairList IndexedPairs(const TriangleIncidence& tri, EdgeId e) {
  PairList pairs;
  tri.ForEachTriangleOf(
      e, [&](EdgeId a, EdgeId b) { pairs.push_back(Unordered(a, b)); });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

PairList EnumeratedPairs(const Graph& g, EdgeId e) {
  PairList pairs;
  ForEachTriangleOfEdge(g, e, [&](VertexId, EdgeId a, EdgeId b) {
    pairs.push_back(Unordered(a, b));
  });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void ExpectExactIndex(const Graph& g, const std::string& label) {
  const TriangleIncidence tri = BuildTriangleIncidence(g);
  ASSERT_EQ(tri.offsets.size(), g.NumEdges() + size_t{1}) << label;
  EXPECT_EQ(tri.offsets.front(), 0u) << label;
  EXPECT_EQ(tri.offsets.back(), tri.pairs.size()) << label;
  EXPECT_EQ(tri.pairs.size(), 3 * CountTriangles(g)) << label;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(tri.offsets[e + 1] - tri.offsets[e], EdgeSupport(g, e))
        << label << " edge " << e;
    EXPECT_EQ(tri.Support(e), EdgeSupport(g, e)) << label << " edge " << e;
    EXPECT_EQ(IndexedPairs(tri, e), EnumeratedPairs(g, e))
        << label << " edge " << e;
  }
}

// The full index filtered to triangles whose three edges are alive must be
// exactly what the masked build stores.
void ExpectMaskedIndexIsFilteredFull(const Graph& g,
                                     const std::vector<uint8_t>& alive,
                                     const std::string& label) {
  const FlatGraphView view = FlatGraphView::Build(g);
  const TriangleIncidence full = BuildTriangleIncidence(view);
  const TriangleIncidence masked = BuildTriangleIncidence(view, alive);
  ASSERT_EQ(masked.offsets.size(), g.NumEdges() + size_t{1}) << label;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    PairList expected;
    if (alive[e]) {
      for (const auto& [a, b] : IndexedPairs(full, e)) {
        if (alive[a] && alive[b]) expected.emplace_back(a, b);
      }
    }
    EXPECT_EQ(IndexedPairs(masked, e), expected) << label << " edge " << e;
    EXPECT_EQ(masked.Support(e), expected.size()) << label << " edge " << e;
  }
}

TEST(TriangleIndex, Fig3MatchesPerEdgeEnumeration) {
  ExpectExactIndex(MakeFig3Graph(), "fig3");
}

TEST(TriangleIndex, EdgeFreeGraphsIndexNothing) {
  ExpectExactIndex(Graph(), "empty");
  const Graph isolated = GraphBuilder(7).Build();
  ExpectExactIndex(isolated, "isolated vertices");
  EXPECT_TRUE(BuildTriangleIncidence(isolated).pairs.empty());
}

TEST(TriangleIndex, SeededRandomGraphsMatchPerEdgeEnumeration) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    ExpectExactIndex(ErdosRenyiGraph(30 + seed * 3, 90 + seed * 25, seed),
                     "er seed " + std::to_string(seed));
    ExpectExactIndex(HolmeKimGraph(40 + seed * 4, 3 + seed % 3, 0.7, seed),
                     "holme-kim seed " + std::to_string(seed));
    ExpectExactIndex(BarabasiAlbertGraph(40 + seed * 3, 2 + seed % 4, seed),
                     "barabasi-albert seed " + std::to_string(seed));
  }
}

TEST(TriangleIndex, EditedSnapshotMatchesPerEdgeEnumeration) {
  const Graph g = HolmeKimGraph(80, 4, 0.7, 5);
  GraphDelta delta;
  for (EdgeId e = 0; e < g.NumEdges(); e += 7) {
    delta.remove.push_back(g.Edge(e));
  }
  // New edges, some to vertices the delta creates.
  Rng rng(5);
  const uint64_t span = g.NumVertices() + 4;
  while (delta.add.size() < 40) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(span));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(span));
    if (u == v || (u < g.NumVertices() && v < g.NumVertices() &&
                   g.HasEdge(u, v))) {
      continue;
    }
    const bool duplicate =
        std::any_of(delta.add.begin(), delta.add.end(),
                    [&](const EdgeEndpoints& a) {
                      return (a.u == u && a.v == v) || (a.u == v && a.v == u);
                    });
    if (!duplicate) delta.add.push_back(EdgeEndpoints{u, v});
  }
  StatusOr<GraphEditResult> edited = g.ApplyEdits(delta);
  ASSERT_TRUE(edited.ok()) << edited.status().message();
  ExpectExactIndex(edited->graph, "edited");
}

TEST(TriangleIndex, AliveMaskBuildIsTheFilteredFullIndex) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = HolmeKimGraph(50 + seed * 5, 4, 0.8, seed);
    Rng rng(100 + seed);
    std::vector<uint8_t> alive(g.NumEdges());
    for (uint8_t& a : alive) a = rng.NextBounded(4) != 0 ? 1 : 0;
    ExpectMaskedIndexIsFilteredFull(g, alive,
                                    "seed " + std::to_string(seed));
  }
  const Graph fig3 = MakeFig3Graph();
  ExpectMaskedIndexIsFilteredFull(
      fig3, std::vector<uint8_t>(fig3.NumEdges(), 1), "fig3 all alive");
  ExpectMaskedIndexIsFilteredFull(
      fig3, std::vector<uint8_t>(fig3.NumEdges(), 0), "fig3 all dead");
}

}  // namespace
}  // namespace atr
