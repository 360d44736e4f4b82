// Golden tests pinning the paper's running example (Fig. 3 / Fig. 4) to
// hand-checked figures: the exact (trussness, layer) table for all 32
// edges under both peel engines, and the first-anchor behavior of BASE,
// BASE+, and GAS (anchor identity, gain, follower set, follower
// trussness). Unlike the randomized differential harnesses, a regression
// in the deletion order `≺` fails here with a named edge and an expected
// value, not a seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/solver.h"
#include "tests/paper_fixtures.h"
#include "truss/decomposition.h"
#include "truss/gain.h"
#include "truss/flat_peel.h"
#include "util/parallel_for.h"

namespace atr {
namespace {

void ExpectGoldenTable(const Graph& g, const TrussDecomposition& d,
                       const char* engine) {
  const std::vector<Fig3GoldenEdge> golden = Fig3GoldenTable();
  ASSERT_EQ(golden.size(), g.NumEdges()) << "golden table incomplete";
  for (const Fig3GoldenEdge& expected : golden) {
    const EdgeId e = Fig3Edge(g, expected.paper_u, expected.paper_v);
    ASSERT_NE(e, kInvalidEdge)
        << "(" << expected.paper_u << "," << expected.paper_v << ")";
    EXPECT_EQ(d.trussness[e], expected.trussness)
        << engine << " trussness of (" << expected.paper_u << ","
        << expected.paper_v << ")";
    EXPECT_EQ(d.layer[e], expected.layer)
        << engine << " layer of (" << expected.paper_u << ","
        << expected.paper_v << ")";
  }
  EXPECT_EQ(d.max_trussness, 5u) << engine;
}

TEST(PaperGolden, Fig3TrussnessAndLayerTableSerial) {
  const Graph g = MakeFig3Graph();
  ExpectGoldenTable(g, ComputeTrussDecompositionSerial(g), "serial");
}

TEST(PaperGolden, Fig3TrussnessAndLayerTableFlat) {
  const Graph g = MakeFig3Graph();
  // Cutoff 1 makes every round of this 32-edge graph fan out.
  const size_t previous = internal::SetParallelPeelMinFrontierForTest(1);
  for (const int threads : {1, 2, 4, 8}) {
    ScopedParallelism parallelism(threads);
    ExpectGoldenTable(g, ComputeTrussDecomposition(g), "flat");
  }
  internal::SetParallelPeelMinFrontierForTest(previous);
}

// Anchoring (v9,v10) must lift exactly {(v5,v8), (v7,v8), (v8,v9)} from
// trussness 3 to 4 (hand-checked: with the anchor alive the k=3 frontier
// is empty, so the whole hull survives to the k=4 peel).
TEST(PaperGolden, Fig3BestAnchorFollowerSet) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition base = ComputeTrussDecompositionSerial(g);
  const EdgeId anchor = Fig3Edge(g, kFig3BestAnchorU, kFig3BestAnchorV);
  ASSERT_NE(anchor, kInvalidEdge);

  std::vector<EdgeId> expected;
  for (const auto& [u, v] : Fig3BestAnchorFollowers()) {
    expected.push_back(Fig3Edge(g, u, v));
  }
  std::sort(expected.begin(), expected.end());

  const std::vector<EdgeId> followers =
      BruteForceFollowers(g, base, {}, anchor);  // returned in id order
  EXPECT_EQ(followers, expected);

  // The anchored re-decomposition agrees edge-by-edge: followers rise by
  // exactly one level, everything else is unchanged.
  std::vector<bool> anchored(g.NumEdges(), false);
  anchored[anchor] = true;
  const TrussDecomposition after = ComputeTrussDecomposition(g, anchored);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (e == anchor) {
      EXPECT_EQ(after.trussness[e], kAnchoredTrussness);
      continue;
    }
    const bool is_follower =
        std::binary_search(expected.begin(), expected.end(), e);
    EXPECT_EQ(after.trussness[e], base.trussness[e] + (is_follower ? 1 : 0))
        << "edge " << e;
  }
}

// Anchoring (v9,v10) also reshapes the k=4 deletion layers of the second
// component: (v6,v8) and (v8,v10) gain a surviving triangle through the
// anchor's endpoints, so they move from round 1 to round 2. A regression
// here means anchored peeling is reusing unanchored layer state.
TEST(PaperGolden, Fig3AnchoredLayersShift) {
  const Graph g = MakeFig3Graph();
  std::vector<bool> anchored(g.NumEdges(), false);
  anchored[Fig3Edge(g, kFig3BestAnchorU, kFig3BestAnchorV)] = true;
  const TrussDecomposition after = ComputeTrussDecomposition(g, anchored);

  // The lifted hull edges all leave in k=4 round 1.
  for (const auto& [u, v] : Fig3BestAnchorFollowers()) {
    EXPECT_EQ(after.trussness[Fig3Edge(g, u, v)], 4u);
    EXPECT_EQ(after.layer[Fig3Edge(g, u, v)], 1u);
  }
  EXPECT_EQ(after.layer[Fig3Edge(g, 6, 8)], 2u);
  EXPECT_EQ(after.layer[Fig3Edge(g, 8, 10)], 2u);
  // The component's other round-1/round-2 edges keep their layers.
  EXPECT_EQ(after.layer[Fig3Edge(g, 10, 11)], 1u);
  EXPECT_EQ(after.layer[Fig3Edge(g, 11, 12)], 2u);
}

SolveResult RunVia(const char* solver_name, const Graph& g, uint32_t budget) {
  SolverOptions options;
  options.budget = budget;
  StatusOr<SolveResult> result =
      Solve(g, ComputeTrussDecomposition(g), solver_name, options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *std::move(result);
}

// BASE, BASE+, and GAS must each open with the hand-checked best anchor
// and report the golden gain and follower trussness distribution.
TEST(PaperGolden, GreedySolversPickGoldenFirstAnchor) {
  const Graph g = MakeFig3Graph();
  const EdgeId golden_anchor =
      Fig3Edge(g, kFig3BestAnchorU, kFig3BestAnchorV);
  for (const char* name : {"base", "base+", "gas"}) {
    const SolveResult result = RunVia(name, g, 1);
    ASSERT_EQ(result.anchor_edges.size(), 1u) << name;
    EXPECT_EQ(result.anchor_edges[0], golden_anchor) << name;
    EXPECT_EQ(result.total_gain, kFig3BestAnchorGain) << name;
    ASSERT_EQ(result.rounds.size(), 1u) << name;
    EXPECT_EQ(result.rounds[0].gain, kFig3BestAnchorGain) << name;
    // All three followers sat at trussness 3 before anchoring.
    std::vector<uint32_t> follower_trussness =
        result.rounds[0].follower_trussness;
    std::sort(follower_trussness.begin(), follower_trussness.end());
    EXPECT_EQ(follower_trussness, (std::vector<uint32_t>{3, 3, 3})) << name;
  }
}

}  // namespace
}  // namespace atr
