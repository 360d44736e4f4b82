// Tests for the upward-route follower search (Algorithm 3). The linchpin
// property: CountFollowers must reproduce the brute-force oracle (anchored
// re-decomposition diff) for every candidate edge, on every graph, including
// graphs that already carry anchors; FollowersByNode over every tree node
// must split exactly that follower set by node.

#include "route/follower_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "tree/component_tree.h"
#include "truss/decomposition.h"
#include "truss/gain.h"

namespace atr {
namespace {

std::vector<EdgeId> Sorted(std::vector<EdgeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FollowerSearch, Fig3AnchorV9V10LiftsTheThreeHullEdges) {
  // The paper's Example 4: anchoring (v9,v10) makes (v8,v9), (v7,v8) and
  // (v5,v8) followers; the level-4 route through (v8,v10) dies on the
  // support check.
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);

  std::vector<EdgeId> followers;
  const uint32_t count = search.CountFollowers(Fig3Edge(g, 9, 10), &followers);
  EXPECT_EQ(count, 3u);
  const std::vector<EdgeId> expected = Sorted(
      {Fig3Edge(g, 8, 9), Fig3Edge(g, 7, 8), Fig3Edge(g, 5, 8)});
  EXPECT_EQ(Sorted(followers), expected);
}

TEST(FollowerSearch, Fig3MatchesBruteForceForEveryAnchor) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    std::vector<EdgeId> fast;
    search.CountFollowers(x, &fast);
    const std::vector<EdgeId> brute = BruteForceFollowers(g, d, {}, x);
    EXPECT_EQ(Sorted(fast), Sorted(brute)) << "anchor " << x;
  }
}

TEST(FollowerSearch, RouteSizeOfFig3Anchor) {
  // From (v9,v10): seeds are (v8,v9) (same level, later layer) and (v8,v10)
  // (higher trussness). The level-3 route reaches (v7,v8) and (v5,v8); the
  // level-4 route is pure reachability (no support check), so it expands
  // from (v8,v10) through the {v6,v8,v10,v11,v12} 4-hull along
  // nondecreasing layers — 6 of its 9 edges. Total: 3 + 6 = 9.
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  const uint32_t size = search.RouteSize(Fig3Edge(g, 9, 10));
  EXPECT_EQ(size, 9u);
  // The route set must cover the three true followers plus the failed
  // level-4 seed (routes are a superset of followers, Lemma 2).
  EXPECT_GE(size, search.CountFollowers(Fig3Edge(g, 9, 10)) + 1);
}

TEST(FollowerSearch, NoTriangleEdgeHasNoFollowersAndEmptyRoute) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(3, 4);  // isolated edge
  const Graph g = b.Build();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  const EdgeId isolated = g.FindEdge(3, 4);
  EXPECT_EQ(search.CountFollowers(isolated), 0u);
  EXPECT_EQ(search.RouteSize(isolated), 0u);
}

// Property sweep: exact agreement with the brute-force oracle for every
// candidate edge over a varied family of random graphs.
class FollowerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FollowerPropertyTest, MatchesBruteForceOnAllEdges) {
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    std::vector<EdgeId> fast;
    search.CountFollowers(x, &fast);
    const std::vector<EdgeId> brute = BruteForceFollowers(g, d, {}, x);
    ASSERT_EQ(Sorted(fast), Sorted(brute))
        << "anchor " << x << " seed " << seed;
  }
}

TEST_P(FollowerPropertyTest, MatchesBruteForceWithExistingAnchors) {
  // The search must stay exact when the graph already carries anchors
  // (greedy rounds 2+): anchors count as permanently survived partners.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  if (g.NumEdges() < 6) return;
  std::vector<bool> anchored(g.NumEdges(), false);
  anchored[seed % g.NumEdges()] = true;
  anchored[(seed * 17 + 3) % g.NumEdges()] = true;
  const TrussDecomposition d = ComputeTrussDecomposition(g, anchored);
  FollowerSearch search(g);
  search.SetState(&d, &anchored);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    if (anchored[x]) continue;
    std::vector<EdgeId> fast;
    search.CountFollowers(x, &fast);
    const std::vector<EdgeId> brute = BruteForceFollowers(g, d, anchored, x);
    ASSERT_EQ(Sorted(fast), Sorted(brute))
        << "anchor " << x << " seed " << seed;
  }
}

TEST_P(FollowerPropertyTest, FollowersRiseByExactlyOne) {
  // Lemma 1: anchoring one edge lifts every follower by exactly 1 and
  // touches nothing else.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  const EdgeId x = seed % g.NumEdges();
  std::vector<bool> anchored(g.NumEdges(), false);
  anchored[x] = true;
  const TrussDecomposition after = ComputeTrussDecomposition(g, anchored);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (e == x) continue;
    const uint32_t delta = after.trussness[e] - base.trussness[e];
    EXPECT_LE(delta, 1u) << "edge " << e << " seed " << seed;
  }
}

TEST_P(FollowerPropertyTest, RouteSizeBoundsFollowerCount) {
  // Followers lie on upward routes (Lemma 2), so the route size is an upper
  // bound on the follower count.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    EXPECT_LE(search.CountFollowers(x), search.RouteSize(x)) << "edge " << x;
  }
}

TEST_P(FollowerPropertyTest, ScratchStateIsReusableAcrossCalls) {
  // Epoch-stamped scratch must make repeated calls independent: the same
  // query twice gives the same answer after arbitrary interleaving.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  const EdgeId probe = seed % g.NumEdges();
  const uint32_t first = search.CountFollowers(probe);
  for (EdgeId x = 0; x < std::min<EdgeId>(g.NumEdges(), 16); ++x) {
    search.CountFollowers(x);
    search.RouteSize(x);
  }
  EXPECT_EQ(search.CountFollowers(probe), first);
}

TEST_P(FollowerPropertyTest, FollowersByNodeWithEveryNodeMatchesCountFollowers) {
  // GAS's per-node variant, allowed every tree node, is the full search
  // split by node: its counts sum to CountFollowers(x) and attribute each
  // follower to the node that holds it.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  TrussComponentTree tree;
  tree.Build(g, d, {});
  const std::vector<uint32_t>& edge_node = tree.edge_node_ids();
  std::vector<uint32_t> all_nodes;
  for (const TrussTreeNode& node : tree.nodes()) all_nodes.push_back(node.id);
  std::sort(all_nodes.begin(), all_nodes.end());

  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    std::vector<EdgeId> followers;
    const uint32_t total = search.CountFollowers(x, &followers);
    std::vector<std::pair<uint32_t, uint32_t>> expected;
    std::vector<uint32_t> follower_nodes;
    for (const EdgeId f : followers) follower_nodes.push_back(edge_node[f]);
    std::sort(follower_nodes.begin(), follower_nodes.end());
    for (const uint32_t node : follower_nodes) {
      if (expected.empty() || expected.back().first != node) {
        expected.emplace_back(node, 0);
      }
      ++expected.back().second;
    }

    std::vector<std::pair<uint32_t, uint32_t>> by_node;
    search.FollowersByNode(x, edge_node, all_nodes, &by_node);
    uint32_t sum = 0;
    for (const auto& [node, count] : by_node) sum += count;
    EXPECT_EQ(sum, total) << "anchor " << x << " seed " << seed;
    EXPECT_EQ(by_node, expected) << "anchor " << x << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FollowerPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace atr
