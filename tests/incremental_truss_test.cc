// Randomized differential harness for the incremental truss maintenance
// engine: on hundreds of seeded random graphs (Erdős–Rényi and power-law
// families), interleave ApplyAnchor / RemoveEdge operations and assert
// after EVERY step that the maintained decomposition — trussness, layer,
// and max_trussness — is byte-identical to a from-scratch
// ComputeTrussDecompositionOnSubset over the same anchors and alive
// edges. Undo round-trips are checked by snapshotting, applying more
// operations, rolling back, and comparing the full state.
//
// Stress knobs (the CI nightly job turns these up):
//   ATR_STRESS_ITERS — multiplies the number of random graphs (default 1)
//   ATR_STRESS_SEED  — offsets every graph seed (default 0), so each
//                      nightly run explores a fresh slice of the space

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "tests/paper_fixtures.h"
#include "truss/decomposition.h"
#include "truss/gain.h"
#include "truss/incremental.h"
#include "util/env.h"
#include "util/prng.h"

namespace atr {
namespace {

uint64_t StressIters() {
  return static_cast<uint64_t>(std::max<int64_t>(1, GetEnvInt64("ATR_STRESS_ITERS", 1)));
}

uint64_t StressSeed() {
  return static_cast<uint64_t>(std::max<int64_t>(0, GetEnvInt64("ATR_STRESS_SEED", 0)));
}

// The issue's two required families plus their parameter spread.
Graph MakeDifferentialGraph(uint64_t seed) {
  if (seed % 2 == 0) {
    return ErdosRenyiGraph(25 + seed % 30, 60 + (seed * 13) % 120, seed);
  }
  // Power-law with triad closure so the truss structure is non-trivial.
  return HolmeKimGraph(30 + seed % 25, 2 + seed % 3,
                       0.3 + 0.1 * (seed % 6), seed);
}

// From-scratch oracle over the engine's current anchor + alive state.
TrussDecomposition Oracle(const IncrementalTruss& inc) {
  return ComputeTrussDecompositionOnSubset(inc.graph(), inc.anchored(),
                                           inc.AliveEdges());
}

void ExpectByteIdentical(const IncrementalTruss& inc, uint64_t seed,
                         int step) {
  const TrussDecomposition oracle = Oracle(inc);
  const TrussDecomposition& maintained = inc.decomposition();
  ASSERT_EQ(maintained.trussness, oracle.trussness)
      << "trussness diverged, seed " << seed << " step " << step;
  ASSERT_EQ(maintained.layer, oracle.layer)
      << "layer diverged, seed " << seed << " step " << step;
  ASSERT_EQ(maintained.max_trussness, oracle.max_trussness)
      << "max_trussness diverged, seed " << seed << " step " << step;
}

struct StateSnapshot {
  std::vector<uint32_t> trussness;
  std::vector<uint32_t> layer;
  uint32_t max_trussness;
  std::vector<bool> anchored;
  uint64_t total_trussness;

  explicit StateSnapshot(const IncrementalTruss& inc)
      : trussness(inc.decomposition().trussness),
        layer(inc.decomposition().layer),
        max_trussness(inc.decomposition().max_trussness),
        anchored(inc.anchored()),
        total_trussness(inc.total_trussness()) {}

  void ExpectEquals(const IncrementalTruss& inc, uint64_t seed) const {
    EXPECT_EQ(trussness, inc.decomposition().trussness) << "seed " << seed;
    EXPECT_EQ(layer, inc.decomposition().layer) << "seed " << seed;
    EXPECT_EQ(max_trussness, inc.decomposition().max_trussness)
        << "seed " << seed;
    EXPECT_EQ(anchored, inc.anchored()) << "seed " << seed;
    EXPECT_EQ(total_trussness, inc.total_trussness()) << "seed " << seed;
  }
};

// Picks a random alive, non-anchored edge; kInvalidEdge when none remain.
EdgeId PickMutableEdge(const IncrementalTruss& inc, Rng& rng) {
  std::vector<EdgeId> eligible;
  for (EdgeId e = 0; e < inc.graph().NumEdges(); ++e) {
    if (inc.IsAlive(e) && !inc.IsAnchored(e)) eligible.push_back(e);
  }
  if (eligible.empty()) return kInvalidEdge;
  return eligible[rng.NextBounded(eligible.size())];
}

// One randomized episode: interleaved anchors/removals with a full oracle
// comparison after every step, plus one mid-episode rollback round-trip.
void RunEpisode(uint64_t seed) {
  const Graph g = MakeDifferentialGraph(seed);
  if (g.NumEdges() == 0) return;
  // Odd seeds hand the engine a borrowed whole-graph triangle index, the
  // way a greedy solve does; even seeds let ApplyAnchor build its own.
  const TriangleIncidence triangles = BuildTriangleIncidence(g);
  IncrementalTruss inc =
      seed % 2 == 1
          ? IncrementalTruss(g, ComputeTrussDecomposition(g), &triangles)
          : IncrementalTruss(g);
  ExpectByteIdentical(inc, seed, -1);

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const int steps = 8 + static_cast<int>(rng.NextBounded(8));
  for (int step = 0; step < steps; ++step) {
    const EdgeId e = PickMutableEdge(inc, rng);
    if (e == kInvalidEdge) break;
    if (rng.NextBounded(100) < 55) {
      const TrussDecomposition before = inc.decomposition();
      const std::vector<bool> anchored_before = inc.anchored();
      const uint32_t gain = inc.ApplyAnchor(e);
      // The reported gain is the trussness-gain oracle of Definition 4.
      EXPECT_EQ(gain, TrussnessGain(g, before, anchored_before, {e}))
          << "seed " << seed << " step " << step;
    } else {
      inc.RemoveEdge(e);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, seed, step));
  }

  // FollowerSearch and the affected-region re-peel must have agreed on
  // every ApplyAnchor (mismatches fall back to a correct full rebuild, but
  // are a bug in one of the two engines).
  EXPECT_EQ(inc.stats().follower_mismatches, 0u) << "seed " << seed;

  // Rollback round-trip: speculate a few more operations, then undo them.
  const StateSnapshot snapshot(inc);
  const IncrementalTruss::Checkpoint cp = inc.MarkRollbackPoint();
  Rng spec_rng(seed ^ 0xabcdef12345678ULL);
  for (int i = 0; i < 4; ++i) {
    const EdgeId e = PickMutableEdge(inc, spec_rng);
    if (e == kInvalidEdge) break;
    if (spec_rng.NextBounded(2) == 0) {
      inc.ApplyAnchor(e);
    } else {
      inc.RemoveEdge(e);
    }
  }
  inc.RollbackTo(cp);
  snapshot.ExpectEquals(inc, seed);
  ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, seed, steps));
}

TEST(IncrementalDifferential, RandomizedInterleavedOpsMatchOracle) {
  // ~200 graphs at the default multiplier: 100 ER + 100 power-law.
  const uint64_t episodes = 200 * StressIters();
  const uint64_t base = StressSeed() * 1000003ULL;
  for (uint64_t i = 0; i < episodes; ++i) {
    ASSERT_NO_FATAL_FAILURE(RunEpisode(base + i)) << "episode " << i;
  }
}

TEST(IncrementalTruss, Fig3AnchorMatchesOracleAndGain) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  EXPECT_EQ(inc.decomposition().trussness, base.trussness);
  EXPECT_EQ(inc.decomposition().layer, base.layer);

  // Anchoring (v5, v8) — the paper's running example — lifts the 3-hull.
  const EdgeId x = Fig3Edge(g, 5, 8);
  ASSERT_NE(x, kInvalidEdge);
  std::vector<EdgeId> followers;
  const uint32_t gain = inc.ApplyAnchor(x, &followers);
  EXPECT_EQ(gain, TrussnessGain(g, base, {}, {x}));
  EXPECT_EQ(gain, followers.size());
  EXPECT_TRUE(inc.IsAnchored(x));
  EXPECT_EQ(inc.decomposition().trussness[x], kAnchoredTrussness);
  for (const EdgeId f : followers) {
    EXPECT_EQ(inc.decomposition().trussness[f], base.trussness[f] + 1);
  }
  const TrussDecomposition oracle = ComputeTrussDecomposition(
      g, inc.anchored());
  EXPECT_EQ(inc.decomposition().trussness, oracle.trussness);
  EXPECT_EQ(inc.decomposition().layer, oracle.layer);
  EXPECT_EQ(inc.decomposition().max_trussness, oracle.max_trussness);
}

TEST(IncrementalTruss, RemoveEdgeReportsTrussnessLoss) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const uint64_t total_before = inc.total_trussness();
  const EdgeId x = Fig3Edge(g, 3, 4);  // edge of the 5-truss clique
  ASSERT_NE(x, kInvalidEdge);
  const uint32_t own = inc.decomposition().trussness[x];
  const uint64_t loss = inc.RemoveEdge(x);
  EXPECT_FALSE(inc.IsAlive(x));
  EXPECT_EQ(inc.decomposition().trussness[x], kTrussnessNotComputed);
  EXPECT_EQ(inc.total_trussness(), total_before - own - loss);
  // The 5-clique loses an edge: the remaining clique edges drop a level.
  EXPECT_GT(loss, 0u);
}

TEST(IncrementalTruss, SpeculativeApplyRollbackIsByteExact) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const StateSnapshot snapshot(inc);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const IncrementalTruss::Checkpoint cp = inc.MarkRollbackPoint();
    inc.ApplyAnchor(e);
    inc.RollbackTo(cp);
  }
  snapshot.ExpectEquals(inc, 0);
  EXPECT_EQ(inc.stats().rollbacks, g.NumEdges());
}

TEST(IncrementalTruss, ClearUndoLogInvalidatesAllCheckpoints) {
  // Regression: the pristine {0, 0} checkpoint must not survive a
  // ClearUndoLog — rolling back to it afterwards would only unwind the
  // post-clear mutations and leave the caller believing it restored the
  // checkpointed state.
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const IncrementalTruss::Checkpoint pristine = inc.MarkRollbackPoint();
  inc.ApplyAnchor(0);
  const IncrementalTruss::Checkpoint mid = inc.MarkRollbackPoint();
  inc.ClearUndoLog();
  EXPECT_FALSE(inc.IsValidCheckpoint(pristine));
  EXPECT_FALSE(inc.IsValidCheckpoint(mid));
  const IncrementalTruss::Checkpoint fresh = inc.MarkRollbackPoint();
  inc.ApplyAnchor(1);
  ASSERT_TRUE(inc.IsValidCheckpoint(fresh));
  inc.RollbackTo(fresh);
  EXPECT_TRUE(inc.IsAnchored(0));  // the cleared commit is the new floor
  EXPECT_FALSE(inc.IsAnchored(1));
}

TEST(IncrementalTruss, StaleCheckpointsAreRejectedNotRestored) {
  // A checkpoint invalidated by a deeper rollback must not validate again
  // once the undo log regrows past its position — restoring it would land
  // the decomposition mid-mutation.
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const IncrementalTruss::Checkpoint pristine = inc.MarkRollbackPoint();
  inc.ApplyAnchor(0);
  const IncrementalTruss::Checkpoint cp = inc.MarkRollbackPoint();
  inc.ApplyAnchor(1);
  inc.RollbackTo(pristine);
  inc.ApplyAnchor(2);  // fresh history past cp
  EXPECT_FALSE(inc.IsValidCheckpoint(cp));
  EXPECT_TRUE(inc.IsValidCheckpoint(pristine));
  // The state is still coherent.
  EXPECT_FALSE(inc.IsAnchored(0));
  EXPECT_FALSE(inc.IsAnchored(1));
  EXPECT_TRUE(inc.IsAnchored(2));
  ExpectByteIdentical(inc, 0, 0);
}

TEST(IncrementalTruss, NestedRollbacksStayValid) {
  // Rolling back to a later checkpoint keeps earlier ones usable.
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  inc.ApplyAnchor(0);
  const StateSnapshot at_outer(inc);
  const IncrementalTruss::Checkpoint outer = inc.MarkRollbackPoint();
  inc.ApplyAnchor(1);
  const IncrementalTruss::Checkpoint inner = inc.MarkRollbackPoint();
  inc.ApplyAnchor(2);
  inc.RemoveEdge(3);
  inc.RollbackTo(inner);
  ASSERT_TRUE(inc.IsValidCheckpoint(outer));
  inc.RollbackTo(outer);
  EXPECT_TRUE(inc.IsAnchored(0));
  EXPECT_FALSE(inc.IsAnchored(1));
  EXPECT_FALSE(inc.IsAnchored(2));
  EXPECT_TRUE(inc.IsAlive(3));
  at_outer.ExpectEquals(inc, 0);
  ExpectByteIdentical(inc, 0, 0);
}

TEST(IncrementalTruss, CopiesAreIndependent) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  IncrementalTruss copy(inc);
  copy.ApplyAnchor(0);
  EXPECT_TRUE(copy.IsAnchored(0));
  EXPECT_FALSE(inc.IsAnchored(0));
  EXPECT_EQ(inc.decomposition().trussness,
            ComputeTrussDecomposition(g).trussness);
}

TEST(IncrementalTruss, SeededConstructorAdoptsDecomposition) {
  const Graph g = MakeFig3Graph();
  TrussDecomposition seed = ComputeTrussDecomposition(g);
  IncrementalTruss inc(g, seed);
  EXPECT_EQ(inc.decomposition().trussness, seed.trussness);
  const uint32_t gain = inc.ApplyAnchor(Fig3Edge(g, 5, 8));
  EXPECT_EQ(gain, TrussnessGain(g, seed, {}, {Fig3Edge(g, 5, 8)}));
}

}  // namespace
}  // namespace atr
