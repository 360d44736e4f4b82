// Shared round-state plumbing of the greedy family (BASE, BASE+, GAS):
// seeding from an optional cached decomposition and optional pre-existing
// anchors (the api layer's mutable sessions), recomputing with the alive
// subset respected, and constructing the incremental engine behind
// GreedyControl::use_incremental.
//
// The greedy cores keep no private support state of their own: every
// (re)decomposition below goes through truss/decomposition.h, whose flat
// peel runs under the solver's ScopedParallelism worker count with
// byte-identical results.

#ifndef ATR_CORE_GREEDY_INTERNAL_H_
#define ATR_CORE_GREEDY_INTERNAL_H_

#include <vector>

#include "graph/graph.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "util/macros.h"

namespace atr {

struct GreedySeedState {
  std::vector<bool> anchored;
  TrussDecomposition current;
  // Edges participating in the decomposition; empty = all of them. Fixed
  // for the whole run (anchoring never removes edges).
  std::vector<EdgeId> alive;
};

inline GreedySeedState MakeGreedySeedState(
    const Graph& g, const TrussDecomposition* seed,
    const std::vector<bool>* initial_anchors) {
  GreedySeedState state;
  state.anchored = initial_anchors != nullptr
                       ? *initial_anchors
                       : std::vector<bool>(g.NumEdges(), false);
  ATR_CHECK(state.anchored.size() == g.NumEdges());
  state.current = seed != nullptr ? *seed
                                  : ComputeTrussDecomposition(g, state.anchored);
  state.alive = AliveSubsetOf(state.current);
  return state;
}

inline TrussDecomposition RecomputeGreedyState(
    const Graph& g, const std::vector<bool>& anchored,
    const std::vector<EdgeId>& alive) {
  return alive.empty() ? ComputeTrussDecomposition(g, anchored)
                       : ComputeTrussDecompositionOnSubset(g, anchored, alive);
}

// An edge the greedy may anchor this round: present and not yet anchored.
inline bool EligibleCandidate(const TrussDecomposition& current,
                              const std::vector<bool>& anchored, EdgeId e) {
  return !anchored[e] &&
         current.trussness[e] != kTrussnessNotComputed;
}

inline IncrementalTruss MakeGreedyEngine(
    const Graph& g, const TrussDecomposition* seed,
    const std::vector<bool>* initial_anchors) {
  const std::vector<bool> no_anchors;
  const std::vector<bool>& anchors =
      initial_anchors != nullptr ? *initial_anchors : no_anchors;
  if (seed != nullptr) return IncrementalTruss(g, *seed, anchors);
  if (!anchors.empty()) {
    return IncrementalTruss(g, ComputeTrussDecomposition(g, anchors),
                            anchors);
  }
  return IncrementalTruss(g);
}

}  // namespace atr

#endif  // ATR_CORE_GREEDY_INTERNAL_H_
