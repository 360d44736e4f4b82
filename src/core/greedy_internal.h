// Shared round-state plumbing of the accelerated greedy solvers (BASE+,
// GAS): the incremental engine that keeps their (decomposition, anchors)
// state current across rounds, seeded from an optional cached anchor-free
// decomposition and borrowing the solve's one triangle index. BASE, the
// reference they are tested against, keeps its own full-recompute state in
// core/base_greedy.cc and shares only the candidate filter below.
//
// The greedy cores keep no private support state of their own: every
// decomposition goes through truss/decomposition.h or truss/incremental.h,
// both byte-identical to the serial peel at every worker count.

#ifndef ATR_CORE_GREEDY_INTERNAL_H_
#define ATR_CORE_GREEDY_INTERNAL_H_

#include <vector>

#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"

namespace atr {

// An edge the greedy may anchor this round: present and not yet anchored.
inline bool EligibleCandidate(const TrussDecomposition& current,
                              const std::vector<bool>& anchored, EdgeId e) {
  return !anchored[e] &&
         current.trussness[e] != kTrussnessNotComputed;
}

// The round-1 engine: adopts `seed` when given (the anchor-free
// decomposition of `g`), else decomposes `g`. Its commits' follower search
// borrows `triangles`, the solve's whole-graph index of `g`.
inline IncrementalTruss MakeGreedyEngine(const Graph& g,
                                         const TrussDecomposition* seed,
                                         const TriangleIncidence& triangles) {
  return IncrementalTruss(
      g, seed != nullptr ? *seed : ComputeTrussDecomposition(g), &triangles);
}

}  // namespace atr

#endif  // ATR_CORE_GREEDY_INTERNAL_H_
