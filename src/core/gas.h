// GAS (Algorithm 6): the full greedy solver combining the upward-route
// follower search (Algorithm 3) with the truss-component tree (Algorithm 4)
// and cross-round result reuse (Algorithm 5).
//
// Per round:
//  1. every candidate edge e keeps a cache F[e][TN.I] of follower counts per
//     subtree-adjacent tree node; only entries for "dirty" nodes (the ES set
//     of Algorithm 5) are recomputed, the rest are reused;
//  2. the best candidate is anchored, the decomposition is updated locally
//     by truss/incremental.h, the component tree is rebuilt, and the
//     dirty-node set for the next round is derived from the edges whose
//     (trussness, layer) changed plus the anchored edge's subtree-adjacency
//     (a correctness-preserving superset of the paper's ES — see
//     docs/DESIGN.md §4).
//
// GAS must select exactly the same anchor sequence as BASE and BASE+ (the
// reuse is exact); the property tests enforce this.

#ifndef ATR_CORE_GAS_H_
#define ATR_CORE_GAS_H_

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "truss/decomposition.h"

namespace atr {

// Runs GAS with the given budget. `control` may carry a per-round progress
// callback, a cancellation flag, and a wall-clock limit.
// `seed_decomposition`, when non-null, must be the anchor-free
// decomposition of `g` and replaces the round-1 computation (the api layer
// passes its cached copy). Every run starts from no anchors.
AnchorResult RunGas(const Graph& g, uint32_t budget,
                    const GreedyControl* control = nullptr,
                    const TrussDecomposition* seed_decomposition = nullptr);

}  // namespace atr

#endif  // ATR_CORE_GAS_H_
