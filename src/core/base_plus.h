// BASE+ (paper §IV): the greedy framework where each candidate's gain is
// computed with the upward-route follower search (Algorithm 3) instead of a
// full truss decomposition. Per round: m follower searches, no result
// reuse across rounds, and one local update of the decomposition by
// truss/incremental.h when the chosen anchor is committed (never a
// from-scratch recompute).

#ifndef ATR_CORE_BASE_PLUS_H_
#define ATR_CORE_BASE_PLUS_H_

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "truss/decomposition.h"

namespace atr {

// Runs BASE+ with the given budget. Candidate evaluation is parallelized
// across edges with one FollowerSearch instance per worker (deterministic
// reduction). `control` may carry a per-round progress callback, a
// cancellation flag, and a wall-clock limit.
// `seed_decomposition`, when non-null, must be the anchor-free
// decomposition of `g` and replaces the round-1 computation (the api layer
// passes its cached copy). Every run starts from no anchors.
AnchorResult RunBasePlus(
    const Graph& g, uint32_t budget, const GreedyControl* control = nullptr,
    const TrussDecomposition* seed_decomposition = nullptr);

}  // namespace atr

#endif  // ATR_CORE_BASE_PLUS_H_
