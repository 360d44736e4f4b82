// Randomized baselines of the paper's effectiveness experiments:
//  * Rand — b anchors uniform over all edges;
//  * Sup  — b anchors uniform over the top 20% of edges by support;
//  * Tur  — b anchors uniform over the top 20% by upward-route size.
// Each runs `trials` independent draws and reports the best trussness gain
// found (the paper uses 2000 trials and reports the maximum).

#ifndef ATR_CORE_RANDOM_BASELINES_H_
#define ATR_CORE_RANDOM_BASELINES_H_

#include <cstdint>
#include <vector>

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "truss/decomposition.h"
#include "util/status.h"

namespace atr {

struct RandomBaselineResult {
  uint64_t best_gain = 0;
  std::vector<EdgeId> best_anchors;
  // Draws actually performed (== the requested trials unless a
  // GreedyControl stopped the run early).
  uint32_t trials = 0;
  // best_gain at each requested budget checkpoint (ascending budgets), so
  // one call serves a whole Fig. 6 sweep. Entry i corresponds to
  // budget_checkpoints[i] anchors (prefixes of each trial's draw).
  std::vector<uint64_t> gain_at_checkpoint;
  // True when a GreedyControl stopped the run before all trials finished;
  // the result then reflects only the trials completed by that point.
  bool stopped_early = false;
};

enum class RandomPoolKind {
  kAllEdges,       // Rand
  kTopSupport,     // Sup: top 20% by support
  kTopRouteSize,   // Tur: top 20% by upward-route size
};

// Runs the baseline. Returns InvalidArgument (instead of aborting) when the
// graph has no edges, `budget_checkpoints` is empty, not strictly
// ascending, starts below 1, or ends beyond |E| — or beyond the candidate
// pool size for the top-20% pools (Sup/Tur) — or `trials` is zero. The
// final checkpoint is the full budget b. Deterministic in `seed` (trials
// are independent streams; parallelized with ordered reduction) as long as
// `control` does not interrupt the run. `control->cancel` and the
// wall-clock limit are checked between trials on every worker; the
// per-round progress callback is unused (trials are not rounds).
StatusOr<RandomBaselineResult> RunRandomBaseline(
    const Graph& g, RandomPoolKind kind,
    const std::vector<uint32_t>& budget_checkpoints, uint32_t trials,
    uint64_t seed, const GreedyControl* control = nullptr);

// As above, but reuses `base` — the anchor-free truss decomposition of `g`
// — instead of recomputing it (the Tur pool and all gain evaluations need
// one). This is the entry point the api/ solvers use so an AtrEngine's
// cached decomposition is shared.
StatusOr<RandomBaselineResult> RunRandomBaseline(
    const Graph& g, const TrussDecomposition& base, RandomPoolKind kind,
    const std::vector<uint32_t>& budget_checkpoints, uint32_t trials,
    uint64_t seed, const GreedyControl* control = nullptr);

// The input checks both RunRandomBaseline overloads make, in the order
// they make them, without running anything: they read only the sizes of
// `g`, so a caller can reject a request before any decomposition exists.
Status ValidateRandomBaseline(const Graph& g, RandomPoolKind kind,
                              const std::vector<uint32_t>& budget_checkpoints,
                              uint32_t trials);

// The candidate pool used by `kind` (exposed for tests): all edges, or the
// top-20% edge ids under the respective score, descending score order.
// When `base` is non-null it is used for the route-size scores instead of
// a fresh decomposition.
std::vector<EdgeId> BaselinePool(const Graph& g, RandomPoolKind kind,
                                 const TrussDecomposition* base = nullptr);

// Number of candidates in the pool `kind` draws from — |E| for Rand, the
// top-20% count for Sup/Tur — without computing the pool. This is the
// budget ceiling RunRandomBaseline enforces, exposed so harnesses can
// clamp environment-supplied budgets instead of tripping the validation.
uint32_t BaselinePoolCapacity(const Graph& g, RandomPoolKind kind);

}  // namespace atr

#endif  // ATR_CORE_RANDOM_BASELINES_H_
