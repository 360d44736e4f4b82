// Unified solver API for the ATR problem family.
//
// Every selection algorithm in the repository — the greedy family (BASE,
// BASE+, GAS), the exhaustive Exact solver, the randomized baselines
// (Rand/Sup/Tur), and the AKT vertex-anchoring baseline — runs through one
// function behind one options struct and one result struct, so benches,
// examples, and services call every algorithm the same way:
//
//   const TrussDecomposition anchor_free = ComputeTrussDecomposition(graph);
//   SolverOptions options;
//   options.budget = 100;
//   StatusOr<SolveResult> result = Solve(graph, anchor_free, "gas", options);
//
// Solve validates its inputs and reports recoverable failures through
// atr::Status; it never aborts on bad options. Long-running solves can be
// observed and cancelled through SolverOptions::progress / ::cancel, and
// bounded with ::wall_clock_limit_seconds.
//
// Solve never computes or mutates the decomposition it is handed, so one
// anchor-free decomposition serves any number of solves: AtrEngine
// (api/engine.h) builds it once per graph for cross-solver comparisons and
// budget sweeps (the paper's Fig. 5/6/8, Table III/V experiments), and
// AtrService (api/service.h) shares one immutable snapshot per graph
// version across concurrent jobs.
//
// The parallel inner loops use ParallelWorkerCount() workers (the
// ATR_THREADS environment variable, or a ScopedParallelism on the calling
// thread; util/parallel_for.h). Results never depend on the worker count.
//
// Solver names (case-sensitive, fixed at compile time):
//   "base"    — greedy with brute-force gain computation (Algorithm 2)
//   "base+"   — greedy with upward-route follower search (paper §IV)
//   "gas"     — greedy with follower search + component-tree reuse (Alg. 6)
//   "exact"   — exhaustive b-subset enumeration (Exp-2)
//   "rand"    — best of N uniform draws over all edges
//   "sup"     — best of N draws over the top-20% edges by support
//   "tur"     — best of N draws over the top-20% edges by route size
//   "akt:<k>" — AKT vertex anchoring at level k (Zhang et al., ICDE 2018),
//               e.g. "akt:5"; k must be an integer >= 3

#ifndef ATR_API_SOLVER_H_
#define ATR_API_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "truss/decomposition.h"
#include "util/status.h"

namespace atr {

// Progress event delivered to SolverOptions::progress after each completed
// round of a round-based solver (greedy family, AKT). Exact emits one
// event per finished checkpoint; the randomized baselines emit a single
// completion event (their trials run as one parallel batch, though the
// cancel flag and wall-clock limit are still checked between trials).
struct SolveProgress {
  std::string solver;          // name of the running solver
  uint32_t round = 0;          // 1-based round / checkpoint just completed
  uint32_t budget = 0;         // effective budget of the run
  uint64_t total_gain = 0;     // cumulative trussness gain so far
  double elapsed_seconds = 0.0;
};

// Options shared by every solver. Fields a solver does not use are
// ignored (e.g. `trials` outside the randomized baselines); fields it does
// use are validated and rejected with InvalidArgument when out of range.
struct SolverOptions {
  // Number of anchors to select. Must satisfy 1 <= budget <= |E| (AKT:
  // <= |V|).
  uint32_t budget = 1;
  // Optional ascending budgets at which the gain is additionally reported
  // in SolveResult::gain_at_checkpoint. When empty, {budget} is used. When
  // provided, checkpoints must be strictly ascending, start at >= 1, and
  // end exactly at `budget`.
  std::vector<uint32_t> budget_checkpoints;
  // Randomized baselines: deterministic stream seed and number of
  // independent draws (best draw is reported, as in the paper's Exp-1).
  uint64_t seed = 1;
  uint32_t trials = 100;
  // When positive, round-based solvers stop before the next round once the
  // elapsed wall clock exceeds this; the result is a valid greedy prefix
  // with stopped_early set.
  double wall_clock_limit_seconds = 0.0;
  // Called after every round/checkpoint; returning false cancels the run
  // (result is the prefix selected so far, stopped_early set unless that
  // prefix already covers the whole budget).
  std::function<bool(const SolveProgress&)> progress;
  // When non-null, setting the flag to true cancels the run between
  // rounds/checkpoints.
  const std::atomic<bool>* cancel = nullptr;
};

// Unified result. Exactly one of anchor_edges / anchor_vertices is
// populated (AKT anchors vertices; everything else anchors edges).
struct SolveResult {
  std::string solver;  // name of the solver that produced this

  std::vector<EdgeId> anchor_edges;       // in selection order
  std::vector<VertexId> anchor_vertices;  // AKT only, in selection order
  // One record per selected anchor for the edge-greedy solvers
  // (base/base+/gas): marginal gain, cumulative timing, GAS reuse
  // classification, follower trussness. AnchorRound is edge-typed, so AKT
  // leaves this empty and reports its per-round cumulative gains through
  // gain_at_checkpoint instead.
  std::vector<AnchorRound> rounds;
  uint64_t total_gain = 0;  // TG(A, G) of the full selection

  // Gain at each effective checkpoint (options.budget_checkpoints, or
  // {budget}): greedy/AKT report prefix gains of the one run, randomized
  // baselines the best draw per prefix, Exact one exhaustive run per
  // checkpoint.
  std::vector<uint64_t> gain_at_checkpoint;

  double seconds = 0.0;       // wall-clock time of the whole solve
  bool stopped_early = false; // cancelled / wall-clock limit hit

  // Solver-specific extras (zero elsewhere):
  uint64_t subsets_evaluated = 0;  // Exact: anchor sets scored
  uint32_t trials = 0;             // randomized: draws performed
  // GAS: reuse classification totals over all rounds (Exp-8).
  uint64_t fully_reusable = 0;
  uint64_t partially_reusable = 0;
  uint64_t non_reusable = 0;
};

// Validates the fields of `options` every edge-anchoring solver agrees on:
// budget within [1, |E|], checkpoints (when provided) strictly ascending
// within [1, budget] and ending at `budget`. Solve applies it (AKT bounds
// the budget by |V| instead); ValidateSolve below adds the
// solver-specific rules.
Status ValidateSolverOptions(const Graph& g, const SolverOptions& options);

// Runs solver `solver` on `g`. `anchor_free` must be the anchor-free truss
// decomposition of `g`; it is only read. Unknown names return NotFound
// listing the known solvers; malformed parameterized names (e.g. "akt:x")
// return InvalidArgument, as do options the solver rejects.
StatusOr<SolveResult> Solve(const Graph& g,
                            const TrussDecomposition& anchor_free,
                            const std::string& solver,
                            const SolverOptions& options);

// Every check Solve makes before it reads `anchor_free`: the name (as
// CheckSolverName), then the solver's options under its budget rule
// (1 <= budget <= |E|, or <= |V| for "akt:<k>"), and for rand / sup / tur
// the trials and candidate-pool rules (ValidateRandomBaseline). Returns
// the status Solve would return for the same arguments, without solving,
// so a caller can reject a request before building the decomposition.
Status ValidateSolve(const Graph& g, const std::string& solver,
                     const SolverOptions& options);

// The name check Solve applies first, without solving: OK for a known
// name, otherwise the same NotFound / InvalidArgument status. Reads only
// constant data; safe to call concurrently from any thread.
Status CheckSolverName(const std::string& solver);

// The known names, sorted; the parameterized entry is listed as "akt:<k>".
std::vector<std::string> KnownSolvers();

// The result of a budget-`options.budget` greedy solve (base, base+, gas),
// built from `rounds`, the rounds of one greedy walk at that budget or a
// larger one. A greedy walk picks each round's anchor without looking at
// the remaining budget, so its first b rounds are the budget-b solve: a
// solo Solve and every member of a fused service batch (api/service.h)
// take their results from this one function. `walk_stopped_early` is the
// walk's flag; the result reports it only when the walk ended short of
// options.budget, so a full-budget result is never marked as cut short.
SolveResult GreedyResult(std::string solver, std::vector<AnchorRound> rounds,
                         bool walk_stopped_early, double seconds,
                         const SolverOptions& options);

}  // namespace atr

#endif  // ATR_API_SOLVER_H_
