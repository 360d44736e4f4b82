// AtrEngine — facade over one graph.
//
// An engine holds a Graph plus its anchor-free truss decomposition, built
// once on first use, and runs any named solver (atr::Solve, api/solver.h)
// against that shared state:
//
//   AtrEngine engine(std::move(graph));
//   StatusOr<SolveResult> gas = engine.Run("gas", options);
//   StatusOr<SolveResult> akt = engine.Run("akt:5", options);  // reuses
//                                                 // the cached decomposition
//
// Budget sweeps (the paper's Fig. 5/6/8 experiments) run one solve at the
// largest budget and report every intermediate checkpoint:
//
//   StatusOr<SolveResult> sweep = engine.RunSweep("gas", {20, 40, 60});
//
// Every solve starts from no anchors on the whole graph; the cached
// decomposition is never mutated. A changing graph is served as versioned
// immutable snapshots by AtrService::UpdateGraph (api/service.h).
//
// Engines are not thread-safe and are cheap to create (nothing is
// computed until a solver needs it). For many concurrent callers against a
// few shared graphs, use AtrService: it serves every job from one
// immutable snapshot per graph.

#ifndef ATR_API_ENGINE_H_
#define ATR_API_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "api/solver.h"
#include "graph/graph.h"
#include "truss/decomposition.h"
#include "util/status.h"

namespace atr {

class AtrEngine {
 public:
  // Owning: the engine holds the graph for its lifetime.
  explicit AtrEngine(Graph graph)
      : owned_graph_(std::move(graph)), graph_(&owned_graph_) {}

  // Borrowing: `graph` must outlive the engine (benchmark DatasetInstances
  // already own one). `decomposition` is the graph's precomputed
  // anchor-free decomposition, so the engine never builds one.
  AtrEngine(const Graph& graph, TrussDecomposition decomposition)
      : graph_(&graph), decomposition_(std::move(decomposition)) {}

  // Engines may point into themselves; copying/moving is disabled.
  AtrEngine(const AtrEngine&) = delete;
  AtrEngine& operator=(const AtrEngine&) = delete;

  const Graph& graph() const { return *graph_; }

  // Solves `solver` against the shared decomposition. Errors (unknown
  // name, invalid options) flow back as Status; an unknown or malformed
  // name fails before the decomposition is built.
  StatusOr<SolveResult> Run(const std::string& solver,
                            const SolverOptions& options);

  // One solve at checkpoints.back() reporting the gain at every
  // checkpoint (SolveResult::gain_at_checkpoint). `options.budget` and
  // `options.budget_checkpoints` are overwritten from `checkpoints`.
  StatusOr<SolveResult> RunSweep(const std::string& solver,
                                 const std::vector<uint32_t>& checkpoints,
                                 SolverOptions options = {});

  // Anchor-free decomposition (built on first use).
  const TrussDecomposition& Decomposition();
  uint32_t MaxTrussness() { return Decomposition().max_trussness; }

  // Times this engine built the decomposition: 0 before first use (or
  // when constructed with one), 1 forever after.
  uint32_t decomposition_builds() const { return decomposition_builds_; }

 private:
  Graph owned_graph_;   // empty in borrowing mode
  const Graph* graph_;  // &owned_graph_ or the borrowed graph
  std::optional<TrussDecomposition> decomposition_;
  uint32_t decomposition_builds_ = 0;
};

}  // namespace atr

#endif  // ATR_API_ENGINE_H_
