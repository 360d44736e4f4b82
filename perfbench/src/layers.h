// The replay phase of a traced run: after the timed window, each layer's
// public functions are called directly on the workload's own inputs and
// timed from outside, one span per call.
//
//   route    FollowerSearch::CountFollowers over every eligible candidate
//            at the round-1 state of the primary graph
//   tree     TrussComponentTree::Build
//   truss    ComputeTrussDecomposition per catalog graph and with the
//            primary solve's anchors; IncrementalTruss Remove/InsertEdge
//            over the replayed deltas (the UpdateGraph seeding path)
//   graph    GraphBuilder::Build from the edge list; Graph::ApplyEdits
//   persist  CatalogStore SaveBaseSnapshot / AppendDelta / Load on a
//            private directory
//   api      AtrService::UpdateGraph in process on the same deltas
//
// The core metrics come from an in-process AtrEngine::Run of the
// workload's primary request (per-round times and GAS reuse counts).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "api/solver.h"
#include "graph/graph.h"
#include "metrics.h"
#include "trace.h"

namespace perfbench {

struct ReplayInput {
  // Every graph the workload serves (truss.decompose_ms sums over them).
  std::vector<const atr::Graph*> catalog;
  // The graph the per-call replays run on.
  const atr::Graph* primary = nullptr;
  // The primary request's anchors, for the anchored decomposition.
  std::vector<atr::EdgeId> anchors;
  // Deltas valid in sequence against `primary`: the first kGraphReplays
  // drive ApplyEdits / incremental / in-process UpdateGraph, and all of
  // them (at least kAppendReplays) the delta-log appends.
  std::vector<atr::GraphDelta> deltas;
  // Private scratch directory for the persist replay (created, removed).
  std::string dir;
};

inline constexpr size_t kGraphReplays = 64;
inline constexpr size_t kAppendReplays = 1000;

// Appends the route/tree/truss/graph/persist/api replay metrics.
void ReplayLayers(const ReplayInput& input, Tracer& tracer, MetricList* out);

// Appends core.round_ms_p50, core.round1_ms, core.fr_share and
// core.pr_share from one in-process solve, and records its span.
void CoreMetrics(const atr::SolveResult& result, int64_t start_ns,
                 int64_t end_ns, Tracer& tracer, MetricList* out,
                 std::vector<std::string>* notes);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
