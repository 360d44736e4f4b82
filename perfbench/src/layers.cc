#include "layers.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <utility>

#include "api/service.h"
#include "inputs.h"
#include "persist/catalog.h"
#include "route/follower_search.h"
#include "stats.h"
#include "tree/component_tree.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"

namespace perfbench {
namespace {

using atr::EdgeId;
using atr::Graph;
using atr::GraphDelta;
using atr::TrussDecomposition;

constexpr int kRepeats = 3;

void Check(const atr::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: replay %s failed: %s\n", what,
                 status.message().c_str());
    std::exit(1);
  }
}

// Runs `fn` once under a span and returns its duration in ms.
double Timed(Tracer& tracer, const char* name, const char* layer,
             const std::function<void()>& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  tracer.Record(name, layer, start, end);
  return static_cast<double>(end - start) / 1e6;
}

// Median over kRepeats timed calls.
double MedianTimed(Tracer& tracer, const char* name, const char* layer,
                   const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < kRepeats; ++i) ms.push_back(Timed(tracer, name, layer, fn));
  return Summarize(ms).median;
}

void ReplayRoute(const Graph& g, const TrussDecomposition& decomp,
                 Tracer& tracer, MetricList* out) {
  atr::FollowerSearch search(g);
  search.SetState(&decomp, nullptr);
  uint64_t candidates = 0;
  uint64_t followers = 0;
  const double ms = Timed(tracer, "route.count_followers", "route", [&] {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      if (!decomp.IsComputed(e) || decomp.IsAnchored(e)) continue;
      followers += search.CountFollowers(e);
      ++candidates;
    }
  });
  AddMetric(out, "route.eval_us_per_candidate",
            candidates == 0 ? 0.0 : ms * 1e3 / static_cast<double>(candidates),
            "us");
  AddMetric(out, "route.candidates", static_cast<double>(candidates), "count");
  std::printf("replay route: %llu candidates, %llu followers in total\n",
              static_cast<unsigned long long>(candidates),
              static_cast<unsigned long long>(followers));
}

// Graph::ApplyEdits plus the incremental seeding UpdateGraph performs
// (retire removed edges on the old topology, re-home, stream the adds in),
// over the first kGraphReplays deltas.
void ReplayEdits(const Graph& primary, const std::vector<GraphDelta>& deltas,
                 Tracer& tracer, MetricList* out) {
  Graph current = primary;
  TrussDecomposition decomp = atr::ComputeTrussDecomposition(current);
  std::vector<double> apply_ms;
  int64_t incremental_ns = 0;
  uint64_t edges = 0;
  const size_t count = std::min(deltas.size(), kGraphReplays);
  for (size_t i = 0; i < count; ++i) {
    const GraphDelta& delta = deltas[i];
    atr::StatusOr<atr::GraphEditResult> edited = atr::GraphEditResult();
    apply_ms.push_back(Timed(tracer, "graph.apply_edits", "graph",
                             [&] { edited = current.ApplyEdits(delta); }));
    Check(edited.status(), "Graph::ApplyEdits");

    atr::IncrementalTruss retire(current, decomp);
    int64_t start = NowNs();
    for (EdgeId e = 0; e < current.NumEdges(); ++e) {
      if (edited->edge_remap[e] == atr::kInvalidEdge) retire.RemoveEdge(e);
    }
    int64_t end = NowNs();
    tracer.Record("truss.incremental_remove", "truss", start, end);
    incremental_ns += end - start;

    const Graph& next = edited->graph;
    TrussDecomposition carried;
    carried.trussness.assign(next.NumEdges(), atr::kTrussnessNotComputed);
    carried.layer.assign(next.NumEdges(), 0);
    carried.max_trussness = retire.decomposition().max_trussness;
    for (EdgeId e = 0; e < current.NumEdges(); ++e) {
      const EdgeId mapped = edited->edge_remap[e];
      if (mapped == atr::kInvalidEdge) continue;
      carried.trussness[mapped] = retire.decomposition().trussness[e];
      carried.layer[mapped] = retire.decomposition().layer[e];
    }
    {
      atr::IncrementalTruss maintained(next, std::move(carried));
      start = NowNs();
      for (const EdgeId e : edited->added_edges) maintained.InsertEdge(e);
      end = NowNs();
      tracer.Record("truss.incremental_insert", "truss", start, end);
      incremental_ns += end - start;
      decomp = maintained.decomposition();
    }
    edges += delta.add.size() + delta.remove.size();
    current = std::move(edited->graph);
  }
  AddMetric(out, "graph.apply_edits_ms_p50", Summarize(apply_ms).median, "ms");
  AddMetric(out, "truss.incremental_us_per_edge",
            edges == 0 ? 0.0
                       : static_cast<double>(incremental_ns) / 1e3 /
                             static_cast<double>(edges),
            "us");
}

void ReplayServiceUpdates(const Graph& primary,
                          const std::vector<GraphDelta>& deltas,
                          Tracer& tracer, MetricList* out) {
  atr::AtrService::Options options;
  options.workers = 1;
  atr::AtrService service(options);
  Check(service.AddGraph("replay", Graph(primary)), "AtrService::AddGraph");
  Check(service.Snapshot("replay").status(), "AtrService::Snapshot");
  std::vector<double> ms;
  const size_t count = std::min(deltas.size(), kGraphReplays);
  for (size_t i = 0; i < count; ++i) {
    atr::Status status;
    ms.push_back(Timed(tracer, "api.update_inproc", "api", [&] {
      status = service.UpdateGraph("replay", deltas[i]).status();
    }));
    Check(status, "AtrService::UpdateGraph");
  }
  AddMetric(out, "api.update_inproc_ms_p50", Summarize(ms).median, "ms");
}

void ReplayPersist(const Graph& primary, const TrussDecomposition& decomp,
                   const std::vector<GraphDelta>& deltas,
                   const std::string& dir, Tracer& tracer, MetricList* out) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const std::string name = "replay";
  std::vector<double> append_ms;
  double save_ms = 0.0;
  double load_ms = 0.0;
  {
    atr::persist::CatalogStore store(dir);
    Check(store.Init(), "CatalogStore::Init");
    atr::Status status;
    save_ms = MedianTimed(tracer, "persist.snapshot_save", "persist", [&] {
      status = store.SaveBaseSnapshot(name, 1, primary, decomp);
    });
    Check(status, "CatalogStore::SaveBaseSnapshot");
    const size_t appends = std::min(deltas.size(), kAppendReplays);
    for (size_t i = 0; i < appends; ++i) {
      append_ms.push_back(Timed(tracer, "persist.append", "persist", [&] {
        status = store.AppendDelta(name, i + 2, deltas[i]);
      }));
      Check(status, "CatalogStore::AppendDelta");
      // The restart shape: base plus a 63-delta chain, one below the
      // default compaction threshold.
      if (i + 1 == 63) {
        load_ms = MedianTimed(tracer, "persist.load", "persist", [&] {
          status = store.Load(name).status();
        });
        Check(status, "CatalogStore::Load");
      }
    }
  }
  std::filesystem::remove_all(dir, ec);
  AddMetric(out, "persist.append_ms_p50", Summarize(append_ms).median, "ms");
  const std::optional<double> p99 = TailPercentile(append_ms, 0.99);
  if (p99.has_value()) AddMetric(out, "persist.append_ms_p99", *p99, "ms");
  AddMetric(out, "persist.snapshot_save_ms", save_ms, "ms");
  AddMetric(out, "persist.load_ms", load_ms, "ms");
}

}  // namespace

void ReplayLayers(const ReplayInput& input, Tracer& tracer, MetricList* out) {
  const Graph& g = *input.primary;

  double decompose_ms = 0.0;
  for (const Graph* graph : input.catalog) {
    decompose_ms += MedianTimed(tracer, "truss.decompose", "truss", [&] {
      (void)atr::ComputeTrussDecomposition(*graph);
    });
  }
  AddMetric(out, "truss.decompose_ms", decompose_ms, "ms");

  std::vector<bool> mask(g.NumEdges(), false);
  for (const EdgeId e : input.anchors) mask[e] = true;
  AddMetric(out, "truss.decompose_anchored_ms",
            MedianTimed(tracer, "truss.decompose_anchored", "truss",
                        [&] { (void)atr::ComputeTrussDecomposition(g, mask); }),
            "ms");

  AddMetric(out, "graph.build_ms",
            MedianTimed(tracer, "graph.build", "graph",
                        [&] { (void)Reingest(g); }),
            "ms");

  const TrussDecomposition decomp = atr::ComputeTrussDecomposition(g);
  atr::TrussComponentTree tree;
  AddMetric(out, "tree.build_ms",
            MedianTimed(tracer, "tree.build", "tree",
                        [&] { tree.Build(g, decomp, {}); }),
            "ms");

  ReplayRoute(g, decomp, tracer, out);
  ReplayEdits(g, input.deltas, tracer, out);
  ReplayServiceUpdates(g, input.deltas, tracer, out);
  ReplayPersist(g, decomp, input.deltas, input.dir, tracer, out);
}

void CoreMetrics(const atr::SolveResult& result, int64_t start_ns,
                 int64_t end_ns, Tracer& tracer, MetricList* out,
                 std::vector<std::string>* notes) {
  tracer.Record("core.engine_run", "core", start_ns, end_ns);
  std::vector<double> round_ms;
  double previous = 0.0;
  for (const atr::AnchorRound& round : result.rounds) {
    round_ms.push_back((round.cumulative_seconds - previous) * 1e3);
    previous = round.cumulative_seconds;
  }
  AddMetric(out, "core.round_ms_p50", Summarize(round_ms).median, "ms");
  AddMetric(out, "core.round1_ms", round_ms.empty() ? 0.0 : round_ms[0], "ms");
  const double candidates = static_cast<double>(
      result.fully_reusable + result.partially_reusable + result.non_reusable);
  const Ratio fr{static_cast<double>(result.fully_reusable), candidates};
  const Ratio pr{static_cast<double>(result.partially_reusable), candidates};
  AddMetric(out, "core.fr_share", fr.value(), "ratio");
  AddMetric(out, "core.pr_share", pr.value(), "ratio");
  notes->push_back("core.fr_share " + fr.Describe("candidate evaluations"));
  notes->push_back("core.pr_share " + pr.Describe("candidate evaluations"));
}

}  // namespace perfbench
