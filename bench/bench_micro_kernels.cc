// Google-benchmark microbenchmarks for the computational kernels:
// support computation, truss decomposition, component-tree construction,
// follower search, route-size probes, and the engine's decomposition
// cache.

#include <benchmark/benchmark.h>

#include "api/engine.h"
#include "graph/generators/generators.h"
#include "graph/triangles.h"
#include "route/follower_search.h"
#include "tree/component_tree.h"
#include "truss/decomposition.h"

namespace atr {
namespace {

Graph MakeBenchGraph(int64_t scale) {
  // Triangle-rich social-style graph; size grows with the benchmark range.
  return HolmeKimGraph(static_cast<uint32_t>(1000 * scale), 8, 0.8, 42);
}

void BM_ComputeSupport(benchmark::State& state) {
  const Graph g = MakeBenchGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSupport(g));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_ComputeSupport)->Arg(1)->Arg(4)->Arg(16);

void BM_TrussDecomposition(benchmark::State& state) {
  const Graph g = MakeBenchGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTrussDecomposition(g));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_TrussDecomposition)->Arg(1)->Arg(4)->Arg(16);

void BM_ComponentTreeBuild(benchmark::State& state) {
  const Graph g = MakeBenchGraph(state.range(0));
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  for (auto _ : state) {
    TrussComponentTree tree;
    tree.Build(g, d, {});
    benchmark::DoNotOptimize(tree.nodes().size());
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_ComponentTreeBuild)->Arg(1)->Arg(4)->Arg(16);

void BM_FollowerSearchPerEdge(benchmark::State& state) {
  const Graph g = MakeBenchGraph(state.range(0));
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  EdgeId e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.CountFollowers(e));
    e = (e + 1) % g.NumEdges();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FollowerSearchPerEdge)->Arg(1)->Arg(4)->Arg(16);

void BM_RouteSizePerEdge(benchmark::State& state) {
  const Graph g = MakeBenchGraph(state.range(0));
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  EdgeId e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.RouteSize(e));
    e = (e + 1) % g.NumEdges();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteSizePerEdge)->Arg(1)->Arg(4)->Arg(16);

void BM_EngineDecompositionCacheHit(benchmark::State& state) {
  AtrEngine engine(MakeBenchGraph(state.range(0)));
  engine.Decomposition();  // prime the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(&engine.Decomposition());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineDecompositionCacheHit)->Arg(1)->Arg(4);

}  // namespace
}  // namespace atr

BENCHMARK_MAIN();
