// Exp-6 (Fig. 9): scalability of GAS under |E| and |V| sampling (50%-100%)
// on the two largest datasets (patents, pokec stand-ins). Reports GAS
// runtime plus the vertex/edge ratios of the samples.

#include <cstdio>

#include "bench/bench_common.h"
#include "graph/subgraph.h"
#include "util/env.h"
#include "util/parallel_for.h"
#include "util/prng.h"
#include "util/table_printer.h"

namespace atr {
namespace {

void Run() {
  PrintBenchHeader("bench_fig9_scalability", "Fig. 9 (Exp-6)");
  const uint32_t b = static_cast<uint32_t>(
      GetEnvInt64("ATR_BENCH_SCAL_B", std::min<int64_t>(10, BenchBudget())));
  // ATR_THREADS sets the worker count of the GAS solves and their shared
  // decomposition.
  const int threads = ParallelWorkerCount();
  std::printf("GAS budget per sample: %u, threads: %d (ATR_THREADS; the "
              "shared decomposition uses the parallel peel when > 1)\n",
              b, threads);

  SolverOptions options;
  options.budget = b;

  for (const char* name : {"patents", "pokec"}) {
    const DatasetInstance data = MakeDataset(name, BenchScale());
    const Graph& g = data.graph;
    std::printf("\ndataset %s (|V|=%u |E|=%u)\n", name, g.NumVertices(),
                g.NumEdges());
    TablePrinter table({"Sample", "Rate", "|V|", "|E|", "vertex ratio",
                        "edge ratio", "GAS(s)"});
    for (int mode = 0; mode < 2; ++mode) {
      for (int pct = 50; pct <= 100; pct += 10) {
        Rng rng(1000 + pct);
        const double fraction = pct / 100.0;
        Graph sample = (mode == 0) ? SampleEdges(g, fraction, rng)
                                   : SampleVertices(g, fraction, rng);
        // Count non-isolated vertices for the ratio columns.
        uint32_t active_vertices = 0;
        for (VertexId v = 0; v < sample.NumVertices(); ++v) {
          if (sample.Degree(v) > 0) ++active_vertices;
        }
        const uint32_t sample_edges = sample.NumEdges();
        AtrEngine engine(std::move(sample));
        SolveResult gas;  // edgeless samples have nothing to solve
        if (sample_edges > 0) {
          options.budget = ClampBudget(b, sample_edges);
          gas = RunOrDie(engine, "gas", options);
        }
        table.AddRow(
            {mode == 0 ? "vary |E|" : "vary |V|",
             TablePrinter::FormatDouble(fraction, 1),
             TablePrinter::FormatInt(active_vertices),
             TablePrinter::FormatInt(sample_edges),
             TablePrinter::FormatDouble(
                 static_cast<double>(active_vertices) / g.NumVertices(), 2),
             TablePrinter::FormatDouble(
                 static_cast<double>(sample_edges) / g.NumEdges(), 2),
             TablePrinter::FormatSeconds(gas.seconds)});
        BenchJsonRow("bench_fig9_scalability")
            .Add("dataset", name)
            .Add("mode", mode == 0 ? "vary_edges" : "vary_vertices")
            .AddDouble("rate", fraction)
            .AddInt("vertices", active_vertices)
            .AddInt("edges", sample_edges)
            .AddInt("threads", threads)
            .AddDouble("gas_seconds", gas.seconds)
            .Emit();
      }
    }
    table.Print();
  }
  std::printf(
      "\nexpected shape (paper): GAS runtime grows smoothly with both "
      "sampled |E| and |V|, with no blow-up at full size.\n");
}

}  // namespace
}  // namespace atr

int main(int argc, char** argv) {
  atr::ParseBenchFlags(argc, argv);
  atr::Run();
  return 0;
}
