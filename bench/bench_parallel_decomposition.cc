// Single-thread speedup of the flat SoA truss peel (truss/flat_peel.h, the
// engine behind ComputeTrussDecomposition) over the serial Algorithm 1 peel
// on the Fig. 9 scalability graphs (patents, pokec stand-ins). Every flat
// run is asserted byte-identical to the serial result before its time is
// reported, so the table can never show a "speedup" that changed the
// answer.
//
// Rows keep the experiment name "bench_plan_sweep" and the configs
// "plan:serial" (the oracle timed again, a noise reference) and "plan:bsp"
// (the flat engine), so scripts/bench_diff.py keeps comparing them against
// the committed BENCH_service.json trajectory.
//
// Knobs:
//   ATR_BENCH_PAR_REPS — repetitions per configuration, best is kept
//                        (default 3)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "truss/decomposition.h"
#include "util/env.h"
#include "util/parallel_for.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace atr {
namespace {

void ExpectIdentical(const TrussDecomposition& serial,
                     const TrussDecomposition& result, const char* dataset,
                     const char* config) {
  if (serial.trussness != result.trussness || serial.layer != result.layer ||
      serial.max_trussness != result.max_trussness) {
    std::fprintf(stderr,
                 "bench: %s decomposition diverged from serial on %s\n",
                 config, dataset);
    std::abort();
  }
}

template <typename Fn>
double BestSeconds(int reps, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    const double elapsed = timer.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

void Run() {
  PrintBenchHeader("bench_plan_sweep", "Fig. 9 hot path, flat vs serial peel");
  const int reps = static_cast<int>(
      std::max<int64_t>(1, GetEnvInt64("ATR_BENCH_PAR_REPS", 3)));
  std::printf("reps per configuration: %d (best kept), 1 thread\n", reps);

  for (const char* name : {"patents", "pokec"}) {
    const DatasetInstance data = MakeDataset(name, BenchScale());
    const Graph& g = data.graph;
    std::printf("\ndataset %s (|V|=%u |E|=%u k_max=%u)\n", name,
                g.NumVertices(), g.NumEdges(), data.k_max);

    ScopedParallelism parallelism(1);
    TrussDecomposition serial;
    const double serial_seconds = BestSeconds(
        reps, [&] { serial = ComputeTrussDecompositionSerial(g); });

    TablePrinter table({"Config", "ms", "speedup_vs_serial"});
    table.AddRow({"serial-oracle",
                  TablePrinter::FormatDouble(serial_seconds * 1e3, 2),
                  "1.00"});
    BenchJsonRow json("bench_plan_sweep");
    struct Config {
      const char* label;
      TrussDecomposition (*decompose)(const Graph&, const std::vector<bool>&);
    };
    for (const Config& config :
         {Config{"plan:serial", &ComputeTrussDecompositionSerial},
          Config{"plan:bsp", &ComputeTrussDecomposition}}) {
      TrussDecomposition result;
      const double seconds =
          BestSeconds(reps, [&] { result = config.decompose(g, {}); });
      ExpectIdentical(serial, result, name, config.label);
      table.AddRow({config.label, TablePrinter::FormatDouble(seconds * 1e3, 2),
                    TablePrinter::FormatDouble(serial_seconds / seconds, 2)});
      json.Add("dataset", name)
          .Add("config", config.label)
          .AddInt("threads", 1)
          .AddInt("edges", g.NumEdges())
          .AddDouble("ms", seconds * 1e3)
          .AddDouble("speedup_vs_serial", serial_seconds / seconds)
          .Emit();
    }
    table.Print();
  }
  std::printf(
      "\nexpected shape: the flat engine (plan:bsp) beats the serial bucket "
      "peel at one thread (acceptance bar > 2x on the Fig. 9 graphs); "
      "plan:serial stays near 1x.\n");
}

}  // namespace
}  // namespace atr

int main(int argc, char** argv) {
  atr::ParseBenchFlags(argc, argv);
  atr::Run();
  return 0;
}
