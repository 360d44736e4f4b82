// Service-layer load benchmark for the fair-share batch scheduler: a
// mixed-tenant job stream with Zipf-skewed graph popularity (a few hot
// graphs take most submits, like a real serving catalog) is pushed
// through two service configurations, both with 2 workers —
//
//   serial    max_batch=1   every job runs solo
//   fused     max_batch=8   batch fusion
//
// Three sections:
//   1. Saturation throughput: submit the whole stream as fast as the
//      bounded queue admits it, measure jobs/sec end to end. Most of the
//      stream is same-graph greedy budget sweeps, so batch fusion
//      collapses queue backlogs into single solver walks; on a one-core
//      host the fused speedup is pure work reduction, not parallelism.
//   2. Target-QPS driver: an open-loop arrival process at fixed QPS
//      levels; reports achieved QPS and p50/p95 job latency per config.
//   3. Fusion microbench: one graph, one tenant, a burst of identical
//      budget sweeps — max_batch=8 vs max_batch=1, the distilled case
//      behind the >= 1.5x fusion acceptance bar.
//
// Knobs: ATR_BENCH_LOAD_JOBS (stream length, default 240),
// ATR_BENCH_LOAD_GRAPHS (catalog size, default 6), ATR_BENCH_LOAD_QPS
// (comma-free single target, default 200). `--json` emits one row per
// table line for CI's perf-trajectory diff.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "bench/bench_common.h"
#include "graph/generators/generators.h"
#include "util/env.h"
#include "util/prng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace atr {
namespace {

struct LoadConfig {
  const char* label;
  size_t max_batch;
};

// The first row is the baseline the speedup column divides by.
constexpr LoadConfig kConfigs[] = {
    {"serial", 1},
    {"fused", 8},
};

// One synthetic submit: which graph, which tenant, what work.
struct LoadJob {
  int graph = 0;
  int tenant = 0;
  uint32_t budget = 1;
  bool randomized = false;  // non-fusable baseline traffic
};

Graph LoadGraph(uint64_t seed) { return HolmeKimGraph(120, 4, 0.6, seed); }

// Zipf(s=1.1) CDF over `n` graphs: graph 0 is hottest.
std::vector<double> ZipfCdf(int n) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

double UniformDouble(Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

// The job stream is generated once and replayed identically against every
// config, so the comparison is apples to apples.
std::vector<LoadJob> MakeStream(int jobs, int graphs, int tenants) {
  const std::vector<double> cdf = ZipfCdf(graphs);
  Rng rng(0x10adbe9cULL);
  std::vector<LoadJob> stream;
  stream.reserve(jobs);
  for (int i = 0; i < jobs; ++i) {
    LoadJob job;
    const double pick = UniformDouble(rng);
    job.graph = static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), pick) - cdf.begin());
    job.tenant = static_cast<int>(rng.Next() % tenants);
    job.budget = 1 + static_cast<uint32_t>(rng.Next() % 4);
    job.randomized = rng.Next() % 10 == 0;  // 10% non-fusable traffic
    stream.push_back(job);
  }
  return stream;
}

std::unique_ptr<AtrService> MakeService(const LoadConfig& config, int graphs) {
  AtrService::Options options;
  options.workers = 2;
  options.queue_capacity = 512;
  options.max_batch = config.max_batch;
  auto service = std::make_unique<AtrService>(options);
  for (int g = 0; g < graphs; ++g) {
    Status added = service->AddGraph("g" + std::to_string(g), LoadGraph(40 + g));
    if (!added.ok()) std::abort();
  }
  // Pay every graph's one-time decomposition build up front so the timed
  // sections measure scheduling + solving, not first-touch builds.
  for (int g = 0; g < graphs; ++g) {
    if (!service->Snapshot("g" + std::to_string(g)).ok()) std::abort();
  }
  return service;
}

StatusOr<JobHandle> SubmitOne(AtrService& service, const LoadJob& job,
                              std::function<void()> done = nullptr) {
  SolverOptions options;
  options.budget = job.budget;
  const char* solver = "gas";
  if (job.randomized) {
    solver = "rand";
    options.trials = 10;
    options.seed = 3;
  }
  AtrService::SubmitOptions submit;
  submit.tenant = "tenant-" + std::to_string(job.tenant);
  return service.Submit("g" + std::to_string(job.graph), solver, options,
                        submit, std::move(done));
}

struct RunStats {
  double wall_ms = 0.0;
  double jobs_per_sec = 0.0;
  uint64_t jobs_fused = 0;
  uint64_t batches_executed = 0;
};

// Section 1: everything submitted as fast as the queue admits it.
RunStats RunSaturation(const LoadConfig& config,
                       const std::vector<LoadJob>& stream, int graphs) {
  std::unique_ptr<AtrService> service = MakeService(config, graphs);
  std::vector<JobHandle> handles;
  handles.reserve(stream.size());
  WallTimer timer;
  for (const LoadJob& job : stream) {
    StatusOr<JobHandle> handle = SubmitOne(*service, job);
    if (!handle.ok()) std::abort();
    handles.push_back(*handle);
  }
  for (JobHandle& handle : handles) {
    if (!handle.Wait().ok()) std::abort();
  }
  RunStats stats;
  stats.wall_ms = timer.ElapsedMillis();
  stats.jobs_per_sec = stream.size() / (stats.wall_ms / 1e3);
  const AtrService::SchedulerStats sched = service->Stats();
  stats.jobs_fused = sched.jobs_fused;
  stats.batches_executed = sched.batches_executed;
  return stats;
}

struct QpsStats {
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

// Section 2: open-loop arrivals at `target_qps`; per-job latency is
// submit-to-done (the done callback fires when the result is observable).
QpsStats RunTargetQps(const LoadConfig& config,
                      const std::vector<LoadJob>& stream, int graphs,
                      double target_qps) {
  std::unique_ptr<AtrService> service = MakeService(config, graphs);
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> submitted(stream.size());
  std::vector<Clock::time_point> completed(stream.size());
  std::atomic<size_t> done_count{0};
  std::vector<JobHandle> handles;
  handles.reserve(stream.size());

  const auto interval =
      std::chrono::duration<double>(1.0 / target_qps);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < stream.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(interval * i));
    submitted[i] = Clock::now();
    StatusOr<JobHandle> handle =
        SubmitOne(*service, stream[i], [&, i] {
          completed[i] = Clock::now();
          done_count.fetch_add(1, std::memory_order_release);
        });
    if (!handle.ok()) std::abort();
    handles.push_back(*handle);
  }
  for (JobHandle& handle : handles) {
    if (!handle.Wait().ok()) std::abort();
  }
  while (done_count.load(std::memory_order_acquire) < stream.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> latencies_ms(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    latencies_ms[i] =
        std::chrono::duration<double>(completed[i] - submitted[i]).count() *
        1e3;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  QpsStats stats;
  stats.achieved_qps = stream.size() / wall_s;
  stats.p50_ms = latencies_ms[latencies_ms.size() / 2];
  stats.p95_ms = latencies_ms[latencies_ms.size() * 95 / 100];
  return stats;
}

// Section 3: the distilled fusion case — one graph, one tenant, a burst
// of identical greedy budget sweeps.
double RunFusionBurst(size_t max_batch, int sweep_jobs, uint64_t* fused_out) {
  AtrService::Options options;
  options.workers = 1;
  options.max_batch = max_batch;
  options.queue_capacity = 512;
  AtrService service(options);
  if (!service.AddGraph("g", LoadGraph(40)).ok()) std::abort();
  if (!service.Snapshot("g").ok()) std::abort();

  WallTimer timer;
  std::vector<JobHandle> handles;
  for (int i = 0; i < sweep_jobs; ++i) {
    SolverOptions o;
    o.budget = 1 + static_cast<uint32_t>(i % 4);
    StatusOr<JobHandle> handle = service.Submit("g", "gas", o);
    if (!handle.ok()) std::abort();
    handles.push_back(*handle);
  }
  for (JobHandle& handle : handles) {
    if (!handle.Wait().ok()) std::abort();
  }
  const double wall_ms = timer.ElapsedMillis();
  if (fused_out != nullptr) *fused_out = service.Stats().jobs_fused;
  return wall_ms;
}

void Run() {
  PrintBenchHeader("bench_service_load",
                   "fair-share batch scheduling");
  const int jobs =
      static_cast<int>(GetEnvInt64("ATR_BENCH_LOAD_JOBS", 240));
  const int graphs =
      static_cast<int>(GetEnvInt64("ATR_BENCH_LOAD_GRAPHS", 6));
  const double target_qps =
      static_cast<double>(GetEnvInt64("ATR_BENCH_LOAD_QPS", 200));
  constexpr int kTenants = 4;
  std::printf("stream: %d jobs, %d graphs (Zipf 1.1), %d tenants\n\n", jobs,
              graphs, kTenants);

  const std::vector<LoadJob> stream = MakeStream(jobs, graphs, kTenants);
  BenchJsonRow json("bench_service_load_saturation");

  TablePrinter table({"config", "max_batch", "wall (ms)",
                      "jobs/sec", "speedup", "fused", "batches"});
  double serial_jps = 0.0;
  for (const LoadConfig& config : kConfigs) {
    const RunStats stats = RunSaturation(config, stream, graphs);
    if (&config == &kConfigs[0]) serial_jps = stats.jobs_per_sec;
    const double speedup =
        serial_jps > 0.0 ? stats.jobs_per_sec / serial_jps : 1.0;
    table.AddRow({config.label, std::to_string(config.max_batch),
                  TablePrinter::FormatDouble(stats.wall_ms, 1),
                  TablePrinter::FormatDouble(stats.jobs_per_sec, 1),
                  TablePrinter::FormatDouble(speedup, 2) + "x",
                  std::to_string(stats.jobs_fused),
                  std::to_string(stats.batches_executed)});
    json.Add("config", config.label)
        .AddInt("max_batch", static_cast<int64_t>(config.max_batch))
        .AddInt("jobs", jobs)
        .AddDouble("wall_ms", stats.wall_ms)
        .AddDouble("jobs_per_sec", stats.jobs_per_sec)
        .AddDouble("speedup_vs_serial", speedup)
        .AddInt("jobs_fused", static_cast<int64_t>(stats.jobs_fused))
        .AddInt("batches_executed",
                static_cast<int64_t>(stats.batches_executed))
        .Emit();
  }
  std::printf("saturation throughput (whole stream submitted at once):\n");
  table.Print();
  std::printf("\n");

  BenchJsonRow qps_json("bench_service_load_qps");
  TablePrinter qps_table({"config", "target QPS", "achieved QPS", "p50 (ms)",
                          "p95 (ms)"});
  for (const LoadConfig& config : kConfigs) {
    const QpsStats stats = RunTargetQps(config, stream, graphs, target_qps);
    qps_table.AddRow({config.label, TablePrinter::FormatDouble(target_qps, 0),
                      TablePrinter::FormatDouble(stats.achieved_qps, 1),
                      TablePrinter::FormatDouble(stats.p50_ms, 2),
                      TablePrinter::FormatDouble(stats.p95_ms, 2)});
    qps_json.Add("config", config.label)
        .AddDouble("target_qps", target_qps)
        .AddDouble("achieved_qps", stats.achieved_qps)
        .AddDouble("p50_ms", stats.p50_ms)
        .AddDouble("p95_ms", stats.p95_ms)
        .Emit();
  }
  std::printf("open-loop target-QPS driver:\n");
  qps_table.Print();
  std::printf("\n");

  const int sweep_jobs = 32;
  uint64_t fused = 0;
  const double unfused_ms = RunFusionBurst(1, sweep_jobs, nullptr);
  const double fused_ms = RunFusionBurst(8, sweep_jobs, &fused);
  const double fusion_speedup = unfused_ms / fused_ms;
  std::printf(
      "fusion burst (%d same-graph budget sweeps, 1 worker): "
      "unfused %.1f ms, fused %.1f ms (%.2fx, %llu jobs fused)\n",
      sweep_jobs, unfused_ms, fused_ms, fusion_speedup,
      static_cast<unsigned long long>(fused));
  BenchJsonRow fusion_json("bench_service_load_fusion");
  fusion_json.AddInt("sweep_jobs", sweep_jobs)
      .AddDouble("unfused_ms", unfused_ms)
      .AddDouble("fused_ms", fused_ms)
      .AddDouble("speedup", fusion_speedup)
      .AddInt("jobs_fused", static_cast<int64_t>(fused))
      .Emit();
}

}  // namespace
}  // namespace atr

int main(int argc, char** argv) {
  atr::ParseBenchFlags(argc, argv);
  atr::Run();
  return 0;
}
