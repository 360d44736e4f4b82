#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "api/engine.h"
#include "inputs.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "stats.h"
#include "truss/decomposition.h"

namespace perfbench {
namespace {

using atr::Graph;
using atr::GraphDelta;
using atr::net::AtrClient;
using atr::net::AtrServer;
using atr::net::WireSolveResult;
using atr::net::WireSolverOptions;

// Each update-stream delta: removes of present edges + adds of absent pairs.
constexpr uint32_t kDeltaRemoves = 8;
constexpr uint32_t kDeltaAdds = 8;
constexpr uint64_t kCompactThreshold = 64;
// Distinct update-stream read answers re-solved in process after a run.
constexpr size_t kSampledAnswers = 4;
constexpr int kVerifyThreads = 4;

[[noreturn]] void Fatal(const std::string& what, const atr::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.message().c_str());
  std::exit(1);
}

void Require(const atr::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what, status);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Resets the kernel's peak-RSS mark (VmHWM) to the current resident set,
// so PeakRssMb() reads the peak since this call. False where the kernel
// does not allow it; the peak then counts from process start.
bool ResetPeakRss() {
  FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool wrote = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && wrote;
}

// A "<field> <n> kB" line of /proc/self/status in MB, or -1.
double ProcStatusMb(const char* field) {
  FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return -1.0;
  const std::string format = std::string(field) + " %lf kB";
  char line[256];
  double kb = -1.0;
  while (std::fgets(line, sizeof(line), file) != nullptr &&
         std::sscanf(line, format.c_str(), &kb) != 1) {
  }
  std::fclose(file);
  return kb >= 0.0 ? kb / 1024.0 : -1.0;
}

// VmHWM in MB; ru_maxrss where /proc/self/status cannot be read.
double PeakRssMb() {
  const double hwm = ProcStatusMb("VmHWM:");
  if (hwm >= 0.0) return hwm;
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Marks the start of a timed window: peak_rss_mb counts from here, after
// set-up and after the harness has released its own copies of the inputs.
// The allocator first hands back the pages freed so far (set-ups, warm-up,
// those copies): how many it would otherwise keep depends on the order of
// earlier frees, and that alone moved the window's peak by up to 20 MB.
int64_t OpenWindow(std::vector<std::string>* notes) {
  malloc_trim(0);
  if (!ResetPeakRss()) {
    notes->push_back("peak_rss_mb counts from process start: the peak-RSS "
                     "mark cannot be reset on this kernel");
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "resident at the window start: %.1f MB",
                ProcStatusMb("VmRSS:"));
  notes->push_back(buf);
  return NowNs();
}

// Releases the harness's copies of served graphs before a timed window.
void ReleaseAll(std::vector<CatalogGraph>& graphs) {
  for (CatalogGraph& g : graphs) g.Release();
}

// Rebuilds released graphs from their seeds for the checks after a window.
void RegenerateAll(std::vector<CatalogGraph>& graphs) {
  for (CatalogGraph& g : graphs) {
    if (!g.Regenerate()) {
      Fatal("regenerate " + g.name,
            atr::Status::Internal("graph differs from its input digest"));
    }
  }
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::string GraphDigest(const CatalogGraph& g) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "graph %s (%s@%g) |V|=%u |E|=%u edges=%s",
                g.name.c_str(), g.profile.c_str(), g.scale,
                g.graph.NumVertices(), g.graph.NumEdges(),
                Hex(GraphFingerprint(g.graph)).c_str());
  return buf;
}

AtrClient Connect(AtrServer& server) {
  AtrClient client;
  Require(client.Connect("127.0.0.1", server.port()), "connect");
  return client;
}

// --- Set-up ---------------------------------------------------------------

// Times set-ups: each runs `start` until a fresh client gets a Ping
// answered. A run takes them in two bursts, one before and one after its
// timed window, and setup_s is the median of both, so it reflects the host
// over the whole run rather than over a few seconds of it.
class SetupTimer {
 public:
  // `crash_stop`: servers stop without the persist-on-stop sweep, so the
  // on-disk chain stays as is.
  SetupTimer(std::function<std::unique_ptr<AtrServer>()> start,
             bool crash_stop)
      : start_(std::move(start)), crash_stop_(crash_stop) {}

  // Runs `repeats` set-ups; returns the last server and stops the others.
  std::unique_ptr<AtrServer> Run(int repeats) {
    std::unique_ptr<AtrServer> server;
    for (int i = 0; i < repeats; ++i) {
      if (server != nullptr) Stop(std::move(server));
      const int64_t begin = NowNs();
      server = start_();
      AtrClient client = Connect(*server);
      Require(client.Ping(), "ping");
      seconds_.push_back(Seconds(NowNs() - begin));
    }
    return server;
  }

  void Stop(std::unique_ptr<AtrServer> server) const {
    Require(crash_stop_ ? server->StopWithoutPersist() : server->Stop(),
            "stop server");
  }

  void Report(RunReport* report) const {
    const Summary s = Summarize(seconds_);
    AddMetric(&report->end_to_end, "setup_s", s.median, "s");
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "setup_s median %.4f q1 %.4f q3 %.4f over %zu set-ups",
                  s.median, s.q1, s.q3, s.count);
    report->notes.push_back(buf);
  }

 private:
  std::function<std::unique_ptr<AtrServer>()> start_;
  bool crash_stop_;
  std::vector<double> seconds_;
};

// In-memory server holding `graphs`: ingest (CSR build from the edge
// list), registration and the one decomposition build per graph.
std::unique_ptr<AtrServer> StartCatalogServer(
    const AtrServer::Options& options, const std::vector<CatalogGraph>& graphs) {
  auto server = std::make_unique<AtrServer>(options);
  Require(server->Start(), "server start");
  for (const CatalogGraph& g : graphs) {
    Require(server->AddGraph(g.name, Reingest(g.graph)), "add graph " + g.name);
    Require(server->service().Snapshot(g.name).status(),
            "decompose " + g.name);
  }
  return server;
}

// --- Timed wire calls -----------------------------------------------------

// Per-thread samples of one solving client.
struct ClientSamples {
  std::vector<double> latency_ms;  // Submit -> Wait answered
  std::vector<double> ack_us;      // Submit -> job id
  std::vector<double> wait_ms;     // latency minus server-reported solve time
  std::vector<double> server_ms;   // server-reported solve time
  std::vector<double> ping_us;     // traced runs only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t last_done_ns = 0;

  void Merge(const ClientSamples& other) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(latency_ms, other.latency_ms);
    append(ack_us, other.ack_us);
    append(wait_ms, other.wait_ms);
    append(server_ms, other.server_ms);
    append(ping_us, other.ping_us);
    attempted += other.attempted;
    failed += other.failed;
    last_done_ns = std::max(last_done_ns, other.last_done_ns);
  }
};

std::atomic<uint64_t> g_next_request{1};

// A Ping between requests (traced runs only): the net layer's round trip.
void TracedPing(AtrClient& client, Tracer& tracer, ClientSamples* samples) {
  if (!tracer.enabled()) return;
  const uint64_t request = g_next_request.fetch_add(1);
  const int64_t start = NowNs();
  const atr::Status status = client.Ping();
  const int64_t end = NowNs();
  if (!status.ok()) return;
  tracer.Record("net.ping", "net", start, end, 0, request);
  samples->ping_us.push_back(static_cast<double>(end - start) / 1e3);
}

// Submit + Wait; on success records the samples (when `timed`) and spans.
std::optional<WireSolveResult> TimedSolve(AtrClient& client,
                                          const std::string& graph,
                                          const std::string& solver,
                                          const WireSolverOptions& options,
                                          const std::string& tenant,
                                          Tracer& tracer, bool timed,
                                          ClientSamples* samples,
                                          const std::function<void()>& on_ack = {}) {
  const uint64_t request = g_next_request.fetch_add(1);
  ++samples->attempted;
  const int64_t t0 = NowNs();
  atr::StatusOr<uint64_t> job = client.Submit(graph, solver, options, tenant);
  const int64_t t1 = NowNs();
  if (!job.ok()) {
    ++samples->failed;
    return std::nullopt;
  }
  if (on_ack) on_ack();
  atr::StatusOr<WireSolveResult> result = client.Wait(*job);
  const int64_t t2 = NowNs();
  samples->last_done_ns = t2;
  if (!result.ok() || result->stopped_early) {
    ++samples->failed;
    return std::nullopt;
  }
  const int64_t server_ns = static_cast<int64_t>(result->seconds * 1e9);
  if (timed) {
    samples->latency_ms.push_back(Millis(t2 - t0));
    samples->ack_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    samples->server_ms.push_back(result->seconds * 1e3);
    samples->wait_ms.push_back(Millis(t2 - t0) - result->seconds * 1e3);
  }
  if (tracer.enabled()) {
    const uint64_t root = tracer.Record("client.solve", "api", t0, t2, 0, request);
    tracer.Record("net.submit", "net", t0, t1, root, request);
    const uint64_t wait =
        tracer.Record("api.wait", "api", t1, t2, root, request);
    tracer.Record("core.solve", "core", std::max(t1, t2 - server_ns), t2, wait,
                  request);
  }
  return std::move(*result);
}

// --- Answer checking ------------------------------------------------------

// One distinct wire answer (anchors + total gain) to one request. The
// request ran on a graph version in [version, version_hi]; the range is a
// single version except for update-stream reads racing the writer.
struct BookEntry {
  std::string graph;
  uint64_t version = 1;
  uint64_t version_hi = 1;
  std::string solver;
  WireSolverOptions options;
  std::vector<uint32_t> anchors;
  uint64_t gain = 0;
  uint64_t count = 0;  // wire answers that were exactly this one
};

class SolveBook {
 public:
  void Add(const std::string& graph, uint64_t version, uint64_t version_hi,
           const std::string& solver, const WireSolverOptions& options,
           const WireSolveResult& result) {
    Fingerprint answer;
    answer.Add(result.total_gain);
    for (const uint32_t e : result.anchor_edges) answer.Add(e);
    char key[320];
    std::snprintf(key, sizeof(key),
                  "%s|%" PRIu64 "-%" PRIu64 "|%s|%u|%u|%" PRIu64 "|%" PRIx64,
                  graph.c_str(), version, version_hi, solver.c_str(),
                  options.budget, options.trials, options.seed, answer.value());
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = entries_.try_emplace(key);
    BookEntry& entry = it->second;
    if (inserted) {
      entry.graph = graph;
      entry.version = version;
      entry.version_hi = version_hi;
      entry.solver = solver;
      entry.options = options;
      entry.anchors = result.anchor_edges;
      entry.gain = result.total_gain;
    }
    ++entry.count;
  }

  std::vector<BookEntry> Entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<BookEntry> out;
    for (const auto& [key, entry] : entries_) out.push_back(entry);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, BookEntry> entries_;
};

// Re-solves each entry in process with AtrEngine::Run on a fresh
// decomposition of each version `graph_at(entry, version)` in the entry's
// range, and compares anchors and total gain; an answer is right when one
// version in its range gives it. Returns the number of wire answers found
// wrong.
uint64_t VerifyBook(
    const std::vector<BookEntry>& entries,
    const std::function<Graph(const BookEntry&, uint64_t)>& graph_at,
    std::vector<std::string>* notes) {
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> wrong{0};
  std::mutex notes_mu;
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < entries.size();
         i = next.fetch_add(1)) {
      const BookEntry& entry = entries[i];
      bool match = false;
      for (uint64_t v = entry.version; v <= entry.version_hi && !match; ++v) {
        atr::AtrEngine engine(graph_at(entry, v));
        atr::StatusOr<atr::SolveResult> expected =
            engine.Run(entry.solver, entry.options.ToSolverOptions());
        match = expected.ok() && expected->anchor_edges == entry.anchors &&
                expected->total_gain == entry.gain;
      }
      if (!match) {
        wrong.fetch_add(entry.count);
        std::lock_guard<std::mutex> lock(notes_mu);
        notes->push_back("WRONG ANSWER: " + entry.graph + " v" +
                         std::to_string(entry.version) + " " + entry.solver +
                         " b=" + std::to_string(entry.options.budget));
      }
    }
  };
  std::vector<std::thread> pool;
  const int threads =
      static_cast<int>(std::min<size_t>(kVerifyThreads, entries.size()));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  notes->push_back("checked " + std::to_string(entries.size()) +
                   " distinct answers in process");
  return wrong.load();
}

// In-process solve of the primary request for the core metrics (traced
// runs); returns its anchors for the anchored-decomposition replay.
std::vector<atr::EdgeId> ReplayCore(const Graph& graph,
                                    const std::string& solver,
                                    const WireSolverOptions& options,
                                    Tracer& tracer, RunReport* report) {
  atr::AtrEngine engine{Graph(graph)};
  (void)engine.Decomposition();
  const int64_t start = NowNs();
  atr::StatusOr<atr::SolveResult> result =
      engine.Run(solver, options.ToSolverOptions());
  const int64_t end = NowNs();
  Require(result.status(), "in-process replay solve");
  CoreMetrics(*result, start, end, tracer, &report->per_layer, &report->notes);
  return result->anchor_edges;
}

// Deltas valid in sequence against `graph`, for the layer replay of
// workloads that do not stream updates themselves.
std::vector<GraphDelta> ReplayDeltas(const Graph& graph, uint64_t seed) {
  return MakeDeltaStream(graph, seed, kAppendReplays, kDeltaRemoves,
                         kDeltaAdds);
}

// --- Shared reporting -----------------------------------------------------

void ReportScheduler(const atr::AtrService::SchedulerStats& before,
                     const atr::AtrService::SchedulerStats& after,
                     RunReport* report) {
  const double jobs =
      static_cast<double>(after.jobs_executed - before.jobs_executed);
  const double batches =
      static_cast<double>(after.batches_executed - before.batches_executed);
  const double fused = static_cast<double>(after.jobs_fused - before.jobs_fused);
  const Ratio per_batch{jobs, batches};
  const Ratio fused_share{fused, jobs};
  AddMetric(&report->per_layer, "api.jobs_per_batch", per_batch.value(), "jobs");
  AddMetric(&report->per_layer, "api.fused_share", fused_share.value(), "ratio");
  report->notes.push_back("api.jobs_per_batch " + per_batch.Describe("jobs/batches"));
  report->notes.push_back("api.fused_share " + fused_share.Describe("fused/jobs"));
}

void ReportClientLayers(const ClientSamples& s, RunReport* report) {
  MetricList& out = report->per_layer;
  AddMetric(&out, "net.ping_us_p50", Summarize(s.ping_us).median, "us");
  AddMetric(&out, "net.submit_ack_us_p50", Summarize(s.ack_us).median, "us");
  AddMetric(&out, "api.wait_ms_p50", Summarize(s.wait_ms).median, "ms");
  if (std::optional<double> p99 = TailPercentile(s.wait_ms, 0.99)) {
    AddMetric(&report->workload_only, "api.wait_ms_p99", *p99, "ms");
  }
  AddMetric(&out, "core.solve_ms_p50", Summarize(s.server_ms).median, "ms");
}

void ReportSolves(const ClientSamples& s, int64_t window_start,
                  RunReport* report) {
  const double window_s = Seconds(s.last_done_ns - window_start);
  AddMetric(&report->end_to_end, "solve_ms_p50", Summarize(s.latency_ms).median,
            "ms");
  AddMetric(&report->end_to_end, "solve_per_s",
            window_s > 0 ? static_cast<double>(s.latency_ms.size()) / window_s
                         : 0.0,
            "1/s");
  AddMetric(&report->end_to_end, "peak_rss_mb", PeakRssMb(), "MB");
  const Summary lat = Summarize(s.latency_ms);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "solves: %zu timed, latency ms q1 %.3f median %.3f q3 %.3f",
                lat.count, lat.q1, lat.median, lat.q3);
  report->notes.push_back(buf);
}

// Runs `body(client_index)` on `clients` threads and joins them.
void RunClients(int clients, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
}

// Checks every answer of a workload whose graphs never change.
uint64_t VerifyCatalog(const SolveBook& book,
                       const std::vector<CatalogGraph>& graphs,
                       std::vector<std::string>* notes) {
  std::map<std::string, const Graph*> by_name;
  for (const CatalogGraph& g : graphs) by_name[g.name] = &g.graph;
  return VerifyBook(
      book.Entries(),
      [&](const BookEntry& e, uint64_t) { return Graph(*by_name.at(e.graph)); },
      notes);
}

// The per-layer metrics of a traced run: what the window's wire calls and
// scheduler counters show, then the replay on `primary` with `request`.
void TraceLayers(const RunOptions& opt, const ClientSamples& samples,
                 const atr::AtrService::SchedulerStats& before,
                 const atr::AtrService::SchedulerStats& after,
                 std::vector<const Graph*> catalog, const Graph& primary,
                 const WireSolverOptions& request,
                 std::vector<GraphDelta> deltas, Tracer& tracer,
                 RunReport* report) {
  ReportScheduler(before, after, report);
  ReportClientLayers(samples, report);
  ReplayInput input;
  input.catalog = std::move(catalog);
  input.primary = &primary;
  input.anchors = ReplayCore(primary, "gas", request, tracer, report);
  input.deltas = std::move(deltas);
  input.dir = opt.work_dir + "/replay-" + std::to_string(getpid());
  ReplayLayers(input, tracer, &report->per_layer);
}

std::vector<const Graph*> GraphsOf(const std::vector<CatalogGraph>& graphs) {
  std::vector<const Graph*> out;
  for (const CatalogGraph& g : graphs) out.push_back(&g.graph);
  return out;
}

// --- solve-large ----------------------------------------------------------

// Instances of each of the two solve-large graph profiles.
constexpr uint64_t kLargeInstances = 5;
// Set-ups before and after the timed window.
constexpr int kLargeSetups[2] = {16, 15};

RunReport SolveLarge(const RunOptions& opt, Tracer& tracer) {
  RunReport report;
  // Alternating pokec / facebook instances; solving a different instance
  // each time keeps the seed-to-seed spread of the median low.
  std::vector<CatalogGraph> graphs;
  for (uint64_t i = 0; i < kLargeInstances; ++i) {
    const std::string suffix = "-" + std::to_string(i);
    graphs.push_back(MakeCatalogGraph("pokec" + suffix, "pokec", 0.2,
                                      DeriveSeed(opt.seed, 2 * i + 1)));
    graphs.push_back(MakeCatalogGraph("facebook" + suffix, "facebook", 0.12,
                                      DeriveSeed(opt.seed, 2 * i + 2)));
  }
  Fingerprint requests;
  for (const CatalogGraph& g : graphs) {
    report.digest.push_back(GraphDigest(g));
    requests.Add(g.name);
  }
  WireSolverOptions gas;
  gas.budget = 8;
  requests.Add(gas.budget);
  report.digest.push_back("requests: gas b=8 round-robin over the " +
                          std::to_string(graphs.size()) + " graphs, " +
                          Hex(requests.value()));

  AtrServer::Options server_options;
  server_options.workers = 1;
  SetupTimer setup([&] { return StartCatalogServer(server_options, graphs); },
                   /*crash_stop=*/false);
  std::unique_ptr<AtrServer> server = setup.Run(kLargeSetups[0]);
  ReleaseAll(graphs);

  AtrClient client = Connect(*server);
  SolveBook book;
  ClientSamples samples;
  auto solve = [&](size_t i, bool timed) {
    const std::string& name = graphs[i % graphs.size()].name;
    TracedPing(client, tracer, &samples);
    std::optional<WireSolveResult> r =
        TimedSolve(client, name, "gas", gas, "", tracer, timed, &samples);
    if (r.has_value()) book.Add(name, 1, 1, "gas", gas, *r);
  };
  solve(graphs.size() - 1, /*timed=*/false);  // warm-up

  const atr::AtrService::SchedulerStats before = server->service().Stats();
  const int64_t start = OpenWindow(&report.notes);
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline; ++i) solve(i, /*timed=*/true);
  const atr::AtrService::SchedulerStats after = server->service().Stats();
  ReportSolves(samples, start, &report);
  client.Close();
  setup.Stop(std::move(server));

  RegenerateAll(graphs);
  setup.Stop(setup.Run(kLargeSetups[1]));
  setup.Report(&report);
  report.failed = samples.failed + VerifyCatalog(book, graphs, &report.notes);
  report.attempted = samples.attempted;

  if (tracer.enabled()) {
    TraceLayers(opt, samples, before, after, GraphsOf(graphs), graphs[0].graph,
                gas, ReplayDeltas(graphs[0].graph, DeriveSeed(opt.seed, 50)),
                tracer, &report);
  }
  return report;
}

// --- serve-mix ------------------------------------------------------------

constexpr int kMixClients = 4;
// Seeded instances of each catalog entry; a request picks one uniformly.
constexpr uint32_t kMixInstances = 3;
constexpr uint32_t kMixTrials = 8;
constexpr uint64_t kMixRandSeed = 7;
constexpr double kMixWarmupSeconds = 1.0;
constexpr int kMixSetups[2] = {31, 30};
// Requests per client covered by the input digest.
constexpr size_t kMixDigestRequests = 1000;

RunReport ServeMix(const RunOptions& opt, Tracer& tracer) {
  RunReport report;
  // Popularity order is fixed (rank 0 hottest); the seed draws each graph
  // and the request streams.
  const struct {
    const char* name;
    const char* profile;
    double scale;
  } kCatalog[] = {
      {"college-l", "college", 0.3},     {"brightkite", "brightkite", 0.05},
      {"youtube", "youtube", 0.05},      {"gowalla", "gowalla", 0.05},
      {"patents", "patents", 0.05},      {"college-s", "college", 0.05},
  };
  // graphs[rank * kMixInstances + instance]
  std::vector<CatalogGraph> graphs;
  for (size_t i = 0; i < std::size(kCatalog); ++i) {
    for (uint32_t k = 0; k < kMixInstances; ++k) {
      graphs.push_back(MakeCatalogGraph(
          std::string(kCatalog[i].name) + "-" + std::to_string(k),
          kCatalog[i].profile, kCatalog[i].scale,
          DeriveSeed(opt.seed, 100 + i * kMixInstances + k)));
      report.digest.push_back(GraphDigest(graphs.back()));
    }
  }
  const uint32_t ranks = static_cast<uint32_t>(std::size(kCatalog));
  for (int c = 0; c < kMixClients; ++c) {
    report.digest.push_back(
        "requests client " + std::to_string(c) + ", first " +
        std::to_string(kMixDigestRequests) + ": " +
        Hex(MixStreamFingerprint(DeriveSeed(opt.seed, 20 + c), ranks,
                                 kMixInstances, kMixDigestRequests)));
  }

  AtrServer::Options server_options;
  server_options.workers = 2;
  server_options.max_batch = 8;
  SetupTimer setup([&] { return StartCatalogServer(server_options, graphs); },
                   /*crash_stop=*/false);
  std::unique_ptr<AtrServer> server = setup.Run(kMixSetups[0]);
  ReleaseAll(graphs);

  SolveBook book;
  std::vector<ClientSamples> per_client(kMixClients);
  std::atomic<int> warmed{0};
  std::atomic<int64_t> start{0};
  const int64_t window_ns = static_cast<int64_t>(opt.seconds * 1e9);
  atr::AtrService::SchedulerStats before;
  RunClients(kMixClients, [&](int c) {
    AtrClient client = Connect(*server);
    ClientSamples warm;
    MixStream stream(DeriveSeed(opt.seed, 20 + c), ranks, kMixInstances);
    auto issue = [&](bool timed, ClientSamples* samples) {
      const MixRequest r = stream.Next();
      WireSolverOptions options;
      options.budget = r.budget;
      const char* solver = "gas";
      if (r.randomized) {
        solver = "rand";
        options.trials = kMixTrials;
        options.seed = kMixRandSeed;
      }
      const std::string& name = graphs[r.graph * kMixInstances + r.instance].name;
      TracedPing(client, tracer, samples);
      std::optional<WireSolveResult> result =
          TimedSolve(client, name, solver, options,
                     "tenant-" + std::to_string(r.tenant), tracer, timed, samples);
      if (result.has_value()) book.Add(name, 1, 1, solver, options, *result);
    };
    // Untimed warm-up, then every client starts the window together.
    const int64_t warm_end =
        NowNs() + static_cast<int64_t>(kMixWarmupSeconds * 1e9);
    while (NowNs() < warm_end) issue(false, &warm);
    if (warmed.fetch_add(1) + 1 == kMixClients) {
      before = server->service().Stats();
      start.store(OpenWindow(&report.notes));
    }
    while (start.load() == 0) std::this_thread::yield();
    const int64_t deadline = start.load() + window_ns;
    while (NowNs() < deadline) issue(true, &per_client[c]);
    per_client[c].attempted += warm.attempted;
    per_client[c].failed += warm.failed;
  });
  const atr::AtrService::SchedulerStats after = server->service().Stats();
  ClientSamples samples;
  for (const ClientSamples& s : per_client) samples.Merge(s);
  ReportSolves(samples, start.load(), &report);
  if (std::optional<double> p99 = TailPercentile(samples.latency_ms, 0.99)) {
    AddMetric(&report.workload_only, "solve_ms_p99", *p99, "ms");
  } else {
    report.notes.push_back("solve_ms_p99 left out: fewer than 10 samples beyond it");
  }
  setup.Stop(std::move(server));

  RegenerateAll(graphs);
  setup.Stop(setup.Run(kMixSetups[1]));
  setup.Report(&report);
  report.failed = samples.failed + VerifyCatalog(book, graphs, &report.notes);
  report.attempted = samples.attempted;

  if (tracer.enabled()) {
    WireSolverOptions primary;
    primary.budget = 4;
    TraceLayers(opt, samples, before, after, GraphsOf(graphs), graphs[0].graph,
                primary, ReplayDeltas(graphs[0].graph, DeriveSeed(opt.seed, 50)),
                tracer, &report);
  }
  return report;
}

// --- update-stream --------------------------------------------------------

// Independently seeded pokec instances, each with its own delta stream; the
// writer and the reader take them in turn. More instances, less
// seed-to-seed spread of the read latency.
constexpr size_t kStreamGraphs = 3;
constexpr size_t kStreamWarmupUpdates = 8;
// Restarts before and after the timed window.
constexpr int kStreamSetups[2] = {11, 10};

// One served graph of update-stream and its delta stream: deltas[i] makes
// version i + 2 (the base snapshot is version 1). Deltas are drawn one at a
// time against the version they target, so the run holds only those it
// has sent.
struct StreamGraph {
  CatalogGraph base;
  std::unique_ptr<EdgeSet> current;  // the version the next delta targets
  atr::Rng rng;
  std::vector<GraphDelta> deltas;    // drawn so far (writer thread only)
  size_t window_first = 0;  // deltas.size() when the timed window opened
  // Read-version bounds: the last version acknowledged to the writer, and
  // the last one it has sent.
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> sent{0};

  const GraphDelta& Draw() {
    deltas.push_back(current->NextDelta(rng, kDeltaRemoves, kDeltaAdds));
    return deltas.back();
  }

  Graph AtVersion(uint64_t version) const {
    EdgeSet edges(base.graph);
    for (uint64_t i = 0; i + 2 <= version; ++i) edges.Apply(deltas[i]);
    return edges.ToGraph();
  }
};

RunReport UpdateStream(const RunOptions& opt, Tracer& tracer) {
  RunReport report;
  // kCompactThreshold - 1 deltas per graph build the restart chain, the
  // rest stream; each is valid against the version it targets.
  const size_t chain = kCompactThreshold - 1;
  std::deque<StreamGraph> graphs;
  for (size_t k = 0; k < kStreamGraphs; ++k) {
    StreamGraph& g = graphs.emplace_back();
    g.base = MakeCatalogGraph("pokec-" + std::to_string(k), "pokec", 0.2,
                              DeriveSeed(opt.seed, 30 + 2 * k));
    g.current = std::make_unique<EdgeSet>(g.base.graph);
    g.rng.Reseed(DeriveSeed(opt.seed, 31 + 2 * k));
    report.digest.push_back(GraphDigest(g.base));
  }
  report.digest.push_back(
      "requests: gas b=1 reads of the latest version, graphs in turn");

  // Untimed preparation: per graph a base snapshot v1 plus a 63-delta log,
  // left by a crash (no persist-on-stop sweep). A pristine copy of it
  // serves the restarts after the window, when the served directory has
  // moved on.
  const std::string data_dir =
      opt.work_dir + "/data-" + std::to_string(getpid());
  const std::string pristine_dir = data_dir + "-pristine";
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  std::filesystem::remove_all(pristine_dir, ec);
  AtrServer::Options server_options;
  server_options.workers = 1;
  server_options.data_dir = data_dir;
  server_options.compact_threshold = kCompactThreshold;
  {
    AtrServer prepare(server_options);
    Require(prepare.Start(), "server start");
    for (StreamGraph& g : graphs) {
      Require(prepare.AddGraph(g.base.name, Reingest(g.base.graph)), "add graph");
      for (size_t i = 0; i < chain; ++i) {
        Require(prepare.catalog()->UpdateGraph(g.base.name, g.Draw()).status(),
                "prepare delta log");
      }
      g.acked = g.sent = chain + 1;
      g.base.Release();
    }
    Require(prepare.StopWithoutPersist(), "crash stop");
  }
  std::filesystem::copy(data_dir, pristine_dir,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) Fatal("copy " + data_dir, atr::Status::Internal(ec.message()));

  SetupTimer setup(
      [&] {
        auto s = std::make_unique<AtrServer>(server_options);
        Require(s->Start(), "restart");
        return s;
      },
      /*crash_stop=*/true);
  auto check_restored = [&](AtrServer& restarted) {
    for (const StreamGraph& g : graphs) {
      atr::StatusOr<atr::AtrService::GraphInfo> info =
          restarted.service().Info(g.base.name);
      Require(info.status(), "info after restart");
      if (info->version != chain + 1 || info->decomposition_builds != 0 ||
          info->delta_chain_length != chain) {
        Fatal("restart", atr::Status::Internal("restored an unexpected version"));
      }
    }
  };
  std::unique_ptr<AtrServer> server = setup.Run(kStreamSetups[0]);
  check_restored(*server);

  // Writer: closed-loop updates. Reader: GAS b=1 on the latest version. A
  // read runs on the version current when the server took its Submit: at
  // least the last version acknowledged to the writer before the Submit
  // was sent, at most the last one the writer had sent when the job id
  // came back.
  std::vector<double> update_ms;
  uint64_t update_attempted = 0;
  uint64_t update_failed = 0;
  int64_t writer_done = 0;
  ClientSamples reads;
  uint64_t exact_reads = 0;
  SolveBook book;
  WireSolverOptions read_options;
  read_options.budget = 1;

  std::atomic<int> warmed{0};
  std::atomic<int64_t> start{0};
  const int64_t window_ns = static_cast<int64_t>(opt.seconds * 1e9);
  atr::AtrService::SchedulerStats before;
  RunClients(2, [&](int role) {
    AtrClient client = Connect(*server);
    size_t turn = 0;
    auto update = [&](bool timed) {
      StreamGraph& g = graphs[turn++ % graphs.size()];
      const GraphDelta& delta = g.Draw();
      const uint64_t expected_version = g.deltas.size() + 1;
      ++update_attempted;
      const uint64_t request = g_next_request.fetch_add(1);
      g.sent.store(expected_version);
      const int64_t t0 = NowNs();
      atr::StatusOr<atr::net::UpdateGraphResponse> r =
          client.UpdateGraph(g.base.name, delta);
      const int64_t t1 = NowNs();
      writer_done = t1;
      if (!r.ok() || r->version != expected_version ||
          r->num_edges != g.current->size()) {
        ++update_failed;
        return;
      }
      g.acked.store(expected_version);
      if (timed) update_ms.push_back(Millis(t1 - t0));
      tracer.Record("client.update", "api", t0, t1, 0, request);
    };
    auto read = [&](bool timed) {
      StreamGraph& g = graphs[turn++ % graphs.size()];
      TracedPing(client, tracer, &reads);
      const uint64_t lo = g.acked.load();
      uint64_t hi = lo;
      std::optional<WireSolveResult> r =
          TimedSolve(client, g.base.name, "gas", read_options, "", tracer,
                     timed, &reads, [&] { hi = g.sent.load(); });
      if (!r.has_value()) return;
      if (lo == hi) ++exact_reads;
      book.Add(g.base.name, lo, std::max(lo, hi), "gas", read_options, *r);
    };
    if (role == 0) {
      for (size_t i = 0; i < kStreamWarmupUpdates; ++i) update(false);
    } else {
      read(false);
    }
    if (warmed.fetch_add(1) + 1 == 2) {
      before = server->service().Stats();
      for (StreamGraph& g : graphs) g.window_first = g.deltas.size();
      start.store(OpenWindow(&report.notes));
    }
    while (start.load() == 0) std::this_thread::yield();
    const int64_t deadline = start.load() + window_ns;
    while (NowNs() < deadline) {
      if (role == 0) {
        update(true);
      } else {
        read(true);
      }
    }
  });
  const atr::AtrService::SchedulerStats after = server->service().Stats();

  // End-to-end figures.
  reads.last_done_ns = std::max(reads.last_done_ns, writer_done);
  ReportSolves(reads, start.load(), &report);
  const double window_s = Seconds(writer_done - start.load());
  AddMetric(&report.workload_only, "update_ms_p50", Summarize(update_ms).median,
            "ms");
  if (std::optional<double> p99 = TailPercentile(update_ms, 0.99)) {
    AddMetric(&report.workload_only, "update_ms_p99", *p99, "ms");
  } else {
    report.notes.push_back("update_ms_p99 left out: fewer than 10 samples beyond it");
  }
  AddMetric(&report.workload_only, "update_per_s",
            window_s > 0 ? static_cast<double>(update_ms.size()) / window_s : 0.0,
            "1/s");
  report.notes.push_back("reads with an exact version: " +
                         std::to_string(exact_reads) + " of " +
                         std::to_string(reads.attempted - reads.failed));

  // Each served final state must be the replayed one, and its
  // decomposition a from-scratch decomposition of that graph.
  uint64_t failed = update_failed + reads.failed;
  for (StreamGraph& g : graphs) {
    if (!g.base.Regenerate()) {
      Fatal("regenerate " + g.base.name,
            atr::Status::Internal("graph differs from its input digest"));
    }
    report.digest.push_back(
        "deltas " + g.base.name + ": " + std::to_string(g.deltas.size()) +
        " sent x (" + std::to_string(kDeltaRemoves) + " removes + " +
        std::to_string(kDeltaAdds) + " adds); the " + std::to_string(chain) +
        " of the restart chain " +
        Hex(DeltaFingerprint(std::vector<GraphDelta>(
            g.deltas.begin(), g.deltas.begin() + chain))) +
        ", all sent " + Hex(DeltaFingerprint(g.deltas)));
    const uint64_t final_version = g.deltas.size() + 1;
    atr::StatusOr<atr::GraphSnapshot> snapshot =
        server->service().Snapshot(g.base.name);
    bool ok = snapshot.ok() && snapshot->version == final_version &&
              GraphFingerprint(*snapshot->graph) ==
                  GraphFingerprint(g.AtVersion(final_version));
    if (ok) {
      const atr::TrussDecomposition fresh =
          atr::ComputeTrussDecomposition(*snapshot->graph);
      const atr::TrussDecomposition& served = *snapshot->decomposition;
      ok = fresh.trussness == served.trussness && fresh.layer == served.layer &&
           fresh.max_trussness == served.max_trussness;
    }
    const std::string where =
        g.base.name + " at version " + std::to_string(final_version);
    if (!ok) {
      failed += g.deltas.size() - chain;  // every update to this graph is suspect
      report.notes.push_back("WRONG FINAL STATE of " + where);
    } else {
      report.notes.push_back("final state of " + where +
                             " matches the replayed graph and a from-scratch "
                             "decomposition");
    }
  }
  Require(server->Stop(), "stop server");
  server.reset();

  // The second burst of restarts, from the pre-window directory.
  std::filesystem::remove_all(data_dir, ec);
  std::filesystem::copy(pristine_dir, data_dir,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) Fatal("copy " + pristine_dir, atr::Status::Internal(ec.message()));
  server = setup.Run(kStreamSetups[1]);
  check_restored(*server);
  setup.Stop(std::move(server));
  setup.Report(&report);
  std::filesystem::remove_all(data_dir, ec);
  std::filesystem::remove_all(pristine_dir, ec);

  // Reads: a seeded sample of distinct answers is re-solved in process on
  // every version in its range.
  std::vector<BookEntry> entries = book.Entries();
  {
    atr::Rng rng(DeriveSeed(opt.seed, 29));
    rng.Shuffle(entries);
    if (entries.size() > kSampledAnswers) entries.resize(kSampledAnswers);
    uint64_t sampled_reads = 0;
    for (const BookEntry& e : entries) sampled_reads += e.count;
    std::map<std::string, const StreamGraph*> by_name;
    for (const StreamGraph& g : graphs) by_name[g.base.name] = &g;
    failed += VerifyBook(
        entries,
        [&](const BookEntry& e, uint64_t version) {
          return by_name.at(e.graph)->AtVersion(version);
        },
        &report.notes);
    report.notes.push_back("re-solved a seeded sample of " +
                           std::to_string(entries.size()) +
                           " distinct answers covering " +
                           std::to_string(sampled_reads) + " reads");
  }
  report.failed = failed;
  report.attempted = update_attempted + reads.attempted;

  if (tracer.enabled()) {
    // The replay starts from the version the timed window started at on the
    // first graph and replays that graph's window deltas, continued by the
    // same generator where the window sent fewer than the replay needs.
    StreamGraph& g = graphs.front();
    while (g.deltas.size() < g.window_first + kAppendReplays) g.Draw();
    const Graph primary = g.AtVersion(g.window_first + 1);
    std::vector<const Graph*> catalog;
    for (const StreamGraph& s : graphs) catalog.push_back(&s.base.graph);
    TraceLayers(opt, reads, before, after, catalog, primary, read_options,
                std::vector<GraphDelta>(
                    g.deltas.begin() + g.window_first,
                    g.deltas.begin() + g.window_first + kAppendReplays),
                tracer, &report);
  }
  return report;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "solve-large" || name == "serve-mix" ||
         name == "update-stream";
}

RunReport RunWorkload(const RunOptions& options, Tracer& tracer) {
  if (options.workload == "solve-large") return SolveLarge(options, tracer);
  if (options.workload == "serve-mix") return ServeMix(options, tracer);
  return UpdateStream(options, tracer);
}

}  // namespace perfbench
