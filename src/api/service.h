// AtrService — thread-safe multi-graph service layer with async solve jobs.
//
// The engine facade (api/engine.h) serves one caller: every concurrent
// caller needs a private AtrEngine and pays for (or copies) a private
// truss decomposition. AtrService is the layer above it for the
// read-mostly serving shape — many queries against a few shared graphs:
//
//   AtrService service;                      // worker pool + graph catalog
//   service.AddGraph("social", std::move(g));
//
//   SolverOptions options;
//   options.budget = 50;
//   StatusOr<JobHandle> job = service.Submit("social", "gas", options);
//   ...                                      // do other work, poll progress
//   StatusOr<SolveResult> result = job->Wait();
//
// One decomposition per graph, ever: the first job against a graph builds
// its anchor-free truss decomposition (std::call_once), every later job —
// no matter how many run concurrently — calls atr::Solve (api/solver.h) on
// the same immutable SharedTrussDecomposition snapshot. Results are
// byte-identical to a serial AtrEngine::Run because solver results never
// depend on scheduling or thread count (see docs/API.md, threading and
// determinism).
//
// Jobs are asynchronous: Submit enqueues onto a bounded FairScheduler
// (util/scheduler.h) whose workers split the machine's thread budget with
// the solvers' inner ParallelFor loops, and returns a JobHandle with
// Wait() / TryGet() / Cancel() and a polled Progress() snapshot.
//
// Tenancy: every Submit may carry a SubmitOptions{tenant, priority}, and
// the one scheduler serves tenants round-robin so a flooding tenant cannot
// starve a light one.
//
// Batch fusion: compatible queued jobs — same graph version, same greedy
// solver (base, base+ or gas), and no caller-owned progress/cancel/
// wall-clock hooks — coalesce into one solver run; their batch-fusion key
// is "<solver>|<version address>". One greedy walk at the max budget
// serves every member as a prefix, and each member's SolveResult is built
// by GreedyResult, the function a solo greedy solve builds its result with
// (the scheduler differential tests assert byte-identity).
// decomposition_builds still moves at most once per graph version. Every
// other solver runs each job solo.
//
// Served snapshots are immutable: every solve runs from no anchors on
// one version's anchor-free decomposition, and readers are never blocked.
// RemoveGraph only unlists a graph — jobs in flight keep the snapshot
// alive through their shared_ptr.
//
// Streaming updates are VERSIONED snapshots: UpdateGraph(name, delta)
// applies a GraphDelta through Graph::ApplyEdits and publishes a new
// immutable snapshot whose decomposition is seeded from the previous
// version via the edge-id remap plus incremental truss maintenance
// (truss/incremental.h) — never a from-scratch rebuild, so
// GraphInfo::decomposition_builds does not move on a delta update. Jobs
// pin the version that was current when they were submitted; Submits after
// UpdateGraph returns see the new version, and old versions stay alive
// while any job or caller-held GraphSnapshot references them.
//
// Thread-safety: every AtrService and JobHandle method may be called from
// any thread. JobHandle is a cheap shared-state handle; copies observe the
// same job.

#ifndef ATR_API_SERVICE_H_
#define ATR_API_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/solver.h"
#include "graph/graph.h"
#include "truss/decomposition.h"
#include "util/mutex.h"
#include "util/scheduler.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace atr {

// Immutable per-graph state served to jobs. Both pointers are read-only
// snapshots; holding a GraphSnapshot keeps them alive across RemoveGraph
// and across any number of later UpdateGraph versions.
struct GraphSnapshot {
  std::shared_ptr<const Graph> graph;
  SharedTrussDecomposition decomposition;
  // 1 for the AddGraph snapshot, bumped by every successful UpdateGraph.
  uint64_t version = 1;
};

using JobId = uint64_t;

namespace internal {
struct JobState;
}  // namespace internal

// Handle to one submitted solve job. Default-constructed handles are empty
// (valid() is false; accessors return errors / zero values).
class JobHandle {
 public:
  enum class State {
    kQueued,     // waiting for a pool worker
    kRunning,    // solver in flight
    kDone,       // result available (ok, solver error, or stopped_early)
    kCancelled,  // cancelled before the solver started; result is kCancelled
  };

  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  JobId id() const;
  const std::string& graph_name() const;
  const std::string& solver_name() const;

  State state() const;
  bool Done() const;  // kDone or kCancelled

  // Blocks until the job finishes and returns its result. A job cancelled
  // before it started returns kCancelled; a job cancelled mid-solve
  // returns ok with SolveResult::stopped_early set and a valid prefix.
  StatusOr<SolveResult> Wait();

  // Non-blocking: the result when the job has finished, nullopt otherwise.
  std::optional<StatusOr<SolveResult>> TryGet() const;

  // Requests cancellation: a queued job completes as kCancelled without
  // running; a running job observes the flag at its solver's native
  // granularity (between rounds / checkpoints / trials) and finishes with
  // stopped_early. Returns false when the job had already finished.
  bool Cancel();

  // Latest progress event (zero-valued before the first round completes).
  SolveProgress Progress() const;

 private:
  friend class AtrService;
  explicit JobHandle(std::shared_ptr<internal::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::JobState> state_;
};

// Fair-share identity of one AtrService::Submit. Tenants are created on
// first use; "" is the default tenant (still fair-shared against named
// ones). Higher priority runs first within a tenant; tenants are isolated
// from each other's priorities by the round-robin. Declared outside
// AtrService so `= {}` can default it in Submit's signature.
struct SubmitOptions {
  std::string tenant;
  int priority = 0;
};

class AtrService {
 public:
  struct Options {
    // Concurrent solve jobs. 0 = min(4, this thread's worker budget).
    int workers = 0;
    // Bounded pending-job queue: Submit blocks while this many jobs wait
    // (backpressure). 0 = 4x workers.
    size_t queue_capacity = 0;
    // Most compatible jobs one batch may fuse into a single solver run.
    // 1 disables batch fusion entirely.
    size_t max_batch = 8;
  };

  using SubmitOptions = atr::SubmitOptions;

  AtrService() : AtrService(Options()) {}
  explicit AtrService(const Options& options);

  // Drains: every submitted job runs (or completes as cancelled) before
  // the workers join.
  ~AtrService();

  AtrService(const AtrService&) = delete;
  AtrService& operator=(const AtrService&) = delete;

  // --- Graph catalog ------------------------------------------------------

  // Registers `graph` under `name`. The decomposition is NOT computed here;
  // the first job (or Snapshot call) builds it, exactly
  // once. Fails with kFailedPrecondition when the name is taken.
  Status AddGraph(const std::string& name, Graph graph);
  Status AddGraph(const std::string& name, std::shared_ptr<const Graph> graph);

  // Restore path (src/persist/): registers `name` at `version` with a
  // decomposition that was already computed in a previous process life.
  // The version is born built — decomposition_builds stays 0, and the
  // acceptance tests assert a restarted server serves its whole catalog
  // without a single rebuild. `delta_chain_length` seeds the compaction
  // counter (deltas replayed on top of the restored base add to it).
  // Fails with kFailedPrecondition when the name is taken and
  // kInvalidArgument when the decomposition's shape does not match the
  // graph's edge count.
  Status RestoreGraph(const std::string& name,
                      std::shared_ptr<const Graph> graph,
                      TrussDecomposition decomposition, uint64_t version,
                      uint64_t delta_chain_length = 0);

  // Unlists `name`. Jobs in flight keep the snapshot alive; new Submits
  // against the name fail with kNotFound.
  Status RemoveGraph(const std::string& name);

  // Registered names, sorted.
  std::vector<std::string> GraphNames() const;

  // The current shared snapshot for `name`, building the decomposition on
  // first use. Blocks only while that one build is in flight.
  StatusOr<GraphSnapshot> Snapshot(const std::string& name);

  // Publishes the next version of `name`: `delta` is applied through
  // Graph::ApplyEdits, and the new snapshot's decomposition is seeded from
  // the previous version across the edge-id remap, brought up to date with
  // incremental RemoveEdge/InsertEdge maintenance — decomposition_builds
  // does NOT increment (a never-used graph pays its one lazy build first).
  // In-flight jobs and held snapshots keep the version they pinned;
  // Submits after this returns see the new one. Delta validation errors
  // (kInvalidArgument, see Graph::ApplyEdits) leave the current version
  // untouched. Concurrent updates to one graph serialize.
  StatusOr<GraphSnapshot> UpdateGraph(const std::string& name,
                                      const GraphDelta& delta);

  // Durability hook: when set, UpdateGraph invokes the listener AFTER the
  // next version is fully materialized but BEFORE it is published — i.e.
  // write-ahead semantics: a listener failure aborts the update (the error
  // is returned, the current version stays), so a version is never served
  // that the log does not cover. Invoked under the per-graph update lock,
  // so calls for one graph arrive in version order, exactly once each.
  // The persistence layer (persist/catalog.h) appends the delta record
  // here. Pass nullptr to clear.
  using UpdateListener = std::function<Status(
      const std::string& name, uint64_t new_version, const GraphDelta& delta)>;
  void SetUpdateListener(UpdateListener listener);

  // Compaction hook (persist/catalog.h): resets the delta-chain counter
  // after the chain was folded into a fresh base snapshot, so
  // GraphInfo::delta_chain_length reports the deltas since the LAST base,
  // not since AddGraph. Without compaction the chain grows without bound —
  // the counter is how operators (and the regression tests) see it.
  Status ResetDeltaChain(const std::string& name);

  struct GraphInfo {
    std::string name;
    // Counts of the CURRENT version's topology.
    uint32_t num_vertices = 0;
    uint32_t num_edges = 0;
    // Times the service built a decomposition for this graph from scratch:
    // 0 before first use, 1 forever after — delta updates seed the next
    // version incrementally and never add to it (the acceptance tests
    // assert it never reaches 2).
    uint32_t decomposition_builds = 0;
    // max_trussness of the current snapshot; 0 while it is unbuilt.
    uint32_t max_trussness = 0;
    // Current snapshot version (1 = the AddGraph snapshot) and the number
    // of UpdateGraph publications since this process registered the graph
    // (== version - version_at_registration).
    uint64_t version = 1;
    uint64_t delta_updates = 0;
    // Deltas accumulated since the last base snapshot (ResetDeltaChain).
    // Grows with every UpdateGraph; compaction folds the chain into a new
    // base and resets it. Unbounded growth here means nobody compacts.
    uint64_t delta_chain_length = 0;
    uint64_t jobs_submitted = 0;
  };
  StatusOr<GraphInfo> Info(const std::string& name) const;

  // --- Async jobs ---------------------------------------------------------

  // Enqueues `solver_name` against graph `graph_name` under the fair-share
  // identity `submit` (tenant + priority). Unknown graph / solver names
  // fail synchronously (kNotFound / kInvalidArgument); option validation
  // errors surface in the JobHandle result. Blocks while the pending queue
  // is full. `options.cancel` stays under the caller's control and is
  // additionally observed at progress-event granularity;
  // `options.progress` is invoked from the worker thread.
  //
  // `done`, when set, is invoked exactly once, from the worker thread,
  // after the job's result became observable (Wait/TryGet return it). A
  // job cancelled before running still invokes it. The networked front
  // end uses this to push Wait responses instead of blocking a thread per
  // pending job.
  StatusOr<JobHandle> Submit(const std::string& graph_name,
                             const std::string& solver_name,
                             const SolverOptions& options,
                             const SubmitOptions& submit = {},
                             std::function<void()> done = nullptr);

  // Non-blocking admission-controlled Submit: where Submit would block on
  // a full pending queue, this rejects with kResourceExhausted (the
  // server layer turns that into a structured retry-after response).
  StatusOr<JobHandle> TrySubmit(const std::string& graph_name,
                                const std::string& solver_name,
                                const SolverOptions& options,
                                const SubmitOptions& submit = {},
                                std::function<void()> done = nullptr);

  // Pending + running jobs for one tenant — the signal behind the
  // server's per-tenant retry-after estimate.
  size_t TenantLoad(const std::string& tenant) const;

  // Pending + running jobs / pending-queue capacity / worker count —
  // the load signals behind the server's retry-after estimate.
  size_t QueueLoad() const;
  size_t QueueCapacity() const;
  int Workers() const;

  // Scheduler counters. jobs_executed counts individual jobs,
  // batches_executed counts solver dispatches; the gap between them is
  // the work batch fusion saved. jobs_fused counts jobs that rode in a
  // batch of more than one.
  struct SchedulerStats {
    uint64_t jobs_executed = 0;
    uint64_t batches_executed = 0;
    uint64_t jobs_fused = 0;
  };
  SchedulerStats Stats() const;

  // Blocks until every job submitted so far has finished.
  void Drain();

 private:
  struct GraphVersion;
  struct CatalogEntry;

  // Shared Submit/TrySubmit implementation; `blocking` picks the queue
  // entry point (blocking backpressure vs kResourceExhausted reject).
  StatusOr<JobHandle> SubmitInternal(const std::string& graph_name,
                                     const std::string& solver_name,
                                     const SolverOptions& options,
                                     const SubmitOptions& submit,
                                     std::function<void()> done,
                                     bool blocking);

  // Registers `entry` under `name` (the AddGraph / RestoreGraph tail);
  // fails when the name is taken.
  Status InsertEntry(const std::string& name, const char* what,
                     std::shared_ptr<CatalogEntry> entry);

  // The entry for `name`, or nullptr (caller turns that into kNotFound).
  std::shared_ptr<CatalogEntry> FindEntry(const std::string& name) const;

  // Builds the version's decomposition exactly once (counted on the entry)
  // and returns its snapshot.
  static GraphSnapshot SnapshotOf(CatalogEntry& entry, GraphVersion& version);

  // Scheduler entry point: singleton batches run the classic RunJob path,
  // fused batches one shared greedy walk carved per member.
  static void RunBatch(std::vector<FairScheduler::Job> batch);
  static void RunJob(const std::shared_ptr<internal::JobState>& state);
  static void RunFusedGreedy(
      const std::vector<std::shared_ptr<internal::JobState>>& members);

  std::atomic<JobId> next_job_id_{1};
  mutable Mutex listener_mu_;
  std::shared_ptr<const UpdateListener> update_listener_
      ATR_GUARDED_BY(listener_mu_);

  mutable Mutex catalog_mu_;
  std::map<std::string, std::shared_ptr<CatalogEntry>> catalog_
      ATR_GUARDED_BY(catalog_mu_);
  // Declared last so destruction drains and joins its workers before the
  // catalog and the listener go away (running jobs additionally pin their
  // entry through shared_ptrs).
  FairScheduler scheduler_;
};

}  // namespace atr

#endif  // ATR_API_SERVICE_H_
