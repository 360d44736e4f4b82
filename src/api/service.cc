#include "api/service.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "truss/incremental.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace atr {
namespace internal {

// Shared state behind one JobHandle. The submitting thread, the pool
// worker, and any number of handle copies coordinate through `mu`/`cv`;
// the cancel flag is the std::atomic the running solver polls between
// rounds, so Cancel() reaches mid-solve jobs without the mutex.
struct JobState {
  JobId id = 0;
  std::string graph_name;
  std::string solver_name;
  SolverOptions options;            // the caller's options, unmodified
  // The pinned version's graph, readable before its decomposition exists.
  std::shared_ptr<const Graph> graph;
  std::function<GraphSnapshot()> snapshot;  // service's build-once entry

  mutable Mutex mu;
  CondVar cv;
  JobHandle::State state ATR_GUARDED_BY(mu) = JobHandle::State::kQueued;
  std::optional<StatusOr<SolveResult>> result ATR_GUARDED_BY(mu);
  SolveProgress progress ATR_GUARDED_BY(mu);
  std::atomic<bool> cancel{false};
  // Completion hook (worker thread): taken out under mu when the result is
  // published, invoked after the lock drops so it may call handle methods.
  std::function<void()> on_done ATR_GUARDED_BY(mu);
};

// Publishes `result` as the job's terminal state and fires the completion
// hook outside the lock. Long-lived JobHandle copies must pin only the
// result, not the graph snapshot or the caller's closures.
void PublishResult(const std::shared_ptr<JobState>& state,
                   StatusOr<SolveResult> result, JobHandle::State terminal) {
  std::function<void()> done;
  {
    MutexLock lock(&state->mu);
    state->result = std::move(result);
    state->state = terminal;
    state->graph = nullptr;
    state->snapshot = nullptr;
    state->options = SolverOptions();
    done = std::move(state->on_done);
    state->on_done = nullptr;
    state->cv.NotifyAll();
  }
  // Outside the lock: the hook may call JobHandle methods (TryGet sees the
  // result — it was published above).
  if (done) done();
}

void PublishCancelledBeforeStart(const std::shared_ptr<JobState>& state) {
  PublishResult(
      state,
      StatusOr<SolveResult>(Status::Cancelled(
          "job " + std::to_string(state->id) + " (" + state->solver_name +
          " on \"" + state->graph_name + "\") cancelled before it started")),
      JobHandle::State::kCancelled);
}

}  // namespace internal

// --- JobHandle ------------------------------------------------------------

namespace {
const std::string kEmptyString;
}  // namespace

JobId JobHandle::id() const { return state_ == nullptr ? 0 : state_->id; }

const std::string& JobHandle::graph_name() const {
  return state_ == nullptr ? kEmptyString : state_->graph_name;
}

const std::string& JobHandle::solver_name() const {
  return state_ == nullptr ? kEmptyString : state_->solver_name;
}

JobHandle::State JobHandle::state() const {
  if (state_ == nullptr) return State::kQueued;
  MutexLock lock(&state_->mu);
  return state_->state;
}

bool JobHandle::Done() const {
  if (state_ == nullptr) return false;
  MutexLock lock(&state_->mu);
  return state_->result.has_value();
}

StatusOr<SolveResult> JobHandle::Wait() {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("Wait: empty JobHandle");
  }
  MutexLock lock(&state_->mu);
  while (!state_->result.has_value()) state_->cv.Wait(state_->mu);
  return *state_->result;
}

std::optional<StatusOr<SolveResult>> JobHandle::TryGet() const {
  if (state_ == nullptr) return std::nullopt;
  MutexLock lock(&state_->mu);
  if (!state_->result.has_value()) return std::nullopt;
  return *state_->result;
}

bool JobHandle::Cancel() {
  if (state_ == nullptr) return false;
  MutexLock lock(&state_->mu);
  if (state_->result.has_value()) return false;
  state_->cancel.store(true, std::memory_order_relaxed);
  return true;
}

SolveProgress JobHandle::Progress() const {
  if (state_ == nullptr) return SolveProgress{};
  MutexLock lock(&state_->mu);
  return state_->progress;
}

// --- AtrService -----------------------------------------------------------

// One immutable snapshot version of a cataloged graph. The AddGraph
// version's decomposition is built lazily (exactly once, under `once`);
// UpdateGraph versions are born built — their decomposition is seeded
// eagerly and the once flag is consumed at construction. `built` is set
// with release order after `decomposition` is published and read with
// acquire by Info(), so an observed true implies a readable snapshot.
struct AtrService::GraphVersion {
  std::shared_ptr<const Graph> graph;
  uint64_t version = 1;
  std::once_flag once;
  SharedTrussDecomposition decomposition;
  std::atomic<bool> built{false};

  // Marks this version born built (UpdateGraph publications and restored
  // snapshots): the once flag is consumed here so SnapshotOf never counts
  // a build for it.
  void InstallPrebuilt(SharedTrussDecomposition prebuilt) {
    std::call_once(once, [this, &prebuilt] {
      decomposition = std::move(prebuilt);
      built.store(true, std::memory_order_release);
    });
  }
};

// One catalog slot: the chain of snapshot versions, of which `current` is
// the one new submits pin. `version_mu` guards the `current` pointer only
// (reads are brief); `update_mu` serializes whole UpdateGraph calls so
// concurrent updates to one graph cannot both seed from the same
// predecessor and lose one delta.
struct AtrService::CatalogEntry {
  mutable Mutex version_mu;
  std::shared_ptr<GraphVersion> current ATR_GUARDED_BY(version_mu);
  // Serializes whole UpdateGraph calls; guards no fields itself.
  Mutex update_mu;
  std::atomic<uint32_t> builds{0};
  std::atomic<uint64_t> delta_updates{0};
  // Deltas since the last base snapshot; compaction resets it.
  std::atomic<uint64_t> delta_chain{0};
  std::atomic<uint64_t> jobs_submitted{0};

  std::shared_ptr<GraphVersion> Current() const ATR_EXCLUDES(version_mu) {
    MutexLock lock(&version_mu);
    return current;
  }
};

// The scheduler resolves the worker and capacity defaults on this (the
// constructing) thread, whose ParallelFor budget is the one its pool must
// share. The runner is stateless (payloads carry everything), so it never
// dangles a reference to the service during teardown.
AtrService::AtrService(const Options& options)
    : scheduler_({.workers = options.workers,
                  .capacity = options.queue_capacity,
                  .max_batch = options.max_batch},
                 [](std::vector<FairScheduler::Job> batch) {
                   RunBatch(std::move(batch));
                 }) {}

AtrService::~AtrService() = default;

Status AtrService::InsertEntry(const std::string& name, const char* what,
                               std::shared_ptr<CatalogEntry> entry) {
  MutexLock lock(&catalog_mu_);
  const bool inserted = catalog_.emplace(name, std::move(entry)).second;
  if (!inserted) {
    return Status::FailedPrecondition(std::string(what) + ": graph \"" + name +
                                      "\" is already registered");
  }
  return Status::Ok();
}

Status AtrService::AddGraph(const std::string& name, Graph graph) {
  return AddGraph(name, std::make_shared<const Graph>(std::move(graph)));
}

Status AtrService::AddGraph(const std::string& name,
                            std::shared_ptr<const Graph> graph) {
  if (graph == nullptr) {
    return Status::InvalidArgument("AddGraph: graph must not be null");
  }
  auto entry = std::make_shared<CatalogEntry>();
  entry->current = std::make_shared<GraphVersion>();
  entry->current->graph = std::move(graph);
  return InsertEntry(name, "AddGraph", std::move(entry));
}

Status AtrService::RestoreGraph(const std::string& name,
                                std::shared_ptr<const Graph> graph,
                                TrussDecomposition decomposition,
                                uint64_t version,
                                uint64_t delta_chain_length) {
  if (graph == nullptr) {
    return Status::InvalidArgument("RestoreGraph: graph must not be null");
  }
  if (decomposition.trussness.size() != graph->NumEdges() ||
      decomposition.layer.size() != graph->NumEdges()) {
    return Status::InvalidArgument(
        "RestoreGraph: decomposition shape does not match the graph (" +
        std::to_string(decomposition.trussness.size()) + " trussness / " +
        std::to_string(decomposition.layer.size()) + " layer entries for " +
        std::to_string(graph->NumEdges()) + " edges)");
  }
  if (version == 0) {
    return Status::InvalidArgument("RestoreGraph: version must be >= 1");
  }
  auto entry = std::make_shared<CatalogEntry>();
  entry->current = std::make_shared<GraphVersion>();
  entry->current->graph = std::move(graph);
  entry->current->version = version;
  entry->current->InstallPrebuilt(
      std::make_shared<TrussDecomposition>(std::move(decomposition)));
  entry->delta_chain.store(delta_chain_length, std::memory_order_relaxed);
  return InsertEntry(name, "RestoreGraph", std::move(entry));
}

void AtrService::SetUpdateListener(UpdateListener listener) {
  MutexLock lock(&listener_mu_);
  update_listener_ =
      listener ? std::make_shared<const UpdateListener>(std::move(listener))
               : nullptr;
}

Status AtrService::ResetDeltaChain(const std::string& name) {
  std::shared_ptr<CatalogEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("ResetDeltaChain: unknown graph \"" + name + "\"");
  }
  entry->delta_chain.store(0, std::memory_order_relaxed);
  return Status::Ok();
}

Status AtrService::RemoveGraph(const std::string& name) {
  MutexLock lock(&catalog_mu_);
  if (catalog_.erase(name) == 0) {
    return Status::NotFound("RemoveGraph: unknown graph \"" + name + "\"");
  }
  return Status::Ok();
}

std::vector<std::string> AtrService::GraphNames() const {
  std::vector<std::string> names;
  MutexLock lock(&catalog_mu_);
  names.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) names.push_back(name);
  return names;
}

std::shared_ptr<AtrService::CatalogEntry> AtrService::FindEntry(
    const std::string& name) const {
  MutexLock lock(&catalog_mu_);
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : it->second;
}

GraphSnapshot AtrService::SnapshotOf(CatalogEntry& entry,
                                     GraphVersion& version) {
  std::call_once(version.once, [&entry, &version] {
    version.decomposition = ComputeSharedTrussDecomposition(*version.graph);
    entry.builds.fetch_add(1, std::memory_order_relaxed);
    version.built.store(true, std::memory_order_release);
  });
  return GraphSnapshot{version.graph, version.decomposition, version.version};
}

StatusOr<GraphSnapshot> AtrService::Snapshot(const std::string& name) {
  std::shared_ptr<CatalogEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("Snapshot: unknown graph \"" + name + "\"");
  }
  std::shared_ptr<GraphVersion> version = entry->Current();
  return SnapshotOf(*entry, *version);
}

StatusOr<GraphSnapshot> AtrService::UpdateGraph(const std::string& name,
                                                const GraphDelta& delta) {
  std::shared_ptr<CatalogEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("UpdateGraph: unknown graph \"" + name + "\"");
  }
  // One update at a time per graph; Submits/Snapshots stay lock-free with
  // respect to this (they only graze version_mu to read `current`).
  MutexLock update_lock(&entry->update_mu);
  std::shared_ptr<GraphVersion> prev = entry->Current();

  // Validate the delta before anything expensive: a rejected delta must
  // not force the predecessor's lazy decomposition build.
  StatusOr<GraphEditResult> edited = prev->graph->ApplyEdits(delta);
  if (!edited.ok()) return edited.status();

  // Seeding needs the predecessor's decomposition; a graph updated before
  // any job ever touched it pays its single lazy build here.
  const GraphSnapshot prev_snapshot = SnapshotOf(*entry, *prev);

  auto next_graph = std::make_shared<const Graph>(std::move(edited->graph));
  const uint32_t next_m = next_graph->NumEdges();

  // Retire the delta-removed edges on the OLD topology first: the carried
  // (t, l) state must describe exactly the surviving edge set before it
  // can be re-homed under the new edge ids.
  const TrussDecomposition* carried_source = prev_snapshot.decomposition.get();
  std::unique_ptr<IncrementalTruss> retire;
  std::vector<EdgeId> removed_old_ids;
  for (EdgeId e = 0; e < prev->graph->NumEdges(); ++e) {
    if (edited->edge_remap[e] == kInvalidEdge) removed_old_ids.push_back(e);
  }
  if (!removed_old_ids.empty()) {
    retire = std::make_unique<IncrementalTruss>(*prev->graph,
                                                *prev_snapshot.decomposition);
    for (const EdgeId e : removed_old_ids) retire->RemoveEdge(e);
    carried_source = &retire->decomposition();
  }

  // Re-home the surviving state across the remap. Added edges start
  // removed (kTrussnessNotComputed) and then stream in one at a time: the
  // subset decomposition over the survivors is identical in both
  // topologies (same edges, same vertex ids, and the dead additions take
  // part in no triangle), so this seed is exact.
  TrussDecomposition carried;
  carried.trussness.assign(next_m, kTrussnessNotComputed);
  carried.layer.assign(next_m, 0);
  carried.max_trussness = carried_source->max_trussness;
  for (EdgeId e = 0; e < prev->graph->NumEdges(); ++e) {
    const EdgeId mapped = edited->edge_remap[e];
    if (mapped == kInvalidEdge) continue;
    carried.trussness[mapped] = carried_source->trussness[e];
    carried.layer[mapped] = carried_source->layer[e];
  }
  IncrementalTruss maintained(*next_graph, std::move(carried));
  for (const EdgeId e : edited->added_edges) maintained.InsertEdge(e);

  auto next = std::make_shared<GraphVersion>();
  next->graph = next_graph;
  next->version = prev->version + 1;
  next->InstallPrebuilt(
      std::make_shared<TrussDecomposition>(maintained.decomposition()));

  // Write-ahead durability: the persistence listener records the delta
  // BEFORE the version becomes visible. On failure the update aborts and
  // the current version stays — a served version is never missing from
  // the log. (Still under update_mu, so log records arrive in version
  // order with no gaps.)
  std::shared_ptr<const UpdateListener> listener;
  {
    MutexLock lock(&listener_mu_);
    listener = update_listener_;
  }
  if (listener != nullptr && *listener) {
    Status persisted = (*listener)(name, next->version, delta);
    if (!persisted.ok()) return persisted;
  }

  {
    // Count the update inside the publication so a concurrent Info()
    // never observes delta_updates ahead of the published version.
    MutexLock lock(&entry->version_mu);
    entry->current = next;
    entry->delta_updates.fetch_add(1, std::memory_order_relaxed);
    entry->delta_chain.fetch_add(1, std::memory_order_relaxed);
  }
  return GraphSnapshot{next->graph, next->decomposition, next->version};
}

StatusOr<AtrService::GraphInfo> AtrService::Info(
    const std::string& name) const {
  std::shared_ptr<CatalogEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("Info: unknown graph \"" + name + "\"");
  }
  std::shared_ptr<GraphVersion> version;
  uint64_t delta_updates = 0;
  {
    // One critical section for both so delta_updates == version - 1 holds
    // for every reader (updates publish them together).
    MutexLock lock(&entry->version_mu);
    version = entry->current;
    delta_updates = entry->delta_updates.load(std::memory_order_relaxed);
  }
  GraphInfo info;
  info.name = name;
  info.num_vertices = version->graph->NumVertices();
  info.num_edges = version->graph->NumEdges();
  info.decomposition_builds = entry->builds.load(std::memory_order_relaxed);
  if (version->built.load(std::memory_order_acquire)) {
    info.max_trussness = version->decomposition->max_trussness;
  }
  info.version = version->version;
  info.delta_updates = delta_updates;
  info.delta_chain_length = entry->delta_chain.load(std::memory_order_relaxed);
  info.jobs_submitted = entry->jobs_submitted.load(std::memory_order_relaxed);
  return info;
}

StatusOr<JobHandle> AtrService::Submit(const std::string& graph_name,
                                       const std::string& solver_name,
                                       const SolverOptions& options,
                                       const SubmitOptions& submit,
                                       std::function<void()> done) {
  return SubmitInternal(graph_name, solver_name, options, submit,
                        std::move(done), /*blocking=*/true);
}

StatusOr<JobHandle> AtrService::TrySubmit(const std::string& graph_name,
                                          const std::string& solver_name,
                                          const SolverOptions& options,
                                          const SubmitOptions& submit,
                                          std::function<void()> done) {
  return SubmitInternal(graph_name, solver_name, options, submit,
                        std::move(done), /*blocking=*/false);
}

namespace {

// Only the greedy family fuses: it picks each round's argmax independent
// of the remaining budget (a budget-b run IS the first b rounds of a
// budget-B run). Exact, the randomized baselines (draw length depends on
// budget) and AKT run solo; so does any job whose caller holds a live
// control surface (progress callback, external cancel flag, wall-clock
// limit) — those semantics are per-job and do not survive fusion.
bool FusableSolver(const std::string& solver_name) {
  return solver_name == "base" || solver_name == "base+" ||
         solver_name == "gas";
}

bool FusableOptions(const SolverOptions& options) {
  return !options.progress && options.cancel == nullptr &&
         options.wall_clock_limit_seconds == 0.0;
}

}  // namespace

StatusOr<JobHandle> AtrService::SubmitInternal(const std::string& graph_name,
                                               const std::string& solver_name,
                                               const SolverOptions& options,
                                               const SubmitOptions& submit,
                                               std::function<void()> done,
                                               bool blocking) {
  std::shared_ptr<CatalogEntry> entry = FindEntry(graph_name);
  if (entry == nullptr) {
    return Status::NotFound("Submit: unknown graph \"" + graph_name + "\"");
  }
  Status known = CheckSolverName(solver_name);
  if (!known.ok()) return known;

  auto state = std::make_shared<internal::JobState>();
  state->id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  state->graph_name = graph_name;
  state->solver_name = solver_name;
  state->options = options;
  state->on_done = std::move(done);
  // Pin the version that is current NOW: a queued job is unaffected by
  // UpdateGraph publications between submit and run (the decomposition
  // build itself stays lazy until the job actually starts).
  std::shared_ptr<GraphVersion> version = entry->Current();
  state->graph = version->graph;
  state->snapshot = [entry, version] { return SnapshotOf(*entry, *version); };

  FairScheduler::Job job;
  job.tenant = submit.tenant;
  job.priority = submit.priority;
  if (FusableSolver(solver_name) && FusableOptions(options)) {
    // The pinned GraphVersion's address identifies graph + version with no
    // ABA risk (every queued member's snapshot closure keeps it alive), so
    // jobs only fuse when they would walk the same immutable snapshot with
    // the same solver.
    job.batch_key = solver_name + "|" +
                    std::to_string(reinterpret_cast<uintptr_t>(version.get()));
  }
  job.payload = state;

  Status queued = blocking ? scheduler_.Submit(std::move(job))
                           : scheduler_.TrySubmit(std::move(job));
  if (!queued.ok()) return queued;  // saturated (TrySubmit) or shut down
  entry->jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  return JobHandle(state);
}

size_t AtrService::TenantLoad(const std::string& tenant) const {
  return scheduler_.TenantLoad(tenant);
}

size_t AtrService::QueueLoad() const { return scheduler_.Load(); }

size_t AtrService::QueueCapacity() const { return scheduler_.capacity(); }

int AtrService::Workers() const { return scheduler_.workers(); }

AtrService::SchedulerStats AtrService::Stats() const {
  return {scheduler_.jobs_executed(), scheduler_.batches_executed(),
          scheduler_.jobs_fused()};
}

void AtrService::Drain() { scheduler_.WaitIdle(); }

void AtrService::RunBatch(std::vector<FairScheduler::Job> batch) {
  if (batch.size() == 1) {
    RunJob(std::static_pointer_cast<internal::JobState>(batch[0].payload));
    return;
  }
  // A multi-member batch only forms for fusable jobs sharing one batch
  // key, i.e. one pinned GraphVersion + one greedy solver.
  std::vector<std::shared_ptr<internal::JobState>> members;
  members.reserve(batch.size());
  for (FairScheduler::Job& job : batch) {
    auto state = std::static_pointer_cast<internal::JobState>(job.payload);
    MutexLock lock(&state->mu);
    if (state->cancel.load(std::memory_order_relaxed)) {
      lock.Unlock();
      internal::PublishCancelledBeforeStart(state);
      continue;
    }
    state->state = JobHandle::State::kRunning;
    lock.Unlock();
    members.push_back(std::move(state));
  }
  if (members.empty()) return;
  RunFusedGreedy(members);
}

void AtrService::RunJob(const std::shared_ptr<internal::JobState>& state) {
  {
    MutexLock lock(&state->mu);
    if (state->cancel.load(std::memory_order_relaxed)) {
      lock.Unlock();
      internal::PublishCancelledBeforeStart(state);
      return;
    }
    state->state = JobHandle::State::kRunning;
  }

  // Options Solve would reject fail here, against the pinned graph alone:
  // a job that cannot run must not force the lazy decomposition build.
  Status valid =
      ValidateSolve(*state->graph, state->solver_name, state->options);
  if (!valid.ok()) {
    internal::PublishResult(state, StatusOr<SolveResult>(std::move(valid)),
                            JobHandle::State::kDone);
    return;
  }

  // The solver only reads the shared immutable snapshot.
  const GraphSnapshot snapshot = state->snapshot();

  // Rewire the control surface onto the job: the solver polls the job's
  // cancel flag (JobHandle::Cancel at native round/trial granularity), and
  // the progress chain records a pollable snapshot, relays a caller-owned
  // cancel flag, and forwards to the caller's callback.
  SolverOptions effective = state->options;
  const std::atomic<bool>* user_cancel = state->options.cancel;
  const std::function<bool(const SolveProgress&)> user_progress =
      state->options.progress;
  effective.cancel = &state->cancel;
  // A caller-owned flag already raised folds into the job flag now, so the
  // solver's own cancel polling (every solver checks it, including the
  // randomized trial loop) observes it from the first check; later raises
  // are relayed at progress-event granularity below.
  if (user_cancel != nullptr && user_cancel->load(std::memory_order_relaxed)) {
    state->cancel.store(true, std::memory_order_relaxed);
  }
  effective.progress = [state, user_cancel,
                        user_progress](const SolveProgress& event) {
    {
      MutexLock lock(&state->mu);
      state->progress = event;
    }
    if (user_cancel != nullptr &&
        user_cancel->load(std::memory_order_relaxed)) {
      state->cancel.store(true, std::memory_order_relaxed);
    }
    bool keep_going = true;
    if (user_progress) keep_going = user_progress(event);
    return keep_going && !state->cancel.load(std::memory_order_relaxed);
  };

  StatusOr<SolveResult> result = Solve(*snapshot.graph, *snapshot.decomposition,
                                       state->solver_name, effective);
  internal::PublishResult(state, std::move(result), JobHandle::State::kDone);
}

// One greedy walk at the max member budget; every member's result is the
// b-round prefix, built by GreedyResult — the function a solo greedy Solve
// builds its result with — so fused and solo results are byte-identical.
void AtrService::RunFusedGreedy(
    const std::vector<std::shared_ptr<internal::JobState>>& members) {
  // Per-member validation must match the solo path: a member with an
  // invalid budget fails alone with its own error; the others still fuse.
  // It reads only the pinned graph, so a batch of invalid members never
  // builds the decomposition.
  std::vector<std::shared_ptr<internal::JobState>> live;
  live.reserve(members.size());
  uint32_t max_budget = 0;
  for (const auto& state : members) {
    Status valid =
        ValidateSolve(*state->graph, state->solver_name, state->options);
    if (!valid.ok()) {
      internal::PublishResult(state, StatusOr<SolveResult>(std::move(valid)),
                              JobHandle::State::kDone);
      continue;
    }
    max_budget = std::max(max_budget, state->options.budget);
    live.push_back(state);
  }
  if (live.empty()) return;
  const GraphSnapshot snapshot = live.front()->snapshot();

  SolverOptions fused;
  fused.budget = max_budget;
  // The batch's native cancel granularity: after each round, members that
  // already have their budget covered record progress, and the walk stops
  // only when EVERY member wants out (one live member keeps it running —
  // its prefix must reach its own budget).
  fused.progress = [&live](const SolveProgress& event) {
    bool any_live = false;
    for (const auto& state : live) {
      {
        MutexLock lock(&state->mu);
        if (event.round <= state->options.budget) {
          state->progress = event;
          state->progress.budget = state->options.budget;
        }
      }
      if (!state->cancel.load(std::memory_order_relaxed) &&
          event.round < state->options.budget) {
        any_live = true;
      }
    }
    // False once no un-cancelled member needs another round; GreedyResult
    // reports stopped_early only to members whose budget the walk missed.
    return any_live;
  };

  StatusOr<SolveResult> walk =
      Solve(*snapshot.graph, *snapshot.decomposition,
            live.front()->solver_name, fused);
  if (!walk.ok()) {
    for (const auto& state : live) {
      internal::PublishResult(state, StatusOr<SolveResult>(walk.status()),
                              JobHandle::State::kDone);
    }
    return;
  }
  for (const auto& state : live) {
    internal::PublishResult(
        state,
        GreedyResult(walk->solver, walk->rounds, walk->stopped_early,
                     walk->seconds, state->options),
        JobHandle::State::kDone);
  }
}

}  // namespace atr
