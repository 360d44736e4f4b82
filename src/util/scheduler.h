// FairScheduler — multi-tenant batch scheduler for job-level concurrency
// (AtrService's submit path).
//
// FairScheduler runs submitted jobs on a fixed set of worker threads. It
// keeps one FIFO *per tenant per priority* and dispatches across tenants
// round-robin: each tenant in the ready ring dispatches one job per visit,
// so a tenant flooding the queue cannot starve a light one — the light
// tenant's next job dispatches after at most one ring cycle, not after the
// flood drains. Within a tenant, higher priority buckets drain first and
// each bucket is FIFO.
//
// Batch fusion: a job may carry a `batch_key` naming the work it could
// share with compatible jobs (same graph version + solver family). When a
// worker dequeues a keyed job, the scheduler sweeps every queue for other
// jobs with the same key (up to max_batch, preserving per-queue FIFO
// order) and hands the whole batch to the runner in one call. The runner
// owns fusion semantics — the scheduler only groups; it never reorders
// jobs *within* a tenant's priority bucket. Jobs with an empty batch_key
// always run alone.
//
// Capacity and backpressure: Submit blocks while the
// total pending count is at capacity, TrySubmit fails fast with
// kResourceExhausted, and both reject with kFailedPrecondition after
// Shutdown. Each worker thread installs a ScopedParallelism override of
// the constructing thread's ParallelWorkerCount() split evenly across the
// pool, so inner ParallelFor fan-out shares one machine budget with job
// concurrency.
//
//   FairScheduler sched({.workers = 4}, [](std::vector<FairScheduler::Job> b) {
//     ... run the batch; b.size() == 1 unless batch keys matched ...
//   });
//   sched.Submit({.tenant = "acme", .priority = 1, .payload = state});

#ifndef ATR_UTIL_SCHEDULER_H_
#define ATR_UTIL_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace atr {

class FairScheduler {
 public:
  // One schedulable unit. The scheduler never looks inside `payload`; the
  // runner downcasts it back to whatever the submitter enqueued.
  struct Job {
    std::string tenant;     // "" is the default tenant (still fair-shared)
    int priority = 0;       // higher runs first within the tenant
    std::string batch_key;  // "" = never fused with other jobs
    std::shared_ptr<void> payload;
  };

  // Receives a non-empty batch; every job in it shares one batch_key
  // (or the batch is a singleton). Runs on a scheduler worker thread.
  using BatchRunner = std::function<void(std::vector<Job>)>;

  struct Options {
    // Worker threads. 0 = min(4, the calling thread's ParallelWorkerCount).
    int workers = 0;
    // Max jobs waiting to run across all tenants (excludes running jobs);
    // Submit blocks / TrySubmit fails at this count. 0 = 4x workers.
    size_t capacity = 0;
    // Most jobs one batch may fuse. 1 disables fusion entirely.
    size_t max_batch = 8;
  };

  FairScheduler(const Options& options, BatchRunner runner);
  ~FairScheduler();

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  // Enqueues `job`; blocks while the pending count is at capacity.
  // kFailedPrecondition after Shutdown. Must not be called from a
  // scheduler worker (CHECK: a full queue would deadlock the worker).
  Status Submit(Job job) ATR_EXCLUDES(mu_);

  // Non-blocking Submit: kResourceExhausted at capacity.
  Status TrySubmit(Job job) ATR_EXCLUDES(mu_);

  // Blocks until no job is pending or running.
  void WaitIdle() ATR_EXCLUDES(mu_);

  // Stops accepting work, drains everything queued, joins the workers.
  // Idempotent; the destructor calls it.
  void Shutdown() ATR_EXCLUDES(mu_);

  int workers() const { return static_cast<int>(threads_.size()); }
  size_t capacity() const { return capacity_; }
  size_t max_batch() const { return max_batch_; }

  // Jobs waiting to run right now. Racy — admission heuristics only.
  size_t pending() const ATR_EXCLUDES(mu_);
  // Pending plus running: the load signal behind retry-after estimates.
  size_t Load() const ATR_EXCLUDES(mu_);
  // Pending plus running for one tenant (per-tenant retry-after hints).
  size_t TenantLoad(const std::string& tenant) const ATR_EXCLUDES(mu_);

  // Monotonic counters. jobs_executed counts individual jobs;
  // batches_executed counts runner invocations, so the difference is the
  // work fusion saved; jobs_fused counts jobs that rode in a batch of >1.
  uint64_t jobs_executed() const ATR_EXCLUDES(mu_);
  uint64_t batches_executed() const ATR_EXCLUDES(mu_);
  uint64_t jobs_fused() const ATR_EXCLUDES(mu_);

 private:
  // Per-tenant state: priority buckets (higher first), each FIFO.
  struct TenantQueue {
    std::map<int, std::deque<Job>, std::greater<int>> buckets;
    size_t queued = 0;
    size_t running = 0;
    bool in_ring = false;
  };

  // Runs batches until Shutdown drains the queue; jobs see a ParallelFor
  // budget of `inner_threads`.
  void WorkerLoop(int inner_threads) ATR_EXCLUDES(mu_);
  // Picks the next batch under mu_. Requires total_pending_ > 0.
  std::vector<Job> NextBatchLocked() ATR_REQUIRES(mu_);
  // Removes up to max_batch_-1 additional jobs matching `key` from every
  // queue (FIFO within each bucket), appending to `batch`. Takes the key
  // by value: the caller's copy lives inside `batch`, which reallocates.
  void CollectBatchLocked(std::string key, std::vector<Job>* batch)
      ATR_REQUIRES(mu_);
  void DropFromRingLocked(const std::string& tenant) ATR_REQUIRES(mu_);

  size_t capacity_ = 0;
  size_t max_batch_ = 8;
  BatchRunner runner_;

  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  CondVar idle_;
  std::map<std::string, TenantQueue> tenants_ ATR_GUARDED_BY(mu_);
  // Tenants with queued jobs, round-robin order.
  std::vector<std::string> ring_ ATR_GUARDED_BY(mu_);
  // ring_ index of the next tenant to serve.
  size_t cursor_ ATR_GUARDED_BY(mu_) = 0;
  size_t total_pending_ ATR_GUARDED_BY(mu_) = 0;
  size_t running_ ATR_GUARDED_BY(mu_) = 0;
  uint64_t jobs_executed_ ATR_GUARDED_BY(mu_) = 0;
  uint64_t batches_executed_ ATR_GUARDED_BY(mu_) = 0;
  uint64_t jobs_fused_ ATR_GUARDED_BY(mu_) = 0;
  bool shutdown_ ATR_GUARDED_BY(mu_) = false;

  std::vector<std::thread> threads_;
};

}  // namespace atr

#endif  // ATR_UTIL_SCHEDULER_H_
