// Tests for the FairScheduler (util/scheduler.h) and its integration into
// AtrService: FIFO-within-tenant dispatch, priority buckets, round-robin
// fairness across tenants (including a flood/starvation scenario),
// capacity backpressure, shutdown semantics, batch-fusion grouping, and —
// at the service layer — the differential guarantee that fused,
// multi-tenant execution stays byte-identical to a serial AtrEngine
// oracle for every registered solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/service.h"
#include "graph/generators/generators.h"
#include "util/scheduler.h"
#include "util/status.h"

namespace atr {
namespace {

// One-shot signal for deterministic cross-thread choreography.
class Latch {
 public:
  void Set() {
    std::lock_guard<std::mutex> lock(mu_);
    set_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return set_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool set_ = false;
};

// Payload for unit tests: an id the recorder logs, plus an optional body
// the runner executes (used by the blocker job that parks the worker).
struct TestJob {
  int id = 0;
  std::function<void()> body;
};

// Single-worker harness: a blocker job parks the lone worker on a latch
// while the test enqueues its real jobs, so the dispatch order observed
// after release is exactly the scheduler's queueing policy with no races.
class SchedulerHarness {
 public:
  explicit SchedulerHarness(FairScheduler::Options options) {
    options.workers = 1;
    scheduler_ = std::make_unique<FairScheduler>(
        options, [this](std::vector<FairScheduler::Job> batch) {
          std::vector<int> ids;
          for (FairScheduler::Job& job : batch) {
            auto* payload = static_cast<TestJob*>(job.payload.get());
            ids.push_back(payload->id);
            if (payload->body) payload->body();
          }
          std::lock_guard<std::mutex> lock(mu_);
          batches_.push_back(std::move(ids));
        }
  );
  }

  FairScheduler& scheduler() { return *scheduler_; }

  // Submits the parking job and returns once the worker is inside it.
  void Block() {
    auto payload = std::make_shared<TestJob>();
    payload->id = kBlockerId;
    payload->body = [this] {
      entered_.Set();
      gate_.Wait();
    };
    ASSERT_TRUE(scheduler_->Submit({"", 0, "", payload}).ok());
    entered_.Wait();
  }

  void Release() { gate_.Set(); }

  Status Submit(const std::string& tenant, int priority, int id,
                const std::string& batch_key = "") {
    auto payload = std::make_shared<TestJob>();
    payload->id = id;
    return scheduler_->Submit({tenant, priority, batch_key, payload});
  }

  // Executed ids in dispatch order, with the blocker filtered out.
  std::vector<int> Order() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int> order;
    for (const std::vector<int>& batch : batches_) {
      for (int id : batch) {
        if (id != kBlockerId) order.push_back(id);
      }
    }
    return order;
  }

  // All executed batches (including the blocker's singleton).
  std::vector<std::vector<int>> Batches() {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }

  static constexpr int kBlockerId = -1;

 private:
  std::unique_ptr<FairScheduler> scheduler_;
  Latch entered_;
  Latch gate_;
  std::mutex mu_;
  std::vector<std::vector<int>> batches_;
};

TEST(FairSchedulerDispatch, FifoWithinOneTenant) {
  SchedulerHarness h({.capacity = 64});
  h.Block();
  for (int id = 1; id <= 5; ++id) {
    ASSERT_TRUE(h.Submit("acme", 0, id).ok());
  }
  h.Release();
  h.scheduler().WaitIdle();
  EXPECT_EQ(h.Order(), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FairSchedulerDispatch, HigherPriorityDrainsFirstFifoWithinBucket) {
  SchedulerHarness h({.capacity = 64});
  h.Block();
  ASSERT_TRUE(h.Submit("acme", 0, 1).ok());
  ASSERT_TRUE(h.Submit("acme", 5, 2).ok());
  ASSERT_TRUE(h.Submit("acme", 5, 3).ok());
  ASSERT_TRUE(h.Submit("acme", -1, 4).ok());
  ASSERT_TRUE(h.Submit("acme", 0, 5).ok());
  h.Release();
  h.scheduler().WaitIdle();
  // Bucket 5 FIFO, then bucket 0 FIFO, then bucket -1.
  EXPECT_EQ(h.Order(), (std::vector<int>{2, 3, 1, 5, 4}));
}

TEST(FairSchedulerDispatch, FloodingTenantCannotStarveLightTenant) {
  SchedulerHarness h({.capacity = 256});
  h.Block();
  for (int id = 100; id < 150; ++id) {
    ASSERT_TRUE(h.Submit("flood", 0, id).ok());
  }
  ASSERT_TRUE(h.Submit("light", 0, 1).ok());
  h.Release();
  h.scheduler().WaitIdle();
  const std::vector<int> order = h.Order();
  ASSERT_EQ(order.size(), 51u);
  const auto it = std::find(order.begin(), order.end(), 1);
  ASSERT_NE(it, order.end());
  // The light tenant's job dispatches within one DRR cycle of the flood
  // (one flood job per visit), not after the 50-job backlog drains.
  EXPECT_LE(it - order.begin(), 2) << "light tenant starved by flood";
}

TEST(FairSchedulerBackpressure, TrySubmitFailsFastAtCapacity) {
  SchedulerHarness h({.capacity = 2});
  h.Block();
  ASSERT_TRUE(h.Submit("acme", 0, 1).ok());
  ASSERT_TRUE(h.Submit("acme", 0, 2).ok());
  auto payload = std::make_shared<TestJob>();
  payload->id = 3;
  const Status overflow = h.scheduler().TrySubmit({"acme", 0, "", payload});
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  h.Release();
  h.scheduler().WaitIdle();
  // Capacity freed: the same job is admitted now.
  EXPECT_TRUE(h.scheduler().TrySubmit({"acme", 0, "", payload}).ok());
  h.scheduler().WaitIdle();
  EXPECT_EQ(h.Order(), (std::vector<int>{1, 2, 3}));
}

TEST(FairSchedulerBackpressure, SubmitBlocksUntilCapacityFrees) {
  SchedulerHarness h({.capacity = 1});
  h.Block();
  ASSERT_TRUE(h.Submit("acme", 0, 1).ok());
  std::atomic<bool> second_admitted{false};
  std::thread submitter([&] {
    ASSERT_TRUE(h.Submit("acme", 0, 2).ok());
    second_admitted.store(true);
  });
  // The queue is full; the submitter must still be blocked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_admitted.load());
  h.Release();
  submitter.join();
  EXPECT_TRUE(second_admitted.load());
  h.scheduler().WaitIdle();
  EXPECT_EQ(h.Order(), (std::vector<int>{1, 2}));
}

TEST(FairSchedulerShutdown, RejectsSubmitsAfterShutdown) {
  SchedulerHarness h({.capacity = 8});
  ASSERT_TRUE(h.Submit("acme", 0, 1).ok());
  h.scheduler().Shutdown();
  auto payload = std::make_shared<TestJob>();
  payload->id = 2;
  EXPECT_EQ(h.scheduler().Submit({"acme", 0, "", payload}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.scheduler().TrySubmit({"acme", 0, "", payload}).code(),
            StatusCode::kFailedPrecondition);
  // The pre-shutdown job still drained.
  EXPECT_EQ(h.Order(), (std::vector<int>{1}));
}

TEST(FairSchedulerFusion, MatchingKeysFuseAcrossTenantsAndBuckets) {
  SchedulerHarness h({.capacity = 64, .max_batch = 8});
  h.Block();
  ASSERT_TRUE(h.Submit("a", 0, 1, "k").ok());
  ASSERT_TRUE(h.Submit("a", 0, 2, "k").ok());
  ASSERT_TRUE(h.Submit("a", 3, 3, "k").ok());  // different bucket, same key
  ASSERT_TRUE(h.Submit("b", 0, 4, "k").ok());  // different tenant, same key
  ASSERT_TRUE(h.Submit("b", 0, 5, "k").ok());
  ASSERT_TRUE(h.Submit("c", 0, 6, "other").ok());
  ASSERT_TRUE(h.Submit("c", 0, 7).ok());  // empty key: never fused
  h.Release();
  h.scheduler().WaitIdle();

  std::vector<std::vector<int>> batches = h.Batches();
  // blocker + the fused five + two singletons.
  ASSERT_EQ(batches.size(), 4u);
  std::vector<int> fused;
  for (std::vector<int>& batch : batches) {
    if (batch.size() > 1) fused = batch;
  }
  std::sort(fused.begin(), fused.end());
  EXPECT_EQ(fused, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(h.scheduler().jobs_executed(), 8u);
  EXPECT_EQ(h.scheduler().batches_executed(), 4u);
  EXPECT_EQ(h.scheduler().jobs_fused(), 5u);
}

TEST(FairSchedulerFusion, MaxBatchCapsOneSweep) {
  SchedulerHarness h({.capacity = 64, .max_batch = 2});
  h.Block();
  for (int id = 1; id <= 4; ++id) {
    ASSERT_TRUE(h.Submit("a", 0, id, "k").ok());
  }
  h.Release();
  h.scheduler().WaitIdle();
  std::vector<std::vector<int>> batches = h.Batches();
  ASSERT_EQ(batches.size(), 3u);  // blocker + two capped batches
  EXPECT_EQ(batches[1], (std::vector<int>{1, 2}));
  EXPECT_EQ(batches[2], (std::vector<int>{3, 4}));
  EXPECT_EQ(h.scheduler().jobs_fused(), 4u);
}

TEST(FairSchedulerFusion, MaxBatchOneDisablesFusion) {
  SchedulerHarness h({.capacity = 64, .max_batch = 1});
  h.Block();
  for (int id = 1; id <= 3; ++id) {
    ASSERT_TRUE(h.Submit("a", 0, id, "k").ok());
  }
  h.Release();
  h.scheduler().WaitIdle();
  EXPECT_EQ(h.Order(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(h.scheduler().batches_executed(), 4u);
  EXPECT_EQ(h.scheduler().jobs_fused(), 0u);
}

// --- Service integration: batch fusion vs the serial oracle ---------------

Graph SchedGraph(uint64_t seed = 11) { return HolmeKimGraph(60, 4, 0.7, seed); }

void ExpectSameResult(const SolveResult& expected, const SolveResult& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.anchor_edges, actual.anchor_edges) << label;
  EXPECT_EQ(expected.anchor_vertices, actual.anchor_vertices) << label;
  EXPECT_EQ(expected.total_gain, actual.total_gain) << label;
  EXPECT_EQ(expected.gain_at_checkpoint, actual.gain_at_checkpoint) << label;
  EXPECT_EQ(expected.stopped_early, actual.stopped_early) << label;
  ASSERT_EQ(expected.rounds.size(), actual.rounds.size()) << label;
  for (size_t i = 0; i < expected.rounds.size(); ++i) {
    EXPECT_EQ(expected.rounds[i].anchor, actual.rounds[i].anchor)
        << label << " round " << i;
    EXPECT_EQ(expected.rounds[i].gain, actual.rounds[i].gain)
        << label << " round " << i;
  }
}

// Parks the single service worker inside a NON-fusable job (a progress
// callback makes a job ineligible for fusion), queues `specs` behind it,
// releases, and returns the per-spec results.
std::vector<SolveResult> RunBehindBlocker(AtrService& service,
                                          const std::vector<SolverOptions>& specs,
                                          const std::string& solver) {
  Latch entered, gate;
  SolverOptions blocker;
  blocker.budget = 1;
  blocker.progress = [&](const SolveProgress&) {
    entered.Set();
    gate.Wait();
    return true;
  };
  StatusOr<JobHandle> blocker_job = service.Submit("g", "gas", blocker);
  EXPECT_TRUE(blocker_job.ok()) << blocker_job.status().message();
  entered.Wait();

  std::vector<JobHandle> handles;
  for (const SolverOptions& options : specs) {
    StatusOr<JobHandle> job = service.Submit("g", solver, options);
    EXPECT_TRUE(job.ok()) << job.status().message();
    handles.push_back(*job);
  }
  gate.Set();
  EXPECT_TRUE(blocker_job->Wait().ok());

  std::vector<SolveResult> results;
  for (JobHandle& handle : handles) {
    StatusOr<SolveResult> result = handle.Wait();
    EXPECT_TRUE(result.ok()) << result.status().message();
    results.push_back(result.ok() ? *result : SolveResult{});
  }
  return results;
}

TEST(ServiceBatchFusion, FusedGreedySweepMatchesSerialOracle) {
  AtrService::Options options;
  options.workers = 1;
  options.max_batch = 8;
  options.queue_capacity = 64;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", SchedGraph()).ok());

  // A budget sweep over one graph version: classic dashboard shape.
  std::vector<SolverOptions> specs(4);
  specs[0].budget = 1;
  specs[1].budget = 2;
  specs[2].budget = 3;
  specs[3].budget = 3;
  specs[3].budget_checkpoints = {1, 3};
  const std::vector<SolveResult> fused = RunBehindBlocker(service, specs, "gas");

  AtrEngine engine(SchedGraph());
  for (size_t i = 0; i < specs.size(); ++i) {
    StatusOr<SolveResult> oracle = engine.Run("gas", specs[i]);
    ASSERT_TRUE(oracle.ok());
    ExpectSameResult(*oracle, fused[i], "gas sweep spec " + std::to_string(i));
  }

  // A worker bumps the counters after its batch's results are published;
  // Drain waits for that.
  service.Drain();
  const AtrService::SchedulerStats stats = service.Stats();
  EXPECT_EQ(stats.jobs_fused, 4u);
  // Blocker + one fused batch: the whole sweep cost one solver dispatch.
  EXPECT_EQ(stats.batches_executed, 2u);
  EXPECT_EQ(stats.jobs_executed, 5u);

  StatusOr<AtrService::GraphInfo> info = service.Info("g");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->decomposition_builds, 1u);
}

TEST(ServiceBatchFusion, NonFusableSolversNeverFuse) {
  AtrService::Options options;
  options.workers = 1;
  options.max_batch = 8;
  options.queue_capacity = 64;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", SchedGraph()).ok());

  // Only the greedy family fuses: the randomized baselines' trial streams
  // are not prefix-consistent across budgets, and exact runs solo.
  AtrEngine engine(SchedGraph());
  for (const char* solver : {"rand", "exact"}) {
    // Exact enumerates every b-subset; keep its budget at 1.
    std::vector<SolverOptions> specs(3);
    for (SolverOptions& o : specs) {
      o.budget = std::string(solver) == "exact" ? 1 : 2;
      o.trials = 10;
      o.seed = 7;
    }
    const std::vector<SolveResult> results =
        RunBehindBlocker(service, specs, solver);
    for (size_t i = 0; i < specs.size(); ++i) {
      StatusOr<SolveResult> oracle = engine.Run(solver, specs[i]);
      ASSERT_TRUE(oracle.ok());
      ExpectSameResult(*oracle, results[i],
                       std::string(solver) + " spec " + std::to_string(i));
    }
  }
  service.Drain();
  EXPECT_EQ(service.Stats().jobs_fused, 0u);
}

// --- Differential: every solver, several graphs, mixed tenants -----------

struct JobSpec {
  const char* solver;
  SolverOptions options;
};

std::vector<JobSpec> AllSolverSpecs() {
  std::vector<JobSpec> specs;
  {
    SolverOptions o;
    o.budget = 3;
    specs.push_back({"gas", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    specs.push_back({"base+", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    specs.push_back({"base", o});
  }
  {
    SolverOptions o;
    o.budget = 4;
    o.budget_checkpoints = {1, 2, 4};
    specs.push_back({"gas", o});
  }
  {
    SolverOptions o;
    o.budget = 1;
    specs.push_back({"exact", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    o.trials = 40;
    o.seed = 9;
    specs.push_back({"rand", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    o.trials = 25;
    o.seed = 5;
    specs.push_back({"sup", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    o.trials = 25;
    o.seed = 6;
    specs.push_back({"tur", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    specs.push_back({"akt:4", o});
  }
  return specs;
}

TEST(MultiTenantServiceDifferential, AllSolversMatchSerialOracle) {
  constexpr int kGraphs = 4;
  constexpr int kSubmitters = 3;

  AtrService::Options options;
  options.workers = 4;
  options.max_batch = 8;
  options.queue_capacity = 128;
  AtrService service(options);

  std::vector<std::string> names;
  for (int g = 0; g < kGraphs; ++g) {
    names.push_back("g" + std::to_string(g));
    ASSERT_TRUE(service.AddGraph(names.back(), SchedGraph(100 + g)).ok());
  }
  const std::vector<JobSpec> specs = AllSolverSpecs();

  // Serial oracle: one private engine per graph.
  std::vector<std::vector<SolveResult>> oracle(kGraphs);
  for (int g = 0; g < kGraphs; ++g) {
    AtrEngine engine(SchedGraph(100 + g));
    for (const JobSpec& spec : specs) {
      StatusOr<SolveResult> result = engine.Run(spec.solver, spec.options);
      ASSERT_TRUE(result.ok()) << spec.solver;
      oracle[g].push_back(*result);
    }
  }

  // kSubmitters threads submit every (graph, spec) pair under distinct
  // tenants and rotating priorities — fusion and fair-share dispatch
  // engage at once.
  std::vector<std::vector<std::vector<JobHandle>>> handles(
      kSubmitters,
      std::vector<std::vector<JobHandle>>(kGraphs));
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      AtrService::SubmitOptions submit;
      submit.tenant = "tenant-" + std::to_string(t);
      for (int g = 0; g < kGraphs; ++g) {
        for (size_t s = 0; s < specs.size(); ++s) {
          submit.priority = static_cast<int>(s % 3) - 1;
          StatusOr<JobHandle> job = service.Submit(
              names[g], specs[s].solver, specs[s].options, submit);
          if (!job.ok()) {
            ++failures;
            continue;
          }
          handles[t][g].push_back(*job);
        }
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kSubmitters; ++t) {
    for (int g = 0; g < kGraphs; ++g) {
      ASSERT_EQ(handles[t][g].size(), specs.size());
      for (size_t s = 0; s < specs.size(); ++s) {
        StatusOr<SolveResult> result = handles[t][g][s].Wait();
        ASSERT_TRUE(result.ok()) << result.status().message();
        ExpectSameResult(oracle[g][s], *result,
                         std::string(specs[s].solver) + " on " + names[g] +
                             " from submitter " + std::to_string(t));
      }
    }
  }

  // Fusion never re-runs the one decomposition per graph.
  for (const std::string& name : names) {
    StatusOr<AtrService::GraphInfo> info = service.Info(name);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->decomposition_builds, 1u) << name;
  }
  // A worker bumps the executed counter after its batch's results are
  // published; Drain waits for that.
  service.Drain();
  EXPECT_EQ(service.Stats().jobs_executed,
            static_cast<uint64_t>(kSubmitters * kGraphs * specs.size()));
}

}  // namespace
}  // namespace atr
