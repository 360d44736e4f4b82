// Tests for the AtrService multi-graph service layer: snapshot isolation
// (concurrent mixed jobs byte-identical to serial AtrEngine runs, exactly
// one decomposition build per graph), the async job lifecycle (Wait /
// TryGet / Cancel / Progress), cancellation and wall-clock early stop
// across every built-in solver, graph catalog semantics under eviction,
// and versioned UpdateGraph snapshots. The whole file runs under the
// nightly TSan leg.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/service.h"
#include "core/random_baselines.h"
#include "graph/generators/generators.h"
#include "tests/test_helpers.h"
#include "truss/gain.h"
#include "util/parallel_for.h"

namespace atr {
namespace {

// One-shot signal for deterministic cross-thread choreography (progress
// callbacks run on pool workers).
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

// A clustered graph big enough that every solver (including sup/tur's
// top-20% pools) has room to work.
Graph MakeServiceGraph(uint64_t seed = 11) {
  return HolmeKimGraph(60, 4, 0.7, seed);
}

struct JobSpec {
  const char* solver;
  SolverOptions options;
};

std::vector<JobSpec> MixedSpecs() {
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

void ExpectSameResult(const SolveResult& expected, const SolveResult& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.anchor_edges, actual.anchor_edges) << label;
  EXPECT_EQ(expected.anchor_vertices, actual.anchor_vertices) << label;
  EXPECT_EQ(expected.total_gain, actual.total_gain) << label;
  EXPECT_EQ(expected.gain_at_checkpoint, actual.gain_at_checkpoint) << label;
  ASSERT_EQ(expected.rounds.size(), actual.rounds.size()) << label;
  for (size_t i = 0; i < expected.rounds.size(); ++i) {
    EXPECT_EQ(expected.rounds[i].anchor, actual.rounds[i].anchor)
        << label << " round " << i;
    EXPECT_EQ(expected.rounds[i].gain, actual.rounds[i].gain)
        << label << " round " << i;
  }
}

// --- Catalog --------------------------------------------------------------

TEST(ServiceCatalog, AddRemoveAndLookupErrors) {
  AtrService service;
  ASSERT_TRUE(service.AddGraph("a", MakeServiceGraph(1)).ok());
  ASSERT_TRUE(service.AddGraph("b", MakeServiceGraph(2)).ok());

  EXPECT_EQ(service.AddGraph("a", MakeServiceGraph(3)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.GraphNames(), (std::vector<std::string>{"a", "b"}));

  SolverOptions options;
  options.budget = 1;
  EXPECT_EQ(service.Submit("nope", "gas", options).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Submit("a", "no-such-solver", options).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Submit("a", "akt:x", options).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(service.RemoveGraph("a").ok());
  EXPECT_EQ(service.RemoveGraph("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.GraphNames(), (std::vector<std::string>{"b"}));
}

TEST(ServiceCatalog, InfoTracksLazySingleBuild) {
  AtrService service;
  const Graph g = MakeServiceGraph();
  const uint32_t expected_max = ComputeTrussDecomposition(g).max_trussness;
  ASSERT_TRUE(service.AddGraph("g", g).ok());

  StatusOr<AtrService::GraphInfo> before = service.Info("g");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->decomposition_builds, 0u);  // AddGraph computes nothing
  EXPECT_EQ(before->num_edges, g.NumEdges());

  SolverOptions options;
  options.budget = 1;
  StatusOr<JobHandle> job = service.Submit("g", "gas", options);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(job->Wait().ok());

  StatusOr<AtrService::GraphInfo> after = service.Info("g");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->decomposition_builds, 1u);
  EXPECT_EQ(after->max_trussness, expected_max);
  EXPECT_EQ(after->jobs_submitted, 1u);
}

// --- Snapshot isolation (the acceptance property) -------------------------

TEST(ServiceSnapshotIsolation, ConcurrentMixedJobsMatchSerialEngine) {
  const Graph g = MakeServiceGraph();
  const std::vector<JobSpec> specs = MixedSpecs();

  // Serial oracle: one single-session engine, one solve per spec.
  std::vector<SolveResult> oracle;
  {
    AtrEngine engine(MakeServiceGraph());
    for (const JobSpec& spec : specs) {
      StatusOr<SolveResult> result = engine.Run(spec.solver, spec.options);
      ASSERT_TRUE(result.ok()) << spec.solver << ": "
                               << result.status().message();
      oracle.push_back(*std::move(result));
    }
  }

  AtrService::Options service_options;
  service_options.workers = 4;
  service_options.queue_capacity = 128;
  AtrService service(service_options);
  ASSERT_TRUE(service.AddGraph("g", g).ok());

  // 6 submitter threads x all specs, all against one graph.
  constexpr int kSubmitters = 6;
  std::vector<std::vector<JobHandle>> handles(kSubmitters);
  {
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (const JobSpec& spec : specs) {
          StatusOr<JobHandle> job =
              service.Submit("g", spec.solver, spec.options);
          ASSERT_TRUE(job.ok()) << job.status().message();
          handles[t].push_back(*job);
        }
      });
    }
    for (std::thread& t : submitters) t.join();
  }

  for (int t = 0; t < kSubmitters; ++t) {
    for (size_t s = 0; s < specs.size(); ++s) {
      StatusOr<SolveResult> result = handles[t][s].Wait();
      ASSERT_TRUE(result.ok()) << specs[s].solver << ": "
                               << result.status().message();
      EXPECT_FALSE(result->stopped_early) << specs[s].solver;
      ExpectSameResult(oracle[s], *result,
                       std::string(specs[s].solver) + " submitter " +
                           std::to_string(t));
    }
  }

  // The whole barrage paid for exactly one decomposition.
  StatusOr<AtrService::GraphInfo> info = service.Info("g");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->decomposition_builds, 1u);
  EXPECT_EQ(info->jobs_submitted,
            static_cast<uint64_t>(kSubmitters * specs.size()));
}

// The CI concurrency smoke: 8 jobs across 2 graphs, asserted quickly.
TEST(ServiceSmoke, EightJobsTwoGraphs) {
  AtrService::Options options;
  options.workers = 8;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("one", MakeServiceGraph(21)).ok());
  ASSERT_TRUE(service.AddGraph("two", MakeServiceGraph(22)).ok());

  std::vector<JobHandle> jobs;
  for (const char* graph : {"one", "two"}) {
    for (const char* solver : {"gas", "base+", "tur", "akt:4"}) {
      SolverOptions o;
      o.budget = 2;
      StatusOr<JobHandle> job = service.Submit(graph, solver, o);
      ASSERT_TRUE(job.ok()) << job.status().message();
      jobs.push_back(*job);
    }
  }
  for (JobHandle& job : jobs) {
    StatusOr<SolveResult> result = job.Wait();
    ASSERT_TRUE(result.ok()) << job.solver_name() << " on "
                             << job.graph_name() << ": "
                             << result.status().message();
    EXPECT_GT(result->total_gain, 0u);
  }
  for (const char* graph : {"one", "two"}) {
    StatusOr<AtrService::GraphInfo> info = service.Info(graph);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->decomposition_builds, 1u) << graph;
  }
}

// --- Job lifecycle --------------------------------------------------------

TEST(ServiceJobs, WaitTryGetAndProgress) {
  AtrService service;
  ASSERT_TRUE(service.AddGraph("g", MakeServiceGraph()).ok());

  Latch running;
  Latch release;
  SolverOptions options;
  options.budget = 2;
  options.progress = [&](const SolveProgress& progress) {
    if (progress.round == 1) {
      running.Set();
      release.Wait();
    }
    return true;
  };
  StatusOr<JobHandle> job = service.Submit("g", "gas", options);
  ASSERT_TRUE(job.ok());
  EXPECT_GT(job->id(), 0u);
  EXPECT_EQ(job->graph_name(), "g");
  EXPECT_EQ(job->solver_name(), "gas");

  running.Wait();  // the job is mid-solve, parked in round 1's callback
  EXPECT_FALSE(job->Done());
  EXPECT_EQ(job->TryGet(), std::nullopt);
  EXPECT_EQ(job->state(), JobHandle::State::kRunning);

  release.Set();
  StatusOr<SolveResult> result = job->Wait();
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(job->Done());
  EXPECT_EQ(job->state(), JobHandle::State::kDone);
  ASSERT_TRUE(job->TryGet().has_value());
  EXPECT_EQ((*job->TryGet())->total_gain, result->total_gain);

  // The polled snapshot saw the final round.
  const SolveProgress last = job->Progress();
  EXPECT_EQ(last.solver, "gas");
  EXPECT_EQ(last.round, 2u);
  EXPECT_EQ(last.budget, 2u);
}

TEST(ServiceJobs, EmptyHandleIsInert) {
  JobHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Done());
  EXPECT_FALSE(empty.Cancel());
  EXPECT_EQ(empty.TryGet(), std::nullopt);
  EXPECT_EQ(empty.Wait().status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceJobs, CancelledWhileQueuedNeverRuns) {
  AtrService::Options options;
  options.workers = 1;  // serialize: the latch job occupies the one worker
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", MakeServiceGraph()).ok());

  Latch running;
  Latch release;
  SolverOptions blocker_options;
  blocker_options.budget = 1;
  blocker_options.progress = [&](const SolveProgress&) {
    running.Set();
    release.Wait();
    return true;
  };
  StatusOr<JobHandle> blocker = service.Submit("g", "gas", blocker_options);
  ASSERT_TRUE(blocker.ok());
  running.Wait();

  SolverOptions queued_options;
  queued_options.budget = 1;
  StatusOr<JobHandle> queued = service.Submit("g", "base+", queued_options);
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued->state(), JobHandle::State::kQueued);
  EXPECT_TRUE(queued->Cancel());

  release.Set();
  ASSERT_TRUE(blocker->Wait().ok());
  StatusOr<SolveResult> cancelled = queued->Wait();
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(queued->state(), JobHandle::State::kCancelled);
  EXPECT_FALSE(queued->Cancel());  // already finished
}

// A job Solve would reject fails against the pinned graph alone: it never
// forces the version's lazy decomposition build, solo or fused.
TEST(ServiceJobs, InvalidJobsNeverBuildTheDecomposition) {
  AtrService::Options options;
  options.workers = 1;  // serialize: the latch job occupies the one worker
  AtrService service(options);
  const Graph g = MakeServiceGraph();
  ASSERT_TRUE(service.AddGraph("g", g).ok());
  ASSERT_TRUE(service.AddGraph("blocker", MakeServiceGraph(12)).ok());

  const auto expect_invalid = [](JobHandle& handle, const std::string& what) {
    StatusOr<SolveResult> result = handle.Wait();
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << what;
  };

  // Solo: each solver's own rules — the budget bound (|E| for edges, |V|
  // for akt), and the randomized baselines' trials and pool size.
  struct Bad {
    const char* solver;
    uint32_t budget;
    uint32_t trials;
  };
  const uint32_t sup_pool =
      BaselinePoolCapacity(g, RandomPoolKind::kTopSupport);
  const Bad solo[] = {{"gas", 0, 1},
                      {"base+", g.NumEdges() + 1, 1},
                      {"akt:3", g.NumVertices() + 1, 1},
                      {"rand", 3, 0},
                      {"sup", sup_pool + 1, 1}};
  for (const auto& [solver, budget, trials] : solo) {
    SolverOptions bad;
    bad.budget = budget;
    bad.trials = trials;
    StatusOr<JobHandle> job = service.Submit("g", solver, bad);
    ASSERT_TRUE(job.ok()) << solver;
    expect_invalid(*job, solver);
    EXPECT_EQ(service.Info("g")->decomposition_builds, 0u) << solver;
  }

  // Fused: invalid gas members queued behind a job on another graph form
  // one batch, and every member fails without a build.
  Latch running;
  Latch release;
  SolverOptions blocker_options;
  blocker_options.budget = 1;
  blocker_options.progress = [&](const SolveProgress&) {
    running.Set();
    release.Wait();
    return true;
  };
  StatusOr<JobHandle> blocker =
      service.Submit("blocker", "gas", blocker_options);
  ASSERT_TRUE(blocker.ok());
  running.Wait();
  std::vector<JobHandle> members;
  for (const uint32_t budget : {0u, g.NumEdges() + 1, 0u}) {
    SolverOptions bad;
    bad.budget = budget;
    StatusOr<JobHandle> job = service.Submit("g", "gas", bad);
    ASSERT_TRUE(job.ok());
    members.push_back(*job);
  }
  release.Set();
  ASSERT_TRUE(blocker->Wait().ok());
  for (JobHandle& member : members) expect_invalid(member, "fused member");
  service.Drain();
  EXPECT_EQ(service.Stats().jobs_fused, members.size());
  EXPECT_EQ(service.Info("g")->decomposition_builds, 0u);
  EXPECT_EQ(service.Info("blocker")->decomposition_builds, 1u);
}

// --- Cancellation and early stop across every registered solver -----------

// JobHandle::Cancel raised between rounds: every round-structured solver
// stops after the round in flight and returns a valid prefix of its full
// run.
TEST(ServiceCancellation, MidRoundCancelLeavesValidPrefix) {
  // Small graph: the test also runs the full-budget oracle for BASE (every
  // candidate brute-forced) and Exact (subset enumeration per checkpoint).
  const Graph g = HolmeKimGraph(30, 3, 0.7, 11);
  const TrussDecomposition base = ComputeTrussDecomposition(g);

  struct Case {
    const char* solver;
    SolverOptions options;
  };
  std::vector<Case> cases;
  for (const char* solver : {"base", "base+", "gas", "akt:4"}) {
    SolverOptions o;
    o.budget = 4;
    cases.push_back({solver, o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    o.budget_checkpoints = {1, 2};
    cases.push_back({"exact", o});
  }

  for (Case& c : cases) {
    AtrService service;
    ASSERT_TRUE(service.AddGraph("g", g).ok());

    // Full-run oracle for prefix checks.
    AtrEngine engine(g, base);
    StatusOr<SolveResult> full = engine.Run(c.solver, c.options);
    ASSERT_TRUE(full.ok()) << c.solver;

    Latch first_round;
    Latch cancel_issued;
    c.options.progress = [&](const SolveProgress& progress) {
      if (progress.round == 1) {
        first_round.Set();
        cancel_issued.Wait();
      }
      return true;
    };
    StatusOr<JobHandle> job = service.Submit("g", c.solver, c.options);
    ASSERT_TRUE(job.ok()) << c.solver;
    first_round.Wait();
    EXPECT_TRUE(job->Cancel()) << c.solver;
    cancel_issued.Set();

    StatusOr<SolveResult> result = job->Wait();
    ASSERT_TRUE(result.ok()) << c.solver << ": "
                             << result.status().message();
    EXPECT_TRUE(result->stopped_early) << c.solver;

    if (std::string(c.solver) == "exact") {
      // Independent checkpoint runs: the completed prefix matches.
      ASSERT_EQ(result->gain_at_checkpoint.size(), 1u);
      EXPECT_EQ(result->gain_at_checkpoint[0], full->gain_at_checkpoint[0]);
    } else if (std::string(c.solver) == "akt:4") {
      ASSERT_EQ(result->anchor_vertices.size(), 1u);
      EXPECT_EQ(result->anchor_vertices[0], full->anchor_vertices[0]);
    } else {
      // The greedy prefix equals the full run's first round, and its
      // reported gain is the true trussness gain of that prefix.
      ASSERT_EQ(result->anchor_edges.size(), 1u);
      EXPECT_EQ(result->anchor_edges[0], full->anchor_edges[0]) << c.solver;
      EXPECT_EQ(result->total_gain,
                TrussnessGain(g, base, {}, result->anchor_edges))
          << c.solver;
    }
  }
}

// JobHandle::Cancel landing during a job's final round (or final exact
// checkpoint) cuts nothing short: the job returns the full answer, not
// marked stopped_early.
TEST(ServiceCancellation, CancelInTheFinalRoundKeepsTheFullResult) {
  const Graph g = HolmeKimGraph(30, 3, 0.7, 11);
  AtrEngine engine(g, ComputeTrussDecomposition(g));
  for (const char* solver : {"base", "base+", "gas", "akt:4", "exact"}) {
    SolverOptions options;
    options.budget = 2;
    if (std::string(solver) == "exact") options.budget_checkpoints = {1, 2};
    StatusOr<SolveResult> full = engine.Run(solver, options);
    ASSERT_TRUE(full.ok()) << solver;

    AtrService service;
    ASSERT_TRUE(service.AddGraph("g", g).ok());
    Latch last_round;
    Latch cancel_issued;
    options.progress = [&](const SolveProgress& progress) {
      if (progress.round == 2) {
        last_round.Set();
        cancel_issued.Wait();
      }
      return true;
    };
    StatusOr<JobHandle> job = service.Submit("g", solver, options);
    ASSERT_TRUE(job.ok()) << solver;
    last_round.Wait();
    EXPECT_TRUE(job->Cancel()) << solver;
    cancel_issued.Set();

    StatusOr<SolveResult> result = job->Wait();
    ASSERT_TRUE(result.ok()) << solver << ": " << result.status().message();
    EXPECT_FALSE(result->stopped_early) << solver;
    EXPECT_EQ(result->anchor_edges, full->anchor_edges) << solver;
    EXPECT_EQ(result->anchor_vertices, full->anchor_vertices) << solver;
    EXPECT_EQ(result->gain_at_checkpoint, full->gain_at_checkpoint) << solver;
    EXPECT_EQ(result->total_gain, full->total_gain) << solver;
  }
}

// A caller-owned SolverOptions::cancel raised before the job runs stops
// every solver — including the randomized trial loops, which have no round
// structure — with a valid stopped_early result.
TEST(ServiceCancellation, PresetUserCancelFlagStopsEverySolver) {
  const Graph g = MakeServiceGraph();
  AtrService service;
  ASSERT_TRUE(service.AddGraph("g", g).ok());

  std::atomic<bool> cancel{true};
  for (const char* solver :
       {"base", "base+", "gas", "exact", "rand", "sup", "tur", "akt:4"}) {
    SolverOptions options;
    options.budget = 2;
    options.trials = 30;
    options.cancel = &cancel;
    StatusOr<JobHandle> job = service.Submit("g", solver, options);
    ASSERT_TRUE(job.ok()) << solver;
    StatusOr<SolveResult> result = job->Wait();
    ASSERT_TRUE(result.ok()) << solver << ": " << result.status().message();
    EXPECT_TRUE(result->stopped_early) << solver;
    EXPECT_TRUE(result->anchor_edges.empty()) << solver;
    EXPECT_TRUE(result->anchor_vertices.empty()) << solver;
    EXPECT_EQ(result->total_gain, 0u) << solver;
  }
}

// An effectively-zero wall clock budget early-stops every solver while
// still returning a structurally valid (possibly empty) prefix.
TEST(ServiceCancellation, WallClockLimitStopsEverySolver) {
  const Graph g = MakeServiceGraph();
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  AtrService service;
  ASSERT_TRUE(service.AddGraph("g", g).ok());

  for (const char* solver :
       {"base", "base+", "gas", "rand", "sup", "tur", "akt:4"}) {
    SolverOptions options;
    options.budget = 4;
    options.trials = 30;
    options.wall_clock_limit_seconds = 1e-9;
    StatusOr<JobHandle> job = service.Submit("g", solver, options);
    ASSERT_TRUE(job.ok()) << solver;
    StatusOr<SolveResult> result = job->Wait();
    ASSERT_TRUE(result.ok()) << solver << ": " << result.status().message();
    EXPECT_TRUE(result->stopped_early) << solver;
    EXPECT_LE(result->anchor_edges.size(), 4u) << solver;
    if (!result->anchor_edges.empty()) {
      EXPECT_EQ(result->total_gain,
                TrussnessGain(g, base, {}, result->anchor_edges))
          << solver;
    }
  }
}

// --- Eviction vs. in-flight work ------------------------------------------

TEST(ServiceCatalog, RemoveGraphKeepsInFlightJobsAlive) {
  AtrService service;
  ASSERT_TRUE(service.AddGraph("g", MakeServiceGraph()).ok());

  Latch running;
  Latch release;
  SolverOptions options;
  options.budget = 2;
  options.progress = [&](const SolveProgress& progress) {
    if (progress.round == 1) {
      running.Set();
      release.Wait();
    }
    return true;
  };
  StatusOr<JobHandle> job = service.Submit("g", "gas", options);
  ASSERT_TRUE(job.ok());
  running.Wait();

  // Evict mid-solve: the job's shared snapshot keeps graph + decomposition
  // alive; only new submissions observe the removal.
  ASSERT_TRUE(service.RemoveGraph("g").ok());
  SolverOptions retry;
  retry.budget = 1;
  EXPECT_EQ(service.Submit("g", "gas", retry).status().code(),
            StatusCode::kNotFound);
  release.Set();

  StatusOr<SolveResult> result = job->Wait();
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->anchor_edges.size(), 2u);
}

// A finished job must pin only its result: once the graph is removed,
// outstanding JobHandle copies do not keep the snapshot (graph +
// decomposition) or the solver alive.
TEST(ServiceJobs, FinishedJobsReleaseTheirSnapshot) {
  AtrService service;
  ASSERT_TRUE(service.AddGraph("g", MakeServiceGraph()).ok());
  std::weak_ptr<const Graph> graph_alive;
  {
    StatusOr<GraphSnapshot> snapshot = service.Snapshot("g");
    ASSERT_TRUE(snapshot.ok());
    graph_alive = snapshot->graph;
  }

  SolverOptions options;
  options.budget = 1;
  StatusOr<JobHandle> job = service.Submit("g", "gas", options);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(job->Wait().ok());
  service.Drain();  // the worker's stack references are gone too

  ASSERT_TRUE(service.RemoveGraph("g").ok());
  EXPECT_TRUE(graph_alive.expired());  // despite `job` still being held
  EXPECT_TRUE(job->Done());
  ASSERT_TRUE(job->TryGet().has_value());  // the result itself is retained
  EXPECT_EQ((*job->TryGet())->anchor_edges.size(), 1u);
}

// --- Streaming updates (UpdateGraph versioning) ---------------------------

// A delta against MakeServiceGraph: removes two existing edges and adds
// two absent ones (found by scanning vertex pairs).
GraphDelta MakeServiceDelta(const Graph& g) {
  GraphDelta delta;
  delta.remove.push_back(g.Edge(0));
  delta.remove.push_back(g.Edge(g.NumEdges() / 2));
  uint32_t found = 0;
  for (VertexId u = 0; u < g.NumVertices() && found < 2; ++u) {
    for (VertexId v = u + 1; v < g.NumVertices() && found < 2; ++v) {
      if (!g.HasEdge(u, v)) {
        delta.add.push_back(EdgeEndpoints{u, v});
        ++found;
      }
    }
  }
  return delta;
}

TEST(ServiceStreaming, UpdateGraphSeedsWithoutRebuilding) {
  AtrService service;
  const Graph original = MakeServiceGraph();
  ASSERT_TRUE(service.AddGraph("g", original).ok());

  // First use pays the one lazy build.
  StatusOr<GraphSnapshot> v1 = service.Snapshot("g");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->version, 1u);
  ASSERT_TRUE(service.Info("g").ok());
  EXPECT_EQ(service.Info("g")->decomposition_builds, 1u);

  const GraphDelta delta = MakeServiceDelta(*v1->graph);
  StatusOr<GraphSnapshot> v2 = service.UpdateGraph("g", delta);
  ASSERT_TRUE(v2.ok()) << v2.status().message();
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(v2->graph->NumEdges(), original.NumEdges());  // -2 +2

  // The seeded decomposition is byte-identical to a from-scratch one...
  const TrussDecomposition oracle = ComputeTrussDecomposition(*v2->graph);
  EXPECT_EQ(v2->decomposition->trussness, oracle.trussness);
  EXPECT_EQ(v2->decomposition->layer, oracle.layer);
  EXPECT_EQ(v2->decomposition->max_trussness, oracle.max_trussness);

  // ...yet the build counter did not move: the update reused the previous
  // version's state via the remap + incremental maintenance.
  StatusOr<AtrService::GraphInfo> info = service.Info("g");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->decomposition_builds, 1u);
  EXPECT_EQ(info->version, 2u);
  EXPECT_EQ(info->delta_updates, 1u);

  // The caller-held v1 snapshot still serves the old topology.
  EXPECT_EQ(v1->graph->NumEdges(), original.NumEdges());
  EXPECT_TRUE(v1->graph->HasEdge(original.Edge(0).u, original.Edge(0).v));
  EXPECT_FALSE(v2->graph->HasEdge(original.Edge(0).u, original.Edge(0).v));

  // A second update stacks on the first.
  StatusOr<GraphSnapshot> v3 =
      service.UpdateGraph("g", MakeServiceDelta(*v2->graph));
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3->version, 3u);
  EXPECT_EQ(service.Info("g")->decomposition_builds, 1u);
  EXPECT_EQ(service.Info("g")->delta_updates, 2u);
}

TEST(ServiceStreaming, UpdateGraphRejectsBadDeltasAndUnknownNames) {
  AtrService service;
  ASSERT_TRUE(service.AddGraph("g", MakeServiceGraph()).ok());
  GraphDelta delta;
  EXPECT_EQ(service.UpdateGraph("missing", delta).status().code(),
            StatusCode::kNotFound);
  delta.remove.push_back(EdgeEndpoints{0, 0});  // not an edge
  StatusOr<GraphSnapshot> bad = service.UpdateGraph("g", delta);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The failed update published nothing — and validated the delta before
  // anything expensive: the never-used graph's lazy build did not run.
  EXPECT_EQ(service.Info("g")->version, 1u);
  EXPECT_EQ(service.Info("g")->delta_updates, 0u);
  EXPECT_EQ(service.Info("g")->decomposition_builds, 0u);
}

TEST(ServiceStreaming, JobsPinTheVersionCurrentAtSubmit) {
  AtrService::Options options;
  options.workers = 1;  // force strict queueing behind the running job
  AtrService service(options);
  const Graph original = MakeServiceGraph();
  ASSERT_TRUE(service.AddGraph("g", original).ok());

  // Job A blocks mid-run on a latch so jobs submitted after it stay
  // queued across the update.
  Latch started;
  Latch release;
  SolverOptions held;
  held.budget = 2;
  bool signalled = false;
  held.progress = [&](const SolveProgress&) {
    if (!signalled) {
      signalled = true;
      started.Set();
      release.Wait();
    }
    return true;
  };
  StatusOr<JobHandle> job_a = service.Submit("g", "gas", held);
  ASSERT_TRUE(job_a.ok());
  started.Wait();

  // Submitted while v1 is current: stays pinned to v1 even though it only
  // runs after the update lands.
  SolverOptions plain;
  plain.budget = 2;
  StatusOr<JobHandle> job_old = service.Submit("g", "gas", plain);
  ASSERT_TRUE(job_old.ok());

  StatusOr<GraphSnapshot> v2 =
      service.UpdateGraph("g", MakeServiceDelta(original));
  ASSERT_TRUE(v2.ok());

  StatusOr<JobHandle> job_new = service.Submit("g", "gas", plain);
  ASSERT_TRUE(job_new.ok());
  release.Set();

  StatusOr<SolveResult> old_result = job_old->Wait();
  ASSERT_TRUE(old_result.ok());
  StatusOr<SolveResult> new_result = job_new->Wait();
  ASSERT_TRUE(new_result.ok());

  // Serial engines over the pinned snapshots are the oracles.
  AtrEngine old_engine(original);
  StatusOr<SolveResult> old_expected = old_engine.Run("gas", plain);
  ASSERT_TRUE(old_expected.ok());
  ExpectSameResult(*old_expected, *old_result, "pinned v1 job");

  AtrEngine new_engine(*v2->graph,
                       TrussDecomposition(*v2->decomposition));
  StatusOr<SolveResult> new_expected = new_engine.Run("gas", plain);
  ASSERT_TRUE(new_expected.ok());
  ExpectSameResult(*new_expected, *new_result, "post-update job");
}

// Raced updates and submits must be linearizable and TSan-clean (this
// whole file runs under the nightly TSan leg): the updater publishes a
// chain of versions while submitters fire jobs; every job must complete
// ok against whichever version it pinned.
TEST(ServiceStreaming, ConcurrentUpdateGraphAndSubmit) {
  AtrService::Options service_options;
  service_options.workers = 3;
  AtrService service(service_options);
  const Graph original = MakeServiceGraph();
  ASSERT_TRUE(service.AddGraph("g", original).ok());
  ASSERT_TRUE(service.Snapshot("g").ok());  // pay the lazy build up front

  // The updater alternately removes and re-adds the same two edges, so
  // every delta is valid against the version it sees (updates serialize).
  const EdgeEndpoints ea = original.Edge(1);
  const EdgeEndpoints eb = original.Edge(2);
  std::atomic<bool> stop{false};
  std::thread updater([&] {
    bool removed = false;
    for (int i = 0; i < 12; ++i) {
      GraphDelta delta;
      if (removed) {
        delta.add = {ea, eb};
      } else {
        delta.remove = {ea, eb};
      }
      StatusOr<GraphSnapshot> next = service.UpdateGraph("g", delta);
      if (!next.ok()) {
        // Record and bail without skipping the stop below — an early
        // ASSERT return here would leave the submitters spinning forever.
        ADD_FAILURE() << next.status().message();
        break;
      }
      removed = !removed;
    }
    stop.store(true);
  });

  std::vector<std::thread> submitters;
  std::mutex jobs_mu;
  std::vector<JobHandle> jobs;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      SolverOptions o;
      o.budget = 1 + t;
      while (!stop.load()) {
        StatusOr<JobHandle> job = service.Submit("g", "gas", o);
        ASSERT_TRUE(job.ok());
        std::lock_guard<std::mutex> lock(jobs_mu);
        jobs.push_back(*job);
      }
    });
  }
  updater.join();
  for (std::thread& t : submitters) t.join();
  service.Drain();

  for (JobHandle& job : jobs) {
    StatusOr<SolveResult> result = job.Wait();
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_FALSE(result->anchor_edges.empty());
  }
  // Every job forked from a seeded snapshot; the one from-scratch build
  // stays the one from-scratch build.
  EXPECT_EQ(service.Info("g")->decomposition_builds, 1u);
  EXPECT_EQ(service.Info("g")->delta_updates, 12u);
}

// BASE (full recompute per round), BASE+ and GAS (incremental engine)
// seeded from a decomposition that UpdateGraph maintained incrementally
// are still one greedy algorithm: same anchors, per-round gains and
// follower trussness — and the same answer as a from-scratch engine.
TEST(ServiceStreaming, GreedyFamilyAgreesOnAMaintainedDecomposition) {
  AtrService service;
  ASSERT_TRUE(service.AddGraph("g", MakeServiceGraph()).ok());
  StatusOr<GraphSnapshot> version = service.Snapshot("g");
  ASSERT_TRUE(version.ok());
  for (int i = 0; i < 2; ++i) {
    version = service.UpdateGraph("g", MakeServiceDelta(*version->graph));
    ASSERT_TRUE(version.ok()) << version.status().message();
  }
  ASSERT_EQ(version->version, 3u);
  // Both versions were maintained, not rebuilt.
  ASSERT_EQ(service.Info("g")->decomposition_builds, 1u);

  SolverOptions options;
  options.budget = 3;
  const std::vector<std::string> solvers = {"base", "base+", "gas"};
  std::vector<SolveResult> results;
  for (const std::string& solver : solvers) {
    StatusOr<JobHandle> job = service.Submit("g", solver, options);
    ASSERT_TRUE(job.ok()) << solver;
    StatusOr<SolveResult> result = job->Wait();
    ASSERT_TRUE(result.ok()) << solver << ": " << result.status().message();
    results.push_back(*std::move(result));
  }
  EXPECT_GT(results[0].total_gain, 0u);

  const auto sorted_followers = [](const AnchorRound& round) {
    std::vector<uint32_t> trussness = round.follower_trussness;
    std::sort(trussness.begin(), trussness.end());
    return trussness;
  };
  for (size_t s = 1; s < results.size(); ++s) {
    ExpectSameResult(results[0], results[s], solvers[s]);
    ASSERT_EQ(results[0].rounds.size(), results[s].rounds.size());
    for (size_t r = 0; r < results[0].rounds.size(); ++r) {
      EXPECT_EQ(sorted_followers(results[0].rounds[r]),
                sorted_followers(results[s].rounds[r]))
          << solvers[s] << " round " << r;
    }
  }

  AtrEngine fresh{Graph(*version->graph)};
  StatusOr<SolveResult> expected = fresh.Run("gas", options);
  ASSERT_TRUE(expected.ok());
  ExpectSameResult(*expected, results[2], "from-scratch gas");
}

// Drain really waits for everything submitted so far.
TEST(ServiceJobs, DrainWaitsForAllJobs) {
  AtrService::Options options;
  options.workers = 2;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", MakeServiceGraph()).ok());

  std::vector<JobHandle> jobs;
  for (int i = 0; i < 6; ++i) {
    SolverOptions o;
    o.budget = 1 + i % 3;
    StatusOr<JobHandle> job = service.Submit("g", "gas", o);
    ASSERT_TRUE(job.ok());
    jobs.push_back(*job);
  }
  service.Drain();
  for (JobHandle& job : jobs) EXPECT_TRUE(job.Done());
}

// Options::workers and Options::queue_capacity are the service's whole
// pool and queue; left at 0 they resolve on the constructing thread to
// min(4, its worker budget) workers and 4 pending slots per worker.
TEST(ServiceJobs, WorkersAndCapacityResolveToTotals) {
  AtrService::Options options;
  options.workers = 2;
  options.queue_capacity = 5;
  AtrService sized(options);
  EXPECT_EQ(sized.Workers(), 2);
  EXPECT_EQ(sized.QueueCapacity(), 5u);

  ScopedParallelism three(3);
  AtrService defaulted;
  EXPECT_EQ(defaulted.Workers(), 3);
  EXPECT_EQ(defaulted.QueueCapacity(), 12u);
}

TEST(ServiceStreaming, DeltaChainLengthGrowsUntilReset) {
  AtrService service;
  const Graph g = MakeServiceGraph();
  ASSERT_TRUE(service.AddGraph("g", g).ok());
  EXPECT_EQ(service.Info("g")->delta_chain_length, 0u);

  StatusOr<GraphSnapshot> v2 = service.UpdateGraph("g", MakeServiceDelta(g));
  ASSERT_TRUE(v2.ok());
  StatusOr<GraphSnapshot> v3 =
      service.UpdateGraph("g", MakeServiceDelta(*v2->graph));
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(service.Info("g")->delta_chain_length, 2u);

  // The compaction hook resets the chain counter, not the version.
  ASSERT_TRUE(service.ResetDeltaChain("g").ok());
  EXPECT_EQ(service.Info("g")->delta_chain_length, 0u);
  EXPECT_EQ(service.Info("g")->version, 3u);

  StatusOr<GraphSnapshot> v4 =
      service.UpdateGraph("g", MakeServiceDelta(*v3->graph));
  ASSERT_TRUE(v4.ok());
  EXPECT_EQ(service.Info("g")->delta_chain_length, 1u);

  EXPECT_EQ(service.ResetDeltaChain("absent").code(), StatusCode::kNotFound);
}

TEST(ServiceStreaming, UpdateListenerIsWriteAhead) {
  AtrService service;
  const Graph g = MakeServiceGraph();
  ASSERT_TRUE(service.AddGraph("g", g).ok());

  // A failing listener aborts the update: the version is never published.
  std::vector<uint64_t> seen;
  service.SetUpdateListener(
      [&seen](const std::string&, uint64_t version, const GraphDelta&) {
        seen.push_back(version);
        return Status::Internal("log append failed");
      });
  StatusOr<GraphSnapshot> rejected =
      service.UpdateGraph("g", MakeServiceDelta(g));
  EXPECT_EQ(rejected.status().code(), StatusCode::kInternal);
  EXPECT_EQ(seen, std::vector<uint64_t>{2});
  EXPECT_EQ(service.Info("g")->version, 1u);
  EXPECT_EQ(service.Info("g")->delta_chain_length, 0u);

  // A succeeding listener observes the version about to be published.
  service.SetUpdateListener(
      [&seen](const std::string&, uint64_t version, const GraphDelta&) {
        seen.push_back(version);
        return Status::Ok();
      });
  ASSERT_TRUE(service.UpdateGraph("g", MakeServiceDelta(g)).ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{2, 2}));
  EXPECT_EQ(service.Info("g")->version, 2u);
  service.SetUpdateListener(nullptr);
}

TEST(ServiceCatalog, RestoreGraphIsBornBuilt) {
  const Graph g = MakeServiceGraph();
  TrussDecomposition decomposition = ComputeTrussDecomposition(g);
  const TrussDecomposition oracle = decomposition;

  AtrService service;
  ASSERT_TRUE(service
                  .RestoreGraph("g", std::make_shared<const Graph>(g),
                                std::move(decomposition), /*version=*/5,
                                /*delta_chain_length=*/2)
                  .ok());

  StatusOr<AtrService::GraphInfo> info = service.Info("g");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 5u);
  EXPECT_EQ(info->delta_chain_length, 2u);
  // The restore contract: the decomposition arrived precomputed, so the
  // builds counter must never move — not on restore, not on first use.
  EXPECT_EQ(info->decomposition_builds, 0u);

  StatusOr<GraphSnapshot> snapshot = service.Snapshot("g");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->version, 5u);
  EXPECT_EQ(snapshot->decomposition->trussness, oracle.trussness);
  EXPECT_EQ(service.Info("g")->decomposition_builds, 0u);

  // Updates on a restored graph seed incrementally, like any other.
  ASSERT_TRUE(service.UpdateGraph("g", MakeServiceDelta(g)).ok());
  EXPECT_EQ(service.Info("g")->version, 6u);
  EXPECT_EQ(service.Info("g")->delta_chain_length, 3u);
  EXPECT_EQ(service.Info("g")->decomposition_builds, 0u);

  // Name collisions and shape mismatches are rejected up front.
  EXPECT_EQ(service
                .RestoreGraph("g", std::make_shared<const Graph>(g),
                              ComputeTrussDecomposition(g), 1)
                .code(),
            StatusCode::kFailedPrecondition);
  TrussDecomposition wrong_shape = ComputeTrussDecomposition(g);
  wrong_shape.trussness.pop_back();
  EXPECT_EQ(service
                .RestoreGraph("other", std::make_shared<const Graph>(g),
                              std::move(wrong_shape), 1)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceJobs, TrySubmitRejectsOnlyWhileSaturated) {
  AtrService::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", MakeServiceGraph()).ok());

  // Park the lone worker inside a solve so the queue backs up.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  SolverOptions blocked;
  blocked.budget = 2;
  blocked.progress = [&](const SolveProgress&) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return true;
  };
  StatusOr<JobHandle> running = service.Submit("g", "gas", blocked);
  ASSERT_TRUE(running.ok());
  while (running->state() == JobHandle::State::kQueued) {
    std::this_thread::yield();
  }

  SolverOptions quick;
  quick.budget = 1;
  StatusOr<JobHandle> pending = service.TrySubmit("g", "gas", quick);
  ASSERT_TRUE(pending.ok());  // fills the single pending slot
  EXPECT_EQ(service.TrySubmit("g", "gas", quick).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(service.QueueLoad(), 2u);  // one running + one pending

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(running->Wait().ok());
  ASSERT_TRUE(pending->Wait().ok());

  StatusOr<JobHandle> after = service.TrySubmit("g", "gas", quick);
  ASSERT_TRUE(after.ok());  // space again
  EXPECT_TRUE(after->Wait().ok());
}

}  // namespace
}  // namespace atr
