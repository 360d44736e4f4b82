// Tests for the unified solver API: name checks, options validation,
// AtrEngine's build-once decomposition, sweeps, cancellation, and the
// BASE / BASE+ / GAS identical-anchor-sequence property exercised through
// atr::Solve.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "api/engine.h"
#include "api/solver.h"
#include "core/gas.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "truss/gain.h"

namespace atr {
namespace {

StatusOr<SolveResult> SolveOnce(const std::string& name, const Graph& g,
                                const SolverOptions& options) {
  return Solve(g, ComputeTrussDecomposition(g), name, options);
}

SolveResult MustSolve(const std::string& name, const Graph& g,
                      const SolverOptions& options) {
  StatusOr<SolveResult> result = SolveOnce(name, g, options);
  EXPECT_TRUE(result.ok()) << name << ": " << result.status().message();
  return result.ok() ? *std::move(result) : SolveResult{};
}

TEST(SolverNames, EveryBuiltinNameSolves) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 1;
  options.trials = 5;
  for (const char* name :
       {"base", "base+", "gas", "exact", "rand", "sup", "tur", "akt:4"}) {
    EXPECT_TRUE(CheckSolverName(name).ok()) << name;
    EXPECT_EQ(MustSolve(name, g, options).solver, name);
  }
}

TEST(SolverNames, KnownSolversListsTheBuiltins) {
  const std::vector<std::string> names = KnownSolvers();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"base", "base+", "gas", "exact", "rand", "sup", "tur", "akt:<k>"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// Name checks are thread-safe: concurrent CheckSolverName / KnownSolvers
// calls from many threads must neither race nor miss solvers. Run under
// TSan in CI.
TEST(SolverNames, ConcurrentNameChecksAndKnownSolversAreSafe) {
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&failures] {
      for (int i = 0; i < kIters; ++i) {
        for (const char* name : {"gas", "base+", "akt:5", "rand"}) {
          if (!CheckSolverName(name).ok()) failures.fetch_add(1);
        }
        if (CheckSolverName("missing-" + std::to_string(i)).ok()) {
          failures.fetch_add(1);
        }
        const std::vector<std::string> known = KnownSolvers();
        if (std::find(known.begin(), known.end(), "gas") == known.end()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SolverNames, UnknownNameIsNotFound) {
  const Graph g = MakeFig3Graph();
  for (const Status& status :
       {CheckSolverName("does-not-exist"),
        SolveOnce("does-not-exist", g, SolverOptions{}).status()}) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
    // The error lists the known solvers to aid discovery.
    EXPECT_NE(status.message().find("gas"), std::string::npos);
  }
}

TEST(SolverNames, MalformedAktParameterIsInvalidArgument) {
  const Graph g = MakeFig3Graph();
  for (const char* name : {"akt:", "akt:x", "akt:2", "akt:4x", "akt:-3"}) {
    EXPECT_EQ(CheckSolverName(name).code(), StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(SolveOnce(name, g, SolverOptions{}).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(Options, BudgetOutOfRangeIsRejected) {
  const Graph g = MakeFig3Graph();

  SolverOptions zero;
  zero.budget = 0;
  EXPECT_EQ(SolveOnce("gas", g, zero).status().code(),
            StatusCode::kInvalidArgument);

  SolverOptions huge;
  huge.budget = g.NumEdges() + 1;
  EXPECT_EQ(SolveOnce("gas", g, huge).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Options, CheckpointRulesAreEnforced) {
  const Graph g = MakeFig3Graph();

  SolverOptions not_ascending;
  not_ascending.budget = 4;
  not_ascending.budget_checkpoints = {2, 2, 4};
  EXPECT_EQ(SolveOnce("gas", g, not_ascending).status().code(),
            StatusCode::kInvalidArgument);

  SolverOptions wrong_tail;
  wrong_tail.budget = 4;
  wrong_tail.budget_checkpoints = {1, 3};
  EXPECT_EQ(SolveOnce("gas", g, wrong_tail).status().code(),
            StatusCode::kInvalidArgument);

  SolverOptions ok;
  ok.budget = 4;
  ok.budget_checkpoints = {1, 2, 4};
  EXPECT_TRUE(SolveOnce("gas", g, ok).ok());
}

TEST(Options, RandomBaselineRejectsZeroTrials) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 2;
  options.trials = 0;
  EXPECT_EQ(SolveOnce("rand", g, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Api, GasThroughSolveMatchesDirectCall) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 3;
  const SolveResult via_api = MustSolve("gas", g, options);
  const AnchorResult direct = RunGas(g, 3);
  EXPECT_EQ(via_api.anchor_edges, direct.anchors);
  EXPECT_EQ(via_api.total_gain, direct.total_gain);
  ASSERT_EQ(via_api.rounds.size(), direct.rounds.size());
  for (size_t i = 0; i < direct.rounds.size(); ++i) {
    EXPECT_EQ(via_api.rounds[i].gain, direct.rounds[i].gain);
  }
}

TEST(Api, TotalGainMatchesRedecomposition) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 3;
  const SolveResult gas = MustSolve("gas", g, options);
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  EXPECT_EQ(gas.total_gain, TrussnessGain(g, base, {}, gas.anchor_edges));
}

TEST(Api, ExactReportsOneRunPerCheckpoint) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 2;
  options.budget_checkpoints = {1, 2};
  const SolveResult exact = MustSolve("exact", g, options);
  ASSERT_EQ(exact.gain_at_checkpoint.size(), 2u);
  // C(32, 1) + C(32, 2) subsets scored across the two checkpoints.
  EXPECT_EQ(exact.subsets_evaluated, 32u + 32u * 31u / 2u);
  EXPECT_GE(exact.gain_at_checkpoint[1], exact.gain_at_checkpoint[0]);
  EXPECT_EQ(exact.total_gain, exact.gain_at_checkpoint.back());
}

TEST(Api, AktSolverAnchorsVertices) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 2;
  const SolveResult akt = MustSolve("akt:4", g, options);
  EXPECT_TRUE(akt.anchor_edges.empty());
  EXPECT_EQ(akt.anchor_vertices.size(), 2u);
  EXPECT_GT(akt.total_gain, 0u);
}

TEST(Api, ProgressCallbackSeesEveryRound) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 3;
  std::vector<uint32_t> rounds_seen;
  options.progress = [&](const SolveProgress& progress) {
    EXPECT_EQ(progress.solver, "gas");
    EXPECT_EQ(progress.budget, 3u);
    rounds_seen.push_back(progress.round);
    return true;
  };
  const SolveResult gas = MustSolve("gas", g, options);
  EXPECT_FALSE(gas.stopped_early);
  EXPECT_EQ(rounds_seen, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(Api, ProgressCallbackCanCancelAfterFirstRound) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 5;
  options.progress = [](const SolveProgress& progress) {
    return progress.round < 1;  // stop after round 1
  };
  const SolveResult gas = MustSolve("gas", g, options);
  EXPECT_TRUE(gas.stopped_early);
  EXPECT_EQ(gas.anchor_edges.size(), 1u);
  // The single selected anchor is still the greedy's first choice.
  EXPECT_EQ(gas.anchor_edges[0], RunGas(g, 1).anchors[0]);
}

TEST(Api, CancelFlagStopsBeforeAnyRound) {
  const Graph g = MakeFig3Graph();
  std::atomic<bool> cancel{true};
  SolverOptions options;
  options.budget = 3;
  options.cancel = &cancel;
  const SolveResult gas = MustSolve("gas", g, options);
  EXPECT_TRUE(gas.stopped_early);
  EXPECT_TRUE(gas.anchor_edges.empty());
}

TEST(Engine, DecompositionIsComputedOnceAcrossSolvers) {
  AtrEngine engine(MakeFig3Graph());
  EXPECT_EQ(engine.decomposition_builds(), 0u);  // lazy until needed

  SolverOptions options;
  options.budget = 2;
  ASSERT_TRUE(engine.Run("akt:4", options).ok());
  EXPECT_EQ(engine.decomposition_builds(), 1u);

  // Every further consumer — including the greedy family, which seeds its
  // round-1 state from the cache — reuses the cached decomposition.
  ASSERT_TRUE(engine.Run("akt:5", options).ok());
  ASSERT_TRUE(engine.Run("tur", options).ok());
  ASSERT_TRUE(engine.Run("gas", options).ok());
  ASSERT_TRUE(engine.Run("exact", options).ok());
  engine.Decomposition();
  EXPECT_EQ(engine.decomposition_builds(), 1u);
}

TEST(Api, AktHonorsCancellationBetweenRounds) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 4;
  options.progress = [](const SolveProgress& progress) {
    return progress.round < 1;  // stop after the first vertex
  };
  const SolveResult akt = MustSolve("akt:4", g, options);
  EXPECT_TRUE(akt.stopped_early);
  EXPECT_EQ(akt.anchor_vertices.size(), 1u);
}

// A progress callback that declines to continue after the LAST round cut
// nothing short: the result is the full budget and is not marked
// stopped_early (a JobHandle::Cancel landing in a job's final round takes
// the same path).
TEST(Api, FullBudgetResultIsNeverStoppedEarly) {
  AtrEngine engine(MakeFig3Graph());
  for (const char* solver : {"base", "base+", "gas", "akt:4", "exact"}) {
    SolverOptions options;
    options.budget = 2;
    if (std::string(solver) == "exact") options.budget_checkpoints = {1, 2};
    options.progress = [](const SolveProgress& progress) {
      return progress.round < 2;  // decline after round 2 = the last one
    };
    StatusOr<SolveResult> result = engine.Run(solver, options);
    ASSERT_TRUE(result.ok()) << solver << ": " << result.status().message();
    EXPECT_FALSE(result->stopped_early) << solver;
    if (std::string(solver) == "akt:4") {
      EXPECT_EQ(result->anchor_vertices.size(), 2u) << solver;
    } else if (std::string(solver) == "exact") {
      EXPECT_EQ(result->gain_at_checkpoint.size(), 2u) << solver;
    } else {
      EXPECT_EQ(result->anchor_edges.size(), 2u) << solver;
      EXPECT_EQ(result->rounds.size(), 2u) << solver;
    }
  }
}

// SolverOptions::cancel raised mid-run (from the progress callback after
// the first round/checkpoint): every round-structured solver stops at its
// next check and returns a valid prefix of its full run.
TEST(Api, CancelFlagRaisedMidRunLeavesValidPrefixOnEverySolver) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  for (const char* solver : {"base", "base+", "gas", "exact", "akt:4"}) {
    SolverOptions full_options;
    full_options.budget = 3;
    if (std::string(solver) == "exact") {
      // Independent exhaustive runs per checkpoint; keep them tiny.
      full_options.budget = 2;
      full_options.budget_checkpoints = {1, 2};
    }
    const SolveResult full = MustSolve(solver, g, full_options);

    std::atomic<bool> cancel{false};
    SolverOptions options = full_options;
    options.cancel = &cancel;
    options.progress = [&cancel](const SolveProgress& progress) {
      if (progress.round == 1) cancel.store(true);
      return true;  // cancellation flows through the flag, not the return
    };
    const SolveResult stopped = MustSolve(solver, g, options);
    EXPECT_TRUE(stopped.stopped_early) << solver;
    if (std::string(solver) == "exact") {
      ASSERT_EQ(stopped.gain_at_checkpoint.size(), 1u) << solver;
      EXPECT_EQ(stopped.gain_at_checkpoint[0], full.gain_at_checkpoint[0]);
    } else if (std::string(solver) == "akt:4") {
      ASSERT_EQ(stopped.anchor_vertices.size(), 1u) << solver;
      EXPECT_EQ(stopped.anchor_vertices[0], full.anchor_vertices[0]);
    } else {
      ASSERT_EQ(stopped.anchor_edges.size(), 1u) << solver;
      EXPECT_EQ(stopped.anchor_edges[0], full.anchor_edges[0]) << solver;
      EXPECT_EQ(stopped.total_gain,
                TrussnessGain(g, base, {}, stopped.anchor_edges))
          << solver;
    }
  }
}

TEST(Api, RandomBaselineHonorsCancelFlag) {
  const Graph g = MakeFig3Graph();
  std::atomic<bool> cancel{true};
  SolverOptions options;
  options.budget = 2;
  options.trials = 50;
  options.cancel = &cancel;
  const SolveResult rand = MustSolve("rand", g, options);
  EXPECT_TRUE(rand.stopped_early);
  EXPECT_EQ(rand.total_gain, 0u);  // cancelled before any trial completed
}

TEST(Api, SupBudgetBeyondPoolIsRejected) {
  // Sup draws from the top-20% support pool; a budget beyond that pool
  // would silently under-deliver anchors, so it is an error.
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = g.NumEdges();  // valid vs |E|, far beyond the 20% pool
  EXPECT_EQ(SolveOnce("sup", g, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Engine, PrimedDecompositionIsNeverRecomputed) {
  Graph g = MakeFig3Graph();
  TrussDecomposition decomp = ComputeTrussDecomposition(g);
  AtrEngine engine(g, decomp);
  SolverOptions options;
  options.budget = 2;
  ASSERT_TRUE(engine.Run("akt:4", options).ok());
  ASSERT_TRUE(engine.Run("sup", options).ok());
  EXPECT_EQ(engine.MaxTrussness(), decomp.max_trussness);
  EXPECT_EQ(engine.decomposition_builds(), 0u);
}

TEST(Engine, RunSweepReportsPrefixGains) {
  AtrEngine engine(MakeFig3Graph());
  StatusOr<SolveResult> sweep = engine.RunSweep("gas", {1, 2, 4});
  ASSERT_TRUE(sweep.ok()) << sweep.status().message();
  ASSERT_EQ(sweep->gain_at_checkpoint.size(), 3u);
  ASSERT_EQ(sweep->rounds.size(), 4u);
  EXPECT_EQ(sweep->gain_at_checkpoint[0], sweep->rounds[0].gain);
  EXPECT_EQ(sweep->gain_at_checkpoint[1],
            sweep->rounds[0].gain + sweep->rounds[1].gain);
  EXPECT_EQ(sweep->gain_at_checkpoint[2], sweep->total_gain);
}

TEST(Engine, RunSweepOnRandomBaselineTracksCheckpoints) {
  AtrEngine engine(MakeFig3Graph());
  SolverOptions options;
  options.trials = 30;
  options.seed = 7;
  StatusOr<SolveResult> sweep = engine.RunSweep("rand", {1, 2, 3}, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status().message();
  ASSERT_EQ(sweep->gain_at_checkpoint.size(), 3u);
  EXPECT_EQ(sweep->gain_at_checkpoint.back(), sweep->total_gain);
  EXPECT_EQ(sweep->trials, 30u);
}

TEST(Engine, UnknownSolverNameFlowsBackAsStatus) {
  AtrEngine engine(MakeFig3Graph());
  SolverOptions options;
  options.budget = 1;
  EXPECT_EQ(engine.Run("nope", options).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.Run("akt:x", options).status().code(),
            StatusCode::kInvalidArgument);
  // A name that cannot run never pays for the decomposition.
  EXPECT_EQ(engine.decomposition_builds(), 0u);
}

// The repository's central property, exercised end-to-end through
// atr::Solve: BASE, BASE+, and GAS are one greedy algorithm and must select
// identical anchor sequences with identical per-round gains.
class SolveEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SolveEquivalenceProperty, BaseBasePlusGasAgreeThroughSolve) {
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  SolverOptions options;
  options.budget = 3 + seed % 3;

  const SolveResult base = MustSolve("base", g, options);
  const SolveResult plus = MustSolve("base+", g, options);
  const SolveResult gas = MustSolve("gas", g, options);

  EXPECT_EQ(base.anchor_edges, plus.anchor_edges) << "seed " << seed;
  EXPECT_EQ(base.anchor_edges, gas.anchor_edges) << "seed " << seed;
  EXPECT_EQ(base.total_gain, plus.total_gain) << "seed " << seed;
  EXPECT_EQ(base.total_gain, gas.total_gain) << "seed " << seed;
  ASSERT_EQ(base.rounds.size(), plus.rounds.size());
  ASSERT_EQ(base.rounds.size(), gas.rounds.size());
  // Per round: the same gain, and the same multiset of pre-anchor follower
  // trussness (Fig. 11(b)'s data; BASE reads it off a recomputed
  // decomposition, BASE+/GAS off the incremental engine's commit).
  const auto sorted_followers = [](const AnchorRound& round) {
    std::vector<uint32_t> t = round.follower_trussness;
    std::sort(t.begin(), t.end());
    return t;
  };
  for (size_t i = 0; i < base.rounds.size(); ++i) {
    EXPECT_EQ(base.rounds[i].gain, plus.rounds[i].gain)
        << "seed " << seed << " round " << i;
    EXPECT_EQ(base.rounds[i].gain, gas.rounds[i].gain)
        << "seed " << seed << " round " << i;
    const std::vector<uint32_t> expected = sorted_followers(base.rounds[i]);
    EXPECT_EQ(expected.size(), base.rounds[i].gain)
        << "seed " << seed << " round " << i;
    EXPECT_EQ(sorted_followers(plus.rounds[i]), expected)
        << "seed " << seed << " round " << i;
    EXPECT_EQ(sorted_followers(gas.rounds[i]), expected)
        << "seed " << seed << " round " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveEquivalenceProperty,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace atr
