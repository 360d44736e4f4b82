// atr::Solve: one parsed solver name dispatched to the core entry points
// (RunBaseGreedy, RunBasePlus, RunGas, RunExact, RunRandomBaseline,
// RunAkt), each result assembled into the unified SolveResult.

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "api/solver.h"
#include "core/akt.h"
#include "core/base_greedy.h"
#include "core/base_plus.h"
#include "core/exact.h"
#include "core/gas.h"
#include "core/random_baselines.h"
#include "util/timer.h"

namespace atr {
namespace {

enum class SolverKind {
  kBase, kBasePlus, kGas, kExact, kRand, kSup, kTur, kAkt
};

struct NamedSolver {
  const char* name;
  SolverKind kind;
};

// The exact names; "akt:<k>" is parsed separately.
constexpr NamedSolver kNamedSolvers[] = {
    {"base", SolverKind::kBase},   {"base+", SolverKind::kBasePlus},
    {"gas", SolverKind::kGas},     {"exact", SolverKind::kExact},
    {"rand", SolverKind::kRand},   {"sup", SolverKind::kSup},
    {"tur", SolverKind::kTur},
};

constexpr char kAktPrefix[] = "akt:";

struct ParsedSolver {
  SolverKind kind = SolverKind::kBase;
  std::string name;   // reported name; "akt:<k>" with k in canonical form
  uint32_t akt_k = 0;  // kAkt only
};

StatusOr<ParsedSolver> ParseAkt(const std::string& name) {
  // name is "akt:<k>"; the prefix match guarantees the "akt:" head.
  const std::string param = name.substr(sizeof(kAktPrefix) - 1);
  if (param.empty() ||
      param.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument(
        "akt solver: expected \"akt:<k>\" with integer k >= 3, got \"" +
        name + "\"");
  }
  uint64_t k = 0;
  for (char ch : param) {
    k = k * 10 + static_cast<uint64_t>(ch - '0');
    if (k > 0xffffffffu) {
      return Status::InvalidArgument("akt solver: k out of range in \"" +
                                     name + "\"");
    }
  }
  if (k < 3) {
    return Status::InvalidArgument(
        "akt solver: k must satisfy 3 <= k (got \"" + name + "\")");
  }
  ParsedSolver parsed;
  parsed.kind = SolverKind::kAkt;
  parsed.name = kAktPrefix + std::to_string(k);
  parsed.akt_k = static_cast<uint32_t>(k);
  return parsed;
}

StatusOr<ParsedSolver> ParseSolverName(const std::string& name) {
  for (const NamedSolver& named : kNamedSolvers) {
    if (name == named.name) {
      ParsedSolver parsed;
      parsed.kind = named.kind;
      parsed.name = named.name;
      return parsed;
    }
  }
  if (name.compare(0, sizeof(kAktPrefix) - 1, kAktPrefix) == 0) {
    return ParseAkt(name);
  }
  std::string known;
  for (const std::string& s : KnownSolvers()) {
    if (!known.empty()) known += ", ";
    known += s;
  }
  return Status::NotFound("unknown solver \"" + name + "\" (known: " + known +
                          ")");
}

Status ValidateOptionsWithBudgetLimit(const Graph& g,
                                      const SolverOptions& options,
                                      uint32_t budget_limit,
                                      const char* limit_name) {
  if (g.NumEdges() == 0) {
    return Status::InvalidArgument("solver options: graph has no edges");
  }
  if (options.budget < 1 || options.budget > budget_limit) {
    return Status::InvalidArgument(
        "solver options: budget must satisfy 1 <= budget <= " +
        std::string(limit_name) + " (budget = " +
        std::to_string(options.budget) + ", " + limit_name + " = " +
        std::to_string(budget_limit) + ")");
  }
  const std::vector<uint32_t>& cps = options.budget_checkpoints;
  if (!cps.empty()) {
    for (size_t i = 1; i < cps.size(); ++i) {
      if (cps[i] <= cps[i - 1]) {
        return Status::InvalidArgument(
            "solver options: budget_checkpoints must be strictly ascending");
      }
    }
    if (cps.front() < 1) {
      return Status::InvalidArgument(
          "solver options: budget_checkpoints must start at >= 1");
    }
    if (cps.back() != options.budget) {
      return Status::InvalidArgument(
          "solver options: the last checkpoint (" +
          std::to_string(cps.back()) + ") must equal budget (" +
          std::to_string(options.budget) + ")");
    }
  }
  if (options.wall_clock_limit_seconds < 0.0) {
    return Status::InvalidArgument(
        "solver options: wall_clock_limit_seconds must be >= 0");
  }
  return Status::Ok();
}

// AKT anchors vertices: its budget is bounded by |V| instead of |E|.
Status ValidateVertexSolverOptions(const Graph& g,
                                   const SolverOptions& options) {
  return ValidateOptionsWithBudgetLimit(g, options, g.NumVertices(), "|V|");
}

// The checkpoint list a solve reports on: options.budget_checkpoints, or
// {options.budget} when none were requested.
std::vector<uint32_t> EffectiveCheckpoints(const SolverOptions& options) {
  if (!options.budget_checkpoints.empty()) return options.budget_checkpoints;
  return {options.budget};
}

bool IsRandomBaseline(SolverKind kind) {
  return kind == SolverKind::kRand || kind == SolverKind::kSup ||
         kind == SolverKind::kTur;
}

RandomPoolKind PoolOf(SolverKind kind) {
  return kind == SolverKind::kRand  ? RandomPoolKind::kAllEdges
         : kind == SolverKind::kSup ? RandomPoolKind::kTopSupport
                                    : RandomPoolKind::kTopRouteSize;
}

// Every check a solve makes before it reads the decomposition. AKT anchors
// vertices, so its budget is bounded by |V|; every other solver anchors
// edges and is bounded by |E|. The randomized baselines add their own
// trials and candidate-pool rules.
Status ValidateParsed(const Graph& g, const ParsedSolver& solver,
                      const SolverOptions& options) {
  if (solver.kind == SolverKind::kAkt) {
    return ValidateVertexSolverOptions(g, options);
  }
  Status status = ValidateSolverOptions(g, options);
  if (!status.ok() || !IsRandomBaseline(solver.kind)) return status;
  return ValidateRandomBaseline(g, PoolOf(solver.kind),
                                EffectiveCheckpoints(options), options.trials);
}

bool CancelRequested(const SolverOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

// Wires SolverOptions into the core GreedyControl: cancel flag and
// wall-clock limit pass through; the progress callback (when set) is
// adapted from GreedyProgress to SolveProgress under `name`. The returned
// control captures `options` by reference — it must not outlive the Solve
// call.
GreedyControl MakeRoundControl(const std::string& name,
                               const SolverOptions& options) {
  GreedyControl control;
  control.cancel = options.cancel;
  control.wall_clock_limit_seconds = options.wall_clock_limit_seconds;
  if (options.progress) {
    control.on_round = [name, &options](const GreedyProgress& progress) {
      SolveProgress event;
      event.solver = name;
      event.round = progress.round;
      event.budget = progress.budget;
      event.total_gain = progress.total_gain;
      event.elapsed_seconds = progress.elapsed_seconds;
      return options.progress(event);
    };
  }
  return control;
}

// BASE / BASE+ / GAS: one contract, three gain-computation engines (they
// must produce identical anchor sequences — greedy_equivalence_test).
// Round 1 of every greedy starts from the anchor-free decomposition.
StatusOr<SolveResult> SolveGreedy(const Graph& g,
                                  const TrussDecomposition& anchor_free,
                                  const ParsedSolver& solver,
                                  const SolverOptions& options) {
  const GreedyControl control = MakeRoundControl(solver.name, options);
  WallTimer timer;
  AnchorResult run;
  if (solver.kind == SolverKind::kBase) {
    run = RunBaseGreedy(g, options.budget, &control, &anchor_free);
  } else if (solver.kind == SolverKind::kBasePlus) {
    run = RunBasePlus(g, options.budget, &control, &anchor_free);
  } else {
    run = RunGas(g, options.budget, &control, &anchor_free);
  }
  return GreedyResult(solver.name, std::move(run.rounds), run.stopped_early,
                      timer.ElapsedSeconds(), options);
}

// Exact enumeration. Checkpoints are independent exhaustive runs (a
// b-subset optimum is not a prefix of a (b+1)-subset optimum), which is
// exactly the Fig. 5 usage: RunSweep("exact", {1, 2, 3}). Cancellation and
// the wall-clock limit are checked between checkpoints only — a checkpoint
// in flight always completes.
StatusOr<SolveResult> SolveExact(const Graph& g,
                                 const TrussDecomposition& anchor_free,
                                 const ParsedSolver& solver,
                                 const SolverOptions& options) {
  WallTimer timer;
  SolveResult result;
  result.solver = solver.name;
  const std::vector<uint32_t> checkpoints = EffectiveCheckpoints(options);
  for (size_t c = 0; c < checkpoints.size(); ++c) {
    if (CancelRequested(options) ||
        (options.wall_clock_limit_seconds > 0.0 && c > 0 &&
         timer.ElapsedSeconds() >= options.wall_clock_limit_seconds)) {
      result.stopped_early = true;
      break;
    }
    const ExactResult exact = RunExact(g, checkpoints[c], &anchor_free);
    result.gain_at_checkpoint.push_back(exact.gain);
    result.subsets_evaluated += exact.subsets_evaluated;
    result.anchor_edges = exact.anchors;
    result.total_gain = exact.gain;
    if (options.progress) {
      SolveProgress event;
      event.solver = solver.name;
      event.round = static_cast<uint32_t>(c + 1);
      event.budget = options.budget;
      event.total_gain = exact.gain;
      event.elapsed_seconds = timer.ElapsedSeconds();
      if (!options.progress(event) && c + 1 < checkpoints.size()) {
        result.stopped_early = true;
        break;
      }
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

// Rand / Sup / Tur randomized baselines (best of `trials` draws).
StatusOr<SolveResult> SolveRandom(const Graph& g,
                                  const TrussDecomposition& anchor_free,
                                  const ParsedSolver& solver,
                                  const SolverOptions& options) {
  // Trials are not rounds: only the cancel flag and wall-clock limit
  // apply (checked between trials on every worker).
  GreedyControl control;
  control.cancel = options.cancel;
  control.wall_clock_limit_seconds = options.wall_clock_limit_seconds;
  WallTimer timer;
  StatusOr<RandomBaselineResult> run =
      RunRandomBaseline(g, anchor_free, PoolOf(solver.kind),
                        EffectiveCheckpoints(options), options.trials,
                        options.seed, &control);
  if (!run.ok()) return run.status();

  SolveResult result;
  result.solver = solver.name;
  result.anchor_edges = std::move(run->best_anchors);
  result.total_gain = run->best_gain;
  result.gain_at_checkpoint = std::move(run->gain_at_checkpoint);
  result.trials = run->trials;
  result.stopped_early = run->stopped_early;
  result.seconds = timer.ElapsedSeconds();
  if (options.progress) {
    SolveProgress event;
    event.solver = solver.name;
    event.round = static_cast<uint32_t>(result.gain_at_checkpoint.size());
    event.budget = options.budget;
    event.total_gain = result.total_gain;
    event.elapsed_seconds = result.seconds;
    options.progress(event);  // run already finished; result unaffected
  }
  return result;
}

// AKT vertex anchoring at a fixed level k ("akt:<k>").
StatusOr<SolveResult> SolveAkt(const Graph& g,
                               const TrussDecomposition& anchor_free,
                               const ParsedSolver& solver,
                               const SolverOptions& options) {
  const GreedyControl control = MakeRoundControl(solver.name, options);
  WallTimer timer;
  SolveResult result;
  result.solver = solver.name;
  const AktResult run =
      RunAkt(g, anchor_free, solver.akt_k, options.budget, &control);
  result.anchor_vertices = run.anchors;
  result.total_gain = run.total_gain;
  result.stopped_early = run.stopped_early;
  for (uint32_t c : EffectiveCheckpoints(options)) {
    const uint64_t gain =
        run.gain_after.empty()
            ? 0
            : run.gain_after[std::min<size_t>(c, run.gain_after.size()) - 1];
    result.gain_at_checkpoint.push_back(gain);
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

Status ValidateSolverOptions(const Graph& g, const SolverOptions& options) {
  return ValidateOptionsWithBudgetLimit(g, options, g.NumEdges(), "|E|");
}

SolveResult GreedyResult(std::string solver, std::vector<AnchorRound> rounds,
                         bool walk_stopped_early, double seconds,
                         const SolverOptions& options) {
  if (rounds.size() > options.budget) rounds.resize(options.budget);
  SolveResult result;
  result.solver = std::move(solver);
  result.rounds = std::move(rounds);
  for (const AnchorRound& round : result.rounds) {
    result.anchor_edges.push_back(round.anchor);
    result.total_gain += round.gain;
    result.fully_reusable += round.fully_reusable;
    result.partially_reusable += round.partially_reusable;
    result.non_reusable += round.non_reusable;
  }
  // Gains of the greedy prefixes at each checkpoint (a budget-b greedy run
  // reports every intermediate budget for free — the paper's Fig. 6
  // sweeps).
  for (uint32_t c : EffectiveCheckpoints(options)) {
    uint64_t gain = 0;
    for (size_t r = 0; r < result.rounds.size() && r < c; ++r) {
      gain += result.rounds[r].gain;
    }
    result.gain_at_checkpoint.push_back(gain);
  }
  // A walk that ran out of eligible candidates is natural exhaustion, not
  // an early stop (the core does not flag it).
  result.stopped_early =
      walk_stopped_early && result.rounds.size() < options.budget;
  result.seconds = seconds;
  return result;
}

Status ValidateSolve(const Graph& g, const std::string& solver,
                     const SolverOptions& options) {
  StatusOr<ParsedSolver> parsed = ParseSolverName(solver);
  if (!parsed.ok()) return parsed.status();
  return ValidateParsed(g, *parsed, options);
}

StatusOr<SolveResult> Solve(const Graph& g,
                            const TrussDecomposition& anchor_free,
                            const std::string& solver,
                            const SolverOptions& options) {
  StatusOr<ParsedSolver> parsed = ParseSolverName(solver);
  if (!parsed.ok()) return parsed.status();
  Status valid = ValidateParsed(g, *parsed, options);
  if (!valid.ok()) return valid;
  switch (parsed->kind) {
    case SolverKind::kBase:
    case SolverKind::kBasePlus:
    case SolverKind::kGas:
      return SolveGreedy(g, anchor_free, *parsed, options);
    case SolverKind::kExact:
      return SolveExact(g, anchor_free, *parsed, options);
    case SolverKind::kRand:
    case SolverKind::kSup:
    case SolverKind::kTur:
      return SolveRandom(g, anchor_free, *parsed, options);
    case SolverKind::kAkt:
      break;
  }
  return SolveAkt(g, anchor_free, *parsed, options);
}

Status CheckSolverName(const std::string& solver) {
  return ParseSolverName(solver).status();
}

std::vector<std::string> KnownSolvers() {
  std::vector<std::string> names;
  for (const NamedSolver& named : kNamedSolvers) names.push_back(named.name);
  names.push_back(std::string(kAktPrefix) + "<k>");
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace atr
