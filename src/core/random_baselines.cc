#include "core/random_baselines.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>

#include "graph/triangle_index.h"
#include "graph/triangles.h"
#include "route/follower_search.h"
#include "truss/decomposition.h"
#include "truss/gain.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/prng.h"
#include "util/timer.h"

namespace atr {
namespace {

// Keep fraction of the Sup/Tur pools. BaselinePoolCapacity must stay in
// lockstep with the truncation below.
constexpr double kTopPoolFraction = 0.2;

size_t TopPoolKeepCount(size_t total) {
  return std::max<size_t>(
      1, static_cast<size_t>(kTopPoolFraction * static_cast<double>(total)));
}

std::vector<EdgeId> TopFractionByScore(const std::vector<uint64_t>& score) {
  std::vector<EdgeId> order(score.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&score](EdgeId a, EdgeId b) {
    return score[a] != score[b] ? score[a] > score[b] : a < b;
  });
  order.resize(std::min(order.size(), TopPoolKeepCount(order.size())));
  return order;
}

}  // namespace

uint32_t BaselinePoolCapacity(const Graph& g, RandomPoolKind kind) {
  const uint32_t m = g.NumEdges();
  if (kind == RandomPoolKind::kAllEdges || m == 0) return m;
  return static_cast<uint32_t>(TopPoolKeepCount(m));
}

std::vector<EdgeId> BaselinePool(const Graph& g, RandomPoolKind kind,
                                 const TrussDecomposition* base) {
  const uint32_t m = g.NumEdges();
  switch (kind) {
    case RandomPoolKind::kAllEdges: {
      std::vector<EdgeId> all(m);
      std::iota(all.begin(), all.end(), 0u);
      return all;
    }
    case RandomPoolKind::kTopSupport: {
      const std::vector<uint32_t> support = ComputeSupport(g);
      std::vector<uint64_t> score(support.begin(), support.end());
      return TopFractionByScore(score);
    }
    case RandomPoolKind::kTopRouteSize: {
      TrussDecomposition local;
      if (base == nullptr) {
        local = ComputeTrussDecomposition(g);
        base = &local;
      }
      // One triangle index shared read-only by every worker's search.
      const TriangleIncidence triangles = BuildTriangleIncidence(g);
      std::vector<uint64_t> score(m, 0);
      ParallelFor(m, [&](int64_t begin, int64_t end) {
        FollowerSearch search(g, triangles);
        search.SetState(base, nullptr);
        for (int64_t i = begin; i < end; ++i) {
          score[i] = search.RouteSize(static_cast<EdgeId>(i));
        }
      });
      return TopFractionByScore(score);
    }
  }
  return {};
}

Status ValidateRandomBaseline(const Graph& g, RandomPoolKind kind,
                              const std::vector<uint32_t>& budget_checkpoints,
                              uint32_t trials) {
  const uint32_t num_edges = g.NumEdges();
  if (num_edges == 0) {
    return Status::InvalidArgument("random baseline: graph has no edges");
  }
  if (budget_checkpoints.empty()) {
    return Status::InvalidArgument(
        "random baseline: budget_checkpoints must be non-empty");
  }
  for (size_t i = 1; i < budget_checkpoints.size(); ++i) {
    if (budget_checkpoints[i] <= budget_checkpoints[i - 1]) {
      return Status::InvalidArgument(
          "random baseline: budget_checkpoints must be strictly ascending");
    }
  }
  if (budget_checkpoints.front() < 1 || budget_checkpoints.back() > num_edges) {
    return Status::InvalidArgument(
        "random baseline: checkpoints must satisfy 1 <= b <= |E| (|E| = " +
        std::to_string(num_edges) + ")");
  }
  // Sup/Tur draw from the top-20% pool, so their effective budget ceiling
  // is the pool size — reject rather than silently drawing fewer anchors
  // than requested.
  const uint32_t budget = budget_checkpoints.back();
  const uint32_t capacity = BaselinePoolCapacity(g, kind);
  if (budget > capacity) {
    return Status::InvalidArgument(
        "random baseline: budget " + std::to_string(budget) +
        " exceeds the candidate pool size " + std::to_string(capacity) +
        " for this pool kind");
  }
  if (trials == 0) {
    return Status::InvalidArgument("random baseline: trials must be >= 1");
  }
  return Status::Ok();
}

StatusOr<RandomBaselineResult> RunRandomBaseline(
    const Graph& g, RandomPoolKind kind,
    const std::vector<uint32_t>& budget_checkpoints, uint32_t trials,
    uint64_t seed, const GreedyControl* control) {
  Status status = ValidateRandomBaseline(g, kind, budget_checkpoints, trials);
  if (!status.ok()) return status;
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  return RunRandomBaseline(g, base, kind, budget_checkpoints, trials, seed,
                           control);
}

StatusOr<RandomBaselineResult> RunRandomBaseline(
    const Graph& g, const TrussDecomposition& base, RandomPoolKind kind,
    const std::vector<uint32_t>& budget_checkpoints, uint32_t trials,
    uint64_t seed, const GreedyControl* control) {
  Status status = ValidateRandomBaseline(g, kind, budget_checkpoints, trials);
  if (!status.ok()) return status;
  const uint32_t budget = budget_checkpoints.back();
  const std::vector<EdgeId> pool = BaselinePool(g, kind, &base);
  ATR_CHECK(pool.size() == BaselinePoolCapacity(g, kind) &&
            budget <= pool.size());

  struct TrialBest {
    uint64_t gain = 0;
    uint32_t trial = 0xffffffffu;
    std::vector<EdgeId> anchors;
    std::vector<uint64_t> checkpoint_gain;
  };
  std::vector<TrialBest> partials;
  std::mutex mu;
  WallTimer timer;
  std::atomic<bool> stopped{false};
  std::atomic<uint32_t> trials_done{0};

  ParallelFor(trials, [&](int64_t begin, int64_t end) {
    TrialBest local;
    local.checkpoint_gain.assign(budget_checkpoints.size(), 0);
    for (int64_t trial = begin; trial < end; ++trial) {
      if (control != nullptr && control->ShouldStop(timer.ElapsedSeconds())) {
        stopped.store(true, std::memory_order_relaxed);
        break;
      }
      trials_done.fetch_add(1, std::memory_order_relaxed);
      // Independent deterministic stream per trial.
      Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
      const uint32_t draw = std::min<uint32_t>(budget, pool.size());
      std::vector<uint32_t> picks = rng.SampleWithoutReplacement(
          static_cast<uint32_t>(pool.size()), draw);
      rng.Shuffle(picks);  // checkpoint prefixes must be a random order
      std::vector<EdgeId> anchors;
      anchors.reserve(draw);
      for (uint32_t p : picks) anchors.push_back(pool[p]);

      // Evaluate each checkpoint prefix.
      for (size_t c = 0; c < budget_checkpoints.size(); ++c) {
        const uint32_t prefix =
            std::min<uint32_t>(budget_checkpoints[c], draw);
        std::vector<EdgeId> subset(anchors.begin(),
                                   anchors.begin() + prefix);
        const uint64_t gain = TrussnessGain(g, base, {}, subset);
        local.checkpoint_gain[c] = std::max(local.checkpoint_gain[c], gain);
        if (c + 1 == budget_checkpoints.size()) {
          const uint32_t t32 = static_cast<uint32_t>(trial);
          if (gain > local.gain || (gain == local.gain && t32 < local.trial)) {
            local.gain = gain;
            local.trial = t32;
            local.anchors = subset;
          }
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    partials.push_back(std::move(local));
  });

  RandomBaselineResult result;
  result.trials = trials_done.load(std::memory_order_relaxed);
  result.stopped_early = stopped.load(std::memory_order_relaxed);
  result.gain_at_checkpoint.assign(budget_checkpoints.size(), 0);
  uint32_t best_trial = 0xffffffffu;
  for (const TrialBest& p : partials) {
    for (size_t c = 0; c < result.gain_at_checkpoint.size(); ++c) {
      result.gain_at_checkpoint[c] =
          std::max(result.gain_at_checkpoint[c], p.checkpoint_gain[c]);
    }
    if (p.trial == 0xffffffffu) continue;
    if (p.gain > result.best_gain ||
        (p.gain == result.best_gain && p.trial < best_trial)) {
      result.best_gain = p.gain;
      result.best_anchors = p.anchors;
      best_trial = p.trial;
    }
  }
  return result;
}

}  // namespace atr
