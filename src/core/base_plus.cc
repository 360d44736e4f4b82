#include "core/base_plus.h"

#include <mutex>

#include "core/greedy_internal.h"
#include "route/follower_search.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace atr {

AnchorResult RunBasePlus(const Graph& g, uint32_t budget,
                         const GreedyControl* control,
                         const TrussDecomposition* seed_decomposition) {
  const uint32_t m = g.NumEdges();
  AnchorResult result;
  if (m == 0) return result;
  budget = std::min<uint32_t>(budget, m);

  WallTimer timer;
  // One whole-graph triangle index per solve: every worker's search and
  // the commit's search read it.
  const TriangleIncidence triangles = BuildTriangleIncidence(g);
  // The shared (decomposition, anchors) state; each committed anchor
  // updates it locally instead of recomputing it.
  IncrementalTruss engine =
      MakeGreedyEngine(g, seed_decomposition, triangles);
  const TrussDecomposition& current = engine.decomposition();
  const std::vector<bool>& anchored = engine.anchored();

  while (result.anchors.size() < budget) {
    if (control != nullptr && control->ShouldStop(timer.ElapsedSeconds())) {
      result.stopped_early = true;
      break;
    }
    struct Best {
      uint64_t gain = 0;
      EdgeId edge = kInvalidEdge;
    };
    std::vector<Best> bests;
    std::mutex mu;
    ParallelFor(m, [&](int64_t begin, int64_t end) {
      // Worker-local search state (epoch-stamped scratch arrays).
      FollowerSearch search(g, triangles);
      search.SetState(&current, &anchored);
      Best local;
      for (int64_t i = begin; i < end; ++i) {
        const EdgeId e = static_cast<EdgeId>(i);
        if (!EligibleCandidate(current, anchored, e)) continue;
        const uint64_t gain = search.CountFollowers(e);
        if (local.edge == kInvalidEdge ||
            BetterCandidate(gain, e, local.gain, local.edge)) {
          local = Best{gain, e};
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      bests.push_back(local);
    });
    Best best;
    for (const Best& b : bests) {
      if (b.edge == kInvalidEdge) continue;
      if (best.edge == kInvalidEdge ||
          BetterCandidate(b.gain, b.edge, best.gain, best.edge)) {
        best = b;
      }
    }
    if (best.edge == kInvalidEdge) break;  // no eligible candidate left

    AnchorRound round;
    round.anchor = best.edge;
    round.gain = static_cast<uint32_t>(best.gain);
    std::vector<EdgeId> followers;
    const uint32_t recount = engine.ApplyAnchor(best.edge, &followers);
    ATR_CHECK(recount == best.gain);
    for (const EdgeId f : followers) {
      // Each follower rose by exactly 1; recover the pre-anchor value.
      round.follower_trussness.push_back(current.trussness[f] - 1);
    }
    engine.ClearUndoLog();
    round.cumulative_seconds = timer.ElapsedSeconds();
    result.total_gain += best.gain;
    result.anchors.push_back(best.edge);
    result.rounds.push_back(std::move(round));
    if (!NotifyRound(control, budget, result)) break;
  }
  return result;
}

}  // namespace atr
