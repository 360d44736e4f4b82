#include "truss/incremental.h"

#include <algorithm>

#include "graph/triangles.h"
#include "route/follower_search.h"
#include "util/macros.h"

namespace atr {

// The affected-region re-peel replays the exact batch-peeling process of
// decomposition.cc's Peel() restricted to a region S of edges, treating
// every out-of-region edge as "context" that disappears at the (t, l)
// time the stored decomposition records for it. That replay is exact as
// long as no out-of-region edge's own (t, l) would change — so after each
// pass the boundary is checked: an out-of-region partner w of a changed
// region edge e (old (t1, l1), new (t2, l2)) can only be affected when
// the phases where e's presence differs overlap w's own peel:
//
//   * presence-shrinking change (lex (t2,l2) < (t1,l1)): support losses at
//     phases [t2, t1] can pull w down to any level >= t2, so every w with
//     t(w) >= min(t1, t2) is suspect;
//   * presence-growing change: support gains never remove edges, so only
//     w whose own level lies inside [t1, t2] (its layer is decided there)
//     can move.
//
// Suspects join the region and the simulation re-runs; every changed edge
// is triangle-adjacent to another changed edge or to the mutated edge
// itself (a peel trace can only diverge when a partner's removal time
// diverges), so this fixpoint reaches the full changed set from any seed.

IncrementalTruss::IncrementalTruss(const Graph& g) : g_(&g) {
  AdoptSeed(ComputeTrussDecomposition(g));
}

IncrementalTruss::IncrementalTruss(const Graph& g, TrussDecomposition seed,
                                   const TriangleIncidence* triangles)
    : g_(&g), triangles_(triangles) {
  AdoptSeed(std::move(seed));
}

IncrementalTruss::IncrementalTruss(const IncrementalTruss& other)
    : g_(other.g_),
      decomp_(other.decomp_),
      anchored_(other.anchored_),
      hull_count_(other.hull_count_),
      total_trussness_(other.total_trussness_),
      undo_(other.undo_),
      next_undo_serial_(other.next_undo_serial_),
      undo_base_serial_(other.undo_base_serial_),
      stats_(other.stats_),
      triangles_(other.triangles_) {
  InitScratch();
}

IncrementalTruss::~IncrementalTruss() = default;

void IncrementalTruss::AdoptSeed(TrussDecomposition seed) {
  const uint32_t m = g_->NumEdges();
  ATR_CHECK(seed.trussness.size() == m);
  ATR_CHECK(seed.layer.size() == m);
  const uint32_t seed_max = seed.max_trussness;
  decomp_ = std::move(seed);
  anchored_.assign(m, false);
  for (EdgeId e = 0; e < m; ++e) {
    ATR_CHECK_MSG(decomp_.trussness[e] != kAnchoredTrussness,
                  "seed decomposition must be anchor-free");
    HistAdd(decomp_.trussness[e]);
  }
  RecomputeMaxTrussness();
  ATR_CHECK_MSG(decomp_.max_trussness == seed_max,
                "seed decomposition is inconsistent with its graph");
  InitScratch();
}

void IncrementalTruss::InitScratch() {
  const uint32_t m = g_->NumEdges();
  region_pass_ = 0;
  sim_pass_ = 0;
  region_.clear();
  region_epoch_.assign(m, 0);
  removed_epoch_.assign(m, 0);
  queued_epoch_.assign(m, 0);
  event_epoch_.assign(m, 0);
  sim_support_.assign(m, 0);
  sim_t_.assign(m, 0);
  sim_l_.assign(m, 0);
  search_.reset();
}

std::vector<EdgeId> IncrementalTruss::AliveEdges() const {
  std::vector<EdgeId> alive;
  alive.reserve(g_->NumEdges());
  for (EdgeId e = 0; e < g_->NumEdges(); ++e) {
    if (IsAlive(e)) alive.push_back(e);
  }
  return alive;
}

void IncrementalTruss::HistAdd(uint32_t trussness) {
  if (trussness == kTrussnessNotComputed || trussness == kAnchoredTrussness) {
    return;
  }
  if (trussness >= hull_count_.size()) hull_count_.resize(trussness + 1, 0);
  ++hull_count_[trussness];
  total_trussness_ += trussness;
}

void IncrementalTruss::HistRemove(uint32_t trussness) {
  if (trussness == kTrussnessNotComputed || trussness == kAnchoredTrussness) {
    return;
  }
  ATR_DCHECK(trussness < hull_count_.size() && hull_count_[trussness] > 0);
  --hull_count_[trussness];
  total_trussness_ -= trussness;
}

void IncrementalTruss::RecomputeMaxTrussness() {
  uint32_t peak = 2;
  for (uint32_t t = static_cast<uint32_t>(hull_count_.size()); t-- > 2;) {
    if (hull_count_[t] > 0) {
      peak = t;
      break;
    }
  }
  decomp_.max_trussness = peak;
}

void IncrementalTruss::CommitEdgeState(EdgeId e, uint32_t trussness,
                                       uint32_t layer, bool anchored) {
  undo_.push_back(UndoEntry{next_undo_serial_++, e, decomp_.trussness[e],
                            decomp_.layer[e],
                            static_cast<uint8_t>(anchored_[e] ? 1 : 0)});
  HistRemove(decomp_.trussness[e]);
  decomp_.trussness[e] = trussness;
  decomp_.layer[e] = layer;
  anchored_[e] = anchored;
  HistAdd(trussness);
}

void IncrementalTruss::RollbackTo(Checkpoint checkpoint) {
  ATR_CHECK_MSG(IsValidCheckpoint(checkpoint),
                "stale or unknown rollback checkpoint");
  if (checkpoint.position == undo_.size()) return;
  ++stats_.rollbacks;
  while (undo_.size() > checkpoint.position) {
    const UndoEntry& u = undo_.back();
    HistRemove(decomp_.trussness[u.edge]);
    decomp_.trussness[u.edge] = u.trussness;
    decomp_.layer[u.edge] = u.layer;
    anchored_[u.edge] = u.anchored != 0;
    HistAdd(u.trussness);
    undo_.pop_back();
  }
  RecomputeMaxTrussness();
}

void IncrementalTruss::AddToRegion(EdgeId e) {
  if (region_epoch_[e] == region_pass_) return;
  if (anchored_[e] || !IsAlive(e)) return;
  region_epoch_[e] = region_pass_;
  region_.push_back(e);
}

bool IncrementalTruss::PresentNow(EdgeId z, uint32_t phase,
                                  uint32_t round) const {
  if (removed_epoch_[z] == sim_pass_) return false;
  if (region_epoch_[z] == region_pass_) return true;
  const uint32_t t = decomp_.trussness[z];  // anchors: +inf, removed: 0
  return t > phase || (t == phase && decomp_.layer[z] >= round);
}

void IncrementalTruss::SimulateRegion() {
  ++sim_pass_;
  events_.clear();

  // Initial supports: triangles whose partners are all present at the very
  // start of the peel, i.e. alive (region edges are alive by construction).
  // Alive non-anchored out-of-region partners become context events.
  uint32_t max_sup = 0;
  for (const EdgeId e : region_) {
    sim_support_[e] = 0;
    ForEachTriangleOfEdge(*g_, e, [&](VertexId, EdgeId p, EdgeId q) {
      if (decomp_.trussness[p] == kTrussnessNotComputed ||
          decomp_.trussness[q] == kTrussnessNotComputed) {
        return;
      }
      ++sim_support_[e];
      for (const EdgeId c : {p, q}) {
        if (region_epoch_[c] == region_pass_ || anchored_[c]) continue;
        if (event_epoch_[c] == sim_pass_) continue;
        event_epoch_[c] = sim_pass_;
        events_.push_back(
            ContextEvent{decomp_.trussness[c], decomp_.layer[c], c});
      }
    });
    max_sup = std::max(max_sup, sim_support_[e]);
  }
  std::sort(events_.begin(), events_.end(),
            [](const ContextEvent& a, const ContextEvent& b) {
              if (a.trussness != b.trussness) return a.trussness < b.trussness;
              if (a.layer != b.layer) return a.layer < b.layer;
              return a.edge < b.edge;
            });

  if (buckets_.size() < static_cast<size_t>(max_sup) + 1) {
    buckets_.resize(max_sup + 1);
  }
  for (auto& bucket : buckets_) bucket.clear();
  for (const EdgeId e : region_) buckets_[sim_support_[e]].push_back(e);

  // Removing edge x during round r decrements the support of every partner
  // in a still-standing triangle; Peel()'s sequential mark-then-scan makes
  // each lost triangle count exactly once per surviving partner, which
  // this replays (only region supports are tracked — context edges carry
  // their removal time instead of a support).
  auto scan_removal = [&](EdgeId x, uint32_t phase, uint32_t round,
                          uint32_t threshold) {
    ForEachTriangleOfEdge(*g_, x, [&](VertexId, EdgeId p, EdgeId q) {
      if (!PresentNow(p, phase, round) || !PresentNow(q, phase, round)) {
        return;
      }
      for (const EdgeId z : {p, q}) {
        if (region_epoch_[z] != region_pass_ ||
            removed_epoch_[z] == sim_pass_) {
          continue;
        }
        ATR_DCHECK(sim_support_[z] > 0);
        const uint32_t s = --sim_support_[z];
        if (s <= threshold) {
          if (queued_epoch_[z] != sim_pass_) {
            queued_epoch_[z] = sim_pass_;
            next_frontier_.push_back(z);
          }
        } else {
          buckets_[s].push_back(z);
        }
      }
    });
  };

  uint32_t unassigned = static_cast<uint32_t>(region_.size());
  size_t ev = 0;
  uint32_t k = 2;
  while (unassigned > 0) {
    const uint32_t threshold = k - 2;
    size_t ev_end = ev;
    while (ev_end < events_.size() && events_[ev_end].trussness == k) {
      ++ev_end;
    }

    // Round-1 frontier: region edges at or below the phase threshold
    // (bucket entries are lazily validated, exactly as in Peel()).
    frontier_.clear();
    const uint32_t scan_limit = std::min(threshold, max_sup);
    for (uint32_t s = 0; s <= scan_limit; ++s) {
      for (const EdgeId e : buckets_[s]) {
        if (removed_epoch_[e] != sim_pass_ &&
            queued_epoch_[e] != sim_pass_ && sim_support_[e] <= threshold) {
          queued_epoch_[e] = sim_pass_;
          frontier_.push_back(e);
        }
      }
      buckets_[s].clear();
    }

    if (frontier_.empty() && ev == ev_end) {
      // Inactive phase: nothing can change until the threshold reaches the
      // smallest remaining support or the next context removal fires.
      uint32_t next_k = kAnchoredTrussness;
      for (uint32_t s = scan_limit + 1; s <= max_sup; ++s) {
        bool found = false;
        for (const EdgeId e : buckets_[s]) {
          if (removed_epoch_[e] != sim_pass_ && sim_support_[e] == s) {
            found = true;
            break;
          }
        }
        if (found) {
          next_k = s + 2;
          break;
        }
      }
      ATR_CHECK(next_k != kAnchoredTrussness || ev < events_.size());
      if (ev < events_.size()) {
        next_k = std::min(next_k, events_[ev].trussness);
      }
      ATR_DCHECK(next_k > k);
      k = next_k;
      continue;
    }

    uint32_t round = 1;
    while (!frontier_.empty() || ev < ev_end) {
      next_frontier_.clear();
      for (const EdgeId e : frontier_) {
        removed_epoch_[e] = sim_pass_;
        sim_t_[e] = k;
        sim_l_[e] = round;
        --unassigned;
        scan_removal(e, k, round, threshold);
      }
      while (ev < ev_end && events_[ev].layer == round) {
        const EdgeId c = events_[ev].edge;
        ++ev;
        removed_epoch_[c] = sim_pass_;
        scan_removal(c, k, round, threshold);
      }
      frontier_.swap(next_frontier_);
      ++round;
    }
    ++k;
  }
  // Unconsumed context events lie above every region edge's final level;
  // they cannot influence the region.
}

bool IncrementalTruss::ExpandRegion() {
  const size_t snapshot = region_.size();
  for (size_t i = 0; i < snapshot; ++i) {
    const EdgeId e = region_[i];
    const uint32_t t1 = decomp_.trussness[e];
    const uint32_t l1 = decomp_.layer[e];
    const uint32_t t2 = sim_t_[e];
    const uint32_t l2 = sim_l_[e];
    if (t1 == t2 && l1 == l2) continue;
    const bool shrinking = t2 < t1 || (t2 == t1 && l2 < l1);
    const uint32_t lo = std::min(t1, t2);
    const uint32_t hi = std::max(t1, t2);
    ForEachTriangleOfEdge(*g_, e, [&](VertexId, EdgeId p, EdgeId q) {
      for (const EdgeId w : {p, q}) {
        if (region_epoch_[w] == region_pass_ || anchored_[w]) continue;
        const uint32_t tw = decomp_.trussness[w];
        if (tw == kTrussnessNotComputed) continue;
        const bool affected = shrinking ? tw >= lo : (tw >= lo && tw <= hi);
        if (affected) AddToRegion(w);
      }
    });
  }
  return region_.size() > snapshot;
}

void IncrementalTruss::FullRebuild() {
  // The flat peel fans rounds out when the calling thread has workers
  // available; the committed state is identical at any worker count.
  const TrussDecomposition fresh =
      ComputeTrussDecompositionOnSubset(*g_, anchored_, AliveEdges());
  for (EdgeId e = 0; e < g_->NumEdges(); ++e) {
    if (fresh.trussness[e] != decomp_.trussness[e] ||
        fresh.layer[e] != decomp_.layer[e]) {
      CommitEdgeState(e, fresh.trussness[e], fresh.layer[e], anchored_[e]);
    }
  }
}

uint32_t IncrementalTruss::RunLocalizedUpdate() {
  // Locality budget: once the region covers most of the graph (or keeps
  // rippling), a from-scratch subset decomposition is cheaper and equally
  // correct.
  const size_t max_region = g_->NumEdges() / 2 + 1;
  constexpr int kMaxPasses = 64;
  int passes = 0;
  for (;;) {
    if (region_.size() > max_region || passes >= kMaxPasses) {
      ++stats_.full_rebuilds;
      FullRebuild();
      return kAnchoredTrussness;  // caller-side validation is moot
    }
    SimulateRegion();
    ++passes;
    if (!ExpandRegion()) break;
    ++stats_.expansion_passes;
  }
  stats_.region_edges_total += region_.size();
  uint32_t trussness_changes = 0;
  for (const EdgeId e : region_) {
    if (sim_t_[e] != decomp_.trussness[e]) ++trussness_changes;
  }
  return trussness_changes;
}

uint32_t IncrementalTruss::ApplyAnchor(EdgeId e,
                                       std::vector<EdgeId>* followers) {
  ATR_CHECK(e < g_->NumEdges());
  ATR_CHECK_MSG(IsAlive(e), "ApplyAnchor: edge was removed");
  ATR_CHECK_MSG(!anchored_[e], "ApplyAnchor: edge is already anchored");
  ++stats_.anchors_applied;

  if (search_ == nullptr) {
    search_ = triangles_ != nullptr
                  ? std::make_unique<FollowerSearch>(*g_, *triangles_)
                  : std::make_unique<FollowerSearch>(*g_);
  }
  search_->SetState(&decomp_, &anchored_);
  follower_scratch_.clear();
  const uint32_t gain = search_->CountFollowers(e, &follower_scratch_);
  if (followers != nullptr) *followers = follower_scratch_;

  const uint32_t old_t = decomp_.trussness[e];
  // Commit the anchor state before seeding: the region filter must already
  // see `e` as anchored (it is triangle-adjacent to its own followers and
  // must act as always-present context, never as a peelable region edge).
  CommitEdgeState(e, kAnchoredTrussness, 0, /*anchored=*/true);

  ++region_pass_;
  region_.clear();
  // Seeds: the followers themselves (each rises by exactly 1), the
  // partners the anchor's eternal presence can delay ([old_t, inf)), and
  // each follower's immediate layer-suspects; ExpandRegion() catches
  // anything further out.
  for (const EdgeId f : follower_scratch_) AddToRegion(f);
  ForEachTriangleOfEdge(*g_, e, [&](VertexId, EdgeId p, EdgeId q) {
    for (const EdgeId w : {p, q}) {
      if (anchored_[w] || !IsAlive(w)) continue;
      if (decomp_.trussness[w] >= old_t) AddToRegion(w);
    }
  });
  for (const EdgeId f : follower_scratch_) {
    const uint32_t tf = decomp_.trussness[f];
    ForEachTriangleOfEdge(*g_, f, [&](VertexId, EdgeId p, EdgeId q) {
      for (const EdgeId w : {p, q}) {
        if (anchored_[w] || !IsAlive(w)) continue;
        const uint32_t tw = decomp_.trussness[w];
        if (tw >= tf && tw <= tf + 1) AddToRegion(w);
      }
    });
  }

  const uint32_t trussness_changes = RunLocalizedUpdate();

  if (trussness_changes != kAnchoredTrussness) {
    // Cross-check the re-peel against the follower search: exactly the
    // followers rise, each by 1. A disagreement means one of the two is
    // wrong — resolve with the authoritative from-scratch path and leave a
    // breadcrumb the differential suite turns into a failure.
    bool consistent = trussness_changes == follower_scratch_.size();
    for (const EdgeId f : follower_scratch_) {
      consistent = consistent && InRegion(f) &&
                   sim_t_[f] == decomp_.trussness[f] + 1;
    }
    if (consistent) {
      for (const EdgeId r : region_) {
        if (sim_t_[r] != decomp_.trussness[r] ||
            sim_l_[r] != decomp_.layer[r]) {
          CommitEdgeState(r, sim_t_[r], sim_l_[r], false);
        }
      }
    } else {
      ++stats_.follower_mismatches;
      ++stats_.full_rebuilds;
#ifdef ATR_INC_DEBUG
      {
        const TrussDecomposition oracle =
            ComputeTrussDecompositionOnSubset(*g_, anchored_, AliveEdges());
        // atr-lint: allow(stderr) — ATR_INC_DEBUG-only oracle diagnostics
        std::fprintf(stderr, "mismatch anchor=%u changes=%u followers=%zu\n",
                     e, trussness_changes, follower_scratch_.size());
        for (const EdgeId r : region_) {
          if (sim_t_[r] != decomp_.trussness[r] ||
              sim_l_[r] != decomp_.layer[r] ||
              oracle.trussness[r] != decomp_.trussness[r] ||
              oracle.layer[r] != decomp_.layer[r]) {
            // atr-lint: allow(stderr) — ATR_INC_DEBUG-only oracle diagnostics
            std::fprintf(stderr,
                         "  region e=%u stored=(%u,%u) sim=(%u,%u) "
                         "oracle=(%u,%u)\n",
                         r, decomp_.trussness[r], decomp_.layer[r], sim_t_[r],
                         sim_l_[r], oracle.trussness[r], oracle.layer[r]);
          }
        }
      }
#endif
      FullRebuild();
    }
  }
  RecomputeMaxTrussness();
  return gain;
}

uint32_t IncrementalTruss::InsertEdge(EdgeId e) {
  ATR_CHECK(e < g_->NumEdges());
  ATR_CHECK_MSG(!IsAlive(e), "InsertEdge: edge is already alive");
  ++stats_.edges_inserted;

  // Commit a provisional alive state before seeding: the simulation must
  // see `e` as a peelable region edge whose triangles contribute to its
  // partners' initial supports. The stored (2, 0) reads as "removed before
  // every real peel event" (real layers start at 1), so ExpandRegion
  // classifies the insertion as a presence-growing change over exactly
  // [2, sim_t(e)] — partners above the settled trussness keep their trace.
  CommitEdgeState(e, 2, 0, /*anchored=*/false);

  ++region_pass_;
  region_.clear();
  AddToRegion(e);
  // Every partner of a now-standing triangle through `e` gains support at
  // all phases up to e's settled removal time, which can lift any of them.
  ForEachTriangleOfEdge(*g_, e, [&](VertexId, EdgeId p, EdgeId q) {
    if (!IsAlive(p) || !IsAlive(q)) return;
    AddToRegion(p);
    AddToRegion(q);
  });

  if (RunLocalizedUpdate() != kAnchoredTrussness) {
    for (const EdgeId r : region_) {
      if (sim_t_[r] != decomp_.trussness[r] ||
          sim_l_[r] != decomp_.layer[r]) {
        CommitEdgeState(r, sim_t_[r], sim_l_[r], false);
      }
    }
  }
  RecomputeMaxTrussness();
  return decomp_.trussness[e];
}

uint64_t IncrementalTruss::RemoveEdge(EdgeId e) {
  ATR_CHECK(e < g_->NumEdges());
  ATR_CHECK_MSG(IsAlive(e), "RemoveEdge: edge was already removed");
  ATR_CHECK_MSG(!anchored_[e], "RemoveEdge: cannot remove an anchored edge");
  ++stats_.edges_removed;

  const uint32_t old_t = decomp_.trussness[e];
  const uint64_t others_before = total_trussness_ - old_t;

  ++region_pass_;
  region_.clear();
  // Every partner of a standing triangle through `e` loses support at all
  // phases up to e's old removal time, which can pull any of them down;
  // seed them all (gather before the edge dies).
  ForEachTriangleOfEdge(*g_, e, [&](VertexId, EdgeId p, EdgeId q) {
    if (!IsAlive(p) || !IsAlive(q)) return;
    AddToRegion(p);
    AddToRegion(q);
  });

  CommitEdgeState(e, kTrussnessNotComputed, 0, /*anchored=*/false);
  if (RunLocalizedUpdate() != kAnchoredTrussness) {
    for (const EdgeId r : region_) {
      if (sim_t_[r] != decomp_.trussness[r] ||
          sim_l_[r] != decomp_.layer[r]) {
        CommitEdgeState(r, sim_t_[r], sim_l_[r], false);
      }
    }
  }
  RecomputeMaxTrussness();
  return others_before - total_trussness_;
}

}  // namespace atr
