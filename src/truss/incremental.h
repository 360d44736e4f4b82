// Incremental truss maintenance (the dynamic-graph counterpart of
// truss/decomposition.h).
//
// A full truss decomposition costs a whole-graph triangle sweep plus a
// global peel; a greedy anchor solver would pay that price after every
// committed anchor, and the edge-deletion baseline once per *candidate*.
// IncrementalTruss (which BASE+, GAS and that baseline run on) instead
// maintains the decomposition under two single-edge mutations:
//
//   * ApplyAnchor(x)  — x becomes anchored (infinite support),
//   * RemoveEdge(x)   — x leaves the maintained subgraph,
//
// and one streaming arrival:
//
//   * InsertEdge(x)   — x (re-)joins the maintained subgraph,
//
// by re-running the peel only over a localized affected region, in the
// spirit of the k-core insertion-maintenance literature (see PAPERS.md,
// "K-Core Maximization through Edge Additions"): trussness and layer of an
// edge are functions of *when* its triangle partners disappear from the
// peel, so a mutation can only reach edges that are triangle-connected to
// it through edges whose own (trussness, layer) changed.
//
// Insertion works over the fixed CSR topology: the inserted edge must have
// a slot in the Graph (it was removed earlier, or the snapshot was
// materialized with the edge pre-declared via Graph::ApplyEdits and seeded
// dead). Arrivals of new topology go through Graph::ApplyEdits, which
// validates the delta, and a seeded engine on the new snapshot — the
// pattern AtrService::UpdateGraph packages up.
//
// The update is exact, not approximate: the affected-region re-peel
// replays the batch-peeling process of ComputeTrussDecomposition with
// out-of-region edges acting as fixed "context" whose removal times are
// read off their unchanged (t, l) values, and the region grows until no
// change touches its boundary. The maintained decomposition — trussness,
// layer, and max_trussness — is therefore byte-identical to a from-scratch
// ComputeTrussDecompositionOnSubset over the alive edges at every step,
// which the randomized differential harness in
// tests/incremental_truss_test.cc asserts after every operation.
//
// Every mutation appends to an undo log, so callers (the edge-deletion
// baseline) can speculatively try a candidate and roll it back:
//
//   IncrementalTruss inc(graph);
//   const IncrementalTruss::Checkpoint cp = inc.MarkRollbackPoint();
//   const uint32_t gain = inc.ApplyAnchor(e);   // trussness gain of e
//   inc.RollbackTo(cp);                          // state byte-identical
//
// Instances are single-threaded; they are copyable so per-worker clones
// can evaluate candidates in parallel (the edge-deletion baseline).

#ifndef ATR_TRUSS_INCREMENTAL_H_
#define ATR_TRUSS_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "truss/decomposition.h"

namespace atr {

class FollowerSearch;
struct TriangleIncidence;

class IncrementalTruss {
 public:
  // Position in the undo log, obtained from MarkRollbackPoint(). The
  // boundary serial identifies the entry the checkpoint sits on, so a
  // checkpoint invalidated by a deeper rollback (its prefix was popped and
  // the log regrew) is detected instead of silently restoring a
  // mid-mutation state.
  struct Checkpoint {
    size_t position = 0;
    uint64_t boundary_serial = 0;
  };

  // Decomposes `g` from scratch (all edges alive, no anchors). `g` must
  // outlive the engine.
  explicit IncrementalTruss(const Graph& g);

  // Adopts a precomputed anchor-free decomposition of `g` instead of
  // recomputing; edges with trussness kTrussnessNotComputed are treated as
  // removed (the subset decomposition over the others).
  //
  // `triangles`, when given, is the whole-graph triangle index of `g`
  // (BuildTriangleIncidence(g)); ApplyAnchor's follower search borrows it,
  // so a greedy solve builds one index, not two. It must outlive the
  // engine and its copies. Without one, the first ApplyAnchor builds its
  // own. The affected-region re-peel and RemoveEdge / InsertEdge never
  // read it.
  IncrementalTruss(const Graph& g, TrussDecomposition seed,
                   const TriangleIncidence* triangles = nullptr);

  // Copyable so parallel candidate evaluation can clone one engine per
  // worker; the copy shares nothing with the original. Movable so a
  // factory-constructed engine transfers without the deep copy (scratch
  // state is rebound lazily — every use re-binds before touching it).
  IncrementalTruss(const IncrementalTruss& other);
  IncrementalTruss(IncrementalTruss&& other) noexcept = default;
  IncrementalTruss& operator=(const IncrementalTruss&) = delete;
  IncrementalTruss& operator=(IncrementalTruss&&) = delete;
  ~IncrementalTruss();

  const Graph& graph() const { return *g_; }

  // The maintained decomposition. Anchored edges read kAnchoredTrussness,
  // removed edges kTrussnessNotComputed, exactly as the batch APIs report.
  const TrussDecomposition& decomposition() const { return decomp_; }
  const std::vector<bool>& anchored() const { return anchored_; }

  bool IsAlive(EdgeId e) const {
    return decomp_.trussness[e] != kTrussnessNotComputed;
  }
  bool IsAnchored(EdgeId e) const { return anchored_[e]; }

  // Ascending ids of the alive edges (the subset a from-scratch
  // ComputeTrussDecompositionOnSubset call would be given).
  std::vector<EdgeId> AliveEdges() const;

  // Sum of trussness over alive non-anchored edges, maintained O(1).
  uint64_t total_trussness() const { return total_trussness_; }

  // Anchors `e` (alive, not yet anchored) and updates the decomposition
  // locally. Returns the trussness gain — the number of followers, each of
  // which rises by exactly 1 (Lemma 1). When `followers` is non-null it
  // receives their edge ids (post-anchor trussness minus 1 recovers the
  // pre-anchor value).
  uint32_t ApplyAnchor(EdgeId e, std::vector<EdgeId>* followers = nullptr);

  // Removes `e` (alive, not anchored) from the maintained subgraph and
  // updates the decomposition locally. Returns the total trussness lost by
  // the *other* edges (the edge-deletion baseline's impact metric).
  uint64_t RemoveEdge(EdgeId e);

  // (Re-)inserts `e` — present in the topology, currently removed — into
  // the maintained subgraph and updates the decomposition locally via the
  // same affected-region machinery (with the full-rebuild fallback).
  // Returns the trussness the inserted edge settles at.
  uint32_t InsertEdge(EdgeId e);

  // Undo-log cursor for speculative apply/rollback. Rolling back restores
  // the decomposition, anchor set, and alive set byte-identically; marks
  // taken after the target checkpoint are invalidated (RollbackTo aborts
  // on them — probe with IsValidCheckpoint for a recoverable answer).
  Checkpoint MarkRollbackPoint() const {
    return Checkpoint{undo_.size(), undo_.empty() ? undo_base_serial_
                                                  : undo_.back().serial};
  }
  bool IsValidCheckpoint(Checkpoint checkpoint) const {
    if (checkpoint.position > undo_.size()) return false;
    if (checkpoint.position == 0) {
      return checkpoint.boundary_serial == undo_base_serial_;
    }
    return undo_[checkpoint.position - 1].serial ==
           checkpoint.boundary_serial;
  }
  void RollbackTo(Checkpoint checkpoint);

  // Drops the undo history (the committed state is untouched); ALL
  // outstanding checkpoints are invalidated, including pristine ones — the
  // clear point becomes the new floor. Greedy loops call this after
  // committing a round so per-worker clones stay cheap to copy.
  void ClearUndoLog() {
    undo_.clear();
    undo_base_serial_ = next_undo_serial_++;
  }

  struct Stats {
    uint64_t anchors_applied = 0;
    uint64_t edges_removed = 0;
    uint64_t edges_inserted = 0;
    uint64_t rollbacks = 0;
    // Sum over updates of the final affected-region size (edges re-peeled).
    uint64_t region_edges_total = 0;
    // Region-growth re-simulations beyond the first pass of each update.
    uint64_t expansion_passes = 0;
    // Updates that fell back to a from-scratch subset decomposition
    // (region outgrew the locality budget). Correct either way.
    uint64_t full_rebuilds = 0;
    // ApplyAnchor updates where the re-peel disagreed with FollowerSearch
    // (always resolved by a full rebuild; the differential suite asserts
    // this stays 0).
    uint64_t follower_mismatches = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct UndoEntry {
    uint64_t serial;  // never reused, even after rollbacks
    EdgeId edge;
    uint32_t trussness;
    uint32_t layer;
    uint8_t anchored;
  };
  struct ContextEvent {
    uint32_t trussness;
    uint32_t layer;
    EdgeId edge;
  };

  void InitScratch();
  void AdoptSeed(TrussDecomposition seed);

  // Histogram + running-total bookkeeping around every edge-state write.
  void HistAdd(uint32_t trussness);
  void HistRemove(uint32_t trussness);
  void RecomputeMaxTrussness();

  // Records the pre-state of `e` in the undo log and writes the new state.
  void CommitEdgeState(EdgeId e, uint32_t trussness, uint32_t layer,
                       bool anchored);

  bool InRegion(EdgeId e) const { return region_epoch_[e] == region_pass_; }
  void AddToRegion(EdgeId e);

  // Replays the batch peel over the current region; fills sim_t_ / sim_l_
  // for region edges. Out-of-region edges act as context removed at their
  // stored (t, l).
  void SimulateRegion();

  // Appends out-of-region boundary edges whose peel could be affected by a
  // region edge whose simulated (t, l) differs from its stored one.
  // Returns true when the region grew.
  bool ExpandRegion();

  // Runs simulate-expand to a fixpoint and commits the simulated values;
  // falls back to a from-scratch subset decomposition when the region
  // outgrows the locality budget. Returns the number of region edges whose
  // trussness changed.
  uint32_t RunLocalizedUpdate();

  // From-scratch fallback: recomputes over the alive subset and commits
  // every difference.
  void FullRebuild();

  // Whether `z` is still present in the replayed peel at (phase, round).
  bool PresentNow(EdgeId z, uint32_t phase, uint32_t round) const;

  const Graph* g_;
  TrussDecomposition decomp_;
  std::vector<bool> anchored_;
  // hull_count_[t] = number of alive non-anchored edges with trussness t.
  std::vector<uint32_t> hull_count_;
  uint64_t total_trussness_ = 0;

  std::vector<UndoEntry> undo_;
  uint64_t next_undo_serial_ = 1;
  uint64_t undo_base_serial_ = 0;  // serial "under" position 0
  Stats stats_;

  const TriangleIncidence* triangles_ = nullptr;  // borrowed, may be null
  std::unique_ptr<FollowerSearch> search_;        // lazily created

  // --- re-peel scratch (epoch-stamped; excluded from copies) -------------
  uint32_t region_pass_ = 0;  // bumped per mutation
  uint32_t sim_pass_ = 0;     // bumped per SimulateRegion call
  std::vector<EdgeId> region_;
  std::vector<uint32_t> region_epoch_;
  std::vector<uint32_t> removed_epoch_;  // edge removed in current sim pass
  std::vector<uint32_t> queued_epoch_;   // edge queued in current frontier
  std::vector<uint32_t> event_epoch_;    // context event already recorded
  std::vector<uint32_t> sim_support_;
  std::vector<uint32_t> sim_t_;
  std::vector<uint32_t> sim_l_;
  std::vector<ContextEvent> events_;
  std::vector<std::vector<EdgeId>> buckets_;
  std::vector<EdgeId> frontier_;
  std::vector<EdgeId> next_frontier_;
  std::vector<EdgeId> follower_scratch_;
};

}  // namespace atr

#endif  // ATR_TRUSS_INCREMENTAL_H_
