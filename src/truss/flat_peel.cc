#include "truss/flat_peel.h"

#include <algorithm>

#include "graph/triangle_index.h"
#include "util/macros.h"
#include "util/parallel_for.h"

namespace atr {
namespace {

size_t g_min_parallel_frontier = 256;

// The peel proper. `alive` already excludes out-of-subset edges;
// `full_graph` is true when every edge is alive. Mirrors the serial Peel in
// decomposition.cc phase-for-phase and round-for-round — same frontier
// membership; only the within-round execution, the bucket mechanics and
// the memory layout differ.
TrussDecomposition PeelFlat(const FlatGraphView& view,
                            const std::vector<bool>& anchored,
                            std::vector<uint8_t> alive, bool full_graph) {
  const uint32_t m = view.num_edges;
  TrussDecomposition out;
  out.trussness.assign(m, kTrussnessNotComputed);
  out.layer.assign(m, 0);

  const bool has_anchors = !anchored.empty();
  auto is_anchored = [&](EdgeId e) { return has_anchors && anchored[e]; };

  // One oriented sweep materializes the triangle incidence CSR over the
  // alive subgraph. Every round below touches exactly the stored pairs of
  // its dying edges — O(1) per triangle visit, never a re-walk of the two
  // endpoints' adjacency lists, which on hub-heavy graphs costs orders of
  // magnitude more than the triangle count. An edge's initial support is
  // its pair count.
  const TriangleIncidence tri = full_graph
                                    ? BuildTriangleIncidence(view)
                                    : BuildTriangleIncidence(view, alive);
  std::vector<uint32_t> support(m, 0);
  for (EdgeId e = 0; e < m; ++e) support[e] = tri.Support(e);

  // Bin-sort bucket structure over the peelable (alive, non-anchored)
  // edges: `sorted` ascending by support, pos[e] its slot, bin_start[s]
  // the first slot of support-s edges. Unlike the lazily validated bucket
  // queue of the serial engine, a decrement moves its edge in
  // O(1) (swap with its bin's front), so no stale entries exist and no
  // phase ever re-scans buckets.
  uint32_t remaining = 0;
  uint32_t max_support = 0;
  for (EdgeId e = 0; e < m; ++e) {
    if (!alive[e]) continue;
    if (is_anchored(e)) {
      out.trussness[e] = kAnchoredTrussness;  // never peeled
      continue;
    }
    ++remaining;
    max_support = std::max(max_support, support[e]);
  }

  std::vector<uint32_t> sorted(remaining);
  std::vector<uint32_t> pos(m, 0);
  std::vector<uint32_t> bin_start(max_support + 2, 0);
  for (EdgeId e = 0; e < m; ++e) {
    if (alive[e] && !is_anchored(e)) ++bin_start[support[e] + 1];
  }
  for (uint32_t s = 1; s < bin_start.size(); ++s) {
    bin_start[s] += bin_start[s - 1];
  }
  {
    std::vector<uint32_t> cursor(bin_start.begin(), bin_start.end() - 1);
    for (EdgeId e = 0; e < m; ++e) {
      if (!alive[e] || is_anchored(e)) continue;
      pos[e] = cursor[support[e]];
      sorted[pos[e]] = e;
      ++cursor[support[e]];
    }
  }

  // Invariant maintained below: slots [0, head) hold consumed edges
  // (current or past frontiers); every edge in [head, remaining) has
  // support above the current phase threshold once the phase frontier has
  // been collected, so bin boundaries at or below the threshold are never
  // consulted again.
  uint32_t head = 0;

  // Moves structure edge e one support bin down by swapping it with the
  // front of its bin. An edge that lands at or below the phase threshold
  // lands exactly at `head` (all lower bins are exhausted) and is consumed
  // by the caller.
  auto decrement_support = [&](EdgeId e) {
    const uint32_t s = support[e];
    const uint32_t slot = pos[e];
    const uint32_t front = bin_start[s];
    const uint32_t other = sorted[front];
    sorted[front] = e;
    sorted[slot] = other;
    pos[e] = front;
    pos[other] = slot;
    ++bin_start[s];
    support[e] = s - 1;
  };

  std::vector<uint8_t> queued(m, 0);
  std::vector<uint8_t> in_frontier(m, 0);
  std::vector<EdgeId> frontier;
  std::vector<EdgeId> next_frontier;
  std::vector<std::vector<EdgeId>> chunk_decrements;

  // Every peelable edge is consumed exactly once (one comparison per
  // peel, so it is checked in every build type).
  const uint32_t total = remaining;
  uint32_t k = 2;
  uint32_t peak = 2;
  while (remaining > 0) {
    const uint32_t threshold = k - 2;
    // Phase frontier: the contiguous slice of unconsumed edges in bins
    // <= threshold. bin_start[limit] is current — boundaries strictly
    // above every previous threshold are maintained by the swaps.
    frontier.clear();
    const uint32_t limit = std::min(threshold + 1, max_support + 1);
    const uint32_t bound = std::max(head, bin_start[limit]);
    for (uint32_t slot = head; slot < bound; ++slot) {
      const EdgeId e = sorted[slot];
      queued[e] = 1;
      frontier.push_back(e);
    }
    head = bound;

    uint32_t round = 1;
    while (!frontier.empty()) {
      peak = std::max(peak, k);
      for (const EdgeId e : frontier) in_frontier[e] = 1;

      // Enumerate the dying edges' triangles in parallel chunks. No shared
      // state is written except out.trussness/out.layer at the (disjoint)
      // frontier indices and the per-chunk decrement buffers.
      const int64_t n = static_cast<int64_t>(frontier.size());
      const bool fan_out = frontier.size() >= g_min_parallel_frontier;
      const int chunks = fan_out ? std::max(1, ParallelChunkCount(n)) : 1;
      if (static_cast<int>(chunk_decrements.size()) < chunks) {
        chunk_decrements.resize(chunks);
      }
      for (std::vector<EdgeId>& decs : chunk_decrements) decs.clear();
      auto process = [&](int chunk, int64_t begin, int64_t end) {
        std::vector<EdgeId>& decs = chunk_decrements[chunk];
        for (int64_t i = begin; i < end; ++i) {
          const EdgeId e = frontier[i];
          out.trussness[e] = k;
          out.layer[e] = round;
          const uint64_t* p = tri.pairs.data() + tri.offsets[e];
          const uint64_t* p_end = tri.pairs.data() + tri.offsets[e + 1];
          for (; p != p_end; ++p) {
            const EdgeId e1 = FlatHi(*p);
            const EdgeId e2 = FlatLo(*p);
            // `alive` still includes the current frontier: a triangle
            // exists for this round iff it existed at round start.
            if (!alive[e1] || !alive[e2]) continue;
            // Triangle ownership: the smallest in-frontier edge applies
            // the decrements, so a triangle losing several edges in one
            // round decrements each survivor exactly once — the same net
            // effect the serial peel's first-death-scans rule produces.
            if ((in_frontier[e1] && e1 < e) || (in_frontier[e2] && e2 < e)) {
              continue;
            }
            if (!in_frontier[e1] && !is_anchored(e1)) decs.push_back(e1);
            if (!in_frontier[e2] && !is_anchored(e2)) decs.push_back(e2);
          }
        }
      };
      if (fan_out) {
        ParallelForChunked(n, process);
      } else {
        process(0, 0, n);
      }

      // Fold on one thread in chunk index order: the folded supports — and
      // with them the next frontier's membership — are identical at any
      // chunk count. Once an edge is queued its result is forced, so
      // further decrements are skipped — they would only churn the (never
      // again consulted) sub-threshold bins.
      next_frontier.clear();
      for (int c = 0; c < chunks; ++c) {
        for (const EdgeId partner : chunk_decrements[c]) {
          if (queued[partner]) continue;
          ATR_DCHECK(support[partner] > 0);
          decrement_support(partner);
          if (support[partner] <= threshold) {
            ATR_DCHECK(pos[partner] == head);
            queued[partner] = 1;
            next_frontier.push_back(partner);
            ++head;
          }
        }
      }

      // Retire the batch only after every triangle check has run.
      for (const EdgeId e : frontier) {
        alive[e] = 0;
        queued[e] = 0;
        in_frontier[e] = 0;
      }
      remaining -= static_cast<uint32_t>(frontier.size());
      frontier.swap(next_frontier);
      ++round;
    }
    ++k;
  }
  ATR_CHECK(head == total);
  out.max_trussness = peak;
  return out;
}

}  // namespace

TrussDecomposition ComputeTrussDecompositionFlat(
    const Graph& g, const FlatGraphView& view,
    const std::vector<bool>& anchored) {
  ATR_CHECK(anchored.empty() || anchored.size() == g.NumEdges());
  ATR_CHECK(view.num_edges == g.NumEdges());
  std::vector<uint8_t> alive(g.NumEdges(), 1);
  return PeelFlat(view, anchored, std::move(alive), /*full_graph=*/true);
}

TrussDecomposition ComputeTrussDecompositionFlat(
    const Graph& g, const std::vector<bool>& anchored) {
  return ComputeTrussDecompositionFlat(g, FlatGraphView::Build(g), anchored);
}

TrussDecomposition ComputeTrussDecompositionOnSubsetFlat(
    const Graph& g, const FlatGraphView& view,
    const std::vector<bool>& anchored,
    const std::vector<EdgeId>& edge_subset) {
  ATR_CHECK(anchored.empty() || anchored.size() == g.NumEdges());
  ATR_CHECK(view.num_edges == g.NumEdges());
  std::vector<uint8_t> alive(g.NumEdges(), 0);
  size_t alive_count = 0;
  for (const EdgeId e : edge_subset) {
    ATR_CHECK(e < g.NumEdges());
    if (!alive[e]) ++alive_count;
    alive[e] = 1;
  }
  return PeelFlat(view, anchored, std::move(alive),
                  /*full_graph=*/alive_count == g.NumEdges());
}

TrussDecomposition ComputeTrussDecompositionOnSubsetFlat(
    const Graph& g, const std::vector<bool>& anchored,
    const std::vector<EdgeId>& edge_subset) {
  return ComputeTrussDecompositionOnSubsetFlat(g, FlatGraphView::Build(g),
                                               anchored, edge_subset);
}

namespace internal {

size_t ParallelPeelMinFrontier() { return g_min_parallel_frontier; }

size_t SetParallelPeelMinFrontierForTest(size_t min_frontier) {
  const size_t previous = g_min_parallel_frontier;
  g_min_parallel_frontier = min_frontier;
  return previous;
}

}  // namespace internal

}  // namespace atr
