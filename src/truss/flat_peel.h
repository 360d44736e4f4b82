// Flat SoA truss peel — the production decomposition engine behind every
// ComputeTrussDecomposition* entry point (truss/decomposition.h).
//
// The paper defines deletion layers L^i_k by *batch* peeling rounds
// (Definition 5): round r of phase k removes every surviving edge whose
// support dropped to <= k-2 after the removals of rounds 1..r-1. Within
// one round no removed edge observes another's removal, so a round is a
// data-parallel unit: its frontier is processed in chunks that record
// triangle-support decrements into per-chunk buffers, folded on one thread
// in chunk index order. Decrements are commutative counts, frontier
// membership depends only on the folded supports, and (k, round)
// assignment is position-independent within a round, so the result —
// trussness, layer, max_trussness — is byte-identical to the serial
// Algorithm 1 peel (ComputeTrussDecompositionSerial) at ANY worker count.
// tests/parallel_decomposition_test.cc asserts this across a thread sweep.
//
// The engine runs on MaxTruss-style flat buffers:
//
//  * adjacency and oriented half-edges packed into zipped uint64_t arrays
//    (graph/flat_view.h) — one forward oriented sweep intersects raw
//    words (no FindEdge binary searches) and materializes the triangle
//    incidence CSR: per edge, its triangles' other two edge ids zipped
//    into uint64_t pairs. Peel rounds then touch exactly the stored pairs
//    of their dying edges — O(1) per triangle visit — instead of
//    re-intersecting the endpoints' adjacency lists, which on hub-heavy
//    graphs costs orders of magnitude more than the triangle count;
//  * edge support / edge id in flat SoA arrays ordered by a bin-sort
//    bucket structure (sorted / pos / bin_start): a support decrement is
//    an O(1) swap with its bin's front, and each phase's frontier is a
//    contiguous slice — no per-round bucket re-scan like the serial
//    engine's scan of buckets[0..threshold].

#ifndef ATR_TRUSS_FLAT_PEEL_H_
#define ATR_TRUSS_FLAT_PEEL_H_

#include <cstddef>
#include <vector>

#include "graph/flat_view.h"
#include "graph/graph.h"
#include "truss/decomposition.h"

namespace atr {

// Flat-engine counterpart of ComputeTrussDecompositionSerial. Builds a
// FlatGraphView internally; callers that decompose the same snapshot
// repeatedly should build one view and use the overload below.
TrussDecomposition ComputeTrussDecompositionFlat(
    const Graph& g, const std::vector<bool>& anchored);

// As above with a prebuilt view; `view` must be FlatGraphView::Build(g)
// of this exact graph.
TrussDecomposition ComputeTrussDecompositionFlat(
    const Graph& g, const FlatGraphView& view,
    const std::vector<bool>& anchored);

// Flat-engine counterpart of ComputeTrussDecompositionOnSubsetSerial:
// edges outside `edge_subset` keep kTrussnessNotComputed.
TrussDecomposition ComputeTrussDecompositionOnSubsetFlat(
    const Graph& g, const std::vector<bool>& anchored,
    const std::vector<EdgeId>& edge_subset);

TrussDecomposition ComputeTrussDecompositionOnSubsetFlat(
    const Graph& g, const FlatGraphView& view,
    const std::vector<bool>& anchored,
    const std::vector<EdgeId>& edge_subset);

namespace internal {

// Frontier size below which a peel round runs inline: spawning worker
// threads for a handful of edges costs more than the work itself.
size_t ParallelPeelMinFrontier();

// The differential tests lower the cutoff to 1 to force the fan-out path
// on small graphs. Returns the previous value.
size_t SetParallelPeelMinFrontierForTest(size_t min_frontier);

}  // namespace internal

}  // namespace atr

#endif  // ATR_TRUSS_FLAT_PEEL_H_
