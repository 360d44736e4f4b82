// Deterministic data-parallel loop used by the embarrassingly parallel
// pieces of the harness (Exact subset enumeration, randomized-baseline
// trials) and by the round-synchronous parallel truss peel. Work is split
// into fixed contiguous chunks per worker so results folded per-chunk in
// index order are reproducible regardless of thread scheduling.

#ifndef ATR_UTIL_PARALLEL_FOR_H_
#define ATR_UTIL_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace atr {

// Number of workers ParallelFor uses: an active ScopedParallelism override
// on the calling thread, else the ATR_THREADS env override, else
// hardware_concurrency(), at least 1. Inside a ParallelFor worker body this
// returns 1 — nested data-parallel calls run inline instead of
// oversubscribing with a second level of thread fan-out.
int ParallelWorkerCount();

// RAII worker-count override for ParallelFor calls made from the
// constructing thread (FairScheduler workers install one per job; callers
// of atr::Solve may install their own). A non-positive `threads` leaves
// the current setting untouched; overrides nest and are restored in
// destruction order.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(int threads);
  ~ScopedParallelism();

  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;

 private:
  int previous_;
};

// Invokes `body(begin, end)` over a partition of [0, n) into at most
// `ParallelWorkerCount()` contiguous chunks, one thread per chunk. `body`
// must be safe to call concurrently on disjoint ranges. Runs inline when n
// is small or only one worker is available.
void ParallelFor(int64_t n,
                 const std::function<void(int64_t begin, int64_t end)>& body);

// The number of chunks the chunked variant below will partition [0, n)
// into if called right now from this thread: one non-empty chunk per
// effective worker, i.e. min(ParallelWorkerCount(), n), or 0 when n <= 0.
// Callers size per-chunk accumulation buffers with this before fanning
// out.
int ParallelChunkCount(int64_t n);

// Same partition as ParallelFor, additionally passing the chunk's ordinal
// (0-based, dense, in ascending `begin` order) so the body can write into
// per-chunk buffers that the caller folds in chunk order afterwards — the
// deterministic-reduction pattern: the fold sees the same sequence of
// contributions for a given worker count no matter how the chunks were
// scheduled. The partition is balanced (chunk lengths differ by at most
// one) and covers [0, n) with ParallelChunkCount(n) non-empty chunks.
// Runs inline as chunk 0 when only one worker is available.
void ParallelForChunked(
    int64_t n,
    const std::function<void(int chunk, int64_t begin, int64_t end)>& body);

}  // namespace atr

#endif  // ATR_UTIL_PARALLEL_FOR_H_
