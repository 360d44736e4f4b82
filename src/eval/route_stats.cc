#include "eval/route_stats.h"

#include <algorithm>

#include "graph/triangle_index.h"
#include "route/follower_search.h"
#include "util/parallel_for.h"

namespace atr {

std::vector<uint32_t> ComputeAllRouteSizes(const Graph& g,
                                           const TrussDecomposition& decomp) {
  // One triangle index shared read-only by every worker's search.
  const TriangleIncidence triangles = BuildTriangleIncidence(g);
  std::vector<uint32_t> sizes(g.NumEdges(), 0);
  ParallelFor(g.NumEdges(), [&](int64_t begin, int64_t end) {
    FollowerSearch search(g, triangles);
    search.SetState(&decomp, nullptr);
    for (int64_t i = begin; i < end; ++i) {
      sizes[i] = search.RouteSize(static_cast<EdgeId>(i));
    }
  });
  return sizes;
}

RouteSizeStats SummarizeRouteSizes(const std::vector<uint32_t>& sizes) {
  RouteSizeStats stats;
  if (sizes.empty()) return stats;
  stats.min_size = sizes.front();
  for (uint32_t s : sizes) {
    stats.min_size = std::min(stats.min_size, s);
    stats.max_size = std::max(stats.max_size, s);
    stats.sum_size += s;
  }
  stats.average_size =
      static_cast<double>(stats.sum_size) / static_cast<double>(sizes.size());
  return stats;
}

}  // namespace atr
