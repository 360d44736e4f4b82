// Self-test of the benchmark's own helpers: the percentile rules, the input
// digests and the input generators. Run through
// `python3 perfbench/run.py --selftest`, or directly as
// .bench_build/perfbench_selftest. Exits nonzero on failure.

#include <cmath>
#include <cstdio>
#include <vector>

#include "inputs.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestQuartiles() {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Summary s = Summarize({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  Expect(s.count == 10, "count");
  Expect(Near(s.q1, 2.75), "q1 of 1..10");
  Expect(Near(s.median, 5.5), "median of 1..10");
  Expect(Near(s.q3, 8.25), "q3 of 1..10");
  Expect(Near(Summarize({4, 1, 3}).median, 3.0), "odd median");
  Expect(Near(Summarize({7}).median, 7.0), "single sample");
  Expect(Summarize({}).count == 0, "empty summary");
}

void TestTailRule() {
  // p99 needs 10 samples beyond it: 999 samples have 9, 1000 have 10.
  Expect(!TailPercentile(Range(999), 0.99).has_value(), "p99 of 999 left out");
  const std::optional<double> p99 = TailPercentile(Range(1000), 0.99);
  Expect(p99.has_value(), "p99 of 1000 reported");
  Expect(p99.has_value() && Near(*p99, 990.99), "p99 of 1..1000");
  Expect(!TailPercentile(Range(99), 0.9).has_value(), "p90 of 99 left out");
  Expect(TailPercentile(Range(100), 0.9).has_value(), "p90 of 100 reported");
  Expect(!TailPercentile({}, 0.5).has_value(), "empty tail");
}

void TestRatio() {
  const Ratio r{3, 4};
  Expect(Near(r.value(), 0.75), "ratio value");
  Expect(r.Describe("jobs") == "0.7500 (3/4 jobs)", "ratio prints its base");
  Expect(Near(Ratio{1, 0}.value(), 0.0), "ratio over zero");
}

// The digest of every input a workload feeds the server.
uint64_t InputDigest(uint64_t seed) {
  Fingerprint fp;
  const CatalogGraph g =
      MakeCatalogGraph("g", "college", 0.1, DeriveSeed(seed, 1));
  fp.Add(GraphFingerprint(g.graph));
  fp.Add(MixStreamFingerprint(DeriveSeed(seed, 2), 6, 3, 500));
  fp.Add(DeltaFingerprint(MakeDeltaStream(g.graph, DeriveSeed(seed, 3), 50, 8, 8)));
  return fp.value();
}

void TestDigest() {
  Expect(InputDigest(1) == InputDigest(1), "same seed, same digest");
  Expect(InputDigest(1) != InputDigest(2), "different seed, different digest");
}

void TestDeltasValid() {
  // Every delta applies cleanly to the version it targets, keeps |E|, and
  // the replayed edge set equals the applied graph.
  const CatalogGraph g = MakeCatalogGraph("g", "college", 0.1, 5);
  EdgeSet edges(g.graph);
  atr::Rng rng(9);
  atr::Graph current = g.graph;
  bool ok = true;
  for (int i = 0; i < 200 && ok; ++i) {
    const atr::GraphDelta delta = edges.NextDelta(rng, 8, 8);
    atr::StatusOr<atr::GraphEditResult> next = current.ApplyEdits(delta);
    ok = next.ok() && next->added_edges.size() == delta.add.size() &&
         next->graph.NumEdges() == g.graph.NumEdges();
    if (ok) current = std::move(next->graph);
  }
  Expect(ok, "generated deltas apply cleanly");
  Expect(GraphFingerprint(current) == GraphFingerprint(edges.ToGraph()),
         "edge set replay matches ApplyEdits");
  Expect(edges.size() == g.graph.NumEdges(), "edge set keeps |E|");
}

void TestEdgeSetGrowth() {
  // Far more adds than the table was sized for: it grows, and every edge
  // survives the rehash and the removals that follow.
  const CatalogGraph g = MakeCatalogGraph("g", "college", 0.05, 3);
  EdgeSet edges(g.graph);
  atr::Rng rng(4);
  atr::Graph current = g.graph;
  bool ok = true;
  for (int i = 0; i < 40 && ok; ++i) {
    const atr::GraphDelta delta = edges.NextDelta(rng, i % 2 ? 30 : 1, 60);
    atr::StatusOr<atr::GraphEditResult> next = current.ApplyEdits(delta);
    ok = next.ok();
    if (ok) current = std::move(next->graph);
  }
  Expect(ok, "deltas on a growing edge set apply cleanly");
  Expect(edges.size() == current.NumEdges(), "grown edge set counts |E|");
  Expect(GraphFingerprint(current) == GraphFingerprint(edges.ToGraph()),
         "grown edge set matches ApplyEdits");
}

void TestRegenerate() {
  CatalogGraph g = MakeCatalogGraph("g", "college", 0.1, DeriveSeed(7, 1));
  const uint64_t before = GraphFingerprint(g.graph);
  g.Release();
  Expect(g.graph.NumEdges() == 0, "released graph is empty");
  Expect(g.Regenerate(), "regenerated graph matches its fingerprint");
  Expect(GraphFingerprint(g.graph) == before, "regenerated graph is the same");
  g.seed += 1;
  Expect(!g.Regenerate(), "another seed does not match the fingerprint");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuartiles();
  perfbench::TestTailRule();
  perfbench::TestRatio();
  perfbench::TestDigest();
  perfbench::TestDeltasValid();
  perfbench::TestEdgeSetGrowth();
  perfbench::TestRegenerate();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
