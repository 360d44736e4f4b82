// Seeded benchmark inputs and their fingerprints.
//
// Everything a run feeds the server is generated here from the workload
// seed: the catalog graphs (MakeSocialProfile with a seed derived per
// graph), the serve-mix request streams, and the update-stream delta
// sequence. Deltas are generated against the version they will target,
// so no delta holds a self-loop, an edge that is already present, a
// duplicate pair, or an absent edge to remove: no update can fail by
// construction.
//
// Each input has a 64-bit FNV-1a fingerprint. A run prints them all as its
// input digest, so two runs (parent and change) can be shown to have fed
// the program identical inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/prng.h"

namespace perfbench {

// FNV-1a over little-endian words.
class Fingerprint {
 public:
  void Add(uint64_t word);
  void Add(const std::string& text);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// |V|, |E| and the edge list (in edge-id order) of a graph.
uint64_t GraphFingerprint(const atr::Graph& graph);
uint64_t DeltaFingerprint(const std::vector<atr::GraphDelta>& deltas);

// Independent sub-seed `index` of a workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t index);

struct CatalogGraph {
  std::string name;     // served name, e.g. "pokec-a"
  std::string profile;  // MakeSocialProfile profile name
  double scale = 0.0;
  uint64_t seed = 0;
  uint64_t fingerprint = 0;  // GraphFingerprint at creation
  atr::Graph graph;

  // Frees the graph, so the timed window holds only the server's copy.
  void Release();
  // Rebuilds a released graph from its seed; false when the result's
  // fingerprint differs from the one recorded at creation.
  bool Regenerate();
};

CatalogGraph MakeCatalogGraph(const std::string& name,
                              const std::string& profile, double scale,
                              uint64_t seed);

// The ingest path: a fresh CSR built by GraphBuilder from `graph`'s edge
// list (edge ids come out identical).
atr::Graph Reingest(const atr::Graph& graph);

// The present-edge set of one evolving graph version. Generates deltas
// that are valid against the current version and applies them. Kept
// compact (one open-addressing table of 8-byte keys, at most half full) so
// a generator held through the timed window adds little to the process's
// resident set.
class EdgeSet {
 public:
  explicit EdgeSet(const atr::Graph& graph);

  // `removes` present edges and `adds` absent vertex pairs, all distinct,
  // drawn uniformly; the delta is applied to this set before returning.
  atr::GraphDelta NextDelta(atr::Rng& rng, uint32_t removes, uint32_t adds);
  void Apply(const atr::GraphDelta& delta);
  size_t size() const { return size_; }

  // The version as a graph; edge ids match Graph::ApplyEdits' numbering
  // (ids are assigned in sorted (u, v) order on both paths).
  atr::Graph ToGraph() const;

 private:
  // Keys are u << 32 | v with u < v, so 0 marks an empty slot.
  static uint64_t Key(uint32_t u, uint32_t v);
  size_t Home(uint64_t key) const;
  // The key's slot, or the empty slot where it would go.
  size_t Find(uint64_t key) const;
  bool Contains(uint64_t key) const { return slots_[Find(key)] != 0; }
  void Insert(uint64_t key);
  void Erase(uint64_t key);

  uint32_t num_vertices_ = 0;
  size_t size_ = 0;
  std::vector<uint64_t> slots_;  // linear probing, power-of-two size
};

// `count` deltas of `removes` present edges and `adds` absent pairs, each
// valid against the version the ones before it produce from `graph`.
std::vector<atr::GraphDelta> MakeDeltaStream(const atr::Graph& graph,
                                             uint64_t seed, size_t count,
                                             uint32_t removes, uint32_t adds);

// One serve-mix request.
struct MixRequest {
  uint32_t graph = 0;     // catalog rank, 0 = most popular
  uint32_t instance = 0;  // which seeded instance of that graph
  uint32_t tenant = 0;    // 0..kMixTenants-1
  bool randomized = false;  // "rand" (8 trials) instead of "gas"
  uint32_t budget = 1;
};

inline constexpr uint32_t kMixTenants = 4;

// An endless request stream: Zipf(1.1) over `graphs` catalog ranks, a
// uniform instance of the chosen rank, a uniform tenant, budget uniform in
// 1..4, and 10% randomized baselines. Drawn one request at a time, so a
// run holds none it does not issue.
class MixStream {
 public:
  MixStream(uint64_t seed, uint32_t graphs, uint32_t instances);
  MixRequest Next();

 private:
  std::vector<double> cdf_;
  uint32_t instances_;
  atr::Rng rng_;
};

// Fingerprint of the first `count` requests of MixStream(seed, ...).
uint64_t MixStreamFingerprint(uint64_t seed, uint32_t graphs,
                              uint32_t instances, size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
