#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "graph/generators/social_profiles.h"
#include "util/macros.h"

namespace perfbench {

using atr::EdgeEndpoints;
using atr::Graph;
using atr::GraphDelta;

void Fingerprint::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::Add(const std::string& text) {
  Add(text.size());
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

uint64_t GraphFingerprint(const Graph& graph) {
  Fingerprint fp;
  fp.Add(graph.NumVertices());
  fp.Add(graph.NumEdges());
  for (const EdgeEndpoints& e : graph.edges()) {
    fp.Add((static_cast<uint64_t>(e.u) << 32) | e.v);
  }
  return fp.value();
}

uint64_t DeltaFingerprint(const std::vector<GraphDelta>& deltas) {
  Fingerprint fp;
  fp.Add(deltas.size());
  for (const GraphDelta& delta : deltas) {
    fp.Add(delta.add.size());
    for (const EdgeEndpoints& e : delta.add) {
      fp.Add((static_cast<uint64_t>(e.u) << 32) | e.v);
    }
    fp.Add(delta.remove.size());
    for (const EdgeEndpoints& e : delta.remove) {
      fp.Add((static_cast<uint64_t>(e.u) << 32) | e.v);
    }
  }
  return fp.value();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + index;
  return atr::SplitMix64(state);
}

CatalogGraph MakeCatalogGraph(const std::string& name,
                              const std::string& profile, double scale,
                              uint64_t seed) {
  CatalogGraph g{name, profile, scale, seed, 0,
                 atr::MakeSocialProfile(profile, scale, seed)};
  g.fingerprint = GraphFingerprint(g.graph);
  return g;
}

void CatalogGraph::Release() { graph = Graph(); }

bool CatalogGraph::Regenerate() {
  graph = atr::MakeSocialProfile(profile, scale, seed);
  return GraphFingerprint(graph) == fingerprint;
}

Graph Reingest(const Graph& graph) {
  atr::GraphBuilder csr(graph.NumVertices());
  for (const EdgeEndpoints& e : graph.edges()) csr.AddEdge(e.u, e.v);
  return csr.Build();
}

namespace {

// Murmur3's 64-bit finalizer.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// The smallest power of two that holds `keys` at most half full.
size_t TableSize(size_t keys) {
  size_t slots = 16;
  while (slots < 2 * keys) slots <<= 1;
  return slots;
}

}  // namespace

EdgeSet::EdgeSet(const Graph& graph)
    : num_vertices_(graph.NumVertices()),
      slots_(TableSize(graph.NumEdges()), 0) {
  for (const EdgeEndpoints& e : graph.edges()) Insert(Key(e.u, e.v));
}

uint64_t EdgeSet::Key(uint32_t u, uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

size_t EdgeSet::Home(uint64_t key) const {
  return Mix(key) & (slots_.size() - 1);
}

size_t EdgeSet::Find(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = Home(key);
  while (slots_[slot] != 0 && slots_[slot] != key) slot = (slot + 1) & mask;
  return slot;
}

void EdgeSet::Insert(uint64_t key) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<uint64_t> old(2 * slots_.size(), 0);
    old.swap(slots_);
    for (const uint64_t k : old) {
      if (k != 0) slots_[Find(k)] = k;
    }
  }
  const size_t slot = Find(key);
  ATR_CHECK(slots_[slot] == 0);
  slots_[slot] = key;
  ++size_;
}

void EdgeSet::Erase(uint64_t key) {
  const size_t mask = slots_.size() - 1;
  size_t hole = Find(key);
  ATR_CHECK(slots_[hole] == key);
  // Backward-shift deletion: a later key of the same probe run moves into
  // the hole unless its home slot lies cyclically in (hole, j].
  for (size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const size_t home = Home(slots_[j]);
    const bool stays =
        hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (!stays) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
  --size_;
}

GraphDelta EdgeSet::NextDelta(atr::Rng& rng, uint32_t removes,
                              uint32_t adds) {
  ATR_CHECK(num_vertices_ >= 2 && size_ > removes);
  GraphDelta delta;
  // Removes first, drawn uniformly from the present set by probing random
  // slots until one is occupied; erasing as we go keeps them distinct.
  for (uint32_t i = 0; i < removes; ++i) {
    uint64_t key = 0;
    while (key == 0) key = slots_[rng.NextBounded(slots_.size())];
    delta.remove.push_back(
        EdgeEndpoints{static_cast<uint32_t>(key >> 32),
                      static_cast<uint32_t>(key & 0xffffffffu)});
    Erase(key);
  }
  // Adds: absent pairs that were not removed by this same delta (an edge
  // both added and removed in one delta is rejected by ApplyEdits).
  std::vector<uint64_t> removed;
  for (const EdgeEndpoints& e : delta.remove) removed.push_back(Key(e.u, e.v));
  while (delta.add.size() < adds) {
    const uint32_t u = static_cast<uint32_t>(rng.NextBounded(num_vertices_));
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(num_vertices_));
    if (u == v) continue;
    const uint64_t key = Key(u, v);
    if (Contains(key) ||
        std::find(removed.begin(), removed.end(), key) != removed.end()) {
      continue;
    }
    delta.add.push_back(EdgeEndpoints{static_cast<uint32_t>(key >> 32),
                                      static_cast<uint32_t>(key)});
    Insert(key);
  }
  return delta;
}

void EdgeSet::Apply(const GraphDelta& delta) {
  for (const EdgeEndpoints& e : delta.remove) Erase(Key(e.u, e.v));
  for (const EdgeEndpoints& e : delta.add) Insert(Key(e.u, e.v));
}

Graph EdgeSet::ToGraph() const {
  atr::GraphBuilder csr(num_vertices_);
  for (const uint64_t key : slots_) {
    if (key != 0) {
      csr.AddEdge(static_cast<uint32_t>(key >> 32), static_cast<uint32_t>(key));
    }
  }
  return csr.Build();
}

std::vector<GraphDelta> MakeDeltaStream(const Graph& graph, uint64_t seed,
                                        size_t count, uint32_t removes,
                                        uint32_t adds) {
  EdgeSet edges(graph);
  atr::Rng rng(seed);
  std::vector<GraphDelta> deltas;
  deltas.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    deltas.push_back(edges.NextDelta(rng, removes, adds));
  }
  return deltas;
}

MixStream::MixStream(uint64_t seed, uint32_t graphs, uint32_t instances)
    : cdf_(graphs), instances_(instances), rng_(seed) {
  double total = 0.0;
  for (uint32_t i = 0; i < graphs; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

MixRequest MixStream::Next() {
  MixRequest request;
  const double pick = rng_.NextDouble();
  request.graph = static_cast<uint32_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), pick) - cdf_.begin());
  request.graph = std::min(request.graph, static_cast<uint32_t>(cdf_.size() - 1));
  request.instance = static_cast<uint32_t>(rng_.NextBounded(instances_));
  request.tenant = static_cast<uint32_t>(rng_.NextBounded(kMixTenants));
  request.budget = 1 + static_cast<uint32_t>(rng_.NextBounded(4));
  request.randomized = rng_.NextBounded(10) == 0;
  return request;
}

uint64_t MixStreamFingerprint(uint64_t seed, uint32_t graphs,
                              uint32_t instances, size_t count) {
  MixStream stream(seed, graphs, instances);
  Fingerprint fp;
  fp.Add(count);
  for (size_t i = 0; i < count; ++i) {
    const MixRequest r = stream.Next();
    fp.Add((static_cast<uint64_t>(r.graph) << 48) |
           (static_cast<uint64_t>(r.instance) << 40) |
           (static_cast<uint64_t>(r.tenant) << 24) |
           (static_cast<uint64_t>(r.budget) << 1) | (r.randomized ? 1 : 0));
  }
  return fp.value();
}

}  // namespace perfbench
