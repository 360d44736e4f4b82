// Fuzz harness for the text edge-list loader and the streaming-update
// path through a full AtrService: hostile bytes become (1) an edge-list
// file fed to LoadSnapEdgeList, (2) a wire UpdateGraphRequest decoded and
// applied, and (3) a raw GraphDelta applied through UpdateGraph so the
// incremental truss maintenance behind version publication runs on every
// mutation. Pass criterion: malformed input comes back as a Status error
// — never a crash, never a sanitizer report, never unbounded growth (the
// harness re-seeds the service graph when edits accumulate).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/service.h"
#include "graph/edge_list_io.h"
#include "graph/graph.h"
#include "net/wire.h"

#include "fuzz/standalone_driver.h"

using namespace atr;

namespace {

constexpr char kGraphName[] = "g";

Graph SeedGraph() {
  GraphBuilder builder;
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) {
      if ((u * 3 + v) % 5 != 0) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

AtrService& Service() {
  static AtrService* service = [] {
    AtrService::Options options;
    options.workers = 1;
    auto* s = new AtrService(options);
    if (!s->AddGraph(kGraphName, SeedGraph()).ok()) std::abort();
    return s;
  }();
  return *service;
}

// Applying adds forever would grow the graph without bound; re-seed once
// the topology drifts far from the base.
void ReseedIfLarge(AtrService& service) {
  StatusOr<AtrService::GraphInfo> info = service.Info(kGraphName);
  if (info.ok() && (info->num_edges > 512 || info->num_vertices > 256)) {
    (void)service.RemoveGraph(kGraphName);
    if (!service.AddGraph(kGraphName, SeedGraph()).ok()) std::abort();
  }
}

// Interprets the raw bytes as a small GraphDelta: byte triples
// (op, u, v) with vertex ids folded into [0, 64) so a healthy fraction
// of edits is valid and the incremental maintenance really runs.
GraphDelta DeltaFromBytes(std::span<const uint8_t> bytes) {
  GraphDelta delta;
  for (size_t i = 0; i + 2 < bytes.size() && i < 3 * 24; i += 3) {
    const VertexId u = bytes[i + 1] % 64;
    const VertexId v = bytes[i + 2] % 64;
    if (bytes[i] % 2 == 0) {
      delta.add.push_back({u, v});
    } else {
      delta.remove.push_back({u, v});
    }
  }
  return delta;
}

void WriteTempFile(const std::string& path, std::span<const uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) std::abort();
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> bytes(data, size);

  // 1) Text edge-list loader (path-based, so the bytes go through a file).
  static const std::string path =
      "/tmp/atr_fuzz_service_" + std::to_string(::getpid()) + ".txt";
  WriteTempFile(path, bytes);
  // Dropped on purpose: only crash-safety of the loader is under test.
  (void)LoadSnapEdgeList(path);

  AtrService& service = Service();
  ReseedIfLarge(service);

  // 2) Hostile wire bytes: most fail Decode; the survivors must apply (or
  //    reject) cleanly through the service.
  if (StatusOr<net::UpdateGraphRequest> request =
          net::UpdateGraphRequest::Decode(bytes);
      request.ok()) {
    // A decoded delta may reference absurd vertex ids or huge edit lists;
    // only size is capped here — validation is ApplyEdits' job.
    if (request->delta.add.size() + request->delta.remove.size() <= 256) {
      // A rejected hostile delta is a pass, not a failure to report.
      (void)service.UpdateGraph(kGraphName, request->delta);
    }
  }

  // 3) Raw-interpreted delta: dense valid mutations so every iteration
  //    drives Graph::ApplyEdits + incremental truss maintenance.
  // Dropped on purpose: both accept and reject are valid outcomes here.
  (void)service.UpdateGraph(kGraphName, DeltaFromBytes(bytes));

  // Periodically solve on the mutated snapshot: the published version
  // must always be a decomposition a solver can run on.
  static uint64_t iteration = 0;
  if (++iteration % 64 == 0) {
    SolverOptions options;
    options.budget = 1;
    if (StatusOr<JobHandle> job = service.Submit(kGraphName, "gas", options);
        job.ok()) {
      (void)job->Wait();  // only completion matters; the result is discarded
    }
  }
  return 0;
}

std::vector<std::vector<uint8_t>> FuzzSeedCorpus() {
  std::vector<std::vector<uint8_t>> corpus;

  // A well-formed SNAP-style edge list with comments and blank lines.
  const std::string edge_list =
      "# Nodes: 5 Edges: 6\n"
      "0 1\n"
      "0\t2\n"
      "1 2\n"
      "\n"
      "2 3\n"
      "3 4\n"
      "1 4\n";
  corpus.emplace_back(edge_list.begin(), edge_list.end());

  // A valid UpdateGraphRequest wire frame payload.
  {
    net::UpdateGraphRequest request;
    request.request_id = 7;
    request.graph = kGraphName;
    request.delta.add = {{0, 9}, {9, 10}};
    request.delta.remove = {{0, 1}};
    const std::vector<uint8_t> frame = request.EncodeFrame();
    corpus.push_back(frame);
    // Also seed the bare payload (what Decode actually consumes).
    net::FrameParser parser;
    parser.Feed(frame.data(), frame.size());
    if (std::optional<net::Frame> parsed = parser.Next()) {
      corpus.push_back(parsed->payload);
    }
  }

  // Raw delta triples: (op, u, v) bytes for DeltaFromBytes.
  corpus.push_back({0, 1, 9, 0, 9, 17, 1, 0, 1, 0, 3, 3, 1, 60, 61});

  return corpus;
}
