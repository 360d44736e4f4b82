// Tests for the durable catalog (src/persist/): snapshot encode/decode
// with corruption rejection, delta-log crash-tail tolerance, the
// CatalogStore disk layout (base ⊕ log, compaction crash-safety windows),
// and the PersistentCatalog restart-resume contract — a new process
// serves every graph at its latest version, byte-identical decomposition,
// zero rebuilds.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "graph/generators/generators.h"
#include "persist/catalog.h"
#include "persist/delta_log.h"
#include "persist/snapshot.h"
#include "truss/decomposition.h"
#include "util/binary_io.h"

namespace atr {
namespace persist {
namespace {

Graph SmallGraph(uint64_t seed = 7) { return HolmeKimGraph(40, 3, 0.6, seed); }

// A fresh directory under the gtest temp root for each test.
std::string FreshRoot(const char* name) {
  const std::string root = std::string(::testing::TempDir()) + "/" + name;
  std::system(("rm -rf " + root).c_str());
  return root;
}

void ExpectSameDecomposition(const TrussDecomposition& a,
                             const TrussDecomposition& b) {
  EXPECT_EQ(a.max_trussness, b.max_trussness);
  ASSERT_EQ(a.trussness.size(), b.trussness.size());
  ASSERT_EQ(a.layer.size(), b.layer.size());
  EXPECT_EQ(a.trussness, b.trussness);
  EXPECT_EQ(a.layer, b.layer);
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    EXPECT_EQ(a.Edge(e), b.Edge(e)) << "edge id " << e;
  }
}

// --- Snapshot codec -------------------------------------------------------

TEST(Snapshot, RoundTripsGraphNameVersionAndDecomposition) {
  const Graph g = SmallGraph();
  const TrussDecomposition decomposition = ComputeTrussDecomposition(g);

  const std::vector<uint8_t> bytes = EncodeSnapshot("g1", 5, g, decomposition);
  StatusOr<SnapshotRecord> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();

  EXPECT_EQ(decoded->graph_name, "g1");
  EXPECT_EQ(decoded->version, 5u);
  ExpectSameGraph(decoded->graph, g);
  ExpectSameDecomposition(decoded->decomposition, decomposition);
}

TEST(Snapshot, RejectsCorruptionEverywhere) {
  const Graph g = SmallGraph();
  const TrussDecomposition decomposition = ComputeTrussDecomposition(g);
  const std::vector<uint8_t> bytes = EncodeSnapshot("g", 1, g, decomposition);

  // Flipping any single byte must be caught (magic, header fields, or the
  // payload CRC), never crash. Sample every 7th offset to keep it fast.
  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x20;
    StatusOr<SnapshotRecord> decoded = DecodeSnapshot(corrupt);
    EXPECT_FALSE(decoded.ok()) << "byte " << i << " flip went unnoticed";
  }

  // Truncation at every prefix length (sampled) is an error, not a crash.
  for (size_t len = 0; len < bytes.size(); len += 11) {
    StatusOr<SnapshotRecord> decoded =
        DecodeSnapshot(std::span<const uint8_t>(bytes.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix " << len;
  }

  // Trailing garbage is rejected too.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(DecodeSnapshot(padded).ok());
}

TEST(Snapshot, RejectsSentinelTrussnessFromDisk) {
  const Graph g = SmallGraph();
  TrussDecomposition decomposition = ComputeTrussDecomposition(g);
  decomposition.trussness[0] = kTrussnessNotComputed;
  const std::vector<uint8_t> bytes = EncodeSnapshot("g", 1, g, decomposition);
  StatusOr<SnapshotRecord> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(Snapshot, WriteFileAtomicRoundTrip) {
  const std::string root = FreshRoot("snapshot_io");
  ASSERT_TRUE(CatalogStore(root).Init().ok());
  const std::string path = root + "/blob.bin";

  const std::vector<uint8_t> payload = {1, 2, 3, 250, 251, 252};
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  StatusOr<std::vector<uint8_t>> read = ReadFileBytes(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);

  EXPECT_EQ(ReadFileBytes(root + "/absent.bin").status().code(),
            StatusCode::kNotFound);
}

// --- Delta log ------------------------------------------------------------

GraphDelta MakeDelta(uint32_t salt) {
  GraphDelta delta;
  delta.add = {{salt, salt + 100}, {salt + 1, salt + 101}};
  delta.remove = {{salt + 2, salt + 102}};
  return delta;
}

TEST(DeltaLog, RoundTripsRecords) {
  std::vector<uint8_t> log;
  for (uint32_t i = 0; i < 4; ++i) {
    const std::vector<uint8_t> record = EncodeDeltaRecord(2 + i, MakeDelta(i));
    log.insert(log.end(), record.begin(), record.end());
  }
  const DeltaLogContents contents = DecodeDeltaLog(log);
  EXPECT_EQ(contents.tail_bytes_dropped, 0u);
  ASSERT_EQ(contents.records.size(), 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(contents.records[i].version, 2 + i);
    EXPECT_EQ(contents.records[i].delta.add, MakeDelta(i).add);
    EXPECT_EQ(contents.records[i].delta.remove, MakeDelta(i).remove);
  }
}

TEST(DeltaLog, DropsTornTailAtEveryCutPoint) {
  std::vector<uint8_t> log = EncodeDeltaRecord(2, MakeDelta(0));
  const size_t first_len = log.size();
  const std::vector<uint8_t> second = EncodeDeltaRecord(3, MakeDelta(1));
  log.insert(log.end(), second.begin(), second.end());

  // Cutting anywhere inside the second record keeps exactly the first.
  for (size_t len = first_len; len < log.size(); ++len) {
    const DeltaLogContents contents =
        DecodeDeltaLog(std::span<const uint8_t>(log.data(), len));
    ASSERT_EQ(contents.records.size(), 1u) << "cut at " << len;
    EXPECT_EQ(contents.records[0].version, 2u);
    EXPECT_EQ(contents.tail_bytes_dropped, len - first_len);
  }
}

TEST(DeltaLog, CorruptRecordStopsReplayCleanly) {
  std::vector<uint8_t> log = EncodeDeltaRecord(2, MakeDelta(0));
  const size_t first_len = log.size();
  const std::vector<uint8_t> second = EncodeDeltaRecord(3, MakeDelta(1));
  log.insert(log.end(), second.begin(), second.end());
  log[first_len + 9] ^= 0xff;  // corrupt the second record's payload

  const DeltaLogContents contents = DecodeDeltaLog(log);
  ASSERT_EQ(contents.records.size(), 1u);
  EXPECT_GT(contents.tail_bytes_dropped, 0u);
}

TEST(DeltaLog, WriterAppendsDurably) {
  const std::string root = FreshRoot("delta_writer");
  ASSERT_TRUE(CatalogStore(root).Init().ok());
  const std::string path = root + "/test.log";

  DeltaLogWriter writer;
  EXPECT_EQ(writer.Append(2, MakeDelta(0)).code(),
            StatusCode::kFailedPrecondition);  // append before open
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(2, MakeDelta(0)).ok());
  ASSERT_TRUE(writer.Append(3, MakeDelta(1)).ok());
  writer.Close();

  StatusOr<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const DeltaLogContents contents = DecodeDeltaLog(*bytes);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[0].version, 2u);
  EXPECT_EQ(contents.records[1].version, 3u);
}

TEST(DeltaLog, WriterRefusesAppendsAfterATornWrite) {
  const std::string root = FreshRoot("delta_torn_writer");
  ASSERT_TRUE(CatalogStore(root).Init().ok());
  const std::string path = root + "/test.log";

  // Every Append that returns OK is an acknowledged update and must
  // survive replay.
  std::vector<uint64_t> acknowledged;
  DeltaLogWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(1, MakeDelta(0)).ok());
  acknowledged.push_back(1);
  StatusOr<std::vector<uint8_t>> before = ReadFileBytes(path);
  ASSERT_TRUE(before.ok());

  // Cap the file size so the next record tears 10 bytes in. SIGXFSZ is
  // ignored so the write fails with EFBIG instead of killing the process.
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction old_action {};
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore, &old_action), 0);
  struct rlimit old_limit {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct rlimit capped = old_limit;
  capped.rlim_cur = before->size() + 10;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const Status torn = writer.Append(2, MakeDelta(1));
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &old_action, nullptr), 0);
  EXPECT_FALSE(torn.ok());

  // The cap is lifted, but the file now ends in a torn record: a retry of
  // the same version, or the next one, must be refused rather than land
  // behind bytes that replay stops at.
  for (const uint64_t version : {2, 3}) {
    const Status retried =
        writer.Append(version, MakeDelta(static_cast<uint32_t>(version)));
    EXPECT_EQ(retried.code(), StatusCode::kFailedPrecondition)
        << "version " << version;
    if (retried.ok()) acknowledged.push_back(version);
  }
  writer.Close();

  StatusOr<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const DeltaLogContents contents = DecodeDeltaLog(*bytes);
  std::vector<uint64_t> replayed;
  for (const DeltaRecord& record : contents.records) {
    replayed.push_back(record.version);
  }
  EXPECT_EQ(replayed, acknowledged);
  EXPECT_EQ(contents.tail_bytes_dropped, 10u);

  // Reopening clears the refusal.
  ASSERT_TRUE(writer.Open(root + "/fresh.log").ok());
  EXPECT_TRUE(writer.Append(4, MakeDelta(4)).ok());
}

// --- CatalogStore ---------------------------------------------------------

TEST(CatalogStore, ValidatesGraphNames) {
  EXPECT_TRUE(CatalogStore::ValidGraphName("social"));
  EXPECT_TRUE(CatalogStore::ValidGraphName("a-b_c.9"));
  EXPECT_FALSE(CatalogStore::ValidGraphName(""));
  EXPECT_FALSE(CatalogStore::ValidGraphName(".hidden"));
  EXPECT_FALSE(CatalogStore::ValidGraphName("has/slash"));
  EXPECT_FALSE(CatalogStore::ValidGraphName("has space"));
  EXPECT_FALSE(CatalogStore::ValidGraphName(std::string(129, 'a')));
}

TEST(CatalogStore, SaveLoadWithDeltas) {
  const std::string root = FreshRoot("store_basic");
  CatalogStore store(root);
  ASSERT_TRUE(store.Init().ok());

  const Graph g = SmallGraph();
  const TrussDecomposition decomposition = ComputeTrussDecomposition(g);
  ASSERT_TRUE(store.SaveBaseSnapshot("g", 1, g, decomposition).ok());
  ASSERT_TRUE(store.AppendDelta("g", 2, MakeDelta(0)).ok());
  ASSERT_TRUE(store.AppendDelta("g", 3, MakeDelta(1)).ok());

  StatusOr<std::vector<std::string>> names = store.ListGraphNames();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"g"});

  StatusOr<CatalogStore::LoadedGraph> loaded = store.Load("g");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->base.version, 1u);
  ExpectSameGraph(loaded->base.graph, g);
  ASSERT_EQ(loaded->deltas.size(), 2u);
  EXPECT_EQ(loaded->deltas[0].version, 2u);
  EXPECT_EQ(loaded->deltas[1].version, 3u);
  EXPECT_EQ(loaded->log_tail_dropped, 0u);
}

TEST(CatalogStore, LoadSkipsRecordsAtOrBelowBaseAndStopsAtGaps) {
  const std::string root = FreshRoot("store_windows");
  CatalogStore store(root);
  ASSERT_TRUE(store.Init().ok());

  const Graph g = SmallGraph();
  const TrussDecomposition decomposition = ComputeTrussDecomposition(g);

  // Simulate the crash window between compaction's snapshot rename and
  // its log reset: base v3 on disk, log still holding v2..v5 — v2/v3 are
  // subsumed, v4/v5 replay.
  ASSERT_TRUE(store.SaveBaseSnapshot("g", 3, g, decomposition).ok());
  ASSERT_TRUE(store.AppendDelta("g", 2, MakeDelta(0)).ok());
  ASSERT_TRUE(store.AppendDelta("g", 3, MakeDelta(1)).ok());
  ASSERT_TRUE(store.AppendDelta("g", 4, MakeDelta(2)).ok());
  ASSERT_TRUE(store.AppendDelta("g", 5, MakeDelta(3)).ok());
  ASSERT_TRUE(store.AppendDelta("g", 7, MakeDelta(4)).ok());  // gap: ignored

  StatusOr<CatalogStore::LoadedGraph> loaded = store.Load("g");
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->deltas.size(), 2u);
  EXPECT_EQ(loaded->deltas[0].version, 4u);
  EXPECT_EQ(loaded->deltas[1].version, 5u);
}

TEST(CatalogStore, SaveBaseSnapshotResetsLogAndPrunesOldBases) {
  const std::string root = FreshRoot("store_compact");
  CatalogStore store(root);
  ASSERT_TRUE(store.Init().ok());

  const Graph g = SmallGraph();
  const TrussDecomposition decomposition = ComputeTrussDecomposition(g);
  ASSERT_TRUE(store.SaveBaseSnapshot("g", 1, g, decomposition).ok());
  ASSERT_TRUE(store.AppendDelta("g", 2, MakeDelta(0)).ok());

  ASSERT_TRUE(store.SaveBaseSnapshot("g", 2, g, decomposition).ok());

  StatusOr<CatalogStore::LoadedGraph> loaded = store.Load("g");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->base.version, 2u);
  EXPECT_TRUE(loaded->deltas.empty());

  // The v1 base file is gone.
  EXPECT_EQ(ReadFileBytes(root + "/g/snapshot-1.atrsnap").status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogStore, FallsBackToOlderBaseWhenNewestIsCorrupt) {
  const std::string root = FreshRoot("store_fallback");
  CatalogStore store(root);
  ASSERT_TRUE(store.Init().ok());

  const Graph g = SmallGraph();
  const TrussDecomposition decomposition = ComputeTrussDecomposition(g);
  ASSERT_TRUE(store.SaveBaseSnapshot("g", 1, g, decomposition).ok());

  // Drop a corrupt "newer" snapshot alongside (as a torn compaction
  // might, had WriteFileAtomic not existed); Load must fall back to v1.
  const std::vector<uint8_t> garbage = {'n', 'o', 't', 'a', 's', 'n', 'a', 'p'};
  ASSERT_TRUE(WriteFileAtomic(root + "/g/snapshot-9.atrsnap", garbage).ok());

  StatusOr<CatalogStore::LoadedGraph> loaded = store.Load("g");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->base.version, 1u);
}

// --- PersistentCatalog: restart-resume ------------------------------------

// The decomposition actually served for `name`, by pointer-stable bytes.
TrussDecomposition ServedDecomposition(AtrService& service,
                                       const std::string& name) {
  StatusOr<GraphSnapshot> snapshot = service.Snapshot(name);
  EXPECT_TRUE(snapshot.ok());
  return *snapshot->decomposition;
}

TEST(PersistentCatalog, RestartResumesWithoutRebuilding) {
  const std::string root = FreshRoot("catalog_restart");
  TrussDecomposition before;
  uint64_t final_version = 0;

  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(catalog.AddGraph("g", SmallGraph()).ok());

    GraphDelta delta;
    delta.add = {{0, 25}, {1, 30}};
    ASSERT_TRUE(catalog.UpdateGraph("g", delta).ok());
    GraphDelta delta2;
    delta2.add = {{2, 35}};
    StatusOr<GraphSnapshot> updated = catalog.UpdateGraph("g", delta2);
    ASSERT_TRUE(updated.ok());
    final_version = updated->version;
    EXPECT_EQ(final_version, 3u);

    before = ServedDecomposition(service, "g");
    // First life pays exactly one build (AddGraph), never more.
    StatusOr<AtrService::GraphInfo> info = service.Info("g");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->decomposition_builds, 1u);
    EXPECT_EQ(info->delta_chain_length, 2u);
    // No PersistAll, no Compact: this is the crash path — restore has to
    // come from base v1 ⊕ two logged deltas.
  }

  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    EXPECT_EQ(catalog.restore_stats().graphs_restored, 1u);
    EXPECT_EQ(catalog.restore_stats().deltas_replayed, 2u);

    StatusOr<AtrService::GraphInfo> info = service.Info("g");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->version, final_version);
    // The headline contract: restoring + replaying built NOTHING.
    EXPECT_EQ(info->decomposition_builds, 0u);

    ExpectSameDecomposition(ServedDecomposition(service, "g"), before);

    // And the restored graph still takes updates (version continues).
    GraphDelta delta;
    delta.add = {{3, 20}};
    StatusOr<GraphSnapshot> updated = catalog.UpdateGraph("g", delta);
    ASSERT_TRUE(updated.ok());
    EXPECT_EQ(updated->version, final_version + 1);
  }
}

TEST(PersistentCatalog, GracefulStopCompactsAndRestoreReplaysNothing) {
  const std::string root = FreshRoot("catalog_graceful");
  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(catalog.AddGraph("g", SmallGraph()).ok());
    GraphDelta delta;
    delta.add = {{0, 25}};
    ASSERT_TRUE(catalog.UpdateGraph("g", delta).ok());
    ASSERT_TRUE(catalog.PersistAll().ok());  // persist-on-stop

    // PersistAll folded the chain: counter reset, base at v2.
    StatusOr<AtrService::GraphInfo> info = service.Info("g");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->delta_chain_length, 0u);
  }
  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    EXPECT_EQ(catalog.restore_stats().graphs_restored, 1u);
    EXPECT_EQ(catalog.restore_stats().deltas_replayed, 0u);
    StatusOr<AtrService::GraphInfo> info = service.Info("g");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->version, 2u);
    EXPECT_EQ(info->decomposition_builds, 0u);
  }
}

TEST(PersistentCatalog, AutoCompactsPastThreshold) {
  const std::string root = FreshRoot("catalog_auto");
  AtrService service;
  PersistentCatalog catalog(service,
                            {.root_dir = root, .compact_threshold = 3});
  ASSERT_TRUE(catalog.Open().ok());
  ASSERT_TRUE(catalog.AddGraph("g", SmallGraph()).ok());

  for (uint32_t i = 0; i < 3; ++i) {
    GraphDelta delta;
    delta.add = {{i, 30 + i}};
    ASSERT_TRUE(catalog.UpdateGraph("g", delta).ok());
  }
  // The third update tripped the threshold: chain folded, counter reset.
  StatusOr<AtrService::GraphInfo> info = service.Info("g");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->delta_chain_length, 0u);
  EXPECT_EQ(info->version, 4u);

  // On-disk state agrees: base v4, empty log.
  CatalogStore store(root);
  StatusOr<CatalogStore::LoadedGraph> loaded = store.Load("g");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->base.version, 4u);
  EXPECT_TRUE(loaded->deltas.empty());
}

TEST(PersistentCatalog, TruncatesTornLogTailOnRestore) {
  const std::string root = FreshRoot("catalog_torn");
  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(catalog.AddGraph("g", SmallGraph()).ok());
    GraphDelta delta;
    delta.add = {{0, 25}};
    ASSERT_TRUE(catalog.UpdateGraph("g", delta).ok());
  }
  // Tear the log mid-append: chop the last byte off.
  const std::string log_path = root + "/g/deltas.log";
  StatusOr<std::vector<uint8_t>> log_bytes = ReadFileBytes(log_path);
  ASSERT_TRUE(log_bytes.ok());
  ASSERT_FALSE(log_bytes->empty());
  std::vector<uint8_t> torn(log_bytes->begin(), log_bytes->end() - 1);
  ASSERT_TRUE(WriteFileAtomic(log_path, torn).ok());

  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    // The torn record (the only one) was dropped and the file truncated.
    EXPECT_EQ(catalog.restore_stats().deltas_replayed, 0u);
    EXPECT_EQ(catalog.restore_stats().torn_tails_truncated, 1u);
    StatusOr<AtrService::GraphInfo> info = service.Info("g");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->version, 1u);  // back to the base; the update was torn

    StatusOr<std::vector<uint8_t>> after = ReadFileBytes(log_path);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->empty());
  }
}

TEST(PersistentCatalog, UpdatesResumeAfterATornAppend) {
  // One UpdateGraph fails mid-append (a transient EFBIG). Once the cause
  // is gone, the next UpdateGraph must succeed without a Compact, and a
  // restart must restore every acknowledged version.
  const std::string root = FreshRoot("catalog_torn_append");
  const std::string log_path = root + "/g/deltas.log";
  TrussDecomposition before;
  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(catalog.AddGraph("g", SmallGraph()).ok());
    GraphDelta first;
    first.add = {{0, 25}};
    ASSERT_TRUE(catalog.UpdateGraph("g", first).ok());
    StatusOr<std::vector<uint8_t>> log = ReadFileBytes(log_path);
    ASSERT_TRUE(log.ok());

    // Cap the file size so the next record tears 10 bytes in. SIGXFSZ is
    // ignored so the write fails with EFBIG instead of killing the
    // process; both are restored right after.
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    struct sigaction old_action {};
    ASSERT_EQ(::sigaction(SIGXFSZ, &ignore, &old_action), 0);
    struct rlimit old_limit {};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
    struct rlimit capped = old_limit;
    capped.rlim_cur = log->size() + 10;
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    GraphDelta second;
    second.add = {{1, 30}};
    const StatusOr<GraphSnapshot> failed = catalog.UpdateGraph("g", second);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
    ASSERT_EQ(::sigaction(SIGXFSZ, &old_action, nullptr), 0);
    ASSERT_FALSE(failed.ok());

    // No Compact in between: the retry and one more update go through.
    StatusOr<GraphSnapshot> retried = catalog.UpdateGraph("g", second);
    ASSERT_TRUE(retried.ok()) << retried.status().message();
    EXPECT_EQ(retried->version, 3u);
    GraphDelta third;
    third.add = {{2, 35}};
    StatusOr<GraphSnapshot> next = catalog.UpdateGraph("g", third);
    ASSERT_TRUE(next.ok()) << next.status().message();
    EXPECT_EQ(next->version, 4u);
    before = ServedDecomposition(service, "g");
  }
  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    EXPECT_EQ(catalog.restore_stats().deltas_replayed, 3u);
    EXPECT_EQ(catalog.restore_stats().torn_tails_truncated, 0u);
    StatusOr<AtrService::GraphInfo> info = service.Info("g");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->version, 4u);
    ExpectSameDecomposition(ServedDecomposition(service, "g"), before);
  }
}

TEST(PersistentCatalog, CorruptGraphIsSkippedNotFatal) {
  const std::string root = FreshRoot("catalog_skip");
  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(catalog.AddGraph("good", SmallGraph(1)).ok());
    ASSERT_TRUE(catalog.AddGraph("bad", SmallGraph(2)).ok());
  }
  // Destroy "bad"'s only snapshot beyond repair.
  StatusOr<std::vector<uint8_t>> bytes =
      ReadFileBytes(root + "/bad/snapshot-1.atrsnap");
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> mangled = *bytes;
  for (size_t i = 0; i < mangled.size(); i += 2) mangled[i] ^= 0x55;
  ASSERT_TRUE(WriteFileAtomic(root + "/bad/snapshot-1.atrsnap", mangled).ok());

  {
    AtrService service;
    PersistentCatalog catalog(service,
                              {.root_dir = root, .compact_threshold = 0});
    ASSERT_TRUE(catalog.Open().ok());
    EXPECT_EQ(catalog.restore_stats().graphs_restored, 1u);
    EXPECT_EQ(catalog.restore_stats().graphs_failed, 1u);
    EXPECT_EQ(service.GraphNames(), std::vector<std::string>{"good"});
  }
}

}  // namespace
}  // namespace persist
}  // namespace atr
