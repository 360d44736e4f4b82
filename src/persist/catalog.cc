#include "persist/catalog.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <utility>

namespace atr {
namespace persist {
namespace {

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".atrsnap";
constexpr char kDeltaLogName[] = "deltas.log";

// Parses "snapshot-<version>.atrsnap"; returns 0 (never a valid version)
// on anything else.
uint64_t ParseSnapshotVersion(const std::string& file_name) {
  const size_t prefix_len = sizeof(kSnapshotPrefix) - 1;
  const size_t suffix_len = sizeof(kSnapshotSuffix) - 1;
  if (file_name.size() <= prefix_len + suffix_len) return 0;
  if (file_name.compare(0, prefix_len, kSnapshotPrefix) != 0) return 0;
  if (file_name.compare(file_name.size() - suffix_len, suffix_len,
                        kSnapshotSuffix) != 0) {
    return 0;
  }
  uint64_t version = 0;
  for (size_t i = prefix_len; i < file_name.size() - suffix_len; ++i) {
    const char c = file_name[i];
    if (c < '0' || c > '9') return 0;
    if (version > (UINT64_MAX - (c - '0')) / 10) return 0;
    version = version * 10 + (c - '0');
  }
  return version;
}

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return Status::Ok();
  return Status::Internal("mkdir(" + path +
                          ") failed: " + std::strerror(errno));
}

// Versions (descending) of every snapshot file in `dir`.
std::vector<uint64_t> SnapshotVersionsIn(const std::string& dir) {
  std::vector<uint64_t> versions;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return versions;
  while (dirent* entry = ::readdir(d)) {
    const uint64_t v = ParseSnapshotVersion(entry->d_name);
    if (v > 0) versions.push_back(v);
  }
  ::closedir(d);
  std::sort(versions.rbegin(), versions.rend());
  return versions;
}

}  // namespace

// --- CatalogStore ---------------------------------------------------------

bool CatalogStore::ValidGraphName(const std::string& name) {
  if (name.empty() || name.size() > 128 || name[0] == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string CatalogStore::GraphDir(const std::string& name) const {
  return root_ + "/" + name;
}

std::string CatalogStore::SnapshotPath(const std::string& name,
                                       uint64_t version) const {
  return GraphDir(name) + "/" + kSnapshotPrefix + std::to_string(version) +
         kSnapshotSuffix;
}

std::string CatalogStore::DeltaLogPath(const std::string& name) const {
  return GraphDir(name) + "/" + kDeltaLogName;
}

Status CatalogStore::Init() {
  // mkdir -p: create each component of the root path in turn.
  std::string prefix;
  size_t start = 0;
  while (start <= root_.size()) {
    size_t slash = root_.find('/', start);
    if (slash == std::string::npos) slash = root_.size();
    prefix = root_.substr(0, slash);
    start = slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    Status made = MakeDir(prefix);
    if (!made.ok()) return made;
  }
  return Status::Ok();
}

StatusOr<std::vector<std::string>> CatalogStore::ListGraphNames() const {
  std::vector<std::string> names;
  DIR* d = ::opendir(root_.c_str());
  if (d == nullptr) {
    return Status::Internal("CatalogStore: opendir(" + root_ +
                            ") failed: " + std::strerror(errno));
  }
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (!ValidGraphName(name)) continue;
    if (!SnapshotVersionsIn(GraphDir(name)).empty()) names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

StatusOr<CatalogStore::LoadedGraph> CatalogStore::Load(
    const std::string& name) {
  if (!ValidGraphName(name)) {
    return Status::InvalidArgument("CatalogStore: invalid graph name \"" +
                                   name + "\"");
  }
  // Newest decodable base wins; older bases exist only in the window
  // between a compaction's snapshot write and its old-file cleanup (or
  // after on-disk corruption), and are the fallback.
  const std::vector<uint64_t> versions = SnapshotVersionsIn(GraphDir(name));
  if (versions.empty()) {
    return Status::NotFound("CatalogStore: no snapshot for graph \"" + name +
                            "\"");
  }
  LoadedGraph loaded;
  Status last_error = Status::Ok();
  bool decoded = false;
  for (const uint64_t version : versions) {
    StatusOr<std::vector<uint8_t>> bytes =
        ReadFileBytes(SnapshotPath(name, version));
    if (!bytes.ok()) {
      last_error = bytes.status();
      continue;
    }
    StatusOr<SnapshotRecord> record = DecodeSnapshot(*bytes);
    if (!record.ok()) {
      last_error = record.status();
      continue;
    }
    loaded.base = *std::move(record);
    decoded = true;
    break;
  }
  if (!decoded) {
    return Status::InvalidArgument(
        "CatalogStore: every snapshot of graph \"" + name +
        "\" is unreadable; last error: " + last_error.message());
  }

  StatusOr<std::vector<uint8_t>> log_bytes = ReadFileBytes(DeltaLogPath(name));
  if (log_bytes.ok()) {
    DeltaLogContents contents = DecodeDeltaLog(*log_bytes);
    loaded.log_tail_dropped = contents.tail_bytes_dropped;
    uint64_t expect = loaded.base.version + 1;
    for (DeltaRecord& record : contents.records) {
      if (record.version <= loaded.base.version) continue;  // pre-compaction
      if (record.version != expect) break;  // gap: stop replaying here
      loaded.deltas.push_back(std::move(record));
      ++expect;
    }
  } else if (log_bytes.status().code() != StatusCode::kNotFound) {
    return log_bytes.status();
  }
  return loaded;
}

Status CatalogStore::SaveBaseSnapshot(const std::string& name,
                                      uint64_t version, const Graph& graph,
                                      const TrussDecomposition& decomposition) {
  if (!ValidGraphName(name)) {
    return Status::InvalidArgument("CatalogStore: invalid graph name \"" +
                                   name + "\"");
  }
  Status made = MakeDir(GraphDir(name));
  if (!made.ok()) return made;

  const std::vector<uint8_t> bytes =
      EncodeSnapshot(name, version, graph, decomposition);
  Status wrote = WriteFileAtomic(SnapshotPath(name, version), bytes);
  if (!wrote.ok()) return wrote;

  // The new base is durable; the log it subsumes resets to empty. A crash
  // between the two leaves stale records at or below the base version,
  // which Load() skips.
  Status reset = RewriteDeltaLog(name, {});
  if (!reset.ok()) return reset;

  for (const uint64_t old : SnapshotVersionsIn(GraphDir(name))) {
    if (old != version) ::unlink(SnapshotPath(name, old).c_str());
  }
  return Status::Ok();
}

DeltaLogWriter* CatalogStore::Writer(const std::string& name) {
  {
    MutexLock lock(&writers_mu_);
    auto it = writers_.find(name);
    if (it != writers_.end()) return it->second.get();
  }
  // Open outside the lock: one graph's slow open must not stall appends
  // to every other graph. The caller's per-graph exclusion means no other
  // thread races THIS name into the map.
  auto writer = std::make_unique<DeltaLogWriter>();
  if (!writer->Open(DeltaLogPath(name)).ok()) return nullptr;
  MutexLock lock(&writers_mu_);
  return writers_.emplace(name, std::move(writer)).first->second.get();
}

Status CatalogStore::AppendDelta(const std::string& name, uint64_t version,
                                 const GraphDelta& delta) {
  if (!ValidGraphName(name)) {
    return Status::InvalidArgument("CatalogStore: invalid graph name \"" +
                                   name + "\"");
  }
  bool torn = false;
  {
    MutexLock lock(&writers_mu_);
    torn = torn_logs_.contains(name);
  }
  if (torn) {
    Status repaired = RepairTornLog(name, version);
    if (!repaired.ok()) return repaired;
  }
  DeltaLogWriter* writer = Writer(name);
  if (writer == nullptr) {
    return Status::Internal("CatalogStore: cannot open delta log for \"" +
                            name + "\"");
  }
  Status appended = writer->Append(version, delta);
  if (!appended.ok()) {
    // The failed writer refuses every later append; drop it so the next
    // append repairs the log and reopens it instead of failing forever.
    MutexLock lock(&writers_mu_);
    writers_.erase(name);
    torn_logs_.insert(name);
  }
  return appended;
}

Status CatalogStore::RepairTornLog(const std::string& name, uint64_t version) {
  StatusOr<std::vector<uint8_t>> bytes = ReadFileBytes(DeltaLogPath(name));
  if (!bytes.ok() && bytes.status().code() != StatusCode::kNotFound) {
    return bytes.status();
  }
  std::vector<DeltaRecord> intact;
  if (bytes.ok()) {
    // A record at or above `version` is the failed append itself (its
    // bytes may all have landed before a failed fsync): never acknowledged.
    for (DeltaRecord& record : DecodeDeltaLog(*bytes).records) {
      if (record.version >= version) break;
      intact.push_back(std::move(record));
    }
  }
  return RewriteDeltaLog(name, intact);
}

Status CatalogStore::RewriteDeltaLog(const std::string& name,
                                     const std::vector<DeltaRecord>& records) {
  std::vector<uint8_t> bytes;
  for (const DeltaRecord& record : records) {
    const std::vector<uint8_t> one =
        EncodeDeltaRecord(record.version, record.delta);
    bytes.insert(bytes.end(), one.begin(), one.end());
  }
  {
    // Drop the open append handle before the swap.
    MutexLock lock(&writers_mu_);
    writers_.erase(name);
  }
  Status wrote = WriteFileAtomic(DeltaLogPath(name), bytes);
  if (wrote.ok()) {
    MutexLock lock(&writers_mu_);
    torn_logs_.erase(name);
  }
  return wrote;
}

// --- PersistentCatalog ----------------------------------------------------

PersistentCatalog::PersistentCatalog(AtrService& service, Options options)
    : service_(service), options_(std::move(options)), store_(options_.root_dir) {}

PersistentCatalog::~PersistentCatalog() {
  // The listener captures `this`; detach before the store goes away.
  service_.SetUpdateListener(nullptr);
}

Status PersistentCatalog::Open() {
  Status init = store_.Init();
  if (!init.ok()) return init;

  StatusOr<std::vector<std::string>> names = store_.ListGraphNames();
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    Status restored = RestoreOne(name);
    if (!restored.ok()) {
      // A graph whose files are beyond repair is skipped, not fatal: the
      // rest of the catalog still serves. The files stay on disk for
      // forensics; re-adding the name writes a fresh base.
      ++restore_stats_.graphs_failed;
    }
  }

  // From here on, every UpdateGraph persists its delta before publishing.
  service_.SetUpdateListener(
      [this](const std::string& name, uint64_t version,
             const GraphDelta& delta) {
        return store_.AppendDelta(name, version, delta);
      });
  return Status::Ok();
}

Status PersistentCatalog::RestoreOne(const std::string& name) {
  StatusOr<CatalogStore::LoadedGraph> loaded = store_.Load(name);
  if (!loaded.ok()) return loaded.status();

  Status restored = service_.RestoreGraph(
      name, std::make_shared<const Graph>(std::move(loaded->base.graph)),
      std::move(loaded->base.decomposition), loaded->base.version,
      /*delta_chain_length=*/0);
  if (!restored.ok()) return restored;
  ++restore_stats_.graphs_restored;

  // Replay the log through the normal incremental-update path (the
  // listener is not installed yet, so nothing is re-appended). Each step
  // seeds from its predecessor — still zero decomposition builds.
  for (const DeltaRecord& record : loaded->deltas) {
    StatusOr<GraphSnapshot> updated = service_.UpdateGraph(name, record.delta);
    if (!updated.ok()) return updated.status();
    if (updated->version != record.version) {
      return Status::Internal(
          "restore of \"" + name + "\": replayed version " +
          std::to_string(updated->version) + " does not match logged " +
          std::to_string(record.version));
    }
    ++restore_stats_.deltas_replayed;
  }

  if (loaded->log_tail_dropped > 0) {
    // Drop the torn tail on disk too, so later appends extend an intact
    // log instead of burying records behind garbage.
    Status rewritten = store_.RewriteDeltaLog(name, loaded->deltas);
    if (!rewritten.ok()) return rewritten;
    ++restore_stats_.torn_tails_truncated;
  }
  return Status::Ok();
}

Mutex& PersistentCatalog::StripeFor(const std::string& name) {
  return stripes_[std::hash<std::string>{}(name) % kLockStripes];
}

Status PersistentCatalog::AddGraph(const std::string& name, Graph graph) {
  if (!CatalogStore::ValidGraphName(name)) {
    return Status::InvalidArgument("PersistentCatalog: invalid graph name \"" +
                                   name + "\"");
  }
  MutexLock lock(&StripeFor(name));
  Status added = service_.AddGraph(name, std::move(graph));
  if (!added.ok()) return added;
  // Pay the one build now; the base snapshot needs the decomposition and a
  // restart must never recompute it.
  StatusOr<GraphSnapshot> snapshot = service_.Snapshot(name);
  if (!snapshot.ok()) return snapshot.status();
  return store_.SaveBaseSnapshot(name, snapshot->version, *snapshot->graph,
                                 *snapshot->decomposition);
}

StatusOr<GraphSnapshot> PersistentCatalog::UpdateGraph(
    const std::string& name, const GraphDelta& delta) {
  MutexLock lock(&StripeFor(name));
  StatusOr<GraphSnapshot> updated = service_.UpdateGraph(name, delta);
  if (!updated.ok()) return updated;
  if (options_.compact_threshold > 0) {
    StatusOr<AtrService::GraphInfo> info = service_.Info(name);
    if (info.ok() && info->delta_chain_length >= options_.compact_threshold) {
      Status compacted = CompactLocked(name);
      if (!compacted.ok()) return compacted;
    }
  }
  return updated;
}

Status PersistentCatalog::Compact(const std::string& name) {
  MutexLock lock(&StripeFor(name));
  return CompactLocked(name);
}

Status PersistentCatalog::CompactLocked(const std::string& name) {
  StatusOr<GraphSnapshot> snapshot = service_.Snapshot(name);
  if (!snapshot.ok()) return snapshot.status();
  Status saved = store_.SaveBaseSnapshot(name, snapshot->version,
                                         *snapshot->graph,
                                         *snapshot->decomposition);
  if (!saved.ok()) return saved;
  return service_.ResetDeltaChain(name);
}

Status PersistentCatalog::PersistAll() {
  Status first_error = Status::Ok();
  for (const std::string& name : service_.GraphNames()) {
    if (!CatalogStore::ValidGraphName(name)) continue;  // not persisted
    MutexLock lock(&StripeFor(name));
    Status compacted = CompactLocked(name);
    if (!compacted.ok() && first_error.ok()) first_error = compacted;
  }
  return first_error;
}

}  // namespace persist
}  // namespace atr
