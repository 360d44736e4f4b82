// Durable catalog state: base snapshots + delta logs per graph, glued to
// an AtrService so a restarted process resumes serving every graph at its
// latest version without recomputing a single decomposition.
//
// On-disk layout under one root directory:
//
//   <root>/<graph>/snapshot-<version>.atrsnap   base (persist/snapshot.h)
//   <root>/<graph>/deltas.log                   appended per UpdateGraph
//
// Write path (PersistentCatalog):
//   * AddGraph computes the one decomposition and writes base snapshot v1.
//   * UpdateGraph goes through the service's write-ahead update listener:
//     the delta record is appended (fsync'd) BEFORE the new version is
//     published, so every served version is covered by base ⊕ log.
//   * Compaction folds the chain into a fresh base snapshot
//     (write-temp-then-rename), resets the log, and resets the service's
//     delta_chain_length counter; it runs automatically once a chain
//     exceeds Options::compact_threshold, and for every graph on graceful
//     shutdown (PersistAll — the persist-on-stop half of the
//     persist-on-stop / reload-on-start idiom).
//
// Restore path (Open on a non-empty root):
//   * the newest valid base snapshot is loaded per graph (a corrupt or
//     torn newest base falls back to the previous one, which compaction
//     deletes only after the new base and log reset are durable),
//   * the graph is installed via AtrService::RestoreGraph — born built,
//     decomposition_builds stays 0,
//   * logged deltas beyond the base version are replayed through
//     AtrService::UpdateGraph, which seeds each version incrementally
//     from its predecessor (still no rebuild), and a torn log tail from a
//     mid-append crash is dropped and truncated away.
//
// Thread-safety: PersistentCatalog serializes mutating calls (AddGraph /
// UpdateGraph / Compact) PER GRAPH behind striped locks, so updates to
// different graphs persist in parallel — matching the service's per-graph
// update lock. PersistAll takes each graph's stripe in turn. Mutate cataloged
// graphs ONLY through it — calling AtrService::UpdateGraph directly on a
// persisted graph would still log the delta (the listener fires) but
// could interleave with a concurrent compaction's log reset and lose the
// record.

#ifndef ATR_PERSIST_CATALOG_H_
#define ATR_PERSIST_CATALOG_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/service.h"
#include "persist/delta_log.h"
#include "persist/snapshot.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace atr {
namespace persist {

// Disk-layout half: file and directory operations, no service knowledge.
// Per-graph exclusion is the caller's job (PersistentCatalog's striped
// locks, or a test); the open-writer table itself is internally
// synchronized so operations on DIFFERENT graphs may run concurrently.
class CatalogStore {
 public:
  explicit CatalogStore(std::string root) : root_(std::move(root)) {}

  // Graph names double as directory names, so the charset is restricted:
  // [A-Za-z0-9_.-], 1..128 chars, no leading '.'. Everything arriving
  // over the wire goes through this before touching the filesystem.
  static bool ValidGraphName(const std::string& name);

  const std::string& root() const { return root_; }

  // Creates the root directory (parents included) when absent.
  Status Init();

  // Graph directories under the root that hold at least one snapshot file.
  StatusOr<std::vector<std::string>> ListGraphNames() const;

  struct LoadedGraph {
    SnapshotRecord base;
    std::vector<DeltaRecord> deltas;   // versions > base.version, ascending
    size_t log_tail_dropped = 0;       // torn tail bytes ignored (pre-truncate)
  };

  // Loads `name`: newest decodable base snapshot + the intact delta
  // records beyond it. Delta records at or below the base version (a
  // crash between compaction's snapshot rename and log reset) are
  // skipped; a version gap ends the replay list. kNotFound when no valid
  // snapshot exists.
  StatusOr<LoadedGraph> Load(const std::string& name);

  // Writes the base snapshot for `version` crash-safely, resets the delta
  // log to empty, then deletes older snapshot files. Order matters: the
  // new base is durable before the log (whose records it subsumes) and
  // the old base disappear.
  Status SaveBaseSnapshot(const std::string& name, uint64_t version,
                          const Graph& graph,
                          const TrussDecomposition& decomposition);

  // Appends one delta record durably (fsync before returning). A failed
  // append may leave a torn record behind, so it drops the graph's writer;
  // the next append first rewrites the log to its intact records below
  // its own version (the failed one was never acknowledged).
  Status AppendDelta(const std::string& name, uint64_t version,
                     const GraphDelta& delta);

  // Rewrites `name`'s delta log to exactly `records` (used to truncate a
  // torn tail discovered during Load or left by a failed append).
  Status RewriteDeltaLog(const std::string& name,
                         const std::vector<DeltaRecord>& records);

 private:
  std::string GraphDir(const std::string& name) const;
  std::string SnapshotPath(const std::string& name, uint64_t version) const;
  std::string DeltaLogPath(const std::string& name) const;
  DeltaLogWriter* Writer(const std::string& name);
  // Rewrites the log to its intact records with versions below `version`.
  Status RepairTornLog(const std::string& name, uint64_t version);

  std::string root_;
  // Guards the writers_ MAP (lookup / insert / erase), not the writers:
  // append I/O on one graph's writer happens outside the lock, relying on
  // the caller's per-graph exclusion.
  Mutex writers_mu_;
  std::map<std::string, std::unique_ptr<DeltaLogWriter>> writers_
      ATR_GUARDED_BY(writers_mu_);
  // Graphs whose last append failed; their log is repaired before the
  // next one.
  std::set<std::string> torn_logs_ ATR_GUARDED_BY(writers_mu_);
};

// Service glue: restore-on-open, write-ahead delta logging, compaction.
class PersistentCatalog {
 public:
  struct Options {
    std::string root_dir;
    // Auto-compact a graph once its delta chain reaches this many
    // records; 0 disables auto-compaction (PersistAll still compacts).
    uint64_t compact_threshold = 64;
  };

  PersistentCatalog(AtrService& service, Options options);
  ~PersistentCatalog();

  PersistentCatalog(const PersistentCatalog&) = delete;
  PersistentCatalog& operator=(const PersistentCatalog&) = delete;

  struct RestoreStats {
    size_t graphs_restored = 0;
    size_t deltas_replayed = 0;
    size_t torn_tails_truncated = 0;
    size_t graphs_failed = 0;  // undecodable graphs skipped (left on disk)
  };

  // Initializes the store, restores every stored graph into the service
  // (zero decomposition builds), and installs the write-ahead update
  // listener. Call once, before the service takes traffic.
  Status Open();

  const RestoreStats& restore_stats() const { return restore_stats_; }

  // Registers a NEW graph: adds it to the service, pays its one
  // decomposition build, and writes base snapshot v1.
  Status AddGraph(const std::string& name, Graph graph);

  // UpdateGraph through the service (the listener persists the delta
  // before publication), then auto-compacts when the chain is long.
  StatusOr<GraphSnapshot> UpdateGraph(const std::string& name,
                                      const GraphDelta& delta);

  // Folds `name`'s chain into a fresh base snapshot at the current
  // version and resets its delta log + chain counter.
  Status Compact(const std::string& name);

  // Compacts every cataloged graph — the persist-on-stop hook.
  Status PersistAll();

 private:
  Status RestoreOne(const std::string& name);
  // Caller holds name's stripe. A dependent capability (which stripe is a
  // hash of the argument) is outside what the clang analysis can express
  // (docs/STATIC_ANALYSIS.md, known limits), so the contract is the
  // naming convention plus the MutexLock at every call site.
  Status CompactLocked(const std::string& name);
  Mutex& StripeFor(const std::string& name);

  AtrService& service_;
  Options options_;
  CatalogStore store_;
  RestoreStats restore_stats_;
  // Striped per-graph locks: same graph serializes, different graphs
  // persist concurrently (collisions just serialize harmlessly).
  static constexpr size_t kLockStripes = 16;
  std::array<Mutex, kLockStripes> stripes_;
};

}  // namespace persist
}  // namespace atr

#endif  // ATR_PERSIST_CATALOG_H_
