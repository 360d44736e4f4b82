// Per-graph delta log: every UpdateGraph appends one checksummed record,
// so the durable state of a graph is  base snapshot ⊕ logged deltas.
//
// Record layout (little-endian, appended back to back):
//
//   u32 payload_len
//   u32 payload_crc32    CRC-32 (IEEE) of the payload bytes
//   payload:
//     u64 version        the version this delta PRODUCED (base + k)
//     u32 add_count,    (u32 u, u32 v) * add_count
//     u32 remove_count, (u32 u, u32 v) * remove_count
//
// Reads are crash-tolerant: a record whose length field, bytes, or
// checksum are cut off mid-append (the process died between write and
// fsync) terminates the replay cleanly — everything before the torn tail
// is served, the tail is reported so the caller can truncate it. A
// corrupt record mid-log is indistinguishable from a torn tail and is
// treated the same way; records never straddle it. Nothing in here may
// crash on hostile bytes (fuzz/fuzz_persist.cc drives this decoder).

#ifndef ATR_PERSIST_DELTA_LOG_H_
#define ATR_PERSIST_DELTA_LOG_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace atr {
namespace persist {

// One logged update: the delta plus the version it produced.
struct DeltaRecord {
  uint64_t version = 0;
  GraphDelta delta;
};

// Serializes one record (length + crc + payload).
std::vector<uint8_t> EncodeDeltaRecord(uint64_t version,
                                       const GraphDelta& delta);

// Parse result of a whole log image.
struct DeltaLogContents {
  std::vector<DeltaRecord> records;  // every intact record, in file order
  // Bytes of torn/corrupt tail that were ignored (0 = clean log). The
  // owner may truncate the file to drop them.
  size_t tail_bytes_dropped = 0;
};

// Decodes a delta-log image. Never fails on truncation/corruption — the
// torn tail is dropped and reported (see header comment); the only hard
// errors are per-record internal inconsistencies that a crash cannot
// produce mid-record (none currently), so the return is always Ok-shaped
// data. Callers that require a clean log check tail_bytes_dropped.
DeltaLogContents DecodeDeltaLog(std::span<const uint8_t> bytes);

// Append-mode writer with fsync-per-record durability: Append returns
// only after the record's bytes are flushed and fsync'd, so a crash can
// tear at most the record being written — exactly what DecodeDeltaLog
// tolerates.
//
// A failed write, flush, or fsync may leave a torn record in the file,
// and a record appended after it would be unreadable (replay stops at
// the tear). A failed fsync cannot be retried safely either: the kernel
// may already have dropped the dirty pages. So after any failure the
// writer refuses every later Append with kFailedPrecondition until it is
// reopened; the owner drops it and rewrites the log to its intact prefix
// before appending again (CatalogStore::AppendDelta does this, as does a
// restart's replay).
class DeltaLogWriter {
 public:
  DeltaLogWriter() = default;
  ~DeltaLogWriter() { Close(); }

  DeltaLogWriter(const DeltaLogWriter&) = delete;
  DeltaLogWriter& operator=(const DeltaLogWriter&) = delete;

  // Opens `path` for appending (creating it when absent).
  Status Open(const std::string& path);

  bool is_open() const { return file_ != nullptr; }

  // Appends one record durably (write + flush + fsync). Fails without
  // writing once an earlier Append on this open file failed.
  Status Append(uint64_t version, const GraphDelta& delta);

  void Close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  bool failed_ = false;  // an Append failed since Open; see class comment
};

}  // namespace persist
}  // namespace atr

#endif  // ATR_PERSIST_DELTA_LOG_H_
