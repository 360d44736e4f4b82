// AtrServer — the networked front end: one AtrService plus (optionally)
// one PersistentCatalog behind a TCP listener speaking the frame protocol
// of net/wire.h.
//
// Architecture: a single network thread runs a poll() loop over the
// listen socket, a wake pipe, and every client connection. Cheap
// operations (Ping, ListGraphs, Info, Cancel) are answered inline.
// Submit goes through AtrService::TrySubmit — admission control, never
// blocking the network thread: a saturated pending queue answers a
// structured kResourceExhausted error with a retry_after_ms hint scaled
// by the current load. Wait never parks a thread either: the job's
// completion callback (worker thread) pushes the job id through the wake
// pipe, and the network thread mails the response to every registered
// waiter. UpdateGraph/Compact run inline on the network thread; with a
// data_dir configured they route through the PersistentCatalog, so every
// accepted update is fsync'd to the delta log before its response frame
// is queued (write-ahead — a kill -9 right after the response cannot
// lose the update).
//
// Lifecycle:
//
//   AtrServer server(options);            // options.port = 0 → ephemeral
//   server.Start();                       // restores catalog, binds, spawns
//   ... server.port() ...
//   server.Stop();                        // graceful: drain + PersistAll
//
// RequestStop() is async-signal-safe (one write() on the wake pipe), so a
// SIGTERM handler may call it directly; the loop then drains and exits,
// and Stop()/Wait() joins. StopWithoutPersist() is the crash-simulation
// hook for the restart tests: it skips the shutdown compaction sweep, so
// restore must come entirely from base ⊕ delta log.
//
// I/O seam: every syscall the loop makes (poll/accept/read/write/close
// plus the monotonic clock) goes through the Transport interface
// (net/transport.h). Options::transport defaults to the process-wide
// PosixTransport — real sockets, unchanged production behavior. Tests,
// the connection-state-machine fuzzer, and the churn soak install a
// SimTransport (net/sim_transport.h) instead and drive this exact loop
// from scripted byte streams with injected partial reads, short writes,
// errno faults, EMFILE accepts, and virtual time.

#ifndef ATR_NET_SERVER_H_
#define ATR_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "net/transport.h"
#include "net/wire.h"
#include "persist/catalog.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace atr {
namespace net {

class AtrServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral; read the bound port with port()
    // Forwarded to AtrService::Options (0 = service defaults).
    int workers = 0;
    size_t queue_capacity = 0;
    // Empty = in-memory only: no snapshots, no delta log, nothing survives
    // a restart. Non-empty = PersistentCatalog root directory.
    std::string data_dir;
    uint64_t compact_threshold = 64;
    // Base of the retry_after_ms hint on admission-control rejections;
    // scaled up with the pending-queue load.
    uint32_t retry_after_base_ms = 50;
    // Finished jobs are kept addressable for Wait this long (count, not
    // time); the oldest finished job is evicted past the cap.
    size_t finished_jobs_cap = 1024;
    // Per-connection output high-water mark. A connection whose unsent
    // response bytes exceed this (a consumer that stopped reading while
    // still issuing requests) is disconnected with a logged reason rather
    // than buffering without bound on the network thread's heap.
    size_t max_output_buffer_bytes = 4u << 20;
    // Connections with no inbound traffic for this long are closed.
    // Connections parked on a Wait (or still flushing output) are never
    // idle-reaped — a long solve is not an idle peer. 0 disables.
    uint32_t idle_timeout_ms = 0;
    // Forwarded to AtrService::Options: the batch fusion width
    // (0 = the service default).
    size_t max_batch = 0;
    // The I/O seam. nullptr = the process-wide PosixTransport (real
    // sockets). Non-owning: the transport must outlive the server.
    Transport* transport = nullptr;
  };

  explicit AtrServer(Options options);
  ~AtrServer();

  AtrServer(const AtrServer&) = delete;
  AtrServer& operator=(const AtrServer&) = delete;

  // Opens the persistent catalog (when configured), restores every stored
  // graph (zero decomposition rebuilds), binds the listener, and spawns
  // the network thread. Call once.
  Status Start();

  // The bound TCP port (valid after Start; useful with Options::port = 0).
  uint16_t port() const { return port_; }

  AtrService& service() { return *service_; }
  // nullptr when no data_dir was configured.
  persist::PersistentCatalog* catalog() { return catalog_.get(); }

  // Registers a new graph; routed through the catalog (base snapshot v1)
  // when persistence is on.
  Status AddGraph(const std::string& name, Graph graph);

  // Async-signal-safe stop request: the network loop wakes, drains its
  // output buffers, closes connections, and exits.
  void RequestStop();

  // Joins the network thread (blocks until the loop exits — either
  // RequestStop/Stop or a client Shutdown request).
  void Join();

  // Graceful shutdown: stop the loop, drain in-flight jobs, compact every
  // graph to a fresh base snapshot (PersistAll).
  Status Stop();

  // Crash simulation for the restart tests: stop the loop and drain jobs
  // but skip the persist-on-stop sweep — restore must replay delta logs.
  Status StopWithoutPersist();

  // Observability counters for the connection-hygiene paths.
  uint64_t slow_consumer_disconnects() const {
    return slow_consumer_disconnects_.load(std::memory_order_relaxed);
  }
  uint64_t idle_disconnects() const {
    return idle_disconnects_.load(std::memory_order_relaxed);
  }
  uint64_t accept_sheds() const {
    return accept_sheds_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  struct JobRecord;
  struct SubmitToken;

  void Loop();
  void AcceptNewConnections();
  void FlushAndCloseAll();

  // Reads everything available on `conn`; returns false when the
  // connection is gone (EOF / error / protocol violation).
  bool ReadFromConnection(Connection& conn);
  bool WriteToConnection(Connection& conn);
  void DispatchFrame(Connection& conn, const Frame& frame);

  void HandleSubmit(Connection& conn, const SubmitRequest& request)
      ATR_EXCLUDES(jobs_mu_);
  void HandleWait(Connection& conn, const WaitRequest& request)
      ATR_EXCLUDES(jobs_mu_);
  void HandleCancel(Connection& conn, const CancelRequest& request)
      ATR_EXCLUDES(jobs_mu_);
  void HandleUpdateGraph(Connection& conn, const UpdateGraphRequest& request);
  void HandleCompact(Connection& conn, const CompactRequest& request);

  void SendError(Connection& conn, uint64_t request_id, const Status& status,
                 uint32_t retry_after_ms = 0);
  void QueueFrame(Connection& conn, std::vector<uint8_t> frame);

  // Worker-side completion hook: records `job_id` as completed and wakes
  // the network thread.
  void NotifyJobDone(uint64_t job_id) ATR_EXCLUDES(jobs_mu_);
  // Network-thread side: drains the completed list, answers waiters,
  // evicts old finished jobs.
  void ProcessCompletedJobs() ATR_EXCLUDES(jobs_mu_);
  // The response frame for a finished job (WaitResponse or kError). The
  // record lives in jobs_, so the caller holds jobs_mu_ across the call.
  std::vector<uint8_t> FinishedJobFrame(uint64_t request_id, JobRecord& job)
      ATR_REQUIRES(jobs_mu_);

  uint32_t RetryAfterMs(const std::string& tenant) const;

  Options options_;
  Transport* transport_ = nullptr;  // never null after construction
  std::unique_ptr<AtrService> service_;
  std::unique_ptr<persist::PersistentCatalog> catalog_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  // Reserve descriptor for the EMFILE shed path: closed to free a slot,
  // so the pending connection can be accepted, told the server is out of
  // descriptors, and closed — instead of spinning on accept failures
  // while the peer hangs forever on an unanswered SYN backlog entry.
  int spare_fd_ = -1;
  uint16_t port_ = 0;

  std::atomic<uint64_t> slow_consumer_disconnects_{0};
  std::atomic<uint64_t> idle_disconnects_{0};
  std::atomic<uint64_t> accept_sheds_{0};

  std::thread loop_thread_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;
  bool stopped_ = false;

  // Connections live on the network thread only.
  std::map<int, std::unique_ptr<Connection>> connections_;
  int next_connection_id_ = 1;

  Mutex jobs_mu_;
  std::map<uint64_t, JobRecord> jobs_ ATR_GUARDED_BY(jobs_mu_);
  // Job ids awaiting ProcessCompletedJobs.
  std::vector<uint64_t> completed_ ATR_GUARDED_BY(jobs_mu_);
  // Eviction order for done jobs.
  std::vector<uint64_t> finished_fifo_ ATR_GUARDED_BY(jobs_mu_);
};

}  // namespace net
}  // namespace atr

#endif  // ATR_NET_SERVER_H_
