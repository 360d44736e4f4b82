#include "net/server.h"

#include <cerrno>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace atr {
namespace net {
namespace {

// Best-effort request id for error responses to frames that failed to
// decode: every payload is supposed to lead with it.
uint64_t PeekRequestId(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  uint64_t id = 0;
  reader.ReadU64(&id);
  return id;
}

}  // namespace

// Per-connection state; lives on the network thread only.
struct AtrServer::Connection {
  int id = 0;
  int fd = -1;
  FrameParser parser;
  std::vector<uint8_t> out;  // bytes [out_offset, size) still unsent
  size_t out_offset = 0;
  bool closing = false;     // flush what is queued, then close
  bool overflowed = false;  // output high-water mark exceeded; drop now
  // Wait requests parked on unfinished jobs; a connection with one is
  // waiting on the server, not idling.
  size_t parked_waiters = 0;
  int64_t last_activity_ms = 0;  // Transport::NowMs clock

  bool HasPendingOutput() const { return out_offset < out.size(); }
};

struct AtrServer::JobRecord {
  JobHandle handle;
  bool done = false;
  // Wait requests parked until the job finishes: (connection id,
  // request id) pairs, answered by ProcessCompletedJobs.
  std::vector<std::pair<int, uint64_t>> waiters;
};

// Bridges the submit path and the job-completion callback: the callback
// can fire on a worker thread before TrySubmit has even returned the job
// id to the submitting (network) thread, so both sides rendezvous here.
struct AtrServer::SubmitToken {
  Mutex mu;
  uint64_t job_id ATR_GUARDED_BY(mu) = 0;
  bool fired ATR_GUARDED_BY(mu) = false;
};

AtrServer::AtrServer(Options options)
    : options_(std::move(options)),
      transport_(options_.transport != nullptr ? options_.transport
                                               : &DefaultTransport()) {}

AtrServer::~AtrServer() {
  // Destructor: nowhere to report a persist failure; callers wanting the
  // status call Stop() themselves first.
  if (started_ && !stopped_) (void)Stop();
  if (listen_fd_ >= 0) transport_->Close(listen_fd_);
  if (wake_read_fd_ >= 0) transport_->Close(wake_read_fd_);
  if (wake_write_fd_ >= 0) transport_->Close(wake_write_fd_);
  if (spare_fd_ >= 0) transport_->Close(spare_fd_);
}

Status AtrServer::Start() {
  if (started_) return Status::FailedPrecondition("AtrServer: already started");

  AtrService::Options service_options;
  service_options.workers = options_.workers;
  service_options.queue_capacity = options_.queue_capacity;
  if (options_.max_batch > 0) service_options.max_batch = options_.max_batch;
  service_ = std::make_unique<AtrService>(service_options);

  if (!options_.data_dir.empty()) {
    persist::PersistentCatalog::Options catalog_options;
    catalog_options.root_dir = options_.data_dir;
    catalog_options.compact_threshold = options_.compact_threshold;
    catalog_ =
        std::make_unique<persist::PersistentCatalog>(*service_, catalog_options);
    if (Status s = catalog_->Open(); !s.ok()) return s;
  }

  if (Status s = transport_->OpenListener(options_.host, options_.port,
                                          &listen_fd_, &port_);
      !s.ok()) {
    return s;
  }
  if (Status s = transport_->OpenWakePipe(&wake_read_fd_, &wake_write_fd_);
      !s.ok()) {
    return s;
  }
  spare_fd_ = transport_->OpenSpare();

  started_ = true;
  loop_thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

Status AtrServer::AddGraph(const std::string& name, Graph graph) {
  if (service_ == nullptr) {
    return Status::FailedPrecondition("AtrServer: Start before AddGraph");
  }
  if (catalog_ != nullptr) return catalog_->AddGraph(name, std::move(graph));
  return service_->AddGraph(name, std::move(graph));
}

void AtrServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const uint8_t byte = 1;
    int err = 0;
    [[maybe_unused]] ssize_t n =
        transport_->Write(wake_write_fd_, &byte, 1, &err);
  }
}

void AtrServer::Join() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

Status AtrServer::Stop() {
  if (!started_ || stopped_) return Status::Ok();
  RequestStop();
  Join();
  service_->Drain();
  stopped_ = true;
  if (catalog_ != nullptr) return catalog_->PersistAll();
  return Status::Ok();
}

Status AtrServer::StopWithoutPersist() {
  if (!started_ || stopped_) return Status::Ok();
  RequestStop();
  Join();
  service_->Drain();
  stopped_ = true;  // no PersistAll: restore must come from base ⊕ log
  return Status::Ok();
}

// --- Network loop ---------------------------------------------------------

void AtrServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<int> polled_ids;  // connection id behind fds[2 + i]
  const int tick_ms =
      options_.idle_timeout_ms > 0
          ? std::min(500, static_cast<int>(options_.idle_timeout_ms))
          : 500;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    polled_ids.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_fd_, POLLIN, 0});
    for (auto& [id, conn] : connections_) {
      short events = POLLIN;
      if (conn->HasPendingOutput()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      polled_ids.push_back(id);
    }

    int poll_err = 0;
    const int ready =
        transport_->Poll(fds.data(), fds.size(), tick_ms, &poll_err);
    if (ready < 0) {
      if (poll_err == EINTR) continue;
      break;  // poll broken beyond repair; shut the loop down
    }

    if (fds[1].revents & POLLIN) {
      uint8_t drain[256];
      int err = 0;
      while (transport_->Read(wake_read_fd_, drain, sizeof(drain), &err) > 0) {
      }
    }
    ProcessCompletedJobs();
    if (stop_requested_.load(std::memory_order_acquire)) break;

    if (fds[0].revents & POLLIN) AcceptNewConnections();

    // Connections accepted above were not in this poll round; only the
    // ids snapshotted into polled_ids have meaningful revents.
    const int64_t now = transport_->NowMs();
    std::vector<int> dead;
    for (size_t i = 0; i < polled_ids.size(); ++i) {
      auto it = connections_.find(polled_ids[i]);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      const pollfd& pfd = fds[2 + i];
      bool alive = true;
      if (pfd.revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (pfd.revents & (POLLIN | POLLHUP))) {
        alive = ReadFromConnection(conn);
      }
      if (alive && (pfd.revents & POLLOUT)) alive = WriteToConnection(conn);
      if (alive && conn.overflowed) {
        std::fprintf(stderr,
                     "atr-server: disconnecting slow consumer (connection %d): "
                     "%zu unsent bytes exceed the %zu-byte high-water mark\n",
                     conn.id, conn.out.size() - conn.out_offset,
                     options_.max_output_buffer_bytes);
        slow_consumer_disconnects_.fetch_add(1, std::memory_order_relaxed);
        alive = false;
      }
      if (alive && options_.idle_timeout_ms > 0 && conn.parked_waiters == 0 &&
          !conn.HasPendingOutput() &&
          now - conn.last_activity_ms >=
              static_cast<int64_t>(options_.idle_timeout_ms)) {
        idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
        alive = false;
      }
      if (alive && conn.closing && !conn.HasPendingOutput()) alive = false;
      if (!alive) dead.push_back(polled_ids[i]);
    }
    for (const int id : dead) {
      transport_->Close(connections_[id]->fd);
      connections_.erase(id);
    }
  }

  FlushAndCloseAll();
}

void AtrServer::AcceptNewConnections() {
  for (;;) {
    int err = 0;
    const int fd = transport_->Accept(listen_fd_, &err);
    if (fd >= 0) {
      auto conn = std::make_unique<Connection>();
      conn->id = next_connection_id_++;
      conn->fd = fd;
      conn->last_activity_ms = transport_->NowMs();
      connections_[conn->id] = std::move(conn);
      continue;
    }
    if (err == EAGAIN || err == EWOULDBLOCK) return;
    if (err == EINTR) continue;
    // The peer gave up between SYN and accept; not our problem.
    if (err == ECONNABORTED || err == EPROTO) continue;
    if (err == EMFILE || err == ENFILE) {
      // Out of descriptors. Leaving the connection in the backlog would
      // make the peer block forever AND re-trigger POLLIN on the listener
      // every loop tick. Free the reserve descriptor, accept the pending
      // connection into the freed slot, answer it with a structured
      // kResourceExhausted error, and close it.
      if (spare_fd_ >= 0) {
        transport_->Close(spare_fd_);
        spare_fd_ = -1;
      }
      // Count the shed before the peer can observe it (the error frame or
      // the close), so whoever sees the close also sees the count.
      accept_sheds_.fetch_add(1, std::memory_order_relaxed);
      int shed_err = 0;
      const int shed = transport_->Accept(listen_fd_, &shed_err);
      if (shed >= 0) {
        ErrorResponse error;
        error.request_id = 0;  // connection-level: no request in flight yet
        error.code = StatusCode::kResourceExhausted;
        error.message = "server is out of file descriptors";
        error.retry_after_ms = RetryAfterMs("");
        const std::vector<uint8_t> frame = error.EncodeFrame();
        int send_err = 0;
        [[maybe_unused]] ssize_t n =
            transport_->Write(shed, frame.data(), frame.size(), &send_err);
        transport_->Close(shed);
      }
      spare_fd_ = transport_->OpenSpare();
      std::fprintf(stderr,
                   "atr-server: out of file descriptors; shed one pending "
                   "connection with kResourceExhausted\n");
      return;
    }
    return;  // unexpected accept failure; retry on the next POLLIN
  }
}

// Drain phase: give queued responses (e.g. the ShutdownResponse that
// triggered this exit) a bounded chance to flush, then close everything.
// Waits on the sockets themselves rather than sleeping blind, and drops
// peers that error out instead of retrying them for the full budget.
void AtrServer::FlushAndCloseAll() {
  const int64_t deadline_ms = transport_->NowMs() + 1000;
  std::vector<pollfd> fds;
  std::vector<int> polled_ids;
  // The round cap is a second bound alongside the deadline: under a
  // SimTransport whose virtual clock is frozen, a peer with no write
  // space would otherwise pin this drain loop forever. With the real
  // clock the 1 s deadline always fires first (each round polls ≤ 50 ms).
  for (int round = 0; round < 200; ++round) {
    fds.clear();
    polled_ids.clear();
    for (auto& [id, conn] : connections_) {
      if (conn->HasPendingOutput()) {
        fds.push_back({conn->fd, POLLOUT, 0});
        polled_ids.push_back(id);
      }
    }
    if (fds.empty()) break;
    const int64_t now_ms = transport_->NowMs();
    if (now_ms >= deadline_ms) break;
    const int wait_ms = static_cast<int>(deadline_ms - now_ms);
    int poll_err = 0;
    const int ready = transport_->Poll(fds.data(), fds.size(),
                                       std::min(wait_ms, 50), &poll_err);
    if (ready < 0 && poll_err != EINTR) break;
    for (size_t i = 0; i < polled_ids.size(); ++i) {
      auto it = connections_.find(polled_ids[i]);
      if (it == connections_.end()) continue;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        transport_->Close(it->second->fd);
        connections_.erase(it);
        continue;
      }
      if ((fds[i].revents & POLLOUT) && !WriteToConnection(*it->second)) {
        transport_->Close(it->second->fd);
        connections_.erase(it);
      }
    }
  }
  for (auto& [id, conn] : connections_) transport_->Close(conn->fd);
  connections_.clear();
}

bool AtrServer::ReadFromConnection(Connection& conn) {
  uint8_t chunk[1 << 16];
  bool peer_eof = false;
  for (;;) {
    int err = 0;
    const ssize_t n = transport_->Read(conn.fd, chunk, sizeof(chunk), &err);
    if (n > 0) {
      conn.last_activity_ms = transport_->NowMs();
      conn.parser.Feed(chunk, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      peer_eof = true;
      break;
    }
    if (err == EAGAIN || err == EWOULDBLOCK) break;
    if (err == EINTR) continue;
    return false;
  }
  while (std::optional<Frame> frame = conn.parser.Next()) {
    DispatchFrame(conn, *frame);
  }
  // A poisoned parser (oversize frame) means the stream is garbage;
  // protocol violations cost the connection.
  if (!conn.parser.ok()) return false;
  if (peer_eof) {
    // The peer half-closed after (possibly) pipelining requests. Those
    // frames were dispatched above and their responses belong to the
    // peer's still-open read side: mark the connection closing so the
    // loop flushes the queued output and only then closes. Returning
    // false here used to drop every pipelined response on the floor.
    conn.closing = true;
    if (!conn.HasPendingOutput()) return false;
  }
  return true;
}

bool AtrServer::WriteToConnection(Connection& conn) {
  while (conn.HasPendingOutput()) {
    int err = 0;
    const ssize_t n =
        transport_->Write(conn.fd, conn.out.data() + conn.out_offset,
                          conn.out.size() - conn.out_offset, &err);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (err == EAGAIN || err == EWOULDBLOCK)) return true;
    if (n < 0 && err == EINTR) continue;
    return false;
  }
  conn.out.clear();
  conn.out_offset = 0;
  return true;
}

void AtrServer::QueueFrame(Connection& conn, std::vector<uint8_t> frame) {
  if (conn.out_offset == conn.out.size()) {
    conn.out = std::move(frame);
    conn.out_offset = 0;
  } else {
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  }
  // A peer that keeps issuing requests without reading responses would
  // otherwise grow this buffer without bound; past the high-water mark the
  // connection is condemned (the network loop closes it this round).
  if (conn.out.size() - conn.out_offset > options_.max_output_buffer_bytes) {
    conn.overflowed = true;
  }
}

void AtrServer::SendError(Connection& conn, uint64_t request_id,
                          const Status& status, uint32_t retry_after_ms) {
  ErrorResponse error;
  error.request_id = request_id;
  error.code = status.code();
  error.message = status.message();
  error.retry_after_ms = retry_after_ms;
  QueueFrame(conn, error.EncodeFrame());
}

uint32_t AtrServer::RetryAfterMs(const std::string& tenant) const {
  // Scale the base hint by how deep the pending queue is relative to the
  // worker pool: a barely-full queue suggests a short wait, a queue many
  // jobs deep per worker suggests a longer one. A named tenant's hint
  // scales with its OWN backlog — under fair-share dispatch a light
  // tenant behind a heavy one is served after at most one DRR cycle, so
  // the global queue depth would wildly overstate its wait.
  const size_t load = tenant.empty() ? service_->QueueLoad()
                                     : service_->TenantLoad(tenant);
  const size_t workers = std::max(1, service_->Workers());
  const uint64_t scaled =
      uint64_t(options_.retry_after_base_ms) * (1 + load / workers);
  return static_cast<uint32_t>(std::min<uint64_t>(scaled, 10'000));
}

void AtrServer::DispatchFrame(Connection& conn, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kPing: {
      StatusOr<PingRequest> request = PingRequest::Decode(frame.payload);
      if (!request.ok()) {
        SendError(conn, PeekRequestId(frame.payload), request.status());
        return;
      }
      PingResponse response;
      response.request_id = request->request_id;
      QueueFrame(conn, response.EncodeFrame());
      return;
    }
    case MsgType::kListGraphs: {
      StatusOr<ListGraphsRequest> request =
          ListGraphsRequest::Decode(frame.payload);
      if (!request.ok()) {
        SendError(conn, PeekRequestId(frame.payload), request.status());
        return;
      }
      ListGraphsResponse response;
      response.request_id = request->request_id;
      response.names = service_->GraphNames();
      QueueFrame(conn, response.EncodeFrame());
      return;
    }
    case MsgType::kInfo: {
      StatusOr<InfoRequest> request = InfoRequest::Decode(frame.payload);
      if (!request.ok()) {
        SendError(conn, PeekRequestId(frame.payload), request.status());
        return;
      }
      StatusOr<AtrService::GraphInfo> info = service_->Info(request->graph);
      if (!info.ok()) {
        SendError(conn, request->request_id, info.status());
        return;
      }
      InfoResponse response;
      response.request_id = request->request_id;
      response.info = *std::move(info);
      QueueFrame(conn, response.EncodeFrame());
      return;
    }
    case MsgType::kSubmit: {
      StatusOr<SubmitRequest> request = SubmitRequest::Decode(frame.payload);
      if (!request.ok()) {
        SendError(conn, PeekRequestId(frame.payload), request.status());
        return;
      }
      HandleSubmit(conn, *request);
      return;
    }
    case MsgType::kWait: {
      StatusOr<WaitRequest> request = WaitRequest::Decode(frame.payload);
      if (!request.ok()) {
        SendError(conn, PeekRequestId(frame.payload), request.status());
        return;
      }
      HandleWait(conn, *request);
      return;
    }
    case MsgType::kCancel: {
      StatusOr<CancelRequest> request = CancelRequest::Decode(frame.payload);
      if (!request.ok()) {
        SendError(conn, PeekRequestId(frame.payload), request.status());
        return;
      }
      HandleCancel(conn, *request);
      return;
    }
    case MsgType::kUpdateGraph: {
      StatusOr<UpdateGraphRequest> request =
          UpdateGraphRequest::Decode(frame.payload);
      if (!request.ok()) {
        SendError(conn, PeekRequestId(frame.payload), request.status());
        return;
      }
      HandleUpdateGraph(conn, *request);
      return;
    }
    case MsgType::kCompact: {
      StatusOr<CompactRequest> request = CompactRequest::Decode(frame.payload);
      if (!request.ok()) {
        SendError(conn, PeekRequestId(frame.payload), request.status());
        return;
      }
      HandleCompact(conn, *request);
      return;
    }
    case MsgType::kShutdown: {
      StatusOr<ShutdownRequest> request =
          ShutdownRequest::Decode(frame.payload);
      if (!request.ok()) {
        SendError(conn, PeekRequestId(frame.payload), request.status());
        return;
      }
      ShutdownResponse response;
      response.request_id = request->request_id;
      QueueFrame(conn, response.EncodeFrame());
      conn.closing = true;
      stop_requested_.store(true, std::memory_order_release);
      return;
    }
    default:
      SendError(conn, PeekRequestId(frame.payload),
                Status::InvalidArgument(
                    std::string("unexpected frame type ") +
                    MsgTypeName(frame.type) + " on the server side"));
      return;
  }
}

void AtrServer::HandleSubmit(Connection& conn, const SubmitRequest& request) {
  auto token = std::make_shared<SubmitToken>();
  auto done = [this, token] {
    uint64_t id = 0;
    {
      MutexLock lock(&token->mu);
      if (token->job_id == 0) {
        // Fired before the submitting thread learned the job id; it will
        // deliver the notification itself.
        token->fired = true;
        return;
      }
      id = token->job_id;
    }
    NotifyJobDone(id);
  };

  AtrService::SubmitOptions submit_options;
  submit_options.tenant = request.tenant;
  submit_options.priority = request.priority;
  StatusOr<JobHandle> handle =
      service_->TrySubmit(request.graph, request.solver,
                          request.options.ToSolverOptions(), submit_options,
                          done);
  if (!handle.ok()) {
    const bool saturated =
        handle.status().code() == StatusCode::kResourceExhausted;
    SendError(conn, request.request_id, handle.status(),
              saturated ? RetryAfterMs(request.tenant) : 0);
    return;
  }

  const uint64_t job_id = handle->id();
  {
    MutexLock lock(&jobs_mu_);
    jobs_[job_id].handle = *handle;
  }
  bool already_fired = false;
  {
    MutexLock lock(&token->mu);
    token->job_id = job_id;
    already_fired = token->fired;
  }
  if (already_fired) NotifyJobDone(job_id);

  SubmitResponse response;
  response.request_id = request.request_id;
  response.job_id = job_id;
  QueueFrame(conn, response.EncodeFrame());
}

std::vector<uint8_t> AtrServer::FinishedJobFrame(uint64_t request_id,
                                                 JobRecord& job) {
  std::optional<StatusOr<SolveResult>> result = job.handle.TryGet();
  if (!result.has_value()) {
    ErrorResponse error;
    error.request_id = request_id;
    error.code = StatusCode::kInternal;
    error.message = "job marked done but its result is not available";
    return error.EncodeFrame();
  }
  if (!result->ok()) {
    ErrorResponse error;
    error.request_id = request_id;
    error.code = result->status().code();
    error.message = result->status().message();
    return error.EncodeFrame();
  }
  WaitResponse response;
  response.request_id = request_id;
  response.job_id = job.handle.id();
  response.result = WireSolveResult::FromSolveResult(**result);
  return response.EncodeFrame();
}

void AtrServer::HandleWait(Connection& conn, const WaitRequest& request) {
  std::vector<uint8_t> frame;
  {
    MutexLock lock(&jobs_mu_);
    auto it = jobs_.find(request.job_id);
    if (it == jobs_.end()) {
      SendError(conn, request.request_id,
                Status::NotFound("unknown job id " +
                                 std::to_string(request.job_id)));
      return;
    }
    if (!it->second.done) {
      it->second.waiters.emplace_back(conn.id, request.request_id);
      ++conn.parked_waiters;  // waiting on us — exempt from idle reaping
      return;  // answered by ProcessCompletedJobs when the job finishes
    }
    frame = FinishedJobFrame(request.request_id, it->second);
  }
  QueueFrame(conn, std::move(frame));
}

void AtrServer::HandleCancel(Connection& conn, const CancelRequest& request) {
  JobHandle handle;
  {
    MutexLock lock(&jobs_mu_);
    auto it = jobs_.find(request.job_id);
    if (it == jobs_.end()) {
      SendError(conn, request.request_id,
                Status::NotFound("unknown job id " +
                                 std::to_string(request.job_id)));
      return;
    }
    handle = it->second.handle;
  }
  CancelResponse response;
  response.request_id = request.request_id;
  response.cancelled = handle.Cancel();
  QueueFrame(conn, response.EncodeFrame());
}

void AtrServer::HandleUpdateGraph(Connection& conn,
                                  const UpdateGraphRequest& request) {
  StatusOr<GraphSnapshot> snapshot =
      catalog_ != nullptr ? catalog_->UpdateGraph(request.graph, request.delta)
                          : service_->UpdateGraph(request.graph, request.delta);
  if (!snapshot.ok()) {
    SendError(conn, request.request_id, snapshot.status());
    return;
  }
  UpdateGraphResponse response;
  response.request_id = request.request_id;
  response.version = snapshot->version;
  response.num_vertices = snapshot->graph->NumVertices();
  response.num_edges = snapshot->graph->NumEdges();
  QueueFrame(conn, response.EncodeFrame());
}

void AtrServer::HandleCompact(Connection& conn,
                              const CompactRequest& request) {
  if (catalog_ == nullptr) {
    SendError(conn, request.request_id,
              Status::FailedPrecondition(
                  "server is running without persistence (no data_dir)"));
    return;
  }
  if (Status s = catalog_->Compact(request.graph); !s.ok()) {
    SendError(conn, request.request_id, s);
    return;
  }
  CompactResponse response;
  response.request_id = request.request_id;
  QueueFrame(conn, response.EncodeFrame());
}

void AtrServer::NotifyJobDone(uint64_t job_id) {
  {
    MutexLock lock(&jobs_mu_);
    completed_.push_back(job_id);
  }
  if (wake_write_fd_ >= 0) {
    const uint8_t byte = 1;
    int err = 0;
    [[maybe_unused]] ssize_t n =
        transport_->Write(wake_write_fd_, &byte, 1, &err);
  }
}

void AtrServer::ProcessCompletedJobs() {
  // (connection id, encoded frame) pairs built under the lock, queued
  // after it — connections_ belongs to this (network) thread anyway.
  std::vector<std::pair<int, std::vector<uint8_t>>> deliveries;
  {
    MutexLock lock(&jobs_mu_);
    std::vector<uint64_t> completed = std::move(completed_);
    completed_.clear();
    for (const uint64_t job_id : completed) {
      auto it = jobs_.find(job_id);
      if (it == jobs_.end()) continue;
      it->second.done = true;
      for (const auto& [conn_id, request_id] : it->second.waiters) {
        deliveries.emplace_back(conn_id,
                                FinishedJobFrame(request_id, it->second));
      }
      it->second.waiters.clear();
      finished_fifo_.push_back(job_id);
    }
    while (finished_fifo_.size() > options_.finished_jobs_cap) {
      jobs_.erase(finished_fifo_.front());
      finished_fifo_.erase(finished_fifo_.begin());
    }
  }
  for (auto& [conn_id, frame] : deliveries) {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) continue;  // waiter hung up; drop it
    if (it->second->parked_waiters > 0) --it->second->parked_waiters;
    it->second->last_activity_ms = transport_->NowMs();
    QueueFrame(*it->second, std::move(frame));
  }
}

}  // namespace net
}  // namespace atr
