// Fuzz harness for the server's connection state machine: every input is
// a small op program driving a LIVE AtrServer (service, worker pool,
// wake pipe, idle reaping) through a SimTransport — multi-connection
// frame soup, torn reads, short writes, injected errno faults, EMFILE
// accepts, resets, mid-frame disconnects, and virtual time jumps, all
// interleaved however the mutation engine likes.
//
// Pass criteria, checked every iteration:
//   - no crash, no sanitizer report (the nightly CI leg runs this under
//     ASan/UBSan; the churn soak covers TSan);
//   - the server never emits a malformed frame (every drained byte goes
//     through a client-side FrameParser that must stay ok());
//   - no leaked connections: after Stop every simulated connection
//     descriptor is closed, and after destruction every descriptor is.
//
// Op encoding (2 bytes per op — op byte, arg byte — so byte-level
// mutations stay syntactically valid):
//
//   0  ping              valid PingRequest on connection arg%4
//   1  noise             arg%48 raw stream bytes onto connection arg%4
//   2  submit            valid SubmitRequest ("g" or a missing graph)
//   3  wait              WaitRequest for job id 1+arg%4 (often unknown)
//   4  close             client half-close of connection arg%4
//   5  reset             sticky ECONNRESET on connection arg%4
//   6  read_chunk        max_read_chunk = 1+arg%7 (torn reads)
//   7  write_chunk       max_write_chunk = 1+arg%7 (short writes)
//   8  write_space       simulated kernel buffer = arg%64 bytes
//   9  fail_read         one-shot EINTR/ECONNRESET/ETIMEDOUT on read
//   10 fail_write        one-shot EINTR/EPIPE/ECONNRESET on write
//   11 emfile            next accept fails EMFILE, then connect
//   12 advance           virtual clock += arg*16 ms (reaps may fire)
//   13 drain             TakeOutput through the checking parser
//   14 connect           (re)open connection slot arg%4
//   15 partial           first arg%16 bytes of a ping frame (mid-frame)
//
// A ShutdownRequest is deliberately absent: Stop() runs at the end of
// every program anyway, and the graceful-shutdown protocol has its own
// deterministic tests.

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "api/service.h"
#include "graph/graph.h"
#include "net/server.h"
#include "net/sim_transport.h"
#include "net/wire.h"

#include "fuzz/standalone_driver.h"

using namespace atr;
using namespace atr::net;

namespace {

constexpr size_t kSlots = 4;
constexpr size_t kMaxOps = 128;

Graph SeedGraph() {
  GraphBuilder builder;
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) {
      if ((u * 3 + v) % 5 != 0) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

struct Client {
  std::shared_ptr<SimTransport::Connection> conn;
  FrameParser parser;  // checks everything the server sends back
};

void Drain(Client& client) {
  const std::vector<uint8_t> bytes = client.conn->TakeOutput();
  if (!bytes.empty()) client.parser.Feed(bytes.data(), bytes.size());
  while (client.parser.Next()) {
  }
  if (!client.parser.ok()) {
    std::fprintf(stderr,
                 "fuzz_server: server emitted a malformed frame: %s\n",
                 client.parser.status().message().c_str());
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  SimTransport sim;
  sim.set_idle_poll_real_ms(1);  // keep frozen-clock poll rounds snappy

  AtrServer::Options options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.idle_timeout_ms = 32;          // advance ops can trigger reaps
  options.max_output_buffer_bytes = 512;  // and the high-water mark is near
  options.retry_after_base_ms = 5;
  options.transport = &sim;
  {
    AtrServer server(options);
    if (!server.Start().ok()) std::abort();
    if (!server.AddGraph("g", SeedGraph()).ok()) std::abort();

    Client clients[kSlots];
    auto client_at = [&](uint8_t arg) -> Client& {
      Client& client = clients[arg % kSlots];
      if (client.conn == nullptr) {
        client.conn = sim.Connect();
        client.parser = FrameParser();
      }
      return client;
    };

    size_t pos = 0;
    size_t ops = 0;
    uint64_t request_id = 1;
    while (pos < size && ops < kMaxOps) {
      const uint8_t op = data[pos++] % 16;
      const uint8_t arg = pos < size ? data[pos++] : 0;
      ++ops;
      switch (op) {
        case 0: {
          PingRequest ping;
          ping.request_id = request_id++;
          client_at(arg).conn->Send(ping.EncodeFrame());
          break;
        }
        case 1: {
          const size_t len = arg % 48;
          std::vector<uint8_t> noise(len);
          for (size_t i = 0; i < len; ++i) {
            noise[i] = pos < size ? data[pos++] : uint8_t(arg + i);
          }
          client_at(arg).conn->Send(noise);
          break;
        }
        case 2: {
          SubmitRequest submit;
          submit.request_id = request_id++;
          submit.graph = arg % 8 == 0 ? "missing" : "g";
          submit.solver = "gas";
          submit.options.budget = 1;
          submit.tenant = arg % 4 == 0 ? "acme" : "";
          client_at(arg).conn->Send(submit.EncodeFrame());
          break;
        }
        case 3: {
          WaitRequest wait;
          wait.request_id = request_id++;
          wait.job_id = 1 + arg % kSlots;
          client_at(arg).conn->Send(wait.EncodeFrame());
          break;
        }
        case 4:
          client_at(arg).conn->Close();
          break;
        case 5:
          client_at(arg).conn->Reset(ECONNRESET);
          break;
        case 6:
          client_at(arg).conn->set_max_read_chunk(1 + arg % 7);
          break;
        case 7:
          client_at(arg).conn->set_max_write_chunk(1 + arg % 7);
          break;
        case 8:
          client_at(arg).conn->set_write_space(arg % 64);
          break;
        case 9: {
          static const int kReadErrs[] = {EINTR, ECONNRESET, ETIMEDOUT};
          client_at(arg).conn->FailNextRead(kReadErrs[arg % 3]);
          break;
        }
        case 10: {
          static const int kWriteErrs[] = {EINTR, EPIPE, ECONNRESET};
          client_at(arg).conn->FailNextWrite(kWriteErrs[arg % 3]);
          break;
        }
        case 11:
          sim.InjectAcceptError(EMFILE);
          clients[arg % kSlots].conn = sim.Connect();
          clients[arg % kSlots].parser = FrameParser();
          break;
        case 12:
          sim.AdvanceTimeMs(int64_t(arg) * 16);
          break;
        case 13:
          Drain(client_at(arg));
          break;
        case 14:
          clients[arg % kSlots].conn = sim.Connect();
          clients[arg % kSlots].parser = FrameParser();
          break;
        case 15: {
          PingRequest ping;
          ping.request_id = request_id++;
          const std::vector<uint8_t> frame = ping.EncodeFrame();
          client_at(arg).conn->Send(frame.data(), arg % frame.size());
          break;
        }
      }
    }

    // Rendezvous with the loop: every byte the program queued must be
    // consumed (or the connection dropped) before the program counts as
    // executed — otherwise Stop() races ahead of the state machine and
    // the ops never reach it. Bounded: a read fault, a poisoned parser,
    // an overflow, or a reap all close the connection, which also
    // satisfies the wait.
    for (Client& client : clients) {
      if (client.conn == nullptr) continue;
      if (!client.conn->WaitForInputDrained(2000)) {
        std::fprintf(stderr, "fuzz_server: server wedged with unread input\n");
        std::abort();
      }
    }
    // Unjam every peer so the shutdown flush terminates fast, drain the
    // bytes so far through the checking parsers, then stop.
    for (Client& client : clients) {
      if (client.conn == nullptr) continue;
      client.conn->set_write_space(SIZE_MAX);
      client.conn->set_max_write_chunk(SIZE_MAX);
      Drain(client);
    }
    if (!server.Stop().ok()) std::abort();
    // The shutdown flush may have pushed more bytes; check those too.
    for (Client& client : clients) {
      if (client.conn != nullptr) Drain(client);
    }
    if (sim.open_connection_fds() != 0) {
      std::fprintf(stderr, "fuzz_server: %d leaked connection fds after Stop\n",
                   sim.open_connection_fds());
      std::abort();
    }
  }
  // The server's destructor must return every remaining descriptor
  // (listener, wake pipe, spare) too.
  if (sim.open_fds() != 0) {
    std::fprintf(stderr, "fuzz_server: %d leaked fds after destruction\n",
                 sim.open_fds());
    std::abort();
  }
  return 0;
}

std::vector<std::vector<uint8_t>> FuzzSeedCorpus() {
  std::vector<std::vector<uint8_t>> corpus;

  // A calm session: four pings on two connections, drained.
  corpus.push_back({14, 0, 14, 1, 0, 0, 0, 1, 0, 0, 0, 1, 13, 0, 13, 1});

  // Torn reads + short writes around a submit/wait pair, time advancing.
  corpus.push_back({14, 0, 6,  0, 7,  0, 8,  9, 2, 1, 3, 1,
                    12, 4, 13, 0, 12, 8, 13, 0, 4, 0});

  // Fault storm: EMFILE accept, resets, one-shot errno faults, noise.
  corpus.push_back({11, 0, 14, 1, 9,  1, 0,  1, 10, 4, 0, 1,
                    1,  9, 5,  2, 15, 3, 12, 16, 13, 1});

  // Slow consumer: no write space, pings pile into the output buffer.
  corpus.push_back({14, 2, 8, 0, 0, 2, 0, 2, 0, 2, 0, 2, 12, 4, 13, 2});

  return corpus;
}
