// Connection-churn soak for the ATR server: several driver threads
// hammer a live AtrServer through a SimTransport — connect/disconnect
// churn, pipelined requests, torn reads, short writes, resets, wire
// graph updates, and in-process submits racing the network thread — with
// the virtual clock in auto-advance mode so idle reaping and
// retry-after paths fire "naturally" under load. The nightly CI leg runs
// this under TSan (the cross-thread surface: network loop vs worker
// pool vs driver threads) and a short run is registered as a ctest
// smoke with the `soak` label.
//
// Knobs (environment, like every bench):
//   ATR_SOAK_THREADS   driver threads            (default 4)
//   ATR_SOAK_OPS       operations per thread     (default 300)
//   ATR_SOAK_SEED      PRNG seed                 (default 1)
//
// Exit status is nonzero when an invariant breaks: a malformed frame
// from the server, a wedged driver, or a leaked connection descriptor
// after shutdown.

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "api/service.h"
#include "graph/graph.h"
#include "net/server.h"
#include "net/sim_transport.h"
#include "net/wire.h"
#include "util/env.h"
#include "util/prng.h"

using namespace atr;
using namespace atr::net;

namespace {

Graph SeedGraph() {
  GraphBuilder builder;
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) {
      if ((u * 3 + v) % 5 != 0) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

struct Totals {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> errors{0};  // structured kError responses (expected)
  std::atomic<bool> failed{false};
};

class Driver {
 public:
  Driver(SimTransport& sim, AtrServer& server, Totals& totals, uint64_t seed)
      : sim_(sim), server_(server), totals_(totals), rng_(seed) {}

  void Run(int64_t ops) {
    for (int64_t i = 0; i < ops && !totals_.failed.load(); ++i) {
      totals_.ops.fetch_add(1, std::memory_order_relaxed);
      Step();
    }
  }

 private:
  uint64_t Rand() { return SplitMix64(rng_); }

  void Reconnect() {
    conn_ = sim_.Connect();
    parser_ = FrameParser();
    totals_.reconnects.fetch_add(1, std::memory_order_relaxed);
  }

  void EnsureConnected() {
    if (conn_ == nullptr || conn_->closed_by_server()) Reconnect();
  }

  // Sends one request frame and pumps its response. A false return means
  // the connection died under us (reap, reset, overflow) — that is churn,
  // not failure; the next op reconnects.
  bool RoundTrip(const std::vector<uint8_t>& frame) {
    conn_->Send(frame);
    std::vector<Frame> frames;
    if (!PumpFrames(*conn_, parser_, 1, &frames, 2000)) return false;
    if (!parser_.ok()) {
      std::fprintf(stderr, "soak_churn: malformed frame from server: %s\n",
                   parser_.status().message().c_str());
      totals_.failed.store(true);
      return false;
    }
    totals_.responses.fetch_add(1, std::memory_order_relaxed);
    if (frames.back().type == MsgType::kError) {
      totals_.errors.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  void Step() {
    EnsureConnected();
    const uint64_t pick = Rand() % 100;
    if (pick < 40) {
      PingRequest ping;
      ping.request_id = next_id_++;
      RoundTrip(ping.EncodeFrame());
    } else if (pick < 58) {
      SubmitRequest submit;
      submit.request_id = next_id_++;
      submit.graph = "g";
      submit.solver = "gas";
      submit.options.budget = 1;
      submit.tenant = Rand() % 3 == 0 ? "acme" : "";
      conn_->Send(submit.EncodeFrame());
      std::vector<Frame> frames;
      if (!PumpFrames(*conn_, parser_, 1, &frames, 2000)) return;
      totals_.responses.fetch_add(1, std::memory_order_relaxed);
      if (frames.back().type != MsgType::kSubmitResponse) {
        totals_.errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      StatusOr<SubmitResponse> submitted =
          SubmitResponse::Decode(frames.back().payload);
      if (!submitted.ok()) {
        std::fprintf(stderr, "soak_churn: undecodable SubmitResponse\n");
        totals_.failed.store(true);
        return;
      }
      if (Rand() % 2 == 0) {
        WaitRequest wait;
        wait.request_id = next_id_++;
        wait.job_id = submitted->job_id;
        RoundTrip(wait.EncodeFrame());
      } else {
        CancelRequest cancel;
        cancel.request_id = next_id_++;
        cancel.job_id = submitted->job_id;
        RoundTrip(cancel.EncodeFrame());
      }
    } else if (pick < 66) {
      ListGraphsRequest list;
      list.request_id = next_id_++;
      RoundTrip(list.EncodeFrame());
    } else if (pick < 73) {
      // Wire graph update: incremental truss maintenance runs inline on
      // the network thread while other drivers read the same graph.
      UpdateGraphRequest update;
      update.request_id = next_id_++;
      update.graph = "g";
      const VertexId u = VertexId(Rand() % 12);
      const VertexId v = VertexId(Rand() % 12);
      if (u != v) {
        if (Rand() % 2 == 0) {
          update.delta.add.push_back({u, v});
        } else {
          update.delta.remove.push_back({u, v});
        }
      }
      RoundTrip(update.EncodeFrame());
    } else if (pick < 78) {
      conn_->set_max_read_chunk(1 + Rand() % 5);
      conn_->set_max_write_chunk(1 + Rand() % 5);
    } else if (pick < 82) {
      // Auto-advance only jumps the clock when the loop goes fully idle,
      // which a busy soak rarely is — explicit jumps make sure the idle
      // reaper actually runs against everyone else's parked connections.
      sim_.AdvanceTimeMs(int64_t(Rand() % 40));
    } else if (pick < 86) {
      conn_->Close();
      Reconnect();
    } else if (pick < 90) {
      conn_->Reset(ECONNRESET);
    } else if (pick < 96) {
      // In-process traffic racing the wire path through the same service.
      SolverOptions options;
      options.budget = 1;
      if (StatusOr<JobHandle> job =
              server_.service().Submit("g", "gas", options);
          job.ok()) {
        if (Rand() % 2 == 0) job->Cancel();
        (void)job->Wait();  // churn only needs completion; result discarded
      }
    } else {
      const std::vector<uint8_t> bytes = conn_->TakeOutput();
      if (!bytes.empty()) parser_.Feed(bytes.data(), bytes.size());
      while (parser_.Next()) {
      }
    }
  }

  SimTransport& sim_;
  AtrServer& server_;
  Totals& totals_;
  uint64_t rng_;
  uint64_t next_id_ = 1;
  std::shared_ptr<SimTransport::Connection> conn_;
  FrameParser parser_;
};

}  // namespace

int main() {
  const int64_t threads = GetEnvInt64("ATR_SOAK_THREADS", 4);
  const int64_t ops = GetEnvInt64("ATR_SOAK_OPS", 300);
  const uint64_t seed =
      static_cast<uint64_t>(GetEnvInt64("ATR_SOAK_SEED", 1));
  std::printf("soak_churn: threads=%lld ops=%lld seed=%llu\n",
              static_cast<long long>(threads), static_cast<long long>(ops),
              static_cast<unsigned long long>(seed));

  SimTransport sim;
  sim.set_auto_advance(true);  // idle loop jumps the clock: reaps fire
  Totals totals;
  {
    AtrServer::Options options;
    options.workers = 2;
    options.queue_capacity = 8;
    options.idle_timeout_ms = 50;
    options.retry_after_base_ms = 5;
    options.transport = &sim;
    AtrServer server(options);
    if (!server.Start().ok() || !server.AddGraph("g", SeedGraph()).ok()) {
      std::fprintf(stderr, "soak_churn: server failed to start\n");
      return 1;
    }

    std::vector<std::thread> drivers;
    for (int64_t t = 0; t < threads; ++t) {
      drivers.emplace_back([&, t] {
        uint64_t thread_seed = seed ^ (0x9e3779b97f4a7c15ULL * (t + 1));
        Driver driver(sim, server, totals, SplitMix64(thread_seed));
        driver.Run(ops);
      });
    }
    for (std::thread& t : drivers) t.join();

    if (!server.Stop().ok()) {
      std::fprintf(stderr, "soak_churn: Stop failed\n");
      return 1;
    }
    if (sim.open_connection_fds() != 0) {
      std::fprintf(stderr, "soak_churn: %d leaked connection fds after Stop\n",
                   sim.open_connection_fds());
      return 1;
    }
    std::printf(
        "soak_churn: ops=%llu responses=%llu structured_errors=%llu "
        "reconnects=%llu accepts=%llu idle_reaps=%llu slow_consumer=%llu "
        "accept_sheds=%llu virtual_ms=%lld\n",
        static_cast<unsigned long long>(totals.ops.load()),
        static_cast<unsigned long long>(totals.responses.load()),
        static_cast<unsigned long long>(totals.errors.load()),
        static_cast<unsigned long long>(totals.reconnects.load()),
        static_cast<unsigned long long>(sim.accepts()),
        static_cast<unsigned long long>(server.idle_disconnects()),
        static_cast<unsigned long long>(server.slow_consumer_disconnects()),
        static_cast<unsigned long long>(server.accept_sheds()),
        static_cast<long long>(sim.now_ms()));
  }
  if (totals.failed.load()) {
    std::fprintf(stderr, "soak_churn: invariant violated\n");
    return 1;
  }
  if (sim.open_fds() != 0) {
    std::fprintf(stderr, "soak_churn: %d leaked fds after destruction\n",
                 sim.open_fds());
    return 1;
  }
  std::printf("soak_churn: ok\n");
  return 0;
}
