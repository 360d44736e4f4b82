#include "calibrate.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

// Spins a dependent xorshift chain for `seconds`; returns iterations/s.
double SpinRate(double seconds) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t iterations = 0;
  Clock::time_point now = start;
  while (now < stop) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iterations += 4096;
    now = Clock::now();
  }
  // Keeps the chain observable so it is not folded away.
  static std::atomic<uint64_t> sink{0};
  sink.fetch_xor(x, std::memory_order_relaxed);
  return static_cast<double>(iterations) /
         std::chrono::duration<double>(now - start).count();
}

}  // namespace

double EffectiveCores(int threads, double seconds) {
  // The single-thread baseline is read on both sides of the parallel phase
  // and the faster reading kept, so one throttled reading cannot inflate
  // the ratio.
  const double single_before = SpinRate(seconds);
  std::vector<double> rates(std::max(1, threads), 0.0);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < rates.size(); ++t) {
    pool.emplace_back([&rates, t, seconds] { rates[t] = SpinRate(seconds); });
  }
  for (std::thread& thread : pool) thread.join();
  const double single = std::max(single_before, SpinRate(seconds));
  double total = 0.0;
  for (const double rate : rates) total += rate;
  return single > 0.0 ? total / single : 0.0;
}

}  // namespace perfbench
