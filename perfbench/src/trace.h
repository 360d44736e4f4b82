// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into
// each layer (client calls for net/api, the server-reported solve time for
// core, direct calls into layer functions during the replay phase). A span
// has a name, a layer, start and end on the steady clock, the id of the
// span that caused it (0 = root) and a request id shared by every span of
// one request. Nothing is written until the run ends.
//
// A layer's self time is the sum over its spans of the span's duration
// minus the part of that interval its child spans cover.
//
// A disabled tracer records nothing; Record then costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// The layers the benchmark attributes time to, in report order.
inline constexpr const char* kLayers[] = {"net",   "api",   "core",  "route",
                                          "tree",  "truss", "graph", "persist"};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records a finished span and returns its id (0 when disabled).
  uint64_t Record(const std::string& name, const std::string& layer,
                  int64_t start_ns, int64_t end_ns, uint64_t parent = 0,
                  uint64_t request = 0);

  // Self time per layer, in milliseconds.
  std::map<std::string, double> LayerSelfMs() const;

  // Chrome trace-event JSON ("X" events; parent and request in args).
  bool WriteJson(const std::string& path) const;

  size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
