// The three benchmark workloads. Each drives the real request path in this
// process: an AtrServer on loopback, reached through AtrClient.
//
//   solve-large    1 connection, closed loop, GAS b=8 on two large stand-ins
//   serve-mix      4 connections, closed loop, Zipf traffic over six small
//                  stand-ins, 2 workers with batch fusion
//   update-stream  a delta writer beside a GAS b=1 reader, persistence on;
//                  set-up is a restart from base snapshot plus delta log
//
// Every answer is checked after the timed window (see README.md).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch root inside the checkout (data directories live under it).
  std::string work_dir;
};

struct RunReport {
  uint64_t attempted = 0;
  // Refused requests, errors and wrong answers; the run is correct when 0.
  uint64_t failed = 0;
  // The gated end-to-end metrics; every workload reports the same names.
  MetricList end_to_end;
  // End-to-end figures only this workload produces (tails, update path);
  // printed in the summary, not part of the result line.
  MetricList workload_only;
  // Per-layer metrics (traced runs).
  MetricList per_layer;
  // Input digest and free-form notes, printed before the result line.
  std::vector<std::string> digest;
  std::vector<std::string> notes;
};

bool IsWorkload(const std::string& name);

// Runs one workload; exits the process with a message on a set-up failure.
RunReport RunWorkload(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
