// perfbench — runs one benchmark workload and prints its result line.
//
//   perfbench --workload <solve-large|serve-mix|update-stream> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints the input digest, the run summary and, as the last line of
// standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// where the metrics are the end-to-end set (--trace 0) or the per-layer
// set (--trace 1). Traced runs also write their spans to
// <work-dir>/traces/<workload>-seed<n>.json (Chrome trace-event format).
// Every run writes its full record to
// <work-dir>/results/<workload>-seed<n>-trace<t>.json.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kCalibrationSeconds = 0.1;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1) Usage("flags take one value each");
  if (!IsWorkload(options.workload)) Usage("unknown workload");
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    Usage("--seconds must be in (0, 600]");
  }
  if (!have_trace) Usage("--trace must be 0 or 1");
  if (options.work_dir.empty()) Usage("--work-dir is required");
  return options;
}

void PrintMetrics(const char* title, const MetricList& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-14s %-30s %16.6f %s\n", title, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// JSON object {"name": {"value": v, "unit": u}, ...} with full precision.
std::string MetricsJson(const MetricList& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

std::string StringsJson(const std::vector<std::string>& lines) {
  std::string out = "[";
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    for (const char c : lines[i]) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }
  return out + "]";
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs(text.c_str(), out);
  return std::fclose(out) == 0;
}

int Main(int argc, char** argv) {
  // One inner ParallelFor thread per job (and per update on the server's
  // network thread): must be set before the library first reads it.
  setenv("ATR_THREADS", "1", 1);
  const RunOptions options = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir + "/results", ec);
  if (options.trace) {
    std::filesystem::create_directories(options.work_dir + "/traces", ec);
  }

  const int cores = std::max(1u, std::thread::hardware_concurrency());
  const double cores_before = EffectiveCores(cores, kCalibrationSeconds);
  Tracer tracer(options.trace);
  RunReport report = RunWorkload(options, tracer);
  const double cores_after = EffectiveCores(cores, kCalibrationSeconds);
  const double drift =
      cores_before > 0 ? (cores_after - cores_before) / cores_before : 0.0;

  const std::string run_name =
      options.workload + "-seed" + std::to_string(options.seed);
  if (options.trace) {
    for (const auto& [layer, ms] : tracer.LayerSelfMs()) {
      AddMetric(&report.per_layer, layer + ".self_ms", ms, "ms");
    }
    AddMetric(&report.per_layer, "host.effective_cores", cores_after, "cores");
    const std::string path = options.work_dir + "/traces/" + run_name + ".json";
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n", tracer.size(), path.c_str());
  }

  for (const std::string& line : report.digest) std::printf("input %s\n", line.c_str());
  for (const std::string& line : report.notes) std::printf("note  %s\n", line.c_str());
  std::printf("host.effective_cores before %.3f after %.3f drift %+.1f%% (of %d)\n",
              cores_before, cores_after, 100.0 * drift, cores);
  PrintMetrics("end-to-end", report.end_to_end);
  PrintMetrics("workload-only", report.workload_only);
  PrintMetrics("per-layer", report.per_layer);

  const bool correct = report.failed == 0;
  char host[160];
  std::snprintf(host, sizeof(host),
                "{\"effective_cores_before\": %.17g, \"effective_cores_after\": "
                "%.17g, \"drift\": %.17g, \"nproc\": %d}",
                cores_before, cores_after, drift, cores);
  const std::string record =
      "{\"workload\": \"" + options.workload + "\", \"seed\": " +
      std::to_string(options.seed) + ", \"trace\": " +
      (options.trace ? "1" : "0") + ", \"correct\": " +
      (correct ? "true" : "false") + ", \"attempted\": " +
      std::to_string(report.attempted) + ", \"failed\": " +
      std::to_string(report.failed) + ", \"end_to_end\": " +
      MetricsJson(report.end_to_end) + ", \"workload_only\": " +
      MetricsJson(report.workload_only) + ", \"per_layer\": " +
      MetricsJson(report.per_layer) + ", \"host\": " + host +
      ", \"digest\": " + StringsJson(report.digest) + "}\n";
  const std::string record_path = options.work_dir + "/results/" + run_name +
                                  "-trace" + (options.trace ? "1" : "0") +
                                  ".json";
  if (!WriteFile(record_path, record)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", record_path.c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(options.trace ? report.per_layer : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
