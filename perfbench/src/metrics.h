// A named, unit-carrying benchmark figure.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using MetricList = std::vector<Metric>;

inline void AddMetric(MetricList* list, std::string name, double value,
                      std::string unit) {
  list->push_back(Metric{std::move(name), value, std::move(unit)});
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
