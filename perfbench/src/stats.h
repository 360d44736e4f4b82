// Order statistics for benchmark samples.
//
// Medians and quartiles follow Python's statistics.quantiles(n=4)
// ("exclusive" method), so the figures printed here match the steadiness
// script's arithmetic. A tail percentile is only reported when at least
// kMinTailSamples samples lie strictly beyond its rank; with fewer samples
// it is left out rather than estimated.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinTailSamples = 10;

struct Summary {
  size_t count = 0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

// Quantile `p` in (0, 1) of `samples` by the exclusive method: position
// p * (n + 1) on the 1-based sorted order, linearly interpolated and
// clamped to the extremes. Requires a non-empty input.
double Quantile(std::vector<double> samples, double p);

// Count plus quartiles; all zero for an empty input.
Summary Summarize(const std::vector<double>& samples);

// Percentile `p` in (0, 1) when at least kMinTailSamples samples lie
// beyond it, i.e. floor(n * (1 - p)) >= kMinTailSamples; nullopt otherwise.
std::optional<double> TailPercentile(const std::vector<double>& samples,
                                     double p);

// A ratio kept together with its base, printed as "value (num/den unit)".
struct Ratio {
  double numerator = 0.0;
  double denominator = 0.0;
  double value() const {
    return denominator == 0.0 ? 0.0 : numerator / denominator;
  }
  std::string Describe(const std::string& unit) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
