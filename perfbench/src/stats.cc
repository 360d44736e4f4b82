#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n == 1) return samples[0];
  const double pos = p * static_cast<double>(n + 1);  // 1-based
  if (pos <= 1.0) return samples.front();
  if (pos >= static_cast<double>(n)) return samples.back();
  const size_t lo = static_cast<size_t>(std::floor(pos));  // 1-based
  const double frac = pos - static_cast<double>(lo);
  return samples[lo - 1] + frac * (samples[lo] - samples[lo - 1]);
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.q1 = Quantile(samples, 0.25);
  s.median = Quantile(samples, 0.5);
  s.q3 = Quantile(samples, 0.75);
  return s;
}

std::optional<double> TailPercentile(const std::vector<double>& samples,
                                     double p) {
  const double beyond =
      std::floor(static_cast<double>(samples.size()) * (1.0 - p) + 1e-9);
  if (samples.empty() || beyond < static_cast<double>(kMinTailSamples)) {
    return std::nullopt;
  }
  return Quantile(samples, p);
}

std::string Ratio::Describe(const std::string& unit) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.4f (%.0f/%.0f %s)", value(), numerator,
                denominator, unit.c_str());
  return buf;
}

}  // namespace perfbench
