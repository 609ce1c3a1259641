#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double subnormal_share(const float* data, std::size_t n,
                       std::size_t* count_out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i)
    count += std::fpclassify(data[i]) == FP_SUBNORMAL ? 1 : 0;
  if (count_out != nullptr) *count_out = count;
  return n > 0 ? static_cast<double>(count) / static_cast<double>(n) : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace pb
