#pragma once

/// \file bench.hpp
/// Shared pieces of the stack benchmark: the run context each workload
/// receives, the metric/outcome records it hands back, seeded counter
/// hashing for input generation, and order statistics.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace pb {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run reports. `end_to_end` and `per_layer` are both
/// filled; main prints the set the --trace flag selects.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void expect(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  void e2e(const std::string& name, const std::string& unit, double v) {
    end_to_end.push_back({name, unit, v});
  }
  void layer(const std::string& name, const std::string& unit, double v) {
    per_layer.push_back({name, unit, v});
  }
};

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  ///< records spans only when enabled
  std::string work_dir;      ///< scratch space inside the checkout
  int verbose = 0;           ///< diagnostics to stderr (--probe)
  bool traced() const { return tracer->enabled(); }
};

Outcome run_globe_quake(const Context& ctx);
Outcome run_lts_box(const Context& ctx);
Outcome run_campaign_paced(const Context& ctx);

// ---- seeded inputs ----

/// SplitMix64 finalizer.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from (seed, stream, index): counter-based, so
/// an input does not depend on the order in which others were drawn.
inline double unit_draw(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t index) {
  const std::uint64_t h =
      mix64(mix64(seed) ^ mix64(stream * 0x632be59bd9b4e019ull + index));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Uniform double in [lo, hi).
inline double uniform_draw(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t index, double lo, double hi) {
  return lo + (hi - lo) * unit_draw(seed, stream, index);
}

// ---- statistics ----

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (0 for an empty sample).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

/// Share of subnormal values in a float field.
double subnormal_share(const float* data, std::size_t n,
                       std::size_t* count_out = nullptr);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace pb
