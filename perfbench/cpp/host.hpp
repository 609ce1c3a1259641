#pragma once

#include <cstddef>
#include <string>

namespace pb {

/// Best-of-`reps` triad a = b + s*c over three arrays of
/// `floats_per_array` floats, in GB/s (2 reads + 1 write per element).
double triad_gbs(std::size_t floats_per_array, int reps);
/// Compute-bound AVX2 FMA loop run for about `seconds`, in GFlop/s
/// (0 when the CPU lacks AVX2/FMA).
double fma_gflops(double seconds);

struct HostInfo {
  int nproc = 0;
  std::string isa;           ///< best_batched_isa() of the kernels layer
  int isa_lanes = 0;
  std::string compiler = "unknown";
  double compiler_version = 0.0;  ///< major + minor/10
};
HostInfo host_info();

}  // namespace pb
