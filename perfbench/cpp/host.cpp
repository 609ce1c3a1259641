// Host reference loops: a STREAM-style triad and a register-resident FMA
// loop, measured in the traced run beside the workload, so a later
// comparison can tell a slower host apart from slower code.

#include "host.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/simd.hpp"
#include "kernels/force_kernel.hpp"

namespace pb {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double triad_gbs(std::size_t floats_per_array, int reps) {
  // Page in every array before timing, so first-touch faults stay out.
  std::vector<float> a(floats_per_array, 0.0f), b(floats_per_array, 1.0f),
      c(floats_per_array, 2.0f);
  std::vector<double> rates;
  const float s = 0.5f;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    float* __restrict pa = a.data();
    const float* __restrict pb_ = b.data();
    const float* __restrict pc = c.data();
    for (std::size_t i = 0; i < floats_per_array; ++i)
      pa[i] = pb_[i] + s * pc[i];
    const double t = seconds_since(t0);
    // 2 reads + 1 write per element (write-allocate traffic not counted).
    rates.push_back(3.0 * sizeof(float) *
                    static_cast<double>(floats_per_array) / t * 1e-9);
    b[r % floats_per_array] = a[(r * 7) % floats_per_array];
  }
  return *std::max_element(rates.begin(), rates.end());
}

double fma_gflops(double seconds) {
  if (!sfg::simd::cpu_supports(sfg::simd::Isa::Avx2)) return 0.0;
#if defined(__AVX2__) && defined(__FMA__)
  // 8 independent 8-wide accumulators hide the FMA latency; the operands
  // never leave registers, so the loop is compute bound.
  __m256 acc[8];
  for (int k = 0; k < 8; ++k) acc[k] = _mm256_set1_ps(0.001f * (k + 1));
  const __m256 m = _mm256_set1_ps(0.999999f);
  const __m256 d = _mm256_set1_ps(1e-7f);
  constexpr long kInner = 1 << 16;
  long iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double t = 0.0;
  do {
    for (long i = 0; i < kInner; ++i)
      for (int k = 0; k < 8; ++k) acc[k] = _mm256_fmadd_ps(acc[k], m, d);
    iters += kInner;
    t = seconds_since(t0);
  } while (t < seconds);
  __m256 sum = acc[0];
  for (int k = 1; k < 8; ++k) sum = _mm256_add_ps(sum, acc[k]);
  float out[8];
  _mm256_storeu_ps(out, sum);
  volatile float sink = out[0];
  (void)sink;
  // 8 accumulators x 8 lanes x 2 flops per FMA.
  return static_cast<double>(iters) * 8.0 * 8.0 * 2.0 / t * 1e-9;
#else
  (void)seconds;
  return 0.0;
#endif
}

HostInfo host_info() {
  HostInfo h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const sfg::simd::Isa isa = sfg::best_batched_isa();
  h.isa = sfg::simd::isa_name(isa);
  h.isa_lanes = sfg::simd::isa_width(isa);
#ifdef SFG_PERFBENCH_COMPILER
  h.compiler = SFG_PERFBENCH_COMPILER;
#endif
#if defined(__GNUC__)
  h.compiler_version = __GNUC__ + 0.1 * __GNUC_MINOR__;
#endif
  return h;
}

}  // namespace pb
