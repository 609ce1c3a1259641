// Stack benchmark entry point: runs one named workload for a given seed and
// run length, checks its outputs, and prints one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// records spans around every call into a layer, writes them as a Chrome
// trace and reports the per-layer set instead.
//
// Usage: perfbench --workload globe_quake|lts_box|campaign_paced
//                  --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--trace-file PATH] [--probe] [--probe-steps]
//        perfbench --selftest
//
// --probe prints per-round figures (and, for globe_quake, the zero-field
// step time) to stderr; --probe-steps adds every step or cycle.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "host.hpp"
#include "perf/metrics.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "globe_quake|lts_box|campaign_paced --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-file PATH] [--probe] "
               "[--probe-steps]\n"
               "       perfbench --selftest\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

/// Host reference figures, measured beside the workload in the traced
/// run. The triad arrays (3 x 128 MiB) exceed the 300 MiB shared L3 of
/// the reference host by 1.3x only, so the figure mixes L3 and DRAM
/// traffic; it is a drift reference, not a DRAM ceiling.
void add_host_metrics(pb::Outcome& out, pb::Tracer& tr) {
  const pb::HostInfo h = pb::host_info();
  double gbs = 0.0, gflops = 0.0;
  {
    pb::Tracer::Scope s(tr, "host.triad");
    gbs = pb::triad_gbs(std::size_t{32} << 20, 5);
  }
  {
    pb::Tracer::Scope s(tr, "host.fma");
    gflops = pb::fma_gflops(0.3);
  }
  std::fprintf(stderr,
               "perfbench host: nproc %d, kernel ISA %s (%d lanes), compiler "
               "%s, triad %.2f GB/s, fma %.2f GFlop/s\n",
               h.nproc, h.isa.c_str(), h.isa_lanes, h.compiler.c_str(), gbs,
               gflops);
  out.layer("host.triad_gbs", "GB/s", gbs);
  out.layer("host.fma_gflops", "GFlop/s", gflops);
  out.layer("host.nproc", "count", h.nproc);
  out.layer("host.isa_lanes", "count", h.isa_lanes);
  out.layer("host.cxx_version", "version", h.compiler_version);
}

/// Every workload reports the same metric names; a per-layer metric whose
/// layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},         {"solve_s", "s"},
    {"step_ms_p50", "ms"},    {"step_ms_p90", "ms"},
    {"cycle_ms_p50", "ms"},   {"cycle_ms_p90", "ms"},
    {"latency_ms_p50", "ms"}, {"latency_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
};

std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"host.triad_gbs", "GB/s"}, {"host.fma_gflops", "GFlop/s"},
      {"host.nproc", "count"}, {"host.isa_lanes", "count"},
      {"host.cxx_version", "version"}, {"sphere.mesh_s", "s"},
      {"model.attenuation_s", "s"}, {"mesh.quality_s", "s"},
      {"mesh.lts_levels", "count"}, {"mesh.lts_interface_points", "count"},
      {"solver.ctor_s", "s"}, {"solver.locate_s", "s"}};
  for (int p = 0; p < sfg::metrics::kNumPhases; ++p)
    v.push_back({std::string("solver.phase.") +
                     sfg::metrics::phase_name(static_cast<sfg::metrics::Phase>(p)) +
                     "_ms",
                 "ms"});
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"solver.gflops", "GFlop/s"}, {"solver.newmark_gbs", "GB/s"},
      {"solver.subnormal_frac", "share"},
      {"kernels.elastic_el_per_s", "1/s"},
      {"kernels.flops_per_element", "count"},
      {"common.thread_busy_frac", "share"},
      {"common.pool_cycle_ms_p50", "ms"},
      {"runtime.comm_bytes_per_step", "B"}, {"runtime.halo_wait_ms", "ms"},
      {"service.submit_us_p50", "us"}, {"service.memory_hit_ms_p50", "ms"},
      {"service.store_hit_ms_p50", "ms"}, {"service.computed_ms_p50", "ms"},
      {"service.generator_late_ms_p90", "ms"},
      {"service.executed", "count"}, {"service.memory_hits", "count"},
      {"service.store_hits", "count"}, {"service.coalesced_hits", "count"},
      {"service.retries", "count"}, {"service.stolen", "count"},
      {"service.spilled", "count"}, {"service.queue_peak", "count"},
      {"service.mesh_cache_hits", "count"},
      {"service.mesh_cache_misses", "count"},
      {"service.executed_per_distinct_key", "share"},
      {"service.execute_ms_p50.box_1rank", "ms"},
      {"service.execute_ms_p50.box_2rank", "ms"},
      {"service.execute_ms_p50.box_2rank_ckpt", "ms"},
      {"io.result_put_ms_p50", "ms"}, {"io.result_get_ms_p50", "ms"},
      {"io.checkpoint_write_ms", "ms"}, {"io.checkpoint_mb", "MB"},
      {"io.store_files", "count"}};
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

/// The reported metrics in canonical order. A missing end-to-end metric
/// fails the run; a missing per-layer one reads 0.
std::vector<pb::Metric> canonical(pb::Outcome& out, bool traced) {
  const std::vector<pb::Metric>& have = traced ? out.per_layer : out.end_to_end;
  std::vector<pb::Metric> ms;
  for (const auto& [name, unit] : traced ? per_layer_names() : kEndToEnd) {
    pb::Metric m{name, unit, 0.0};
    bool found = false;
    for (const pb::Metric& h : have)
      if (h.name == name) {
        m = h;
        found = true;
      }
    if (!found && !traced) out.fail("no value for end-to-end metric " + name);
    if (m.unit != unit) out.fail("metric " + name + " has unit " + m.unit);
    ms.push_back(m);
  }
  for (const pb::Metric& h : have) {
    bool known = false;
    for (const pb::Metric& m : ms) known = known || m.name == h.name;
    if (!known) out.fail("unlisted metric " + h.name);
  }
  return ms;
}

void print_result(pb::Outcome& out, bool traced) {
  if (traced) {
    // The traced run's end-to-end figures, for the tracing overhead.
    std::fprintf(stderr, "perfbench traced end-to-end:");
    for (const pb::Metric& m : out.end_to_end)
      std::fprintf(stderr, " %s=%.6g", m.name.c_str(), m.value);
    std::fprintf(stderr, "\n");
  }
  const std::vector<pb::Metric> ms = canonical(out, traced);
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "perfbench CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir = ".bench_build/work", trace_file;
  std::uint64_t seed = 0, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  int probe = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--probe") {
      probe = std::max(probe, 1);
    } else if (a == "--probe-steps") {
      probe = 2;
    } else if (a == "--workload" && has_val) {
      workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      if (!parse_u64(argv[++i], &seed)) return usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds" && has_val) {
      if (!parse_u64(argv[++i], &seconds) || seconds < 1 || seconds > 600)
        return usage("--seconds must be 1..600");
      have_seconds = true;
    } else if (a == "--trace" && has_val) {
      if (!parse_u64(argv[++i], &trace) || trace > 1)
        return usage("--trace must be 0 or 1");
      have_trace = true;
    } else if (a == "--work-dir" && has_val) {
      work_dir = argv[++i];
    } else if (a == "--trace-file" && has_val) {
      trace_file = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + a).c_str());
    }
  }

  // The checks must reject deliberately wrong outputs before any result
  // of theirs is trusted.
  const std::vector<std::string> broken = pb::run_checker_selftests();
  for (const std::string& b : broken)
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", b.c_str());
  if (selftest) {
    std::fprintf(stderr, "perfbench selftest: %s\n",
                 broken.empty() ? "every check rejects its wrong output"
                                : "FAILED");
    return broken.empty() ? 0 : 1;
  }
  if (!broken.empty()) return 1;

  if (!have_seed || !have_seconds || !have_trace || workload.empty())
    return usage("--workload, --seed, --seconds and --trace are required");
  pb::Outcome (*runner)(const pb::Context&) = nullptr;
  if (workload == "globe_quake") runner = pb::run_globe_quake;
  if (workload == "lts_box") runner = pb::run_lts_box;
  if (workload == "campaign_paced") runner = pb::run_campaign_paced;
  if (runner == nullptr) return usage(("unknown workload " + workload).c_str());

  pb::Tracer tracer(trace == 1);
  pb::Context ctx;
  ctx.seed = seed;
  ctx.seconds = static_cast<double>(seconds);
  ctx.tracer = &tracer;
  ctx.verbose = probe;
  ctx.work_dir = work_dir + "/" + workload + "-" + std::to_string(seed);
  std::error_code ec;
  std::filesystem::remove_all(ctx.work_dir, ec);
  std::filesystem::create_directories(ctx.work_dir, ec);
  if (ec) return usage(("cannot create work dir " + ctx.work_dir).c_str());

  pb::Outcome out;
  try {
    if (ctx.traced()) add_host_metrics(out, tracer);
    pb::Outcome w = runner(ctx);
    out.correct = w.correct;
    out.attempted = w.attempted;
    out.failed = w.failed;
    out.errors = w.errors;
    out.end_to_end = w.end_to_end;
    out.per_layer.insert(out.per_layer.end(), w.per_layer.begin(),
                         w.per_layer.end());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    std::filesystem::remove_all(ctx.work_dir, ec);
    return 1;
  }
  std::filesystem::remove_all(ctx.work_dir, ec);
  out.e2e("peak_rss_mb", "MB", pb::peak_rss_mb());
  if (ctx.traced()) {
    if (trace_file.empty())
      trace_file = work_dir + "/../trace-" + workload + "-" +
                   std::to_string(seed) + ".json";
    if (tracer.write_chrome_trace(trace_file))
      std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", tracer.size(),
                   trace_file.c_str());
    else
      out.fail("cannot write trace file " + trace_file);
  }
  if (out.attempted == 0) out.fail("no operation attempted");
  print_result(out, ctx.traced());
  return out.correct ? 0 : 3;
}
