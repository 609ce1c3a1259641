#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "common/timer.hpp"
#include "io/blob_store.hpp"
#include "kernels/force_kernel.hpp"
#include "perf/metrics.hpp"
#include "service/result_store.hpp"
#include "service/worker.hpp"

namespace pb {

double span_median_s(const Tracer& tr, const std::string& name) {
  return median(tr.durations_s(name));
}

void measure_elastic_kernel(const sfg::HexMesh& mesh,
                            const sfg::GllBasis& basis,
                            const sfg::MaterialFields& mat,
                            const std::vector<float>& displ, Tracer& tr,
                            Outcome& out) {
  const sfg::ForceKernel kernel(basis, sfg::KernelVariant::Batched, false);
  const int lanes = kernel.lanes();
  const int n3 = mesh.ngll3();
  std::vector<int> solid;
  for (int e = 0; e < mesh.nspec; ++e)
    if (!mat.element_is_fluid[static_cast<std::size_t>(e)]) solid.push_back(e);
  const std::size_t nbatch =
      (solid.size() + static_cast<std::size_t>(lanes) - 1) /
      static_cast<std::size_t>(lanes);
  sfg::BatchWorkspace ws(mesh.ngll, lanes);
  const std::size_t stride = ws.stride;

  // Pack the static tables and the displacement snapshot [point][lane]
  // once; pad lanes replicate lane 0 like the solver's own packing.
  enum { kXix, kXiy, kXiz, kEtax, kEtay, kEtaz, kGamx, kGamy, kGamz, kJac,
         kKappa, kMu, kRho, kUx, kUy, kUz, kFields };
  std::vector<sfg::aligned_vector<float>> packed(kFields);
  for (auto& v : packed) v.assign(nbatch * stride, 0.0f);
  const float* src[13] = {mesh.xix.data(),    mesh.xiy.data(),
                          mesh.xiz.data(),    mesh.etax.data(),
                          mesh.etay.data(),   mesh.etaz.data(),
                          mesh.gammax.data(), mesh.gammay.data(),
                          mesh.gammaz.data(), mesh.jacobian.data(),
                          mat.kappav.data(),  mat.muv.data(),
                          mat.rho.data()};
  for (std::size_t b = 0; b < nbatch; ++b)
    for (int l = 0; l < lanes; ++l) {
      const std::size_t idx = b * static_cast<std::size_t>(lanes) +
                              static_cast<std::size_t>(l);
      const int e = solid[idx < solid.size() ? idx : b * lanes];
      const std::size_t off = mesh.local_offset(e);
      for (int p = 0; p < n3; ++p) {
        const std::size_t d = b * stride +
                              static_cast<std::size_t>(p) * lanes +
                              static_cast<std::size_t>(l);
        for (int f = 0; f < 13; ++f) packed[f][d] = src[f][off + p];
        const auto g = static_cast<std::size_t>(mesh.ibool[off + p]);
        for (int c = 0; c < 3; ++c) packed[kUx + c][d] = displ[g * 3 + c];
      }
    }

  constexpr int kReps = 10;
  double kernel_s = 0.0;
  {
    Tracer::Scope s(tr, "kernels.compute_elastic_batched");
    for (int r = 0; r < kReps; ++r)
      for (std::size_t b = 0; b < nbatch; ++b) {
        const std::size_t o = b * stride;
        std::copy_n(packed[kUx].data() + o, stride, ws.ux.data());
        std::copy_n(packed[kUy].data() + o, stride, ws.uy.data());
        std::copy_n(packed[kUz].data() + o, stride, ws.uz.data());
        sfg::BatchPointers bp{};
        bp.xix = packed[kXix].data() + o;
        bp.xiy = packed[kXiy].data() + o;
        bp.xiz = packed[kXiz].data() + o;
        bp.etax = packed[kEtax].data() + o;
        bp.etay = packed[kEtay].data() + o;
        bp.etaz = packed[kEtaz].data() + o;
        bp.gammax = packed[kGamx].data() + o;
        bp.gammay = packed[kGamy].data() + o;
        bp.gammaz = packed[kGamz].data() + o;
        bp.jacobian = packed[kJac].data() + o;
        bp.kappav = packed[kKappa].data() + o;
        bp.muv = packed[kMu].data() + o;
        bp.rho = packed[kRho].data() + o;
        sfg::WallTimer t;
        kernel.compute_elastic_batched(bp, ws);
        kernel_s += t.seconds();
      }
  }
  const double elements = static_cast<double>(solid.size()) * kReps;
  out.layer("kernels.elastic_el_per_s", "1/s",
            kernel_s > 0.0 ? elements / kernel_s : 0.0);
  out.layer("kernels.flops_per_element", "count",
            static_cast<double>(kernel.elastic_flops_per_element()));
}

void add_solver_profile_metrics(const sfg::Simulation& sim, double solve_s,
                                double steps_per_unit, Outcome& out) {
  namespace m = sfg::metrics;
  const m::StepProfile& prof = sim.step_profile();
  const double steps = std::max(1, prof.steps());
  const double units = steps / steps_per_unit;
  for (int p = 0; p < m::kNumPhases; ++p) {
    const auto ph = static_cast<m::Phase>(p);
    out.layer(std::string("solver.phase.") + m::phase_name(ph) + "_ms", "ms",
              1e3 * prof.phase_seconds()[static_cast<std::size_t>(p)] / units);
  }
  out.layer("solver.gflops", "GFlop/s",
            solve_s > 0.0 ? static_cast<double>(sim.flops_per_step()) *
                                steps / solve_s * 1e-9
                          : 0.0);
  // Computed bytes of the three nglob-wide Newmark sweeps over the solid
  // fields (4-byte floats): the predictor reads displ/veloc/accel and
  // writes all three (18 per point), the mass update reads accel and
  // 1/M and writes accel (7), the corrector reads veloc/accel and writes
  // veloc (9). Cache misses are not counted.
  const double bytes = 4.0 * (18 + 7 + 9) * sim.nglob() * steps;
  const double sweep_s =
      prof.phase_seconds()[static_cast<std::size_t>(m::Phase::NewmarkPredictor)] +
      prof.phase_seconds()[static_cast<std::size_t>(m::Phase::MassUpdate)] +
      prof.phase_seconds()[static_cast<std::size_t>(m::Phase::NewmarkCorrector)];
  out.layer("solver.newmark_gbs", "GB/s",
            sweep_s > 0.0 ? bytes / sweep_s * 1e-9 : 0.0);
}

void measure_io(const std::string& dir, const sfg::service::JobResult& sample,
                const sfg::Simulation& sim, Tracer& tr, Outcome& out) {
  namespace fs = std::filesystem;
  const std::string root = dir + "/io_probe";
  fs::remove_all(root);
  constexpr int kKeys = 40;
  std::vector<double> put_ms, get_ms;
  int files = 0;
  {
    sfg::service::ResultStore store(root + "/results",
                                    sfg::io::IoBackendKind::Container);
    for (int k = 0; k < kKeys; ++k) {
      const auto key = static_cast<sfg::service::RequestKey>(
          mix64(0x5eedull + static_cast<std::uint64_t>(k)));
      sfg::WallTimer t;
      {
        Tracer::Scope s(tr, "io.ResultStore.store");
        store.store(key, sample);
      }
      put_ms.push_back(t.seconds() * 1e3);
    }
    for (int k = 0; k < kKeys; ++k) {
      const auto key = static_cast<sfg::service::RequestKey>(
          mix64(0x5eedull + static_cast<std::uint64_t>(k)));
      sfg::WallTimer t;
      std::optional<sfg::service::JobResult> r;
      {
        Tracer::Scope s(tr, "io.ResultStore.load");
        r = store.load(key);
      }
      get_ms.push_back(t.seconds() * 1e3);
      if (!r.has_value()) out.fail("io probe: stored result not found");
    }
    files = store.file_count();
  }
  out.layer("io.result_put_ms_p50", "ms", median(put_ms));
  out.layer("io.result_get_ms_p50", "ms", median(get_ms));
  out.layer("io.store_files", "count", files);

  std::vector<double> ckpt_ms;
  double ckpt_mb = 0.0;
  {
    const std::string path = root + "/checkpoints.sfgc";
    std::unique_ptr<sfg::io::BlobStore> store =
        sfg::io::make_store(sfg::io::IoBackendKind::Container, path);
    sfg::io::SnapshotIdentity id;
    for (int r = 0; r < 3; ++r) {
      sfg::WallTimer t;
      {
        Tracer::Scope s(tr, "io.write_checkpoint");
        sim.write_checkpoint(*store, "rank0", id);
      }
      ckpt_ms.push_back(t.seconds() * 1e3);
    }
    ckpt_mb = static_cast<double>(store->read("rank0").size()) / 1048576.0;
  }
  out.layer("io.checkpoint_write_ms", "ms", median(ckpt_ms));
  out.layer("io.checkpoint_mb", "MB", ckpt_mb);
  fs::remove_all(root);
}

void measure_execute_shapes(
    const std::string& dir,
    const std::vector<std::pair<std::string, sfg::service::JobRequest>>& shapes,
    int reps, Tracer& tr, Outcome& out) {
  const sfg::GllBasis basis(4);
  sfg::service::MeshCache cache(basis);
  for (const auto& [name, req] : shapes) {
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
      sfg::WallTimer t;
      {
        Tracer::Scope s(tr, "service.execute_job");
        sfg::service::execute_job(req, cache, dir + "/exec_probe", 2,
                                  sfg::io::IoBackendKind::Container);
      }
      ms.push_back(t.seconds() * 1e3);
    }
    out.layer("service.execute_ms_p50." + name, "ms", median(ms));
  }
}

}  // namespace pb
