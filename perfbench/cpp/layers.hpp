#pragma once

/// \file layers.hpp
/// Direct calls into single layers, made by the traced run beside the
/// workload: the batched force kernel on the workload's own elements, the
/// result store, checkpoint writes and execute_job per job shape.

#include <string>
#include <vector>

#include "bench.hpp"
#include "mesh/hex_mesh.hpp"
#include "quadrature/gll.hpp"
#include "service/job.hpp"
#include "service/result_store.hpp"
#include "solver/materials.hpp"
#include "solver/simulation.hpp"

namespace pb {

/// Time ForceKernel::compute_elastic_batched (attenuation off) over the
/// solid elements of `mesh`, fed the displacement snapshot `displ`
/// (nglob x 3). Adds kernels.elastic_el_per_s and
/// kernels.flops_per_element.
void measure_elastic_kernel(const sfg::HexMesh& mesh,
                            const sfg::GllBasis& basis,
                            const sfg::MaterialFields& mat,
                            const std::vector<float>& displ, Tracer& tr,
                            Outcome& out);

/// Per-step figures read from a Simulation after marching: the phase
/// profile (solver.phase.<phase>_ms per `steps_per_unit` base steps), the
/// flop rate and the computed Newmark sweep bandwidth.
void add_solver_profile_metrics(const sfg::Simulation& sim, double solve_s,
                                double steps_per_unit, Outcome& out);

/// io.* metrics: ResultStore put/get on a scratch container store under
/// `dir`, and a checkpoint of `sim` written into a container store.
void measure_io(const std::string& dir, const sfg::service::JobResult& sample,
                const sfg::Simulation& sim, Tracer& tr, Outcome& out);

/// service.execute_ms_p50.<shape>: direct execute_job calls per job shape.
void measure_execute_shapes(const std::string& dir,
                            const std::vector<std::pair<std::string,
                                                        sfg::service::JobRequest>>&
                                shapes,
                            int reps, Tracer& tr, Outcome& out);

/// Median of a span's durations, in seconds (0 when it never ran).
double span_median_s(const Tracer& tr, const std::string& name);

}  // namespace pb
