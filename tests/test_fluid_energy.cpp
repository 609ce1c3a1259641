// Energy bookkeeping of the fluid region. The solver's fluid unknown is a
// displacement potential chi (u = grad chi / rho), so the fluid's kinetic
// energy is |grad chi_dot|^2 / (2 rho) and its compressional energy
// chi_ddot^2 / (2 kappa). A kinetic term built from grad chi instead has
// the wrong units (J s^2): it is off by the squared angular frequency, too
// small at the boxes' 10 Hz and far too large at the globe's 0.01 Hz,
// where it makes the total grow as waves enter the fluid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mesh/cartesian.hpp"
#include "mesh/quality.hpp"
#include "solver/simulation.hpp"

namespace sfg {
namespace {

MaterialSample rock() {
  MaterialSample s;
  s.rho = 2500.0;
  s.vp = 3000.0;
  s.vs = 1800.0;
  s.q_mu = 100.0;
  return s;
}

MaterialSample water() {
  MaterialSample s;
  s.rho = 1000.0;
  s.vp = 1500.0;
  s.vs = 0.0;
  s.q_mu = 0.0;
  return s;
}

TEST(FluidEnergy, TotalDoesNotGrowAfterTheSourceEndsAtGlobalPeriods) {
  // A 600 x 600 x 1800 km column, solid with a fluid band at 600-1200 km
  // depth, driven by a 0.01 Hz Ricker force below the band: the period
  // range of the NEX=8 globe. No attenuation and no absorbing boundary,
  // so the semi-discrete system conserves energy once the source is off.
  const double km = 1000.0;
  GllBasis basis(4);
  CartesianBoxSpec spec;
  spec.nx = spec.ny = 2;
  spec.nz = 6;
  spec.lx = spec.ly = 600.0 * km;
  spec.lz = 1800.0 * km;
  HexMesh mesh = build_cartesian_box(spec, basis);
  MaterialFields mat = assign_materials(mesh, [&](double, double, double z) {
    return (z >= 600.0 * km && z < 1200.0 * km) ? water() : rock();
  });
  SimulationConfig cfg;
  cfg.dt = 0.4 * analyze_mesh_quality(mesh, mat.vp, mat.vs).dt_stable;
  ASSERT_FALSE(cfg.attenuation);
  Simulation sim(mesh, basis, mat, cfg);
  ASSERT_GT(sim.num_fluid_elements(), 0);

  PointSource src;
  src.x = 300.0 * km;
  src.y = 300.0 * km;
  src.z = 250.0 * km;
  src.force = {0.0, 0.0, 1e9};
  src.stf = ricker_wavelet(0.01, 100.0);
  sim.add_source(src);

  // The wavelet has acted by 250 s (2.5 t0); the next 800 steps carry
  // the wave into the fluid band and back several times.
  sim.run(static_cast<int>(250.0 / cfg.dt));
  const double e_ref = sim.compute_energy().total();
  ASSERT_GT(e_ref, 0.0);
  double peak = 0.0, low = 1.0, fluid_peak = 0.0;
  for (int sample = 0; sample < 40; ++sample) {
    sim.run(20);
    const EnergySnapshot e = sim.compute_energy();
    ASSERT_TRUE(std::isfinite(e.total())) << "sample " << sample;
    peak = std::max(peak, e.total() / e_ref);
    low = std::min(low, e.total() / e_ref);
    fluid_peak = std::max(fluid_peak, e.fluid / e_ref);
  }
  // The fluid must actually hold energy, or the check proves nothing.
  EXPECT_GT(fluid_peak, 0.05);
  // Measured band with the grad chi_dot term: 0.9991-1.0016. With
  // grad chi the total grows 8.7x over the same window.
  EXPECT_LT(peak, 1.01) << "total energy grew after the source ended";
  EXPECT_GT(low, 0.99) << "total energy drained without any dissipation";
}

}  // namespace
}  // namespace sfg
