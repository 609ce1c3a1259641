// globe_quake: the paper's §6 science run at a size one host can march —
// the serial 6-chunk NEX=8 PREM globe with its fluid outer core and
// attenuation on, 1 rank, 1 thread, driven by a deep moment-tensor event
// and recorded at a station network over a fixed step window that starts
// at the origin time. Its wavefield carries the subnormal front that a
// zero-field run never produces, so the window is part of the workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "checks.hpp"
#include "common/constants.hpp"
#include "common/timer.hpp"
#include "layers.hpp"
#include "mesh/quality.hpp"
#include "model/attenuation.hpp"
#include "model/earth_model.hpp"
#include "solver/simulation.hpp"
#include "sphere/mesher.hpp"

namespace pb {

namespace {

using sfg::kPi;

constexpr int kNex = 8;
/// Steps marched per round, from the origin time (dt = 0.667 s, so 533 s).
/// The window holds the end of the source time function (168 s), the
/// latest admissible P arrival at the nearest station (< 300 s for every
/// event of the region) and the sweep of the subnormal front (about the
/// first 250 steps); with 800 steps the median step lies well after the
/// sweep, whose length varies with the event.
constexpr int kWindowSteps = 800;
constexpr int kEnergyEvery = 10;      ///< energy sample cadence (steps)
constexpr int kSubnormalEvery = 20;   ///< traced: subnormal sample cadence
constexpr int kKernelSnapshotStep = 100;  ///< traced: kernel input field
constexpr int kSetupRepeats = 5;      ///< set-ups timed in the first round
/// Ricker source time function: dominant frequency and delay (1.2 / f0).
constexpr double kF0 = 1.0 / 70.0;
constexpr double kT0 = 84.0;
/// "Motion" means |u| above this share of the network's largest peak.
constexpr double kMotionRel = 1e-2;
/// Energy may exceed its first sample after the source ends by this share
/// (float32 fields, Newmark half-step velocities).
constexpr double kEnergyTol = 1e-3;

// Seed streams.
constexpr std::uint64_t kStreamEvent = 11;
constexpr std::uint64_t kStreamStation = 12;

struct Site {
  const char* code;
  double lat, lon;
};
/// Station network (degrees); each run jitters every site by up to
/// +-0.5 degree in latitude and longitude.
constexpr Site kNetwork[] = {
    {"BDFB", -15.6, -48.0}, {"TRQA", -38.1, -61.98}, {"PTGA", -0.7, -59.9},
    {"BOCO", 4.6, -74.0},   {"RCBR", -5.8, -35.7},   {"SJG", 18.1, -66.2},
    {"ANMO", 34.9, -106.5}, {"PAB", 39.5, -4.3},     {"KONO", 59.6, 9.6},
    {"SNZO", -41.3, 174.7}, {"MAJO", 36.5, 138.2},
};

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;
};

Vec3 spherical(double lat_deg, double lon_deg, double r) {
  const double la = lat_deg * kPi / 180.0, lo = lon_deg * kPi / 180.0;
  return {r * std::cos(la) * std::cos(lo), r * std::cos(la) * std::sin(lo),
          r * std::sin(la)};
}

double distance(const Vec3& a, const Vec3& b) {
  return std::sqrt((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) +
                   (a.z - b.z) * (a.z - b.z));
}

/// The seed picks the hypocentre inside a stated region of deep South-
/// American seismicity: 26-20 S, 66-60 W, 520-600 km deep.
sfg::PointSource make_event(std::uint64_t seed, Vec3* pos) {
  const double lat = uniform_draw(seed, kStreamEvent, 0, -26.0, -20.0);
  const double lon = uniform_draw(seed, kStreamEvent, 1, -66.0, -60.0);
  const double depth = uniform_draw(seed, kStreamEvent, 2, 520e3, 600e3);
  *pos = spherical(lat, lon, sfg::kEarthRadiusM - depth);
  sfg::PointSource src;
  src.x = pos->x;
  src.y = pos->y;
  src.z = pos->z;
  src.moment = {2.3e20, -1.1e20, -1.2e20, 0.4e20, 1.1e20, -0.8e20};
  src.stf = sfg::ricker_wavelet(kF0, kT0);
  return src;
}

struct Station {
  std::string code;
  Vec3 pos;
  double chord_m = 0.0;
  double t_straight = 0.0;  ///< straight-ray PREM P travel time
  int receiver = -1;
};

/// P travel time along the straight chord between two points through
/// PREM (midpoint rule on 4000 segments). By Fermat's principle no first
/// arrival is later than this.
double straight_ray_time(const sfg::EarthModel& model, const Vec3& a,
                         const Vec3& b) {
  constexpr int kSegments = 4000;
  const double len = distance(a, b);
  double t = 0.0;
  for (int i = 0; i < kSegments; ++i) {
    const double f = (i + 0.5) / kSegments;
    const Vec3 p{a.x + f * (b.x - a.x), a.y + f * (b.y - a.y),
                 a.z + f * (b.z - a.z)};
    t += (len / kSegments) /
         model.at_radius(std::sqrt(p.x * p.x + p.y * p.y + p.z * p.z)).vp;
  }
  return t;
}

double max_vp(const sfg::EarthModel& model) {
  double v = 0.0;
  for (double r = 0.0; r <= model.surface_radius(); r += 1000.0)
    v = std::max(v, model.at_radius(r).vp);
  return v;
}

std::vector<Station> make_stations(std::uint64_t seed, const Vec3& src,
                                   const sfg::EarthModel& prem) {
  std::vector<Station> out;
  std::uint64_t k = 0;
  for (const Site& s : kNetwork) {
    Station st;
    st.code = s.code;
    const double lat = s.lat + uniform_draw(seed, kStreamStation, k++, -0.5, 0.5);
    const double lon = s.lon + uniform_draw(seed, kStreamStation, k++, -0.5, 0.5);
    st.pos = spherical(lat, lon, sfg::kEarthRadiusM);
    st.chord_m = distance(src, st.pos);
    st.t_straight = straight_ray_time(prem, src, st.pos);
    out.push_back(st);
  }
  return out;
}

/// Smallest distance between the GLL nodes of elements a and b.
double element_gap(const sfg::HexMesh& mesh, int a, int b) {
  const std::size_t oa = mesh.local_offset(a), ob = mesh.local_offset(b);
  double best = 1e300;
  for (int i = 0; i < mesh.ngll3(); ++i)
    for (int j = 0; j < mesh.ngll3(); ++j) {
      const double dx = mesh.xstore[oa + i] - mesh.xstore[ob + j];
      const double dy = mesh.ystore[oa + i] - mesh.ystore[ob + j];
      const double dz = mesh.zstore[oa + i] - mesh.zstore[ob + j];
      best = std::min(best, dx * dx + dy * dy + dz * dz);
    }
  return std::sqrt(best);
}

/// 1/2 \int |grad f|^2 / rho over the fluid elements, with the solver's
/// GLL quadrature. For the displacement potential chi, the fluid kinetic
/// energy is this integral of chi_dot.
double fluid_gradient_energy(const sfg::HexMesh& mesh,
                             const sfg::GllBasis& basis,
                             const sfg::MaterialFields& mat,
                             const sfg::aligned_vector<float>& f) {
  const int n = mesh.ngll;
  double e = 0.0;
  std::vector<double> loc(static_cast<std::size_t>(mesh.ngll3()));
  auto at = [&](int i, int j, int k) {
    return loc[static_cast<std::size_t>(sfg::local_index(n, i, j, k))];
  };
  for (int el = 0; el < mesh.nspec; ++el) {
    if (!mat.element_is_fluid[static_cast<std::size_t>(el)]) continue;
    const std::size_t off = mesh.local_offset(el);
    for (std::size_t p = 0; p < loc.size(); ++p)
      loc[p] = f[static_cast<std::size_t>(mesh.ibool[off + p])];
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) {
          double g1 = 0, g2 = 0, g3 = 0;
          for (int l = 0; l < n; ++l) {
            g1 += at(l, j, k) * basis.hprime(i, l);
            g2 += at(i, l, k) * basis.hprime(j, l);
            g3 += at(i, j, l) * basis.hprime(k, l);
          }
          const std::size_t p =
              off + static_cast<std::size_t>(sfg::local_index(n, i, j, k));
          const double gx =
              mesh.xix[p] * g1 + mesh.etax[p] * g2 + mesh.gammax[p] * g3;
          const double gy =
              mesh.xiy[p] * g1 + mesh.etay[p] * g2 + mesh.gammay[p] * g3;
          const double gz =
              mesh.xiz[p] * g1 + mesh.etaz[p] * g2 + mesh.gammaz[p] * g3;
          const double vol = basis.weight(i) * basis.weight(j) *
                             basis.weight(k) * mesh.jacobian[p];
          e += vol * (gx * gx + gy * gy + gz * gz) / (2.0 * mat.rho[p]);
        }
  }
  return e;
}

/// One set-up globe. Held by pointer: the Simulation keeps references to
/// the basis, the mesh and the materials.
struct GlobeRun {
  sfg::GllBasis basis{4};
  sfg::GlobeSlice slice;
  sfg::SlsSeries sls;
  std::unique_ptr<sfg::Simulation> sim;
  int source_element = -1;

  /// Solid kinetic + strain energy plus the fluid's kinetic and
  /// compressional energy. compute_energy() integrates |grad chi|^2 where
  /// the kinetic term needs |grad chi_dot|^2, so that term is swapped here.
  double total_energy() {
    const sfg::EnergySnapshot e = sim->compute_energy();
    const sfg::MaterialFields& m = slice.materials;
    return e.kinetic + e.potential + e.fluid -
           fluid_gradient_energy(slice.mesh, basis, m, sim->chi()) +
           fluid_gradient_energy(slice.mesh, basis, m, sim->chi_dot());
  }
};

std::unique_ptr<GlobeRun> set_up(Tracer& tr, const sfg::PointSource& src,
                                 std::vector<Station>& stations,
                                 const sfg::PremModel& prem) {
  Tracer::Scope all(tr, "globe.setup");
  auto run = std::make_unique<GlobeRun>();
  {
    Tracer::Scope s(tr, "sphere.build_globe_serial");
    sfg::GlobeMeshSpec spec;
    spec.nex_xi = kNex;
    spec.nchunks = 6;
    spec.model = &prem;
    run->slice = sfg::build_globe_serial(spec, run->basis);
  }
  {
    Tracer::Scope s(tr, "model.prepare_attenuation");
    run->sls = sfg::fit_constant_q(300.0, 1.0 / 600.0, 1.0 / 30.0, 3);
    sfg::prepare_attenuation(run->slice.materials, run->sls);
  }
  sfg::SimulationConfig cfg;
  {
    Tracer::Scope s(tr, "mesh.analyze_mesh_quality");
    const sfg::MeshQualityReport q = sfg::analyze_mesh_quality(
        run->slice.mesh, run->slice.materials.vp, run->slice.materials.vs);
    cfg.dt = 0.8 * q.dt_stable;
  }
  {
    Tracer::Scope s(tr, "solver.Simulation");
    cfg.attenuation = true;
    cfg.sls = run->sls;
    run->sim = std::make_unique<sfg::Simulation>(
        run->slice.mesh, run->basis, run->slice.materials, cfg);
  }
  {
    Tracer::Scope s(tr, "solver.locate");
    if (src.stf) run->sim->add_source(src);
    for (Station& st : stations)
      st.receiver = run->sim->add_receiver(st.pos.x, st.pos.y, st.pos.z);
  }
  return run;
}

double field_subnormal_share(const sfg::Simulation& sim) {
  std::size_t n = 0, total = 0, c = 0;
  for (const auto* f : {&sim.displ(), &sim.veloc(), &sim.accel(), &sim.chi()}) {
    subnormal_share(f->data(), f->size(), &c);
    n += c;
    total += f->size();
  }
  return total > 0 ? static_cast<double>(n) / static_cast<double>(total) : 0.0;
}

bool fields_finite(const sfg::Simulation& sim) {
  for (const auto* f : {&sim.displ(), &sim.veloc(), &sim.accel(), &sim.chi(),
                        &sim.chi_dot()})
    if (!field_finite(f->data(), f->size())) return false;
  return true;
}

/// The trace checks of one window: finite samples; no motion before the
/// causal bound; the nearest station's first motion no later than the
/// straight-ray P time (+ half a dominant period).
void check_traces(GlobeRun& run, const std::vector<Station>& stations,
                  double vp_max, int verbose, Outcome& out) {
  const sfg::Simulation& sim = *run.sim;
  double a_ref = 0.0;
  const Station* nearest = &stations.front();
  for (const Station& st : stations) {
    const sfg::Seismogram& s = sim.seismogram(st.receiver);
    out.expect(seismogram_finite(s), "globe: non-finite sample at " + st.code);
    a_ref = std::max(a_ref, seismogram_peak(s));
    if (st.chord_m < nearest->chord_m) nearest = &st;
  }
  // Motion at level kMotionRel cannot leave the source before the source
  // time function reaches that level, and travels at most PREM's largest
  // vp. The discrete moment tensor acts on every node of its element
  // (~1100 km across at NEX=8), so the chord is measured between the
  // source element and the element the station interpolates from.
  out.expect(a_ref > 0.0, "globe: no station moves");
  const double t0 =
      stf_onset(sfg::ricker_wavelet(kF0, kT0), kT0, 0.01, kMotionRel);
  const double level = kMotionRel * a_ref;
  std::string why;
  for (const Station& st : stations) {
    const sfg::Seismogram& s = sim.seismogram(st.receiver);
    const double gap = element_gap(run.slice.mesh, run.source_element,
                                   sim.receiver_location(st.receiver).ispec);
    const double bound = t0 + gap / vp_max;
    if (verbose)
      std::fprintf(stderr,
                   "  %-5s chord %6.0f km gap %5.0f km  bound %6.1f s  onset "
                   "%6.1f s  straight P %6.1f s  peak %.3g\n",
                   st.code.c_str(), st.chord_m * 1e-3, gap * 1e-3, bound,
                   first_exceed(s, level), t0 + st.t_straight,
                   seismogram_peak(s));
    out.expect(causal(s, bound, level, &why), "globe " + st.code + ": " + why);
  }
  const sfg::Seismogram& near = sim.seismogram(nearest->receiver);
  const double latest = t0 + nearest->t_straight + 0.5 / kF0;
  out.expect(sim.time() >= latest,
             "globe: window ends before the nearest station's P deadline");
  out.expect(arrives_by(near, latest, level, &why),
             "globe " + nearest->code + " (nearest): " + why);
}

}  // namespace

Outcome run_globe_quake(const Context& ctx) {
  Outcome out;
  Tracer& tr = *ctx.tracer;
  const sfg::PremModel prem;
  const double vp_max = max_vp(prem);
  Vec3 src_pos;
  const sfg::PointSource src = make_event(ctx.seed, &src_pos);
  std::vector<Station> stations = make_stations(ctx.seed, src_pos, prem);

  std::vector<double> setup_s, step_ms, solve_s, subnormal;
  std::vector<float> kernel_field;
  std::unique_ptr<GlobeRun> run;
  const sfg::WallTimer budget;
  int round = 0;
  do {
    const int repeats = round == 0 ? kSetupRepeats : 1;
    for (int r = 0; r < repeats; ++r) {
      run.reset();
      sfg::WallTimer t;
      run = set_up(tr, src, stations, prem);
      setup_s.push_back(t.seconds());
    }
    run->source_element =
        sfg::discretize_source(run->slice.mesh, run->basis, src).ispec;
    sfg::Simulation& sim = *run->sim;

    std::vector<double> e_t, e_v;
    double solve = 0.0;
    {
      Tracer::Scope win(tr, "globe.window");
      for (int s = 0; s < kWindowSteps; ++s) {
        if (s % kEnergyEvery == 0) {
          Tracer::Scope e(tr, "solver.compute_energy");
          e_t.push_back(sim.time());
          e_v.push_back(run->total_energy());
        }
        if (ctx.traced() && s % kSubnormalEvery == 0)
          subnormal.push_back(field_subnormal_share(sim));
        if (ctx.traced() && s == kKernelSnapshotStep && round == 0)
          kernel_field.assign(sim.displ().begin(), sim.displ().end());
        sfg::WallTimer t;
        {
          Tracer::Scope st(tr, "solver.step");
          sim.step();
        }
        const double sec = t.seconds();
        step_ms.push_back(sec * 1e3);
        solve += sec;
        if (ctx.verbose > 1)
          std::fprintf(stderr, "step %d %.3f ms subnormal %.4f\n", s,
                       sec * 1e3, field_subnormal_share(sim));
      }
      e_t.push_back(sim.time());
      e_v.push_back(run->total_energy());
    }
    solve_s.push_back(solve);
    if (ctx.verbose)
      std::fprintf(stderr, "round %d: setup %.3f s, solve %.3f s\n", round,
                   setup_s.back(), solve);
    out.attempted += kWindowSteps;
    out.failed += steps_failed(e_v, kEnergyEvery, kWindowSteps);

    out.expect(fields_finite(sim), "globe: non-finite wavefield value");
    std::string why;
    out.expect(energy_not_growing(e_t, e_v, 2.0 * kT0, kEnergyTol, &why),
               "globe: " + why);
    check_traces(*run, stations, vp_max, ctx.verbose, out);
    if (ctx.verbose > 1)
      for (std::size_t i = 0; i < e_t.size(); ++i)
        std::fprintf(stderr, "  energy t=%.1f s %.6e J\n", e_t[i], e_v[i]);
    if (ctx.verbose) {
      // Reference: the same globe marched with no source (all-zero field).
      std::vector<Station> none;
      std::unique_ptr<GlobeRun> quiet = set_up(tr, sfg::PointSource{}, none, prem);
      std::vector<double> ms;
      for (int s = 0; s < 60; ++s) {
        sfg::WallTimer t;
        quiet->sim->step();
        ms.push_back(t.seconds() * 1e3);
      }
      std::fprintf(stderr, "zero-field step: p50 %.2f ms, p90 %.2f ms\n",
                   quantile(ms, 0.5), quantile(ms, 0.9));
    }
    ++round;
  } while (budget.seconds() < ctx.seconds);

  out.e2e("setup_s", "s", median(setup_s));
  out.e2e("solve_s", "s", median(solve_s));
  out.e2e("step_ms_p50", "ms", quantile(step_ms, 0.5));
  out.e2e("step_ms_p90", "ms", quantile(step_ms, 0.9));
  // A single cluster: one LTS cycle is one step.
  out.e2e("cycle_ms_p50", "ms", quantile(step_ms, 0.5));
  out.e2e("cycle_ms_p90", "ms", quantile(step_ms, 0.9));
  // The operation a user of the run waits on, sample by sample, is the step.
  out.e2e("latency_ms_p50", "ms", quantile(step_ms, 0.5));
  out.e2e("latency_ms_p90", "ms", quantile(step_ms, 0.9));

  if (ctx.traced()) {
    out.layer("sphere.mesh_s", "s", span_median_s(tr, "sphere.build_globe_serial"));
    out.layer("model.attenuation_s", "s",
              span_median_s(tr, "model.prepare_attenuation"));
    out.layer("mesh.quality_s", "s", span_median_s(tr, "mesh.analyze_mesh_quality"));
    out.layer("mesh.lts_levels", "count", run->sim->lts_num_levels());
    out.layer("mesh.lts_interface_points", "count",
              run->sim->lts_num_interface_points());
    out.layer("solver.ctor_s", "s", span_median_s(tr, "solver.Simulation"));
    out.layer("solver.locate_s", "s", span_median_s(tr, "solver.locate"));
    add_solver_profile_metrics(*run->sim, solve_s.back(), 1.0, out);
    out.layer("solver.subnormal_frac", "share", mean(subnormal));
    measure_elastic_kernel(run->slice.mesh, run->basis, run->slice.materials,
                           kernel_field, tr, out);
  }
  return out;
}

}  // namespace pb
