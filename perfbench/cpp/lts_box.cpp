// lts_box: the velocity-banded box (a stiff basement, a mid band and a
// soft bulk: three rate-2 dt clusters) under clustered local time
// stepping, split over 2 smpi ranks with 1 thread each, driven by a
// Ricker point force and recorded at a few receivers. It runs the masked
// LTS predictor/corrector, the per-rate interleaved schedules and the
// overlapped halo exchange — the solver paths globe_quake never enters —
// and is the only workload that runs the runtime layer every step. Times
// are per full LTS cycle (2^(L-1) base substeps), since single substeps
// differ in kind by design. The traced run adds one round with 2 threads
// per rank for the thread-pool figures: with 4 threads in lockstep on a
// 4-vCPU host the cycle time swings by 2x within seconds, too much for a
// bounded end-to-end metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "checks.hpp"
#include "common/timer.hpp"
#include "layers.hpp"
#include "mesh/cartesian.hpp"
#include "mesh/quality.hpp"
#include "runtime/exchanger.hpp"
#include "runtime/smpi.hpp"
#include "solver/simulation.hpp"

namespace pb {

namespace {

constexpr int kRanks = 2;
constexpr int kThreadsPerRank = 1;
constexpr int kPoolThreadsPerRank = 2;  ///< traced thread-pool round
constexpr double kLx = 2000.0, kLy = 2000.0, kLz = 4000.0;
constexpr double kVpMax = 6000.0;
/// Ricker force: dominant frequency and delay (1.2 / f0); the source is
/// over at 2 t0.
constexpr double kF0 = 4.0;
constexpr double kT0 = 0.3;
/// Simulated duration of one round: the subnormal front of the early
/// cycles is over by ~0.6 s, so the median cycle lies well after it.
constexpr double kDuration = 2.5;
constexpr int kEnergyEveryCycles = 8;
constexpr int kReceivers = 4;
/// Energy after the source ends stays within this share of its first
/// post-source sample (no attenuation, free surfaces, no absorbing faces).
constexpr double kEnergyTol = 0.02;
constexpr double kMotionRel = 1e-2;

constexpr std::uint64_t kStreamSource = 21;
constexpr std::uint64_t kStreamReceiver = 22;

sfg::CartesianBoxSpec banded_spec() {
  sfg::CartesianBoxSpec spec;
  spec.nx = spec.ny = 8;
  spec.nz = 16;
  spec.lx = kLx;
  spec.ly = kLy;
  spec.lz = kLz;
  return spec;
}

/// 2 of 16 layers fast (cluster 0), 2 at half the speed, 12 at a quarter.
sfg::MaterialSample banded_material(double, double, double z) {
  sfg::MaterialSample s;
  s.q_mu = 0.0;
  if (z < 500.0) {
    s.rho = 2700.0;
    s.vp = kVpMax;
    s.vs = 3600.0;
  } else if (z < 1000.0) {
    s.rho = 2500.0;
    s.vp = 3000.0;
    s.vs = 1800.0;
  } else {
    s.rho = 2000.0;
    s.vp = 1500.0;
    s.vs = 900.0;
  }
  return s;
}

struct Point {
  double x, y, z;
};

/// The seed picks the source in the soft bulk (a 1 km cube around the
/// box centre) and the receivers on the top face, each 0.6 to 1.2 km from
/// the source horizontally.
Point source_point(std::uint64_t seed) {
  return {uniform_draw(seed, kStreamSource, 0, 500.0, 1500.0),
          uniform_draw(seed, kStreamSource, 1, 500.0, 1500.0),
          uniform_draw(seed, kStreamSource, 2, 2500.0, 3000.0)};
}

std::vector<Point> receiver_points(std::uint64_t seed, const Point& src) {
  std::vector<Point> out;
  for (int i = 0; i < kReceivers; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    for (std::uint64_t attempt = 0;; ++attempt) {
      const Point p{uniform_draw(seed, kStreamReceiver, 3 * (k + 8 * attempt), 50.0, kLx - 50.0),
                    uniform_draw(seed, kStreamReceiver, 3 * (k + 8 * attempt) + 1, 50.0, kLy - 50.0),
                    kLz};
      const double h = std::hypot(p.x - src.x, p.y - src.y);
      if ((h >= 600.0 && h <= 1200.0) || attempt > 64) {
        out.push_back(p);
        break;
      }
    }
  }
  return out;
}

/// Distance between the box-mesh cells holding points a and b (0 when
/// they touch). The discrete force acts on every node of its element and
/// a receiver interpolates from every node of its own, so signals can
/// start this far apart.
double cell_gap(const Point& a, const Point& b) {
  const double h[3] = {kLx / 8, kLy / 8, kLz / 16};
  const double pa[3] = {a.x, a.y, a.z}, pb[3] = {b.x, b.y, b.z};
  const int n[3] = {8, 8, 16};
  double d2 = 0.0;
  for (int k = 0; k < 3; ++k) {
    const int ia = std::min(n[k] - 1, static_cast<int>(pa[k] / h[k]));
    const int ib = std::min(n[k] - 1, static_cast<int>(pb[k] / h[k]));
    const double g = std::max(0, std::abs(ia - ib) - 1) * h[k];
    d2 += g * g;
  }
  return std::sqrt(d2);
}

/// What one round hands back from its ranks.
struct RoundResult {
  double setup_s = 0.0;
  double solve_s = 0.0;
  std::vector<double> cycle_ms;  ///< rank 0's wall time per LTS cycle
  std::vector<double> energy_t, energy;
  std::vector<sfg::Seismogram> traces;  ///< per receiver (owner rank)
  bool clocks_ok = true;
  bool finite = true;
  int levels = 0;
  int interface_points = 0;
  double comm_bytes = 0.0;
  double halo_wait_s = 0.0;
  double busy_frac = 0.0;
  bool pooled = false;  ///< the traced round with kPoolThreadsPerRank
  std::vector<double> subnormal;
  int per_cycle = 1;
};

}  // namespace

Outcome run_lts_box(const Context& ctx) {
  Outcome out;
  Tracer& tr = *ctx.tracer;
  const Point src_pt = source_point(ctx.seed);
  const std::vector<Point> rec_pts = receiver_points(ctx.seed, src_pt);

  // The ranks live for the whole run; each round builds its slices and
  // solver afresh, so set-up is measured every round.
  std::vector<RoundResult> rounds;
  std::mutex mu;  // guards rounds and out, written by both ranks
  const sfg::WallTimer budget;
  {
    Tracer::Scope run_span(tr, "lts.run");
    sfg::smpi::run_ranks(kRanks, [&](sfg::smpi::Communicator& comm) {
      const int rank = comm.rank();
      const bool lead = rank == 0;
      bool pooled = false;
      for (int round = 0;; ++round) {
        const bool keep_layers = ctx.traced() && round == 0;
        comm.barrier();
        const sfg::WallTimer setup_clock;
        sfg::GllBasis basis(4);
        sfg::CartesianSlice slice;
        {
          Tracer::Scope s(tr, "mesh.build_cartesian_slice");
          slice = sfg::build_cartesian_slice(banded_spec(), basis, kRanks, 1,
                                             1, rank, 0, 0);
        }
        sfg::MaterialFields mat =
            sfg::assign_materials(slice.mesh, banded_material);
        std::vector<sfg::smpi::PointCandidate> cands;
        for (std::size_t i = 0; i < slice.boundary_keys.size(); ++i)
          cands.push_back({slice.boundary_keys[i], slice.boundary_points[i]});
        std::unique_ptr<sfg::smpi::Exchanger> ex;
        {
          Tracer::Scope s(tr, "runtime.Exchanger.build");
          ex = std::make_unique<sfg::smpi::Exchanger>(
              sfg::smpi::Exchanger::build(comm, cands));
        }
        sfg::SimulationConfig cfg;
        {
          Tracer::Scope s(tr, "mesh.element_stable_dt");
          cfg.lts.element_dt = sfg::element_stable_dt(slice.mesh, mat.vp);
        }
        double dt = 0.95 * *std::min_element(cfg.lts.element_dt.begin(),
                                             cfg.lts.element_dt.end());
        dt = comm.allreduce_one(dt, sfg::smpi::ReduceOp::Min);
        cfg.dt = dt;
        cfg.num_threads = pooled ? kPoolThreadsPerRank : kThreadsPerRank;
        cfg.lts.enabled = true;
        std::unique_ptr<sfg::Simulation> sim;
        {
          Tracer::Scope s(tr, "solver.Simulation");
          sim = std::make_unique<sfg::Simulation>(slice.mesh, basis, mat, cfg,
                                                  &comm, ex.get());
        }
        sfg::PointSource src;
        src.x = src_pt.x;
        src.y = src_pt.y;
        src.z = src_pt.z;
        src.force = {0.0, 0.0, 1e9};
        src.stf = sfg::ricker_wavelet(kF0, kT0);
        std::vector<int> recs;
        {
          Tracer::Scope s(tr, "solver.locate");
          sim->add_source_global(src);
          for (const Point& p : rec_pts)
            recs.push_back(sim->add_receiver_global(p.x, p.y, p.z));
        }
        comm.barrier();
        const double setup = setup_clock.seconds();

        const int levels = sim->lts_num_levels();
        const int per_cycle = 1 << (levels - 1);
        const int cycles =
            static_cast<int>(std::ceil(kDuration / dt / per_cycle));
        RoundResult mine;
        std::vector<float> kfield;
        double bytes = 0.0;
        for (int c = 0; c < cycles; ++c) {
          if (c % kEnergyEveryCycles == 0) {
            Tracer::Scope s(tr, "solver.compute_energy");
            const double e = sim->compute_energy().total();
            mine.energy_t.push_back(sim->time());
            mine.energy.push_back(e);
          }
          if (keep_layers && c % kEnergyEveryCycles == 0) {
            std::size_t n = 0, tot = 0, k = 0;
            for (const auto* f :
                 {&sim->displ(), &sim->veloc(), &sim->accel()}) {
              subnormal_share(f->data(), f->size(), &k);
              n += k;
              tot += f->size();
            }
            mine.subnormal.push_back(static_cast<double>(n) /
                                     static_cast<double>(tot));
          }
          if (keep_layers && c == cycles / 4)
            kfield.assign(sim->displ().begin(), sim->displ().end());
          const double b0 = static_cast<double>(comm.stats().bytes_sent);
          sfg::WallTimer t;
          {
            Tracer::Scope s(tr, "solver.lts_cycle");
            sim->run(per_cycle);
          }
          const double sec = t.seconds();
          bytes += static_cast<double>(comm.stats().bytes_sent) - b0;
          mine.cycle_ms.push_back(sec * 1e3);
          mine.solve_s += sec;
        }
        mine.energy_t.push_back(sim->time());
        mine.energy.push_back(sim->compute_energy().total());

        const auto& clock = sim->lts_clock();
        for (std::size_t r = 0; r < clock.size(); ++r)
          mine.clocks_ok = mine.clocks_ok && clock[r] == (sim->step_count() >> r);
        mine.clocks_ok = mine.clocks_ok && levels == 3;
        for (const auto* f : {&sim->displ(), &sim->veloc(), &sim->accel()})
          mine.finite = mine.finite && field_finite(f->data(), f->size());

        {
          std::lock_guard<std::mutex> lock(mu);
          if (rounds.size() <= static_cast<std::size_t>(round))
            rounds.resize(static_cast<std::size_t>(round) + 1);
          RoundResult& rr = rounds[static_cast<std::size_t>(round)];
          rr.traces.resize(kReceivers);
          rr.clocks_ok = rr.clocks_ok && mine.clocks_ok;
          rr.finite = rr.finite && mine.finite;
          for (std::size_t i = 0; i < recs.size(); ++i)
            if (recs[i] >= 0) rr.traces[i] = sim->seismogram(recs[i]);
          if (lead) {
            rr.setup_s = setup;
            rr.solve_s = mine.solve_s;
            rr.cycle_ms = std::move(mine.cycle_ms);
            rr.energy_t = std::move(mine.energy_t);
            rr.energy = std::move(mine.energy);
            rr.per_cycle = per_cycle;
            rr.pooled = pooled;
            rr.levels = levels;
            rr.interface_points = sim->lts_num_interface_points();
            rr.comm_bytes = bytes / (static_cast<double>(cycles) * per_cycle);
            rr.halo_wait_s = sim->overlap_wait_seconds();
            const sfg::metrics::RunReport rep = sim->metrics_report();
            double busy = 0.0;
            for (double b : rep.thread_busy_seconds) busy += b;
            const double nthreads = static_cast<double>(
                std::max<std::size_t>(1, rep.thread_busy_seconds.size()));
            rr.busy_frac = rep.thread_span_seconds > 0.0
                               ? busy / (rep.thread_span_seconds * nthreads)
                               : 0.0;
            rr.subnormal = std::move(mine.subnormal);
            if (keep_layers) {
              add_solver_profile_metrics(*sim, rr.solve_s, per_cycle, out);
              measure_elastic_kernel(slice.mesh, basis, mat, kfield, tr, out);
              sfg::service::JobResult sample;
              for (const sfg::Seismogram& s : rr.traces)
                if (!s.time.empty()) sample.seismograms.push_back(s);
              measure_io(ctx.work_dir, sample, *sim, tr, out);
            }
          }
        }
        if (pooled) break;
        const double go = lead && budget.seconds() < ctx.seconds ? 1.0 : 0.0;
        if (comm.allreduce_one(go, sfg::smpi::ReduceOp::Max) == 0.0) {
          if (!ctx.traced()) break;
          pooled = true;
        }
      }
    });
  }

  std::vector<double> setup_s, solve_s, p50, p90;
  const RoundResult* pool_round = nullptr;
  for (std::size_t round = 0; round < rounds.size(); ++round) {
    const RoundResult& rr = rounds[round];
    if (rr.pooled) {
      pool_round = &rr;
    } else {
      setup_s.push_back(rr.setup_s);
      solve_s.push_back(rr.solve_s);
      p50.push_back(quantile(rr.cycle_ms, 0.5));
      p90.push_back(quantile(rr.cycle_ms, 0.9));
    }
    const std::uint64_t steps =
        rr.cycle_ms.size() * static_cast<std::uint64_t>(rr.per_cycle);
    out.attempted += steps;
    out.failed += steps_failed(rr.energy, kEnergyEveryCycles * rr.per_cycle, steps);

    out.expect(rr.finite, "lts: non-finite wavefield value");
    out.expect(rr.clocks_ok, "lts: clock[r] != step_count >> r, or not 3 clusters");
    std::string why;
    out.expect(energy_conserved(rr.energy_t, rr.energy, 2.0 * kT0, kEnergyTol, &why),
               "lts: " + why);
    double a_ref = 0.0;
    for (const sfg::Seismogram& s : rr.traces) {
      out.expect(!s.time.empty() && seismogram_finite(s),
                 "lts: missing or non-finite trace");
      a_ref = std::max(a_ref, seismogram_peak(s));
    }
    out.expect(a_ref > 0.0, "lts: no receiver moves");
    const double t0 =
        stf_onset(sfg::ricker_wavelet(kF0, kT0), kT0, 1e-4, kMotionRel);
    for (std::size_t i = 0; i < rr.traces.size(); ++i) {
      const double gap = cell_gap(src_pt, rec_pts[i]);
      const double bound = t0 + gap / kVpMax;
      out.expect(causal(rr.traces[i], bound, kMotionRel * a_ref, &why),
                 "lts receiver " + std::to_string(i) + ": " + why);
    }
    if (ctx.verbose > 1)
      for (std::size_t c = 0; c < rr.cycle_ms.size(); ++c)
        std::fprintf(stderr, "cycle %zu %.3f ms\n", c, rr.cycle_ms[c]);
    if (ctx.verbose)
      std::fprintf(stderr, "round %zu%s: setup %.4f s, solve %.4f s, cycle p50 %.3f ms p90 %.3f ms\n",
                   round, rr.pooled ? " (thread pool)" : "", rr.setup_s,
                   rr.solve_s, quantile(rr.cycle_ms, 0.5),
                   quantile(rr.cycle_ms, 0.9));
  }

  // Per-round quantiles, then the median over rounds: a burst of host
  // load that hits a minority of rounds does not move the figures.
  const double per_cycle = rounds.empty() ? 1.0 : rounds[0].per_cycle;
  out.e2e("setup_s", "s", median(setup_s));
  out.e2e("solve_s", "s", median(solve_s));
  out.e2e("step_ms_p50", "ms", median(p50) / per_cycle);
  out.e2e("step_ms_p90", "ms", median(p90) / per_cycle);
  out.e2e("cycle_ms_p50", "ms", median(p50));
  out.e2e("cycle_ms_p90", "ms", median(p90));
  // The operation a user of the box run waits on is the cycle.
  out.e2e("latency_ms_p50", "ms", median(p50));
  out.e2e("latency_ms_p90", "ms", median(p90));

  if (ctx.traced() && !rounds.empty()) {
    const RoundResult& first = rounds[0];
    out.layer("mesh.quality_s", "s", span_median_s(tr, "mesh.element_stable_dt"));
    out.layer("mesh.lts_levels", "count", first.levels);
    out.layer("mesh.lts_interface_points", "count", first.interface_points);
    out.layer("solver.ctor_s", "s", span_median_s(tr, "solver.Simulation"));
    out.layer("solver.locate_s", "s", span_median_s(tr, "solver.locate"));
    out.layer("solver.subnormal_frac", "share", mean(first.subnormal));
    if (pool_round != nullptr) {
      out.layer("common.thread_busy_frac", "share", pool_round->busy_frac);
      out.layer("common.pool_cycle_ms_p50", "ms",
                quantile(pool_round->cycle_ms, 0.5));
    }
    out.layer("runtime.comm_bytes_per_step", "B", first.comm_bytes);
    out.layer("runtime.halo_wait_ms", "ms",
              1e3 * first.halo_wait_s /
                  std::max<std::size_t>(1, first.cycle_ms.size()));
  }
  return out;
}

}  // namespace pb
