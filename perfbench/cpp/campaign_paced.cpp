// campaign_paced: the sharded campaign front-end under a paced open-loop
// load. One generator thread sends requests at Poisson arrival times,
// below saturation, to a ShardedFrontend of 2 shards x 1 worker. Each
// round first computes a seeded subset of the event catalogue into the
// result store and restarts the front-end over that store (the set-up);
// the paced requests then mix memory-tier hits, store-tier hits and
// computed 1-rank and 2-rank box jobs, some with a checkpoint cadence and
// a few with an injected rank death that retry-from-checkpoint recovers.
// Its work is in service, io and runtime; its solver jobs are small.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "common/timer.hpp"
#include "layers.hpp"
#include "mesh/cartesian.hpp"
#include "service/frontend.hpp"
#include "service/loadgen.hpp"
#include "service/worker.hpp"

namespace pb {

namespace {

namespace svc = sfg::service;
using Clock = std::chrono::steady_clock;

constexpr int kCatalogue = 64;     ///< distinct events
constexpr double kZipfS = 1.1;     ///< popularity skew of repeats
constexpr int kPrefill = 20;       ///< catalogue events computed in set-up
constexpr int kComputed = 36;      ///< other events requested per round
constexpr int kRequests = 240;     ///< requests per round
constexpr double kRate = 60.0;     ///< arrivals per second (Poisson)
/// A computed key is repeated no sooner than this many arrivals after its
/// first request, so repeats find it finished (memory hits) instead of
/// coalescing onto a running job at a rate set by timing noise.
constexpr int kRepeatGap = 36;
constexpr int kFaultsPerRound = 2;
constexpr int kCheckSamples = 16;  ///< served results re-executed directly
/// The generator sleeps until this long before a due time, then spins.
constexpr double kSpinSeconds = 300e-6;

constexpr std::uint64_t kStreamPopularity = 31;
constexpr std::uint64_t kStreamShape = 32;
constexpr std::uint64_t kStreamJitter = 33;
constexpr std::uint64_t kStreamPrefill = 34;
constexpr std::uint64_t kStreamArrival = 35;
constexpr std::uint64_t kStreamSlot = 36;
constexpr std::uint64_t kStreamFault = 37;
constexpr std::uint64_t kStreamSample = 38;

enum class Shape { OneRank, TwoRank, TwoRankCheckpoint };

struct Event {
  svc::JobRequest request;  ///< without fault
  Shape shape = Shape::OneRank;
  bool prefilled = false;
};

/// Events per shape in the catalogue, in the prefilled subset and among
/// the computed events of each round: exact counts, so every seed and
/// round offers the same mix of job shapes.
constexpr int kShapeCount[3] = {48, 8, 8};
constexpr int kShapePrefill[3] = {15, 3, 2};
constexpr int kShapeComputed[3] = {27, 5, 4};
static_assert(kShapeCount[0] + kShapeCount[1] + kShapeCount[2] == kCatalogue);
static_assert(kShapePrefill[0] + kShapePrefill[1] + kShapePrefill[2] == kPrefill);
static_assert(kShapeComputed[0] + kShapeComputed[1] + kShapeComputed[2] == kComputed);

/// `items` in a seeded order.
std::vector<int> seeded_order(std::vector<int> items, std::uint64_t seed,
                              std::uint64_t stream) {
  std::sort(items.begin(), items.end(), [&](int a, int b) {
    return unit_draw(seed, stream, a) < unit_draw(seed, stream, b);
  });
  return items;
}

/// The catalogue: one jittered source per event, seeded job shapes (48
/// 1-rank events, 8 2-rank, 8 2-rank with a checkpoint every 10 steps)
/// and a seeded prefilled subset.
std::vector<Event> make_catalogue(std::uint64_t seed) {
  std::vector<Event> cat(kCatalogue);
  std::vector<int> all(kCatalogue);
  for (int k = 0; k < kCatalogue; ++k) all[k] = k;
  const std::vector<int> by_shape = seeded_order(all, seed, kStreamShape);
  for (int r = 0; r < kCatalogue; ++r) {
    const int k = by_shape[r];
    const auto ku = static_cast<std::uint64_t>(k);
    Event& e = cat[k];
    e.request = svc::loadgen_base_request();
    e.request.source.x += uniform_draw(seed, kStreamJitter, 3 * ku, -200.0, 200.0);
    e.request.source.y += uniform_draw(seed, kStreamJitter, 3 * ku + 1, -200.0, 200.0);
    e.request.source.z += uniform_draw(seed, kStreamJitter, 3 * ku + 2, -200.0, 200.0);
    e.shape = r < kShapeCount[0]                    ? Shape::OneRank
              : r < kShapeCount[0] + kShapeCount[1] ? Shape::TwoRank
                                                    : Shape::TwoRankCheckpoint;
    if (e.shape != Shape::OneRank) e.request.nranks = 2;
    if (e.shape == Shape::TwoRankCheckpoint)
      e.request.checkpoint_interval_steps = 10;
  }
  int taken[3] = {0, 0, 0};
  for (int k : seeded_order(all, seed, kStreamPrefill)) {
    const int sh = static_cast<int>(cat[k].shape);
    if (taken[sh] < kShapePrefill[sh]) {
      cat[k].prefilled = true;
      ++taken[sh];
    }
  }
  return cat;
}

struct Slot {
  double due_s = 0.0;  ///< offset from the round start
  int event = -1;
  bool first = false;  ///< first request of this event in the round
  svc::JobRequest request;
};

/// One round's request schedule. Every prefilled event and kComputed
/// other events are requested; their first requests are spread evenly over
/// the round and every other slot repeats an event drawn by zipfian
/// popularity among those already requested (computed ones only after
/// kRepeatGap arrivals). So each round has exactly kPrefill store hits
/// and kComputed computed jobs, and the rest are memory hits.
std::vector<Slot> make_schedule(std::uint64_t seed, int round,
                                const std::vector<Event>& cat) {
  const std::uint64_t rs = mix64(seed ^ (0x9e37ull * (round + 1)));
  // Requested events: all prefilled, plus kShapeComputed others per shape.
  std::vector<int> fresh, others;
  for (int k = 0; k < kCatalogue; ++k)
    (cat[k].prefilled ? fresh : others).push_back(k);
  int taken[3] = {0, 0, 0};
  for (int k : seeded_order(others, rs, kStreamSlot)) {
    const int sh = static_cast<int>(cat[k].shape);
    if (taken[sh] < kShapeComputed[sh]) {
      fresh.push_back(k);
      ++taken[sh];
    }
  }
  // Order of introduction, and a popularity rank per event.
  fresh = seeded_order(fresh, rs, kStreamSlot + 100);
  std::map<int, double> weight;
  {
    const std::vector<int> by_pop = seeded_order(fresh, seed, kStreamPopularity);
    for (std::size_t r = 0; r < by_pop.size(); ++r)
      weight[by_pop[r]] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
  }
  const int distinct = static_cast<int>(fresh.size());
  std::vector<Slot> out;
  std::map<int, int> first_slot;
  std::size_t next_new = 0;
  // Poisson arrivals conditioned on their count: exponential gaps scaled
  // so the last request is due at kRequests / kRate on every seed.
  std::vector<double> due(kRequests);
  double clock = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    clock += -std::log1p(-unit_draw(rs, kStreamArrival, i));
    due[i] = clock;
  }
  for (double& d : due) d *= kRequests / kRate / clock;
  for (int i = 0; i < kRequests; ++i) {
    const auto iu = static_cast<std::uint64_t>(i);
    Slot s;
    s.due_s = due[i];
    const bool scheduled_new =
        (i + 1) * distinct / kRequests > i * distinct / kRequests;
    std::vector<int> eligible;
    double total = 0.0;
    for (const auto& [ev, at] : first_slot)
      if (cat[ev].prefilled || i - at >= kRepeatGap) {
        eligible.push_back(ev);
        total += weight[ev];
      }
    if (next_new < fresh.size() && (scheduled_new || eligible.empty() ||
                                    kRequests - i <= static_cast<int>(fresh.size() - next_new))) {
      s.event = fresh[next_new++];
      s.first = true;
      first_slot[s.event] = i;
    } else {
      double u = unit_draw(rs, kStreamSlot + 200, iu) * total;
      s.event = eligible.back();
      for (int ev : eligible) {
        u -= weight[ev];
        if (u < 0.0) {
          s.event = ev;
          break;
        }
      }
    }
    s.request = cat[s.event].request;
    s.request.priority = i % 3;
    out.push_back(std::move(s));
  }
  // Injected rank deaths: the first request of kFaultsPerRound computed
  // 2-rank checkpointing events (fewer if the round has fewer).
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i].first && !cat[out[i].event].prefilled &&
        cat[out[i].event].shape == Shape::TwoRankCheckpoint)
      candidates.push_back(i);
  std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
    return unit_draw(rs, kStreamFault, a) < unit_draw(rs, kStreamFault, b);
  });
  for (std::size_t f = 0; f < candidates.size() && f < kFaultsPerRound; ++f) {
    out[candidates[f]].request.fault.kill_rank = 1;
    out[candidates[f]].request.fault.kill_step = 25;
  }
  return out;
}

svc::FrontendConfig fleet(const std::string& dir) {
  svc::FrontendConfig f;
  f.num_shards = 2;
  f.workers_per_shard = 1;
  f.work_dir = dir;
  return f;
}

struct Served {
  int id = -1;
  double due_s = 0.0;
  double late_s = 0.0;    ///< generator lateness at the submit call
  double submit_s = 0.0;  ///< duration of the submit call
  double return_s = 0.0;  ///< submit return, on the round clock
};

}  // namespace

Outcome run_campaign_paced(const Context& ctx) {
  namespace fs = std::filesystem;
  Outcome out;
  Tracer& tr = *ctx.tracer;
  const std::vector<Event> cat = make_catalogue(ctx.seed);

  std::vector<double> setup_s, solve_s, latency_ms, step_ms, submit_us,
      late_ms, mem_ms, store_ms, computed_ms;
  svc::FrontendStats totals;
  std::uint64_t distinct_total = 0, prefill_executed = 0;
  const sfg::GllBasis basis(4);
  svc::MeshCache direct_cache(basis);
  const sfg::WallTimer budget;
  int round = 0;
  do {
    const std::string dir = ctx.work_dir + "/round" + std::to_string(round);
    fs::remove_all(dir);
    const std::vector<Slot> schedule = make_schedule(ctx.seed, round, cat);

    // ---- set-up: prefill the store, restart the front-end over it ----
    const sfg::WallTimer setup_clock;
    {
      Tracer::Scope s(tr, "campaign.prefill");
      svc::ShardedFrontend pre(fleet(dir));
      int prefill_jobs = 0;
      for (const Event& e : cat)
        if (e.prefilled) {
          Tracer::Scope sub(tr, "service.submit");
          pre.submit(e.request);
          ++prefill_jobs;
        }
      pre.wait_all();
      const svc::FrontendStats ps = pre.stats();
      prefill_executed += ps.executed;
      out.expect(ps.executed == static_cast<std::uint64_t>(prefill_jobs) &&
                     ps.failed == 0,
                 "campaign: prefill did not compute every prefilled event");
      pre.shutdown();
    }
    std::unique_ptr<svc::ShardedFrontend> fe;
    {
      Tracer::Scope s(tr, "service.ShardedFrontend.restart");
      fe = std::make_unique<svc::ShardedFrontend>(fleet(dir));
    }
    setup_s.push_back(setup_clock.seconds());
    out.expect(fe->store().size() == static_cast<std::size_t>(kPrefill),
               "campaign: restarted store does not hold the prefill");

    // ---- paced open loop ----
    std::vector<Served> served;
    served.reserve(schedule.size());
    const Clock::time_point start = Clock::now();
    const double start_us = tr.now_us();
    auto since = [&](Clock::time_point t) {
      return std::chrono::duration<double>(t - start).count();
    };
    {
      Tracer::Scope s(tr, "campaign.paced");
      for (const Slot& slot : schedule) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(slot.due_s));
        const Clock::time_point wake =
            due - std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kSpinSeconds));
        if (Clock::now() < wake) std::this_thread::sleep_until(wake);
        while (Clock::now() < due) {
        }
        Served sv;
        sv.due_s = slot.due_s;
        const Clock::time_point call = Clock::now();
        {
          Tracer::Scope sub(tr, "service.submit",
                            static_cast<std::int64_t>(
                                round * kRequests + served.size()));
          sv.id = fe->submit(slot.request);
        }
        const Clock::time_point ret = Clock::now();
        sv.late_s = since(call) - slot.due_s;
        sv.submit_s = std::chrono::duration<double>(ret - call).count();
        sv.return_s = since(ret);
        served.push_back(sv);
      }
      Tracer::Scope w(tr, "service.wait_all");
      fe->wait_all();
    }

    // ---- latencies by serving tier ----
    const std::vector<svc::FrontendJob> jobs = fe->jobs();
    double computing = 0.0;
    for (std::size_t i = 0; i < served.size(); ++i) {
      const Served& sv = served[i];
      const svc::FrontendJob& job = jobs[static_cast<std::size_t>(sv.id)];
      const bool hit_at_submit = job.cache_hit && !job.coalesced;
      // A hit is terminal when submit returns; anything queued finishes on
      // the front-end clock, job.latency_seconds() after it was accepted.
      const double lat = hit_at_submit
                             ? sv.return_s - sv.due_s
                             : sv.late_s + sv.submit_s + job.latency_seconds();
      latency_ms.push_back(lat * 1e3);
      submit_us.push_back(sv.submit_s * 1e6);
      late_ms.push_back(std::max(0.0, sv.late_s) * 1e3);
      if (hit_at_submit && job.tier == svc::CacheTier::Memory)
        mem_ms.push_back(lat * 1e3);
      else if (hit_at_submit && job.tier == svc::CacheTier::Store)
        store_ms.push_back(lat * 1e3);
      else if (!job.cache_hit) {
        computing += lat;
        computed_ms.push_back(lat * 1e3);
      }
      tr.record("service.request", start_us + sv.due_s * 1e6,
                start_us + (sv.due_s + lat) * 1e6, -1,
                static_cast<std::int64_t>(round * kRequests + i));
    }
    solve_s.push_back(computing);
    out.attempted += schedule.size();
    const svc::FrontendStats st = fe->stats();
    out.failed += st.failed + st.rejected;

    // ---- checks ----
    std::set<svc::RequestKey> keys, computed_keys;
    for (const Slot& s : schedule) {
      keys.insert(svc::request_key(s.request));
      if (!cat[s.event].prefilled) computed_keys.insert(svc::request_key(s.request));
    }
    distinct_total += keys.size();
    out.expect(st.failed == 0 && st.rejected == 0, "campaign: failed or rejected jobs");
    out.expect(st.completed == st.submitted && st.submitted == schedule.size(),
               "campaign: completed != submitted");
    out.expect(st.executed == computed_keys.size(),
               "campaign: executed != distinct keys outside the prefilled store");
    out.expect(st.memory_hits > 0 && st.store_hits > 0 && st.executed > 0,
               "campaign: a serving tier saw no traffic");
    std::uint64_t faults = 0;
    for (const Slot& s : schedule) faults += s.request.fault.empty() ? 0 : 1;
    out.expect(st.retries >= faults, "campaign: injected faults were not retried");

    // Served results against direct executions outside the front-end: a
    // seeded sample of requests plus every faulted one (whose direct run
    // has no fault, so retry-from-checkpoint must reproduce it exactly).
    // The 1-rank direct executions, alone on the host, give the job step
    // time.
    std::vector<std::size_t> check;
    for (std::size_t i = 0; i < schedule.size(); ++i)
      if (!schedule[i].request.fault.empty()) check.push_back(i);
    for (int k = 0; k < kCheckSamples; ++k)
      check.push_back(static_cast<std::size_t>(
          unit_draw(ctx.seed, kStreamSample, round * 64 + k) * schedule.size()));
    for (std::size_t i : check) {
      svc::JobRequest direct = schedule[i].request;
      direct.fault = {};
      const std::optional<svc::JobResult> got = fe->result(served[i].id);
      svc::ExecutionOutcome ref;
      const sfg::WallTimer t;
      {
        Tracer::Scope s(tr, "service.execute_job");
        ref = svc::execute_job(direct, direct_cache, dir + "/direct", 0,
                               sfg::io::IoBackendKind::Container);
      }
      if (direct.nranks == 1)
        step_ms.push_back(t.seconds() * 1e3 / direct.nsteps);
      out.expect(got.has_value() && results_identical(*got, ref.result),
                 "campaign: request " + std::to_string(i) +
                     " served a result that differs from its direct execution");
    }

    totals.executed += st.executed;
    totals.memory_hits += st.memory_hits;
    totals.store_hits += st.store_hits;
    totals.coalesced_hits += st.coalesced_hits;
    totals.retries += st.retries;
    totals.stolen += st.stolen;
    totals.spilled += st.spilled;
    totals.queue_peak = std::max(totals.queue_peak, st.queue_peak);
    totals.mesh_cache_hits += st.mesh_cache_hits;
    totals.mesh_cache_misses += st.mesh_cache_misses;
    fe->shutdown();
    fe.reset();
    fs::remove_all(dir);
    if (ctx.verbose)
      std::fprintf(stderr,
                   "round %d: setup %.3f s, solve %.3f s, mem %zu store %zu "
                   "computed %zu coalesced %llu retries %llu\n",
                   round, setup_s.back(), solve_s.back(), mem_ms.size(),
                   store_ms.size(), computed_ms.size(),
                   static_cast<unsigned long long>(st.coalesced_hits),
                   static_cast<unsigned long long>(st.retries));
    ++round;
  } while (budget.seconds() < ctx.seconds);

  out.e2e("setup_s", "s", median(setup_s));
  // The time the round's computed requests spent from due to done: what
  // the fleet needs to solve the round's new jobs, queueing included.
  out.e2e("solve_s", "s", median(solve_s));
  // Wall time of a direct 1-rank job execution per step of the job.
  out.e2e("step_ms_p50", "ms", quantile(step_ms, 0.5));
  out.e2e("step_ms_p90", "ms", quantile(step_ms, 0.9));
  // Box jobs are single-cluster: one LTS cycle is one step.
  out.e2e("cycle_ms_p50", "ms", quantile(step_ms, 0.5));
  out.e2e("cycle_ms_p90", "ms", quantile(step_ms, 0.9));
  out.e2e("latency_ms_p50", "ms", quantile(latency_ms, 0.5));
  out.e2e("latency_ms_p90", "ms", quantile(latency_ms, 0.9));
  if (ctx.verbose)
    std::fprintf(stderr,
                 "latency classes: memory p50 %.4f ms (%zu), store p50 %.4f "
                 "ms (%zu), computed p50 %.2f ms p90 %.2f ms (%zu)\n",
                 median(mem_ms), mem_ms.size(), median(store_ms),
                 store_ms.size(), median(computed_ms),
                 quantile(computed_ms, 0.9), computed_ms.size());

  if (ctx.traced()) {
    out.layer("service.submit_us_p50", "us", median(submit_us));
    out.layer("service.memory_hit_ms_p50", "ms", median(mem_ms));
    out.layer("service.store_hit_ms_p50", "ms", median(store_ms));
    out.layer("service.computed_ms_p50", "ms", median(computed_ms));
    out.layer("service.generator_late_ms_p90", "ms", quantile(late_ms, 0.9));
    out.layer("service.executed", "count", totals.executed);
    out.layer("service.memory_hits", "count", totals.memory_hits);
    out.layer("service.store_hits", "count", totals.store_hits);
    out.layer("service.coalesced_hits", "count", totals.coalesced_hits);
    out.layer("service.retries", "count", totals.retries);
    out.layer("service.stolen", "count", totals.stolen);
    out.layer("service.spilled", "count", totals.spilled);
    out.layer("service.queue_peak", "count", totals.queue_peak);
    out.layer("service.mesh_cache_hits", "count", totals.mesh_cache_hits);
    out.layer("service.mesh_cache_misses", "count", totals.mesh_cache_misses);
    out.layer("service.executed_per_distinct_key", "share",
              distinct_total > 0 ? static_cast<double>(totals.executed +
                                                       prefill_executed) /
                                       static_cast<double>(distinct_total)
                                 : 0.0);
    svc::JobRequest one = cat[0].request, two = cat[0].request,
                    ckpt = cat[0].request;
    one.nranks = 1;
    one.checkpoint_interval_steps = 0;
    two.nranks = 2;
    two.checkpoint_interval_steps = 0;
    ckpt.nranks = 2;
    ckpt.checkpoint_interval_steps = 10;
    measure_execute_shapes(ctx.work_dir,
                           {{"box_1rank", one}, {"box_2rank", two},
                            {"box_2rank_ckpt", ckpt}},
                           5, tr, out);
    // The io and kernel probes on a job-shaped box.
    sfg::CartesianBoxSpec spec;
    spec.nx = spec.ny = spec.nz = one.nex;
    spec.lx = spec.ly = spec.lz = one.extent_m;
    const sfg::HexMesh mesh = sfg::build_cartesian_box(spec, basis);
    const sfg::MaterialFields mat = sfg::assign_materials(
        mesh, [](double, double, double) {
          sfg::MaterialSample s;
          s.rho = 2700.0;
          s.vp = 6000.0;
          s.vs = 3464.0;
          return s;
        });
    sfg::SimulationConfig cfg;
    cfg.dt = one.dt;
    sfg::Simulation sim(mesh, basis, mat, cfg);
    sfg::PointSource src;
    src.x = one.source.x;
    src.y = one.source.y;
    src.z = one.source.z;
    src.force = one.source.force;
    src.stf = sfg::ricker_wavelet(one.source.f0, one.source.t0);
    sim.add_source(src);
    sim.run(one.nsteps / 2);
    const std::vector<float> field(sim.displ().begin(), sim.displ().end());
    measure_elastic_kernel(mesh, basis, mat, field, tr, out);
    const svc::ExecutionOutcome sample =
        svc::execute_job(one, direct_cache, ctx.work_dir + "/sample", 0,
                         sfg::io::IoBackendKind::Container);
    measure_io(ctx.work_dir, sample.result, sim, tr, out);
  }
  return out;
}

}  // namespace pb
