// §6 attenuation study reproduction: "Attenuation was turned off initially
// to reduce the runtime ... attenuation was turned on for the final
// science runs. This resulted in a 1.8 increase in execution time but only
// an almost imperceptible drop in Tflops."
//
// The memory-variable updates move a lot of data but add relatively few
// floating-point operations, so runtime grows much faster than the flops
// count shrinks the rate.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "model/attenuation.hpp"

using namespace sfg;

int main() {
  bench::banner("§6 — attenuation on/off",
                "1.8x runtime increase, almost imperceptible Tflops drop");

  bench::GlobeSetup elastic_setup(10);
  bench::GlobeSetup anelastic_setup(10);

  // Elastic run.
  Simulation elastic = elastic_setup.make_simulation();
  elastic.run(2);
  const double t_elastic =
      bench::time_best_of(3, [&] { elastic.run(4); }) / 4.0;
  const double flops_elastic =
      static_cast<double>(elastic.flops_per_step());

  // Anelastic run (3 standard linear solids, PREM Q values).
  SlsSeries sls = fit_constant_q(300.0, 1.0 / 500.0, 1.0 / 20.0, 3);
  prepare_attenuation(anelastic_setup.globe.materials, sls);
  SimulationConfig cfg;
  cfg.dt = anelastic_setup.dt;
  cfg.attenuation = true;
  cfg.sls = sls;
  Simulation anelastic = anelastic_setup.make_simulation(cfg);
  anelastic.run(2);
  const double t_anelastic =
      bench::time_best_of(3, [&] { anelastic.run(4); }) / 4.0;
  const double flops_anelastic =
      static_cast<double>(anelastic.flops_per_step());

  const double time_ratio = t_anelastic / t_elastic;
  const double rate_elastic = flops_elastic / t_elastic / 1e9;
  const double rate_anelastic = flops_anelastic / t_anelastic / 1e9;

  AsciiTable table("Attenuation cost (NEX=10 global PREM mesh, 3 SLS)");
  table.set_header({"configuration", "time/step (ms)", "Mflops/step",
                    "sustained Gflops"});
  table.add_row({"elastic (attenuation off)", fmt_g(1e3 * t_elastic, 4),
                 fmt_g(flops_elastic / 1e6, 4), fmt_g(rate_elastic, 3)});
  table.add_row({"anelastic (attenuation on)", fmt_g(1e3 * t_anelastic, 4),
                 fmt_g(flops_anelastic / 1e6, 4), fmt_g(rate_anelastic, 3)});
  table.print();

  const double flops_ratio = flops_anelastic / flops_elastic;
  const double rate_change_pct = 100.0 * (rate_anelastic / rate_elastic - 1.0);
  AsciiTable cmp("Paper vs reproduced");
  cmp.set_header({"metric", "paper", "reproduced"});
  cmp.add_row({"runtime increase", "1.8x", fmt_g(time_ratio, 3) + "x"});
  cmp.add_row({"flops-rate change", "\"almost imperceptible\"",
               fmt_g(rate_change_pct, 2) + " %"});
  cmp.print();

  // "Almost imperceptible" is read as a rate change within 5%.
  const bool matches_paper = std::abs(rate_change_pct) < 5.0;
  std::printf(
      "\nWhy: the SLS memory-variable update streams %d extra arrays per\n"
      "element (5 deviatoric components x 3 SLS plus the 6 running sums)\n"
      "but performs few flops on them, so time grows %.2fx while the\n"
      "flops counter grows only %.2fx: the sustained rate changes by\n"
      "%+.1f%%, which %s the paper's \"almost imperceptible\" drop.\n",
      5 * 3 + 6, time_ratio, flops_ratio, rate_change_pct,
      matches_paper ? "matches" : "differs from");
  return 0;
}
