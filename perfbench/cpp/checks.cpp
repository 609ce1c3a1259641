#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

namespace pb {

bool seismogram_finite(const sfg::Seismogram& s) {
  for (double t : s.time)
    if (!std::isfinite(t)) return false;
  for (const auto& u : s.displ)
    for (double c : u)
      if (!std::isfinite(c)) return false;
  return true;
}

bool field_finite(const float* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(data[i])) return false;
  return true;
}

namespace {
double amp(const std::array<double, 3>& u) {
  return std::max({std::abs(u[0]), std::abs(u[1]), std::abs(u[2])});
}
}  // namespace

double seismogram_peak(const sfg::Seismogram& s) {
  double p = 0.0;
  for (const auto& u : s.displ) p = std::max(p, amp(u));
  return p;
}

double first_exceed(const sfg::Seismogram& s, double level) {
  for (std::size_t i = 0; i < s.displ.size() && i < s.time.size(); ++i)
    if (amp(s.displ[i]) > level) return s.time[i];
  return std::numeric_limits<double>::infinity();
}

bool causal(const sfg::Seismogram& s, double t_bound, double level,
            std::string* why) {
  const double t = first_exceed(s, level);
  if (t >= t_bound) return true;
  std::ostringstream os;
  os << "motion above " << level << " at t=" << t
     << " s, before the causal bound " << t_bound << " s";
  *why = os.str();
  return false;
}

bool arrives_by(const sfg::Seismogram& s, double deadline, double level,
                std::string* why) {
  const double t = first_exceed(s, level);
  if (t <= deadline) return true;
  std::ostringstream os;
  os << "first motion above " << level << " at t=" << t
     << " s, after the deadline " << deadline << " s";
  *why = os.str();
  return false;
}

double stf_onset(const sfg::SourceTimeFunction& stf, double t_max, double dt,
                 double rel) {
  for (double t = 0.0; t < t_max; t += dt)
    if (std::abs(stf(t)) >= rel) return t;
  return t_max;
}

bool energy_not_growing(const std::vector<double>& t,
                        const std::vector<double>& energy, double t_from,
                        double rel_tol, std::string* why) {
  double ref = -1.0;
  for (std::size_t i = 0; i < t.size() && i < energy.size(); ++i) {
    if (!std::isfinite(energy[i])) {
      *why = "non-finite energy";
      return false;
    }
    if (t[i] < t_from) continue;
    if (ref < 0.0) {
      ref = energy[i];
      continue;
    }
    if (energy[i] > ref * (1.0 + rel_tol)) {
      std::ostringstream os;
      os << "energy grows after the source ends: " << energy[i] << " J at t="
         << t[i] << " s vs " << ref << " J";
      *why = os.str();
      return false;
    }
  }
  if (ref <= 0.0) {
    *why = "no energy sample after the source ends";
    return false;
  }
  return true;
}

bool energy_conserved(const std::vector<double>& t,
                      const std::vector<double>& energy, double t_from,
                      double rel_tol, std::string* why) {
  double ref = -1.0;
  for (std::size_t i = 0; i < t.size() && i < energy.size(); ++i) {
    if (!std::isfinite(energy[i])) {
      *why = "non-finite energy";
      return false;
    }
    if (t[i] < t_from) continue;
    if (ref < 0.0) ref = energy[i];
    if (std::abs(energy[i] - ref) > rel_tol * ref) {
      std::ostringstream os;
      os << "energy drifts by " << (energy[i] - ref) / ref << " (tolerance "
         << rel_tol << ") at t=" << t[i] << " s";
      *why = os.str();
      return false;
    }
  }
  if (ref <= 0.0) {
    *why = "no energy sample after the source ends";
    return false;
  }
  return true;
}

std::uint64_t steps_failed(const std::vector<double>& probes, int every,
                           std::uint64_t steps) {
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (std::isfinite(probes[i])) continue;
    const std::uint64_t good =
        i == 0 ? 0 : std::min<std::uint64_t>((i - 1) * every, steps);
    return steps - good;
  }
  return 0;
}

bool results_identical(const sfg::service::JobResult& a,
                       const sfg::service::JobResult& b) {
  if (a.seismograms.size() != b.seismograms.size()) return false;
  for (std::size_t i = 0; i < a.seismograms.size(); ++i) {
    const sfg::Seismogram& x = a.seismograms[i];
    const sfg::Seismogram& y = b.seismograms[i];
    if (x.time.size() != y.time.size() || x.displ.size() != y.displ.size())
      return false;
    if (!x.time.empty() &&
        std::memcmp(x.time.data(), y.time.data(),
                    x.time.size() * sizeof(double)) != 0)
      return false;
    if (!x.displ.empty() &&
        std::memcmp(x.displ.data(), y.displ.data(),
                    x.displ.size() * sizeof(x.displ[0])) != 0)
      return false;
  }
  return true;
}

namespace {

/// A trace that is still until `t_arrival`, then rings with one cycle of
/// a 1/`period` sine.
sfg::Seismogram synthetic_trace(double t_arrival, double period) {
  sfg::Seismogram s;
  for (int i = 0; i < 400; ++i) {
    const double t = i * 1.0;
    const double a = t - t_arrival;
    const double u = a >= 0.0 && a <= period
                         ? std::sin(2.0 * 3.14159265358979 * a / period)
                         : 0.0;
    s.time.push_back(t);
    s.displ.push_back({0.5 * u, -0.25 * u, u});
  }
  return s;
}

sfg::service::JobResult synthetic_result(double t_arrival) {
  sfg::service::JobResult r;
  r.seismograms.push_back(synthetic_trace(t_arrival, 20.0));
  r.seismograms.push_back(synthetic_trace(t_arrival + 15.0, 20.0));
  return r;
}

}  // namespace

std::vector<std::string> run_checker_selftests() {
  std::vector<std::string> failures;
  auto want = [&](bool cond, const char* what) {
    if (!cond) failures.push_back(what);
  };
  std::string why;

  // Causality and arrival deadline: a trace arriving at 100 s passes a
  // 90 s causal bound and a 110 s deadline; shifted 30 s earlier it breaks
  // the bound, shifted 60 s later it misses the deadline.
  const sfg::Seismogram good = synthetic_trace(100.0, 20.0);
  const sfg::Seismogram shifted = synthetic_trace(70.0, 20.0);
  want(causal(good, 90.0, 1e-3, &why), "causal rejects a causal trace");
  want(!causal(shifted, 90.0, 1e-3, &why),
       "causal accepts a time-shifted trace");
  const sfg::Seismogram late = synthetic_trace(160.0, 20.0);
  want(arrives_by(good, 110.0, 1e-3, &why),
       "arrival deadline rejects a trace on time");
  want(!arrives_by(late, 110.0, 1e-3, &why),
       "arrival deadline accepts a trace shifted late");

  // Finiteness: one NaN sample.
  sfg::Seismogram nan_trace = good;
  nan_trace.displ[150][1] = std::numeric_limits<double>::quiet_NaN();
  want(seismogram_finite(good), "finite check rejects a finite trace");
  want(!seismogram_finite(nan_trace), "finite check accepts a NaN sample");
  const float field[4] = {1.0f, 0.0f, std::numeric_limits<float>::quiet_NaN(),
                          2.0f};
  want(field_finite(field, 2), "field check rejects a finite field");
  want(!field_finite(field, 4), "field check accepts a NaN value");

  // Energy: decaying passes, growing is rejected by both energy checks.
  const std::vector<double> t = {0, 10, 20, 30, 40, 50};
  const std::vector<double> decaying = {0.0, 5.0, 4.0, 3.9, 3.8, 3.7};
  const std::vector<double> flat = {0.0, 5.0, 5.0, 5.001, 4.999, 5.0};
  const std::vector<double> growing = {0.0, 5.0, 5.0, 5.2, 5.6, 6.0};
  want(energy_not_growing(t, decaying, 10.0, 1e-3, &why),
       "energy check rejects decaying energy");
  want(!energy_not_growing(t, growing, 10.0, 1e-3, &why),
       "energy check accepts growing energy");
  // Slow, steady growth: +0.05% per sample stays under the tolerance
  // from one sample to the next but not against the first one.
  std::vector<double> t_long, creeping;
  for (int i = 0; i < 60; ++i) {
    t_long.push_back(10.0 * i);
    creeping.push_back(5.0 * std::pow(1.0005, i));
  }
  want(!energy_not_growing(t_long, creeping, 0.0, 1e-3, &why),
       "energy check accepts slowly growing energy");
  want(energy_conserved(t, flat, 10.0, 1e-3, &why),
       "conservation check rejects conserved energy");
  want(!energy_conserved(t, growing, 10.0, 1e-3, &why),
       "conservation check accepts growing energy");

  // Failed steps: a probe that reads NaN marks every step since the last
  // finite probe as failed, so the count is not 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  want(steps_failed({1.0, 2.0, 2.0, 1.5}, 10, 25) == 0,
       "failed-step count is not 0 for finite probes");
  want(steps_failed({1.0, 2.0, nan, nan}, 10, 25) == 15,
       "failed-step count misses a NaN probe");
  want(steps_failed({nan, nan}, 10, 25) == 25,
       "failed-step count misses a NaN start");

  // Served results: a result stored under another key (another event's
  // seismograms) must not match the direct execution of this request.
  const sfg::service::JobResult mine = synthetic_result(100.0);
  const sfg::service::JobResult other_key = synthetic_result(112.0);
  want(results_identical(mine, synthetic_result(100.0)),
       "result check rejects an identical result");
  want(!results_identical(mine, other_key),
       "result check accepts a result served under another key");

  // Retried job: one sample off by one ulp must be rejected.
  sfg::service::JobResult retried = mine;
  double& v = retried.seismograms[1].displ[120][2];
  v = std::nextafter(v, 2.0 * v + 1.0);
  want(!results_identical(mine, retried),
       "result check accepts a retried job that differs by one ulp");
  return failures;
}

}  // namespace pb
