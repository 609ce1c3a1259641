#pragma once

/// \file checks.hpp
/// Output checks of the stack benchmark. Each compares an output with an
/// independent computation or with a property the method must have —
/// never with a stored copy of earlier output — and each is proven to
/// reject a deliberately wrong output by run_checker_selftests().

#include <cstdint>
#include <string>
#include <vector>

#include "service/result_store.hpp"
#include "solver/simulation.hpp"

namespace pb {

/// Every sample of every component is finite.
bool seismogram_finite(const sfg::Seismogram& s);
bool field_finite(const float* data, std::size_t n);

/// Largest |u| over the trace (component-wise max norm).
double seismogram_peak(const sfg::Seismogram& s);

/// First recorded time at which |u| exceeds `level` (+inf when it never
/// does).
double first_exceed(const sfg::Seismogram& s, double level);

/// Causality: no sample before `t_bound` exceeds `level`.
bool causal(const sfg::Seismogram& s, double t_bound, double level,
            std::string* why);

/// Arrival deadline: some sample at or before `deadline` exceeds `level`.
bool arrives_by(const sfg::Seismogram& s, double deadline, double level,
                std::string* why);

/// First time in [0, t_max), in steps of `dt`, at which |stf| reaches
/// `rel`: no signal at that relative level leaves the source earlier
/// (t_max when it never does).
double stf_onset(const sfg::SourceTimeFunction& stf, double t_max, double dt,
                 double rel);

/// Energy does not grow after `t_from`: every sample at t >= t_from stays
/// below (1 + rel_tol) x the first such sample.
bool energy_not_growing(const std::vector<double>& t,
                        const std::vector<double>& energy, double t_from,
                        double rel_tol, std::string* why);

/// Energy stays within rel_tol of its first sample at t >= t_from.
bool energy_conserved(const std::vector<double>& t,
                      const std::vector<double>& energy, double t_from,
                      double rel_tol, std::string* why);

/// Steps that left a non-finite field, from probes of a field integral
/// (energy) taken before step 0, after every `every` steps, and after the
/// last of `steps` steps: every step after the last finite probe that
/// precedes the first non-finite one (a NaN or Inf never leaves the field).
std::uint64_t steps_failed(const std::vector<double>& probes, int every,
                           std::uint64_t steps);

/// Bit-for-bit equality of two job results (times and samples).
bool results_identical(const sfg::service::JobResult& a,
                       const sfg::service::JobResult& b);

/// Runs every check against a correct synthetic output (must pass) and a
/// deliberately wrong one (must be rejected): a time-shifted trace, a NaN
/// sample, energy that grows, a result served under another key, and a
/// retried job that differs from its unfaulted run. Returns the failures
/// (empty when every check has teeth).
std::vector<std::string> run_checker_selftests();

}  // namespace pb
