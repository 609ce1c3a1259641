#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced run. The benchmark wraps each
/// call it makes into a layer of the program in a span (name, start, end,
/// parent span, optional request id); spans stay in memory and are written
/// once, at exit, as Chrome-trace JSON that Perfetto opens. A disabled
/// tracer records nothing, so untraced runs pay one branch per call.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Microseconds since the tracer was created (steady clock).
  double now_us() const;

  /// Open a span on the calling thread; its parent is the innermost span
  /// this thread has open. Returns -1 when disabled.
  int begin(const char* name, std::int64_t request = -1);
  void end(int id);
  /// Record an already finished span (times from now_us()).
  int record(const char* name, double start_us, double end_us, int parent,
             std::int64_t request);

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> durations_s(const std::string& name) const;
  std::size_t size() const;

  /// Chrome-trace JSON ("ph":"X" events, one tid per recording thread).
  bool write_chrome_trace(const std::string& path) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t request = -1)
        : tracer_(t), id_(t.begin(name, request)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;  ///< < start_us while open
    int parent = -1;
    std::int64_t request = -1;
    int tid = 0;
  };
  int thread_index_locked();

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::vector<std::uint64_t> threads_;  ///< hashed std::thread::id per tid
};

}  // namespace pb
