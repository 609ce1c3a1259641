#include "trace.hpp"

#include <cstdio>
#include <functional>
#include <thread>

namespace pb {

namespace {
/// Spans this thread has open, innermost last.
thread_local std::vector<int> t_open;
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::thread_index_locked() {
  const std::uint64_t me =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (std::size_t i = 0; i < threads_.size(); ++i)
    if (threads_[i] == me) return static_cast<int>(i);
  threads_.push_back(me);
  return static_cast<int>(threads_.size() - 1);
}

int Tracer::begin(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  const int parent = t_open.empty() ? -1 : t_open.back();
  const double start = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.start_us = start;
  s.parent = parent;
  s.request = request;
  s.tid = thread_index_locked();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  t_open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double stop = now_us();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = stop;
}

int Tracer::record(const char* name, double start_us, double end_us,
                   int parent, std::int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  s.parent = parent;
  s.request = request;
  s.tid = thread_index_locked();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.end_us >= s.start_us && s.name == name)
      out.push_back((s.end_us - s.start_us) * 1e-6);
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < s.start_us) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"request\":%lld}}",
                 first ? "" : ",", s.name.c_str(), s.tid, s.start_us,
                 s.end_us - s.start_us, i, s.parent,
                 static_cast<long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb
