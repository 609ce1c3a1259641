#pragma once

/// \file queue.hpp
/// The queued unit of work of the front-end's shard queues
/// (ShardQueueSet, frontend.hpp) and the order they pop in.
///
/// Ordering is cost-aware: higher priority first, then cheapest predicted
/// completion first (shortest-job-first within a priority band maximizes
/// jobs/minute), then FIFO by submission sequence so equal jobs never
/// starve or reorder.

#include <cstdint>

namespace sfg::service {

/// One queued unit of work (the record itself stays with the front-end).
struct QueueEntry {
  int job_id = -1;
  int priority = 0;             ///< higher runs first
  double cost_core_seconds = 0; ///< predicted cost; cheaper runs first
  std::uint64_t seq = 0;        ///< FIFO tiebreak, assigned by the queue
};

/// Pop order: priority desc, then cost asc, then seq asc.
struct QueueOrder {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.cost_core_seconds != b.cost_core_seconds)
      return a.cost_core_seconds < b.cost_core_seconds;
    return a.seq < b.seq;
  }
};

}  // namespace sfg::service
