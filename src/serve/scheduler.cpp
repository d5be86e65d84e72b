#include "serve/scheduler.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace epim {

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kNormal:
      return "normal";
    case Priority::kBulk:
      return "bulk";
  }
  return "normal";  // unreachable for in-range enums
}

void check_submission(const SubmitOptions& options, std::size_t images) {
  EPIM_CHECK(images > 0, "submit_batch requires a non-empty batch");
  EPIM_CHECK(options.deadline_ms >= 0.0,
             "deadline_ms must be non-negative (0 = no deadline), got " +
                 std::to_string(options.deadline_ms));
  EPIM_CHECK(static_cast<std::size_t>(options.priority) <
                 static_cast<std::size_t>(kNumPriorities),
             "SubmitOptions::priority is out of range");
}

void Scheduler::enqueue(SchedRequest request) {
  if (request.no_hold) ++no_hold_;
  queues_[static_cast<std::size_t>(request.priority)].push_back(
      std::move(request));
}

std::chrono::steady_clock::time_point Scheduler::oldest_enqueued() const {
  // Each class queue is FIFO, so its front is its oldest entry; the global
  // oldest is the min over fronts.
  auto oldest = std::chrono::steady_clock::time_point::max();
  for (const std::deque<SchedRequest>& queue : queues_) {
    if (!queue.empty()) oldest = std::min(oldest, queue.front().enqueued);
  }
  return oldest;
}

std::chrono::steady_clock::time_point Scheduler::soonest_deadline() const {
  // Deadlines are per-request (not monotone within a queue): scan them all.
  auto soonest = std::chrono::steady_clock::time_point::max();
  for (const std::deque<SchedRequest>& queue : queues_) {
    for (const SchedRequest& request : queue) {
      soonest = std::min(soonest, request.deadline);
    }
  }
  return soonest;
}

std::size_t Scheduler::take(std::size_t p, std::size_t budget,
                            std::vector<SchedRequest>& out) {
  std::deque<SchedRequest>& queue = queues_[p];
  const std::size_t taken = std::min(budget, queue.size());
  for (std::size_t i = 0; i < taken; ++i) {
    if (queue.front().no_hold) --no_hold_;
    out.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  return taken;
}

std::size_t Scheduler::select(std::size_t n, std::vector<SchedRequest>& out) {
  if (n == 0 || empty()) return 0;
  std::size_t taken = 0;
  std::size_t contributed[kNumPriorities] = {0, 0, 0};
  // Anti-starvation reservation first: any class that sat non-empty through
  // kStarvationBound selections contributing nothing gets one slot BEFORE
  // the strict-priority fill, so bulk progress is bounded by batch closes,
  // not by interactive arrival gaps.
  for (std::size_t p = 0; p < kNumPriorities && taken < n; ++p) {
    if (!queues_[p].empty() && passed_over_[p] >= kStarvationBound) {
      const std::size_t got = take(p, 1, out);
      taken += got;
      contributed[p] += got;
      passed_over_[p] = 0;
    }
  }
  // Strict-priority fill of the remaining slots.
  for (std::size_t p = 0; p < kNumPriorities && taken < n; ++p) {
    const std::size_t got = take(p, n - taken, out);
    taken += got;
    contributed[p] += got;
  }
  for (std::size_t p = 0; p < kNumPriorities; ++p) {
    if (contributed[p] > 0) {
      passed_over_[p] = 0;
    } else if (!queues_[p].empty()) {
      ++passed_over_[p];
    }
  }
  return taken;
}

std::size_t Scheduler::shed_expired(std::chrono::steady_clock::time_point now,
                                    std::vector<SchedRequest>& out) {
  std::size_t shed = 0;
  for (std::deque<SchedRequest>& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->deadline <= now) {
        if (it->no_hold) --no_hold_;
        out.push_back(std::move(*it));
        it = queue.erase(it);
        ++shed;
      } else {
        ++it;
      }
    }
  }
  return shed;
}

}  // namespace epim
