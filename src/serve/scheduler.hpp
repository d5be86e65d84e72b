// SLA-aware request scheduler backing InferenceService's dispatch core.
//
// The Scheduler keeps one FIFO per priority class, so a latency-critical
// request never queues behind a bulk burst, and applies a two-level policy
// at every batch close:
//
//   1. PRIORITY  -- strict priority across the three classes
//                   (kInteractive > kNormal > kBulk), with an
//                   anti-starvation reservation: a class that sat non-empty
//                   through kStarvationBound consecutive selections while
//                   contributing nothing gets the FIRST slot of the next
//                   batch, so bulk work is delayed at most a bounded number
//                   of batch closes, never forever.
//   2. FIFO      -- within one class, strict submission order.
//
// With a single class the whole policy degenerates to one FIFO queue --
// pinned by tests/test_scheduler.cpp.
//
// Burst re-slicing rides on the per-request `no_hold` flag: a reslice-
// eligible burst (larger than max_batch, reslice_bursts on) is enqueued
// whole with no_hold set, the service's hold loop skips the flush-deadline
// wait while any such request is queued, and each closing worker takes a
// ceil(queued/idle-workers) slice -- so the burst drains across the pool
// concurrently instead of as ceil(burst/max_batch) serial batches on one
// worker.
//
// Locking: the Scheduler is deliberately a PLAIN data structure with no
// mutex of its own. It slots under the existing InferenceService::mu_
// (declared EPIM_GUARDED_BY(mu_) there), so the fleet lock graph gains no
// node: `ModelRegistry::mu_` and `InferenceService::mu_` both keep zero
// outgoing edges. tests/test_lockdebug.cpp drives priority traffic
// through a registry to prove it.
//
// Determinism contract: the scheduler only picks WHICH queued requests a
// worker closes next. Results stay bit-identical to direct forward_batch at
// any priority/worker mix -- scheduling may change completion order, never
// values (tests/test_serve.cpp pins the full grid).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace epim {

/// One completed inference.
struct InferenceResult {
  Tensor logits;
  /// argmax over the logits (top-1 class).
  std::int64_t predicted = 0;
  /// ADC clip events this image caused (0 = bit-exact digitization).
  std::int64_t clip_count = 0;
};

/// Request priority class. Strict ordering: a queued kInteractive request
/// is always selected before kNormal, which beats kBulk -- subject only to
/// the anti-starvation reservation documented on Scheduler.
enum class Priority : int {
  kInteractive = 0,  ///< latency-critical; always first
  kNormal = 1,       ///< the default
  kBulk = 2,         ///< throughput traffic; yields to everything
};

/// Number of priority classes (array extent for per-class counters).
inline constexpr int kNumPriorities = 3;

/// Telemetry label / log name for a class ("interactive"/"normal"/"bulk").
const char* priority_name(Priority priority);

/// Per-submission options (a struct so future knobs ride along without
/// another overload set).
struct SubmitOptions {
  /// Queueing budget in milliseconds, measured from submission: the request
  /// must be closed into a batch within this long or it is shed with
  /// DeadlineExceeded. 0 (the default) means no deadline; negative values
  /// are rejected with InvalidArgument.
  double deadline_ms = 0.0;
  /// Scheduling class (strict priority with a bounded anti-starvation
  /// reservation; see Priority).
  Priority priority = Priority::kNormal;
  /// Ignored: requests of one class are served FIFO whatever their client.
  /// Kept for source compatibility (epimbench/bench_epim.cpp sets it).
  std::string client_id;
};

/// One queued request, as the scheduler stores it. Owned by the scheduler
/// from enqueue() until select()/shed_expired() moves it back out.
struct SchedRequest {
  Tensor image;
  std::promise<InferenceResult> promise;
  std::chrono::steady_clock::time_point enqueued;
  /// Latest time a worker may close this request into a batch; max() means
  /// no deadline. Set once at submit from SubmitOptions::deadline_ms.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  Priority priority = Priority::kNormal;
  /// Set on every request of a reslice-eligible burst: the service's hold
  /// loop must not wait out the flush deadline while one is queued (its
  /// batch-mates arrived with it; holding buys nothing but latency).
  bool no_hold = false;
};

class Scheduler {
 public:
  /// Anti-starvation bound: consecutive empty-handed selections a non-empty
  /// class sits through before the next select() reserves it a slot.
  static constexpr int kStarvationBound = 4;

  /// Queue `request` at the back of its priority class.
  void enqueue(SchedRequest request);

  std::size_t size() const {
    std::size_t n = 0;
    for (const std::deque<SchedRequest>& queue : queues_) n += queue.size();
    return n;
  }
  std::size_t size(Priority priority) const {
    return queues_[static_cast<std::size_t>(priority)].size();
  }
  bool empty() const { return size() == 0; }
  /// Queued requests carrying the no_hold flag (reslice-eligible bursts).
  std::size_t no_hold_count() const { return no_hold_; }

  /// Earliest `enqueued` timestamp over all queued requests (the flush-
  /// deadline anchor). Requires !empty().
  std::chrono::steady_clock::time_point oldest_enqueued() const;
  /// Earliest deadline over all queued requests; time_point::max() when
  /// nothing queued carries one (the shed wake-up anchor).
  std::chrono::steady_clock::time_point soonest_deadline() const;

  /// Move up to `n` requests into `out` (appended) by priority -> FIFO.
  /// Returns the number selected. Selection never inspects request
  /// payloads, so it cannot affect results -- only order.
  std::size_t select(std::size_t n, std::vector<SchedRequest>& out);

  /// Remove every queued request whose deadline has passed, appending them
  /// to `out` (the caller fails their futures and counts the misses).
  /// Returns the number shed.
  std::size_t shed_expired(std::chrono::steady_clock::time_point now,
                           std::vector<SchedRequest>& out);

 private:
  /// Pop up to `budget` requests from the front of class `p`.
  std::size_t take(std::size_t p, std::size_t budget,
                   std::vector<SchedRequest>& out);

  std::deque<SchedRequest> queues_[kNumPriorities];
  /// Consecutive select() calls each class sat non-empty but contributed
  /// nothing (starved behind higher classes). At kStarvationBound the next
  /// select() reserves its first slot for that class.
  int passed_over_[kNumPriorities] = {0, 0, 0};
  std::size_t no_hold_ = 0;
};

}  // namespace epim
