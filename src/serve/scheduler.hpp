// SLA-aware request scheduler backing InferenceService's dispatch core.
//
// The service used to drain one FIFO std::deque<Request>: a latency-critical
// request queued behind any bulk burst, and whichever client submitted
// fastest owned the queue. The Scheduler replaces that deque with a
// three-level policy, applied in order at every batch close:
//
//   1. PRIORITY  -- strict priority across the three classes
//                   (kInteractive > kNormal > kBulk), with an
//                   anti-starvation reservation: a class that sat non-empty
//                   through `fairness_quantum` consecutive selections while
//                   contributing nothing gets the FIRST slot of the next
//                   batch, so bulk work is delayed at most a bounded number
//                   of batch closes, never forever.
//   2. FAIRNESS  -- deficit round robin across clients within a class
//                   (SubmitOptions::client_id): each client's deficit is
//                   topped up by `fairness_quantum` requests when the ring
//                   cursor visits it and drawn down one per selected
//                   request, so a chatty client cannot lock out a quiet one
//                   and a quiet client cannot bank unbounded credit. The
//                   client table is bounded (kMaxClientQueues): clients past
//                   the bound share the anonymous "" bucket, so an
//                   adversarial client-id stream cannot grow memory.
//   3. FIFO      -- within one (class, client) queue, strict submission
//                   order.
//
// With a single client and a single class the whole policy degenerates to
// the original FIFO queue -- pinned by tests/test_scheduler.cpp.
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
// any priority/client/worker mix -- scheduling may change completion order,
// never values (tests/test_serve.cpp pins the full grid).
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
  /// Fairness bucket for deficit-round-robin selection within the class.
  /// Empty (the default) is the shared anonymous bucket; distinct ids get
  /// distinct DRR queues up to Scheduler::kMaxClientQueues, beyond which
  /// new ids fold back into the anonymous bucket.
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
  /// Distinct named client queues per priority class. The 65th client of a
  /// class shares the anonymous "" bucket -- fairness degrades gracefully
  /// instead of memory growing with attacker-chosen ids.
  static constexpr std::size_t kMaxClientQueues = 64;

  /// `fairness_quantum` is both the DRR top-up (requests per client per
  /// ring visit) and the anti-starvation bound (consecutive empty-handed
  /// selections before a class gets a reserved slot). Validated >= 1 by
  /// validate_serve before the service constructs one.
  explicit Scheduler(int fairness_quantum);

  /// Queue `request` under (request.priority, client). FIFO within the
  /// (class, client) queue.
  void enqueue(SchedRequest request, const std::string& client);

  std::size_t size() const { return total_; }
  std::size_t size(Priority priority) const {
    return classes_[static_cast<std::size_t>(priority)].total;
  }
  bool empty() const { return total_ == 0; }
  /// Queued requests carrying the no_hold flag (reslice-eligible bursts).
  std::size_t no_hold_count() const { return no_hold_; }

  /// Earliest `enqueued` timestamp over all queued requests (the flush-
  /// deadline anchor). Requires !empty().
  std::chrono::steady_clock::time_point oldest_enqueued() const;
  /// Earliest deadline over all queued requests; time_point::max() when
  /// nothing queued carries one (the shed wake-up anchor).
  std::chrono::steady_clock::time_point soonest_deadline() const;

  /// Move up to `n` requests into `out` (appended) by priority -> DRR
  /// fairness -> FIFO. Returns the number selected. Selection never
  /// inspects request payloads, so it cannot affect results -- only order.
  std::size_t select(std::size_t n, std::vector<SchedRequest>& out);

  /// Remove every queued request whose deadline has passed, appending them
  /// to `out` (the caller fails their futures and counts the misses).
  /// Returns the number shed.
  std::size_t shed_expired(std::chrono::steady_clock::time_point now,
                           std::vector<SchedRequest>& out);

 private:
  struct ClientQueue {
    ClientQueue() = default;
    // Explicitly move-only: deque<SchedRequest>'s copy constructor is
    // declared (only ill-formed on instantiation, since promises cannot be
    // copied), so without this vector realloc would select the copy via
    // move_if_noexcept and fail to compile.
    ClientQueue(const ClientQueue&) = delete;
    ClientQueue& operator=(const ClientQueue&) = delete;
    ClientQueue(ClientQueue&&) = default;
    ClientQueue& operator=(ClientQueue&&) = default;

    std::string id;
    std::deque<SchedRequest> queue;
    /// DRR credit, in requests. Topped up by fairness_quantum_ when the
    /// ring cursor lands here with no credit left; drawn down one per
    /// selected request; discarded when the queue empties.
    int deficit = 0;
  };
  struct ClassState {
    /// Active clients in ring order. Bounded by kMaxClientQueues (+1 for
    /// the anonymous bucket); entries are erased as their queues empty.
    std::vector<ClientQueue> clients;
    std::size_t cursor = 0;  ///< DRR ring position
    std::size_t total = 0;   ///< queued requests across all clients
    /// Consecutive select() calls this class sat non-empty but contributed
    /// nothing (starved behind higher classes). At fairness_quantum_ the
    /// next select() reserves its first slot for this class.
    int passed_over = 0;
  };

  ClientQueue& client_queue(ClassState& cls, const std::string& id);
  /// DRR selection of up to `budget` requests from one class.
  std::size_t take_from_class(ClassState& cls, std::size_t budget,
                              std::vector<SchedRequest>& out);

  int fairness_quantum_;
  ClassState classes_[kNumPriorities];
  std::size_t total_ = 0;
  std::size_t no_hold_ = 0;
};

}  // namespace epim
