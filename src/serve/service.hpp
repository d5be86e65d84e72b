// Throughput-oriented serving front-end over a DeployedModel.
//
// An InferenceService owns a programmed chip (a DeployedModel, typically
// loaded from a `.epim` artifact) plus a pool of ServeConfig::workers batch
// threads implementing continuous batching: submitted requests queue until
// either `max_batch` of them are pending or the oldest has waited
// `flush_deadline_ms`; a free worker then closes that batch and runs it
// (PimNetworkRuntime::forward_batch, fanning out across the shared compute
// pool) while the remaining workers keep draining the queue. With
// `workers > 1` several batches are in flight per model, so batch formation
// overlaps execution and a large batch no longer head-of-line-blocks the
// requests queued behind it. This is the compiled-artifact + batched-executor
// split of TVM/MLPerf-style serving stacks, applied to the simulated PIM
// chip.
//
// Determinism contract: every image's forward pass is pure against the
// programmed crossbars, so the logits (and per-request clip counts) a
// service returns are bit-identical to direct PimNetworkRuntime::evaluate /
// forward at ANY batch size, worker count and thread count -- scheduling
// changes throughput, latency and completion ORDER, never values.
// tests/test_serve.cpp asserts this.
//
// Thread safety: submit()/submit_batch()/stats()/reset() may be called from
// any number of threads. One mutex guards the queue, the worker pool and
// the interval stats; a worker counts a finished batch under it before
// resolving that batch's futures, so a stats() read after get() sees the
// request. The destructor (and detach()) drains the queue (every returned
// future is fulfilled) before joining all workers.
// Admission control: with ServeConfig::max_queue set, a submission that
// would push the queue past the bound throws epim::Unavailable immediately
// instead of blocking or growing the queue without bound; a single burst
// larger than the bound itself can never be admitted and throws
// InvalidArgument instead (retrying cannot help).
//
// Deadlines: a request submitted with SubmitOptions::deadline_ms must START
// EXECUTING within that budget or it is shed -- its future fails with
// epim::DeadlineExceeded (pinned kErrDeadlineExceeded prefix) and the miss
// is counted in ServiceStats::deadline_misses. Shedding happens at two
// seams and nowhere else: (1) at batch close, so a closing worker never
// runs work that is already dead (dead requests anywhere in the queue are
// swept, not just at the front), and (2) at admission when the queue is at
// the max_queue bound, where expired queued requests are swept first so
// live traffic is not rejected behind the dead. A request whose deadline
// passes mid-execution still completes normally: the deadline bounds
// queueing delay, not execution.
//
// Scheduling (serve/scheduler.hpp): batch selection is strict priority
// (SubmitOptions::priority) -> FIFO within the class, with a bounded
// anti-starvation reservation so bulk traffic is delayed at most
// Scheduler::kStarvationBound batch closes. A submit_batch burst larger
// than max_batch is re-sliced across idle workers (ServeConfig::
// reslice_bursts) instead of draining serially, and the worker pool
// grows/shrinks within [workers, max_workers] from queue depth and busy
// workers. None of this can change results -- only completion order (the
// bit-identity contract, pinned across the priorities x workers x
// max_batch grid).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace epim {

namespace serve_detail {

/// Completed-items rate over a measured wall interval. A coarse steady
/// clock can round (last completion - first submit) to exactly zero even
/// though requests completed; fall back to a one-tick wall so the rate is
/// finite and positive whenever anything completed (zero items is the only
/// zero rate). Free function so the zero-wall branch is unit-testable
/// without a hook into the clock.
inline double items_rate(std::int64_t completed, double wall_seconds) {
  if (completed <= 0) return 0.0;
  const double tick =
      std::chrono::duration<double>(std::chrono::steady_clock::duration(1))
          .count();
  return static_cast<double>(completed) / std::max(wall_seconds, tick);
}

}  // namespace serve_detail

/// Monotonic counters + latency digest, snapshotted under the queue lock.
struct ServiceStats {
  std::int64_t requests = 0;       ///< completed requests
  std::int64_t batches = 0;        ///< flushes executed
  double mean_batch_size = 0.0;    ///< requests / batches
  /// Completed requests per second of wall time between the first submit
  /// and the most recent completion (0 until something completed; a wall
  /// that rounds to zero on a coarse clock falls back to one clock tick,
  /// so completed traffic always reports a positive finite rate).
  double items_per_sec = 0.0;
  /// Request latency (submit -> result ready), simulated-request terms:
  /// wall clock of the simulator, not of modelled PIM hardware. They come
  /// from the service's log-bucket latency histogram over the WHOLE
  /// interval (reset() starts a new one), so the digest covers every
  /// completed request at O(1) memory -- reported at bucket-upper-bound
  /// resolution (power-of-two buckets). RegistrySnapshot merges these
  /// histograms, so fleet and per-service percentiles share one digest.
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// ADC clip events summed over all completed requests.
  std::int64_t clip_events = 0;
  /// Requests refused by admission control (ServeConfig::max_queue), i.e.
  /// submissions that threw epim::Unavailable. Bursts rejected as never
  /// admissible (InvalidArgument) are caller errors, not traffic, and are
  /// NOT counted here.
  std::int64_t rejected = 0;
  /// Requests shed because their SubmitOptions::deadline_ms expired before
  /// a worker closed them into a batch (their futures failed with
  /// DeadlineExceeded). Disjoint from `rejected`: a miss was admitted and
  /// then died waiting; a rejection never entered the queue.
  std::int64_t deadline_misses = 0;
  /// Requests currently queued (not yet closed into a batch).
  std::int64_t queued = 0;
  /// Requests closed into a batch that is still executing, summed over all
  /// workers.
  std::int64_t in_flight = 0;
  /// Batch workers this service was configured with (ServeConfig::workers;
  /// the adaptive pool's floor).
  int workers = 0;
  /// Workers currently executing a batch (<= live_workers).
  int busy_workers = 0;
  /// Workers currently alive in the adaptive pool, in [workers,
  /// max_workers]. Equals `workers` for a fixed pool.
  int live_workers = 0;
  /// Adaptive-pool ceiling (resolved: equals `workers` when
  /// ServeConfig::max_workers is 0).
  int max_workers = 0;
  /// Per-priority-class splits of `queued`, `requests` and
  /// `deadline_misses`, indexed by static_cast<int>(Priority). The scalar
  /// fields above remain the class sums.
  std::array<std::int64_t, kNumPriorities> queued_by_priority{};
  std::array<std::int64_t, kNumPriorities> completed_by_priority{};
  std::array<std::int64_t, kNumPriorities> deadline_misses_by_priority{};
};

class InferenceService {
 public:
  /// Takes ownership of the programmed chip. `config` is validated here
  /// (same rules as PipelineConfig::validate()). `telemetry_label` is the
  /// {model} label this service's metric series carry in the process
  /// telemetry registry ("name@version" when the registry materializes it;
  /// "default" for a bare service). Instances sharing a label share series
  /// -- counters aggregate, the queue-depth gauge sums -- which is the
  /// Prometheus model. Series are resolved here, before any worker starts,
  /// so the hot path never touches the telemetry registration lock.
  InferenceService(DeployedModel model, ServeConfig config,
                   const std::string& telemetry_label);
  InferenceService(DeployedModel model, ServeConfig config)
      : InferenceService(std::move(model), std::move(config), "default") {}
  explicit InferenceService(DeployedModel model)
      : InferenceService(std::move(model), ServeConfig{}) {}

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Drains every pending request, then stops all workers.
  ~InferenceService();

  const RuntimeConfig& runtime_config() const {
    return model_.runtime_config();
  }

  /// Batch workers this service was configured with.
  int workers() const { return config_.workers; }

  /// Enqueue one (C, H, W) image. The shape is validated against the
  /// deployed model here (throws InvalidArgument), so a malformed request
  /// can never poison a batch. The future is fulfilled when the batch
  /// containing this request completes. When ServeConfig::max_queue is set
  /// and the queue is at the bound, throws epim::Unavailable immediately --
  /// admission never blocks the caller or grows the queue.
  std::future<InferenceResult> submit(Tensor image);
  /// As above, with per-request options (deadline). The future of a request
  /// shed for missing its deadline fails with epim::DeadlineExceeded.
  std::future<InferenceResult> submit(Tensor image,
                                      const SubmitOptions& options);

  /// Enqueue a burst atomically: the workers see all images at once, so
  /// full batches flush immediately instead of waiting out the deadline.
  /// An empty burst is rejected with InvalidArgument (a zero-item flush is
  /// always a caller bug), and so is a burst larger than its admission
  /// bound (it could never be admitted, no matter how empty the queue --
  /// that is a caller error, not transient overload, so it is not
  /// Unavailable and not counted in ServiceStats::rejected). The bound is
  /// max_queue, except for a reslice-eligible burst (reslice_bursts on and
  /// the burst larger than max_batch), which is admitted against max_queue
  /// + max_workers*max_batch: its slices go to the pool concurrently
  /// instead of sitting queued. Admission control applies to the whole
  /// burst, decided ONCE under the queue lock at submit: either every
  /// image is admitted or none is, and concurrent slices of an admitted
  /// burst can never be re-checked (so never double-rejected).
  std::vector<std::future<InferenceResult>> submit_batch(
      std::vector<Tensor> images);
  /// As above, with per-request options applied to every image in the burst.
  std::vector<std::future<InferenceResult>> submit_batch(
      std::vector<Tensor> images, const SubmitOptions& options);

  /// Consistent snapshot of the counters.
  ServiceStats stats() const;

  /// Zero every stats counter and the interval latency histogram, starting
  /// a new measurement interval (a registry snapshots per-interval fleet
  /// stats this way). Queued and in-flight requests are untouched: they
  /// complete normally and count toward the NEW interval; the throughput
  /// window restarts at the next submit after the reset.
  void reset();

  /// The interval latency histogram behind ServiceStats::p50/p99 (reset by
  /// reset()). A fleet aggregator merges these (Histogram::merge) to get
  /// fleet percentiles on the same buckets as the per-service ones.
  const telemetry::Histogram& interval_latency() const {
    return interval_latency_;
  }

  /// Drain every pending request, stop and join all workers, and return
  /// the deployed model -- the inverse of construction. The registry uses
  /// this to evict a cold service without losing an in-memory model, and
  /// to let in-flight traffic finish before a hot swap. Afterwards the
  /// service is terminal: submissions throw, but stats() stays readable
  /// (final values).
  ///
  /// Registry pin/drain contract: ModelRegistry never calls detach() while
  /// any thread holds a pin on the owning entry -- eviction skips pinned
  /// entries outright and reload() parks on the entry's condvar until
  /// pins reach zero -- so every submit_batch()/stats() issued through a
  /// pin runs against a live, un-detached service. detach() itself is
  /// always invoked with the registry mutex RELEASED (the entry is parked
  /// in kDraining first), so a drain can never stall registry admission.
  DeployedModel detach();

  /// Admission-rejection message prefix (pinned by tests).
  static constexpr const char* kErrQueueFull =
      "service queue is full (admission control)";
  /// Never-admissible-burst message prefix (pinned by tests): the burst is
  /// larger than its admission bound (max_queue, or max_queue +
  /// max_workers*max_batch for a reslice-eligible burst), so retrying can
  /// never succeed.
  static constexpr const char* kErrBurstTooLarge =
      "burst exceeds the admission bound and can never be admitted";
  /// Deadline-shed message prefix (pinned by tests). Carried by every
  /// epim::DeadlineExceeded this service raises.
  static constexpr const char* kErrDeadlineExceeded =
      "request deadline exceeded before execution started";

 private:
  /// One executed batch's results, handed from run_batch (no lock held) to
  /// the worker's next mu_ acquisition, which counts them and only then
  /// fulfills the futures.
  struct BatchOutcome {
    std::vector<InferenceResult> results;  ///< empty if the batch failed
    std::chrono::steady_clock::time_point done;  ///< forward pass finished
  };

  void worker_loop(std::size_t worker) EPIM_EXCLUDES(mu_);
  /// Sweep the scheduler for requests whose deadline has passed: each is
  /// removed, its future fails with DeadlineExceeded and the miss is
  /// counted (per class). Fulfilling a promise under mu_ is safe --
  /// set_exception only stores the error and wakes waiters, it runs no
  /// user code. Returns the number shed.
  std::size_t shed_expired_locked(std::chrono::steady_clock::time_point now)
      EPIM_REQUIRES(mu_);
  /// Adaptive-pool growth: start (or recycle) ONE retired worker slot when
  /// the queue holds more than the idle workers could absorb in a single
  /// batch each (queued > idle * max_batch) and the pool is below its
  /// ceiling. One slot per call is the growth hysteresis -- a burst grows
  /// the pool over several submissions/batch closes, not in one spike.
  /// No-op once stop_ is set, so teardown can join workers_ unlocked.
  void maybe_grow_locked() EPIM_REQUIRES(mu_);
  /// Workers currently executing a batch. EPIM_REQUIRES(mu_).
  int busy_workers_locked() const EPIM_REQUIRES(mu_);
  /// Runs with NO lock held (the closing worker unlocks around it), so
  /// several batches execute concurrently. Returns the results without
  /// fulfilling any future: worker_loop folds them into the stats in the
  /// mu_ acquisition it makes anyway, then resolves the futures. A throwing
  /// forward pass (or an armed serve.run_batch fault point) fails the
  /// batch's futures here and returns no results, leaving the worker
  /// serving; worker_loop adds a last-ditch guard so no exception
  /// whatsoever can kill a worker thread. `worker` and `closed_at` (the
  /// batch-close timestamp the closing worker already read) exist for the
  /// trace-span layer, which records them only while telemetry tracing is
  /// armed.
  BatchOutcome run_batch(std::vector<SchedRequest>& batch, std::size_t worker,
                         std::chrono::steady_clock::time_point closed_at)
      EPIM_EXCLUDES(mu_);
  /// Count a finished batch into the interval stats, then fulfill its
  /// futures -- in that order, so a stats() read after get() counts the
  /// request.
  void complete_batch_locked(std::vector<SchedRequest>& batch,
                             BatchOutcome& outcome) EPIM_REQUIRES(mu_);

  /// Exclusively owned by construction and (post-join) by detach(); workers
  /// read it concurrently through the const forward_batch path. Not
  /// guardable by a mutex: the stop_-then-join protocol is the guard (a
  /// submitter must check stop_ under mu_ before touching the model, and
  /// detach() moves it out only after every worker joined).
  DeployedModel model_;
  ServeConfig config_;  ///< immutable after construction

  // --- telemetry (resolved once in the constructor; every record below is
  // relaxed atomics on cached pointers, legal under mu_). These series are
  // the cumulative export: instances with one label share them and they
  // never reset, so the per-instance interval stats below are kept apart.
  std::string telemetry_label_;  ///< {model} label; immutable
  telemetry::Counter* m_requests_ = nullptr;
  telemetry::Counter* m_batches_ = nullptr;
  telemetry::Counter* m_rejected_ = nullptr;
  telemetry::Counter* m_deadline_misses_ = nullptr;
  telemetry::Counter* m_clip_events_ = nullptr;
  /// Per-priority {model, priority} series: the queue-depth gauges mirror
  /// sched_.size(Priority) exactly; the latency histograms are shared
  /// (cumulative, never reset). Indexed by static_cast<int>(Priority).
  std::array<telemetry::Gauge*, kNumPriorities> m_queue_depth_{};
  std::array<telemetry::Histogram*, kNumPriorities> m_latency_{};
  /// Private per-instance latency histogram backing ServiceStats::p50/p99
  /// (the shared series above aggregates across instances and outlives
  /// reset(), so it cannot serve per-service interval percentiles).
  /// Written (observe, reset) and read by stats() only under mu_, so it
  /// always counts exactly completed_; the registry's lock-free merge via
  /// interval_latency() relies on Histogram's atomics.
  telemetry::Histogram interval_latency_;

  /// The service's one lock: queue, pool and interval stats. Nothing is
  /// acquired under it (tests/test_lockdebug.cpp pins that it has no
  /// outgoing edges).
  mutable Mutex mu_{"InferenceService::mu_"};
  CondVar cv_;
  /// The SLA-aware dispatch core. A plain data structure guarded by mu_ --
  /// NOT a lock of its own -- so the fleet lock order gains no new node
  /// and ModelRegistry::mu_ keeps zero outgoing edges (the PR 8 lockdep
  /// invariant; tests/test_lockdebug.cpp re-proves it under priority
  /// traffic).
  Scheduler sched_ EPIM_GUARDED_BY(mu_);
  bool stop_ EPIM_GUARDED_BY(mu_) = false;
  /// Adaptive-pool ceiling, resolved at construction (== workers when
  /// ServeConfig::max_workers is 0). Immutable; sizes the slot arrays.
  int pool_cap_ = 0;
  /// Requests each worker slot has closed into its current batch (0 =
  /// idle). Summed for ServiceStats::in_flight. Sized pool_cap_.
  std::vector<std::int64_t> worker_in_flight_ EPIM_GUARDED_BY(mu_);
  /// Which slots currently hold a live worker thread. A shrinking worker
  /// clears its flag under mu_ just before returning; maybe_grow_locked
  /// joins the exited thread and relaunches the slot. Sized pool_cap_.
  std::vector<char> worker_live_ EPIM_GUARDED_BY(mu_);
  int live_workers_ EPIM_GUARDED_BY(mu_) = 0;

  // --- interval stats (zeroed by reset()) ---
  std::int64_t completed_ EPIM_GUARDED_BY(mu_) = 0;
  std::int64_t batches_ EPIM_GUARDED_BY(mu_) = 0;
  std::int64_t clip_events_ EPIM_GUARDED_BY(mu_) = 0;
  std::int64_t rejected_ EPIM_GUARDED_BY(mu_) = 0;
  std::int64_t deadline_misses_ EPIM_GUARDED_BY(mu_) = 0;
  /// Per-class splits of completed_/deadline_misses_ (the scalars stay the
  /// sums).
  std::array<std::int64_t, kNumPriorities> completed_by_priority_
      EPIM_GUARDED_BY(mu_){};
  std::array<std::int64_t, kNumPriorities> deadline_misses_by_priority_
      EPIM_GUARDED_BY(mu_){};
  bool saw_first_submit_ EPIM_GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point first_submit_ EPIM_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point last_done_ EPIM_GUARDED_BY(mu_);

  /// Worker threads by slot, sized pool_cap_ (retired slots hold joined or
  /// default-constructed threads). Last member: joins before teardown.
  /// Written only under mu_ while workers run (maybe_grow_locked) and by
  /// the quiescent join loops in ~InferenceService/detach(), which run
  /// after stop_ is set under mu_ -- at that point maybe_grow_locked is a
  /// no-op, so the unlocked joins race with nothing.
  std::vector<std::thread> workers_;
};

}  // namespace epim
