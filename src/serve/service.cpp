#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.hpp"
#include "common/fault_inject.hpp"
#include "common/thread_annotations.hpp"
#include "runtime/pim_runtime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace epim {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The error a shed request's future carries. The prefix is pinned
/// (kErrDeadlineExceeded); the suffix reports how long the request actually
/// waited so a log line is actionable.
std::exception_ptr deadline_error(Clock::time_point enqueued,
                                  Clock::time_point now) {
  return std::make_exception_ptr(DeadlineExceeded(
      std::string(InferenceService::kErrDeadlineExceeded) + ": queued for " +
      std::to_string(ms_between(enqueued, now)) + " ms"));
}

/// How long a beyond-the-floor worker sits idle before retiring its slot
/// (the adaptive pool's shrink hysteresis: growth is one slot per
/// submission/batch-close event, shrink is one idle timeout per slot).
constexpr std::chrono::milliseconds kPoolShrinkIdle{50};

std::size_t prio_index(Priority priority) {
  return static_cast<std::size_t>(priority);
}

}  // namespace

InferenceService::InferenceService(DeployedModel model, ServeConfig config,
                                   const std::string& telemetry_label)
    : model_(std::move(model)),
      config_((validate_serve(config), config)),
      telemetry_label_(telemetry_label.empty() ? "default" : telemetry_label) {
  pool_cap_ = config_.max_workers > 0 ? config_.max_workers : config_.workers;
  // Resolve every series before any worker exists: the lookups take the
  // telemetry registration mutex (a leaf), and doing it here keeps that
  // mutex off every path that holds mu_.
  telemetry::metrics::ensure_registered();
  {
    telemetry::Registry& reg = telemetry::Registry::process();
    const telemetry::Labels labels{{"model", telemetry_label_}};
    m_requests_ = reg.counter("epim_serve_requests_total", labels);
    m_batches_ = reg.counter("epim_serve_batches_total", labels);
    m_rejected_ = reg.counter("epim_serve_rejected_total", labels);
    m_deadline_misses_ =
        reg.counter("epim_serve_deadline_misses_total", labels);
    m_clip_events_ = reg.counter("epim_serve_clip_events_total", labels);
    // Queue depth and latency split by scheduling class: one
    // {model, priority} series per class, resolved up front like the rest.
    for (int p = 0; p < kNumPriorities; ++p) {
      const telemetry::Labels by_prio{
          {"model", telemetry_label_},
          {"priority", priority_name(static_cast<Priority>(p))}};
      m_queue_depth_[static_cast<std::size_t>(p)] =
          reg.gauge("epim_serve_queue_depth", by_prio);
      m_latency_[static_cast<std::size_t>(p)] =
          reg.histogram("epim_serve_latency_ms", by_prio);
    }
  }
  {
    // No worker exists yet, but these are guarded fields and the analysis
    // (correctly) has no "threads not started" concept; an uncontended
    // lock documents the invariant at zero cost.
    MutexLock lock(mu_);
    worker_in_flight_.assign(static_cast<std::size_t>(pool_cap_), 0);
    worker_live_.assign(static_cast<std::size_t>(pool_cap_), 0);
    for (int w = 0; w < config_.workers; ++w) {
      worker_live_[static_cast<std::size_t>(w)] = 1;
    }
    live_workers_ = config_.workers;
  }
  workers_.resize(static_cast<std::size_t>(pool_cap_));
  for (int w = 0; w < config_.workers; ++w) {
    workers_[static_cast<std::size_t>(w)] =
        std::thread([this, w] { worker_loop(static_cast<std::size_t>(w)); });
  }
}

InferenceService::~InferenceService() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();  // no-op after detach()
  }
}

DeployedModel InferenceService::detach() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // The workers' shutdown path flushes everything still queued (each keeps
  // closing batches until the queue is empty), and a worker mid-batch
  // finishes it before exiting, so every outstanding future resolves before
  // the model changes hands. stop_ also makes maybe_grow_locked a no-op,
  // so nothing mutates workers_ under this unlocked join.
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  return std::move(model_);
}

std::future<InferenceResult> InferenceService::submit(Tensor image) {
  return submit(std::move(image), SubmitOptions{});
}

std::future<InferenceResult> InferenceService::submit(
    Tensor image, const SubmitOptions& options) {
  std::vector<Tensor> one;
  one.push_back(std::move(image));
  return std::move(submit_batch(std::move(one), options).front());
}

std::vector<std::future<InferenceResult>> InferenceService::submit_batch(
    std::vector<Tensor> images) {
  return submit_batch(std::move(images), SubmitOptions{});
}

std::vector<std::future<InferenceResult>> InferenceService::submit_batch(
    std::vector<Tensor> images, const SubmitOptions& options) {
  // An empty burst would either flush a zero-item batch or silently do
  // nothing depending on worker timing; pin it as a caller error.
  EPIM_CHECK(!images.empty(), "submit_batch requires a non-empty batch");
  EPIM_CHECK(options.deadline_ms >= 0.0,
             "deadline_ms must be non-negative (0 = no deadline), got " +
                 std::to_string(options.deadline_ms));
  const std::size_t prio = prio_index(options.priority);
  EPIM_CHECK(prio < static_cast<std::size_t>(kNumPriorities),
             "SubmitOptions::priority is out of range");

  // A burst larger than max_batch is reslice-eligible: its requests skip
  // the flush-deadline hold (their batch-mates arrived with them) and the
  // closing workers split the backlog into concurrent per-worker slices.
  const bool resliced =
      config_.reslice_bursts &&
      images.size() > static_cast<std::size_t>(config_.max_batch);

  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(images.size());
  const auto now = Clock::now();
  {
    MutexLock lock(mu_);
    // The stop check must precede any model_ access: detach() moves the
    // model out (after setting stop_ under this lock), so a late submitter
    // must bounce here and never touch the husk.
    EPIM_CHECK(!stop_, "submit on a stopped InferenceService");
    // Validate every shape before anything is enqueued: a malformed
    // request fails fast at the submission site and can never take down
    // batch-mates.
    const SmallNetConfig& net = model_.model_config();
    for (const Tensor& image : images) {
      EPIM_CHECK(image.rank() == 3, "submit expects a (C, H, W) image");
      EPIM_CHECK(image.dim(0) == net.in_channels &&
                     image.dim(1) == net.image_size &&
                     image.dim(2) == net.image_size,
                 "submitted image shape does not match the deployed model");
    }
    if (config_.max_queue > 0) {
      // A reslice-eligible burst does not sit queued -- its slices stream
      // straight to the pool -- so it is admitted against max_queue plus
      // the pool's one-batch-per-worker absorption capacity. Everything
      // else (singles, bursts within max_batch, any burst with re-slicing
      // disabled) faces the strict max_queue bound: a burst that exceeds
      // max_queue only because re-slicing is off still throws the pinned
      // kErrBurstTooLarge.
      const std::size_t bound =
          static_cast<std::size_t>(config_.max_queue) +
          (resliced ? static_cast<std::size_t>(pool_cap_) *
                          static_cast<std::size_t>(config_.max_batch)
                    : 0);
      // A burst larger than the whole bound can NEVER be admitted, however
      // empty the queue: a caller error, not transient overload. It throws
      // InvalidArgument (Unavailable would invite futile retries) and does
      // not count as a rejection -- rejected_ measures genuine overload.
      EPIM_CHECK(images.size() <= bound,
                 std::string(kErrBurstTooLarge) + ": " +
                     std::to_string(images.size()) + " submitted > " +
                     std::to_string(bound) +
                     (resliced ? " (max_queue + max_workers*max_batch)"
                               : " (max_queue)"));
      // Admission control: all-or-nothing for the burst, decided atomically
      // with the enqueue so concurrent submitters can never overshoot the
      // bound -- and decided exactly ONCE, so the concurrent slices of an
      // admitted resliced burst are never re-checked (no double-reject).
      // Rejection is immediate: never block, never grow the queue. When
      // the bound would reject, first shed queued requests that are
      // already past their deadline: the workers would drop them at batch
      // close anyway, and live traffic must not bounce off the dead.
      if (sched_.size() + images.size() > bound) {
        shed_expired_locked(now);
      }
      if (sched_.size() + images.size() > bound) {
        m_rejected_->inc(static_cast<std::int64_t>(images.size()));
        rejected_ += static_cast<std::int64_t>(images.size());
        throw Unavailable(std::string(kErrQueueFull) + ": " +
                          std::to_string(sched_.size()) + " queued + " +
                          std::to_string(images.size()) + " submitted > " +
                          std::to_string(bound));
      }
    }
    // Record the throughput-window start *before* the requests become
    // visible to the workers: once any of them is counted in completed_,
    // the window start is guaranteed set.
    if (!saw_first_submit_) {
      saw_first_submit_ = true;
      first_submit_ = now;
    }
    Clock::time_point deadline = Clock::time_point::max();
    if (options.deadline_ms > 0.0) {
      deadline = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               options.deadline_ms));
    }
    for (Tensor& image : images) {
      SchedRequest request;
      request.image = std::move(image);
      request.enqueued = now;
      request.deadline = deadline;
      request.priority = options.priority;
      request.no_hold = resliced;
      futures.push_back(request.promise.get_future());
      sched_.enqueue(std::move(request));
    }
    // The per-class gauge mirrors sched_.size(Priority): +n here, -n at
    // batch close and at every deadline shed. Relaxed atomic, so updating
    // it under mu_ keeps the mirror exact without any new lock edge.
    m_queue_depth_[prio]->add(static_cast<std::int64_t>(images.size()));
    // Demand just arrived: give the adaptive pool its growth event.
    maybe_grow_locked();
  }
  cv_.notify_all();
  return futures;
}

int InferenceService::busy_workers_locked() const {
  int busy = 0;
  for (const std::int64_t n : worker_in_flight_) busy += n > 0;
  return busy;
}

void InferenceService::maybe_grow_locked() {
  if (stop_ || live_workers_ >= pool_cap_) return;
  const std::int64_t idle =
      static_cast<std::int64_t>(live_workers_) - busy_workers_locked();
  if (static_cast<std::int64_t>(sched_.size()) <=
      idle * static_cast<std::int64_t>(config_.max_batch)) {
    return;
  }
  for (std::size_t slot = 0; slot < worker_live_.size(); ++slot) {
    if (worker_live_[slot]) continue;
    // A retired slot's thread has cleared worker_live_ under mu_ and is
    // past any further locking -- the join below waits only for its
    // epilogue, never for mu_.
    if (workers_[slot].joinable()) workers_[slot].join();
    worker_live_[slot] = 1;
    ++live_workers_;
    workers_[slot] = std::thread([this, slot] { worker_loop(slot); });
    return;  // one slot per event: growth hysteresis
  }
}

void InferenceService::worker_loop(std::size_t worker) {
  const auto flush_dur =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(
              config_.flush_deadline_ms));
  MutexLock lock(mu_);
  for (;;) {
    // Explicit wait loop, not the predicate form: stop_ and sched_ are
    // guarded fields, and here the analysis can see mu_ is held. A worker
    // beyond the configured floor retires its slot after sitting idle for
    // the shrink hysteresis window; floor workers wait forever.
    while (!stop_ && sched_.empty()) {
      if (static_cast<int>(worker) >= config_.workers) {
        if (cv_.wait_until(lock, Clock::now() + kPoolShrinkIdle) ==
                std::cv_status::timeout &&
            !stop_ && sched_.empty()) {
          worker_live_[worker] = 0;
          --live_workers_;
          return;
        }
      } else {
        cv_.wait(lock);
      }
    }
    if (sched_.empty()) {
      if (stop_) return;
      continue;
    }
    // Continuous batching: hold for batch-mates until the oldest queued
    // request's flush deadline, a full batch, or shutdown (which flushes
    // immediately) -- but wake EARLY at the soonest request deadline, so an
    // expiring request is shed the moment it dies instead of riding out the
    // flush timer. A queued reslice burst also skips the hold: its
    // batch-mates arrived with it, so waiting buys nothing but latency and
    // would serialize the slices behind one worker's flush timer. A peer
    // may close a batch over this same queue while we wait, so both
    // deadlines re-anchor on whatever is queued now, and a drained queue
    // sends us back to the outer wait.
    while (!stop_ && sched_.no_hold_count() == 0 &&
           static_cast<int>(sched_.size()) < config_.max_batch) {
      const auto now = Clock::now();
      shed_expired_locked(now);
      if (sched_.empty()) break;
      const auto flush_at = sched_.oldest_enqueued() + flush_dur;
      if (now >= flush_at) break;
      const auto wake = std::min(flush_at, sched_.soonest_deadline());
      cv_.wait_until(lock, wake);
      if (sched_.empty()) break;
    }
    if (sched_.empty()) continue;
    // Close the batch. A final sweep first: a batch never runs work that is
    // already dead, including requests that expired during the waits above
    // or while this worker held a full queue. The timestamp doubles as the
    // batch-close time for the trace-span layer.
    const auto closed_at = Clock::now();
    shed_expired_locked(closed_at);
    if (sched_.empty()) continue;
    // Batch size: normally up to max_batch. While a resliced burst is
    // queued, split the backlog evenly across the idle workers (self
    // included) instead -- ceil(queued/idle), still capped at max_batch --
    // so the burst drains as concurrent slices rather than serial
    // max_batch chunks on this one worker.
    std::size_t n = std::min<std::size_t>(
        sched_.size(), static_cast<std::size_t>(config_.max_batch));
    if (sched_.no_hold_count() > 0) {
      const std::size_t idle = static_cast<std::size_t>(std::max(
          1, live_workers_ - busy_workers_locked()));
      const std::size_t slice = (sched_.size() + idle - 1) / idle;
      n = std::min(n, std::max<std::size_t>(1, slice));
    }
    std::vector<SchedRequest> batch;
    batch.reserve(n);
    sched_.select(n, batch);
    std::array<std::int64_t, kNumPriorities> closed_by_prio{};
    for (const SchedRequest& r : batch) ++closed_by_prio[prio_index(r.priority)];
    for (int p = 0; p < kNumPriorities; ++p) {
      if (closed_by_prio[static_cast<std::size_t>(p)] > 0) {
        m_queue_depth_[static_cast<std::size_t>(p)]->sub(
            closed_by_prio[static_cast<std::size_t>(p)]);
      }
    }
    worker_in_flight_[worker] = static_cast<std::int64_t>(batch.size());
    // This worker is about to go busy; if the remaining backlog still
    // exceeds what the (now fewer) idle workers can absorb, grow the pool
    // so the next slice closes concurrently.
    maybe_grow_locked();
    // Run the batch with the queue unlocked: peers keep closing batches
    // (multiple in flight per model) and submitters keep enqueueing while
    // this one computes. forward_batch is const and pure against the
    // programmed crossbars, so concurrent batches stay bit-identical.
    lock.unlock();
    cv_.notify_all();
    BatchOutcome outcome;
    try {
      // Chaos hook at the batch-close seam: an injected serve.schedule
      // fault fails exactly this batch's futures (via the guard below) and
      // must never kill the worker or wedge the pool.
      fault::maybe_fail("serve.schedule");
      outcome = run_batch(batch, worker, closed_at);
    } catch (...) {
      // run_batch already routes forward-pass failures to the batch's
      // futures; this guard is for everything it could not anticipate
      // (bad_alloc assembling the results, an armed serve.schedule fault,
      // a throwing fault point outside the forward try). A worker thread
      // must never die: fail whatever futures are still unfulfilled and
      // keep draining.
      const std::exception_ptr error = std::current_exception();
      for (SchedRequest& r : batch) {
        try {
          r.promise.set_exception(error);
        } catch (const std::future_error&) {
          // Promise already satisfied before the throw -- keep its value.
        }
      }
    }
    lock.lock();
    worker_in_flight_[worker] = 0;
    complete_batch_locked(batch, outcome);
  }
}

std::size_t InferenceService::shed_expired_locked(Clock::time_point now) {
  std::vector<SchedRequest> expired;
  if (sched_.shed_expired(now, expired) == 0) return 0;
  std::array<std::int64_t, kNumPriorities> shed_by_prio{};
  for (const SchedRequest& r : expired) ++shed_by_prio[prio_index(r.priority)];
  for (int p = 0; p < kNumPriorities; ++p) {
    if (shed_by_prio[static_cast<std::size_t>(p)] > 0) {
      m_queue_depth_[static_cast<std::size_t>(p)]->sub(
          shed_by_prio[static_cast<std::size_t>(p)]);
    }
  }
  m_deadline_misses_->inc(static_cast<std::int64_t>(expired.size()));
  // Count BEFORE failing the futures: a caller that observes a future's
  // DeadlineExceeded and then reads stats() must see the miss counted.
  deadline_misses_ += static_cast<std::int64_t>(expired.size());
  for (int p = 0; p < kNumPriorities; ++p) {
    deadline_misses_by_priority_[static_cast<std::size_t>(p)] +=
        shed_by_prio[static_cast<std::size_t>(p)];
  }
  for (SchedRequest& r : expired) {
    r.promise.set_exception(deadline_error(r.enqueued, now));
  }
  return expired.size();
}

InferenceService::BatchOutcome InferenceService::run_batch(
    std::vector<SchedRequest>& batch, std::size_t worker,
    Clock::time_point closed_at) {
  // One relaxed load decides whether this batch pays any tracing cost at
  // all; the run-begin clock read happens only when armed.
  const bool traced = telemetry::tracing();
  const auto run_begin = traced ? Clock::now() : closed_at;

  std::vector<Tensor> images;
  images.reserve(batch.size());
  for (SchedRequest& r : batch) images.push_back(std::move(r.image));

  std::vector<Tensor> logits;
  std::vector<std::int64_t> clips;
  try {
    // Chaos hook: an injected serve.run_batch fault takes the exact same
    // recovery path as a real forward-pass failure.
    fault::maybe_fail("serve.run_batch");
    logits = model_.forward_batch(images, &clips);
  } catch (...) {
    // Shapes were validated at submit, so this is unexpected; fail the
    // whole batch rather than wedge its futures, and keep serving.
    const std::exception_ptr error = std::current_exception();
    for (SchedRequest& r : batch) r.promise.set_exception(error);
    return {};
  }

  // forward_batch's contract: one logits tensor and one clip count per
  // image. Per-batch hot path, so debug-only.
  EPIM_DCHECK(logits.size() == batch.size() && clips.size() == batch.size(),
              "forward_batch result count does not match the batch");

  BatchOutcome outcome;
  outcome.done = Clock::now();
  outcome.results.resize(batch.size());
  std::int64_t batch_clips = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    InferenceResult& result = outcome.results[i];
    result.logits = std::move(logits[i]);
    result.clip_count = clips[i];
    for (std::int64_t j = 1; j < result.logits.numel(); ++j) {
      if (result.logits.at(j) > result.logits.at(result.predicted)) {
        result.predicted = j;
      }
    }
    batch_clips += clips[i];
  }

  // Fleet telemetry: cached series pointers, relaxed atomics only -- no
  // lock is held and none is taken. The shared per-priority latency series
  // are cumulative (scrape-facing); the resettable interval_latency_ is
  // fed in complete_batch_locked, with the rest of the interval stats.
  m_requests_->inc(static_cast<std::int64_t>(batch.size()));
  m_batches_->inc(1);
  m_clip_events_->inc(batch_clips);
  for (const SchedRequest& r : batch) {
    m_latency_[prio_index(r.priority)]->observe(
        ms_between(r.enqueued, outcome.done));
  }
  if (traced) {
    telemetry::SpanRecord span;
    std::snprintf(span.model, sizeof(span.model), "%s",
                  telemetry_label_.c_str());
    span.worker = static_cast<std::uint32_t>(worker);
    span.batch = static_cast<std::uint32_t>(batch.size());
    span.close_ms = telemetry::trace_ms(closed_at);
    span.run_begin_ms = telemetry::trace_ms(run_begin);
    span.run_end_ms = telemetry::trace_ms(outcome.done);
    for (const SchedRequest& r : batch) {
      span.submit_ms = telemetry::trace_ms(r.enqueued);
      telemetry::record_span(span);
    }
  }
  return outcome;
}

void InferenceService::complete_batch_locked(std::vector<SchedRequest>& batch,
                                             BatchOutcome& outcome) {
  if (outcome.results.empty()) return;  // failed: futures already resolved
  completed_ += static_cast<std::int64_t>(batch.size());
  batches_ += 1;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    clip_events_ += outcome.results[i].clip_count;
    ++completed_by_priority_[prio_index(batch[i].priority)];
    interval_latency_.observe(ms_between(batch[i].enqueued, outcome.done));
  }
  // Concurrent batches can get here out of completion order; the
  // throughput window must end at the LATEST completion seen.
  if (outcome.done > last_done_) last_done_ = outcome.done;
  // Fulfilling under mu_ is safe (see shed_expired_locked), and coming
  // after the fold above it guarantees a stats() read after get() counts
  // the request.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(outcome.results[i]));
  }
}

void InferenceService::reset() {
  MutexLock lock(mu_);
  // Per-instance, so resetting it cannot disturb the shared (cumulative)
  // scrape series; under mu_, so it stays in step with completed_.
  interval_latency_.reset();
  completed_ = 0;
  batches_ = 0;
  clip_events_ = 0;
  rejected_ = 0;
  deadline_misses_ = 0;
  completed_by_priority_.fill(0);
  deadline_misses_by_priority_.fill(0);
  saw_first_submit_ = false;
  // Re-anchor the throughput window at the reset itself: requests that
  // were in flight across the reset complete into the NEW interval, so
  // their rate must be measured from now -- not from the old interval's
  // first submit. (The next submit re-anchors again via saw_first_submit_.)
  first_submit_ = Clock::now();
  last_done_ = first_submit_;
}

ServiceStats InferenceService::stats() const {
  ServiceStats s;
  s.workers = config_.workers;
  s.max_workers = pool_cap_;
  {
    MutexLock lock(mu_);
    s.requests = completed_;
    s.batches = batches_;
    s.clip_events = clip_events_;
    s.rejected = rejected_;
    s.deadline_misses = deadline_misses_;
    s.completed_by_priority = completed_by_priority_;
    s.deadline_misses_by_priority = deadline_misses_by_priority_;
    if (completed_ > 0) {
      s.mean_batch_size = static_cast<double>(completed_) /
                          static_cast<double>(batches_);
      const double wall_s =
          std::chrono::duration<double>(last_done_ - first_submit_).count();
      s.items_per_sec = serve_detail::items_rate(completed_, wall_s);
    }
    s.queued = static_cast<std::int64_t>(sched_.size());
    for (int p = 0; p < kNumPriorities; ++p) {
      s.queued_by_priority[static_cast<std::size_t>(p)] =
          static_cast<std::int64_t>(
              sched_.size(static_cast<Priority>(p)));
    }
    for (const std::int64_t n : worker_in_flight_) {
      s.in_flight += n;
      s.busy_workers += n > 0;
    }
    s.live_workers = live_workers_;
    // Percentiles come from the whole-interval histogram digest (every
    // completion since the last reset()), read under mu_ so they cover
    // exactly the `requests` above. Resolution is the bucket upper bound.
    s.p50_latency_ms = interval_latency_.quantile(0.50);
    s.p99_latency_ms = interval_latency_.quantile(0.99);
  }
  return s;
}

// DeployedModel::serve lives here so pipeline.hpp only needs a forward
// declaration of InferenceService.

InferenceService DeployedModel::serve() && {
  const ServeConfig config = serve_config_;
  return InferenceService(std::move(*this), config);
}

InferenceService DeployedModel::serve(const ServeConfig& config) && {
  return InferenceService(std::move(*this), config);
}

}  // namespace epim
