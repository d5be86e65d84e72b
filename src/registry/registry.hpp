// Multi-model serving: a registry of named, versioned `.epim` deployments
// and a routing front door over it -- the fleet layer above one
// InferenceService.
//
// A ModelRegistry owns entries keyed `name@version`, each backed by either
// a `.epim` artifact path (register_artifact) or an in-memory DeployedModel
// (register_model). Entries are materialized LAZILY: the first request for
// a version loads/adopts the model and stands up an InferenceService; until
// then an entry costs a map node, so a registry can index a whole model zoo
// while only the hot subset holds programmed crossbars. A configurable
// resident-model budget bounds that hot subset: materializing past it
// evicts the least-recently-used resident service (drained via
// InferenceService::detach, so no future is ever abandoned). An
// artifact-backed entry re-materializes from its file bit-identically (the
// PR 3 artifact determinism contract); an in-memory-only entry keeps its
// DeployedModel across eviction -- the eviction still frees its batch
// worker threads and queue.
//
// The Router resolves routing targets and forwards traffic:
//
//   "name@version"  exact version
//   "name@alias"    alias indirection (set_alias, e.g. resnet50@prod)
//   "name"          weighted split (set_split, canary rollout) when one is
//                   configured, else the "default" alias, else the sole
//                   registered version
//
// Split draws come from the Router's own seeded Rng, so a pinned request
// sequence routes deterministically -- the same property the rest of the
// repo enforces for kernels and search. Admission control is enforced by
// the per-model service queue bound (ServeConfig::max_queue, set from
// RegistryConfig): a full model rejects with epim::Unavailable instead of
// queueing without bound, so one hot model can never OOM the fleet.
//
// Hot reload: reload(name, version, path) atomically repoints the version
// at a new artifact. New traffic materializes the new artifact; requests
// already queued on the old service drain to completion on the old weights
// (outside the registry lock), and its counters fold into the entry's
// retired totals so fleet stats never lose history.
//
// Per-entry health: a materialization failure (missing/corrupt artifact,
// injected fault) no longer escapes raw -- it is recorded on the entry and
// rethrown as epim::Unavailable (pinned kErrMaterializeFailed prefix). Each
// entry runs a circuit breaker: consecutive failures put it in kDegraded
// with exponential backoff + seeded jitter between load retries, and
// HealthPolicy::quarantine_after of them open the breaker (kQuarantined).
// While the backoff/quarantine window is open, requests fast-fail
// Unavailable (kErrBackoff / kErrQuarantined) WITHOUT touching the
// lock-held load path -- the map lookup and a time compare, no artifact
// I/O, no crossbar programming, and no additional lock beyond the registry
// lock every submission already takes. When the window expires, exactly the
// next request becomes a half-open probe: one real materialization attempt
// that either closes the breaker (healthy, counters reset) or re-opens it
// with a doubled backoff. A successful reload() also resets health -- a
// repointed artifact deserves a fresh probe immediately. Healthy entries
// pay nothing: the health gate is two branches on the already-locked path.
//
// Router fallback: set_fallback(name, target) names a fallback routing
// target for a model family; when the primary resolution fast-fails
// Unavailable (quarantine, backoff, queue-full admission, or the probe
// failing), the Router re-routes the SAME images to the fallback target
// once (no chaining: a fallback's fallback is never consulted), counting
// the hop in fallbacks(). The fleet degrades gracefully instead of
// head-of-line blocking on a broken artifact.
//
// Thread budget: resident services share the one `common/parallel` pool --
// an InferenceService owns only ServeConfig::workers blocking batch
// threads; all compute fans out across the process-wide pool, which
// accepts concurrent initiators. The resident budget therefore caps
// batch-worker threads and programmed-crossbar memory, not compute
// threads (RegistrySnapshot::workers reports the live worker footprint).
//
// Thread safety: every public method of ModelRegistry and Router may be
// called from any number of threads. One registry mutex guards the entry
// map, but it is NEVER held across I/O or a drain: each entry runs a
// lifecycle state machine
//
//            +--------- load failed (backoff) ----------+
//            v                                          |
//   kCold --(first healthy request claims the load)--> kLoading --+
//     ^                                                           |
//     |                                            publish under re-acquired
//     +--- drain done ---- kDraining <--- evict/reload ---+       |
//                                                         |       v
//                                                      kResident <+
//
// and the single-flight loader DROPS the registry lock across artifact I/O
// + InferenceService construction, re-acquiring it only to publish (or to
// record the failure + backoff). Concurrent requests to the SAME loading
// entry wait on the entry's CondVar -- shedding on their own
// SubmitOptions::deadline_ms -- while requests to OTHER entries proceed
// untouched: a cold start no longer head-of-line blocks the fleet. Resident
// traffic pins the entry (a refcount) around the lock-free enqueue, and
// eviction/reload wait for pins to reach zero before destroying a service,
// so no thread ever touches a dead service. Eviction victims drain OUTSIDE
// the lock too (kDraining), and LRU selection skips kLoading/pinned
// entries. stats() likewise pins the resident services under the lock and
// reads their counters/latency histograms after releasing it, so a monitoring
// scrape never stalls fleet admission.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/service.hpp"

namespace epim {

/// Health of one registry entry (see the file header). Healthy entries pay
/// two branches on the submission path; unhealthy ones fast-fail while
/// their retry window is open.
enum class HealthState {
  kHealthy,      ///< serving normally (or never yet materialized)
  kDegraded,     ///< failing to materialize; retries with backoff
  kQuarantined,  ///< breaker open after quarantine_after straight failures
};

/// Human-readable state name ("healthy" / "degraded" / "quarantined").
const char* to_string(HealthState state);

/// Lifecycle of one registry entry (see the state diagram in the file
/// header). Transitions happen only under the registry lock; the load and
/// drain WORK happens with the lock dropped.
enum class LifecycleState {
  kCold,      ///< no service; the next healthy request claims the load
  kLoading,   ///< a single-flight loader is materializing outside the lock
  kResident,  ///< service up and serving
  kDraining,  ///< service being detached (evict/reload) outside the lock
};

/// Human-readable state name ("cold" / "loading" / "resident" / "draining").
const char* to_string(LifecycleState state);

/// Failure-handling policy for per-entry health.
struct HealthPolicy {
  /// Consecutive materialization failures that open the breaker
  /// (kQuarantined); must be >= 1. Below it the entry is kDegraded.
  int quarantine_after = 3;
  /// Backoff before the k-th consecutive retry: base * 2^(k-1) ms, capped
  /// at backoff_max_ms, then jittered by a factor uniform in
  /// [1 - jitter, 1 + jitter] drawn from a seeded Rng (deterministic
  /// fleet-wide, like every other stochastic component).
  double backoff_base_ms = 100.0;
  double backoff_max_ms = 10000.0;
  double jitter = 0.25;  ///< in [0, 1); 0 disables jitter
  std::uint64_t jitter_seed = 0xB0FFu;
};

/// Fleet-level policy of a ModelRegistry.
struct RegistryConfig {
  /// Largest number of materialized services (programmed crossbars +
  /// batch worker threads) resident at once; must be positive. LRU beyond it.
  int max_resident_models = 4;
  /// Circuit-breaker/backoff policy applied to every entry.
  HealthPolicy health{};
  /// Batching + admission policy for services the registry materializes;
  /// a per-entry ServeConfig passed at registration overrides it. Note the
  /// registry default BOUNDS the queue (max_queue = 1024) -- unbounded
  /// growth is opt-in here, unlike a standalone InferenceService.
  ServeConfig serve = default_serve();

  static ServeConfig default_serve() {
    ServeConfig s;
    s.max_queue = 1024;
    return s;
  }
};

/// One arm of a weighted traffic split (canary rollout).
struct VersionWeight {
  std::string version;
  double weight = 1.0;  ///< relative; must be positive
};

/// Per-model slice of a registry snapshot. Counters (requests, batches,
/// clip_events, rejected, deadline_misses and the per-priority splits) span
/// the entry's whole stats interval, including retired services (evicted or
/// hot-swapped); rates, gauges and percentiles describe the live service
/// only (zero while cold).
struct ModelSnapshot {
  std::string name;
  std::string version;
  bool resident = false;
  /// Where the entry sits in the cold/loading/resident/draining machine at
  /// snapshot time (`resident` above is `lifecycle == kResident`, kept for
  /// callers that only care about the binary).
  LifecycleState lifecycle = LifecycleState::kCold;
  /// Batch workers this entry's service runs when resident (its
  /// ServeConfig::workers); reported for cold entries too, since it is
  /// registration-time policy, not runtime state.
  int workers = 0;
  ServiceStats stats{};
  std::int64_t evictions = 0;
  /// Circuit-breaker view of the entry (see HealthState).
  HealthState health = HealthState::kHealthy;
  /// Consecutive materialization failures (reset by a successful load).
  int consecutive_failures = 0;
  /// Lifetime materialization failures (never reset by success).
  std::int64_t materialize_failures = 0;
  /// Requests fast-failed while the entry's retry window was open (these
  /// never reached the load path or a service queue, so they appear in
  /// neither stats.requests nor stats.rejected).
  std::int64_t health_fast_fails = 0;
  /// what() of the most recent materialization failure (empty if none
  /// since the last success).
  std::string last_error;
};

/// Registry-wide aggregate: per-model slices plus fleet totals.
struct RegistrySnapshot {
  std::vector<ModelSnapshot> models;  ///< sorted by (name, version)
  int resident = 0;                   ///< materialized services right now
  /// Batch-worker threads alive across the resident services (the sum of
  /// their ServiceStats::live_workers, so an adaptive pool counts what it
  /// runs now, not its floor; compute threads are the separate shared pool
  /// budget).
  int workers = 0;
  std::int64_t requests = 0;          ///< completed, fleet-wide
  std::int64_t rejected = 0;          ///< admission rejections, fleet-wide
  std::int64_t evictions = 0;         ///< LRU evictions, fleet-wide
  std::int64_t queued = 0;            ///< currently queued, fleet-wide
  int quarantined = 0;                ///< entries with the breaker open
  std::int64_t deadline_misses = 0;   ///< shed requests, fleet-wide
  std::int64_t health_fast_fails = 0; ///< breaker fast-fails, fleet-wide
  /// Fleet-wide per-priority splits of queued/requests/deadline_misses
  /// (summed over the per-model ServiceStats splits, retired services
  /// included; indexed by static_cast<int>(Priority)).
  std::array<std::int64_t, kNumPriorities> queued_by_priority{};
  std::array<std::int64_t, kNumPriorities> completed_by_priority{};
  std::array<std::int64_t, kNumPriorities> deadline_misses_by_priority{};
  /// Sum of the resident services' items/s (each measured over its own
  /// submit->completion window).
  double items_per_sec = 0.0;
  /// Percentiles of the merged interval latency histograms of all resident
  /// services -- the fleet-wide digest a per-service p50/p99 cannot provide,
  /// at the same bucket-upper-bound resolution (with one resident model the
  /// two are equal).
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

/// Named, versioned model store with lazy materialization, an LRU resident
/// budget, and atomic hot reload. The Router below is the intended traffic
/// entry point; the registry's own submit_batch() is the version-explicit
/// core it delegates to.
class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryConfig config = {});
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  const RegistryConfig& config() const { return config_; }

  /// Register `name@version` backed by a `.epim` deployed-model artifact.
  /// The file's header is probed immediately (existence, magic, kind), the
  /// payload is loaded on first request. `serve` is the entry's batching +
  /// admission policy; omitted, it is RegistryConfig::serve. Throws
  /// InvalidArgument if the version already exists or the artifact is
  /// unusable.
  void register_artifact(const std::string& name, const std::string& version,
                         const std::string& path,
                         const std::optional<ServeConfig>& serve = {});

  /// Register `name@version` backed by an already-deployed in-memory model
  /// (e.g. fresh out of Pipeline::deploy, skipping the save/load cycle).
  /// The service is still materialized lazily; eviction detaches the model
  /// back into the entry instead of dropping it. `serve` as above.
  void register_model(const std::string& name, const std::string& version,
                      DeployedModel model,
                      const std::optional<ServeConfig>& serve = {});

  /// Point `name@alias` at an existing version (re-pointing is allowed; an
  /// alias equal to a version name is rejected as shadowing). The alias
  /// "default" also resolves bare-name targets with no split.
  void set_alias(const std::string& name, const std::string& alias,
                 const std::string& version);

  /// Weighted split over existing versions of `name`, applied to bare-name
  /// targets (weights positive, versions distinct). Replaces any previous
  /// split; an empty vector is rejected -- use clear_split().
  void set_split(const std::string& name, std::vector<VersionWeight> split);
  void clear_split(const std::string& name);

  /// Hot swap: repoint an existing `name@version` at a new artifact. The
  /// swap is atomic under the registry lock; the old service (if resident)
  /// drains its in-flight requests outside the lock and folds its counters
  /// into the entry's retired totals.
  void reload(const std::string& name, const std::string& version,
              const std::string& path);

  /// Version-explicit submission (submit is a burst of one): checks the
  /// burst and its options (check_submission) BEFORE touching the entry, so
  /// an invalid request never triggers a cold load; then materializes the
  /// entry if cold (evicting LRU residents past the budget) and enqueues on
  /// its service. Exactly one request performs a cold load (single-flight,
  /// with the registry lock dropped across the I/O); concurrent requests to
  /// the same entry wait for the load/drain to finish -- a request with
  /// SubmitOptions::deadline_ms sheds with DeadlineExceeded if the entry is
  /// still not resident at its deadline. Throws InvalidArgument for unknown
  /// targets, invalid options or bad shapes, Unavailable when the model's
  /// queue is full.
  std::future<InferenceResult> submit(const std::string& name,
                                      const std::string& version, Tensor image,
                                      const SubmitOptions& options = {});
  std::vector<std::future<InferenceResult>> submit_batch(
      const std::string& name, const std::string& version,
      std::vector<Tensor> images, const SubmitOptions& options = {});

  /// Current breaker state of `name@version` (InvalidArgument if unknown).
  HealthState health(const std::string& name,
                     const std::string& version) const;

  /// Resolve a routing target (see file header) to a concrete
  /// (name, version). `split_draw` must be a uniform draw in [0, 1) when
  /// the target is a bare name with a split configured; it is ignored
  /// otherwise (pass a negative value to assert no split is consulted).
  std::pair<std::string, std::string> resolve(const std::string& target,
                                              double split_draw) const;

  /// Same, but the draw is produced on demand: `split_draw` is invoked
  /// (under the registry lock) only if the target actually routes through
  /// a split. This is the race-free form the Router uses -- checking for a
  /// split and drawing in two steps would let a concurrent set_split()
  /// land in between.
  std::pair<std::string, std::string> resolve(
      const std::string& target,
      const std::function<double()>& split_draw) const;

  /// Whether bare-name targets for `name` currently route via a split.
  bool has_split(const std::string& name) const;

  /// Registered versions of `name`, sorted (InvalidArgument if unknown).
  std::vector<std::string> versions(const std::string& name) const;

  /// Whether `name@version` currently holds a materialized service.
  bool resident(const std::string& name, const std::string& version) const;

  /// Fleet snapshot (see RegistrySnapshot). Entry-level fields (health,
  /// retired counters, lifecycle) are captured atomically under the
  /// registry lock; the resident services' live counters and latency
  /// histograms are then read with the lock RELEASED and the services pinned,
  /// so a scrape never blocks admission -- the live half may therefore be
  /// a few requests newer than the entry half.
  RegistrySnapshot stats() const;

  /// Start a new stats interval: reset() every resident service and zero
  /// all retired counters plus the health_fast_fails traffic counter.
  /// Structural counters (evictions, health state, materialize_failures)
  /// are kept -- they describe the registry, not an interval's traffic.
  void reset_stats();

  /// Materialization-failure message prefix (pinned by tests): every
  /// failure to load/adopt an entry's model surfaces as Unavailable with
  /// this prefix and the underlying error appended.
  static constexpr const char* kErrMaterializeFailed =
      "model failed to materialize";
  /// Fast-fail message prefixes (pinned by tests) while an entry's retry
  /// window is open: degraded-with-backoff vs. breaker-open quarantine.
  static constexpr const char* kErrBackoff =
      "model is backing off after a materialization failure";
  static constexpr const char* kErrQuarantined =
      "model is quarantined (circuit breaker open)";

 private:
  /// Cached telemetry series for one entry ({model} = "name@version").
  /// Resolved at registration BEFORE the registry lock is taken -- series
  /// lookup acquires telemetry::Registry::mu_, which must stay a leaf never
  /// taken under ModelRegistry::mu_ -- then recorded into with relaxed
  /// atomics only, which is legal under any lock. One transition counter
  /// per destination state so a scrape sees the full lifecycle churn.
  struct EntryMetrics {
    telemetry::Counter* to_loading = nullptr;
    telemetry::Counter* to_resident = nullptr;
    telemetry::Counter* to_draining = nullptr;
    telemetry::Counter* to_cold = nullptr;
    telemetry::Counter* evictions = nullptr;
    telemetry::Counter* fast_fails = nullptr;
    telemetry::Gauge* pins = nullptr;
    telemetry::Histogram* materialize_ms = nullptr;
  };

  struct Entry {
    std::string artifact_path;          ///< empty for in-memory-only entries
    std::optional<DeployedModel> model; ///< in-memory source while cold
    std::unique_ptr<InferenceService> service;  ///< resident runtime
    ServeConfig serve{};
    std::uint64_t last_used = 0;        ///< LRU tick
    std::int64_t evictions = 0;
    /// Counters of evicted/swapped services plus load-wait deadline sheds
    /// (only the counter fields are used; see fold_counters).
    ServiceStats retired{};
    EntryMetrics metrics{};             ///< see EntryMetrics

    // --- lifecycle state machine (fields mutated only under the registry
    // lock, like the breaker below; the CondVar is internally synchronized
    // and entries are never removed, so waiting on it is always safe) ---
    LifecycleState state = LifecycleState::kCold;
    /// Threads currently using `service` with the registry lock RELEASED
    /// (an enqueue or a stats scrape -- never I/O). Eviction skips pinned
    /// entries; reload waits for the count to reach zero before detaching.
    int pins = 0;
    /// Bumped by reload(): a loader whose captured epoch no longer matches
    /// at publish time was superseded -- it discards its result and its
    /// failure is not charged to the repointed artifact's fresh health.
    std::uint64_t load_epoch = 0;
    /// Signals every state transition and every pins -> 0 edge. Waiters
    /// (requests behind an in-flight load/drain, reload waiting out pins)
    /// re-check their predicate; load-waiters shed on their own deadline.
    CondVar cv;

    // --- circuit breaker (mutated only under the registry lock) ---
    HealthState health = HealthState::kHealthy;
    int consecutive_failures = 0;
    std::int64_t materialize_failures = 0;
    std::int64_t health_fast_fails = 0;
    std::string last_error;
    /// End of the current backoff/quarantine window; requests before it
    /// fast-fail, the first one at/after it is the half-open probe.
    std::chrono::steady_clock::time_point retry_at{};

    bool artifact_backed() const { return !artifact_path.empty(); }
  };

  struct Family {
    std::map<std::string, Entry> versions;
    std::map<std::string, std::string> aliases;
    std::vector<VersionWeight> split;  ///< empty = no split
  };

  /// Resolve the telemetry series an entry records into. Takes the
  /// telemetry registration mutex, so it MUST be called with mu_ released
  /// (both register_* call it before locking); see EntryMetrics.
  static EntryMetrics resolve_entry_metrics(const std::string& name,
                                            const std::string& version)
      EPIM_EXCLUDES(mu_);
  /// Move the lifecycle machine and count the transition (relaxed atomic on
  /// a cached pointer -- no lock acquired). Every state assignment after
  /// registration goes through here so the epim_registry_transitions_total
  /// series can never drift from the machine.
  void set_state_locked(Entry& entry, LifecycleState next) EPIM_REQUIRES(mu_);
  /// Insert a fresh entry; shared precondition checks for both register_*.
  Entry& add_entry_locked(const std::string& name, const std::string& version,
                          const ServeConfig& serve) EPIM_REQUIRES(mu_);
  Entry& find_entry_locked(const std::string& name, const std::string& version)
      EPIM_REQUIRES(mu_);
  const Entry& find_entry_locked(const std::string& name,
                                 const std::string& version) const
      EPIM_REQUIRES(mu_);
  /// Single-flight load of a kCold `entry`: marks it kLoading, DROPS the
  /// registry lock across the artifact I/O + service construction, then
  /// re-acquires `lock` to publish kResident (or to record the failure and
  /// open a backoff window, rethrowing). A load superseded by a concurrent
  /// reload() (load_epoch moved) discards its result silently and returns;
  /// the caller loops and re-evaluates the entry. `lock` must be the
  /// MutexLock holding mu_; it is held again on every exit path.
  void materialize_as_loader(MutexLock& lock, const std::string& name,
                             const std::string& version, Entry& entry)
      EPIM_REQUIRES(mu_);
  /// Evict LRU residents until the budget holds, never evicting `fresh`,
  /// kLoading/kDraining, or pinned entries. Each victim is marked kDraining,
  /// retired, then returned to kCold.
  void enforce_budget(MutexLock& lock, Entry& fresh) EPIM_REQUIRES(mu_);
  /// The one drain-and-fold path (eviction and reload): DROPS `lock` while
  /// the detached `service` drains (detach blocks on in-flight traffic),
  /// then re-acquires it to fold the service's final counters into
  /// `entry.retired`, and returns the drained model. `entry` stays valid
  /// across the unlock: entries are never removed and map nodes are stable.
  DeployedModel retire(MutexLock& lock, Entry& entry,
                       std::unique_ptr<InferenceService> service)
      EPIM_REQUIRES(mu_);
  int resident_count_locked() const EPIM_REQUIRES(mu_);
  /// Breaker gate for a cold entry: returns normally when the entry may
  /// attempt (re)materialization -- healthy, or its retry window expired
  /// (half-open probe). Otherwise counts `n_requests` fast-fails and throws
  /// Unavailable (kErrBackoff / kErrQuarantined) WITHOUT touching the load
  /// path. Two branches for healthy entries; no extra lock for anyone.
  void check_health_locked(Entry& entry, std::size_t n_requests)
      EPIM_REQUIRES(mu_);
  /// Unconditional fast-fail tail of check_health_locked: counts
  /// `n_requests` into health_fast_fails and throws the pinned
  /// kErrBackoff/kErrQuarantined Unavailable. Also used directly when the
  /// single-flight half-open probe is already in flight (entry kLoading and
  /// unhealthy): the herd behind an expired retry_at must not pile onto the
  /// disk behind the probe, whatever the clock says.
  [[noreturn]] void fail_unhealthy_locked(Entry& entry,
                                          std::size_t n_requests)
      EPIM_REQUIRES(mu_);
  /// Drop one pin; the zero edge wakes eviction/reload waiters.
  void unpin_locked(Entry& entry) EPIM_REQUIRES(mu_);
  /// Record one materialization failure: bump the failure counters, move
  /// the state machine (kDegraded, kQuarantined past quarantine_after) and
  /// open the next backoff window (exponential + seeded jitter).
  void record_materialize_failure_locked(Entry& entry, const std::string& what)
      EPIM_REQUIRES(mu_);

  RegistryConfig config_;
  /// One registry lock over the entry map -- held only for map lookups and
  /// state transitions, NEVER across I/O, service construction, a drain, or
  /// a service stats read (all of those run with the lock dropped and the
  /// entry pinned or in kLoading/kDraining). Lockdep consequence: since
  /// PR 8 this lock has NO outgoing edges -- it is never held while
  /// acquiring InferenceService::mu_ or the fault registry's leaf
  /// mutex -- and the lockdep-gated tests pin that absence. Entry CondVar
  /// waits release and re-acquire this lock through the hooked
  /// MutexLock::unlock()/lock() path, so the lockdep held-set stays exact
  /// across blocking waits.
  mutable Mutex mu_{"ModelRegistry::mu_"};
  std::map<std::string, Family> families_ EPIM_GUARDED_BY(mu_);
  std::uint64_t tick_ EPIM_GUARDED_BY(mu_) = 0;
  /// Backoff jitter source (seeded from HealthPolicy::jitter_seed).
  Rng health_rng_ EPIM_GUARDED_BY(mu_);
};

/// The front door: resolves aliases and weighted splits, then forwards to
/// the registry. Owns the (seeded, mutex-guarded) Rng behind split draws,
/// so two routers over one registry route independently and a fixed seed
/// yields a pinned routing sequence.
class Router {
 public:
  explicit Router(ModelRegistry& registry, std::uint64_t seed = 0xF1EE7u)
      : registry_(registry), rng_(seed) {}

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Resolve `target` to the (name, version) the next submission would use,
  /// consuming one split draw iff the target is a bare name with a split.
  std::pair<std::string, std::string> route(const std::string& target);

  /// Resolve + submit (submit is a burst of one). All split draws,
  /// admission rejections and shape errors surface here exactly as
  /// documented on ModelRegistry::submit_batch. When the resolved family
  /// has a fallback configured (set_fallback) and the primary submission
  /// throws Unavailable, the same images are re-routed to the fallback
  /// target once; see the file header.
  std::future<InferenceResult> submit(const std::string& target, Tensor image,
                                      const SubmitOptions& options = {});
  /// A burst routes as ONE unit: a single draw picks the version for the
  /// whole burst (a canary either sees an entire batch or none of it), and
  /// a fallback hop moves the entire burst or none of it.
  std::vector<std::future<InferenceResult>> submit_batch(
      const std::string& target, std::vector<Tensor> images,
      const SubmitOptions& options = {});

  /// Configure `fallback_target` (any routing target) as the once-only
  /// fallback for traffic whose PRIMARY resolution lands on family `name`
  /// and then throws Unavailable. The target is resolved at use time, so it
  /// may be registered, re-aliased or split after this call; a fallback
  /// that resolves back to the same broken model simply rethrows. No
  /// chaining: the fallback's own fallback is never consulted.
  void set_fallback(const std::string& name,
                    const std::string& fallback_target);
  void clear_fallback(const std::string& name);
  /// Bursts (submit counts as a burst of one) that were re-routed to a
  /// fallback target so far.
  std::int64_t fallbacks() const;

 private:
  ModelRegistry& registry_;
  mutable Mutex mu_{"Router::mu_"};
  Rng rng_ EPIM_GUARDED_BY(mu_);
  /// Family name -> fallback routing target.
  std::map<std::string, std::string> fallbacks_ EPIM_GUARDED_BY(mu_);
  std::int64_t fallback_count_ EPIM_GUARDED_BY(mu_) = 0;
};

}  // namespace epim
