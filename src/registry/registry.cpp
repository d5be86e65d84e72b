#include "registry/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.hpp"
#include "common/fault_inject.hpp"
#include "serve/artifact.hpp"
#include "telemetry/metrics.hpp"

namespace epim {

namespace {

using Clock = std::chrono::steady_clock;

void check_target_component(const std::string& value, const char* what) {
  EPIM_CHECK(!value.empty(), std::string(what) + " must be non-empty");
  EPIM_CHECK(value.find('@') == std::string::npos,
             std::string(what) + " must not contain '@', got '" + value + "'");
}

/// Add the counters of `from` into `into`: the one fold behind retiring a
/// service (eviction and reload) and behind the live half of stats().
/// Rates, gauges and percentiles are not counters and are left alone.
void fold_counters(ServiceStats& into, const ServiceStats& from) {
  into.requests += from.requests;
  into.batches += from.batches;
  into.clip_events += from.clip_events;
  into.rejected += from.rejected;
  into.deadline_misses += from.deadline_misses;
  for (std::size_t p = 0; p < static_cast<std::size_t>(kNumPriorities); ++p) {
    into.completed_by_priority[p] += from.completed_by_priority[p];
    into.deadline_misses_by_priority[p] += from.deadline_misses_by_priority[p];
  }
}

}  // namespace

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

const char* to_string(LifecycleState state) {
  switch (state) {
    case LifecycleState::kCold:
      return "cold";
    case LifecycleState::kLoading:
      return "loading";
    case LifecycleState::kResident:
      return "resident";
    case LifecycleState::kDraining:
      return "draining";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ModelRegistry: registration
// ---------------------------------------------------------------------------

ModelRegistry::ModelRegistry(RegistryConfig config)
    : config_(std::move(config)), health_rng_(config_.health.jitter_seed) {
  EPIM_CHECK(config_.max_resident_models >= 1,
             "registry.max_resident_models must be positive");
  // Fail at construction, not at the first materialization.
  validate_serve(config_.serve);
  EPIM_CHECK(config_.health.quarantine_after >= 1,
             "health.quarantine_after must be positive");
  EPIM_CHECK(config_.health.backoff_base_ms > 0.0,
             "health.backoff_base_ms must be positive");
  EPIM_CHECK(config_.health.backoff_max_ms >= config_.health.backoff_base_ms,
             "health.backoff_max_ms must be >= backoff_base_ms");
  EPIM_CHECK(config_.health.jitter >= 0.0 && config_.health.jitter < 1.0,
             "health.jitter must be in [0, 1)");
}

ModelRegistry::~ModelRegistry() = default;

ModelRegistry::EntryMetrics ModelRegistry::resolve_entry_metrics(
    const std::string& name, const std::string& version) {
  telemetry::metrics::ensure_registered();
  telemetry::Registry& reg = telemetry::Registry::process();
  const std::string label = name + "@" + version;
  EntryMetrics m;
  m.to_loading = reg.counter("epim_registry_transitions_total",
                             {{"model", label}, {"to", "loading"}});
  m.to_resident = reg.counter("epim_registry_transitions_total",
                              {{"model", label}, {"to", "resident"}});
  m.to_draining = reg.counter("epim_registry_transitions_total",
                              {{"model", label}, {"to", "draining"}});
  m.to_cold = reg.counter("epim_registry_transitions_total",
                          {{"model", label}, {"to", "cold"}});
  m.evictions =
      reg.counter("epim_registry_evictions_total", {{"model", label}});
  m.fast_fails =
      reg.counter("epim_registry_fast_fails_total", {{"model", label}});
  m.pins = reg.gauge("epim_registry_pins_depth", {{"model", label}});
  m.materialize_ms =
      reg.histogram("epim_registry_materialize_ms", {{"model", label}});
  return m;
}

void ModelRegistry::set_state_locked(Entry& entry, LifecycleState next) {
  entry.state = next;
  switch (next) {
    case LifecycleState::kCold:
      entry.metrics.to_cold->inc(1);
      break;
    case LifecycleState::kLoading:
      entry.metrics.to_loading->inc(1);
      break;
    case LifecycleState::kResident:
      entry.metrics.to_resident->inc(1);
      break;
    case LifecycleState::kDraining:
      entry.metrics.to_draining->inc(1);
      break;
  }
}

ModelRegistry::Entry& ModelRegistry::add_entry_locked(
    const std::string& name, const std::string& version,
    const ServeConfig& serve) {
  check_target_component(name, "model name");
  check_target_component(version, "model version");
  // Validate the per-entry policy NOW: a bad ServeConfig must fail the
  // registration, not the first routed request (materialization moves the
  // model into the service, so a ctor throw there would strand the entry).
  validate_serve(serve);
  Family& family = families_[name];
  EPIM_CHECK(family.versions.find(version) == family.versions.end(),
             "model '" + name + "@" + version + "' is already registered");
  EPIM_CHECK(family.aliases.find(version) == family.aliases.end(),
             "version '" + version + "' would shadow an alias of '" + name +
                 "'");
  Entry& entry = family.versions[version];
  entry.serve = serve;
  return entry;
}

void ModelRegistry::register_artifact(
    const std::string& name, const std::string& version,
    const std::string& path, const std::optional<ServeConfig>& serve) {
  // Probe the header up front: a typo'd path or a compiled-model artifact
  // should fail at registration, not at the first routed request.
  const artifact::Info info = artifact::probe(path);
  EPIM_CHECK(info.kind == artifact::Kind::kDeployedModel,
             "registry artifacts must be deployed models: " + path);
  // Resolve the entry's telemetry series BEFORE taking the registry lock:
  // the lookup acquires the telemetry leaf mutex, which must never nest
  // under ModelRegistry::mu_ (lockdep pins the absence of that edge).
  const EntryMetrics metrics = resolve_entry_metrics(name, version);
  MutexLock lock(mu_);
  Entry& entry =
      add_entry_locked(name, version, serve.value_or(config_.serve));
  entry.artifact_path = path;
  entry.metrics = metrics;
}

void ModelRegistry::register_model(const std::string& name,
                                   const std::string& version,
                                   DeployedModel model,
                                   const std::optional<ServeConfig>& serve) {
  // Same ordering contract as register_artifact: series first, lock second.
  const EntryMetrics metrics = resolve_entry_metrics(name, version);
  MutexLock lock(mu_);
  Entry& entry =
      add_entry_locked(name, version, serve.value_or(config_.serve));
  entry.model.emplace(std::move(model));
  entry.metrics = metrics;
}

void ModelRegistry::set_alias(const std::string& name,
                              const std::string& alias,
                              const std::string& version) {
  check_target_component(alias, "alias");
  MutexLock lock(mu_);
  const auto family_it = families_.find(name);
  EPIM_CHECK(family_it != families_.end(), "unknown model '" + name + "'");
  Family& family = family_it->second;
  EPIM_CHECK(family.versions.find(version) != family.versions.end(),
             "alias target '" + name + "@" + version + "' is not registered");
  EPIM_CHECK(family.versions.find(alias) == family.versions.end(),
             "alias '" + alias + "' would shadow a version of '" + name +
                 "'");
  family.aliases[alias] = version;
}

void ModelRegistry::set_split(const std::string& name,
                              std::vector<VersionWeight> split) {
  EPIM_CHECK(!split.empty(),
             "split must name at least one version (use clear_split)");
  MutexLock lock(mu_);
  const auto family_it = families_.find(name);
  EPIM_CHECK(family_it != families_.end(), "unknown model '" + name + "'");
  Family& family = family_it->second;
  for (std::size_t i = 0; i < split.size(); ++i) {
    EPIM_CHECK(family.versions.find(split[i].version) !=
                   family.versions.end(),
               "split target '" + name + "@" + split[i].version +
                   "' is not registered");
    EPIM_CHECK(split[i].weight > 0.0, "split weights must be positive");
    for (std::size_t j = 0; j < i; ++j) {
      EPIM_CHECK(split[j].version != split[i].version,
                 "split names version '" + split[i].version + "' twice");
    }
  }
  family.split = std::move(split);
}

void ModelRegistry::clear_split(const std::string& name) {
  MutexLock lock(mu_);
  const auto family_it = families_.find(name);
  EPIM_CHECK(family_it != families_.end(), "unknown model '" + name + "'");
  family_it->second.split.clear();
}

// ---------------------------------------------------------------------------
// ModelRegistry: lookup + resolution
// ---------------------------------------------------------------------------

ModelRegistry::Entry& ModelRegistry::find_entry_locked(
    const std::string& name, const std::string& version) {
  const auto family_it = families_.find(name);
  EPIM_CHECK(family_it != families_.end(), "unknown model '" + name + "'");
  const auto entry_it = family_it->second.versions.find(version);
  EPIM_CHECK(entry_it != family_it->second.versions.end(),
             "unknown version '" + version + "' of model '" + name + "'");
  return entry_it->second;
}

const ModelRegistry::Entry& ModelRegistry::find_entry_locked(
    const std::string& name, const std::string& version) const {
  return const_cast<ModelRegistry*>(this)->find_entry_locked(name, version);
}

std::pair<std::string, std::string> ModelRegistry::resolve(
    const std::string& target, double split_draw) const {
  return resolve(target, std::function<double()>([split_draw] {
                   return split_draw;
                 }));
}

std::pair<std::string, std::string> ModelRegistry::resolve(
    const std::string& target,
    const std::function<double()>& split_draw) const {
  const std::size_t at = target.find('@');
  const std::string name = target.substr(0, at);
  EPIM_CHECK(!name.empty(), "routing target must start with a model name");

  MutexLock lock(mu_);
  const auto family_it = families_.find(name);
  EPIM_CHECK(family_it != families_.end(), "unknown model '" + name + "'");
  const Family& family = family_it->second;

  if (at != std::string::npos) {
    const std::string suffix = target.substr(at + 1);
    EPIM_CHECK(!suffix.empty(),
               "routing target '" + target + "' has an empty version");
    if (family.versions.find(suffix) != family.versions.end()) {
      return {name, suffix};
    }
    const auto alias_it = family.aliases.find(suffix);
    EPIM_CHECK(alias_it != family.aliases.end(),
               "unknown version or alias '" + suffix + "' of model '" + name +
                   "'");
    return {name, alias_it->second};
  }

  // Bare name: split > "default" alias > sole version.
  if (!family.split.empty()) {
    const double draw = split_draw();
    EPIM_CHECK(draw >= 0.0 && draw < 1.0,
               "bare-name target '" + name +
                   "' has a traffic split; resolve needs a uniform draw in "
                   "[0, 1)");
    double total = 0.0;
    for (const VersionWeight& arm : family.split) total += arm.weight;
    double cumulative = 0.0;
    for (const VersionWeight& arm : family.split) {
      cumulative += arm.weight / total;
      if (draw < cumulative) return {name, arm.version};
    }
    return {name, family.split.back().version};  // guard rounding at 1.0
  }
  const auto default_it = family.aliases.find("default");
  if (default_it != family.aliases.end()) return {name, default_it->second};
  EPIM_CHECK(family.versions.size() == 1,
             "bare-name target '" + name + "' is ambiguous: " +
                 std::to_string(family.versions.size()) +
                 " versions and no split or 'default' alias");
  return {name, family.versions.begin()->first};
}

bool ModelRegistry::has_split(const std::string& name) const {
  MutexLock lock(mu_);
  const auto family_it = families_.find(name);
  return family_it != families_.end() && !family_it->second.split.empty();
}

std::vector<std::string> ModelRegistry::versions(
    const std::string& name) const {
  MutexLock lock(mu_);
  const auto family_it = families_.find(name);
  EPIM_CHECK(family_it != families_.end(), "unknown model '" + name + "'");
  std::vector<std::string> out;
  for (const auto& [version, entry] : family_it->second.versions) {
    out.push_back(version);
  }
  return out;
}

bool ModelRegistry::resident(const std::string& name,
                             const std::string& version) const {
  MutexLock lock(mu_);
  return find_entry_locked(name, version).state == LifecycleState::kResident;
}

// ---------------------------------------------------------------------------
// ModelRegistry: materialization + eviction + reload
// ---------------------------------------------------------------------------

int ModelRegistry::resident_count_locked() const {
  int count = 0;
  for (const auto& [name, family] : families_) {
    for (const auto& [version, entry] : family.versions) {
      count += entry.state == LifecycleState::kResident;
    }
  }
  return count;
}

void ModelRegistry::materialize_as_loader(MutexLock& lock,
                                          const std::string& name,
                                          const std::string& version,
                                          Entry& entry) {
  EPIM_DCHECK(entry.state == LifecycleState::kCold,
              "only a cold entry can claim the single-flight load");
  set_state_locked(entry, LifecycleState::kLoading);
  const std::uint64_t epoch = entry.load_epoch;
  const std::string path = entry.artifact_path;
  const ServeConfig serve = entry.serve;
  // Take the in-memory source along while still locked; any failure that
  // did NOT consume it puts it back, so injected faults stay retryable.
  std::optional<DeployedModel> source = std::move(entry.model);
  entry.model.reset();

  // ---- lock dropped: all I/O and construction happen out here ----
  lock.unlock();
  const auto load_start = Clock::now();
  std::unique_ptr<InferenceService> fresh;
  bool failed = false;
  bool internal = false;
  std::string what;
  try {
    // Chaos hook: fires BEFORE the in-memory model could be consumed, so
    // an injected materialization failure is always retryable -- exactly
    // like the artifact-load failures it stands in for.
    fault::maybe_fail("registry.materialize");
    const bool from_memory = source.has_value();
    // Bit-identical by the artifact determinism contract, so an evicted
    // model answers exactly as it did before eviction.
    DeployedModel model = from_memory ? std::move(*source)
                                      : Pipeline::load_deployed(path);
    source.reset();
    try {
      fresh = std::make_unique<InferenceService>(std::move(model), serve,
                                                 name + "@" + version);
    } catch (...) {
      // The serve config was validated at registration, so this is a
      // resource failure (thread/memory). `model` was consumed by the
      // attempted construction; an in-memory-only entry cannot recover it,
      // so surface that plainly instead of leaving a husk that later fails
      // with a misleading empty-path artifact error.
      if (from_memory) {
        throw InternalError(
            "failed to materialize in-memory model '" + name + "@" + version +
            "'; its DeployedModel was consumed by the failed service "
            "construction and the entry has no artifact to restore from");
      }
      throw;
    }
  } catch (const InternalError& e) {
    failed = true;
    internal = true;
    what = e.what();
  } catch (const std::exception& e) {
    failed = true;
    what = e.what();
  }
  const double load_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - load_start)
          .count();
  lock.lock();

  if (entry.load_epoch != epoch) {
    // A reload() superseded this load: the entry now points at a DIFFERENT
    // artifact with freshly reset health. Discard the stale result -- and
    // do not charge a stale failure -- then hand the entry back to the
    // caller's retry loop. The stale service (if built) carried no traffic,
    // so destroying it outside the lock just joins idle workers.
    set_state_locked(entry, LifecycleState::kCold);
    entry.cv.notify_all();
    if (fresh != nullptr) {
      lock.unlock();
      fresh.reset();
      lock.lock();
    }
    return;
  }

  if (failed) {
    if (source.has_value()) entry.model = std::move(source);  // retryable
    set_state_locked(entry, LifecycleState::kCold);
    record_materialize_failure_locked(entry, what);
    entry.cv.notify_all();
    if (internal) throw InternalError(what);
    throw Unavailable(std::string(kErrMaterializeFailed) + ": '" + name +
                      "@" + version + "': " + what);
  }

  entry.service = std::move(fresh);
  set_state_locked(entry, LifecycleState::kResident);
  // Successful loads only: the histogram answers "how long does a cold
  // start take when it works" -- failures are counted separately.
  entry.metrics.materialize_ms->observe(load_ms);
  // A successful (probe) materialization closes the breaker.
  entry.health = HealthState::kHealthy;
  entry.consecutive_failures = 0;
  entry.last_error.clear();
  entry.cv.notify_all();
  enforce_budget(lock, entry);
}

void ModelRegistry::enforce_budget(MutexLock& lock, Entry& fresh) {
  while (resident_count_locked() > config_.max_resident_models) {
    Entry* victim = nullptr;
    for (auto& [fname, family] : families_) {
      for (auto& [fversion, candidate] : family.versions) {
        // Only unpinned residents are evictable: kLoading/kDraining have no
        // service to evict, a pinned entry is mid-enqueue/mid-scrape on
        // another thread, and `fresh` is the entry we just warmed.
        if (candidate.state != LifecycleState::kResident) continue;
        if (candidate.pins > 0 || &candidate == &fresh) continue;
        if (victim == nullptr || candidate.last_used < victim->last_used) {
          victim = &candidate;
        }
      }
    }
    // No evictable victim: budget of 1 with only `fresh` resident, or every
    // other resident is pinned right now. A transient overshoot is the
    // correct outcome -- the next materialization re-runs this loop.
    if (victim == nullptr) break;
    // kDraining keeps every other thread off the victim while retire()
    // drains it with the lock dropped -- the fleet keeps serving meanwhile.
    set_state_locked(*victim, LifecycleState::kDraining);
    DeployedModel recovered =
        retire(lock, *victim, std::move(victim->service));
    victim->evictions += 1;
    victim->metrics.evictions->inc(1);
    if (!victim->artifact_backed()) {
      // No artifact to re-materialize from: keep the programmed model so
      // the entry stays servable. The eviction still frees the batch
      // workers. (A reload() that repointed the entry at an artifact while
      // we drained makes it artifact-backed, and the recovered model is
      // superseded -- dropping it here is exactly right.)
      victim->model.emplace(std::move(recovered));
    }
    set_state_locked(*victim, LifecycleState::kCold);
    victim->cv.notify_all();
  }
}

DeployedModel ModelRegistry::retire(
    MutexLock& lock, Entry& entry, std::unique_ptr<InferenceService> service) {
  // detach() joins ALL the service's batch workers after they drain the
  // queue (in-flight batches included): every future handed out for this
  // service resolves before it is retired. The drain blocks on that
  // traffic, so it runs with the registry lock DROPPED.
  lock.unlock();
  DeployedModel drained = service->detach();
  const ServiceStats final = service->stats();
  service.reset();
  lock.lock();
  fold_counters(entry.retired, final);
  return drained;
}

void ModelRegistry::reload(const std::string& name,
                           const std::string& version,
                           const std::string& path) {
  const artifact::Info info = artifact::probe(path);
  EPIM_CHECK(info.kind == artifact::Kind::kDeployedModel,
             "registry artifacts must be deployed models: " + path);
  MutexLock lock(mu_);
  Entry& entry = find_entry_locked(name, version);
  // Supersede any in-flight load: the loader compares this epoch at
  // publish time, discards its (stale-artifact) result, and does NOT
  // charge a stale failure against the fresh health below.
  entry.load_epoch += 1;
  entry.artifact_path = path;
  entry.model.reset();  // the old in-memory source is superseded
  // The repointed artifact deserves a fresh probe immediately: whatever
  // broke the old path says nothing about the new one. Lifetime
  // materialize_failures is kept (it describes the entry's history).
  entry.health = HealthState::kHealthy;
  entry.consecutive_failures = 0;
  entry.last_error.clear();
  entry.retry_at = Clock::time_point{};
  // kLoading: the epoch bump above retires the loader's result; it (or a
  // waiter) re-materializes from the new path. kDraining: an eviction is
  // already winding the old service down and folds its stats itself.
  if (entry.state != LifecycleState::kResident) return;
  set_state_locked(entry, LifecycleState::kDraining);
  // Wait out readers that pinned the service before we got the lock.
  // Bounded: pins cover an enqueue or a stats read, never I/O, and
  // kDraining stops new pins from arriving.
  while (entry.pins > 0) entry.cv.wait(lock);
  std::unique_ptr<InferenceService> old = std::move(entry.service);
  // Back to kCold BEFORE the drain: in-flight requests finish on the old
  // weights while new traffic already materializes the new artifact.
  set_state_locked(entry, LifecycleState::kCold);
  entry.cv.notify_all();
  (void)retire(lock, entry, std::move(old));
}

// ---------------------------------------------------------------------------
// ModelRegistry: traffic + stats
// ---------------------------------------------------------------------------

std::future<InferenceResult> ModelRegistry::submit(
    const std::string& name, const std::string& version, Tensor image,
    const SubmitOptions& options) {
  std::vector<Tensor> one;
  one.push_back(std::move(image));
  return std::move(
      submit_batch(name, version, std::move(one), options).front());
}

std::vector<std::future<InferenceResult>> ModelRegistry::submit_batch(
    const std::string& name, const std::string& version,
    std::vector<Tensor> images, const SubmitOptions& options) {
  // Before anything else: an invalid burst must not claim a cold load, and
  // its priority indexes the per-class shed counters below.
  check_submission(options, images.size());
  const std::size_t n = images.size();
  // Requests that end up waiting behind an in-flight load/drain shed on
  // the same deadline the service would enforce at admission; no deadline
  // means wait until the entry settles.
  Clock::time_point wait_deadline = Clock::time_point::max();
  if (options.deadline_ms > 0.0) {
    wait_deadline = Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            options.deadline_ms));
  }

  MutexLock lock(mu_);
  Entry& entry = find_entry_locked(name, version);
  while (entry.state != LifecycleState::kResident) {
    if (entry.state == LifecycleState::kCold) {
      // Breaker gate first: while the entry's retry window is open this
      // throws without touching the load path (no artifact I/O, no extra
      // lock). Healthy or due-for-probe entries fall through and claim the
      // single-flight load, which drops the registry lock across the I/O.
      check_health_locked(entry, n);
      materialize_as_loader(lock, name, version, entry);
      // Re-evaluate rather than assume kResident: a concurrent reload()
      // may have superseded the load (the loader then returned with the
      // entry back in kCold, repointed at the new artifact).
      continue;
    }
    if (entry.state == LifecycleState::kLoading &&
        entry.health != HealthState::kHealthy) {
      // The single-flight half-open probe is already in flight. The herd
      // that piled up behind an expired retry_at must NOT wait on the
      // probe (let alone slam the disk after it): fast-fail exactly like
      // any other request inside the retry window.
      fail_unhealthy_locked(entry, n);
    }
    // kLoading (healthy) or kDraining: wait for the transition, shedding
    // at the caller's deadline. The wait releases the registry lock, so
    // traffic to OTHER entries is untouched.
    if (wait_deadline == Clock::time_point::max()) {
      entry.cv.wait(lock);
    } else if (entry.cv.wait_until(lock, wait_deadline) ==
                   std::cv_status::timeout &&
               entry.state != LifecycleState::kResident) {
      entry.retired.deadline_misses += static_cast<std::int64_t>(n);
      entry.retired.deadline_misses_by_priority[static_cast<std::size_t>(
          options.priority)] += static_cast<std::int64_t>(n);
      throw DeadlineExceeded(
          std::string(InferenceService::kErrDeadlineExceeded) + ": model '" +
          name + "@" + version + "' was still " + to_string(entry.state) +
          " at the deadline");
    }
  }
  entry.last_used = ++tick_;
  // Pin + enqueue with the lock RELEASED: the pin keeps eviction/reload
  // from destroying the service mid-enqueue, and admission on one model no
  // longer serializes behind the fleet-wide mutex (the enqueue takes the
  // service's own lock, which can briefly block behind a batch close).
  entry.pins += 1;
  entry.metrics.pins->add(1);
  InferenceService* service = entry.service.get();
  lock.unlock();
  try {
    std::vector<std::future<InferenceResult>> futures =
        service->submit_batch(std::move(images), options);
    lock.lock();
    unpin_locked(entry);
    return futures;
  } catch (...) {
    lock.lock();
    unpin_locked(entry);
    throw;
  }
}

void ModelRegistry::unpin_locked(Entry& entry) {
  EPIM_DCHECK(entry.pins > 0, "unpinning an entry with no pins");
  entry.pins -= 1;
  entry.metrics.pins->sub(1);
  if (entry.pins == 0) entry.cv.notify_all();
}

void ModelRegistry::check_health_locked(Entry& entry,
                                        std::size_t n_requests) {
  if (entry.health == HealthState::kHealthy) return;
  if (Clock::now() >= entry.retry_at) return;  // half-open: caller probes
  fail_unhealthy_locked(entry, n_requests);
}

void ModelRegistry::fail_unhealthy_locked(Entry& entry,
                                          std::size_t n_requests) {
  entry.health_fast_fails += static_cast<std::int64_t>(n_requests);
  entry.metrics.fast_fails->inc(static_cast<std::int64_t>(n_requests));
  if (entry.health == HealthState::kQuarantined) {
    throw Unavailable(std::string(kErrQuarantined) + " after " +
                      std::to_string(entry.consecutive_failures) +
                      " consecutive failures; last: " + entry.last_error);
  }
  throw Unavailable(std::string(kErrBackoff) + " (failure " +
                    std::to_string(entry.consecutive_failures) +
                    "); last: " + entry.last_error);
}

void ModelRegistry::record_materialize_failure_locked(
    Entry& entry, const std::string& what) {
  entry.consecutive_failures += 1;
  entry.materialize_failures += 1;
  entry.last_error = what;
  entry.health = entry.consecutive_failures >= config_.health.quarantine_after
                     ? HealthState::kQuarantined
                     : HealthState::kDegraded;
  // Exponential backoff, capped (exponent clamped so ldexp cannot
  // overflow), then jittered by a seeded draw so a fleet of entries broken
  // by the same outage does not probe in lockstep when it ends.
  const int exponent = std::min(entry.consecutive_failures - 1, 40);
  double delay_ms = std::min(std::ldexp(config_.health.backoff_base_ms,
                                        exponent),
                             config_.health.backoff_max_ms);
  delay_ms *= 1.0 + config_.health.jitter * health_rng_.uniform(-1.0, 1.0);
  entry.retry_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          delay_ms));
}

HealthState ModelRegistry::health(const std::string& name,
                                  const std::string& version) const {
  MutexLock lock(mu_);
  return find_entry_locked(name, version).health;
}

RegistrySnapshot ModelRegistry::stats() const {
  // Two-phase scrape: entry-level state under the lock, then the resident
  // services' live counters with the lock RELEASED and the entries pinned
  // (a scrape must never stall fleet admission -- the old single-phase
  // scrape held mu_ across every service's stats lock). The pins keep
  // eviction/reload from destroying a service mid-read.
  ModelRegistry& self = *const_cast<ModelRegistry*>(this);
  RegistrySnapshot snapshot;
  struct PinnedRef {
    Entry* entry;
    InferenceService* service;
    std::size_t index;  ///< into snapshot.models
  };
  std::vector<PinnedRef> pinned;
  MutexLock lock(self.mu_);
  for (auto& [name, family] : self.families_) {
    for (auto& [version, entry] : family.versions) {
      ModelSnapshot m;
      m.name = name;
      m.version = version;
      m.lifecycle = entry.state;
      m.resident = entry.state == LifecycleState::kResident;
      m.workers = entry.serve.workers;
      m.evictions = entry.evictions;
      // Retired counters now; the live service's share is folded in below,
      // outside the lock.
      m.stats = entry.retired;
      m.health = entry.health;
      m.consecutive_failures = entry.consecutive_failures;
      m.materialize_failures = entry.materialize_failures;
      m.health_fast_fails = entry.health_fast_fails;
      m.last_error = entry.last_error;
      if (m.resident) {
        entry.pins += 1;
        entry.metrics.pins->add(1);
        pinned.push_back(
            {&entry, entry.service.get(), snapshot.models.size()});
      }
      snapshot.models.push_back(std::move(m));
    }
  }
  lock.unlock();

  // Fleet percentiles: the merge of the resident services' interval
  // histograms, so they sit on the same buckets as each service's p50/p99.
  telemetry::Histogram fleet_latency;
  for (const PinnedRef& p : pinned) {
    ModelSnapshot& m = snapshot.models[p.index];
    ServiceStats live = p.service->stats();
    fleet_latency.merge(p.service->interval_latency());
    snapshot.workers += live.live_workers;
    // Fold the retired counters captured under the lock into the live
    // snapshot; rates/gauges (items_per_sec, queued, percentiles, workers)
    // describe the live service alone and come along unchanged.
    fold_counters(live, m.stats);
    m.stats = live;
  }

  lock.lock();
  for (const PinnedRef& p : pinned) self.unpin_locked(*p.entry);

  for (const ModelSnapshot& m : snapshot.models) {
    snapshot.resident += m.resident;
    snapshot.requests += m.stats.requests;
    snapshot.rejected += m.stats.rejected;
    snapshot.evictions += m.evictions;
    snapshot.quarantined += m.health == HealthState::kQuarantined;
    snapshot.deadline_misses += m.stats.deadline_misses;
    snapshot.health_fast_fails += m.health_fast_fails;
    snapshot.items_per_sec += m.stats.items_per_sec;
    snapshot.queued += m.stats.queued;
    for (int p = 0; p < kNumPriorities; ++p) {
      snapshot.queued_by_priority[static_cast<std::size_t>(p)] +=
          m.stats.queued_by_priority[static_cast<std::size_t>(p)];
      snapshot.completed_by_priority[static_cast<std::size_t>(p)] +=
          m.stats.completed_by_priority[static_cast<std::size_t>(p)];
      snapshot.deadline_misses_by_priority[static_cast<std::size_t>(p)] +=
          m.stats.deadline_misses_by_priority[static_cast<std::size_t>(p)];
    }
  }
  snapshot.p50_latency_ms = fleet_latency.quantile(0.50);
  snapshot.p99_latency_ms = fleet_latency.quantile(0.99);
  return snapshot;
}

void ModelRegistry::reset_stats() {
  struct PinnedRef {
    Entry* entry;
    InferenceService* service;
  };
  std::vector<PinnedRef> pinned;
  MutexLock lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [version, entry] : family.versions) {
      entry.retired = ServiceStats{};
      // Traffic counter, so it belongs to the interval; the breaker state
      // and lifetime materialize_failures are structural and stay.
      entry.health_fast_fails = 0;
      if (entry.state == LifecycleState::kResident) {
        entry.pins += 1;
        entry.metrics.pins->add(1);
        pinned.push_back({&entry, entry.service.get()});
      }
    }
  }
  lock.unlock();
  // Service resets take the services' own locks; like every service call
  // they run with the registry lock released.
  for (const PinnedRef& p : pinned) p.service->reset();
  lock.lock();
  for (const PinnedRef& p : pinned) unpin_locked(*p.entry);
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

std::pair<std::string, std::string> Router::route(const std::string& target) {
  // Hold the rng lock across the resolve so the "is there a split?" check
  // and the draw are one atomic step against concurrent set_split(), and
  // concurrent routers still consume exactly one draw per split routing.
  MutexLock lock(mu_);
  return registry_.resolve(target,
                           std::function<double()>([&] {
                             return rng_.uniform();
                           }));
}

std::future<InferenceResult> Router::submit(const std::string& target,
                                            Tensor image,
                                            const SubmitOptions& options) {
  std::vector<Tensor> one;
  one.push_back(std::move(image));
  return std::move(submit_batch(target, std::move(one), options).front());
}

std::vector<std::future<InferenceResult>> Router::submit_batch(
    const std::string& target, std::vector<Tensor> images,
    const SubmitOptions& options) {
  const auto [name, version] = route(target);
  std::string fallback;
  {
    MutexLock lock(mu_);
    const auto it = fallbacks_.find(name);
    if (it != fallbacks_.end()) fallback = it->second;
  }
  if (fallback.empty()) {
    return registry_.submit_batch(name, version, std::move(images), options);
  }
  // submit_batch consumes the images even when it throws, so the burst is
  // copied up front while a fallback might need it. Families without a
  // fallback (the steady state) skip the copy via the branch above.
  std::vector<Tensor> primary_copy = images;
  try {
    return registry_.submit_batch(name, version, std::move(primary_copy),
                                  options);
  } catch (const Unavailable&) {
    // Quarantine, backoff, a failed probe, or queue-full admission: all
    // mean "this model cannot take the burst right now", which is exactly
    // what the fallback is for. One hop only -- if the fallback is itself
    // unavailable, that error propagates.
    const auto [fb_name, fb_version] = route(fallback);
    {
      MutexLock lock(mu_);
      fallback_count_ += 1;
    }
    return registry_.submit_batch(fb_name, fb_version, std::move(images),
                                  options);
  }
}

void Router::set_fallback(const std::string& name,
                          const std::string& fallback_target) {
  check_target_component(name, "fallback family name");
  EPIM_CHECK(!fallback_target.empty(),
             "fallback target must be non-empty (use clear_fallback)");
  MutexLock lock(mu_);
  fallbacks_[name] = fallback_target;
}

void Router::clear_fallback(const std::string& name) {
  MutexLock lock(mu_);
  fallbacks_.erase(name);
}

std::int64_t Router::fallbacks() const {
  MutexLock lock(mu_);
  return fallback_count_;
}

}  // namespace epim
