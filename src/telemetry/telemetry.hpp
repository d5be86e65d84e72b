// Process-wide metrics: a registry of named Counter/Gauge/Histogram series
// with Prometheus-style text exposition -- the scrape surface that turns
// ServiceStats/RegistrySnapshot from C++-only structs into something a
// fleet monitor can poll (ROADMAP item 5, cf. DAOS src/gurt/telemetry.c).
//
// Design constraints, in order:
//
//  * Lock-free hot path. Recording into an existing series is relaxed
//    atomics only: Counter::inc / Gauge::add are one fetch_add (plus a
//    bounded CAS loop for the gauge high-water mark), Histogram::observe is
//    one fetch_add into a fixed log-bucket array plus a CAS-loop sum fold.
//    No mutex, no map lookup, no allocation -- instrumentation can sit on
//    the per-request serving path. The ONE lock (`telemetry::Registry::mu_`)
//    guards registration and render_text(), and it is a LEAF like
//    fault::FaultRegistry::mu_: nothing is ever acquired under it, and it
//    is never taken under ModelRegistry::mu_ (the lockdep-gated tests pin
//    both absences). Instrumented layers therefore create their series at
//    construction/registration time, cache the raw pointers, and only touch
//    atomics afterwards -- including while holding their own locks.
//
//  * Stable series. Series are never removed: pointers returned by
//    counter()/gauge()/histogram() stay valid for the registry's lifetime
//    (the process registry is intentionally leaked, like the fault and
//    lockdep registries). An evicted-and-rematerialized model re-requests
//    the same (name, labels) and continues its monotonic counters --
//    exactly the Prometheus model.
//
//  * Registered exactly once. A metric FAMILY (name + type + help) is
//    registered in exactly one place (src/telemetry/metrics.cpp for the
//    core fleet metrics; tools/lint.py enforces the single-site rule and
//    the `^epim_[a-z0-9_]+(_total|_ms|_bytes|_depth)?$` naming rule).
//    Re-registering a name throws the pinned kErrDuplicateMetric
//    InvalidArgument. Series under a family are get-or-create by label set.
//
//  * Effectively free when unscraped. Nothing rendered costs nothing
//    beyond the relaxed increments; a scrape is one mutex + atomic reads.
//    set_recording(false) is a global kill switch (one extra relaxed load
//    per record) used by bench_serve's serve_telemetry_overhead row to
//    measure instrumented-vs-uninstrumented throughput in one binary.
//
// Exposition (render_text) follows the Prometheus text format: one
// `# HELP`/`# TYPE` pair per family, then `name{label="value"} value`
// series sorted by label key; histograms expand to cumulative
// `_bucket{le="..."}` series plus `_sum`/`_count`. tools/check_metrics.py
// validates the grammar line-by-line in CI, and tests/test_telemetry.cpp
// pins a golden string. Values read with relaxed loads: a scrape racing a
// writer may be a few increments stale, never torn (each bucket array is
// snapshotted once per render, so _count always equals the +Inf bucket).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace epim {
namespace telemetry {

namespace detail {
/// Global record/drop switch. The ONLY state the hot path reads besides its
/// own series.
extern std::atomic<bool> g_recording;
}  // namespace detail

/// Whether record operations currently count (one relaxed load).
inline bool recording() {
  return detail::g_recording.load(std::memory_order_relaxed);
}

/// Kill switch for every Counter/Gauge/Histogram in the process: with
/// recording off, record operations return after the one flag load, so a
/// bench can measure instrumented-vs-uninstrumented serving in one binary.
/// Registration, lookup and render_text() are unaffected. Default: on.
void set_recording(bool on);

/// Ordered (label name, label value) pairs identifying one series within a
/// family. Canonicalized (sorted by name) at lookup, so {{a,1},{b,2}} and
/// {{b,2},{a,1}} are the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. inc() is a relaxed fetch_add -- callers may hold any
/// lock (including ModelRegistry::mu_) while incrementing.
class Counter {
 public:
  void inc(std::int64_t n = 1) {
    if (!recording()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Up/down gauge with a high-water mark (the mark makes queue-depth style
/// gauges meaningful in batch benches that only read them at the end).
class Gauge {
 public:
  void add(std::int64_t n) {
    if (!recording()) return;
    raise_high_water(value_.fetch_add(n, std::memory_order_relaxed) + n);
  }
  void sub(std::int64_t n) {
    if (!recording()) return;
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  void set(std::int64_t v) {
    if (!recording()) return;
    value_.store(v, std::memory_order_relaxed);
    raise_high_water(v);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// Largest value ever reached through add()/set() (sub() never raises it).
  std::int64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  void raise_high_water(std::int64_t candidate) {
    std::int64_t seen = high_water_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !high_water_.compare_exchange_weak(seen, candidate,
                                              std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_water_{0};
};

/// Log-bucket layout: finite bucket i covers values <= first_bound * 2^i
/// (upper bounds INCLUSIVE, Prometheus `le` semantics -- a value exactly on
/// a boundary lands in the LOWER bucket), one overflow bucket past the
/// largest finite bound. Defaults span ~1us .. ~8s in milliseconds, wide
/// enough for both request latencies and materialize wall times.
struct HistogramOptions {
  double first_bound = 0.0009765625;  ///< 2^-10 ms; must be positive
  int buckets = 24;                   ///< finite buckets; must be in [1, 64]
};

/// Fixed-size power-of-two-bucket histogram. observe() is lock-free: one
/// relaxed fetch_add into the bucket array plus a relaxed CAS loop folding
/// the sum; no allocation after construction. Counts never decrease except
/// through reset() (interval use by an owner that guarantees quiescence or
/// tolerates the benign race -- concurrent observes land in either
/// interval, never corrupt).
class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options = {});

  void observe(double value);

  int buckets() const { return static_cast<int>(bounds_.size()); }
  /// Upper bound (inclusive) of finite bucket i.
  double bucket_bound(int i) const { return bounds_[static_cast<std::size_t>(i)]; }
  /// Non-cumulative count of finite bucket i.
  std::int64_t bucket_count(int i) const {
    return counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  /// Samples above the largest finite bound (the +Inf bucket).
  std::int64_t overflow_count() const {
    return counts_[bounds_.size()].load(std::memory_order_relaxed);
  }
  /// Total samples (sum over all buckets including overflow).
  std::int64_t count() const;
  /// Sum of every observed value.
  double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Nearest-rank quantile over the cumulative buckets, reported as the
  /// covering bucket's upper bound (the resolution a log-bucket digest
  /// has). q in [0, 1]. Empty histogram -> 0.0; a quantile landing in the
  /// overflow bucket clamps to the largest finite bound (a finite, still
  /// monotone answer beats reporting infinity).
  double quantile(double q) const;
  /// Add every bucket count and the sum of `other` into this histogram.
  /// Bucket sums are exact, so quantiles of the merge are those of one
  /// histogram fed both sample sets. Throws InvalidArgument unless both
  /// have the same bucket bounds. Reads `other` with relaxed loads: a
  /// concurrent observe lands in the merge or not, never torn.
  void merge(const Histogram& other);
  /// Zero every bucket and the sum (see the class comment for the race
  /// contract).
  void reset();

 private:
  void add_to_sum(double value);

  std::vector<double> bounds_;  ///< immutable after construction
  /// bounds_.size() finite buckets + 1 overflow slot.
  std::unique_ptr<std::atomic<std::int64_t>[]> counts_;
  std::atomic<double> sum_{0.0};
};

/// Metric-family registry + exposition. One instance per process for real
/// telemetry (Registry::process(), intentionally leaked); tests construct
/// their own local instances for deterministic golden renders.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every instrumented layer records into.
  static Registry& process();

  /// Register a metric family. `name` must match
  /// ^epim_[a-z0-9_]+(_total|_ms|_bytes|_depth)?$ (kErrBadMetricName);
  /// registering a name twice -- any type -- throws the pinned
  /// kErrDuplicateMetric InvalidArgument, so the exposition format cannot
  /// silently fork. The core families register in exactly one place,
  /// src/telemetry/metrics.cpp (tools/lint.py pins both rules).
  void register_counter(const std::string& name, const std::string& help);
  void register_gauge(const std::string& name, const std::string& help);
  void register_histogram(const std::string& name, const std::string& help,
                          const HistogramOptions& options = {});

  /// Get-or-create the series for (name, labels) in a registered family.
  /// Returns a pointer stable for the registry's lifetime -- cache it;
  /// lookups take the registration mutex. Throws kErrUnknownMetric for an
  /// unregistered name, kErrMetricType if `name` was registered as a
  /// different type, kErrBadLabel for malformed/duplicate label names.
  Counter* counter(const std::string& name, const Labels& labels = {});
  Gauge* gauge(const std::string& name, const Labels& labels = {});
  Histogram* histogram(const std::string& name, const Labels& labels = {});

  /// Prometheus text exposition of every family (see file header). Takes
  /// the registration mutex and acquires nothing else.
  std::string render_text() const;

  /// Families registered (test/introspection helper).
  std::size_t family_count() const;

  /// Pinned error prefixes (tools/lint.py requires every direct throw in
  /// src/ to cite one; tests pin the exact strings).
  static constexpr const char* kErrDuplicateMetric =
      "telemetry metric family is already registered";
  static constexpr const char* kErrBadMetricName =
      "telemetry metric name must match epim_[a-z0-9_]+";
  static constexpr const char* kErrUnknownMetric =
      "telemetry metric family is not registered";
  static constexpr const char* kErrMetricType =
      "telemetry metric family registered with a different type";
  static constexpr const char* kErrBadLabel =
      "telemetry label set is malformed";

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Type type = Type::kCounter;
    std::string help;
    HistogramOptions histogram_options{};
    /// Keyed by the canonical rendered label body (`a="x",b="y"`), so the
    /// exposition order is deterministic for free.
    std::map<std::string, Series> series;
  };

  void register_family(const std::string& name, const std::string& help,
                       Type type, const HistogramOptions& options);
  Series& find_series_locked(const std::string& name, const Labels& labels,
                             Type type) EPIM_REQUIRES(mu_);

  /// Registration/render lock. LEAF by contract: no code path acquires any
  /// other mutex while holding it (render_text reads atomics only), and no
  /// instrumented layer takes it while holding its own lock -- series are
  /// created up front and recorded into lock-free. The lockdep-gated tests
  /// pin that this lock has no outgoing edges and is never taken under
  /// ModelRegistry::mu_.
  mutable Mutex mu_{"telemetry::Registry::mu_"};
  std::map<std::string, Family> families_ EPIM_GUARDED_BY(mu_);
};

}  // namespace telemetry
}  // namespace epim
