#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"
#include "common/error.hpp"

namespace epim {
namespace telemetry {

namespace detail {
std::atomic<bool> g_recording{true};
}  // namespace detail

void set_recording(bool on) {
  detail::g_recording.store(on, std::memory_order_relaxed);
}

namespace {

/// ^epim_[a-z0-9_]+(_total|_ms|_bytes|_depth)?$ -- the optional suffix
/// group is informational (it is already matched by [a-z0-9_]+); what the
/// rule pins is the prefix and the lowercase charset.
bool valid_metric_name(const std::string& name) {
  constexpr const char* kPrefix = "epim_";
  if (name.rfind(kPrefix, 0) != 0) return false;
  if (name.size() == 5) return false;  // bare "epim_"
  for (std::size_t i = 5; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

bool valid_label_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

/// Label-value escaping per the Prometheus text format: backslash, double
/// quote and newline.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// HELP-text escaping: backslash and newline (quotes are legal there).
std::string escape_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Canonical label body: sorted by label name, rendered `a="x",b="y"`.
/// Doubles as the series map key, so render order is deterministic.
std::string canonical_label_body(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string body;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EPIM_CHECK(valid_label_name(sorted[i].first),
               std::string(Registry::kErrBadLabel) + ": bad label name '" +
                   sorted[i].first + "'");
    if (i > 0) {
      EPIM_CHECK(sorted[i].first != sorted[i - 1].first,
                 std::string(Registry::kErrBadLabel) +
                     ": duplicate label name '" + sorted[i].first + "'");
      body += ',';
    }
    body += sorted[i].first;
    body += "=\"";
    body += escape_label_value(sorted[i].second);
    body += '"';
  }
  return body;
}

/// Deterministic number rendering: integral doubles print as integers,
/// everything else as shortest-exact %.17g (IEEE round-trip, so the golden
/// exposition test is platform-stable). Powers of two print exactly either
/// way, which keeps histogram le="..." bounds clean.
std::string format_value(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.0e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string series_name(const std::string& name, const std::string& body) {
  if (body.empty()) return name;
  return name + "{" + body + "}";
}

/// Same, with one more label appended (histogram `le`).
std::string series_name_le(const std::string& name, const std::string& body,
                           const std::string& le) {
  std::string merged = body;
  if (!merged.empty()) merged += ',';
  merged += "le=\"" + le + "\"";
  return name + "{" + merged + "}";
}

}  // namespace

Histogram::Histogram(const HistogramOptions& options) {
  EPIM_CHECK(options.first_bound > 0.0,
             "histogram first_bound must be positive");
  EPIM_CHECK(options.buckets >= 1 && options.buckets <= 64,
             "histogram buckets must be in [1, 64]");
  bounds_.reserve(static_cast<std::size_t>(options.buckets));
  double bound = options.first_bound;
  for (int i = 0; i < options.buckets; ++i) {
    bounds_.push_back(bound);
    bound *= 2.0;
  }
  counts_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double value) {
  if (!recording()) return;
  if (std::isnan(value)) return;  // no bucket is right; drop rather than lie
  // First bucket whose (inclusive) upper bound covers the value; a value
  // exactly on a boundary lands in the LOWER bucket, everything past the
  // largest finite bound in the overflow slot. Linear scan: <= 64 compares
  // on a fixed array, and latencies concentrate in the early buckets.
  std::size_t slot = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      slot = i;
      break;
    }
  }
  counts_[slot].fetch_add(1, std::memory_order_relaxed);
  add_to_sum(value);
}

void Histogram::add_to_sum(double value) {
  // Portable lock-free sum fold (atomic<double>::fetch_add is C++20 but
  // patchily optimized; the CAS loop is equivalent under contention here).
  double seen = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(seen, seen + value,
                                     std::memory_order_relaxed)) {
  }
}

std::int64_t Histogram::count() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::quantile(double q) const {
  EPIM_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1], got " +
                                       std::to_string(q));
  const std::int64_t total = count();
  if (total == 0) return 0.0;
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(total))));
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    cumulative += counts_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) return bounds_[i];
  }
  return bounds_.back();  // overflow bucket: clamp to largest finite bound
}

void Histogram::merge(const Histogram& other) {
  EPIM_CHECK(bounds_ == other.bounds_,
             "histogram merge requires identical bucket bounds");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].fetch_add(other.counts_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  add_to_sum(other.sum());
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::process() {
  // Leaked like the fault and lockdep registries: instrumented layers
  // record from worker threads that may outlive static destruction.
  static Registry* registry = new Registry;
  return *registry;
}

void Registry::register_family(const std::string& name,
                               const std::string& help, Type type,
                               const HistogramOptions& options) {
  if (!valid_metric_name(name)) {
    throw InvalidArgument(std::string(kErrBadMetricName) + ": '" + name +
                          "'");
  }
  MutexLock lock(mu_);
  if (families_.find(name) != families_.end()) {
    throw InvalidArgument(std::string(kErrDuplicateMetric) + ": '" + name +
                          "'");
  }
  Family& family = families_[name];
  family.type = type;
  family.help = help;
  family.histogram_options = options;
}

void Registry::register_counter(const std::string& name,
                                const std::string& help) {
  register_family(name, help, Type::kCounter, HistogramOptions{});
}

void Registry::register_gauge(const std::string& name,
                              const std::string& help) {
  register_family(name, help, Type::kGauge, HistogramOptions{});
}

void Registry::register_histogram(const std::string& name,
                                  const std::string& help,
                                  const HistogramOptions& options) {
  // Validate the layout eagerly (Histogram's constructor checks again, but
  // the registration site is the actionable place to fail).
  Histogram probe(options);
  register_family(name, help, Type::kHistogram, options);
}

Registry::Series& Registry::find_series_locked(const std::string& name,
                                               const Labels& labels,
                                               Type type) {
  const auto it = families_.find(name);
  if (it == families_.end()) {
    throw InvalidArgument(std::string(kErrUnknownMetric) + ": '" + name +
                          "'");
  }
  Family& family = it->second;
  if (family.type != type) {
    throw InvalidArgument(std::string(kErrMetricType) + ": '" + name + "'");
  }
  const std::string key = canonical_label_body(labels);
  Series& series = family.series[key];
  switch (type) {
    case Type::kCounter:
      if (series.counter == nullptr) {
        series.counter = std::make_unique<Counter>();
      }
      break;
    case Type::kGauge:
      if (series.gauge == nullptr) series.gauge = std::make_unique<Gauge>();
      break;
    case Type::kHistogram:
      if (series.histogram == nullptr) {
        series.histogram =
            std::make_unique<Histogram>(family.histogram_options);
      }
      break;
  }
  return series;
}

Counter* Registry::counter(const std::string& name, const Labels& labels) {
  MutexLock lock(mu_);
  return find_series_locked(name, labels, Type::kCounter).counter.get();
}

Gauge* Registry::gauge(const std::string& name, const Labels& labels) {
  MutexLock lock(mu_);
  return find_series_locked(name, labels, Type::kGauge).gauge.get();
}

Histogram* Registry::histogram(const std::string& name,
                               const Labels& labels) {
  MutexLock lock(mu_);
  return find_series_locked(name, labels, Type::kHistogram).histogram.get();
}

std::string Registry::render_text() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " " + escape_help(family.help) + "\n";
    out += "# TYPE " + name + " ";
    switch (family.type) {
      case Type::kCounter: out += "counter"; break;
      case Type::kGauge: out += "gauge"; break;
      case Type::kHistogram: out += "histogram"; break;
    }
    out += "\n";
    for (const auto& [body, series] : family.series) {
      switch (family.type) {
        case Type::kCounter:
          out += series_name(name, body) + " " +
                 std::to_string(series.counter->value()) + "\n";
          break;
        case Type::kGauge:
          out += series_name(name, body) + " " +
                 std::to_string(series.gauge->value()) + "\n";
          break;
        case Type::kHistogram: {
          const Histogram& h = *series.histogram;
          // One snapshot per bucket, reused for the cumulative walk AND the
          // total, so _count always equals the +Inf bucket within a render
          // even while writers race.
          std::int64_t cumulative = 0;
          for (int i = 0; i < h.buckets(); ++i) {
            cumulative += h.bucket_count(i);
            out += series_name_le(name + "_bucket", body,
                                  format_value(h.bucket_bound(i))) +
                   " " + std::to_string(cumulative) + "\n";
          }
          cumulative += h.overflow_count();
          out += series_name_le(name + "_bucket", body, "+Inf") + " " +
                 std::to_string(cumulative) + "\n";
          out += series_name(name + "_sum", body) + " " +
                 format_value(h.sum()) + "\n";
          out += series_name(name + "_count", body) + " " +
                 std::to_string(cumulative) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::size_t Registry::family_count() const {
  MutexLock lock(mu_);
  return families_.size();
}

}  // namespace telemetry
}  // namespace epim
