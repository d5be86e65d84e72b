#include "common/fault_inject.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace epim {
namespace fault {

namespace detail {
std::atomic<int> g_armed_points{0};
}  // namespace detail

namespace {

enum class TriggerKind { kProbability, kNth, kGate };

struct Point {
  bool armed = false;
  TriggerKind kind = TriggerKind::kProbability;
  double rate = 0.0;
  Rng rng{0};
  std::int64_t nth = 0;
  /// Gate trigger only: hits pass through once true (open_gate).
  bool gate_open = false;
  std::int64_t hit_count = 0;
  std::int64_t fire_count = 0;
  /// Telemetry mirrors of the two counters above ({point} label). Resolved
  /// by the arm_* entry points BEFORE this registry's mutex is taken (both
  /// that mutex and the telemetry registration mutex are lockdep leaves, so
  /// neither may nest under the other); non-null on every armed point.
  telemetry::Counter* hits_series = nullptr;
  telemetry::Counter* fires_series = nullptr;
};

// Keyed registry of every point ever armed. Intentionally leaked (like the
// lockdep registry): fault points are evaluated from worker threads that may
// outlive static destruction in exotic shutdown orders.
struct FaultRegistry {
  Mutex mu{"fault::FaultRegistry::mu_"};
  std::map<std::string, Point> points EPIM_GUARDED_BY(mu);
  /// Signals every hit and every arming change: gate-blocked hits and
  /// wait_for_hits() callers park here with `mu` released.
  CondVar cv;
};

FaultRegistry& fault_registry() {
  static FaultRegistry* registry = new FaultRegistry;
  return *registry;
}

void recount_armed_locked(const std::map<std::string, Point>& points) {
  int armed = 0;
  for (const auto& [name, point] : points) armed += point.armed ? 1 : 0;
  detail::g_armed_points.store(armed, std::memory_order_relaxed);
}

/// Resolve a point's telemetry series. MUST run before the fault mutex is
/// taken (see the Point comment); the lookup itself takes the telemetry
/// registration leaf mutex.
void resolve_point_series(const std::string& name, Point& point) {
  telemetry::metrics::ensure_registered();
  telemetry::Registry& reg = telemetry::Registry::process();
  const telemetry::Labels labels{{"point", name}};
  point.hits_series = reg.counter("epim_fault_hits_total", labels);
  point.fires_series = reg.counter("epim_fault_fires_total", labels);
}

void arm_locked(std::map<std::string, Point>& points, const std::string& name,
                Point point) {
  EPIM_CHECK(!name.empty(), "fault point name must be non-empty");
  point.armed = true;
  points[name] = std::move(point);
  recount_armed_locked(points);
}

// Parses EPIM_FAULT exactly once per process; a malformed spec aborts with a
// diagnostic rather than silently chaos-testing nothing (and rather than
// throwing out of a static initializer, which would terminate without one).
struct EnvLoader {
  EnvLoader() {
    try {
      reload_env();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "EPIM_FAULT: %s\n", e.what());
      std::abort();
    }
  }
};
const EnvLoader g_env_loader;

}  // namespace

namespace detail {

bool should_fire_slow(const char* point) {
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  auto it = registry.points.find(point);
  if (it == registry.points.end() || !it->second.armed) return false;
  Point& p = it->second;
  p.hit_count += 1;
  p.hits_series->inc(1);  // relaxed atomic; no lock acquired under mu
  // Every hit is announced so wait_for_hits() callers can make progress
  // (armed runs are tests/chaos drills; the disarmed fast path never gets
  // here).
  registry.cv.notify_all();
  bool fire = false;
  switch (p.kind) {
    case TriggerKind::kProbability:
      fire = p.rng.flip(p.rate);
      break;
    case TriggerKind::kNth:
      fire = p.hit_count == p.nth;
      break;
    case TriggerKind::kGate:
      // Counted above, now parked: the wait releases the fault mutex, so
      // other points (and this one's counters) stay reachable while this
      // hit is held. Re-check armed/kind each wake -- disarm_all() and
      // re-arming both release parked hits. Gated hits never fire.
      while (p.armed && p.kind == TriggerKind::kGate && !p.gate_open) {
        registry.cv.wait(lock);
      }
      return false;
  }
  if (fire) {
    p.fire_count += 1;
    p.fires_series->inc(1);
  }
  return fire;
}

}  // namespace detail

void maybe_fail(const char* point) {
  if (should_fire(point)) {
    throw Unavailable(std::string(kErrInjected) + " at point '" + point + "'");
  }
}

void arm_probability(const std::string& point, double rate,
                     std::uint64_t seed) {
  EPIM_CHECK(rate >= 0.0 && rate <= 1.0,
             "fault probability must be in [0, 1], got " +
                 std::to_string(rate));
  Point p;
  p.kind = TriggerKind::kProbability;
  p.rate = rate;
  p.rng = Rng(seed);
  resolve_point_series(point, p);
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  arm_locked(registry.points, point, std::move(p));
  registry.cv.notify_all();  // re-arming releases hits parked at an old gate
}

void arm_nth(const std::string& point, std::int64_t n) {
  EPIM_CHECK(n >= 1, "fault nth trigger must be >= 1, got " +
                         std::to_string(n));
  Point p;
  p.kind = TriggerKind::kNth;
  p.nth = n;
  resolve_point_series(point, p);
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  arm_locked(registry.points, point, std::move(p));
  registry.cv.notify_all();  // re-arming releases hits parked at an old gate
}

void arm_gate(const std::string& point) {
  Point p;
  p.kind = TriggerKind::kGate;
  resolve_point_series(point, p);
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  arm_locked(registry.points, point, std::move(p));
  registry.cv.notify_all();
}

void open_gate(const std::string& point) {
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  auto it = registry.points.find(point);
  if (it == registry.points.end()) return;
  it->second.gate_open = true;
  registry.cv.notify_all();
}

void wait_for_hits(const std::string& point, std::int64_t n) {
  EPIM_CHECK(n >= 1, "wait_for_hits needs n >= 1, got " + std::to_string(n));
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  for (;;) {
    auto it = registry.points.find(point);
    if (it != registry.points.end() && it->second.hit_count >= n) return;
    registry.cv.wait(lock);
  }
}

void arm_spec(const std::string& spec) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    EPIM_CHECK(eq != std::string::npos && eq > 0,
               "fault spec entry must be 'point=trigger', got '" + entry +
                   "'");
    const std::string point = entry.substr(0, eq);
    const std::string trigger = entry.substr(eq + 1);

    // Split the trigger into ':'-separated fields: prob:RATE[:SEED], nth:N.
    std::vector<std::string> fields;
    std::size_t fstart = 0;
    while (fstart <= trigger.size()) {
      std::size_t fend = trigger.find(':', fstart);
      if (fend == std::string::npos) fend = trigger.size();
      fields.push_back(trigger.substr(fstart, fend - fstart));
      fstart = fend + 1;
    }
    const auto parse_number = [&entry](const std::string& text,
                                       bool integer) -> double {
      try {
        std::size_t used = 0;
        const double value =
            integer ? static_cast<double>(std::stoll(text, &used))
                    : std::stod(text, &used);
        EPIM_CHECK(used == text.size(),
                   "trailing junk in fault spec entry '" + entry + "'");
        return value;
      } catch (const Error&) {
        throw;
      } catch (const std::exception&) {
        EPIM_CHECK(false, "bad number '" + text + "' in fault spec entry '" +
                       entry + "'");
        return 0.0;  // unreachable
      }
    };
    if (fields[0] == "prob") {
      EPIM_CHECK(fields.size() == 2 || fields.size() == 3,
                 "prob trigger takes RATE[:SEED], got '" + entry + "'");
      const double rate = parse_number(fields[1], /*integer=*/false);
      std::uint64_t seed = 0xFA117u;
      if (fields.size() == 3) {
        seed = static_cast<std::uint64_t>(
            parse_number(fields[2], /*integer=*/true));
      }
      arm_probability(point, rate, seed);
    } else if (fields[0] == "nth") {
      EPIM_CHECK(fields.size() == 2,
                 "nth trigger takes exactly N, got '" + entry + "'");
      arm_nth(point, static_cast<std::int64_t>(
                         parse_number(fields[1], /*integer=*/true)));
    } else {
      EPIM_CHECK(false, "unknown fault trigger '" + fields[0] +
                            "' in entry '" + entry +
                            "' (expected prob or nth)");
    }
  }
}

int reload_env() {
  const char* spec = std::getenv("EPIM_FAULT");
  if (spec == nullptr || *spec == '\0') return 0;
  const int before = detail::g_armed_points.load(std::memory_order_relaxed);
  arm_spec(spec);
  return detail::g_armed_points.load(std::memory_order_relaxed) - before;
}

void disarm(const std::string& point) {
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  auto it = registry.points.find(point);
  if (it == registry.points.end()) return;
  it->second.armed = false;
  recount_armed_locked(registry.points);
  registry.cv.notify_all();  // release any hits parked at this gate
}

void disarm_all() {
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  for (auto& [name, point] : registry.points) point.armed = false;
  recount_armed_locked(registry.points);
  registry.cv.notify_all();  // release hits parked at any gate
}

std::int64_t hits(const std::string& point) {
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  auto it = registry.points.find(point);
  return it == registry.points.end() ? 0 : it->second.hit_count;
}

std::int64_t fires(const std::string& point) {
  FaultRegistry& registry = fault_registry();
  MutexLock lock(registry.mu);
  auto it = registry.points.find(point);
  return it == registry.points.end() ? 0 : it->second.fire_count;
}

}  // namespace fault
}  // namespace epim
