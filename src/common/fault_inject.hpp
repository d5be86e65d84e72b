// Deterministic fault injection: named fault points compiled into the
// library's failure-prone seams (artifact open/read/checksum/write, registry
// materialization, worker batch execution), armed per-test or via the
// EPIM_FAULT environment variable. The chaos suite (tests/test_fault.cpp)
// drives every point under concurrent traffic and asserts the system-wide
// invariant: every submitted request resolves (value or pinned error), no
// hang, and successful results stay bit-identical to the fault-free run.
//
// Design constraints, in order:
//
//  * Always compiled. A fault path that only exists in a special build is a
//    fault path production never proved; the points are part of the library
//    so the same binary that serves traffic can be chaos-tested.
//  * Zero-cost when disarmed. `should_fire()` is a single relaxed atomic
//    load of the armed-point count when nothing is armed -- no lock, no map
//    lookup, no hit counting. Only an ARMED run pays the registry lock.
//  * Deterministic. Triggers are a seeded Bernoulli draw (`prob`) or a
//    fire-on-exactly-the-Nth-hit counter (`nth`); the same seed and the
//    same hit sequence reproduce the same faults, the property every other
//    stochastic component of the repo pins. A third trigger, the GATE
//    (arm_gate/open_gate, test-API only -- not expressible via EPIM_FAULT,
//    which must never arm something that blocks forever), makes a hit BLOCK
//    at the point instead of firing: with wait_for_hits() it turns "model A
//    is mid-load while..." from a sleep-and-hope race into an exact,
//    timing-free interleaving.
//
// Current fault points (grep for fault::maybe_fail / fault::should_fire):
//
//   artifact.open          before any artifact file is opened (load + probe)
//   artifact.read          after the one sized read of an artifact file,
//                          before its sections are parsed or verified
//   artifact.checksum      forces a section-checksum mismatch (simulated
//                          bit corruption through the REAL rejection path)
//   artifact.write         mid-save, between sections (simulated crash; the
//                          atomic temp-file+rename save must keep the
//                          destination intact)
//   registry.materialize   at the top of cold-entry materialization
//   serve.run_batch        inside a worker's batch execution
//   serve.schedule         at batch-close selection, after the scheduler
//                          picked the batch and the queue lock dropped: an
//                          injected fault fails exactly that batch's
//                          futures and must never kill the worker or
//                          shrink the pool below ServeConfig::workers
//
// Environment arming: EPIM_FAULT holds ';'-separated entries
// `point=prob:RATE[:SEED]` or `point=nth:N`, parsed once at process start
// (abort with a diagnostic on a malformed spec -- a typo'd chaos run must
// not silently test nothing). Example:
//
//   EPIM_FAULT="serve.run_batch=prob:0.01:42;artifact.open=nth:3" ./test_fault
//
// Lock order: the fault registry's mutex is a LEAF -- fault-point
// evaluation acquires it and nothing else. Since PR 8 no fault point is
// evaluated with ModelRegistry::mu_ held at all (materialization runs with
// the registry lock dropped), so the fault mutex is only ever taken with no
// other epim lock held; the lockdep-gated tests pin the ABSENCE of the old
// ModelRegistry::mu_ -> fault::FaultRegistry::mu_ edge. A hit blocked at a
// gate parks on the registry's CondVar with the fault mutex released, so
// gates cannot wedge unrelated points.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace epim {
namespace fault {

/// Message prefix of every injected failure (pinned by tests): the
/// exceptions faults raise must be distinguishable from organic ones.
inline constexpr const char* kErrInjected = "injected fault";

namespace detail {
/// Count of currently-armed points. The ONLY state the fast path reads.
extern std::atomic<int> g_armed_points;
/// Slow path: registry lookup + trigger evaluation under the fault mutex.
bool should_fire_slow(const char* point);
}  // namespace detail

/// Evaluate the named fault point: true iff it is armed and its trigger
/// fires on this hit. When no point is armed (the production steady state)
/// this is one relaxed atomic load -- the points can stay in hot paths.
inline bool should_fire(const char* point) {
  if (detail::g_armed_points.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return detail::should_fire_slow(point);
}

/// should_fire(), but a firing point throws epim::Unavailable with the
/// pinned kErrInjected prefix and the point name. The standard call shape
/// for "this operation fails here".
void maybe_fail(const char* point);

/// Arm `point` with a seeded Bernoulli trigger: each hit fires with
/// probability `rate` (in [0, 1]), drawn from an Rng seeded with `seed`, so
/// a fixed seed yields a pinned fire pattern. Re-arming replaces the
/// previous trigger and resets the hit/fire counters.
void arm_probability(const std::string& point, double rate,
                     std::uint64_t seed = 0xFA117u);

/// Arm `point` to fire exactly on its Nth hit (1-based) and never again
/// until re-armed -- the trigger for "the first load succeeds, the retry
/// fails" style tests.
void arm_nth(const std::string& point, std::int64_t n);

/// Arm `point` as a GATE: every hit BLOCKS inside should_fire() (after
/// being counted, so wait_for_hits() observes the arrival) until
/// open_gate() or disarm()/disarm_all() releases it; a gated hit never
/// fires. This is the deterministic "hold the operation right here"
/// primitive behind the concurrency tests -- e.g. freezing one model's
/// materialization mid-flight while asserting another keeps serving.
/// Test API only: EPIM_FAULT cannot arm gates (nothing would open them).
void arm_gate(const std::string& point);

/// Release every hit blocked at `point`'s gate and let future hits pass
/// straight through (the gate stays armed so hits keep counting). No-op if
/// the point is unknown or not gated.
void open_gate(const std::string& point);

/// Block until `point` has been hit at least `n` times since (re)arming.
/// With a gate armed this sequences threads exactly: after
/// wait_for_hits(p, 1) returns, some thread is provably parked at (or has
/// passed) the point. Must not be called from a thread that could itself
/// be blocked at the same gate.
void wait_for_hits(const std::string& point, std::int64_t n);

/// Parse and arm a ';'-separated spec (the EPIM_FAULT format):
/// `point=prob:RATE[:SEED]` or `point=nth:N`. Throws InvalidArgument on a
/// malformed entry; already-parsed entries stay armed.
void arm_spec(const std::string& spec);

/// Re-read EPIM_FAULT and arm its points (idempotent; also runs once
/// automatically at process start). Returns the number of entries armed.
int reload_env();

/// Disarm one point (keeps its counters readable) / every point.
void disarm(const std::string& point);
void disarm_all();

/// Counters of one point (0 if never armed). hits() counts trigger
/// evaluations since arming; fires() the subset that fired. A fast-failed
/// request that never reached the guarded operation leaves hits()
/// unchanged -- the chaos tests use exactly that to prove a quarantined
/// model's requests never touch the load path.
std::int64_t hits(const std::string& point);
std::int64_t fires(const std::string& point);

}  // namespace fault
}  // namespace epim
