// Runtime lock-order ("lockdep") checking behind epim::Mutex.
//
// Clang's thread-safety analysis proves per-field locking discipline at
// compile time, but it cannot see the GLOBAL acquisition order across
// objects (EPIM_ACQUIRED_BEFORE is only checked under an off-by-default
// beta warning group, and never across classes). This registry closes that
// gap dynamically, the way the Linux kernel's lockdep does: it needs a lock
// ORDER to be exercised only once -- not an actual deadlock interleaving --
// to flag the inversion, so every existing service/registry/parallel test
// doubles as a lock-order test.
//
// Model:
//  * Every epim::Mutex carries a NAME; the name -- not the instance -- is
//    the node in the acquisition graph, so all InferenceService queue
//    mutexes (for example) are one lock class, and an order proven bad on
//    any pair of instances indicts the class.
//  * Each thread keeps a held-lock stack (thread-local, so no
//    synchronization is needed to read it).
//  * Acquiring lock B while holding A records the directed edge A -> B
//    (once, with a snapshot of the holder's stack). Before a NEW edge
//    A -> B is recorded, the registry checks whether B already reaches A in
//    the graph; if so this acquisition inverts an established order and the
//    violation handler fires with both stacks' lock names. Acquiring a
//    mutex the thread already holds (same instance) is reported as
//    guaranteed self-deadlock; nesting two instances of the same CLASS is
//    reported too (the repo has no lock hierarchies within a class -- if
//    one ever appears, it gets distinct names, not a suppression).
//
// The registry is always compiled (so tests can drive it directly), but
// epim::Mutex only calls into it when the library is built with
// -DEPIM_LOCK_DEBUG=ON (the ASan and TSan CI jobs do). The default
// violation handler prints the report and aborts; tests install a capturing
// handler instead.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace epim {
namespace debug {

/// Whether this build compiled the lockdep hooks into epim::Mutex (the
/// EPIM_LOCK_DEBUG CMake option). The registry below works either way; this
/// tells you whether real Mutex traffic feeds it.
#if defined(EPIM_LOCK_DEBUG)
inline constexpr bool kLockDebugEnabled = true;
#else
inline constexpr bool kLockDebugEnabled = false;
#endif

class LockOrderRegistry {
 public:
  using ViolationHandler = std::function<void(const std::string& report)>;

  /// Process-wide registry. Intentionally leaked: static destructors in
  /// other translation units may still lock mutexes during shutdown.
  static LockOrderRegistry& instance();

  /// Called by Mutex::lock() immediately BEFORE blocking: checks for
  /// recursive/self-deadlock and order inversions, records new edges, and
  /// pushes the lock onto the calling thread's held stack.
  void on_acquire(const void* lock, const char* name);

  /// Called by Mutex::try_lock() after a SUCCESSFUL attempt: records held
  /// state and edges but never fires the inversion handler -- a try-lock
  /// yields instead of deadlocking, so it establishes order without risk.
  void on_try_acquire(const void* lock, const char* name);

  /// Called by Mutex::unlock(): removes the lock from the held stack.
  void on_release(const void* lock);

  /// Install a violation handler (nullptr restores the default
  /// print-and-abort). Returns the previous handler. The handler runs with
  /// no registry lock held, so it may query the registry freely.
  ViolationHandler set_violation_handler(ViolationHandler handler);

  // ---- introspection (tests, diagnostics) ----

  /// Whether the edge `before` -> `after` has been observed.
  bool has_edge(const std::string& before, const std::string& after) const;
  /// Distinct locks observed acquired while `before` was held.
  std::size_t out_degree(const std::string& before) const;
  /// Total directed edges recorded.
  std::size_t edge_count() const;
  /// Locks the CALLING thread currently holds (its own stack).
  std::size_t held_count() const;
  /// Drop every recorded edge (the held stacks of live threads are
  /// untouched). Test isolation only.
  void reset();

 private:
  LockOrderRegistry();
  ~LockOrderRegistry();

  struct Impl;
  Impl* impl_;
};

}  // namespace debug
}  // namespace epim
