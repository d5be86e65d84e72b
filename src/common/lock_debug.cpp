#include "common/lock_debug.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

namespace epim {
namespace debug {

namespace {

// The registry must not lock an epim::Mutex (it runs INSIDE every Mutex
// acquisition), so its shared state sits behind a minimal spinlock built on
// std::atomic_flag. Debug-only code path; fairness does not matter.
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

class SpinGuard {
 public:
  explicit SpinGuard(SpinLock& lock) : lock_(lock) { lock_.lock(); }
  ~SpinGuard() { lock_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

struct HeldLock {
  const void* lock;
  std::string name;
};

/// Per-thread held-lock stack, bottom (oldest) first. Thread-local, so only
/// the owning thread ever touches it -- no synchronization.
///
/// Wrapped in a destruction-sentinel struct: glibc runs the main thread's
/// TLS destructors at the START of exit(), BEFORE static destructors, so a
/// Mutex locked inside a static destructor (e.g. ~ThreadPool joining its
/// workers) would otherwise push into the already-freed vector. `destroyed`
/// is trivially destructible and its TLS storage outlives the object, so
/// the hooks read it afterwards (the standard exit-guard idiom) and become
/// no-ops during teardown -- the process is single-threaded by then, there
/// is no ordering left to enforce.
struct HeldStack {
  std::vector<HeldLock> held;
  bool destroyed = false;
  ~HeldStack() { destroyed = true; }
};
thread_local HeldStack t_stack;

std::string stack_description(const std::vector<HeldLock>& held,
                              const char* acquiring) {
  std::string out = "acquiring \"";
  out += acquiring;
  out += "\" while holding [";
  for (std::size_t i = 0; i < held.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + held[i].name + "\"";
  }
  out += "]";
  return out;
}

}  // namespace

struct LockOrderRegistry::Impl {
  mutable SpinLock spin;
  /// graph[a][b] = description of the thread stack that first established
  /// the edge a -> b ("acquiring \"b\" while holding [.., \"a\"]").
  std::map<std::string, std::map<std::string, std::string>> graph;
  ViolationHandler handler;

  /// True when `from` reaches `to` through recorded edges (including
  /// from == to, which makes a new to -> from edge a self-loop). Iterative
  /// DFS; fills `parent` for path reconstruction. Caller holds `spin`.
  bool reaches(const std::string& from, const std::string& to,
               std::map<std::string, std::string>* parent) const {
    if (from == to) return true;
    std::set<std::string> visited{from};
    std::deque<std::string> frontier{from};
    while (!frontier.empty()) {
      const std::string node = frontier.front();
      frontier.pop_front();
      const auto it = graph.find(node);
      if (it == graph.end()) continue;
      for (const auto& [next, desc] : it->second) {
        if (!visited.insert(next).second) continue;
        if (parent != nullptr) (*parent)[next] = node;
        if (next == to) return true;
        frontier.push_back(next);
      }
    }
    return false;
  }
};

LockOrderRegistry::LockOrderRegistry() : impl_(new Impl) {}
LockOrderRegistry::~LockOrderRegistry() { delete impl_; }

LockOrderRegistry& LockOrderRegistry::instance() {
  // Leaked on purpose (see header): mutexes in static destructors of other
  // translation units may still call in during shutdown.
  static LockOrderRegistry* registry = new LockOrderRegistry();
  return *registry;
}

void LockOrderRegistry::on_acquire(const void* lock, const char* name) {
  if (t_stack.destroyed) return;  // exit-time teardown; see HeldStack
  std::vector<HeldLock>& t_held = t_stack.held;
  // Same-instance recursion deadlocks std::mutex unconditionally; report
  // before the thread wedges.
  for (const HeldLock& held : t_held) {
    if (held.lock == lock) {
      std::string report = "lock-order violation: recursive acquisition of \"";
      report += name;
      report += "\" (same mutex instance already held by this thread; ";
      report += stack_description(t_held, name) + ")";
      ViolationHandler handler;
      {
        SpinGuard guard(impl_->spin);
        handler = impl_->handler;
      }
      if (handler) {
        handler(report);
      } else {
        std::fprintf(stderr, "[epim lockdep] %s\n", report.c_str());
        std::abort();
      }
      // Fall through and push anyway so release bookkeeping stays balanced
      // (only reachable when a test handler swallowed the report).
      break;
    }
  }

  std::string violation;
  {
    SpinGuard guard(impl_->spin);
    for (const HeldLock& held : t_held) {
      auto& out_edges = impl_->graph[held.name];
      if (out_edges.find(name) != out_edges.end()) continue;  // known order
      // New edge held.name -> name: if `name` already reaches held.name,
      // this acquisition inverts an established order (a cycle).
      std::map<std::string, std::string> parent;
      if (impl_->reaches(name, held.name, &parent)) {
        // Reconstruct the established reverse path name -> ... -> held.name
        // and quote the stack that first recorded its initial edge.
        std::vector<std::string> path{held.name};
        while (path.back() != name) {
          const auto parent_it = parent.find(path.back());
          if (parent_it == parent.end()) break;  // from == to self-loop
          path.push_back(parent_it->second);
        }
        std::string chain;
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          if (!chain.empty()) chain += " -> ";
          chain += "\"" + *it + "\"";
        }
        if (path.size() < 2) chain += " -> \"" + std::string(name) + "\"";
        const std::string& first_hop =
            path.size() >= 2 ? path[path.size() - 2] : held.name;
        std::string established = "(unrecorded)";
        const auto fwd = impl_->graph.find(name);
        if (fwd != impl_->graph.end()) {
          const auto hop = fwd->second.find(first_hop);
          if (hop != fwd->second.end()) established = hop->second;
        }
        violation = "lock-order inversion: this thread is " +
                    stack_description(t_held, name) +
                    ", but the order " + chain +
                    " was established earlier by a thread " + established;
      }
      // Record the edge either way: it describes what the program actually
      // did, and recording it makes the report fire once per new edge
      // instead of once per acquisition.
      out_edges.emplace(name, stack_description(t_held, name));
    }
  }
  if (!violation.empty()) {
    ViolationHandler handler;
    {
      SpinGuard guard(impl_->spin);
      handler = impl_->handler;
    }
    if (handler) {
      handler(violation);
    } else {
      std::fprintf(stderr, "[epim lockdep] %s\n", violation.c_str());
      std::abort();
    }
  }
  t_held.push_back(HeldLock{lock, name});
}

void LockOrderRegistry::on_try_acquire(const void* lock, const char* name) {
  if (t_stack.destroyed) return;  // exit-time teardown; see HeldStack
  std::vector<HeldLock>& t_held = t_stack.held;
  // A successful try-lock establishes real ordering facts but cannot
  // deadlock (it would have yielded), so: record edges, skip enforcement.
  {
    SpinGuard guard(impl_->spin);
    for (const HeldLock& held : t_held) {
      auto& out_edges = impl_->graph[held.name];
      if (out_edges.find(name) == out_edges.end()) {
        out_edges.emplace(name, stack_description(t_held, name));
      }
    }
  }
  t_held.push_back(HeldLock{lock, name});
}

void LockOrderRegistry::on_release(const void* lock) {
  if (t_stack.destroyed) return;  // exit-time teardown; see HeldStack
  std::vector<HeldLock>& t_held = t_stack.held;
  // Search from the top: releases are LIFO in practice, but a scoped lock
  // released out of order must still unwind correctly.
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->lock == lock) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  // Releasing a lock this thread does not hold: Mutex::unlock() without a
  // matching lock() is UB at the std::mutex layer already; ignore here
  // (the sanitizers in the same CI jobs catch it).
}

LockOrderRegistry::ViolationHandler LockOrderRegistry::set_violation_handler(
    ViolationHandler handler) {
  SpinGuard guard(impl_->spin);
  ViolationHandler previous = std::move(impl_->handler);
  impl_->handler = std::move(handler);
  return previous;
}

bool LockOrderRegistry::has_edge(const std::string& before,
                                 const std::string& after) const {
  SpinGuard guard(impl_->spin);
  const auto it = impl_->graph.find(before);
  return it != impl_->graph.end() &&
         it->second.find(after) != it->second.end();
}

std::size_t LockOrderRegistry::out_degree(const std::string& before) const {
  SpinGuard guard(impl_->spin);
  const auto it = impl_->graph.find(before);
  return it == impl_->graph.end() ? 0 : it->second.size();
}

std::size_t LockOrderRegistry::edge_count() const {
  SpinGuard guard(impl_->spin);
  std::size_t count = 0;
  for (const auto& [node, out_edges] : impl_->graph) {
    count += out_edges.size();
  }
  return count;
}

std::size_t LockOrderRegistry::held_count() const {
  return t_stack.destroyed ? 0 : t_stack.held.size();
}

void LockOrderRegistry::reset() {
  SpinGuard guard(impl_->spin);
  impl_->graph.clear();
}

}  // namespace debug
}  // namespace epim
