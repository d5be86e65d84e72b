// Tests for the runtime lock-order checker (common/lock_debug.hpp).
//
// The registry is always compiled, so the first half drives it DIRECTLY
// with fake lock addresses: inversions (direct and transitive) fire the
// violation handler with both locks' names, consistent hierarchies stay
// silent, recursive/same-class acquisitions are flagged, try-locks record
// without enforcing. The second half exercises the REAL epim::Mutex hooks
// -- including the registry -> service -> stats chain a live ModelRegistry
// establishes -- and therefore runs only in -DEPIM_LOCK_DEBUG=ON builds
// (the ASan/TSan CI jobs); elsewhere it GTEST_SKIPs.
#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_debug.hpp"
#include "common/thread_annotations.hpp"
#include "pipeline/pipeline.hpp"
#include "registry/registry.hpp"
#include "serve/service.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

using debug::LockOrderRegistry;

/// Installs a capturing violation handler and clears the acquisition graph
/// around each test, restoring both afterwards. Reports are mutex-guarded
/// (a raw std::mutex -- fine in tests, and pulling in epim::Mutex here
/// would feed the very graph under test): integration tests spawn service
/// workers whose acquisitions run through the registry too.
class LockDebugTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LockOrderRegistry& reg = LockOrderRegistry::instance();
    reg.reset();
    previous_ = reg.set_violation_handler([this](const std::string& report) {
      std::lock_guard<std::mutex> lock(reports_mu_);
      reports_.push_back(report);
    });
  }

  void TearDown() override {
    LockOrderRegistry& reg = LockOrderRegistry::instance();
    reg.set_violation_handler(std::move(previous_));
    reg.reset();
  }

  std::vector<std::string> reports() {
    std::lock_guard<std::mutex> lock(reports_mu_);
    return reports_;
  }

  std::mutex reports_mu_;
  std::vector<std::string> reports_;
  LockOrderRegistry::ViolationHandler previous_;
};

/// Distinct fake lock instances: the registry only ever compares/stores the
/// addresses, so plain ints serve.
struct FakeLocks {
  int a = 0, b = 0, c = 0;
};

// ---- direct-API tests (run in every build flavor) ----

TEST_F(LockDebugTest, RecordsEdgesAndHeldStack) {
  LockOrderRegistry& reg = LockOrderRegistry::instance();
  FakeLocks fl;
  EXPECT_EQ(reg.held_count(), 0u);
  reg.on_acquire(&fl.a, "A");
  reg.on_acquire(&fl.b, "B");
  EXPECT_EQ(reg.held_count(), 2u);
  EXPECT_TRUE(reg.has_edge("A", "B"));
  EXPECT_FALSE(reg.has_edge("B", "A"));
  EXPECT_EQ(reg.edge_count(), 1u);
  reg.on_release(&fl.b);
  reg.on_release(&fl.a);
  EXPECT_EQ(reg.held_count(), 0u);
  EXPECT_TRUE(reports().empty());
}

TEST_F(LockDebugTest, InversionReportNamesBothLocks) {
  LockOrderRegistry& reg = LockOrderRegistry::instance();
  FakeLocks fl;
  // Establish A -> B, release, then acquire in the reverse order. No actual
  // deadlock interleaving is needed -- exercising the order once suffices.
  reg.on_acquire(&fl.a, "A");
  reg.on_acquire(&fl.b, "B");
  reg.on_release(&fl.b);
  reg.on_release(&fl.a);
  reg.on_acquire(&fl.b, "B");
  reg.on_acquire(&fl.a, "A");
  reg.on_release(&fl.a);
  reg.on_release(&fl.b);

  const std::vector<std::string> got = reports();
  ASSERT_EQ(got.size(), 1u);
  // The report carries the current stack ("acquiring A while holding B"),
  // the established chain, and the first-recording stack -- both names
  // must be present for the report to be actionable.
  EXPECT_NE(got[0].find("lock-order inversion"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("acquiring \"A\" while holding [\"B\"]"),
            std::string::npos)
      << got[0];
  EXPECT_NE(got[0].find("\"A\" -> \"B\""), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("acquiring \"B\" while holding [\"A\"]"),
            std::string::npos)
      << got[0];
}

TEST_F(LockDebugTest, InversionIsReportedOncePerEdge) {
  LockOrderRegistry& reg = LockOrderRegistry::instance();
  FakeLocks fl;
  reg.on_acquire(&fl.a, "A");
  reg.on_acquire(&fl.b, "B");
  reg.on_release(&fl.b);
  reg.on_release(&fl.a);
  for (int round = 0; round < 3; ++round) {
    reg.on_acquire(&fl.b, "B");
    reg.on_acquire(&fl.a, "A");
    reg.on_release(&fl.a);
    reg.on_release(&fl.b);
  }
  // The bad edge is recorded on first sight, so rounds 2 and 3 see a known
  // edge and stay silent -- one report per distinct bad order, not per hit.
  EXPECT_EQ(reports().size(), 1u);
}

TEST_F(LockDebugTest, TransitiveCycleDetected) {
  LockOrderRegistry& reg = LockOrderRegistry::instance();
  FakeLocks fl;
  // A -> B and B -> C established; then C ... A closes the cycle even
  // though A and C were never held together before.
  reg.on_acquire(&fl.a, "A");
  reg.on_acquire(&fl.b, "B");
  reg.on_release(&fl.b);
  reg.on_release(&fl.a);
  reg.on_acquire(&fl.b, "B");
  reg.on_acquire(&fl.c, "C");
  reg.on_release(&fl.c);
  reg.on_release(&fl.b);
  reg.on_acquire(&fl.c, "C");
  reg.on_acquire(&fl.a, "A");
  reg.on_release(&fl.a);
  reg.on_release(&fl.c);

  const std::vector<std::string> got = reports();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"A\" -> \"B\" -> \"C\""), std::string::npos)
      << got[0];
  EXPECT_NE(got[0].find("acquiring \"A\" while holding [\"C\"]"),
            std::string::npos)
      << got[0];
}

TEST_F(LockDebugTest, ConsistentHierarchyStaysSilent) {
  LockOrderRegistry& reg = LockOrderRegistry::instance();
  FakeLocks fl;
  // Repeated consistent nesting (the registry -> service -> stats shape),
  // plus the skip-level A -> C order, is a DAG: never a report, and each
  // edge is recorded exactly once however often it is re-exercised.
  for (int round = 0; round < 3; ++round) {
    reg.on_acquire(&fl.a, "A");
    reg.on_acquire(&fl.b, "B");
    reg.on_acquire(&fl.c, "C");
    reg.on_release(&fl.c);
    reg.on_release(&fl.b);
    reg.on_release(&fl.a);
    reg.on_acquire(&fl.a, "A");
    reg.on_acquire(&fl.c, "C");
    reg.on_release(&fl.c);
    reg.on_release(&fl.a);
  }
  EXPECT_TRUE(reports().empty());
  EXPECT_TRUE(reg.has_edge("A", "B"));
  EXPECT_TRUE(reg.has_edge("B", "C"));
  EXPECT_TRUE(reg.has_edge("A", "C"));
  EXPECT_EQ(reg.edge_count(), 3u);
}

TEST_F(LockDebugTest, RecursiveAcquisitionReported) {
  LockOrderRegistry& reg = LockOrderRegistry::instance();
  FakeLocks fl;
  reg.on_acquire(&fl.a, "A");
  reg.on_acquire(&fl.a, "A");  // same instance: guaranteed self-deadlock
  const std::vector<std::string> got = reports();
  ASSERT_FALSE(got.empty());
  EXPECT_NE(got[0].find("recursive acquisition of \"A\""), std::string::npos)
      << got[0];
  // Held bookkeeping stays balanced even though the handler swallowed the
  // report (the default handler would have aborted).
  EXPECT_EQ(reg.held_count(), 2u);
  reg.on_release(&fl.a);
  reg.on_release(&fl.a);
  EXPECT_EQ(reg.held_count(), 0u);
}

TEST_F(LockDebugTest, SameClassNestingReported) {
  LockOrderRegistry& reg = LockOrderRegistry::instance();
  FakeLocks fl;
  // Two INSTANCES of one lock class: the name is the graph node, so nesting
  // them is a self-loop -- the repo has no intra-class hierarchies, and a
  // legitimate one would get distinct names, not a suppression.
  reg.on_acquire(&fl.a, "X");
  reg.on_acquire(&fl.b, "X");
  const std::vector<std::string> got = reports();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"X\" -> \"X\""), std::string::npos) << got[0];
  reg.on_release(&fl.b);
  reg.on_release(&fl.a);
}

TEST_F(LockDebugTest, TryAcquireRecordsWithoutEnforcing) {
  LockOrderRegistry& reg = LockOrderRegistry::instance();
  FakeLocks fl;
  reg.on_acquire(&fl.a, "A");
  reg.on_acquire(&fl.b, "B");
  reg.on_release(&fl.b);
  reg.on_release(&fl.a);
  // Inverse order through a successful try-lock: a try-lock would have
  // yielded instead of deadlocking, so the order is recorded as a fact but
  // never reported as a violation.
  reg.on_acquire(&fl.b, "B");
  reg.on_try_acquire(&fl.a, "A");
  reg.on_release(&fl.a);
  reg.on_release(&fl.b);
  EXPECT_TRUE(reports().empty());
  EXPECT_TRUE(reg.has_edge("B", "A"));
}

TEST_F(LockDebugTest, ResetClearsGraphOnly) {
  LockOrderRegistry& reg = LockOrderRegistry::instance();
  FakeLocks fl;
  reg.on_acquire(&fl.a, "A");
  reg.on_acquire(&fl.b, "B");
  reg.reset();
  EXPECT_EQ(reg.edge_count(), 0u);
  EXPECT_FALSE(reg.has_edge("A", "B"));
  // Held stacks survive a reset (they describe live threads, not history).
  EXPECT_EQ(reg.held_count(), 2u);
  reg.on_release(&fl.b);
  reg.on_release(&fl.a);
}

// ---- integration tests (need the Mutex hooks: -DEPIM_LOCK_DEBUG=ON) ----

TEST_F(LockDebugTest, RealMutexInversionDetected) {
  if (!debug::kLockDebugEnabled) {
    GTEST_SKIP() << "built without EPIM_LOCK_DEBUG; Mutex does not feed the "
                    "lockdep registry";
  }
  Mutex a("test::lockdebug::A");
  Mutex b("test::lockdebug::B");
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);  // inversion; real deadlock would need a second thread
  }
  const std::vector<std::string> got = reports();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("test::lockdebug::A"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("test::lockdebug::B"), std::string::npos) << got[0];
}

TEST_F(LockDebugTest, RegistryMutexHasNoOutgoingEdges) {
  if (!debug::kLockDebugEnabled) {
    GTEST_SKIP() << "built without EPIM_LOCK_DEBUG; Mutex does not feed the "
                    "lockdep registry";
  }
  // Tiny trained model (smallest synthetic spec that deploys).
  SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_per_class = 6;
  spec.test_per_class = 2;
  SyntheticData data = make_synthetic_data(spec);
  SmallNetConfig nc;
  nc.num_classes = 2;
  SmallEpitomeNet net(nc);
  TrainConfig tcfg;
  tcfg.epochs = 1;
  train_model(net, data, tcfg);

  LockOrderRegistry& reg = LockOrderRegistry::instance();
  RegistryConfig rcfg;
  rcfg.max_resident_models = 1;  // force LRU eviction on the second model
  {
    ModelRegistry registry(rcfg);
    registry.register_model("m", "v1",
                            Pipeline(PipelineConfig{}).deploy(net, data.train));
    registry.register_model("m", "v2",
                            Pipeline(PipelineConfig{}).deploy(net, data.train));
    // Submit to v1 (materializes it), then to v2: materializing v2 exceeds
    // the resident budget of 1, so the registry EVICTS v1 -- draining it
    // via InferenceService::detach()/stats(), which since PR 8 runs with
    // ModelRegistry::mu_ DROPPED (the victim is parked in kDraining).
    registry.submit("m", "v1", data.test.sample(0)).get();
    registry.submit("m", "v2", data.test.sample(0)).get();
    // Exercise the scheduler's full policy surface through the registry:
    // the Scheduler is plain data under InferenceService::mu_, so priority
    // classes, fairness clients, and the per-priority stats fold must add
    // NO lock (and so no edge) to the fleet graph.
    for (int i = 0; i < 6; ++i) {
      SubmitOptions options;
      options.priority = static_cast<Priority>(i % 3);
      options.client_id = "client" + std::to_string(i % 2);
      registry.submit("m", "v2", data.test.sample(0), options).get();
    }
    registry.stats();  // the scrape reads service stats outside mu_ too
    // Router resolves under its own lock, which nests the registry lock:
    // the one fleet edge, and this test's proof that the graph is live.
    Router router(registry);
    (void)router.route("m@v2");
  }

  // The no-edge invariant, established by real traffic: the registry
  // mutex guards only map lookups and state transitions, so the whole
  // materialize/submit/evict/scrape path acquires NOTHING under it.
  EXPECT_FALSE(reg.has_edge("ModelRegistry::mu_", "InferenceService::mu_"));
  EXPECT_EQ(reg.out_degree("ModelRegistry::mu_"), 0u);
  // The service's one lock covers queue, pool and stats, and nothing is
  // acquired under it either: the submit/batch-close/stats-fold/scrape
  // paths above took it many times without nesting.
  EXPECT_EQ(reg.out_degree("InferenceService::mu_"), 0u);
  EXPECT_TRUE(reg.has_edge("Router::mu_", "ModelRegistry::mu_"));
  // And no inversion anywhere in the materialize/submit/evict/teardown path.
  EXPECT_TRUE(reports().empty()) << reports().front();
}

}  // namespace
}  // namespace epim
