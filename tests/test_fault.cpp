// Chaos suite for the fault-tolerance tier (common/fault_inject.hpp plus
// the seams it is threaded into): deterministic trigger semantics, atomic
// artifact saves under injected partial writes, worker survival of throwing
// batches, the registry circuit breaker (degraded -> quarantined ->
// half-open probe -> recovery) with its fast-fail-never-touches-the-load-
// path guarantee, Router fallback, and the tentpole invariant -- with any
// single fault point armed at any rate, every submitted request resolves
// (value or pinned epim::Error, no hang within the ctest timeout) and
// successful results stay bit-identical to the fault-free run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_inject.hpp"
#include "common/lock_debug.hpp"
#include "common/parallel.hpp"
#include "pipeline/pipeline.hpp"
#include "registry/registry.hpp"
#include "serve/artifact.hpp"
#include "serve/service.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Restore the 1-thread default after a test that resizes the pool.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(1); }
};

/// One trained net + two deployment variants with distinct precisions (so
/// their logits differ), plus a saved `.epim` of variant 1 for
/// artifact-backed registrations. Shared across all tests in this file.
struct FaultZoo {
  SyntheticData data;
  SmallEpitomeNet net;
  std::vector<PipelineConfig> cfgs;
  std::string artifact_path;

  FaultZoo()
      : data(make_synthetic_data([] {
          SyntheticSpec spec;
          spec.num_classes = 2;
          spec.train_per_class = 8;
          spec.test_per_class = 4;
          return spec;
        }())),
        net([] {
          SmallNetConfig nc;
          nc.num_classes = 2;
          return nc;
        }()) {
    TrainConfig tcfg;
    tcfg.epochs = 2;
    train_model(net, data, tcfg);
    for (const auto& [w, a] : {std::pair{6, 8}, {4, 6}}) {
      PipelineConfig cfg;
      cfg.precision = PrecisionPlan::uniform(w, a);
      cfgs.push_back(cfg);
    }
    artifact_path = temp_path("fault_zoo_v1.epim");
    deploy(1).save(artifact_path);
  }

  /// Deployment is deterministic: every call with the same variant yields a
  /// bit-identical model (the reference trick the chaos invariant relies
  /// on).
  DeployedModel deploy(std::size_t variant) const {
    return Pipeline(cfgs.at(variant)).deploy(net, data.train);
  }

  std::vector<Tensor> stream() const {
    std::vector<Tensor> images;
    for (std::int64_t i = 0; i < data.test.size(); ++i) {
      images.push_back(data.test.sample(i));
    }
    return images;
  }

  /// Reference logits of one variant on the serial direct path.
  std::vector<Tensor> reference_logits(std::size_t variant) const {
    DeployedModel chip = deploy(variant);
    std::vector<Tensor> logits;
    for (std::int64_t i = 0; i < data.test.size(); ++i) {
      logits.push_back(chip.forward(data.test.sample(i)));
    }
    return logits;
  }

  static FaultZoo& instance() {
    static FaultZoo zoo;
    return zoo;
  }
};

void expect_same_logits(const Tensor& got, const Tensor& want,
                        const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  for (std::int64_t j = 0; j < got.numel(); ++j) {
    EXPECT_EQ(got.at(j), want.at(j)) << context << " logit " << j;
  }
}

/// Every test starts and ends with no point armed, so suites compose in any
/// order (and a leaked armed point cannot silently chaos-test a neighbour).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

using FaultInjection = FaultTest;
using ArtifactFault = FaultTest;
using ServiceFault = FaultTest;
using RegistryHealth = FaultTest;
using RegistryLifecycle = FaultTest;
using ChaosInvariant = FaultTest;
using FaultLockdep = FaultTest;

// ---- trigger semantics ----

TEST_F(FaultInjection, NthTriggerFiresExactlyOnTheNthHit) {
  fault::arm_nth("t.nth", 3);
  const std::vector<bool> expected = {false, false, true, false, false};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fault::should_fire("t.nth"), expected[i]) << "hit " << i + 1;
  }
  EXPECT_EQ(fault::hits("t.nth"), 5);
  EXPECT_EQ(fault::fires("t.nth"), 1);
  // Re-arming resets the counters and the one-shot.
  fault::arm_nth("t.nth", 1);
  EXPECT_EQ(fault::hits("t.nth"), 0);
  EXPECT_TRUE(fault::should_fire("t.nth"));
  EXPECT_FALSE(fault::should_fire("t.nth"));
}

TEST_F(FaultInjection, ProbabilityTriggerIsSeedDeterministic) {
  const auto pattern = [](std::uint64_t seed) {
    fault::arm_probability("t.prob", 0.5, seed);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(fault::should_fire("t.prob"));
    return fired;
  };
  const std::vector<bool> first = pattern(42);
  EXPECT_EQ(pattern(42), first);  // same seed, same fault schedule
  EXPECT_GT(fault::fires("t.prob"), 0);
  EXPECT_LT(fault::fires("t.prob"), 64);

  fault::arm_probability("t.prob", 0.0, 42);
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(fault::should_fire("t.prob"));
  fault::arm_probability("t.prob", 1.0, 42);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(fault::should_fire("t.prob"));
  EXPECT_THROW(fault::arm_probability("t.prob", 1.5), InvalidArgument);
  EXPECT_THROW(fault::arm_nth("t.prob", 0), InvalidArgument);
}

TEST_F(FaultInjection, DisarmedPointsAreNeverCountedOrFired) {
  // Never-armed points: the inline fast path short-circuits on the global
  // armed count, so nothing is registered and nothing counts.
  EXPECT_FALSE(fault::should_fire("t.never"));
  EXPECT_EQ(fault::hits("t.never"), 0);

  fault::arm_nth("t.off", 1);
  fault::disarm("t.off");
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(fault::should_fire("t.off"));
  EXPECT_EQ(fault::hits("t.off"), 0) << "disarmed evaluation must be free";
  EXPECT_NO_THROW(fault::maybe_fail("t.off"));
}

TEST_F(FaultInjection, MaybeFailThrowsThePinnedInjectedError) {
  fault::arm_nth("t.fail", 1);
  try {
    fault::maybe_fail("t.fail");
    FAIL() << "armed nth:1 point did not throw";
  } catch (const Unavailable& e) {
    EXPECT_NE(std::string(e.what()).find(fault::kErrInjected),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("t.fail"), std::string::npos)
        << e.what();
  }
}

TEST_F(FaultInjection, ArmSpecParsesEntriesAndRejectsMalformedOnes) {
  fault::arm_spec("a.p=nth:2;b.p=prob:1.0:7;;");
  EXPECT_FALSE(fault::should_fire("a.p"));
  EXPECT_TRUE(fault::should_fire("a.p"));
  EXPECT_TRUE(fault::should_fire("b.p"));
  for (const char* bad :
       {"x", "x=", "=nth:1", "x=nth:0", "x=nth:junk", "x=nth:1:2",
        "x=prob:2.0", "x=prob:0.5:1:2", "x=prob:0.5junk", "x=warp:1"}) {
    EXPECT_THROW(fault::arm_spec(bad), InvalidArgument) << bad;
  }
}

TEST_F(FaultInjection, ReloadEnvArmsFromTheEnvironment) {
  ::setenv("EPIM_FAULT", "t.env=nth:1", /*overwrite=*/1);
  EXPECT_EQ(fault::reload_env(), 1);
  ::unsetenv("EPIM_FAULT");
  EXPECT_TRUE(fault::should_fire("t.env"));
  EXPECT_FALSE(fault::should_fire("t.env"));
  EXPECT_EQ(fault::reload_env(), 0);  // no spec, nothing armed
}

// ---- artifact faults + atomic saves ----

TEST_F(ArtifactFault, LoadFaultsSurfaceAsPinnedErrors) {
  FaultZoo& zoo = FaultZoo::instance();

  fault::arm_nth("artifact.open", 1);
  EXPECT_THROW(Pipeline::load_deployed(zoo.artifact_path), Unavailable);
  fault::disarm("artifact.open");

  fault::arm_nth("artifact.read", 1);
  EXPECT_THROW(Pipeline::load_deployed(zoo.artifact_path), Unavailable);
  fault::disarm("artifact.read");

  // The checksum fault drives the REAL corruption-rejection path: the
  // pinned kErrChecksum message, not an injected-fault wrapper.
  fault::arm_nth("artifact.checksum", 1);
  try {
    Pipeline::load_deployed(zoo.artifact_path);
    FAIL() << "armed checksum fault did not reject the artifact";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(artifact::kErrChecksum),
              std::string::npos)
        << e.what();
  }
  fault::disarm("artifact.checksum");

  // Disarmed, the same artifact loads cleanly.
  EXPECT_NO_THROW(Pipeline::load_deployed(zoo.artifact_path));
}

TEST_F(ArtifactFault, PartialWriteNeverClobbersTheExistingArtifact) {
  FaultZoo& zoo = FaultZoo::instance();
  // Own subdirectory: the no-litter scan below must not see OTHER tests'
  // in-flight temp saves when ctest runs suites in parallel.
  const std::string dir = temp_path("fault_atomic_dir");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/fault_atomic.epim";
  zoo.deploy(1).save(path);
  const std::vector<Tensor> before = zoo.reference_logits(1);

  // A deployed artifact has three sections; firing on the second write
  // leaves a half-written temp file -- which must never become `path`.
  fault::arm_nth("artifact.write", 2);
  EXPECT_THROW(zoo.deploy(0).save(path), Unavailable);
  fault::disarm("artifact.write");

  // The destination still holds the COMPLETE old artifact, bit-identically.
  DeployedModel survivor = Pipeline::load_deployed(path);
  for (std::int64_t i = 0; i < zoo.data.test.size(); ++i) {
    expect_same_logits(survivor.forward(zoo.data.test.sample(i)),
                       before[static_cast<std::size_t>(i)],
                       "post-partial-write image " + std::to_string(i));
  }
  // And the aborted save left no temp litter next to it.
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(path).parent_path())) {
    EXPECT_EQ(entry.path().string().find(".epim.tmp"), std::string::npos)
        << "leaked temp file: " << entry.path();
  }
  // A clean retry replaces the artifact whole.
  zoo.deploy(0).save(path);
  DeployedModel replaced = Pipeline::load_deployed(path);
  const std::vector<Tensor> want = zoo.reference_logits(0);
  expect_same_logits(replaced.forward(zoo.data.test.sample(0)), want[0],
                     "post-retry");
  std::filesystem::remove_all(dir);
}

TEST_F(ArtifactFault, AbortedFreshSaveLeavesNoFileAtAll) {
  FaultZoo& zoo = FaultZoo::instance();
  const std::string path = temp_path("fault_fresh_never_exists.epim");
  fault::arm_nth("artifact.write", 1);
  EXPECT_THROW(zoo.deploy(0).save(path), Unavailable);
  fault::disarm("artifact.write");
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_THROW(artifact::probe(path), InvalidArgument);
}

// ---- service faults ----

TEST_F(ServiceFault, WorkerSurvivesAThrowingBatchAndKeepsServing) {
  FaultZoo& zoo = FaultZoo::instance();
  const std::vector<Tensor> want = zoo.reference_logits(0);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 16;  // >= the 8-image stream: each burst is ONE batch
  cfg.flush_deadline_ms = 1.0;
  InferenceService service(zoo.deploy(0), cfg);

  // First batch fails wholesale with the pinned injected message...
  fault::arm_nth("serve.run_batch", 1);
  auto doomed = service.submit_batch(zoo.stream());
  for (auto& f : doomed) {
    try {
      f.get();
      FAIL() << "future of a faulted batch resolved with a value";
    } catch (const Unavailable& e) {
      EXPECT_NE(std::string(e.what()).find(fault::kErrInjected),
                std::string::npos)
          << e.what();
    }
  }
  // ...and the SAME worker then serves correct values: the thread survived.
  auto healthy = service.submit_batch(zoo.stream());
  for (std::size_t i = 0; i < healthy.size(); ++i) {
    expect_same_logits(healthy[i].get().logits, want[i],
                       "post-fault image " + std::to_string(i));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<std::int64_t>(healthy.size()))
      << "faulted requests must not count as completed";
  // Destructor joins cleanly with the worker still alive (ASan/TSan jobs
  // would flag a wedged or dead worker here).
}

TEST_F(ServiceFault, RandomBatchFaultsEveryRequestResolves) {
  FaultZoo& zoo = FaultZoo::instance();
  const std::vector<Tensor> want = zoo.reference_logits(0);
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 2;
  cfg.flush_deadline_ms = 0.5;
  InferenceService service(zoo.deploy(0), cfg);

  fault::arm_probability("serve.run_batch", 0.4, 0xC4A05u);
  std::vector<std::future<InferenceResult>> futures;
  std::vector<std::size_t> image_of;
  for (int round = 0; round < 10; ++round) {
    for (std::int64_t i = 0; i < zoo.data.test.size(); ++i) {
      futures.push_back(service.submit(zoo.data.test.sample(i)));
      image_of.push_back(static_cast<std::size_t>(i));
    }
  }
  int ok = 0;
  int failed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      expect_same_logits(futures[i].get().logits, image_of[i] < want.size()
                                                      ? want[image_of[i]]
                                                      : want[0],
                         "chaos image " + std::to_string(i));
      ok += 1;
    } catch (const Error&) {
      failed += 1;
    }
  }
  EXPECT_EQ(ok + failed, static_cast<int>(futures.size()));
  EXPECT_GT(ok, 0) << "a 40% batch fault rate should let some batches pass";
  EXPECT_GT(failed, 0) << "a 40% batch fault rate should fail some batches";
  EXPECT_GT(fault::fires("serve.run_batch"), 0);
}

// The serve.schedule point fires at batch-close selection, AFTER the
// scheduler picked the batch and the queue lock dropped: the pinned chaos
// contract is that an injected fault fails exactly that batch's futures,
// every submitted request still resolves, and the adaptive pool never dips
// below ServeConfig::workers (a scheduling fault must not kill workers).
TEST_F(ServiceFault, ScheduleFaultsResolveAllRequestsAndKeepThePoolFloor) {
  FaultZoo& zoo = FaultZoo::instance();
  const std::vector<Tensor> want = zoo.reference_logits(0);
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.max_workers = 4;
  cfg.max_batch = 4;
  cfg.flush_deadline_ms = 0.5;
  InferenceService service(zoo.deploy(0), cfg);

  // The satellite rate: 1% per batch close, seeded. Mixed priority classes
  // and fairness clients so the faults land across the whole policy space.
  fault::arm_probability("serve.schedule", 0.01, 0x5C4EDu);
  constexpr Priority kClasses[] = {Priority::kInteractive, Priority::kNormal,
                                   Priority::kBulk};
  std::vector<std::future<InferenceResult>> futures;
  std::vector<std::size_t> image_of;
  for (int i = 0; i < 300; ++i) {
    const std::size_t image =
        static_cast<std::size_t>(i) % static_cast<std::size_t>(
                                          zoo.data.test.size());
    SubmitOptions options;
    options.priority = kClasses[static_cast<std::size_t>(i) % 3];
    options.client_id = "client" + std::to_string(i % 4);
    futures.push_back(service.submit(
        zoo.data.test.sample(static_cast<std::int64_t>(image)), options));
    image_of.push_back(image);
  }
  int ok = 0;
  int injected = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      expect_same_logits(futures[i].get().logits, want[image_of[i]],
                         "schedule-chaos req " + std::to_string(i));
      ok += 1;
    } catch (const Unavailable& e) {
      EXPECT_NE(std::string(e.what()).find(fault::kErrInjected),
                std::string::npos)
          << e.what();
      injected += 1;
    }
  }
  EXPECT_EQ(ok + injected, 300) << "every request must resolve";
  EXPECT_GT(ok, 0);
  EXPECT_GT(fault::hits("serve.schedule"), 0)
      << "batch closes never evaluated the armed point";

  // The pool floor held through the chaos, and recovery is immediate once
  // the point is disarmed: the same service serves bit-identical values.
  ServiceStats stats = service.stats();
  EXPECT_GE(stats.live_workers, cfg.workers)
      << "a scheduling fault must never shrink the pool below the floor";
  fault::disarm("serve.schedule");
  expect_same_logits(service.submit(zoo.data.test.sample(0)).get().logits,
                     want[0], "post-disarm");
  EXPECT_GE(service.stats().live_workers, cfg.workers);
}

// ---- registry circuit breaker ----

TEST_F(RegistryHealth, BreakerDegradesQuarantinesFastFailsAndRecovers) {
  FaultZoo& zoo = FaultZoo::instance();
  RegistryConfig cfg;
  cfg.health.quarantine_after = 2;
  cfg.health.backoff_base_ms = 40.0;
  cfg.health.backoff_max_ms = 400.0;
  cfg.health.jitter = 0.0;  // deterministic windows for the test
  ModelRegistry registry(cfg);
  registry.register_model("m", "v1", zoo.deploy(0));

  fault::arm_probability("registry.materialize", 1.0);

  // Failure 1: a real load attempt (hit 1) -> degraded.
  try {
    registry.submit("m", "v1", zoo.data.test.sample(0));
    FAIL() << "materialization with a certain fault succeeded";
  } catch (const Unavailable& e) {
    EXPECT_NE(std::string(e.what())
                  .find(ModelRegistry::kErrMaterializeFailed),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kDegraded);
  EXPECT_EQ(fault::hits("registry.materialize"), 1);

  // Inside the backoff window: fast-fail, and -- the acceptance criterion
  // -- the load path is NOT touched: the fault point records no new hit.
  try {
    registry.submit("m", "v1", zoo.data.test.sample(0));
    FAIL() << "backoff window did not fast-fail";
  } catch (const Unavailable& e) {
    EXPECT_NE(std::string(e.what()).find(ModelRegistry::kErrBackoff),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fault::hits("registry.materialize"), 1)
      << "fast-fail must not touch the load path";

  // Past the window the next request is a half-open probe; it fails too
  // (hit 2) and consecutive failure #2 opens the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_THROW(registry.submit("m", "v1", zoo.data.test.sample(0)),
               Unavailable);
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kQuarantined);
  EXPECT_EQ(fault::hits("registry.materialize"), 2);

  // Breaker open: quarantine fast-fail, still no load-path touch.
  try {
    registry.submit("m", "v1", zoo.data.test.sample(0));
    FAIL() << "quarantine did not fast-fail";
  } catch (const Unavailable& e) {
    EXPECT_NE(std::string(e.what()).find(ModelRegistry::kErrQuarantined),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fault::hits("registry.materialize"), 2);

  // Fault repaired + window expired: the half-open probe materializes for
  // real, closes the breaker, and the request itself succeeds.
  fault::disarm_all();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  expect_same_logits(
      registry.submit("m", "v1", zoo.data.test.sample(0)).get().logits,
      zoo.reference_logits(0)[0], "post-recovery");
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kHealthy);

  const RegistrySnapshot snapshot = registry.stats();
  ASSERT_EQ(snapshot.models.size(), 1u);
  EXPECT_EQ(snapshot.models[0].health, HealthState::kHealthy);
  EXPECT_EQ(snapshot.models[0].consecutive_failures, 0);
  EXPECT_EQ(snapshot.models[0].materialize_failures, 2);
  EXPECT_EQ(snapshot.models[0].health_fast_fails, 2);
  EXPECT_EQ(snapshot.quarantined, 0);
  EXPECT_EQ(snapshot.health_fast_fails, 2);
}

TEST_F(RegistryHealth, RouterFallsBackToAHealthyModel) {
  FaultZoo& zoo = FaultZoo::instance();
  RegistryConfig cfg;
  // Keep "a" in backoff for the WHOLE test: nothing below waits the window
  // out, and a sanitizer-slowed fallback burst must not let a half-open
  // probe sneak in and resurrect "a" before the final fast-fail check.
  cfg.health.backoff_base_ms = 600000.0;
  cfg.health.backoff_max_ms = 600000.0;
  cfg.health.jitter = 0.0;
  ModelRegistry registry(cfg);
  registry.register_model("a", "v1", zoo.deploy(0));
  registry.register_model("b", "v1", zoo.deploy(1));
  Router router(registry);

  // nth:1 breaks exactly the FIRST materialization (model "a"); model "b"
  // materializes on hit 2, which does not fire.
  fault::arm_nth("registry.materialize", 1);
  EXPECT_THROW(router.submit("a", zoo.data.test.sample(0)), Unavailable);
  EXPECT_EQ(registry.health("a", "v1"), HealthState::kDegraded);
  EXPECT_EQ(router.fallbacks(), 0);

  // With a fallback configured, the same traffic lands on "b" -- and the
  // values prove it (the variants' logits differ).
  router.set_fallback("a", "b@v1");
  const std::vector<Tensor> want_b = zoo.reference_logits(1);
  auto futures = router.submit_batch("a", zoo.stream());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_same_logits(futures[i].get().logits, want_b[i],
                       "fallback image " + std::to_string(i));
  }
  EXPECT_EQ(router.fallbacks(), 1);  // one burst, one hop
  EXPECT_GT(registry.stats().health_fast_fails, 0);

  // Clearing the fallback restores the raw fast-fail.
  router.clear_fallback("a");
  EXPECT_THROW(router.submit("a", zoo.data.test.sample(0)), Unavailable);
  EXPECT_EQ(router.fallbacks(), 1);
}

// ---- lifecycle: lock-dropped single-flight materialization ----

// Gate semantics: an armed gate counts the hit, then parks the hitting
// thread until open_gate/disarm. Combined with wait_for_hits this replaces
// every sleep-and-hope interleaving below with an exact one.
TEST_F(FaultInjection, GateParksHitsUntilOpenedAndNeverFires) {
  fault::arm_gate("t.gate");
  std::atomic<int> passed{0};
  std::thread blocked([&] {
    EXPECT_FALSE(fault::should_fire("t.gate"));  // parks here
    passed.fetch_add(1);
  });
  fault::wait_for_hits("t.gate", 1);
  EXPECT_EQ(passed.load(), 0) << "gated hit must park, not pass";
  fault::open_gate("t.gate");
  blocked.join();
  EXPECT_EQ(passed.load(), 1);
  // Open gate: later hits pass straight through, still counted, never fire.
  EXPECT_FALSE(fault::should_fire("t.gate"));
  EXPECT_EQ(fault::hits("t.gate"), 2);
  EXPECT_EQ(fault::fires("t.gate"), 0);
  // disarm_all releases parked hits too (the TearDown safety net).
  fault::arm_gate("t.gate");
  std::thread released([&] { EXPECT_FALSE(fault::should_fire("t.gate")); });
  fault::wait_for_hits("t.gate", 1);
  fault::disarm_all();
  released.join();
}

// The tentpole proof, timing-free: with model A's materialization parked at
// a gated fault point -- provably mid-load, registry lock dropped -- model
// B keeps serving bit-identical values and a monitoring scrape completes
// and reports A as loading. Under EPIM_LOCK_DEBUG the same run pins the
// no-edge claim: the registry mutex acquired NOTHING throughout.
TEST_F(RegistryLifecycle, ColdLoadOfOneModelDoesNotBlockAnother) {
  FaultZoo& zoo = FaultZoo::instance();
  if (debug::kLockDebugEnabled) {
    debug::LockOrderRegistry::instance().reset();
  }
  ModelRegistry registry;
  registry.register_model("b", "v1", zoo.deploy(0));
  registry.register_artifact("a", "v1", zoo.artifact_path);  // variant 1
  const std::vector<Tensor> want_b = zoo.reference_logits(0);
  const std::vector<Tensor> want_a = zoo.reference_logits(1);
  // Warm B before freezing the load path.
  expect_same_logits(
      registry.submit("b", "v1", zoo.data.test.sample(0)).get().logits,
      want_b[0], "warmup b");

  fault::arm_gate("registry.materialize");
  std::optional<Tensor> a_logits;
  std::thread loader([&] {
    a_logits =
        registry.submit("a", "v1", zoo.data.test.sample(0)).get().logits;
  });
  fault::wait_for_hits("registry.materialize", 1);

  // A is now provably held inside materialization. B serves a full burst...
  auto futures = registry.submit_batch("b", "v1", zoo.stream());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_same_logits(futures[i].get().logits, want_b[i],
                       "b during a's load, image " + std::to_string(i));
  }
  // ...and a stats scrape completes while the load is still held, seeing
  // the lifecycle mid-flight.
  const RegistrySnapshot snap = registry.stats();
  ASSERT_EQ(snap.models.size(), 2u);  // sorted: a@v1, b@v1
  EXPECT_EQ(snap.models[0].lifecycle, LifecycleState::kLoading);
  EXPECT_FALSE(snap.models[0].resident);
  EXPECT_EQ(snap.models[1].lifecycle, LifecycleState::kResident);
  EXPECT_GT(snap.models[1].stats.requests, 0);

  fault::open_gate("registry.materialize");
  loader.join();
  ASSERT_TRUE(a_logits.has_value());
  expect_same_logits(*a_logits, want_a[0], "a after the gate opened");

  if (debug::kLockDebugEnabled) {
    // Cold load + held load + concurrent traffic + scrape: no lock was
    // ever acquired UNDER the registry mutex.
    debug::LockOrderRegistry& reg = debug::LockOrderRegistry::instance();
    EXPECT_FALSE(
        reg.has_edge("ModelRegistry::mu_", "InferenceService::mu_"));
    EXPECT_FALSE(
        reg.has_edge("ModelRegistry::mu_", "fault::FaultRegistry::mu_"));
  }
}

// Single-flight: K concurrent cold submits to one entry perform exactly ONE
// materialization (one registry.materialize hit, one artifact.open hit) and
// every thread still gets bit-identical values.
TEST_F(RegistryLifecycle, ConcurrentColdSubmitsSingleFlightTheLoad) {
  FaultZoo& zoo = FaultZoo::instance();
  ModelRegistry registry;
  registry.register_artifact("m", "v1", zoo.artifact_path);
  const Tensor want = zoo.reference_logits(1)[0];

  // Count-only arming for artifact.open (prob 0 never fires); the gate
  // holds the one loader so the herd provably arrives at an IN-FLIGHT load
  // instead of a fast serial chain.
  fault::arm_probability("artifact.open", 0.0);
  fault::arm_gate("registry.materialize");

  constexpr int kThreads = 6;
  std::vector<std::optional<Tensor>> logits(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      logits[static_cast<std::size_t>(t)] =
          registry.submit("m", "v1", zoo.data.test.sample(0)).get().logits;
    });
  }
  fault::wait_for_hits("registry.materialize", 1);
  fault::open_gate("registry.materialize");
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(fault::hits("registry.materialize"), 1)
      << "exactly one thread may claim the cold load";
  EXPECT_EQ(fault::hits("artifact.open"), 1)
      << "the herd must never pile onto the disk";
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(logits[static_cast<std::size_t>(t)].has_value())
        << "thread " << t;
    expect_same_logits(*logits[static_cast<std::size_t>(t)], want,
                       "thread " + std::to_string(t));
  }
}

// A waiter behind a stuck load sheds at ITS deadline with the pinned
// DeadlineExceeded error (counted in the entry's deadline_misses) instead
// of waiting forever; the gate never opens before the throw, so the
// timeout is certain, not a race.
TEST_F(RegistryLifecycle, WaiterShedsAtItsDeadlineDuringAStuckLoad) {
  FaultZoo& zoo = FaultZoo::instance();
  ModelRegistry registry;
  registry.register_artifact("m", "v1", zoo.artifact_path);
  fault::arm_gate("registry.materialize");
  std::thread loader([&] {
    registry.submit("m", "v1", zoo.data.test.sample(0)).get();
  });
  fault::wait_for_hits("registry.materialize", 1);

  SubmitOptions options;
  options.deadline_ms = 20.0;
  try {
    registry.submit("m", "v1", zoo.data.test.sample(0), options);
    FAIL() << "waiter behind a stuck load did not shed at its deadline";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(
        std::string(e.what()).find(InferenceService::kErrDeadlineExceeded),
        std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("loading"), std::string::npos)
        << e.what();
  }

  fault::open_gate("registry.materialize");
  loader.join();
  const RegistrySnapshot snap = registry.stats();
  ASSERT_EQ(snap.models.size(), 1u);
  EXPECT_EQ(snap.models[0].stats.deadline_misses, 1);
  EXPECT_EQ(snap.deadline_misses, 1);
  // The shed request did not poison the entry: traffic serves fine.
  expect_same_logits(
      registry.submit("m", "v1", zoo.data.test.sample(0)).get().logits,
      zoo.reference_logits(1)[0], "post-release");
}

// reload() while a load is in flight supersedes it: the parked loader's
// publish is discarded, its own retry loop re-materializes from the NEW
// artifact, and nothing is charged to the repointed entry's fresh health.
TEST_F(RegistryLifecycle, ReloadSupersedesAnInFlightLoad) {
  FaultZoo& zoo = FaultZoo::instance();
  const std::string new_path = temp_path("fault_supersede_v0.epim");
  zoo.deploy(0).save(new_path);
  ModelRegistry registry;
  registry.register_artifact("m", "v1", zoo.artifact_path);  // variant 1

  fault::arm_gate("registry.materialize");
  std::optional<Tensor> got;
  std::thread loader([&] {
    got = registry.submit("m", "v1", zoo.data.test.sample(0)).get().logits;
  });
  fault::wait_for_hits("registry.materialize", 1);

  // Repoint the version while its first load is provably in flight.
  registry.reload("m", "v1", new_path);
  fault::open_gate("registry.materialize");
  loader.join();

  // Two real load attempts (the superseded one + the retry), and the
  // caller's future resolved with the NEW artifact's bits.
  ASSERT_TRUE(got.has_value());
  expect_same_logits(*got, zoo.reference_logits(0)[0], "superseded load");
  EXPECT_EQ(fault::hits("registry.materialize"), 2);
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kHealthy);
  const RegistrySnapshot snap = registry.stats();
  ASSERT_EQ(snap.models.size(), 1u);
  EXPECT_EQ(snap.models[0].materialize_failures, 0)
      << "a superseded load must not charge the fresh health";
  std::filesystem::remove(new_path);
}

// ---- the tentpole invariant ----

// With any single fault point armed, concurrent mixed-model traffic must
// (1) resolve every future -- value or epim::Error; a hang here trips the
// ctest timeout -- with successes bit-identical to the fault-free run, and
// (2) recover fully once the fault is disarmed and backoff expires.
TEST_F(ChaosInvariant, EveryPointEveryRequestResolvesAndRecovers) {
  ThreadGuard guard;
  set_num_threads(2);
  FaultZoo& zoo = FaultZoo::instance();
  const std::vector<std::vector<Tensor>> want = {zoo.reference_logits(0),
                                                 zoo.reference_logits(1)};
  const char* points[] = {"registry.materialize", "artifact.open",
                          "artifact.read", "artifact.checksum",
                          "serve.run_batch", "serve.schedule"};
  for (const char* point : points) {
    SCOPED_TRACE(point);
    RegistryConfig cfg;
    cfg.health.quarantine_after = 3;
    cfg.health.backoff_base_ms = 5.0;
    cfg.health.backoff_max_ms = 50.0;
    ServeConfig serve = RegistryConfig::default_serve();
    serve.workers = 2;
    serve.max_batch = 4;
    serve.flush_deadline_ms = 0.5;
    cfg.serve = serve;
    ModelRegistry registry(cfg);
    // v1 is in-memory, v2 re-materializes from disk through every
    // artifact.* fault point.
    registry.register_model("m", "v1", zoo.deploy(0));
    registry.register_artifact("m", "v2", zoo.artifact_path);

    fault::arm_probability(point, 0.25, 0x5EEDu);
    constexpr int kThreads = 3;
    constexpr int kPerThread = 30;
    std::vector<std::vector<std::future<InferenceResult>>> futures(kThreads);
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> meta(
        kThreads);  // (variant, image index)
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < kPerThread; ++r) {
          const std::size_t variant = static_cast<std::size_t>((t + r) % 2);
          const std::size_t image = static_cast<std::size_t>(
              r % zoo.data.test.size());
          const std::string version = variant == 0 ? "v1" : "v2";
          try {
            futures[static_cast<std::size_t>(t)].push_back(registry.submit(
                "m", version,
                zoo.data.test.sample(static_cast<std::int64_t>(image))));
            meta[static_cast<std::size_t>(t)].push_back({variant, image});
          } catch (const Error&) {
            // Submission itself may fast-fail (breaker open) -- that IS a
            // resolution for this request.
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    std::int64_t ok = 0;
    std::int64_t failed = 0;
    for (std::size_t t = 0; t < futures.size(); ++t) {
      for (std::size_t i = 0; i < futures[t].size(); ++i) {
        const auto [variant, image] = meta[t][i];
        try {
          expect_same_logits(futures[t][i].get().logits,
                             want[variant][image],
                             "point " + std::string(point) + " thread " +
                                 std::to_string(t) + " req " +
                                 std::to_string(i));
          ok += 1;
        } catch (const Error&) {
          failed += 1;
        }
      }
    }
    EXPECT_GT(ok + failed, 0);
    EXPECT_GT(fault::hits(point), 0)
        << "traffic never evaluated the armed point";

    // Recovery: disarm, wait out any backoff window, and every model must
    // serve bit-identical values again (bounded retry, not a sleep guess).
    fault::disarm_all();
    for (std::size_t variant = 0; variant < 2; ++variant) {
      const std::string version = variant == 0 ? "v1" : "v2";
      bool recovered = false;
      for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
        try {
          expect_same_logits(
              registry.submit("m", version, zoo.data.test.sample(0))
                  .get()
                  .logits,
              want[variant][0], "recovery " + version);
          recovered = true;
        } catch (const Error&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
      EXPECT_TRUE(recovered)
          << version << " did not recover after disarming " << point;
    }
  }
}

// Companion smoke used by the CI chaos job with EPIM_FAULT set in the
// environment: whatever the env armed (possibly nothing, when run as part
// of the plain suite), traffic resolves and successes stay bit-identical.
// Deliberately does NOT disarm first -- the env arming must survive into
// the traffic.
TEST(EnvSmoke, TrafficResolvesUnderEnvArmedFaults) {
  FaultZoo& zoo = FaultZoo::instance();
  const std::vector<Tensor> want = zoo.reference_logits(0);
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.flush_deadline_ms = 0.5;
  InferenceService service(zoo.deploy(0), cfg);
  std::vector<std::future<InferenceResult>> futures;
  for (int round = 0; round < 5; ++round) {
    for (std::int64_t i = 0; i < zoo.data.test.size(); ++i) {
      futures.push_back(service.submit(zoo.data.test.sample(i)));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      expect_same_logits(futures[i].get().logits,
                         want[i % want.size()],
                         "env-smoke req " + std::to_string(i));
    } catch (const Error&) {
      // An env-armed fault resolved this request with a pinned error: fine.
    }
  }
  fault::disarm_all();
}

// ---- lock order (needs -DEPIM_LOCK_DEBUG=ON; GTEST_SKIPs elsewhere) ----

TEST_F(FaultLockdep, FaultPointsEvaluateWithNoRegistryLockHeld) {
  if (!debug::kLockDebugEnabled) {
    GTEST_SKIP() << "built without EPIM_LOCK_DEBUG; Mutex does not feed the "
                    "lockdep registry";
  }
  FaultZoo& zoo = FaultZoo::instance();
  debug::LockOrderRegistry& reg = debug::LockOrderRegistry::instance();
  std::vector<std::string> violations;
  auto previous = reg.set_violation_handler(
      [&violations](const std::string& report) {
        violations.push_back(report);
      });
  reg.reset();

  {
    // Armed (prob 0, never fires): materialization evaluates the point --
    // but since PR 8 the load runs with the registry lock DROPPED, so even
    // an armed evaluation records NO edge between the registry mutex and
    // the fault mutex, in either direction. The fault mutex stays a leaf
    // taken with no other epim lock held.
    ModelRegistry registry;
    registry.register_model("m", "v1", zoo.deploy(0));
    fault::arm_probability("registry.materialize", 0.0);
    registry.submit("m", "v1", zoo.data.test.sample(0)).get();
    EXPECT_GT(fault::hits("registry.materialize"), 0)
        << "the armed point was never evaluated";
    EXPECT_FALSE(
        reg.has_edge("ModelRegistry::mu_", "fault::FaultRegistry::mu_"))
        << "materialization must not hold the registry lock at fault points";
    EXPECT_FALSE(
        reg.has_edge("fault::FaultRegistry::mu_", "ModelRegistry::mu_"))
        << "the fault mutex must stay a leaf";
  }

  // The healthy hot path with nothing armed takes NO fault lock at all:
  // a fresh registry driving cold + warm traffic records no such edge.
  fault::disarm_all();
  reg.reset();
  {
    ModelRegistry registry;
    registry.register_model("m", "v1", zoo.deploy(0));
    registry.submit("m", "v1", zoo.data.test.sample(0)).get();  // cold
    registry.submit("m", "v1", zoo.data.test.sample(1)).get();  // warm
    EXPECT_FALSE(
        reg.has_edge("ModelRegistry::mu_", "fault::FaultRegistry::mu_"))
        << "disarmed fault points must not acquire the fault mutex";
  }
  EXPECT_TRUE(violations.empty()) << violations.front();
  reg.set_violation_handler(std::move(previous));
  reg.reset();
}

}  // namespace
}  // namespace epim
