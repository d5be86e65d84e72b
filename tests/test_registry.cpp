// Tests for the multi-model registry + router (registry/registry.hpp):
// bit-identical routing vs direct service submission under concurrent
// mixed-model load, LRU eviction with bit-identical re-materialization
// through `.epim` artifacts, deterministic seeded traffic splits, admission
// control (reject, never block), aliases, hot reload, and fleet stats
// aggregation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "common/error.hpp"
#include "common/fault_inject.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/resnet.hpp"
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

/// Disarm every fault point (releasing parked gate hits) on scope exit.
/// Declare it AFTER the registry, so a failed assertion releases the gates
/// before the registry's teardown drains the parked services.
struct FaultGuard {
  FaultGuard() { fault::disarm_all(); }
  ~FaultGuard() { fault::disarm_all(); }
};

/// One trained net + three deployment variants (distinct precisions, so
/// their logits differ), shared across all tests in this file.
struct ZooFixture {
  SyntheticData data;
  SmallEpitomeNet net;
  std::vector<PipelineConfig> cfgs;

  ZooFixture()
      : data(make_synthetic_data([] {
          SyntheticSpec spec;
          spec.num_classes = 4;
          spec.train_per_class = 12;
          spec.test_per_class = 8;
          return spec;
        }())),
        net([] {
          SmallNetConfig nc;
          nc.num_classes = 4;
          return nc;
        }()) {
    TrainConfig tcfg;
    tcfg.epochs = 2;
    train_model(net, data, tcfg);
    for (const auto& [w, a] : {std::pair{6, 8}, {5, 7}, {4, 6}}) {
      PipelineConfig cfg;
      cfg.precision = PrecisionPlan::uniform(w, a);
      cfgs.push_back(cfg);
    }
  }

  /// Deployment is deterministic, so every call with the same variant
  /// yields a bit-identical model -- the reference trick all the routing
  /// tests rely on.
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

  /// Reference logits of one variant, computed on the serial direct path.
  std::vector<Tensor> reference_logits(std::size_t variant) const {
    DeployedModel chip = deploy(variant);
    std::vector<Tensor> logits;
    for (std::int64_t i = 0; i < data.test.size(); ++i) {
      logits.push_back(chip.forward(data.test.sample(i)));
    }
    return logits;
  }

  static ZooFixture& instance() {
    static ZooFixture fixture;
    return fixture;
  }
};

void expect_same_logits(const Tensor& got, const Tensor& want,
                        const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  for (std::int64_t j = 0; j < got.numel(); ++j) {
    EXPECT_EQ(got.at(j), want.at(j)) << context << " logit " << j;
  }
}

// ---- registration + resolution ----

TEST(ModelRegistry, ValidatesRegistrationArguments) {
  ZooFixture& fx = ZooFixture::instance();
  ModelRegistry registry;
  registry.register_model("m", "v1", fx.deploy(0));
  // Duplicate version, '@' in components, empty components.
  EXPECT_THROW(registry.register_model("m", "v1", fx.deploy(0)),
               InvalidArgument);
  EXPECT_THROW(registry.register_model("a@b", "v1", fx.deploy(0)),
               InvalidArgument);
  EXPECT_THROW(registry.register_model("m", "", fx.deploy(0)),
               InvalidArgument);
  // Artifact registration probes the path up front.
  EXPECT_THROW(registry.register_artifact("m", "v2", temp_path("nope.epim")),
               InvalidArgument);
  // A compiled-model artifact is the wrong kind for serving.
  const std::string compiled = temp_path("registry_compiled.epim");
  Pipeline{PipelineConfig{}}.compile(mini_resnet()).save(compiled);
  EXPECT_THROW(registry.register_artifact("m", "v2", compiled),
               InvalidArgument);
  std::remove(compiled.c_str());
}

TEST(ModelRegistry, ResolvesVersionsAliasesAndBareNames) {
  ZooFixture& fx = ZooFixture::instance();
  ModelRegistry registry;
  registry.register_model("m", "v1", fx.deploy(0));

  // Sole version resolves bare.
  EXPECT_EQ(registry.resolve("m", -1.0).second, "v1");
  registry.register_model("m", "v2", fx.deploy(1));
  // Two versions, no split, no default alias: ambiguous.
  EXPECT_THROW(registry.resolve("m", -1.0), InvalidArgument);

  registry.set_alias("m", "prod", "v1");
  EXPECT_EQ(registry.resolve("m@prod", -1.0).second, "v1");
  registry.set_alias("m", "prod", "v2");  // re-pointing is allowed
  EXPECT_EQ(registry.resolve("m@prod", -1.0).second, "v2");
  registry.set_alias("m", "default", "v1");
  EXPECT_EQ(registry.resolve("m", -1.0).second, "v1");

  // Shadowing in either direction is rejected.
  EXPECT_THROW(registry.set_alias("m", "v1", "v2"), InvalidArgument);
  EXPECT_THROW(registry.register_model("m", "prod", fx.deploy(0)),
               InvalidArgument);

  EXPECT_THROW(registry.resolve("m@v9", -1.0), InvalidArgument);
  EXPECT_THROW(registry.resolve("ghost@v1", -1.0), InvalidArgument);
  EXPECT_THROW(registry.resolve("m@", -1.0), InvalidArgument);
  EXPECT_EQ(registry.versions("m"), (std::vector<std::string>{"v1", "v2"}));
}

// ---- routing correctness ----

TEST(Router, BitIdenticalToDirectServiceUnderConcurrentMixedModelLoad) {
  ThreadGuard guard;
  set_num_threads(2);  // exercise shared-pool fan-out under mixed load
  ZooFixture& fx = ZooFixture::instance();

  const std::vector<std::string> names = {"resnet_a", "resnet_b", "resnet_c"};
  std::vector<std::vector<Tensor>> expected;
  RegistryConfig rcfg;  // budget 4 > 3: no eviction in this test
  // Every service runs several continuous-batching workers, so the fleet
  // has multiple batches in flight PER MODEL on top of the mixed-model
  // concurrency -- the full PR 5 scheduler under load.
  rcfg.serve.workers = 3;
  ModelRegistry registry(rcfg);
  for (std::size_t v = 0; v < names.size(); ++v) {
    expected.push_back(fx.reference_logits(v));
    registry.register_model(names[v], "v1", fx.deploy(v));
  }
  Router router(registry);

  // One submitter thread per model, all pushing interleaved singles at
  // once; every logit must match the serial direct-path reference bit for
  // bit even though nine batch workers (three per service) share one pool.
  std::vector<std::thread> submitters;
  std::vector<std::string> failures(names.size());
  for (std::size_t v = 0; v < names.size(); ++v) {
    submitters.emplace_back([&, v] {
      std::vector<std::future<InferenceResult>> pending;
      for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
        pending.push_back(
            router.submit(names[v] + "@v1", fx.data.test.sample(i)));
      }
      for (std::size_t i = 0; i < pending.size(); ++i) {
        const InferenceResult r = pending[i].get();
        const Tensor& want = expected[v][i];
        if (r.logits.shape() != want.shape()) {
          failures[v] = "shape mismatch at image " + std::to_string(i);
          return;
        }
        for (std::int64_t j = 0; j < want.numel(); ++j) {
          if (r.logits.at(j) != want.at(j)) {
            failures[v] = "logit mismatch at image " + std::to_string(i) +
                          " logit " + std::to_string(j);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (std::size_t v = 0; v < names.size(); ++v) {
    EXPECT_EQ(failures[v], "") << names[v];
  }

  const RegistrySnapshot snapshot = registry.stats();
  EXPECT_EQ(snapshot.resident, 3);
  EXPECT_EQ(snapshot.workers, 9);  // 3 resident services x 3 workers each
  EXPECT_EQ(snapshot.requests, 3 * fx.data.test.size());
  EXPECT_EQ(snapshot.rejected, 0);
  EXPECT_EQ(snapshot.evictions, 0);
  for (const ModelSnapshot& m : snapshot.models) {
    EXPECT_EQ(m.workers, 3) << m.name;
    EXPECT_EQ(m.stats.workers, 3) << m.name;
  }
}

TEST(ModelRegistry, LazyMaterializationAndLruEvictionRoundTripArtifacts) {
  ZooFixture& fx = ZooFixture::instance();
  const std::string path_a = temp_path("registry_evict_a.epim");
  const std::string path_b = temp_path("registry_evict_b.epim");
  fx.deploy(0).save(path_a);
  fx.deploy(1).save(path_b);
  const std::vector<Tensor> expected_a = fx.reference_logits(0);
  const std::vector<Tensor> expected_b = fx.reference_logits(1);

  RegistryConfig rcfg;
  rcfg.max_resident_models = 1;
  ModelRegistry registry(rcfg);
  registry.register_artifact("a", "v1", path_a);
  registry.register_artifact("b", "v1", path_b);
  EXPECT_FALSE(registry.resident("a", "v1"));  // registration is lazy
  EXPECT_FALSE(registry.resident("b", "v1"));

  const auto check = [&](const std::string& name,
                         const std::vector<Tensor>& expected) {
    for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
      const InferenceResult r =
          registry.submit(name, "v1", fx.data.test.sample(i)).get();
      expect_same_logits(r.logits, expected[static_cast<std::size_t>(i)],
                         name + " image " + std::to_string(i));
    }
  };

  check("a", expected_a);  // materializes a
  EXPECT_TRUE(registry.resident("a", "v1"));
  check("b", expected_b);  // budget 1: evicts a
  EXPECT_FALSE(registry.resident("a", "v1"));
  EXPECT_TRUE(registry.resident("b", "v1"));
  check("a", expected_a);  // re-materializes a from its artifact, bit-identical
  EXPECT_TRUE(registry.resident("a", "v1"));
  EXPECT_FALSE(registry.resident("b", "v1"));

  const RegistrySnapshot snapshot = registry.stats();
  EXPECT_EQ(snapshot.resident, 1);
  EXPECT_EQ(snapshot.evictions, 2);  // a once, b once
  // Retired counters survive eviction: every completed request is counted.
  EXPECT_EQ(snapshot.requests, 3 * fx.data.test.size());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ModelRegistry, EvictionKeepsInMemoryModelsServable) {
  ZooFixture& fx = ZooFixture::instance();
  const std::vector<Tensor> expected_a = fx.reference_logits(0);
  const std::vector<Tensor> expected_b = fx.reference_logits(1);

  RegistryConfig rcfg;
  rcfg.max_resident_models = 1;
  // Multi-worker services: the eviction below must drain and join ALL of
  // the victim's workers, in-flight batches included.
  rcfg.serve.workers = 2;
  rcfg.serve.max_batch = 2;
  ModelRegistry registry(rcfg);
  registry.register_model("a", "v1", fx.deploy(0));  // no artifact backing
  registry.register_model("b", "v1", fx.deploy(1));

  const Tensor probe = fx.data.test.sample(0);
  expect_same_logits(registry.submit("a", "v1", probe).get().logits,
                     expected_a[0], "a warm");
  // Load up a's workers with un-awaited traffic, then evict it by touching
  // b: every one of a's futures must resolve (on a's weights) before the
  // eviction completes.
  std::vector<Tensor> burst(8, probe);
  auto pending = registry.submit_batch("a", "v1", std::move(burst));
  expect_same_logits(registry.submit("b", "v1", probe).get().logits,
                     expected_b[0], "b evicts a");
  EXPECT_FALSE(registry.resident("a", "v1"));
  for (auto& f : pending) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    expect_same_logits(f.get().logits, expected_a[0], "a drained on evict");
  }
  // Cold entries still report their configured worker policy.
  for (const ModelSnapshot& m : registry.stats().models) {
    EXPECT_EQ(m.workers, 2) << m.name;
  }
  // The detached model moved back into the entry; serving it again works
  // and stays bit-identical.
  expect_same_logits(registry.submit("a", "v1", probe).get().logits,
                     expected_a[0], "a re-materialized from memory");
}

// ---- weighted splits ----

TEST(Router, WeightedSplitRoutesPinnedSequenceDeterministically) {
  ZooFixture& fx = ZooFixture::instance();
  ModelRegistry registry;
  registry.register_model("m", "v1", fx.deploy(0));
  registry.register_model("m", "v2", fx.deploy(1));
  registry.set_split("m", {{"v1", 0.7}, {"v2", 0.3}});
  EXPECT_TRUE(registry.has_split("m"));

  // The expected sequence is exactly what the router's seeded Rng dictates:
  // draw < 0.7 -> v1, else v2.
  constexpr std::uint64_t kSeed = 0xC0FFEEu;
  Rng mirror(kSeed);
  std::vector<std::string> expected;
  for (int i = 0; i < 32; ++i) {
    expected.push_back(mirror.uniform() < 0.7 ? "v1" : "v2");
  }

  Router router(registry, kSeed);
  std::vector<std::string> routed;
  for (int i = 0; i < 32; ++i) routed.push_back(router.route("m").second);
  EXPECT_EQ(routed, expected);

  // Same seed, fresh router: identical sequence (determinism, not luck).
  Router replay(registry, kSeed);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(replay.route("m").second, expected[static_cast<std::size_t>(i)])
        << "draw " << i;
  }

  // Explicit targets never consume a draw: the split sequence of a third
  // router is unperturbed by interleaved version-pinned traffic.
  Router mixed(registry, kSeed);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(mixed.route("m@v1").second, "v1");
    EXPECT_EQ(mixed.route("m").second, expected[static_cast<std::size_t>(i)])
        << "draw " << i;
  }

  // And the split actually steers traffic: submit along the pinned
  // sequence, then check per-version request counts.
  Router traffic(registry, kSeed);
  std::vector<std::future<InferenceResult>> pending;
  for (int i = 0; i < 32; ++i) {
    pending.push_back(traffic.submit("m", fx.data.test.sample(0)));
  }
  for (auto& f : pending) (void)f.get();
  std::int64_t want_v1 = 0;
  for (const std::string& v : expected) want_v1 += v == "v1";
  for (const ModelSnapshot& m : registry.stats().models) {
    EXPECT_EQ(m.stats.requests, m.version == "v1" ? want_v1 : 32 - want_v1)
        << m.version;
  }
}

TEST(ModelRegistry, ValidatesSplits) {
  ZooFixture& fx = ZooFixture::instance();
  ModelRegistry registry;
  registry.register_model("m", "v1", fx.deploy(0));
  EXPECT_THROW(registry.set_split("m", {}), InvalidArgument);
  EXPECT_THROW(registry.set_split("m", {{"ghost", 1.0}}), InvalidArgument);
  EXPECT_THROW(registry.set_split("m", {{"v1", 0.0}}), InvalidArgument);
  EXPECT_THROW(registry.set_split("m", {{"v1", 0.5}, {"v1", 0.5}}),
               InvalidArgument);
  EXPECT_THROW(registry.set_split("ghost", {{"v1", 1.0}}), InvalidArgument);

  registry.set_split("m", {{"v1", 2.0}});
  EXPECT_TRUE(registry.has_split("m"));
  // resolve() on a split target insists on a real draw.
  EXPECT_THROW(registry.resolve("m", -1.0), InvalidArgument);
  EXPECT_EQ(registry.resolve("m", 0.999).second, "v1");
  registry.clear_split("m");
  EXPECT_FALSE(registry.has_split("m"));
  EXPECT_EQ(registry.resolve("m", -1.0).second, "v1");  // sole version again
}

// ---- admission control ----

TEST(ModelRegistry, AdmissionControlRejectsInsteadOfBlocking) {
  ZooFixture& fx = ZooFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 64;               // never fills from 4 requests
  scfg.flush_deadline_ms = 10000.0;  // no deadline flush during the test
  scfg.max_queue = 4;
  std::vector<std::future<InferenceResult>> admitted;
  {
    ModelRegistry registry;
    registry.register_model("m", "v1", fx.deploy(0), scfg);
    Router router(registry);
    for (int i = 0; i < 4; ++i) {
      admitted.push_back(router.submit("m", fx.data.test.sample(0)));
    }
    // Queue is at the bound: the next submission must fail fast with
    // Unavailable -- not block until the deadline, not grow the queue.
    try {
      (void)router.submit("m", fx.data.test.sample(0));
      FAIL() << "expected Unavailable";
    } catch (const Unavailable& e) {
      EXPECT_NE(std::string(e.what()).find(InferenceService::kErrQueueFull),
                std::string::npos)
          << e.what();
    }
    // Burst admission is all-or-nothing: 2 more would fit only partially.
    std::vector<Tensor> burst(3, fx.data.test.sample(0));
    EXPECT_THROW(router.submit_batch("m", std::move(burst)), Unavailable);

    RegistrySnapshot snapshot = registry.stats();
    EXPECT_EQ(snapshot.rejected, 1 + 3);
    EXPECT_EQ(snapshot.queued, 4);
  }  // teardown drains the queue without waiting out the 10 s deadline
  // The admitted requests were unharmed by the rejections.
  for (auto& f : admitted) {
    EXPECT_EQ(f.get().logits.numel(), 4);
  }
}

// ---- hot reload ----

TEST(ModelRegistry, ReloadHotSwapsAndDrainsInFlightOnOldVersion) {
  ZooFixture& fx = ZooFixture::instance();
  const std::string path_a = temp_path("registry_reload_a.epim");
  const std::string path_b = temp_path("registry_reload_b.epim");
  fx.deploy(0).save(path_a);
  fx.deploy(1).save(path_b);
  const std::vector<Tensor> expected_a = fx.reference_logits(0);
  const std::vector<Tensor> expected_b = fx.reference_logits(1);

  ModelRegistry registry;
  // Multi-worker entry: the hot swap drains every worker of the outgoing
  // service outside the registry lock.
  ServeConfig scfg = RegistryConfig::default_serve();
  scfg.workers = 2;
  registry.register_artifact("m", "v1", path_a, scfg);
  const Tensor probe = fx.data.test.sample(0);
  expect_same_logits(registry.submit("m", "v1", probe).get().logits,
                     expected_a[0], "before reload");

  // Submit but do not await: the reload must drain this in-flight request
  // on the OLD weights (its future resolves with old-model logits).
  std::future<InferenceResult> in_flight = registry.submit("m", "v1", probe);
  registry.reload("m", "v1", path_b);
  expect_same_logits(in_flight.get().logits, expected_a[0],
                     "in-flight drained on old weights");

  // New traffic sees the new artifact.
  expect_same_logits(registry.submit("m", "v1", probe).get().logits,
                     expected_b[0], "after reload");
  // History survives the swap: 2 old + 1 new completed requests.
  const RegistrySnapshot snapshot = registry.stats();
  EXPECT_EQ(snapshot.requests, 3);

  EXPECT_THROW(registry.reload("m", "ghost", path_b), InvalidArgument);
  EXPECT_THROW(registry.reload("ghost", "v1", path_b), InvalidArgument);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// ---- stats ----

TEST(ModelRegistry, SnapshotAggregatesAndResetStartsNewInterval) {
  ZooFixture& fx = ZooFixture::instance();
  ModelRegistry registry;
  registry.register_model("a", "v1", fx.deploy(0));
  registry.register_model("b", "v1", fx.deploy(1));

  std::vector<std::future<InferenceResult>> pending;
  for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
    pending.push_back(registry.submit("a", "v1", fx.data.test.sample(i)));
    pending.push_back(registry.submit("b", "v1", fx.data.test.sample(i)));
  }
  for (auto& f : pending) (void)f.get();

  const RegistrySnapshot snapshot = registry.stats();
  EXPECT_EQ(snapshot.models.size(), 2u);
  EXPECT_EQ(snapshot.resident, 2);
  EXPECT_EQ(snapshot.requests, 2 * fx.data.test.size());
  EXPECT_GT(snapshot.items_per_sec, 0.0);
  EXPECT_GT(snapshot.p50_latency_ms, 0.0);
  EXPECT_LE(snapshot.p50_latency_ms, snapshot.p99_latency_ms);
  for (const ModelSnapshot& m : snapshot.models) {
    EXPECT_EQ(m.version, "v1");
    EXPECT_TRUE(m.resident);
    EXPECT_EQ(m.stats.requests, fx.data.test.size()) << m.name;
  }

  registry.reset_stats();
  const RegistrySnapshot fresh = registry.stats();
  EXPECT_EQ(fresh.requests, 0);
  EXPECT_EQ(fresh.p50_latency_ms, 0.0);
  EXPECT_EQ(fresh.resident, 2);  // reset is about traffic, not residency

  // The next interval counts from zero.
  (void)registry.submit("a", "v1", fx.data.test.sample(0)).get();
  EXPECT_EQ(registry.stats().requests, 1);
}

// Fleet and per-model percentiles come from one digest: with a single
// resident model, the fleet merge of its interval histogram IS that
// histogram, so the two snapshots must agree exactly.
TEST(ModelRegistry, FleetPercentilesEqualTheOnlyResidentModels) {
  ZooFixture& fx = ZooFixture::instance();
  ModelRegistry registry;
  registry.register_model("a", "v1", fx.deploy(0));
  std::vector<std::future<InferenceResult>> pending;
  for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
    pending.push_back(registry.submit("a", "v1", fx.data.test.sample(i)));
  }
  for (auto& f : pending) (void)f.get();

  const RegistrySnapshot snapshot = registry.stats();
  ASSERT_EQ(snapshot.models.size(), 1u);
  const ServiceStats& model = snapshot.models[0].stats;
  ASSERT_EQ(model.requests, fx.data.test.size());
  EXPECT_GT(snapshot.p50_latency_ms, 0.0);
  EXPECT_EQ(snapshot.p50_latency_ms, model.p50_latency_ms);
  EXPECT_EQ(snapshot.p99_latency_ms, model.p99_latency_ms);
}

// ---- artifact rot between registration and first materialization ----
// register_artifact only probes the file; the bytes are trusted again at
// every (re-)materialization, so a file deleted or corrupted in between
// must fail retryably (Unavailable + degraded health) and recover once the
// file is repaired and the backoff window expires.

TEST(RegistryArtifact, DeletedAfterRegistrationFailsRetryablyAndRecovers) {
  ZooFixture& fx = ZooFixture::instance();
  const std::string path = temp_path("registry_rot_deleted.epim");
  fx.deploy(1).save(path);
  RegistryConfig cfg;
  cfg.health.backoff_base_ms = 1.0;
  cfg.health.backoff_max_ms = 5.0;
  ModelRegistry registry(cfg);
  registry.register_artifact("m", "v1", path);  // probe passes...
  std::remove(path.c_str());                    // ...then the file vanishes

  try {
    (void)registry.submit("m", "v1", fx.data.test.sample(0));
    FAIL() << "materialized from a deleted artifact";
  } catch (const Unavailable& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(ModelRegistry::kErrMaterializeFailed),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(artifact::kErrCannotOpen), std::string::npos)
        << what;
  }
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kDegraded);
  ASSERT_EQ(registry.stats().models.size(), 1u);
  EXPECT_EQ(registry.stats().models[0].materialize_failures, 1);

  // Repair the file; past the (tiny) backoff window the same entry
  // materializes and answers bit-identically to the original deployment.
  fx.deploy(1).save(path);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  expect_same_logits(
      registry.submit("m", "v1", fx.data.test.sample(0)).get().logits,
      fx.reference_logits(1)[0], "post-repair");
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kHealthy);
  std::remove(path.c_str());
}

TEST(RegistryArtifact, CorruptedAfterRegistrationIsRejectedByChecksum) {
  ZooFixture& fx = ZooFixture::instance();
  const std::string path = temp_path("registry_rot_corrupt.epim");
  fx.deploy(1).save(path);
  RegistryConfig cfg;
  cfg.health.backoff_base_ms = 1.0;
  cfg.health.backoff_max_ms = 5.0;
  ModelRegistry registry(cfg);
  registry.register_artifact("m", "v1", path);

  // Flip one payload bit on disk after registration.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::vector<char> corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }

  try {
    (void)registry.submit("m", "v1", fx.data.test.sample(0));
    FAIL() << "materialized from a corrupted artifact";
  } catch (const Unavailable& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(ModelRegistry::kErrMaterializeFailed),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(artifact::kErrChecksum), std::string::npos) << what;
  }
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kDegraded);

  // Restore the pristine bytes: recovery is bit-identical.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  expect_same_logits(
      registry.submit("m", "v1", fx.data.test.sample(0)).get().logits,
      fx.reference_logits(1)[0], "post-restore");
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kHealthy);
  std::remove(path.c_str());
}

TEST(RegistryArtifact, RepeatedLoadFailuresQuarantineUntilRepaired) {
  ZooFixture& fx = ZooFixture::instance();
  const std::string path = temp_path("registry_rot_quarantine.epim");
  fx.deploy(0).save(path);
  RegistryConfig cfg;
  cfg.health.quarantine_after = 2;
  cfg.health.backoff_base_ms = 1.0;
  cfg.health.backoff_max_ms = 5.0;
  ModelRegistry registry(cfg);
  registry.register_artifact("m", "v1", path);
  std::remove(path.c_str());

  // Two real load attempts (each past the previous backoff window) open
  // the breaker.
  EXPECT_THROW((void)registry.submit("m", "v1", fx.data.test.sample(0)),
               Unavailable);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_THROW((void)registry.submit("m", "v1", fx.data.test.sample(0)),
               Unavailable);
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kQuarantined);
  EXPECT_EQ(registry.stats().quarantined, 1);

  // Inside the window the breaker fast-fails with the pinned message.
  try {
    (void)registry.submit("m", "v1", fx.data.test.sample(0));
    FAIL() << "quarantined model accepted a request";
  } catch (const Unavailable& e) {
    EXPECT_NE(std::string(e.what()).find(ModelRegistry::kErrQuarantined),
              std::string::npos)
        << e.what();
  }

  // Repair + window expiry: the half-open probe closes the breaker.
  fx.deploy(0).save(path);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  expect_same_logits(
      registry.submit("m", "v1", fx.data.test.sample(0)).get().logits,
      fx.reference_logits(0)[0], "post-repair");
  EXPECT_EQ(registry.health("m", "v1"), HealthState::kHealthy);
  EXPECT_EQ(registry.stats().quarantined, 0);
  std::remove(path.c_str());
}

// ---- submission checks run before any load ----
// An invalid submission must be rejected before the registry does any work
// for it: a cold entry stays cold, and a request behind an in-flight load
// fails with InvalidArgument instead of waiting out its deadline.

TEST(RegistrySubmission, BadPriorityOnAColdEntryStaysCold) {
  ZooFixture& fx = ZooFixture::instance();
  ModelRegistry registry;
  registry.register_model("m", "v1", fx.deploy(0));
  SubmitOptions options;
  options.priority = static_cast<Priority>(7);
  try {
    (void)registry.submit("m", "v1", fx.data.test.sample(0), options);
    FAIL() << "an out-of-range priority was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("priority is out of range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(registry.resident("m", "v1"));
  ASSERT_EQ(registry.stats().models.size(), 1u);
  EXPECT_EQ(registry.stats().models[0].lifecycle, LifecycleState::kCold);
}

TEST(RegistrySubmission, NegativeDeadlineOrEmptyBurstOnAColdEntryStaysCold) {
  ZooFixture& fx = ZooFixture::instance();
  ModelRegistry registry;
  registry.register_model("m", "v1", fx.deploy(0));
  SubmitOptions options;
  options.deadline_ms = -1.0;
  try {
    (void)registry.submit("m", "v1", fx.data.test.sample(0), options);
    FAIL() << "a negative deadline was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("deadline_ms must be non-negative"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(registry.resident("m", "v1"));
  EXPECT_THROW((void)registry.submit_batch("m", "v1", {}), InvalidArgument);
  EXPECT_FALSE(registry.resident("m", "v1"));
}

TEST(RegistrySubmission, BadPriorityBehindALoadingEntryIsInvalidArgument) {
  ZooFixture& fx = ZooFixture::instance();
  ModelRegistry registry;
  registry.register_model("m", "v1", fx.deploy(0));
  FaultGuard faults;
  fault::arm_gate("registry.materialize");
  std::thread loader([&] {
    (void)registry.submit("m", "v1", fx.data.test.sample(0)).get();
  });
  fault::wait_for_hits("registry.materialize", 1);

  // The entry is provably kLoading. A deadline bounds the wait, so a
  // request that is (wrongly) parked behind the load sheds instead of
  // hanging the test.
  SubmitOptions options;
  options.priority = static_cast<Priority>(7);
  options.deadline_ms = 20.0;
  EXPECT_THROW(
      (void)registry.submit("m", "v1", fx.data.test.sample(0), options),
      InvalidArgument);

  fault::open_gate("registry.materialize");
  loader.join();
  const RegistrySnapshot snap = registry.stats();
  ASSERT_EQ(snap.models.size(), 1u);
  EXPECT_EQ(snap.models[0].stats.deadline_misses, 0);
  EXPECT_EQ(snap.models[0].stats.requests, 1);
}

// RegistrySnapshot::workers counts the batch workers alive now: an adaptive
// pool grown past its floor reports its live size, not ServeConfig::workers.
TEST(RegistrySnapshot, WorkersCountsLiveAdaptivePoolWorkers) {
  ZooFixture& fx = ZooFixture::instance();
  ServeConfig scfg = RegistryConfig::default_serve();
  scfg.workers = 1;
  scfg.max_workers = 3;
  scfg.max_batch = 1;
  ModelRegistry registry;
  registry.register_model("m", "v1", fx.deploy(0), scfg);
  FaultGuard faults;
  // Each batch parks at the gate, so its worker stays busy and the next
  // single finds no idle worker: the pool grows by one slot per submit.
  fault::arm_gate("serve.run_batch");
  std::vector<std::future<InferenceResult>> pending;
  for (int i = 1; i <= 3; ++i) {
    pending.push_back(registry.submit("m", "v1", fx.data.test.sample(0)));
    fault::wait_for_hits("serve.run_batch", i);
  }

  const RegistrySnapshot snap = registry.stats();
  ASSERT_EQ(snap.models.size(), 1u);
  EXPECT_EQ(snap.models[0].stats.live_workers, 3);
  EXPECT_EQ(snap.workers, 3);
  EXPECT_EQ(snap.models[0].workers, 1);  // the configured floor

  fault::open_gate("serve.run_batch");
  for (auto& f : pending) (void)f.get();
}

/// The counter fields of a ServiceStats that the registry folds across
/// retired services.
void expect_same_counters(const ServiceStats& got, const ServiceStats& want,
                          const std::string& context) {
  EXPECT_EQ(got.requests, want.requests) << context;
  EXPECT_EQ(got.batches, want.batches) << context;
  EXPECT_EQ(got.clip_events, want.clip_events) << context;
  EXPECT_EQ(got.rejected, want.rejected) << context;
  EXPECT_EQ(got.deadline_misses, want.deadline_misses) << context;
  EXPECT_EQ(got.completed_by_priority, want.completed_by_priority) << context;
  EXPECT_EQ(got.deadline_misses_by_priority, want.deadline_misses_by_priority)
      << context;
}

const ModelSnapshot& model_of(const RegistrySnapshot& snap,
                              const std::string& name) {
  for (const ModelSnapshot& m : snap.models) {
    if (m.name == name) return m;
  }
  throw InvalidArgument("no model " + name + " in the snapshot");
}

// Every counter of ModelSnapshot::stats -- not just requests -- survives an
// LRU eviction and a reload(), a load-wait deadline shed is counted under
// its priority, and reset_stats() zeroes all of them.
TEST(ModelRegistry, EveryCounterSurvivesEvictionAndReload) {
  ZooFixture& fx = ZooFixture::instance();
  const std::string path_a = temp_path("registry_fold_a.epim");
  // A starved ADC, so the fold of clip_events is observable.
  PipelineConfig clipping = fx.cfgs.at(0);
  clipping.hardware.deploy_adc_bits = 3;
  Pipeline(clipping).deploy(fx.net, fx.data.train).save(path_a);
  constexpr auto kInteractive =
      static_cast<std::size_t>(Priority::kInteractive);
  constexpr auto kNormal = static_cast<std::size_t>(Priority::kNormal);
  constexpr auto kBulk = static_cast<std::size_t>(Priority::kBulk);

  RegistryConfig rcfg;
  rcfg.max_resident_models = 1;
  ServeConfig scfg = RegistryConfig::default_serve();
  scfg.max_batch = 1;  // one batch per request, so batches == requests
  scfg.max_queue = 2;
  ModelRegistry registry(rcfg);
  registry.register_artifact("a", "v1", path_a, scfg);
  registry.register_model("b", "v1", fx.deploy(0));
  FaultGuard faults;

  SubmitOptions interactive;
  interactive.priority = Priority::kInteractive;
  SubmitOptions bulk;
  bulk.priority = Priority::kBulk;
  bulk.deadline_ms = 1.0;
  ServiceStats want;
  // One round of traffic on a that moves every counter: hold a's only
  // worker on an interactive request, queue two bulk requests that expire,
  // then let a normal burst shed them at admission and a normal single
  // bounce off the full queue.
  const auto drive = [&] {
    fault::arm_gate("serve.run_batch");
    std::vector<std::future<InferenceResult>> served;
    served.push_back(
        registry.submit("a", "v1", fx.data.test.sample(0), interactive));
    fault::wait_for_hits("serve.run_batch", 1);
    auto shed = registry.submit_batch(
        "a", "v1", {fx.data.test.sample(1), fx.data.test.sample(2)}, bulk);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (auto& f : registry.submit_batch(
             "a", "v1", {fx.data.test.sample(3), fx.data.test.sample(4)})) {
      served.push_back(std::move(f));
    }
    EXPECT_THROW((void)registry.submit("a", "v1", fx.data.test.sample(5)),
                 Unavailable);
    fault::disarm("serve.run_batch");
    std::int64_t clips = 0;
    for (auto& f : served) clips += f.get().clip_count;
    for (auto& f : shed) EXPECT_THROW((void)f.get(), DeadlineExceeded);
    EXPECT_GT(clips, 0);
    want.requests += 3;
    want.batches += 3;
    want.clip_events += clips;
    want.rejected += 1;
    want.deadline_misses += 2;
    want.completed_by_priority[kInteractive] += 1;
    want.completed_by_priority[kNormal] += 2;
    want.deadline_misses_by_priority[kBulk] += 2;
  };

  drive();
  expect_same_counters(model_of(registry.stats(), "a").stats, want,
                       "resident");

  // LRU eviction: touching b (budget 1) retires a's service.
  (void)registry.submit("b", "v1", fx.data.test.sample(0)).get();
  EXPECT_FALSE(registry.resident("a", "v1"));
  expect_same_counters(model_of(registry.stats(), "a").stats, want,
                       "after eviction");

  // Re-materialize a with a second round, then hot-swap it: reload()
  // retires the new service.
  drive();
  expect_same_counters(model_of(registry.stats(), "a").stats, want,
                       "re-materialized");
  registry.reload("a", "v1", path_a);
  EXPECT_FALSE(registry.resident("a", "v1"));
  expect_same_counters(model_of(registry.stats(), "a").stats, want,
                       "after reload");

  // A bulk request waiting behind a's (gated) cold load sheds at its
  // deadline and is counted under its own class.
  fault::arm_gate("registry.materialize");
  std::int64_t clips = 0;
  std::thread loader([&] {
    clips = registry.submit("a", "v1", fx.data.test.sample(0))
                .get()
                .clip_count;
  });
  fault::wait_for_hits("registry.materialize", 1);
  SubmitOptions waiting = bulk;
  waiting.deadline_ms = 20.0;
  EXPECT_THROW(
      (void)registry.submit("a", "v1", fx.data.test.sample(0), waiting),
      DeadlineExceeded);
  fault::open_gate("registry.materialize");
  loader.join();
  want.requests += 1;
  want.batches += 1;
  want.clip_events += clips;
  want.completed_by_priority[kNormal] += 1;
  want.deadline_misses += 1;
  want.deadline_misses_by_priority[kBulk] += 1;
  expect_same_counters(model_of(registry.stats(), "a").stats, want,
                       "after the load-wait shed");

  registry.reset_stats();
  const RegistrySnapshot fresh = registry.stats();
  for (const ModelSnapshot& m : fresh.models) {
    expect_same_counters(m.stats, ServiceStats{}, "reset " + m.name);
  }
  EXPECT_EQ(fresh.requests, 0);
  EXPECT_EQ(fresh.rejected, 0);
  EXPECT_EQ(fresh.deadline_misses, 0);
  std::remove(path_a.c_str());
}

}  // namespace
}  // namespace epim
