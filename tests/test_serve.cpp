// Tests for the serving subsystem (serve/artifact.hpp, serve/service.hpp):
// property-based artifact round-trips over randomized configs, corruption
// rejection with pinned error messages, and the InferenceService determinism
// contract (bit-identical to direct runtime evaluation at any batch size
// and thread count).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_inject.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "pipeline/pipeline.hpp"
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

void expect_same_evaluation(const EpimSimulator::Evaluation& a,
                            const EpimSimulator::Evaluation& b) {
  EXPECT_EQ(a.cost.num_crossbars, b.cost.num_crossbars);
  EXPECT_EQ(a.cost.latency_ms, b.cost.latency_ms);
  EXPECT_EQ(a.cost.dynamic_energy_mj, b.cost.dynamic_energy_mj);
  EXPECT_EQ(a.cost.static_energy_mj, b.cost.static_energy_mj);
  EXPECT_EQ(a.cost.utilization, b.cost.utilization);
  EXPECT_EQ(a.cost.params, b.cost.params);
  EXPECT_EQ(a.projected_accuracy, b.projected_accuracy);
  EXPECT_EQ(a.weighted_mse, b.weighted_mse);
  EXPECT_EQ(a.weight_power, b.weight_power);
}

void expect_same_assignment(const NetworkAssignment& a,
                            const NetworkAssignment& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (std::int64_t i = 0; i < a.num_layers(); ++i) {
    EXPECT_EQ(a.choice(i), b.choice(i)) << "layer " << i;
  }
}

// ---- compiled-model artifacts ----

TEST(ArtifactCompiled, RoundTripsDefaultConfigByteIdentically) {
  const std::string path = temp_path("compiled_default.epim");
  const CompiledModel model = Pipeline{PipelineConfig{}}.compile(resnet18());
  model.save(path);

  const CompiledModel loaded = Pipeline::load(path);
  EXPECT_EQ(loaded.network().name(), "ResNet18");
  expect_same_assignment(loaded.assignment(), model.assignment());
  expect_same_evaluation(loaded.estimate(), model.estimate());
  EXPECT_EQ(loaded.summary(), model.summary());
  std::remove(path.c_str());
}

TEST(ArtifactCompiled, ProbeReportsKindAndVersion) {
  const std::string path = temp_path("compiled_probe.epim");
  Pipeline{PipelineConfig{}}.compile(mini_resnet()).save(path);
  const artifact::Info info = artifact::probe(path);
  EXPECT_EQ(info.version, artifact::kSchemaVersion);
  EXPECT_EQ(info.kind, artifact::Kind::kCompiledModel);
  std::remove(path.c_str());
}

TEST(ArtifactCompiled, PreservesSearchRefinedAssignment) {
  Network net = mini_resnet();
  PipelineConfig cfg;
  cfg.search.enabled = true;
  cfg.search.evo.population = 6;
  cfg.search.evo.iterations = 3;
  cfg.search.evo.parents = 2;
  cfg.search.evo.crossbar_budget = 2000;
  CompiledModel model = Pipeline(cfg).compile(net);
  model.search();

  const std::string path = temp_path("compiled_searched.epim");
  model.save(path);
  const CompiledModel loaded = Pipeline::load(path);
  // The stored choices must reproduce the *searched* assignment, which the
  // design policy alone would not.
  expect_same_assignment(loaded.assignment(), model.assignment());
  expect_same_evaluation(loaded.estimate(), model.estimate());
  EXPECT_EQ(loaded.summary(), model.summary());
  std::remove(path.c_str());
}

/// Draw a random-but-valid PipelineConfig (the property-test generator).
PipelineConfig random_config(Rng& rng) {
  PipelineConfig cfg;
  cfg.hardware.crossbar.rows = 64 << rng.index(3);
  cfg.hardware.crossbar.cols = 64 << rng.index(3);
  cfg.hardware.crossbar.cell_bits = std::vector<int>{1, 2, 4}[static_cast<
      std::size_t>(rng.index(3))];
  cfg.hardware.crossbar.adc_bits = rng.uniform_int(6, 14);
  cfg.hardware.crossbar.adc_share = std::int64_t{1} << rng.uniform_int(2, 4);
  cfg.hardware.lut.adc_pj = rng.uniform(4.0, 12.0);
  cfg.hardware.lut.xbar_ns = rng.uniform(10.0, 50.0);
  cfg.hardware.deploy_adc_bits = rng.uniform_int(12, 16);

  cfg.design.policy =
      rng.flip(0.8) ? DesignPolicy::kUniform : DesignPolicy::kBaseline;
  cfg.design.uniform.target_rows = 256 << rng.index(3);
  cfg.design.uniform.target_cout = 64 << rng.index(3);
  cfg.design.uniform.spatial_slack = rng.index(2);
  cfg.design.wrap_output = rng.flip();

  switch (rng.index(3)) {
    case 0:
      cfg.precision = PrecisionPlan::uniform(rng.uniform_int(3, 9),
                                             rng.uniform_int(4, 10));
      break;
    case 1:
      cfg.precision = PrecisionPlan::fp32();
      break;
    default:
      cfg.precision = PrecisionPlan::hawq_mixed();
      cfg.precision.mixed.budget_fraction = rng.uniform(0.1, 0.9);
      break;
  }

  cfg.quant.bits = rng.uniform_int(3, 9);
  cfg.quant.scheme = std::vector<RangeScheme>{
      RangeScheme::kMinMax, RangeScheme::kPerCrossbar,
      RangeScheme::kOverlapWeighted}[static_cast<std::size_t>(rng.index(3))];
  cfg.quant.w1 = rng.uniform(0.3, 0.9);
  cfg.quant.w2 = 1.0 - cfg.quant.w1;

  cfg.deploy.act_percentile = rng.flip() ? 1.0 : 0.999;
  cfg.serve.max_batch = rng.uniform_int(1, 64);
  cfg.serve.flush_deadline_ms = rng.uniform(0.5, 5.0);
  cfg.serve.workers = rng.uniform_int(1, 8);
  cfg.serve.max_queue = rng.flip() ? 0 : rng.uniform_int(1, 2048);
  cfg.serve.max_workers =
      rng.flip() ? 0 : rng.uniform_int(cfg.serve.workers, 16);
  cfg.serve.reslice_bursts = rng.flip();
  cfg.anchors =
      rng.flip() ? AccuracyAnchors::resnet50() : AccuracyAnchors::resnet101();
  cfg.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return cfg;
}

TEST(ArtifactCompiled, PropertyRandomConfigsRoundTripByteIdentically) {
  Rng rng(0xA27'1FAC7u);
  const Network net = mini_resnet();
  for (int draw = 0; draw < 8; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    PipelineConfig cfg = random_config(rng);
    ASSERT_NO_THROW(cfg.validate());
    const CompiledModel model = Pipeline(cfg).compile(net);

    const std::string path = temp_path("compiled_prop.epim");
    model.save(path);
    const CompiledModel loaded = Pipeline::load(path);

    // Byte-identical estimator numbers and report, not merely close.
    expect_same_assignment(loaded.assignment(), model.assignment());
    EXPECT_EQ(loaded.precision().weight_bits, model.precision().weight_bits);
    EXPECT_EQ(loaded.precision().act_bits, model.precision().act_bits);
    expect_same_evaluation(loaded.estimate(), model.estimate());
    EXPECT_EQ(loaded.summary(), model.summary());
    // The embedded config survives, including serving policy.
    EXPECT_EQ(loaded.config().serve.max_batch, cfg.serve.max_batch);
    EXPECT_EQ(loaded.config().serve.flush_deadline_ms,
              cfg.serve.flush_deadline_ms);
    EXPECT_EQ(loaded.config().serve.workers, cfg.serve.workers);
    EXPECT_EQ(loaded.config().serve.max_queue, cfg.serve.max_queue);
    EXPECT_EQ(loaded.config().serve.max_workers, cfg.serve.max_workers);
    EXPECT_EQ(loaded.config().serve.reslice_bursts,
              cfg.serve.reslice_bursts);
    EXPECT_EQ(loaded.config().seed, cfg.seed);
    std::remove(path.c_str());
  }
}

// ---- deployed-model artifacts ----

struct DeployedFixture {
  SyntheticData data;
  SmallEpitomeNet net;

  DeployedFixture()
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
  }

  static DeployedFixture& instance() {
    static DeployedFixture fixture;
    return fixture;
  }
};

void expect_bit_identical_logits(DeployedModel& a, DeployedModel& b,
                                 const Dataset& images) {
  for (std::int64_t i = 0; i < images.size(); ++i) {
    std::int64_t clips_a = 0;
    std::int64_t clips_b = 0;
    const Tensor la = a.forward(images.sample(i), &clips_a);
    const Tensor lb = b.forward(images.sample(i), &clips_b);
    ASSERT_EQ(la.shape(), lb.shape());
    for (std::int64_t j = 0; j < la.numel(); ++j) {
      EXPECT_EQ(la.at(j), lb.at(j)) << "image " << i << " logit " << j;
    }
    EXPECT_EQ(clips_a, clips_b) << "image " << i;
  }
}

TEST(ArtifactDeployed, RoundTripsBitIdentically) {
  DeployedFixture& fx = DeployedFixture::instance();
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(6, 8);
  Pipeline pipeline(cfg);
  DeployedModel chip = pipeline.deploy(fx.net, fx.data.train);

  const std::string path = temp_path("deployed.epim");
  chip.save(path);
  EXPECT_EQ(artifact::probe(path).kind, artifact::Kind::kDeployedModel);

  DeployedModel loaded = Pipeline::load_deployed(path);
  EXPECT_EQ(loaded.total_crossbars(), chip.total_crossbars());
  EXPECT_EQ(loaded.runtime_config().weight_bits, 6);
  EXPECT_EQ(loaded.runtime_config().act_bits, 8);
  expect_bit_identical_logits(chip, loaded, fx.data.test);
  EXPECT_EQ(loaded.evaluate(fx.data.test), chip.evaluate(fx.data.test));
  std::remove(path.c_str());
}

TEST(ArtifactDeployed, PropertyRandomRuntimeConfigsRoundTripBitIdentically) {
  DeployedFixture& fx = DeployedFixture::instance();
  Rng rng(0xDE9'107u);
  for (int draw = 0; draw < 4; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    PipelineConfig cfg;
    cfg.precision = PrecisionPlan::uniform(rng.uniform_int(4, 8),
                                           rng.uniform_int(6, 10));
    cfg.hardware.deploy_adc_bits = rng.uniform_int(9, 14);
    cfg.deploy.act_percentile = rng.flip() ? 1.0 : 0.999;
    if (rng.flip()) {
      // Non-idealities: load must replay the same programming-noise draws.
      cfg.deploy.non_ideal.conductance_sigma = rng.uniform(0.05, 0.3);
      cfg.deploy.non_ideal.stuck_at_zero_prob = rng.uniform(0.0, 0.02);
      cfg.deploy.non_ideal.seed = static_cast<std::uint64_t>(
          rng.uniform_int(1, 1 << 30));
    }
    DeployedModel chip = Pipeline(cfg).deploy(fx.net, fx.data.train);

    const std::string path = temp_path("deployed_prop.epim");
    chip.save(path);
    DeployedModel loaded = Pipeline::load_deployed(path);
    EXPECT_EQ(loaded.total_crossbars(), chip.total_crossbars());
    expect_bit_identical_logits(chip, loaded, fx.data.test);
    std::remove(path.c_str());
  }
}

// ---- corruption rejection (exact messages pinned) ----

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_load_error(const std::string& path, const char* message) {
  try {
    (void)Pipeline::load(path);
    FAIL() << "expected InvalidArgument(\"" << message << "\")";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << "actual: " << e.what();
  }
}

struct CorruptionFixture : ::testing::Test {
  // Per-test file names: gtest_discover_tests runs every TEST_F as its own
  // ctest process and CI uses -j, so shared paths would race.
  std::string good, bad;

  void SetUp() override {
    const std::string test = ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    good = temp_path("corrupt_" + test + "_base.epim");
    bad = temp_path("corrupt_" + test + "_case.epim");
    Pipeline{PipelineConfig{}}.compile(mini_resnet()).save(good);
  }
  void TearDown() override {
    std::remove(good.c_str());
    std::remove(bad.c_str());
  }
};

TEST_F(CorruptionFixture, RejectsTruncatedFiles) {
  const std::vector<char> bytes = slurp(good);
  // Cut inside the header, inside a section header, and inside a payload.
  for (const std::size_t cut :
       {std::size_t{4}, std::size_t{19}, std::size_t{21},
        bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    dump(bad, std::vector<char>(bytes.begin(),
                                bytes.begin() +
                                    static_cast<std::ptrdiff_t>(cut)));
    expect_load_error(bad, artifact::kErrTruncated);
  }
}

TEST_F(CorruptionFixture, RejectsForeignFiles) {
  std::vector<char> bytes = slurp(good);
  bytes[0] = 'X';
  dump(bad, bytes);
  expect_load_error(bad, artifact::kErrBadMagic);

  dump(bad, {'n', 'o', 't', ' ', 'e', 'p', 'i', 'm', ' ', 'a', 't', ' ',
             'a', 'l', 'l', '!', '!', '!', '!', '!'});
  expect_load_error(bad, artifact::kErrBadMagic);
}

TEST_F(CorruptionFixture, RejectsUnsupportedSchemaVersions) {
  std::vector<char> bytes = slurp(good);
  bytes[8] = 99;  // version lives right after the 8-byte magic
  dump(bad, bytes);
  expect_load_error(bad, artifact::kErrBadVersion);
  bytes[8] = 0;
  dump(bad, bytes);
  expect_load_error(bad, artifact::kErrBadVersion);
  // Superseded versions are rejected cleanly too: the positional codec
  // cannot decode a v1/v2/v3 payload (ServeConfig grew in v2, v3 and again
  // in v4), so they must fail with the version message, never a misparse
  // deeper in.
  bytes[8] = 1;
  dump(bad, bytes);
  expect_load_error(bad, artifact::kErrBadVersion);
  bytes[8] = 2;
  dump(bad, bytes);
  expect_load_error(bad, artifact::kErrBadVersion);
  bytes[8] = 3;
  dump(bad, bytes);
  expect_load_error(bad, artifact::kErrBadVersion);
}

TEST_F(CorruptionFixture, RejectsKindMismatch) {
  std::vector<char> bytes = slurp(good);
  EXPECT_EQ(bytes[12], 1);  // kind: compiled model
  bytes[12] = 2;            // claim it is a deployed model
  dump(bad, bytes);
  expect_load_error(bad, artifact::kErrBadKind);
  // And the symmetric direction through load_deployed.
  try {
    (void)Pipeline::load_deployed(good);
    FAIL() << "expected kind mismatch";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(artifact::kErrBadKind),
              std::string::npos);
  }
}

TEST_F(CorruptionFixture, RejectsCorruptedSectionPayloads) {
  const std::vector<char> bytes = slurp(good);
  // Flip one bit in the middle and near the end (different sections).
  for (const std::size_t victim : {bytes.size() / 2, bytes.size() - 2}) {
    SCOPED_TRACE("flip at " + std::to_string(victim));
    std::vector<char> corrupt = bytes;
    corrupt[victim] = static_cast<char>(corrupt[victim] ^ 0x40);
    dump(bad, corrupt);
    expect_load_error(bad, artifact::kErrChecksum);
  }
}

TEST_F(CorruptionFixture, RejectsCheckummedTrailingBytes) {
  // A section that carries bytes past its last decoded field -- with a
  // *valid* checksum -- is schema drift, not corruption, and must still be
  // rejected. Grow the first section ("pipecfg") by one byte and recompute
  // its FNV-1a so only the trailing-bytes guard can catch it.
  std::vector<char> bytes = slurp(good);
  const std::size_t size_at = 20 + 8;      // header + section tag
  const std::size_t checksum_at = size_at + 8;
  const std::size_t payload_at = checksum_at + 8;
  std::uint64_t size = 0;
  for (int i = 0; i < 8; ++i) {
    size |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                bytes[size_at + static_cast<std::size_t>(i)]))
            << (8 * i);
  }
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(payload_at + size),
               '\0');
  ++size;
  std::uint64_t checksum = 14695981039346656037ull;
  for (std::uint64_t i = 0; i < size; ++i) {
    checksum ^= static_cast<unsigned char>(
        bytes[payload_at + static_cast<std::size_t>(i)]);
    checksum *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    bytes[size_at + static_cast<std::size_t>(i)] =
        static_cast<char>((size >> (8 * i)) & 0xff);
    bytes[checksum_at + static_cast<std::size_t>(i)] =
        static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  dump(bad, bytes);
  expect_load_error(bad, "artifact section 'pipecfg' has trailing bytes");
}

TEST_F(CorruptionFixture, RejectsMissingFile) {
  try {
    (void)Pipeline::load(temp_path("does_not_exist.epim"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open artifact"),
              std::string::npos);
  }
}

// Both façade loaders, against both bad-path shapes, with the messages
// pinned: a nonexistent path reports kErrCannotOpen and a directory reports
// kErrNotFile (NOT a misleading "truncated artifact", which is what naively
// ifstream-reading a directory would produce).
TEST(ArtifactErrors, LoadersRejectNonexistentPathsWithPinnedMessage) {
  const std::string missing = temp_path("no_such_artifact.epim");
  for (const bool deployed : {false, true}) {
    SCOPED_TRACE(deployed ? "load_deployed" : "load");
    try {
      if (deployed) {
        (void)Pipeline::load_deployed(missing);
      } else {
        (void)Pipeline::load(missing);
      }
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(artifact::kErrCannotOpen),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
          << e.what();
    }
  }
}

TEST(ArtifactErrors, LoadersRejectDirectoriesWithPinnedMessage) {
  // TempDir itself is a convenient directory that certainly exists.
  const std::string dir = ::testing::TempDir();
  for (const bool deployed : {false, true}) {
    SCOPED_TRACE(deployed ? "load_deployed" : "load");
    try {
      if (deployed) {
        (void)Pipeline::load_deployed(dir);
      } else {
        (void)Pipeline::load(dir);
      }
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(artifact::kErrNotFile),
                std::string::npos)
          << e.what();
    }
  }
  // probe() guards the same way (the registry probes at registration).
  EXPECT_THROW(artifact::probe(dir), InvalidArgument);
}

// ---- InferenceService ----

TEST(InferenceService, ConfigIsValidated) {
  DeployedFixture& fx = DeployedFixture::instance();
  Pipeline pipeline{PipelineConfig{}};
  ServeConfig bad;
  bad.max_batch = 0;
  EXPECT_THROW(InferenceService(pipeline.deploy(fx.net, fx.data.train), bad),
               InvalidArgument);
  bad.max_batch = 8;
  bad.flush_deadline_ms = 0.0;
  EXPECT_THROW(InferenceService(pipeline.deploy(fx.net, fx.data.train), bad),
               InvalidArgument);
}

TEST(InferenceService, ServeConfigFlowsFromPipelineConfig) {
  DeployedFixture& fx = DeployedFixture::instance();
  PipelineConfig cfg;
  cfg.serve.max_batch = 7;
  cfg.serve.flush_deadline_ms = 3.5;
  DeployedModel chip = Pipeline(cfg).deploy(fx.net, fx.data.train);
  EXPECT_EQ(chip.serve_config().max_batch, 7);
  EXPECT_EQ(chip.serve_config().flush_deadline_ms, 3.5);
}

TEST(InferenceService, ResultsBitIdenticalToDirectRuntime) {
  ThreadGuard guard;
  DeployedFixture& fx = DeployedFixture::instance();
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(6, 8);
  Pipeline pipeline(cfg);

  // Direct reference logits, computed once on the serial path.
  DeployedModel reference = pipeline.deploy(fx.net, fx.data.train);
  std::vector<Tensor> expected;
  std::vector<std::int64_t> expected_clips;
  for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
    std::int64_t clips = 0;
    expected.push_back(reference.forward(fx.data.test.sample(i), &clips));
    expected_clips.push_back(clips);
  }

  // The full scheduler grid: pool threads x continuous-batching workers x
  // batch size. Only completion order may vary across the grid; every
  // logit and clip count must match the serial direct path bit for bit.
  for (const int threads : {1, 3}) {
    for (const int workers : {1, 4}) {
      for (const int max_batch : {1, 5, 64}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " workers " +
                     std::to_string(workers) + " max_batch " +
                     std::to_string(max_batch));
        set_num_threads(threads);
        ServeConfig scfg;
        scfg.max_batch = max_batch;
        scfg.flush_deadline_ms = 1.0;
        scfg.workers = workers;
        InferenceService service =
            std::move(pipeline.deploy(fx.net, fx.data.train)).serve(scfg);

        std::vector<Tensor> burst;
        for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
          burst.push_back(fx.data.test.sample(i));
        }
        auto futures = service.submit_batch(std::move(burst));
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const InferenceResult r = futures[i].get();
          ASSERT_EQ(r.logits.shape(), expected[i].shape());
          for (std::int64_t j = 0; j < r.logits.numel(); ++j) {
            EXPECT_EQ(r.logits.at(j), expected[i].at(j))
                << "image " << i << " logit " << j;
          }
          EXPECT_EQ(r.clip_count, expected_clips[i]) << "image " << i;
        }
      }
    }
  }
}

TEST(InferenceService, SubmitValidatesShapesWithoutPoisoningTheQueue) {
  DeployedFixture& fx = DeployedFixture::instance();
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve();
  EXPECT_THROW(service.submit(Tensor({2, 3})), InvalidArgument);
  EXPECT_THROW(service.submit(Tensor({1, 16, 16})), InvalidArgument);
  // A malformed image inside a burst rejects the whole burst atomically...
  std::vector<Tensor> burst;
  burst.push_back(fx.data.test.sample(0));
  burst.push_back(Tensor({3, 4, 4}));
  EXPECT_THROW(service.submit_batch(std::move(burst)), InvalidArgument);
  EXPECT_EQ(service.stats().queued + service.stats().requests, 0);
  // ...and the service keeps serving valid requests afterwards.
  const InferenceResult r = service.submit(fx.data.test.sample(0)).get();
  EXPECT_EQ(r.logits.numel(), 4);
}

TEST(InferenceService, PredictionMatchesArgmaxAndAccuracy) {
  DeployedFixture& fx = DeployedFixture::instance();
  Pipeline pipeline{PipelineConfig{}};
  DeployedModel reference = pipeline.deploy(fx.net, fx.data.train);
  const double direct_acc = reference.evaluate(fx.data.test);

  InferenceService service =
      std::move(pipeline.deploy(fx.net, fx.data.train)).serve();
  std::int64_t correct = 0;
  std::vector<std::future<InferenceResult>> pending;
  for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
    pending.push_back(service.submit(fx.data.test.sample(i)));
  }
  for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
    const InferenceResult r = pending[static_cast<std::size_t>(i)].get();
    std::int64_t arg = 0;
    for (std::int64_t j = 1; j < r.logits.numel(); ++j) {
      if (r.logits.at(j) > r.logits.at(arg)) arg = j;
    }
    EXPECT_EQ(r.predicted, arg);
    correct += r.predicted == fx.data.test.labels[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(static_cast<double>(correct) /
                static_cast<double>(fx.data.test.size()),
            direct_acc);
}

TEST(InferenceService, StatsSnapshotIsConsistent) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 4;
  scfg.flush_deadline_ms = 1.0;
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);

  std::vector<Tensor> burst;
  for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
    burst.push_back(fx.data.test.sample(i));
  }
  for (auto& f : service.submit_batch(std::move(burst))) (void)f.get();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, fx.data.test.size());
  EXPECT_GE(stats.batches, fx.data.test.size() / 4);  // max_batch = 4
  EXPECT_GT(stats.mean_batch_size, 0.0);
  EXPECT_LE(stats.mean_batch_size, 4.0);
  EXPECT_GT(stats.items_per_sec, 0.0);
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p99_latency_ms);
  EXPECT_GE(stats.clip_events, 0);
  EXPECT_EQ(stats.queued, 0);
}

TEST(InferenceService, DestructorDrainsPendingRequests) {
  DeployedFixture& fx = DeployedFixture::instance();
  std::vector<std::future<InferenceResult>> pending;
  {
    ServeConfig scfg;
    scfg.max_batch = 4;
    scfg.flush_deadline_ms = 500.0;  // deadline far beyond the test runtime
    InferenceService service =
        std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
            .serve(scfg);
    for (std::int64_t i = 0; i < 3; ++i) {  // below max_batch: no flush yet
      pending.push_back(service.submit(fx.data.test.sample(i)));
    }
  }  // destructor must flush the partial batch, not abandon it
  for (auto& f : pending) {
    EXPECT_EQ(f.get().logits.numel(), 4);
  }
}

TEST(InferenceService, SubmitBatchRejectsEmptyBurst) {
  DeployedFixture& fx = DeployedFixture::instance();
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve();
  try {
    (void)service.submit_batch({});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(
        std::string(e.what()).find("submit_batch requires a non-empty batch"),
        std::string::npos)
        << e.what();
  }
  // A rejected empty burst is not traffic: nothing queued, nothing counted,
  // and the service keeps serving.
  EXPECT_EQ(service.stats().queued + service.stats().requests, 0);
  EXPECT_EQ(service.submit(fx.data.test.sample(0)).get().logits.numel(), 4);
}

TEST(InferenceService, ResetStartsAFreshStatsInterval) {
  DeployedFixture& fx = DeployedFixture::instance();
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve();
  for (std::int64_t i = 0; i < 4; ++i) {
    (void)service.submit(fx.data.test.sample(i)).get();
  }
  ASSERT_EQ(service.stats().requests, 4);

  service.reset();
  // Everything traffic-shaped is zeroed...
  const ServiceStats zeroed = service.stats();
  EXPECT_EQ(zeroed.requests, 0);
  EXPECT_EQ(zeroed.batches, 0);
  EXPECT_EQ(zeroed.clip_events, 0);
  EXPECT_EQ(zeroed.rejected, 0);
  EXPECT_EQ(zeroed.mean_batch_size, 0.0);
  EXPECT_EQ(zeroed.items_per_sec, 0.0);
  EXPECT_EQ(zeroed.p50_latency_ms, 0.0);
  EXPECT_EQ(zeroed.p99_latency_ms, 0.0);
  EXPECT_EQ(service.interval_latency().count(), 0);

  // ...and the next interval counts from zero with a fresh throughput
  // window, exactly like a brand-new service.
  for (std::int64_t i = 0; i < 2; ++i) {
    (void)service.submit(fx.data.test.sample(i)).get();
  }
  const ServiceStats next = service.stats();
  EXPECT_EQ(next.requests, 2);
  EXPECT_GT(next.items_per_sec, 0.0);
  EXPECT_GT(next.p50_latency_ms, 0.0);
}

// reset() racing live traffic must leave the interval's request counter and
// its latency histogram in step: each completion is counted in both or in
// neither. Every round stops resetting while requests are still in flight
// and checks the pair once all of them have resolved.
TEST(InferenceService, ResetDuringTrafficKeepsRequestAndLatencyCountsEqual) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 2;
  scfg.flush_deadline_ms = 0.5;
  scfg.workers = 2;
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);
  constexpr int kRounds = 20;
  constexpr int kSubmitters = 2;
  constexpr int kPerSubmitter = 12;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::atomic<bool> submitting{true};
    std::thread resetter([&] {
      while (submitting.load(std::memory_order_relaxed)) service.reset();
    });
    std::vector<std::future<InferenceResult>> futures[kSubmitters];
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          futures[t].push_back(service.submit(
              fx.data.test.sample((t * kPerSubmitter + i) %
                                  fx.data.test.size())));
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    submitting.store(false, std::memory_order_relaxed);
    resetter.join();
    for (auto& per_thread : futures) {
      for (auto& f : per_thread) (void)f.get();
    }
    EXPECT_EQ(service.stats().requests, service.interval_latency().count());
  }
}

TEST(InferenceService, AdmissionControlIsAtomicWithEnqueue) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 64;
  scfg.flush_deadline_ms = 10000.0;  // hold everything queued
  scfg.max_queue = 2;
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);

  auto f0 = service.submit(fx.data.test.sample(0));
  auto f1 = service.submit(fx.data.test.sample(1));
  EXPECT_THROW((void)service.submit(fx.data.test.sample(2)), Unavailable);
  EXPECT_EQ(service.stats().rejected, 1);
  EXPECT_EQ(service.stats().queued, 2);
  // max_queue = 0 keeps the historical unbounded behaviour (validated as
  // non-negative).
  ServeConfig bad;
  bad.max_queue = -1;
  EXPECT_THROW(InferenceService(
                   Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train),
                   bad),
               InvalidArgument);
  // Drain without waiting out the 10 s deadline; the admitted requests
  // were unharmed by the rejection.
  (void)service.detach();
  EXPECT_EQ(f0.get().logits.numel(), 4);
  EXPECT_EQ(f1.get().logits.numel(), 4);
}

TEST(InferenceService, DetachDrainsAndReturnsTheModel) {
  DeployedFixture& fx = DeployedFixture::instance();
  Pipeline pipeline{PipelineConfig{}};
  DeployedModel reference = pipeline.deploy(fx.net, fx.data.train);
  const Tensor expected = reference.forward(fx.data.test.sample(0));

  ServeConfig scfg;
  scfg.max_batch = 8;
  scfg.flush_deadline_ms = 500.0;
  InferenceService service =
      std::move(pipeline.deploy(fx.net, fx.data.train)).serve(scfg);
  // Pending (undeadlined) requests must drain before the model is handed
  // back.
  auto pending = service.submit(fx.data.test.sample(1));
  DeployedModel model = service.detach();
  EXPECT_EQ(pending.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  (void)pending.get();

  // The returned model is the programmed chip, still bit-identical.
  const Tensor logits = model.forward(fx.data.test.sample(0));
  for (std::int64_t j = 0; j < expected.numel(); ++j) {
    EXPECT_EQ(logits.at(j), expected.at(j));
  }
  // The service is terminal: submissions throw, stats stay readable.
  EXPECT_THROW((void)service.submit(fx.data.test.sample(0)),
               InvalidArgument);
  EXPECT_EQ(service.stats().requests, 1);
}

TEST(InferenceService, BurstLargerThanBoundIsInvalidArgumentNotUnavailable) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 64;
  scfg.flush_deadline_ms = 10000.0;  // hold everything queued
  scfg.max_queue = 2;
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);

  // Queue is EMPTY, yet a burst of 3 can never fit a bound of 2: retrying
  // would never succeed, so this must be InvalidArgument (caller error)
  // with the pinned message -- not Unavailable masquerading as transient
  // overload -- and must not count as a rejection.
  std::vector<Tensor> too_big(3, fx.data.test.sample(0));
  try {
    (void)service.submit_batch(std::move(too_big));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(
        std::string(e.what()).find(InferenceService::kErrBurstTooLarge),
        std::string::npos)
        << e.what();
  }
  EXPECT_EQ(service.stats().rejected, 0);
  EXPECT_EQ(service.stats().queued, 0);

  // Genuinely transient fullness keeps the Unavailable path, also pinned.
  auto f0 = service.submit(fx.data.test.sample(0));
  auto f1 = service.submit(fx.data.test.sample(1));
  try {
    (void)service.submit(fx.data.test.sample(2));
    FAIL() << "expected Unavailable";
  } catch (const Unavailable& e) {
    EXPECT_NE(std::string(e.what()).find(InferenceService::kErrQueueFull),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(service.stats().rejected, 1);
  (void)service.detach();  // drain without waiting out the 10 s deadline
  (void)f0.get();
  (void)f1.get();
}

TEST(ServiceStats, ItemsRateFallsBackToOneTickOnZeroWall) {
  // The wall between first submit and last completion can round to exactly
  // zero on a coarse steady clock even though requests completed; the rate
  // must then fall back to a one-tick wall -- finite and positive, so
  // completed traffic is never indistinguishable from "no traffic".
  EXPECT_EQ(serve_detail::items_rate(0, 0.0), 0.0);   // no traffic: zero
  EXPECT_EQ(serve_detail::items_rate(0, 1.0), 0.0);
  EXPECT_EQ(serve_detail::items_rate(10, 2.0), 5.0);  // normal path
  const double fallback = serve_detail::items_rate(5, 0.0);
  EXPECT_GT(fallback, 0.0);
  EXPECT_TRUE(std::isfinite(fallback));
  // One tick of the steady clock exactly.
  const double tick =
      std::chrono::duration<double>(std::chrono::steady_clock::duration(1))
          .count();
  EXPECT_EQ(fallback, 5.0 / tick);
  // And the live path: any completed request yields a positive rate.
  DeployedFixture& fx = DeployedFixture::instance();
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve();
  (void)service.submit(fx.data.test.sample(0)).get();
  EXPECT_GT(service.stats().items_per_sec, 0.0);
}

TEST(InferenceService, DetachDrainsInFlightBatchesAcrossWorkers) {
  ThreadGuard guard;
  set_num_threads(2);
  DeployedFixture& fx = DeployedFixture::instance();
  Pipeline pipeline{PipelineConfig{}};
  DeployedModel reference = pipeline.deploy(fx.net, fx.data.train);
  const Tensor expected = reference.forward(fx.data.test.sample(0));

  ServeConfig scfg;
  scfg.max_batch = 2;  // a 24-burst shatters into 12 batches
  scfg.flush_deadline_ms = 0.25;
  scfg.workers = 4;
  InferenceService service =
      std::move(pipeline.deploy(fx.net, fx.data.train)).serve(scfg);
  EXPECT_EQ(service.workers(), 4);
  EXPECT_EQ(service.stats().workers, 4);

  // Enqueue enough that several workers hold in-flight batches, then
  // detach immediately: the drain must join ALL workers only after every
  // queued and in-flight request resolved.
  std::vector<Tensor> burst(24, fx.data.test.sample(0));
  auto pending = service.submit_batch(std::move(burst));
  DeployedModel model = service.detach();
  for (auto& f : pending) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const InferenceResult r = f.get();
    for (std::int64_t j = 0; j < expected.numel(); ++j) {
      EXPECT_EQ(r.logits.at(j), expected.at(j));
    }
  }
  const ServiceStats final = service.stats();
  EXPECT_EQ(final.requests, 24);
  EXPECT_EQ(final.queued, 0);
  EXPECT_EQ(final.in_flight, 0);
  EXPECT_EQ(final.busy_workers, 0);
  // The recovered model still answers bit-identically.
  const Tensor logits = model.forward(fx.data.test.sample(0));
  for (std::int64_t j = 0; j < expected.numel(); ++j) {
    EXPECT_EQ(logits.at(j), expected.at(j));
  }
}

TEST(InferenceService, ServesFromLoadedArtifact) {
  DeployedFixture& fx = DeployedFixture::instance();
  Pipeline pipeline{PipelineConfig{}};
  DeployedModel chip = pipeline.deploy(fx.net, fx.data.train);
  const Tensor expected = chip.forward(fx.data.test.sample(0));

  const std::string path = temp_path("served_artifact.epim");
  chip.save(path);
  InferenceService service = std::move(Pipeline::load_deployed(path)).serve();
  const InferenceResult r = service.submit(fx.data.test.sample(0)).get();
  for (std::int64_t j = 0; j < expected.numel(); ++j) {
    EXPECT_EQ(r.logits.at(j), expected.at(j));
  }
  std::remove(path.c_str());
}

// ---- request deadlines ----

TEST(ServiceDeadline, ExpiredRequestsAreShedAtBatchCloseNeverExecuted) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 64;
  scfg.flush_deadline_ms = 30.0;  // flush well after the deadlines expire
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);

  SubmitOptions opts;
  opts.deadline_ms = 1.0;
  std::vector<std::future<InferenceResult>> doomed;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(service.submit(fx.data.test.sample(i), opts));
  }
  for (auto& f : doomed) {
    try {
      f.get();
      FAIL() << "request outlived a 1 ms deadline under a 30 ms flush";
    } catch (const DeadlineExceeded& e) {
      EXPECT_NE(
          std::string(e.what()).find(InferenceService::kErrDeadlineExceeded),
          std::string::npos)
          << e.what();
    }
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_misses, 3);
  EXPECT_EQ(stats.batches, 0) << "dead requests must never reach run_batch";
  EXPECT_EQ(stats.requests, 0);

  // The service is unharmed: an undeadlined submit completes normally.
  (void)service.submit(fx.data.test.sample(0)).get();
  stats = service.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.deadline_misses, 3);
}

TEST(ServiceDeadline, AdmissionShedsExpiredRequestsInsteadOfRejecting) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.workers = 1;
  scfg.max_batch = 8;
  scfg.max_queue = 12;
  scfg.flush_deadline_ms = 50.0;
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);

  // Batch A closes immediately (it hits max_batch) and occupies the
  // worker.
  std::vector<Tensor> burst(8, fx.data.test.sample(0));
  auto batch_a = service.submit_batch(burst);
  for (int spin = 0; spin < 1000 && service.stats().queued > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // Four requests whose deadline expires long before the 50 ms flush.
  SubmitOptions tight;
  tight.deadline_ms = 0.05;
  std::vector<std::future<InferenceResult>> dead;
  for (int i = 0; i < 4; ++i) {
    dead.push_back(service.submit(fx.data.test.sample(i), tight));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Fill the queue to its bound, then submit one more. The expired four
  // must be shed to admit it -- wherever the shed lands (admission sweep
  // or batch close), live traffic is never rejected while dead requests
  // hold queue slots.
  auto batch_b = service.submit_batch(burst);
  std::future<InferenceResult> last;
  EXPECT_NO_THROW(last = service.submit(fx.data.test.sample(0)));

  for (auto& f : dead) {
    EXPECT_THROW(f.get(), DeadlineExceeded);
  }
  for (auto& f : batch_a) (void)f.get();
  for (auto& f : batch_b) (void)f.get();
  (void)last.get();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 0)
      << "expired requests must be shed, not counted as overload";
  EXPECT_EQ(stats.deadline_misses, 4);
  EXPECT_EQ(stats.requests, 17);
}

TEST(ServiceDeadline, ValidatesOptionsAndTreatsZeroAsNoDeadline) {
  DeployedFixture& fx = DeployedFixture::instance();
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve();

  SubmitOptions negative;
  negative.deadline_ms = -1.0;
  EXPECT_THROW((void)service.submit(fx.data.test.sample(0), negative),
               InvalidArgument);

  SubmitOptions none;  // deadline_ms == 0.0: no deadline
  (void)service.submit(fx.data.test.sample(0), none).get();
  SubmitOptions generous;
  generous.deadline_ms = 1e9;
  (void)service.submit_batch({fx.data.test.sample(1)}, generous)[0].get();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_misses, 0);
  EXPECT_EQ(stats.requests, 2);
}

// ---- SLA-aware scheduling core (serve/scheduler.hpp) ----

// The PR 5 bit-identity grid, extended across the scheduler's dimensions:
// every priority class, one vs. several workers, and the batch-size sweep.
// Scheduling may only change completion ORDER -- every logit and clip count
// must match the serial direct path bit for bit at every grid point.
TEST(SchedulerService, ResultsBitIdenticalAcrossPriorityClientWorkerGrid) {
  ThreadGuard guard;
  DeployedFixture& fx = DeployedFixture::instance();
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(6, 8);
  Pipeline pipeline(cfg);

  DeployedModel reference = pipeline.deploy(fx.net, fx.data.train);
  std::vector<Tensor> expected;
  std::vector<std::int64_t> expected_clips;
  for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
    std::int64_t clips = 0;
    expected.push_back(reference.forward(fx.data.test.sample(i), &clips));
    expected_clips.push_back(clips);
  }

  constexpr Priority kClasses[] = {Priority::kInteractive, Priority::kNormal,
                                   Priority::kBulk};
  for (const int workers : {1, 3}) {
    for (const int max_batch : {1, 5, 64}) {
      SCOPED_TRACE("workers " + std::to_string(workers) + " max_batch " +
                   std::to_string(max_batch));
      ServeConfig scfg;
      scfg.max_batch = max_batch;
      scfg.flush_deadline_ms = 1.0;
      scfg.workers = workers;
      InferenceService service =
          std::move(pipeline.deploy(fx.net, fx.data.train)).serve(scfg);

      // Interleave all three classes per request, so every class queue
      // carries traffic concurrently.
      std::vector<std::future<InferenceResult>> futures;
      for (std::int64_t i = 0; i < fx.data.test.size(); ++i) {
        SubmitOptions options;
        options.priority = kClasses[static_cast<std::size_t>(i) % 3];
        futures.push_back(service.submit(fx.data.test.sample(i), options));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const InferenceResult r = futures[i].get();
        ASSERT_EQ(r.logits.shape(), expected[i].shape());
        for (std::int64_t j = 0; j < r.logits.numel(); ++j) {
          EXPECT_EQ(r.logits.at(j), expected[i].at(j))
              << "image " << i << " logit " << j;
        }
        EXPECT_EQ(r.clip_count, expected_clips[i]) << "image " << i;
      }
      const ServiceStats stats = service.stats();
      EXPECT_EQ(stats.requests, fx.data.test.size());
      EXPECT_EQ(stats.completed_by_priority[0] +
                    stats.completed_by_priority[1] +
                    stats.completed_by_priority[2],
                stats.requests);
    }
  }
}

// Satellite bugfix pins, reslice OFF half: a burst that exceeds max_queue
// only because re-slicing is disabled still throws the pinned
// kErrBurstTooLarge (InvalidArgument, not Unavailable, not counted as a
// rejection).
TEST(SchedulerService, OversizedBurstWithResliceDisabledIsBurstTooLarge) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 8;
  scfg.workers = 2;
  scfg.max_queue = 4;
  scfg.reslice_bursts = false;
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);
  std::vector<Tensor> burst(12, fx.data.test.sample(0));
  try {
    (void)service.submit_batch(std::move(burst));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(
        std::string(e.what()).find(InferenceService::kErrBurstTooLarge),
        std::string::npos)
        << e.what();
  }
  EXPECT_EQ(service.stats().rejected, 0);
  EXPECT_EQ(service.stats().queued, 0);
}

// Satellite bugfix pins, reslice ON half: the same burst is admitted
// against max_queue + max_workers*max_batch (its slices stream to the pool
// instead of sitting queued), accounted exactly ONCE at submit -- and a
// burst beyond even that extended bound still dies with the pinned
// kErrBurstTooLarge.
TEST(SchedulerService, ReslicedBurstAdmitsOnceAgainstExtendedBound) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 8;
  scfg.workers = 2;
  scfg.max_queue = 4;
  scfg.reslice_bursts = true;  // the default, spelled out for the pin
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);

  // 12 > max_queue (4) but within 4 + 2*8 = 20: admitted whole, no
  // rejection, every request completes.
  std::vector<Tensor> burst(12, fx.data.test.sample(0));
  auto futures = service.submit_batch(std::move(burst));
  for (auto& f : futures) (void)f.get();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 12);
  EXPECT_EQ(stats.rejected, 0);

  // 25 > 20 can never be admitted however empty the queue: the pinned
  // never-admissible error, still not a "rejection".
  std::vector<Tensor> too_big(25, fx.data.test.sample(0));
  try {
    (void)service.submit_batch(std::move(too_big));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(
        std::string(e.what()).find(InferenceService::kErrBurstTooLarge),
        std::string::npos)
        << e.what();
  }
  EXPECT_EQ(service.stats().rejected, 0);

  // "Counted once at submit": back-to-back resliced bursts that fit the
  // extended bound together are both admitted -- the concurrent slices of
  // the first can never re-trigger admission against the second.
  std::vector<Tensor> a(10, fx.data.test.sample(0));
  std::vector<Tensor> b(10, fx.data.test.sample(1));
  auto fa = service.submit_batch(std::move(a));
  auto fb = service.submit_batch(std::move(b));
  for (auto& f : fa) (void)f.get();
  for (auto& f : fb) (void)f.get();
  EXPECT_EQ(service.stats().rejected, 0);
  EXPECT_EQ(service.stats().requests, 32);
}

// A reslice-eligible burst (strictly larger than max_batch) must drain as
// thin concurrent slices, not max_batch-greedy closes: with 4 idle workers
// and a 24-burst at max_batch 16, the first close takes ceil(24/4) = 6 and
// no later close can exceed that, so the burst runs as at least 4 batches
// of mean <= 6 -- where the FIFO control closes exactly 16 + 8 = 2 batches.
TEST(SchedulerService, BurstIsReslicedAcrossIdleWorkers) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 16;
  scfg.flush_deadline_ms = 20.0;  // the FIFO control's 8-tail must hold
  scfg.workers = 4;
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);
  std::vector<Tensor> burst;
  for (int i = 0; i < 24; ++i) {
    burst.push_back(fx.data.test.sample(i % fx.data.test.size()));
  }
  auto futures = service.submit_batch(std::move(burst));
  for (auto& f : futures) (void)f.get();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 24);
  EXPECT_GE(stats.batches, 4);
  EXPECT_LE(stats.mean_batch_size, 6.0);

  // Control: re-slicing off, the same burst drains max_batch-greedy as one
  // batch of 16 plus a flush-held batch of 8.
  ServeConfig fifo = scfg;
  fifo.reslice_bursts = false;
  InferenceService serial =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(fifo);
  std::vector<Tensor> burst2;
  for (int i = 0; i < 24; ++i) {
    burst2.push_back(fx.data.test.sample(i % fx.data.test.size()));
  }
  auto futures2 = serial.submit_batch(std::move(burst2));
  for (auto& f : futures2) (void)f.get();
  EXPECT_EQ(serial.stats().batches, 2);
  EXPECT_EQ(serial.stats().mean_batch_size, 12.0);
}

// The adaptive pool grows one worker per demand event up to max_workers
// while queued work exceeds what the idle workers can absorb, and shrinks
// back to the `workers` floor once idle.
TEST(SchedulerService, AdaptivePoolGrowsUnderBacklogAndShrinksWhenIdle) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 1;
  scfg.flush_deadline_ms = 0.5;
  scfg.workers = 1;
  scfg.max_workers = 4;
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.workers, 1);
  EXPECT_EQ(stats.max_workers, 4);
  EXPECT_EQ(stats.live_workers, 1);

  // Park every executing batch so backlog builds deterministically: each
  // submission past the idle capacity is a growth event.
  fault::arm_gate("serve.run_batch");
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(fx.data.test.sample(0)));
  }
  const auto grow_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().live_workers < 4 &&
         std::chrono::steady_clock::now() < grow_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.stats().live_workers, 4);

  fault::open_gate("serve.run_batch");
  for (auto& f : futures) (void)f.get();
  fault::disarm("serve.run_batch");

  // Idle shrink: back to the floor (never below), one idle timeout per
  // surplus worker.
  const auto shrink_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().live_workers > 1 &&
         std::chrono::steady_clock::now() < shrink_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stats = service.stats();
  EXPECT_EQ(stats.live_workers, 1);
  EXPECT_EQ(stats.requests, 8);

  // The shrunk pool still serves (a retired slot regrows on demand).
  (void)service.submit(fx.data.test.sample(0)).get();
  EXPECT_EQ(service.stats().requests, 9);
}

// Per-priority stats splits: the scalar counters stay the class sums.
TEST(SchedulerService, StatsSplitQueuedCompletedAndMissesByPriority) {
  DeployedFixture& fx = DeployedFixture::instance();
  ServeConfig scfg;
  scfg.max_batch = 1;
  scfg.workers = 1;
  InferenceService service =
      std::move(Pipeline{PipelineConfig{}}.deploy(fx.net, fx.data.train))
          .serve(scfg);

  // Park the worker, then queue one request per class behind the gate.
  fault::arm_gate("serve.run_batch");
  std::vector<std::future<InferenceResult>> futures;
  futures.push_back(service.submit(fx.data.test.sample(0)));
  fault::wait_for_hits("serve.run_batch", 1);
  SubmitOptions interactive;
  interactive.priority = Priority::kInteractive;
  SubmitOptions bulk;
  bulk.priority = Priority::kBulk;
  futures.push_back(service.submit(fx.data.test.sample(1), interactive));
  futures.push_back(service.submit(fx.data.test.sample(2), bulk));
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued, 2);
  EXPECT_EQ(stats.queued_by_priority[static_cast<int>(
                Priority::kInteractive)],
            1);
  EXPECT_EQ(stats.queued_by_priority[static_cast<int>(Priority::kBulk)], 1);

  // A bulk request with an already-expired deadline sheds as a bulk miss.
  SubmitOptions doomed;
  doomed.priority = Priority::kBulk;
  doomed.deadline_ms = 0.0001;
  auto dead = service.submit(fx.data.test.sample(3), doomed);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fault::open_gate("serve.run_batch");
  for (auto& f : futures) (void)f.get();
  EXPECT_THROW((void)dead.get(), DeadlineExceeded);
  fault::disarm("serve.run_batch");

  stats = service.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.completed_by_priority[static_cast<int>(
                Priority::kInteractive)],
            1);
  EXPECT_EQ(stats.completed_by_priority[static_cast<int>(Priority::kNormal)],
            1);
  EXPECT_EQ(stats.completed_by_priority[static_cast<int>(Priority::kBulk)],
            1);
  EXPECT_EQ(stats.deadline_misses, 1);
  EXPECT_EQ(stats.deadline_misses_by_priority[static_cast<int>(
                Priority::kBulk)],
            1);
  EXPECT_EQ(stats.deadline_misses_by_priority[static_cast<int>(
                Priority::kInteractive)],
            0);
}

}  // namespace
}  // namespace epim
