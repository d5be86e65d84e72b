// Tests for the epim::Pipeline façade: config validation, bit-for-bit
// equivalence between the façade and hand-wired module composition, backend
// activity agreement (analytical vs functional datapath), search gating and
// on-chip deployment derivation.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "pipeline/pipeline.hpp"
#include "quant/mixed_precision.hpp"
#include "sim/simulator.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

// ---- PipelineConfig::validate ----

TEST(PipelineConfig, DefaultConfigValidates) {
  EXPECT_NO_THROW(PipelineConfig{}.validate());
}

TEST(PipelineConfig, RejectsWeightBitsBeyondCellCapacity) {
  PipelineConfig cfg;
  cfg.hardware.crossbar.cols = 2;  // room for 2 cell slices only
  cfg.precision = PrecisionPlan::uniform(9, 9);  // 9b needs > 2 slices
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsOutOfRangeWeightBits) {
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(0, 9);
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.precision = PrecisionPlan::uniform(33, 9);
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsSearchWithoutBudget) {
  PipelineConfig cfg;
  cfg.search.enabled = true;
  cfg.search.evo.crossbar_budget = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.search.evo.crossbar_budget = 100;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(PipelineConfig, RejectsParentsAbovePopulation) {
  PipelineConfig cfg;
  cfg.search.enabled = true;
  cfg.search.evo.crossbar_budget = 100;
  cfg.search.evo.population = 4;
  cfg.search.evo.parents = 8;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsDegenerateQuantWeights) {
  PipelineConfig cfg;
  cfg.quant.w1 = 0.0;
  cfg.quant.w2 = 0.0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadCellBitsAndPercentile) {
  PipelineConfig cfg;
  cfg.hardware.crossbar.cell_bits = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.deploy.act_percentile = 0.0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsInvertedHawqBits) {
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::hawq_mixed();
  cfg.precision.mixed.low_bits = 5;
  cfg.precision.mixed.high_bits = 3;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadCrossbarGeometry) {
  PipelineConfig cfg;
  cfg.hardware.crossbar.rows = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.hardware.crossbar.cols = -4;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadAdcSettings) {
  PipelineConfig cfg;
  cfg.hardware.crossbar.adc_bits = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.hardware.crossbar.adc_bits = 33;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.hardware.crossbar.adc_share = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadFp32Equivalents) {
  PipelineConfig cfg;
  cfg.hardware.crossbar.fp32_weight_bits = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.hardware.crossbar.fp32_act_bits = -1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadDeployAdcBits) {
  PipelineConfig cfg;
  cfg.hardware.deploy_adc_bits = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.hardware.deploy_adc_bits = 64;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadUniformDesign) {
  PipelineConfig cfg;
  cfg.design.uniform.target_rows = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.design.uniform.target_cout = -1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.design.uniform.crossbar_size = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.design.uniform.spatial_slack = -1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  // The same limits are irrelevant under the baseline policy.
  cfg.design.policy = DesignPolicy::kBaseline;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(PipelineConfig, RejectsBadActivationBits) {
  PipelineConfig cfg;
  cfg.precision.act_bits = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.precision.act_bits = 33;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadHawqBudgetFraction) {
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::hawq_mixed();
  cfg.precision.mixed.budget_fraction = -0.1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.precision.mixed.budget_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadQuantScheme) {
  PipelineConfig cfg;
  cfg.quant.bits = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.quant.bits = 17;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.quant.w1 = -0.5;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.quant.xbar_rows = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.quant.xbar_cols = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadSearchSettings) {
  PipelineConfig cfg;
  cfg.search.enabled = true;
  cfg.search.evo.crossbar_budget = 100;
  cfg.search.evo.parents = 4;
  cfg.search.evo.population = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.search.evo.population = 8;
  cfg.search.evo.iterations = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.search.evo.iterations = 4;
  cfg.search.evo.mutation_rate = 1.5;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.search.evo.mutation_rate = 0.2;
  cfg.search.evo.candidates.row_targets.clear();
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.search.evo.candidates = CandidateConfig{};
  cfg.search.evo.candidates.crossbar_size = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.search.evo.candidates = CandidateConfig{};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(PipelineConfig, RejectsBadDeployOverrides) {
  PipelineConfig cfg;
  cfg.deploy.weight_bits = -1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.deploy.act_bits = 33;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsBadNonIdealities) {
  PipelineConfig cfg;
  cfg.deploy.non_ideal.conductance_sigma = -0.1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.deploy.non_ideal.stuck_at_zero_prob = 1.5;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.deploy.non_ideal.stuck_at_max_prob = -0.2;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(PipelineConfig, RejectsNonPositiveServeLimits) {
  PipelineConfig cfg;
  cfg.serve.max_batch = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.serve.max_batch = -3;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.serve.flush_deadline_ms = 0.0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.serve.flush_deadline_ms = -1.0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = PipelineConfig{};
  cfg.serve.max_queue = -1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  // Worker count: positive, and capped at the same 256 ceiling as the
  // compute pool (a stray huge value must not fork-bomb the process).
  cfg = PipelineConfig{};
  cfg.serve.workers = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.serve.workers = -2;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.serve.workers = 257;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.serve.workers = 256;
  EXPECT_NO_THROW(cfg.validate());
  cfg = PipelineConfig{};
  cfg.serve.max_batch = 1;
  cfg.serve.flush_deadline_ms = 0.01;
  cfg.serve.workers = 4;
  cfg.serve.max_queue = 0;  // 0 = unbounded, explicitly allowed
  EXPECT_NO_THROW(cfg.validate());
}

TEST(PipelineConfig, ResolvesDeployBits) {
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(5, 7);
  EXPECT_EQ(cfg.resolved_deploy_weight_bits(), 5);
  EXPECT_EQ(cfg.resolved_deploy_act_bits(), 7);
  cfg.precision = PrecisionPlan::fp32();
  EXPECT_EQ(cfg.resolved_deploy_weight_bits(), 6);  // runtime's classic W6A8
  EXPECT_EQ(cfg.resolved_deploy_act_bits(), 8);
  cfg.deploy.weight_bits = 4;
  cfg.deploy.act_bits = 6;
  EXPECT_EQ(cfg.resolved_deploy_weight_bits(), 4);
  EXPECT_EQ(cfg.resolved_deploy_act_bits(), 6);
}

// ---- façade vs hand-wired equivalence (bit-for-bit) ----

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

TEST(PipelineEquivalence, UniformW9A9MatchesHandWiredSimulator) {
  const Network net = resnet50();
  EpimSimulator sim;
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  const QuantConfig scheme;
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  const auto hand =
      sim.evaluate(uni, PrecisionConfig::uniform(9, 9), scheme, proj);

  Pipeline pipeline{PipelineConfig{}};  // defaults: uniform 1024x256, W9A9
  const CompiledModel model = pipeline.compile(net);
  expect_same_evaluation(model.estimate(), hand);
}

TEST(PipelineEquivalence, BaselineFp32MatchesHandWiredSimulator) {
  const Network net = resnet50();
  EpimSimulator sim;
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  const QuantConfig scheme;
  const auto hand = sim.evaluate(NetworkAssignment::baseline(net),
                                 PrecisionConfig::uniform(32, 32), scheme,
                                 proj);

  PipelineConfig cfg;
  cfg.design.policy = DesignPolicy::kBaseline;
  cfg.precision = PrecisionPlan::fp32();
  const CompiledModel model = Pipeline(cfg).compile(net);
  expect_same_evaluation(model.estimate(), hand);
}

TEST(PipelineEquivalence, HawqMixedMatchesHandWiredAllocation) {
  const Network net = resnet50();
  EpimSimulator sim;
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  const QuantConfig scheme;
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  MixedPrecisionConfig mp;
  const auto alloc = hawq_lite_allocate(uni, mp, sim.crossbar_config());
  const auto hand = sim.evaluate(uni, alloc.precision, scheme, proj);

  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::hawq_mixed(mp);
  const CompiledModel model = Pipeline(cfg).compile(net);
  ASSERT_TRUE(model.mixed_precision().has_value());
  EXPECT_EQ(model.precision().weight_bits, alloc.precision.weight_bits);
  expect_same_evaluation(model.estimate(), hand);
}

TEST(PipelineEquivalence, CompiledModelOutlivesSourceNetwork) {
  Pipeline pipeline{PipelineConfig{}};
  std::optional<CompiledModel> model;
  {
    const Network net = resnet18();
    model.emplace(pipeline.compile(net));
  }  // source network destroyed; the compiled artifact owns its copy
  EXPECT_GT(model->estimate().cost.num_crossbars, 0);
  EXPECT_EQ(model->network().name(), "ResNet18");
}

// ---- backend agreement (HW/SW activity counts) ----

TEST(PipelineBackends, ActivityCountsAgreeOnWrappedLayer) {
  const ConvLayerInfo layer{"probe", ConvSpec{16, 32, 3, 3, 1, 1}, 8, 8};
  EpitomeSpec spec{4, 4, 8, 16};
  spec.wrap_output = true;

  const AnalyticalBackend analytical(CrossbarConfig{}, HardwareLut{});
  const DatapathBackend datapath(CrossbarConfig{}, HardwareLut{});
  const LayerActivity a = analytical.layer_activity(layer, spec, 1);
  const LayerActivity d = datapath.layer_activity(layer, spec, 1);
  EXPECT_GT(a.positions, 0);
  EXPECT_GT(a.crossbar_rounds, 0);
  EXPECT_GT(a.replica_copies, 0);  // wrapping produces replicas
  EXPECT_EQ(a, d);
}

TEST(PipelineBackends, ActivityCountsAgreeOnStridedLayer) {
  const ConvLayerInfo layer{"probe", ConvSpec{32, 64, 3, 3, 2, 1}, 16, 16};
  const EpitomeSpec spec{4, 4, 16, 32};
  const AnalyticalBackend analytical(CrossbarConfig{}, HardwareLut{});
  const DatapathBackend datapath(CrossbarConfig{}, HardwareLut{});
  EXPECT_EQ(analytical.layer_activity(layer, spec, 7),
            datapath.layer_activity(layer, spec, 7));
}

TEST(PipelineBackends, DatapathBackendEvaluateCrossChecksCleanly) {
  // A small two-layer network the functional datapath can verify quickly;
  // evaluate() throws InternalError if HW and SW activity ever disagree.
  Network net("probe-net");
  net.add_conv({"c1", ConvSpec{16, 32, 3, 3, 1, 1}, 8, 8});
  net.add_conv({"c2", ConvSpec{32, 32, 3, 3, 1, 1}, 8, 8});

  PipelineConfig cfg;
  cfg.backend = BackendKind::kDatapath;
  cfg.design.uniform.target_rows = 64;
  cfg.design.uniform.target_cout = 16;
  cfg.design.uniform.crossbar_size = 16;
  cfg.design.uniform.skip_small_layers = false;
  cfg.design.wrap_output = true;

  PipelineConfig analytical_cfg = cfg;
  analytical_cfg.backend = BackendKind::kAnalytical;

  const CompiledModel functional = Pipeline(cfg).compile(net);
  const CompiledModel analytical = Pipeline(analytical_cfg).compile(net);
  EXPECT_GT(functional.estimate().cost.num_crossbars, 0);
  expect_same_evaluation(functional.estimate(), analytical.estimate());
}

// ---- search ----

TEST(PipelineSearch, ThrowsUnlessEnabled) {
  CompiledModel model = Pipeline{PipelineConfig{}}.compile(resnet18());
  EXPECT_THROW(model.search(), InvalidArgument);
}

TEST(PipelineSearch, RefinesWithinBudgetAndInvalidatesEstimate) {
  const Network net = resnet18();
  PipelineConfig cfg;
  Pipeline probe(cfg);
  const auto uniform_cost = probe.compile(net).estimate().cost;

  cfg.search.enabled = true;
  cfg.search.evo.population = 8;
  cfg.search.evo.iterations = 4;
  cfg.search.evo.parents = 2;
  cfg.search.evo.crossbar_budget = uniform_cost.num_crossbars;
  cfg.search.evo.objective = SearchObjective::kEdp;
  cfg.search.evo.candidates.wrap_output = true;

  CompiledModel model = Pipeline(cfg).compile(net);
  const auto before = model.estimate();
  const EvoSearchResult result = model.search();
  EXPECT_GT(result.evaluations, 0);
  EXPECT_LE(result.best_cost.num_crossbars, uniform_cost.num_crossbars);
  // The cached estimate was refreshed for the refined assignment.
  EXPECT_EQ(model.estimate().cost.num_crossbars,
            result.best_cost.num_crossbars);
  EXPECT_LE(model.estimate().cost.edp(), before.cost.edp());
}

// ---- deployment ----

TEST(PipelineDeploy, RuntimeConfigDerivation) {
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(5, 7);
  cfg.deploy.non_ideal.conductance_sigma = 0.25;
  Pipeline pipeline(cfg);

  SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.train_per_class = 6;
  dspec.test_per_class = 4;
  const SyntheticData data = make_synthetic_data(dspec);
  SmallNetConfig nspec;
  nspec.num_classes = 4;
  SmallEpitomeNet net(nspec);

  DeployedModel chip = pipeline.deploy(net, data.train);
  EXPECT_EQ(chip.runtime_config().weight_bits, 5);
  EXPECT_EQ(chip.runtime_config().act_bits, 7);
  // The documented deployment ADC default replaces RuntimeConfig's old
  // silent 12-bit override.
  EXPECT_EQ(chip.runtime_config().crossbar.adc_bits, 12);
  EXPECT_EQ(chip.runtime_config().non_ideal.conductance_sigma, 0.25);
  EXPECT_GT(chip.total_crossbars(), 0);
}

TEST(PipelineDeploy, TrainedModelRunsOnChip) {
  SyntheticSpec dspec;
  dspec.num_classes = 5;
  dspec.train_per_class = 20;
  dspec.test_per_class = 10;
  dspec.noise = 0.3f;
  const SyntheticData data = make_synthetic_data(dspec);
  SmallNetConfig nspec;
  nspec.num_classes = 5;
  SmallEpitomeNet net(nspec);
  TrainConfig tcfg;
  tcfg.epochs = 6;
  const TrainResult trained = train_model(net, data, tcfg);
  ASSERT_GT(trained.test_accuracy, 0.6);

  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(8, 10);
  DeployedModel chip = Pipeline(cfg).deploy(net, data.train);
  const double chip_acc = chip.evaluate(data.test);
  EXPECT_GE(chip_acc, trained.test_accuracy - 0.1);
  const Tensor logits = chip.forward(data.test.sample(0));
  EXPECT_EQ(logits.shape(), (Shape{5}));
}

// ---- reporting ----

TEST(PipelineReport, SummaryMentionsKeyFacts) {
  const CompiledModel model = Pipeline{PipelineConfig{}}.compile(resnet18());
  const TextTable table = model.to_table();
  EXPECT_GT(table.num_rows(), 10u);
  const std::string text = model.summary();
  EXPECT_NE(text.find("ResNet18"), std::string::npos);
  EXPECT_NE(text.find("W9A9"), std::string::npos);
  EXPECT_NE(text.find("analytical-estimator"), std::string::npos);
  EXPECT_NE(text.find("crossbars"), std::string::npos);
}

}  // namespace
}  // namespace epim
