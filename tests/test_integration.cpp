// Integration tests across modules: the end-to-end claims of the paper at
// test scale.
//
//  * Table 1 mechanics: epitome + quantization shrinks crossbars massively
//    while the simulator stays self-consistent.
//  * Table 2 mechanics: on a *really trained* epitome CNN, the quantization
//    scheme ladder (naive -> +crossbar -> +overlap) does not lose accuracy
//    and reduces weighted noise.
//  * Fig. 4 mechanics: channel wrapping and evolutionary search each improve
//    latency/energy/EDP over the uniform epitome at matched compression.
//  * Hardware/software agreement: the analytical estimator's activity
//    counts match the functional datapath's counters.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "datapath/datapath_sim.hpp"
#include "nn/resnet.hpp"
#include "quant/mixed_precision.hpp"
#include "search/evolution.hpp"
#include "sim/simulator.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

TEST(Integration, Table1MechanicsResNet50) {
  EpimSimulator sim;
  const Network net = resnet50();
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  const QuantConfig scheme;  // overlap-weighted
  const auto base = NetworkAssignment::baseline(net);
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});

  const auto fp_base =
      sim.evaluate(base, PrecisionConfig::uniform(32, 32), scheme, proj);
  const auto fp_epi =
      sim.evaluate(uni, PrecisionConfig::uniform(32, 32), scheme, proj);
  const auto w3 =
      sim.evaluate(uni, PrecisionConfig::uniform(3, 9), scheme, proj);

  // Epitome compresses crossbars at FP32 and stacks with quantization.
  EXPECT_GT(static_cast<double>(fp_base.cost.num_crossbars) /
                fp_epi.cost.num_crossbars,
            2.0);
  EXPECT_GT(static_cast<double>(fp_base.cost.num_crossbars) /
                w3.cost.num_crossbars,
            10.0);
  // Latency rises at FP32 (more rounds) but quantization wins it back.
  EXPECT_GT(fp_epi.cost.latency_ms, fp_base.cost.latency_ms);
  EXPECT_LT(w3.cost.latency_ms, fp_base.cost.latency_ms);
  // Energy: large reduction end to end (paper: 23x).
  EXPECT_GT(fp_base.cost.energy_mj() / w3.cost.energy_mj(), 10.0);
  // Accuracy ordering: FP32 conv > FP32 epitome > W3 epitome, with W3 still
  // in the paper's band.
  EXPECT_GT(fp_base.projected_accuracy, fp_epi.projected_accuracy);
  EXPECT_GT(fp_epi.projected_accuracy, w3.projected_accuracy);
  EXPECT_GT(w3.projected_accuracy, 68.0);
}

TEST(Integration, Table1MechanicsResNet101) {
  EpimSimulator sim;
  const Network net = resnet101();
  const AccuracyProjector proj(AccuracyAnchors::resnet101());
  const QuantConfig scheme;
  const auto base = NetworkAssignment::baseline(net);
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  const auto fp_base =
      sim.evaluate(base, PrecisionConfig::uniform(32, 32), scheme, proj);
  const auto w3 =
      sim.evaluate(uni, PrecisionConfig::uniform(3, 9), scheme, proj);
  EXPECT_GT(static_cast<double>(fp_base.cost.num_crossbars) /
                w3.cost.num_crossbars,
            8.0);
  EXPECT_GT(fp_base.cost.energy_mj() / w3.cost.energy_mj(), 10.0);
  EXPECT_GT(w3.projected_accuracy, 72.0);
}

TEST(Integration, BitwidthLadderMonotone) {
  // Paper Table 1: crossbars/latency/energy all fall as bits shrink; the
  // projected accuracy falls too.
  EpimSimulator sim;
  const Network net = resnet50();
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  const QuantConfig scheme;
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  double prev_energy = 1e18, prev_acc = 100.0;
  std::int64_t prev_xb = 1 << 30;
  for (const int bits : {9, 7, 5, 3}) {
    const auto e =
        sim.evaluate(uni, PrecisionConfig::uniform(bits, 9), scheme, proj);
    EXPECT_LT(e.cost.num_crossbars, prev_xb) << bits;
    EXPECT_LT(e.cost.energy_mj(), prev_energy) << bits;
    EXPECT_LT(e.projected_accuracy, prev_acc) << bits;
    prev_xb = e.cost.num_crossbars;
    prev_energy = e.cost.energy_mj();
    prev_acc = e.projected_accuracy;
  }
}

TEST(Integration, SchemeLadderOnSimulatedResNet) {
  // Table 2's ordering measured through the whole simulator path.
  EpimSimulator sim;
  const Network net = resnet50();
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  const auto precision = PrecisionConfig::uniform(3, 9);
  QuantConfig naive;
  naive.scheme = RangeScheme::kMinMax;
  QuantConfig xbar;
  xbar.scheme = RangeScheme::kPerCrossbar;
  QuantConfig overlap;
  overlap.scheme = RangeScheme::kOverlapWeighted;
  const double m_naive =
      sim.measure_noise(uni, precision, naive).weighted_mse();
  const double m_xbar = sim.measure_noise(uni, precision, xbar).weighted_mse();
  const double m_overlap =
      sim.measure_noise(uni, precision, overlap).weighted_mse();
  EXPECT_LE(m_xbar, m_naive * 1.0001);
  EXPECT_LE(m_overlap, m_xbar * 1.0001);
}

TEST(Integration, TrainedQuantizationTrend) {
  // Train the small epitome CNN for real, then quantize at 3 bits with the
  // three schemes. The trend of Table 2 must hold: the epitome-aware
  // schemes must not be worse than naive min/max (and the model must still
  // work at all).
  SyntheticSpec dspec;
  dspec.num_classes = 6;
  dspec.train_per_class = 24;
  dspec.test_per_class = 10;
  const SyntheticData data = make_synthetic_data(dspec);
  SmallNetConfig nspec;
  nspec.num_classes = 6;
  SmallEpitomeNet net(nspec);
  TrainConfig tcfg;
  tcfg.epochs = 8;
  const TrainResult trained = train_model(net, data, tcfg);
  ASSERT_GT(trained.test_accuracy, 0.7);

  QuantConfig naive;
  naive.bits = 3;
  naive.scheme = RangeScheme::kMinMax;
  QuantConfig xbar = naive;
  xbar.scheme = RangeScheme::kPerCrossbar;
  QuantConfig overlap = naive;
  overlap.scheme = RangeScheme::kOverlapWeighted;

  const auto r_naive = evaluate_quantized(net, data.test, naive);
  const auto r_xbar = evaluate_quantized(net, data.test, xbar);
  const auto r_overlap = evaluate_quantized(net, data.test, overlap);

  // Noise ordering is strict; accuracy ordering is allowed slack because a
  // small test set quantizes accuracy in lumps.
  EXPECT_LE(r_xbar.weighted_mse, r_naive.weighted_mse * 1.0001);
  EXPECT_LE(r_overlap.weighted_mse, r_xbar.weighted_mse * 1.0001);
  EXPECT_GE(r_overlap.accuracy, r_naive.accuracy - 0.05);
  EXPECT_GT(r_overlap.accuracy, 0.5);
}

TEST(Integration, WrappingImprovesEdpAtSameCompression) {
  // Fig. 4, EPIM-Channel-Wrapping vs uniform: same crossbar count, lower
  // latency, energy and EDP.
  EpimSimulator sim;
  const Network net = resnet50();
  const auto precision = PrecisionConfig::uniform(9, 9);
  auto plain = NetworkAssignment::uniform(net, UniformDesign{});
  auto wrapped = NetworkAssignment::uniform(net, UniformDesign{});
  wrapped.set_wrap_output(true);
  const auto a = sim.estimator().eval_network(plain, precision);
  const auto b = sim.estimator().eval_network(wrapped, precision);
  EXPECT_EQ(a.num_crossbars, b.num_crossbars);
  EXPECT_EQ(plain.total_weights(), wrapped.total_weights());
  EXPECT_LT(b.latency_ms, a.latency_ms);
  EXPECT_LT(b.energy_mj(), a.energy_mj());
  EXPECT_LT(b.edp(), a.edp() * 0.9);
}

TEST(Integration, EvoSearchPlusWrappingIsEpimOpt) {
  // Fig. 4, EPIM-Opt: search + wrapping dominates the uniform design.
  EpimSimulator sim;
  const Network net = resnet50();
  const auto precision = PrecisionConfig::uniform(9, 9);
  const auto uniform = NetworkAssignment::uniform(net, UniformDesign{});
  const auto uniform_cost = sim.estimator().eval_network(uniform, precision);

  EvoSearchConfig cfg;
  cfg.population = 16;
  cfg.iterations = 10;
  cfg.parents = 4;
  cfg.crossbar_budget = uniform_cost.num_crossbars;
  cfg.precision = precision;
  cfg.objective = SearchObjective::kEdp;
  cfg.candidates.wrap_output = true;
  const auto result = EvolutionSearch(net, sim.estimator(), cfg).run();
  EXPECT_LE(result.best_cost.num_crossbars, uniform_cost.num_crossbars);
  EXPECT_LT(result.best_cost.edp(), uniform_cost.edp());
}

TEST(Integration, EstimatorAgreesWithDatapathActivityCounts) {
  // The analytical model's rounds/replica accounting must equal what the
  // functional datapath actually does.
  Rng rng(1);
  const ConvSpec conv{16, 32, 3, 3, 1, 1};
  const ConvLayerInfo layer{"probe", conv, 8, 8};
  EpitomeSpec spec{4, 4, 8, 16};
  spec.wrap_output = true;

  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const LayerCost cost = est.eval_epitome_layer(layer, spec, 9, 9);

  Epitome epitome = Epitome::random(spec, conv, rng);
  DatapathSimulator dsim(layer, epitome);
  Tensor x({16, 8, 8});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  dsim.run(x);
  const auto& st = dsim.stats();
  EXPECT_EQ(st.crossbar_rounds,
            cost.positions * cost.rounds_per_position);
  EXPECT_EQ(st.replica_copies,
            cost.positions * cost.replicas_per_position);
}

TEST(Integration, MixedPrecisionLandsBetweenUniformRows) {
  // Paper's W3mp row sits between W3 and W5 in crossbars AND in projected
  // accuracy.
  EpimSimulator sim;
  const Network net = resnet50();
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  const QuantConfig scheme;
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  MixedPrecisionConfig mp;
  const auto alloc = hawq_lite_allocate(uni, mp, sim.crossbar_config());
  const auto mixed = sim.evaluate(uni, alloc.precision, scheme, proj);
  const auto w3 =
      sim.evaluate(uni, PrecisionConfig::uniform(3, 9), scheme, proj);
  const auto w5 =
      sim.evaluate(uni, PrecisionConfig::uniform(5, 9), scheme, proj);
  EXPECT_GT(mixed.cost.num_crossbars, w3.cost.num_crossbars);
  EXPECT_LT(mixed.cost.num_crossbars, w5.cost.num_crossbars);
  EXPECT_GT(mixed.projected_accuracy, w3.projected_accuracy);
  EXPECT_LE(mixed.projected_accuracy, w5.projected_accuracy + 0.01);
}

TEST(Integration, UtilizationStaysHighAcrossConfigs) {
  // Paper Table 1 reports 93-98% memristor utilization for every EPIM row;
  // the crossbar-aligned designer must keep ours in that regime.
  EpimSimulator sim;
  const Network net = resnet50();
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  for (const int bits : {3, 5, 7, 9}) {
    const auto c =
        sim.estimator().eval_network(uni, PrecisionConfig::uniform(bits, 9));
    EXPECT_GT(c.utilization, 0.85) << bits;
  }
}

}  // namespace
}  // namespace epim
