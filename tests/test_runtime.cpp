// Tests for src/runtime + crossbar non-idealities: bit-accurate deployment
// of a trained model onto the simulated PIM chip.
#include <gtest/gtest.h>

#include "pim/crossbar.hpp"
#include "quant/activation_quant.hpp"
#include "runtime/pim_runtime.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

// ---- activation quantization ----

TEST(ActivationQuant, ObserverRangeCoversData) {
  ActivationObserver obs;
  Tensor t({100});
  for (std::int64_t i = 0; i < 100; ++i) {
    t.at(i) = static_cast<float>(i) / 10.0f;
  }
  obs.observe(t);
  const QuantParams p = obs.params(8);
  EXPECT_NEAR(p.dequantize(p.max_code()), 9.9, 0.05);
  EXPECT_EQ(p.quantize(0.0), 0);
}

TEST(ActivationQuant, PercentileClipsOutliers) {
  ActivationObserver clipped(0.9);
  ActivationObserver full(1.0);
  Tensor t({1000});
  for (std::int64_t i = 0; i < 1000; ++i) {
    t.at(i) = i < 990 ? 1.0f : 100.0f;  // 1% huge outliers
  }
  clipped.observe(t);
  full.observe(t);
  EXPECT_LT(clipped.params(8).scale, full.params(8).scale / 10);
}

TEST(ActivationQuant, RoundTrip) {
  const QuantParams p = QuantParams::from_range(0.0, 4.0, 8);
  Tensor t({5}, std::vector<float>{0.0f, 1.0f, 2.5f, 4.0f, 9.0f});
  const auto codes = quantize_activations(t, p);
  const Tensor back = dequantize_activations(codes, t.shape(), p);
  EXPECT_NEAR(back(0), 0.0, 1e-6);
  EXPECT_NEAR(back(2), 2.5, p.scale);
  EXPECT_NEAR(back(4), 4.0, p.scale);  // clamped to the range ceiling
}

TEST(ActivationQuant, UncalibratedObserverThrows) {
  ActivationObserver obs;
  EXPECT_THROW(obs.params(8), InvalidArgument);
}

// ---- non-ideal crossbars ----

std::vector<std::vector<int>> small_weights() {
  return {{3, -2}, {-1, 4}, {2, 2}, {-3, 1}};
}

TEST(NonIdeal, ZeroConfigIsBitExact) {
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  CrossbarArray ideal(cfg, 4, small_weights());
  CrossbarArray with_cfg(cfg, 4, small_weights(), NonIdealityConfig{});
  const std::vector<std::uint32_t> x = {1, 2, 3, 4};
  EXPECT_EQ(ideal.mvm(x, 3), with_cfg.mvm(x, 3));
}

TEST(NonIdeal, ConductanceNoisePerturbsResults) {
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  NonIdealityConfig ni;
  ni.conductance_sigma = 0.4;
  CrossbarArray ideal(cfg, 4, small_weights());
  CrossbarArray noisy(cfg, 4, small_weights(), ni);
  const std::vector<std::uint32_t> x = {7, 7, 7, 7};
  const auto a = ideal.mvm(x, 3);
  const auto b = noisy.mvm(x, 3);
  // With sigma 0.4 on every cell, some column must deviate.
  EXPECT_TRUE(a[0] != b[0] || a[1] != b[1]);
}

TEST(NonIdeal, NoiseIsDeterministicUnderSeed) {
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  NonIdealityConfig ni;
  ni.conductance_sigma = 0.3;
  ni.seed = 99;
  CrossbarArray a(cfg, 4, small_weights(), ni);
  CrossbarArray b(cfg, 4, small_weights(), ni);
  const std::vector<std::uint32_t> x = {5, 1, 2, 6};
  EXPECT_EQ(a.mvm(x, 3), b.mvm(x, 3));
}

TEST(NonIdeal, StuckAtZeroKillsContributions) {
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  NonIdealityConfig ni;
  ni.stuck_at_zero_prob = 1.0;  // every cell dead
  CrossbarArray dead(cfg, 4, small_weights(), ni);
  const std::vector<std::uint32_t> x = {1, 1, 1, 1};
  const auto out = dead.mvm(x, 2);
  // All conductances zero: the analog sum is 0, so after offset correction
  // the result is -offset * sum(x).
  EXPECT_EQ(out[0], -8 * 4);
  EXPECT_EQ(out[1], -8 * 4);
}

struct SigmaCase {
  double sigma;
};

class NoiseSweep : public ::testing::TestWithParam<SigmaCase> {};

TEST_P(NoiseSweep, ErrorGrowsWithSigma) {
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  Rng rng(42);
  std::vector<std::vector<int>> w(64, std::vector<int>(8));
  for (auto& row : w) {
    for (auto& v : row) v = rng.uniform_int(-7, 7);
  }
  std::vector<std::uint32_t> x(64);
  for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(0, 15));
  CrossbarArray ideal(cfg, 4, w);
  const auto ref = ideal.mvm(x, 4);
  NonIdealityConfig ni;
  ni.conductance_sigma = GetParam().sigma;
  CrossbarArray noisy(cfg, 4, w, ni);
  const auto got = noisy.mvm(x, 4);
  double err = 0.0;
  for (std::size_t c = 0; c < got.size(); ++c) {
    err += std::abs(static_cast<double>(got[c] - ref[c]));
  }
  if (GetParam().sigma == 0.0) {
    EXPECT_EQ(err, 0.0);
  } else {
    EXPECT_GT(err, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, NoiseSweep,
                         ::testing::Values(SigmaCase{0.0}, SigmaCase{0.1},
                                           SigmaCase{0.3}, SigmaCase{0.6}));

// ---- the deployed runtime ----

struct TrainedModel {
  SyntheticData data;
  SmallEpitomeNet net;
  double fp32_accuracy;
};

TrainedModel& trained_model() {
  static TrainedModel* model = [] {
    SyntheticSpec dspec;
    dspec.num_classes = 5;
    dspec.train_per_class = 20;
    dspec.test_per_class = 10;
    dspec.noise = 0.3f;
    auto* m = new TrainedModel{make_synthetic_data(dspec),
                               SmallEpitomeNet([] {
                                 SmallNetConfig c;
                                 c.num_classes = 5;
                                 return c;
                               }()),
                               0.0};
    TrainConfig tcfg;
    tcfg.epochs = 8;
    m->fp32_accuracy = train_model(m->net, m->data, tcfg).test_accuracy;
    return m;
  }();
  return *model;
}

TEST(Runtime, DeployExportShapes) {
  auto& m = trained_model();
  const auto deploy = m.net.deploy();
  EXPECT_EQ(deploy.block1.conv().in_channels, 3);
  EXPECT_EQ(deploy.block2.conv().out_channels, 32);
  EXPECT_EQ(deploy.block3.conv().out_channels, 64);
  EXPECT_EQ(deploy.bn3.scale.size(), 64u);
  EXPECT_EQ(deploy.dense_w.dim(0), 5);
}

// RuntimeConfig no longer widens the ADC silently; deployment-grade configs
// set the 12-bit deployment ADC explicitly (the façade derives it from
// HardwareConfig::deploy_adc_bits).
RuntimeConfig deploy_config(int weight_bits, int act_bits) {
  RuntimeConfig cfg;
  cfg.weight_bits = weight_bits;
  cfg.act_bits = act_bits;
  cfg.crossbar.adc_bits = 12;
  return cfg;
}

TEST(Runtime, HighPrecisionDeploymentMatchesFloatModel) {
  auto& m = trained_model();
  ASSERT_GT(m.fp32_accuracy, 0.75);
  const RuntimeConfig cfg = deploy_config(8, 10);
  PimNetworkRuntime runtime(m.net, m.data.train, cfg);
  std::int64_t clips = -1;
  const double chip_acc = runtime.evaluate(m.data.test, &clips);
  // 8-bit weights / 10-bit activations on a clean chip must track the float
  // model closely.
  EXPECT_GE(chip_acc, m.fp32_accuracy - 0.06);
  EXPECT_EQ(clips, 0);
}

TEST(Runtime, LowPrecisionDegradesGracefully) {
  auto& m = trained_model();
  const RuntimeConfig hi = deploy_config(8, 10);
  const RuntimeConfig lo = deploy_config(3, 4);
  const double acc_hi =
      PimNetworkRuntime(m.net, m.data.train, hi).evaluate(m.data.test);
  const double acc_lo =
      PimNetworkRuntime(m.net, m.data.train, lo).evaluate(m.data.test);
  EXPECT_LE(acc_lo, acc_hi + 0.05);
  // Even at 3-bit the model must stay far above chance (0.2).
  EXPECT_GT(acc_lo, 0.4);
}

TEST(Runtime, DeviceNoiseCostsAccuracy) {
  auto& m = trained_model();
  const RuntimeConfig clean = deploy_config(6, 8);
  RuntimeConfig noisy = clean;
  noisy.non_ideal.conductance_sigma = 0.8;
  noisy.non_ideal.stuck_at_zero_prob = 0.05;
  const double acc_clean =
      PimNetworkRuntime(m.net, m.data.train, clean).evaluate(m.data.test);
  const double acc_noisy =
      PimNetworkRuntime(m.net, m.data.train, noisy).evaluate(m.data.test);
  EXPECT_LT(acc_noisy, acc_clean + 1e-9);
}

TEST(Runtime, CrossbarBudgetAccounted) {
  auto& m = trained_model();
  const RuntimeConfig cfg = deploy_config(6, 8);
  PimNetworkRuntime runtime(m.net, m.data.train, cfg);
  EXPECT_GT(runtime.total_crossbars(), 0);
  EXPECT_LT(runtime.total_crossbars(), 64);  // small model, small chip
}

TEST(Runtime, ForwardShape) {
  auto& m = trained_model();
  const RuntimeConfig cfg = deploy_config(6, 8);
  PimNetworkRuntime runtime(m.net, m.data.train, cfg);
  const Tensor logits = runtime.forward(m.data.test.sample(0));
  EXPECT_EQ(logits.shape(), (Shape{5}));
}

}  // namespace
}  // namespace epim
