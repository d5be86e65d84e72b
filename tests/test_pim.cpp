// Unit tests for src/pim: weight mapping, the functional bit-sliced crossbar
// (exactness vs integer matmul, ADC clipping), and the analytical estimator's
// structural properties.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/assignment.hpp"
#include "nn/resnet.hpp"
#include "pim/crossbar.hpp"
#include "pim/estimator.hpp"
#include "pim/mapping.hpp"

namespace epim {
namespace {

TEST(Mapping, SliceCounts) {
  CrossbarConfig cfg;  // 2-bit cells
  EXPECT_EQ(cfg.weight_slices(1), 1);
  EXPECT_EQ(cfg.weight_slices(2), 1);
  EXPECT_EQ(cfg.weight_slices(3), 2);
  EXPECT_EQ(cfg.weight_slices(9), 5);
  EXPECT_EQ(cfg.weight_slices(16), 8);
}

TEST(Mapping, TileArithmetic) {
  CrossbarConfig cfg;
  const LayerMapping m = map_weight_matrix(576, 256, 9, cfg);
  EXPECT_EQ(m.slices, 5);
  EXPECT_EQ(m.cols_physical, 1280);
  EXPECT_EQ(m.tiles_r, 5);    // ceil(576/128)
  EXPECT_EQ(m.tiles_c, 10);   // ceil(1280/128)
  EXPECT_EQ(m.num_crossbars, 50);
}

TEST(Mapping, PerfectAlignmentGivesFullUtilization) {
  CrossbarConfig cfg;
  const LayerMapping m = map_weight_matrix(1024, 256, 8, cfg);  // 4 slices
  EXPECT_EQ(m.num_crossbars, 8 * 8);
  EXPECT_DOUBLE_EQ(m.utilization, 1.0);
}

TEST(Mapping, PartialTileLowersUtilization) {
  CrossbarConfig cfg;
  const LayerMapping m = map_weight_matrix(129, 10, 2, cfg);
  EXPECT_EQ(m.tiles_r, 2);
  EXPECT_LT(m.utilization, 0.6);
}

TEST(Mapping, RejectsEmptyMatrix) {
  CrossbarConfig cfg;
  EXPECT_THROW(map_weight_matrix(0, 10, 8, cfg), InvalidArgument);
}

// ---- functional crossbar ----

std::vector<std::vector<int>> random_weights(Rng& rng, std::int64_t rows,
                                             std::int64_t cols, int bits) {
  const int lo = -(1 << (bits - 1)), hi = (1 << (bits - 1)) - 1;
  std::vector<std::vector<int>> w(static_cast<std::size_t>(rows),
                                  std::vector<int>(
                                      static_cast<std::size_t>(cols)));
  for (auto& row : w) {
    for (auto& v : row) v = rng.uniform_int(lo, hi);
  }
  return w;
}

std::vector<std::int64_t> reference_mvm(
    const std::vector<std::vector<int>>& w,
    const std::vector<std::uint32_t>& x, const std::vector<bool>& en) {
  const std::size_t cols = w.front().size();
  std::vector<std::int64_t> acc(cols, 0);
  for (std::size_t r = 0; r < w.size(); ++r) {
    if (!en[r]) continue;
    for (std::size_t c = 0; c < cols; ++c) {
      acc[c] += static_cast<std::int64_t>(w[r][c]) *
                static_cast<std::int64_t>(x[r]);
    }
  }
  return acc;
}

struct XbarCase {
  std::int64_t rows, cols;
  int weight_bits, act_bits;
};

class CrossbarExactness : public ::testing::TestWithParam<XbarCase> {};

TEST_P(CrossbarExactness, MatchesIntegerMatmul) {
  const auto p = GetParam();
  Rng rng(1234);
  CrossbarConfig cfg;
  cfg.adc_bits = 12;  // generous ADC: the analog path must be exact
  const auto w = random_weights(rng, p.rows, p.cols, p.weight_bits);
  CrossbarArray xbar(cfg, p.weight_bits, w);
  std::vector<std::uint32_t> x(static_cast<std::size_t>(p.rows));
  std::vector<bool> en(static_cast<std::size_t>(p.rows));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<std::uint32_t>(
        rng.uniform_int(0, (1 << p.act_bits) - 1));
    en[i] = rng.flip(0.8);
  }
  std::vector<std::int64_t> got;
  std::int64_t clips = 0;
  xbar.mvm(x, en, p.act_bits, got, &clips);
  const auto want = reference_mvm(w, x, en);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) EXPECT_EQ(got[c], want[c]);
  EXPECT_EQ(clips, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossbarExactness,
    ::testing::Values(XbarCase{16, 8, 4, 4}, XbarCase{128, 16, 9, 9},
                      XbarCase{64, 32, 3, 9}, XbarCase{128, 12, 16, 8},
                      XbarCase{1, 1, 2, 1}, XbarCase{37, 5, 5, 7},
                      XbarCase{128, 16, 8, 16}));

TEST(Crossbar, NegativeWeightsViaOffsetEncoding) {
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  std::vector<std::vector<int>> w = {{-3}, {2}, {-1}};
  CrossbarArray xbar(cfg, 4, w);
  const auto out = xbar.mvm({1, 2, 3}, 2);
  EXPECT_EQ(out[0], -3 * 1 + 2 * 2 - 1 * 3);
}

TEST(Crossbar, RowMaskingZeroesContribution) {
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  std::vector<std::vector<int>> w = {{5}, {7}};
  CrossbarArray xbar(cfg, 4, w);
  const auto out = xbar.mvm({3, 3}, {true, false}, 2);
  EXPECT_EQ(out[0], 15);
}

TEST(Crossbar, StarvedAdcClips) {
  CrossbarConfig cfg;
  cfg.adc_bits = 3;  // max current 7, easily exceeded
  Rng rng(7);
  const auto w = random_weights(rng, 64, 4, 8);
  CrossbarArray xbar(cfg, 8, w);
  std::vector<std::uint32_t> x(64, 255);
  std::vector<std::int64_t> got;
  std::int64_t clips = 0;
  xbar.mvm(x, std::vector<bool>(64, true), 8, got, &clips);
  EXPECT_GT(clips, 0);
  const auto want = reference_mvm(w, x, std::vector<bool>(64, true));
  // Clipping must bias results; at least one column deviates.
  bool deviates = false;
  for (std::size_t c = 0; c < got.size(); ++c) {
    deviates = deviates || got[c] != want[c];
  }
  EXPECT_TRUE(deviates);
}

TEST(Crossbar, DefaultAdcSufficientFor128Rows) {
  // 9-bit ADC covers 128 rows x max 2-bit cell digit (3) = 384 < 512.
  CrossbarConfig cfg;
  Rng rng(9);
  const auto w = random_weights(rng, 128, 8, 8);
  CrossbarArray xbar(cfg, 8, w);
  std::vector<std::uint32_t> x(128);
  for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
  std::vector<std::int64_t> got;
  std::int64_t clips = 0;
  xbar.mvm(x, std::vector<bool>(128, true), 8, got, &clips);
  EXPECT_EQ(clips, 0);
  const auto want = reference_mvm(w, x, std::vector<bool>(128, true));
  for (std::size_t c = 0; c < got.size(); ++c) EXPECT_EQ(got[c], want[c]);
}

TEST(Crossbar, RejectsOversizedWeights) {
  CrossbarConfig cfg;
  std::vector<std::vector<int>> w = {{9}};
  EXPECT_THROW(CrossbarArray(cfg, 4, w), InvalidArgument);  // 9 > 7
  std::vector<std::vector<int>> ok = {{7}};
  EXPECT_NO_THROW(CrossbarArray(cfg, 4, ok));
}

// ---- analytical estimator ----

ConvLayerInfo big_layer() {
  return {"stage4.conv2", ConvSpec{512, 512, 3, 3, 1, 1}, 7, 7};
}

TEST(Estimator, ConvLayerCostBasics) {
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const LayerCost c = est.eval_conv_layer(big_layer(), 9, 9);
  EXPECT_EQ(c.positions, 49);
  EXPECT_EQ(c.rounds_per_position, 1);
  EXPECT_GT(c.latency_ms, 0.0);
  EXPECT_GT(c.dynamic_energy_mj, 0.0);
  EXPECT_EQ(c.mapping.num_crossbars,
            map_weight_matrix(4608, 512, 9, CrossbarConfig{}).num_crossbars);
}

TEST(Estimator, EpitomeUsesFewerCrossbarsMoreRounds) {
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const EpitomeSpec spec{4, 4, 64, 256};  // 1024 x 256
  const LayerCost conv = est.eval_conv_layer(big_layer(), 9, 9);
  const LayerCost epi = est.eval_epitome_layer(big_layer(), spec, 9, 9);
  EXPECT_LT(epi.mapping.num_crossbars, conv.mapping.num_crossbars);
  EXPECT_GT(epi.rounds_per_position, 1);
  EXPECT_GT(epi.latency_ms, conv.latency_ms);
}

TEST(Estimator, LatencyScalesWithRounds) {
  // Sec. 5.1: latency increase is roughly proportional to the number of
  // activation rounds (the compression rate).
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const LayerCost small =
      est.eval_epitome_layer(big_layer(), EpitomeSpec{4, 4, 64, 256}, 9, 9);
  const LayerCost tiny =
      est.eval_epitome_layer(big_layer(), EpitomeSpec{4, 4, 16, 256}, 9, 9);
  EXPECT_GT(tiny.rounds_per_position, small.rounds_per_position);
  const double ratio = tiny.latency_ms / small.latency_ms;
  const double rounds_ratio =
      static_cast<double>(tiny.rounds_per_position) /
      static_cast<double>(small.rounds_per_position);
  EXPECT_NEAR(ratio, rounds_ratio, 0.25 * rounds_ratio);
}

TEST(Estimator, WrappingCutsRoundsAndEnergy) {
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  EpitomeSpec plain{4, 4, 64, 256};
  EpitomeSpec wrapped = plain;
  wrapped.wrap_output = true;
  const LayerCost a = est.eval_epitome_layer(big_layer(), plain, 9, 9);
  const LayerCost b = est.eval_epitome_layer(big_layer(), wrapped, 9, 9);
  EXPECT_LT(b.rounds_per_position, a.rounds_per_position);
  EXPECT_GT(b.replicas_per_position, 0);
  EXPECT_LT(b.latency_ms, a.latency_ms);
  EXPECT_LT(b.dynamic_energy_mj, a.dynamic_energy_mj);
}

TEST(Estimator, FewerWeightBitsFewerCrossbars) {
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  std::int64_t prev = 0;
  for (const int bits : {3, 5, 7, 9}) {
    const LayerCost c = est.eval_conv_layer(big_layer(), bits, 9);
    EXPECT_GT(c.mapping.num_crossbars, prev);
    prev = c.mapping.num_crossbars;
  }
}

TEST(Estimator, Fp32MappedToFixedPointEquivalent) {
  CrossbarConfig cfg;
  PimEstimator est(cfg, HardwareLut{});
  const LayerCost fp = est.eval_conv_layer(big_layer(), 32, 32);
  const LayerCost w16 = est.eval_conv_layer(big_layer(), cfg.fp32_weight_bits,
                                            cfg.fp32_act_bits);
  EXPECT_EQ(fp.mapping.num_crossbars, w16.mapping.num_crossbars);
  EXPECT_DOUBLE_EQ(fp.latency_ms, w16.latency_ms);
}

TEST(Estimator, NetworkCostAggregates) {
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const Network net = mini_resnet();
  const auto base = NetworkAssignment::baseline(net);
  const NetworkCost c = est.eval_network(base, PrecisionConfig::uniform(9, 9));
  EXPECT_EQ(static_cast<std::int64_t>(c.layers.size()),
            base.num_layers());
  std::int64_t xb = 0;
  double lat = 0.0;
  for (const auto& l : c.layers) {
    xb += l.mapping.num_crossbars;
    lat += l.latency_ms;
  }
  EXPECT_EQ(c.num_crossbars, xb);
  EXPECT_NEAR(c.latency_ms, lat, 1e-9);
  EXPECT_GT(c.static_energy_mj, 0.0);
  EXPECT_GT(c.utilization, 0.3);
  EXPECT_LE(c.utilization, 1.0);
}

TEST(Estimator, ResNet50BaselineInPaperRegime) {
  // The calibrated model must stay in the regime of Table 1's FP32 row:
  // 13120 XBs / 139.8 ms / 214 mJ (we accept +-15%).
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const Network net = resnet50();
  const auto base = NetworkAssignment::baseline(net);
  const NetworkCost c =
      est.eval_network(base, PrecisionConfig::uniform(32, 32));
  EXPECT_NEAR(static_cast<double>(c.num_crossbars), 13120.0, 0.15 * 13120.0);
  EXPECT_NEAR(c.latency_ms, 139.8, 0.15 * 139.8);
  EXPECT_NEAR(c.energy_mj(), 214.0, 0.15 * 214.0);
  EXPECT_GT(c.utilization, 0.90);
}

TEST(Estimator, StaticEnergyRewardsFewerCrossbars) {
  // The epitome model has fewer crossbars; even though it runs longer, its
  // static energy must drop (the effect that makes epitome FP32 energy
  // competitive in Table 1).
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const Network net = resnet50();
  const auto base = NetworkAssignment::baseline(net);
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  const auto precision = PrecisionConfig::uniform(32, 32);
  const NetworkCost cb = est.eval_network(base, precision);
  const NetworkCost ce = est.eval_network(uni, precision);
  EXPECT_LT(ce.num_crossbars, cb.num_crossbars);
  EXPECT_GT(ce.latency_ms, cb.latency_ms);
  EXPECT_LT(ce.static_energy_mj, cb.static_energy_mj);
}

TEST(Estimator, MixedPrecisionConfigPerLayerLookup) {
  PrecisionConfig p;
  p.weight_bits = {3, 5, 3};
  EXPECT_EQ(p.layer_weight_bits(0), 3);
  EXPECT_EQ(p.layer_weight_bits(1), 5);
  EXPECT_THROW(p.layer_weight_bits(3), InvalidArgument);
  PrecisionConfig u = PrecisionConfig::uniform(7, 9);
  EXPECT_EQ(u.layer_weight_bits(100), 7);
}

struct BitsCase {
  int bits;
};
class EnergyMonotoneInBits : public ::testing::TestWithParam<BitsCase> {};

TEST_P(EnergyMonotoneInBits, QuantizedCheaperThanFp32) {
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const Network net = resnet50();
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  const NetworkCost fp =
      est.eval_network(uni, PrecisionConfig::uniform(32, 32));
  const NetworkCost q =
      est.eval_network(uni, PrecisionConfig::uniform(GetParam().bits, 9));
  EXPECT_LT(q.energy_mj(), fp.energy_mj());
  EXPECT_LT(q.latency_ms, fp.latency_ms);
  EXPECT_LT(q.num_crossbars, fp.num_crossbars);
}

INSTANTIATE_TEST_SUITE_P(Bits, EnergyMonotoneInBits,
                         ::testing::Values(BitsCase{3}, BitsCase{5},
                                           BitsCase{7}, BitsCase{9}));

}  // namespace
}  // namespace epim
