// Tests for src/quant: the affine quantizer (Eq. 2-3), the epitome-aware
// range schemes (Eq. 4-5) and their error ordering, HAWQ-lite mixed
// precision, and the accuracy projector.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "nn/resnet.hpp"
#include "quant/accuracy_model.hpp"
#include "quant/epitome_quant.hpp"
#include "quant/mixed_precision.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"

namespace epim {
namespace {

TEST(QuantParams, ScaleFollowsEq3) {
  const QuantParams p = QuantParams::from_range(-1.0, 1.0, 3);
  EXPECT_DOUBLE_EQ(p.scale, 2.0 / 7.0);  // (beta - alpha) / (2^k - 1)
}

TEST(QuantParams, RoundTripWithinHalfStep) {
  const QuantParams p = QuantParams::from_range(-2.0, 2.0, 8);
  for (double r = -2.0; r <= 2.0; r += 0.037) {
    EXPECT_NEAR(p.fake_quantize(r), r, p.scale / 2 + 1e-9);
  }
}

TEST(QuantParams, ClampsOutOfRange) {
  const QuantParams p = QuantParams::from_range(-1.0, 1.0, 4);
  EXPECT_EQ(p.quantize(100.0), p.max_code());
  EXPECT_EQ(p.quantize(-100.0), 0);
}

TEST(QuantParams, DegenerateRangeIsStable) {
  const QuantParams p = QuantParams::from_range(0.5, 0.5, 4);
  EXPECT_NO_THROW(p.quantize(0.5));
}

TEST(QuantParams, RejectsInvertedRange) {
  EXPECT_THROW(QuantParams::from_range(1.0, -1.0, 4), InvalidArgument);
  EXPECT_THROW(QuantParams::from_range(0.0, 1.0, 0), InvalidArgument);
}

TEST(QuantParams, MoreBitsLessError) {
  Rng rng(1);
  Tensor t({1000});
  rng.fill_normal(t.data(), 1000, 0.0f, 1.0f);
  double prev = 1e9;
  for (const int bits : {2, 3, 5, 8}) {
    const QuantParams p = minmax_params(t, bits);
    const Tensor q = fake_quantize_tensor(t, p);
    const double err = mse(t, q);
    EXPECT_LT(err, prev);
    prev = err;
  }
}

// ---- epitome-aware quantization ----

Epitome overlapping_epitome(Rng& rng) {
  // 5x5 plane over a 3x3 kernel: strong centre-vs-border repetition
  // structure, many patches.
  const ConvSpec conv{32, 64, 3, 3, 1, 1};
  return Epitome::random(EpitomeSpec{5, 5, 8, 16}, conv, rng);
}

TEST(EpitomeQuant, OutputShapesAndCodes) {
  Rng rng(2);
  Epitome e = overlapping_epitome(rng);
  QuantConfig cfg;
  cfg.bits = 3;
  cfg.xbar_rows = 64;
  cfg.xbar_cols = 8;
  QuantNoise noise;
  const QuantizedEpitome q = EpitomeQuantizer(cfg).quantize(e, noise);
  EXPECT_EQ(q.dequant_weights.shape(), e.weights().shape());
  EXPECT_EQ(noise.count, e.weights().numel());
  // 200 x 16 logical matrix in 64 x 8 blocks; each block has one 3-bit
  // range, so it holds at most 2^3 distinct dequantized values.
  const std::int64_t rows = e.spec().rows(), cols = e.spec().cout_e;
  ASSERT_EQ(q.blocks_r, 4);
  ASSERT_EQ(q.blocks_c, 2);
  for (std::int64_t br = 0; br < q.blocks_r; ++br) {
    for (std::int64_t bc = 0; bc < q.blocks_c; ++bc) {
      std::set<float> levels;
      for (std::int64_t c = bc * 8; c < std::min(cols, (bc + 1) * 8); ++c) {
        for (std::int64_t r = br * 64; r < std::min(rows, (br + 1) * 64);
             ++r) {
          levels.insert(q.dequant_weights.at(c * rows + r));
        }
      }
      EXPECT_LE(levels.size(), 8u) << "block " << br << "," << bc;
    }
  }
}

TEST(EpitomeQuant, BlockCountMatchesGeometry) {
  Rng rng(3);
  const ConvSpec conv{512, 512, 3, 3, 1, 1};
  Epitome e = Epitome::random(EpitomeSpec{4, 4, 64, 256}, conv, rng);
  QuantConfig cfg;
  cfg.scheme = RangeScheme::kPerCrossbar;
  QuantNoise noise;
  const QuantizedEpitome q = EpitomeQuantizer(cfg).quantize(e, noise);
  EXPECT_EQ(q.blocks_r, 8);   // 1024 / 128
  EXPECT_EQ(q.blocks_c, 2);   // 256 / 128
  EXPECT_EQ(q.block_params.size(), 16u);
}

TEST(EpitomeQuant, SchemeLadderReducesWeightedError) {
  // Table 2's mechanism: naive <= per-crossbar <= overlap-weighted in
  // repetition-weighted error (lower is better). Use a weight distribution
  // with block-to-block spread plus outliers in the rarely-repeated border
  // so the schemes separate.
  Rng rng(4);
  Epitome e = overlapping_epitome(rng);
  // Inject outliers into border (repetition 1) cells.
  const Tensor rep = e.repetition_map();
  const float rep_min = rep.min();
  for (std::int64_t i = 0; i < e.weights().numel(); ++i) {
    if (rep.at(i) == rep_min && rng.flip(0.3)) {
      e.weights().at(i) *= 8.0f;
    }
  }
  auto weighted_err = [&](RangeScheme scheme) {
    QuantConfig cfg;
    cfg.bits = 3;
    cfg.scheme = scheme;
    QuantNoise noise;
    EpitomeQuantizer(cfg).quantize(e, noise);
    return noise.weighted_mse();
  };
  const double naive = weighted_err(RangeScheme::kMinMax);
  const double per_xbar = weighted_err(RangeScheme::kPerCrossbar);
  const double overlap = weighted_err(RangeScheme::kOverlapWeighted);
  EXPECT_LE(per_xbar, naive * 1.001);
  EXPECT_LT(overlap, per_xbar);
}

TEST(EpitomeQuant, OverlapFallsBackWhenRepetitionUniform) {
  // Pointwise epitome: no spatial overlap, uniform repetition -> the
  // overlap scheme must degrade gracefully to per-crossbar behaviour.
  Rng rng(5);
  const ConvSpec conv{256, 256, 1, 1, 1, 0};
  Epitome e = Epitome::random(EpitomeSpec{1, 1, 128, 128}, conv, rng);
  QuantConfig a;
  a.bits = 3;
  a.scheme = RangeScheme::kPerCrossbar;
  QuantConfig b = a;
  b.scheme = RangeScheme::kOverlapWeighted;
  QuantNoise ea, eb;
  EpitomeQuantizer(a).quantize(e, ea);
  EpitomeQuantizer(b).quantize(e, eb);
  EXPECT_NEAR(ea.weighted_mse(), eb.weighted_mse(), 1e-12);
}

TEST(EpitomeQuant, WeightedMseUsesRepetition) {
  // For a degenerate epitome (uniform repetition of 1), weighted and plain
  // MSE coincide.
  Rng rng(6);
  const ConvSpec conv{8, 8, 3, 3, 1, 1};
  Tensor w({8, 8, 3, 3});
  rng.fill_normal(w.data(), static_cast<std::size_t>(w.numel()), 0.0f, 1.0f);
  Epitome e = Epitome::from_conv_weights(conv, std::move(w));
  QuantConfig cfg;
  cfg.bits = 4;
  QuantNoise noise;
  EpitomeQuantizer(cfg).quantize(e, noise);
  EXPECT_NEAR(noise.plain_mse(), noise.weighted_mse(), 1e-12);
}

TEST(EpitomeQuant, NoisePinnedPerScheme) {
  // Exact repetition-weighted and plain MSE of one 3-bit quantization per
  // range scheme, on a seeded overlapping epitome split into 4x2 crossbar
  // blocks. Any change to the block walk or the error sums' element order
  // moves these bits.
  struct Pin {
    RangeScheme scheme;
    double weighted_mse, plain_mse;
  };
  const Pin pins[] = {
      {RangeScheme::kMinMax, 0.00061864903085532955, 0.00062617865607849678},
      {RangeScheme::kPerCrossbar, 0.00045078846154825863,
       0.0004539948991514654},
      {RangeScheme::kOverlapWeighted, 0.00037374728097614991,
       0.00038055531838689213},
  };
  for (const Pin& p : pins) {
    Rng rng(11);
    const Epitome e = overlapping_epitome(rng);
    QuantConfig cfg;
    cfg.bits = 3;
    cfg.scheme = p.scheme;
    cfg.xbar_rows = 64;  // 200 rows -> 4 row blocks
    cfg.xbar_cols = 8;   // 16 cols -> 2 column blocks
    QuantNoise noise;
    EpitomeQuantizer(cfg).quantize(e, noise);
    EXPECT_EQ(noise.weighted_mse(), p.weighted_mse)
        << range_scheme_name(p.scheme);
    EXPECT_EQ(noise.plain_mse(), p.plain_mse) << range_scheme_name(p.scheme);
  }
}

struct SchemeBitsCase {
  RangeScheme scheme;
  int bits;
};

class QuantBitsSweep : public ::testing::TestWithParam<SchemeBitsCase> {};

TEST_P(QuantBitsSweep, DequantCloseAtHighBitsCoarseAtLow) {
  Rng rng(7);
  Epitome e = overlapping_epitome(rng);
  QuantConfig cfg;
  cfg.bits = GetParam().bits;
  cfg.scheme = GetParam().scheme;
  QuantNoise noise;
  EpitomeQuantizer(cfg).quantize(e, noise);
  EXPECT_GT(noise.plain_mse(), 0.0);
  // 9-bit quantization must be very accurate relative to weight power.
  if (GetParam().bits >= 9) {
    EXPECT_LT(noise.plain_mse() / noise.weight_power(), 5e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantBitsSweep,
    ::testing::Values(SchemeBitsCase{RangeScheme::kMinMax, 3},
                      SchemeBitsCase{RangeScheme::kPerCrossbar, 3},
                      SchemeBitsCase{RangeScheme::kOverlapWeighted, 3},
                      SchemeBitsCase{RangeScheme::kMinMax, 9},
                      SchemeBitsCase{RangeScheme::kOverlapWeighted, 9},
                      SchemeBitsCase{RangeScheme::kPerCrossbar, 5}));

// ---- mixed precision ----

TEST(MixedPrecision, RespectsBudget) {
  const Network net = resnet50();
  const auto a = NetworkAssignment::uniform(net, UniformDesign{});
  MixedPrecisionConfig cfg;
  cfg.budget_fraction = 0.4;
  const auto result = hawq_lite_allocate(a, cfg, CrossbarConfig{});
  EXPECT_LE(result.used_crossbars, result.budget_crossbars);
  EXPECT_EQ(static_cast<std::int64_t>(result.precision.weight_bits.size()),
            a.num_layers());
}

TEST(MixedPrecision, ZeroBudgetAllLow) {
  const Network net = resnet50();
  const auto a = NetworkAssignment::uniform(net, UniformDesign{});
  MixedPrecisionConfig cfg;
  cfg.budget_fraction = 0.0;
  const auto result = hawq_lite_allocate(a, cfg, CrossbarConfig{});
  for (const int b : result.precision.weight_bits) {
    EXPECT_EQ(b, cfg.low_bits);
  }
}

TEST(MixedPrecision, FullBudgetAllHigh) {
  const Network net = resnet50();
  const auto a = NetworkAssignment::uniform(net, UniformDesign{});
  MixedPrecisionConfig cfg;
  cfg.budget_fraction = 1.0;
  const auto result = hawq_lite_allocate(a, cfg, CrossbarConfig{});
  std::int64_t high = 0;
  for (const int b : result.precision.weight_bits) {
    high += b == cfg.high_bits ? 1 : 0;
  }
  EXPECT_EQ(high, a.num_layers());
}

TEST(MixedPrecision, PromotesMostSensitiveFirst) {
  const Network net = resnet50();
  const auto a = NetworkAssignment::uniform(net, UniformDesign{});
  MixedPrecisionConfig cfg;
  cfg.budget_fraction = 0.3;
  const auto result = hawq_lite_allocate(a, cfg, CrossbarConfig{});
  // Ranking must be sorted by score descending.
  for (std::size_t i = 1; i < result.ranking.size(); ++i) {
    EXPECT_GE(result.ranking[i - 1].score, result.ranking[i].score);
  }
  // The single most sensitive layer must be promoted (its delta fits any
  // non-trivial budget for ResNet-50).
  const auto top = result.ranking.front();
  EXPECT_EQ(result.precision.weight_bits[static_cast<std::size_t>(top.layer)],
            cfg.high_bits);
}

TEST(MixedPrecision, CrossbarCountBetweenUniformExtremes) {
  // Paper Table 1: W3mp sits between W3 and W5 in crossbars.
  const Network net = resnet50();
  const auto a = NetworkAssignment::uniform(net, UniformDesign{});
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  MixedPrecisionConfig cfg;
  const auto result = hawq_lite_allocate(a, cfg, CrossbarConfig{});
  const auto mixed = est.eval_network(a, result.precision);
  const auto low = est.eval_network(a, PrecisionConfig::uniform(3, 9));
  const auto high = est.eval_network(a, PrecisionConfig::uniform(5, 9));
  EXPECT_GT(mixed.num_crossbars, low.num_crossbars);
  EXPECT_LT(mixed.num_crossbars, high.num_crossbars);
}

// ---- accuracy projector ----

TEST(AccuracyProjector, AnchorsAtZeroNoise) {
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  EXPECT_DOUBLE_EQ(proj.project_quantized(0.0, 1.0), 74.00);
}

TEST(AccuracyProjector, MonotoneInNoise) {
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  double prev = 100.0;
  for (const double mse : {1e-6, 1e-4, 1e-2, 1e-1}) {
    const double acc = proj.project_quantized(mse, 1.0);
    EXPECT_LT(acc, prev);
    prev = acc;
  }
}

TEST(AccuracyProjector, PaperRegimeAt3Bit) {
  // 3-bit min/max quantization of ~Gaussian weights has noise amplitude
  // ratio around 0.3; the projected accuracy should land in the paper's
  // 3-bit band (69.9 - 72.5) rather than somewhere wild.
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  const double acc = proj.project_quantized(0.09, 1.0);  // sqrt = 0.3
  EXPECT_GT(acc, 69.0);
  EXPECT_LT(acc, 73.0);
}

TEST(AccuracyProjector, PruningPenalty) {
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  EXPECT_DOUBLE_EQ(proj.project_pruned(74.0, 0.0), 74.0);
  EXPECT_LT(proj.project_pruned(74.0, 0.01), 74.0);
  EXPECT_THROW(proj.project_pruned(74.0, 1.5), InvalidArgument);
}

TEST(AccuracyProjector, ResNet101Anchors) {
  const auto a = AccuracyAnchors::resnet101();
  EXPECT_DOUBLE_EQ(a.conv_fp32, 78.77);
  EXPECT_DOUBLE_EQ(a.epitome_fp32, 76.56);
}

}  // namespace
}  // namespace epim
