// Edge cases and failure-injection tests across modules: degenerate shapes,
// boundary precisions, invalid configurations, and pathological inputs.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "core/designer.hpp"
#include "datapath/datapath_sim.hpp"
#include "nn/conv_exec.hpp"
#include "nn/resnet.hpp"
#include "pim/crossbar.hpp"
#include "pim/estimator.hpp"
#include "quant/epitome_quant.hpp"
#include "tensor/ops.hpp"

namespace epim {
namespace {

// ---- degenerate epitomes / layers ----

TEST(EdgeCases, SinglePixelFeatureMap) {
  // An FC layer is a 1x1 conv on a 1x1 map; the datapath must handle the
  // one-position case.
  Rng rng(1);
  const ConvSpec conv{32, 16, 1, 1, 1, 0};
  const ConvLayerInfo layer{"fc", conv, 1, 1};
  Epitome e = Epitome::random(EpitomeSpec{1, 1, 16, 8}, conv, rng);
  DatapathSimulator sim(layer, e);
  Tensor x({32, 1, 1});
  rng.fill_normal(x.data(), 32, 0.0f, 1.0f);
  const Tensor got = sim.run(x);
  EXPECT_LT(max_abs_diff(got, conv2d(x, e.reconstruct(), 1, 0)), 1e-4);
}

TEST(EdgeCases, EpitomeEqualsConvIsOneRound) {
  // When the epitome's dims equal the conv's, the plan is a single patch and
  // the datapath degenerates to a plain convolution.
  Rng rng(2);
  const ConvSpec conv{4, 4, 3, 3, 1, 1};
  Epitome e = Epitome::random(EpitomeSpec{3, 3, 4, 4}, conv, rng);
  EXPECT_EQ(e.plan().active_rounds(), 1);
  EXPECT_EQ(e.compression_rate(), 1.0);
  const Tensor rep = e.repetition_map();
  EXPECT_EQ(rep.min(), 1.0f);
  EXPECT_EQ(rep.max(), 1.0f);
}

TEST(EdgeCases, OffsetStrideVariesSampling) {
  const ConvSpec conv{16, 16, 3, 3, 1, 1};
  EpitomeSpec a{5, 5, 4, 4};
  EpitomeSpec b = a;
  b.offset_stride = 3;
  const SamplePlan pa(a, conv), pb(b, conv);
  // Same group structure, different offset walk.
  EXPECT_EQ(pa.total_patches(), pb.total_patches());
  bool any_differs = false;
  for (std::size_t i = 0; i < pa.samples().size(); ++i) {
    any_differs = any_differs ||
                  pa.samples()[i].off_p != pb.samples()[i].off_p ||
                  pa.samples()[i].off_q != pb.samples()[i].off_q;
  }
  EXPECT_TRUE(any_differs);
}

TEST(EdgeCases, SingleChannelGroups) {
  // cin_e == cin and cout_e == cout but a larger spatial plane: exactly one
  // patch, sampled at offset 0.
  const ConvSpec conv{8, 8, 3, 3, 1, 1};
  const SamplePlan plan(EpitomeSpec{6, 6, 8, 8}, conv);
  EXPECT_EQ(plan.total_patches(), 1);
  EXPECT_EQ(plan.samples()[0].off_p, 0);
}

TEST(EdgeCases, WrapWithSingleOutputGroupIsNoOp) {
  const ConvSpec conv{8, 8, 3, 3, 1, 1};
  EpitomeSpec spec{4, 4, 4, 8};  // cout_e == cout -> one output group
  spec.wrap_output = true;
  const SamplePlan plan(spec, conv);
  EXPECT_EQ(plan.wrap_factor(), 1);
  EXPECT_EQ(plan.active_rounds(), plan.total_patches());
}

// ---- boundary precisions ----

TEST(EdgeCases, OneBitWeights) {
  // 1-bit weights: codes {-1, 0} after signed re-centring; the crossbar
  // must still be exact.
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  std::vector<std::vector<int>> w = {{0}, {-1}, {0}, {-1}};
  CrossbarArray xbar(cfg, 1, w);
  const auto out = xbar.mvm({3, 3, 3, 3}, 2);
  EXPECT_EQ(out[0], -6);
}

TEST(EdgeCases, QuantizerAtOneBit) {
  Rng rng(3);
  const ConvSpec conv{8, 8, 3, 3, 1, 1};
  Epitome e = Epitome::random(EpitomeSpec{4, 4, 4, 4}, conv, rng);
  QuantConfig cfg;
  cfg.bits = 1;
  QuantNoise noise;
  const QuantizedEpitome q = EpitomeQuantizer(cfg).quantize(e, noise);
  // 64 x 4 logical matrix: one crossbar block, one 1-bit range, so at most
  // two distinct dequantized values.
  ASSERT_EQ(q.block_params.size(), 1u);
  const std::set<float> levels(
      q.dequant_weights.data(),
      q.dequant_weights.data() + q.dequant_weights.numel());
  EXPECT_LE(levels.size(), 2u);
}

TEST(EdgeCases, EstimatorRejectsBadBits) {
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const ConvLayerInfo layer{"l", ConvSpec{8, 8, 3, 3, 1, 1}, 8, 8};
  EXPECT_THROW(est.eval_conv_layer(layer, 0, 9), InvalidArgument);
  EXPECT_THROW(est.eval_conv_layer(layer, 9, 33), InvalidArgument);
}

TEST(EdgeCases, EmptyPrecisionConfigRejected) {
  PrecisionConfig p;
  p.weight_bits.clear();
  EXPECT_THROW(p.layer_weight_bits(0), InvalidArgument);
}

// ---- pathological weight distributions ----

TEST(EdgeCases, AllZeroEpitomeQuantizesToZero) {
  const ConvSpec conv{8, 8, 3, 3, 1, 1};
  Epitome e(EpitomeSpec{4, 4, 4, 4}, conv);  // zero weights
  QuantConfig cfg;
  cfg.bits = 3;
  QuantNoise noise;
  const QuantizedEpitome q = EpitomeQuantizer(cfg).quantize(e, noise);
  EXPECT_DOUBLE_EQ(noise.plain_mse(), 0.0);
  for (std::int64_t i = 0; i < q.dequant_weights.numel(); ++i) {
    EXPECT_EQ(q.dequant_weights.at(i), 0.0f);
  }
}

TEST(EdgeCases, ConstantWeightsRoundTripExactly) {
  const ConvSpec conv{8, 8, 3, 3, 1, 1};
  Epitome e(EpitomeSpec{4, 4, 4, 4}, conv);
  e.weights().fill(0.5f);
  QuantConfig cfg;
  cfg.bits = 3;
  QuantNoise noise;
  EpitomeQuantizer(cfg).quantize(e, noise);
  EXPECT_NEAR(noise.plain_mse(), 0.0, 1e-12);
}

TEST(EdgeCases, HugeOutlierDoesNotBreakOverlapScheme) {
  Rng rng(4);
  const ConvSpec conv{16, 16, 3, 3, 1, 1};
  Epitome e = Epitome::random(EpitomeSpec{5, 5, 8, 8}, conv, rng);
  e.weights().at(0) = 1e6f;
  QuantConfig cfg;
  cfg.bits = 3;
  cfg.scheme = RangeScheme::kOverlapWeighted;
  QuantNoise noise;
  EXPECT_NO_THROW(EpitomeQuantizer(cfg).quantize(e, noise));
}

// ---- datapath under extreme geometry ----

TEST(EdgeCases, KernelLargerThanPaddedStrideWindow) {
  // stride 3 > kernel 1: positions subsample the input.
  Rng rng(5);
  const ConvSpec conv{4, 4, 1, 1, 3, 0};
  const ConvLayerInfo layer{"s3", conv, 7, 7};
  Epitome e = Epitome::random(EpitomeSpec{1, 1, 2, 2}, conv, rng);
  DatapathSimulator sim(layer, e);
  Tensor x({4, 7, 7});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  const Tensor got = sim.run(x);
  EXPECT_EQ(got.shape(), (Shape{4, 3, 3}));
  EXPECT_LT(max_abs_diff(got, conv2d(x, e.reconstruct(), 3, 0)), 1e-4);
}

TEST(EdgeCases, AllZeroInputGivesZeroOutput) {
  Rng rng(6);
  const ConvSpec conv{8, 8, 3, 3, 1, 1};
  const ConvLayerInfo layer{"z", conv, 6, 6};
  Epitome e = Epitome::random(EpitomeSpec{4, 4, 4, 4}, conv, rng);
  DatapathSimulator sim(layer, e);
  const Tensor got = sim.run(Tensor({8, 6, 6}));
  EXPECT_EQ(got.min(), 0.0f);
  EXPECT_EQ(got.max(), 0.0f);
}

// ---- designer robustness across the whole zoo ----

TEST(EdgeCases, DesignerHandlesEveryResNet101Layer) {
  for (const auto& layer : resnet101().weighted_layers()) {
    for (const std::int64_t rows : {256, 1024, 4096}) {
      UniformDesign policy;
      policy.target_rows = rows;
      const auto spec = design_uniform(layer.conv, policy);
      if (spec.has_value()) {
        EXPECT_TRUE(spec->compatible_with(layer.conv)) << layer.name;
        // Round-trip: the plan covers the conv exactly once.
        Epitome e(*spec, layer.conv);
        e.weights().fill(1.0f);
        EXPECT_DOUBLE_EQ(e.repetition_map().sum(),
                         static_cast<double>(layer.conv.weight_count()))
            << layer.name;
      }
    }
  }
}

}  // namespace
}  // namespace epim
