// Tests for src/sim: the top-level EpimSimulator (Table-1 row evaluation and
// scheme noise measurement).
#include <gtest/gtest.h>

#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "sim/simulator.hpp"

namespace epim {
namespace {

TEST(Simulator, Fp32RowsUseAnchors) {
  EpimSimulator sim;
  const Network net = resnet50();
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  const QuantConfig scheme;
  const auto base = sim.evaluate(NetworkAssignment::baseline(net),
                                 PrecisionConfig::uniform(32, 32), scheme,
                                 proj);
  EXPECT_DOUBLE_EQ(base.projected_accuracy, 76.37);
  EXPECT_DOUBLE_EQ(base.weighted_mse, 0.0);
  const auto epi = sim.evaluate(NetworkAssignment::uniform(net,
                                                           UniformDesign{}),
                                PrecisionConfig::uniform(32, 32), scheme,
                                proj);
  EXPECT_DOUBLE_EQ(epi.projected_accuracy, 74.00);
}

TEST(Simulator, QuantizedRowMeasuresNoise) {
  EpimSimulator sim;
  const Network net = resnet50();
  const AccuracyProjector proj(AccuracyAnchors::resnet50());
  const QuantConfig scheme;
  const auto e = sim.evaluate(NetworkAssignment::uniform(net,
                                                         UniformDesign{}),
                              PrecisionConfig::uniform(3, 9), scheme, proj);
  EXPECT_GT(e.weighted_mse, 0.0);
  EXPECT_GT(e.weight_power, 0.0);
  EXPECT_LT(e.projected_accuracy, 74.00);
  EXPECT_GT(e.projected_accuracy, 65.0);
}

TEST(Simulator, NoiseMeasurementDeterministicUnderSeed) {
  EpimSimulator sim;
  const Network net = mini_resnet();
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  const QuantConfig scheme;
  const auto precision = PrecisionConfig::uniform(3, 9);
  const auto a = sim.measure_noise(uni, precision, scheme, 7);
  const auto b = sim.measure_noise(uni, precision, scheme, 7);
  EXPECT_DOUBLE_EQ(a.weighted_mse(), b.weighted_mse());
  const auto c = sim.measure_noise(uni, precision, scheme, 8);
  EXPECT_NE(a.weighted_mse(), c.weighted_mse());
}

TEST(Simulator, FullPrecisionLayersSkipped) {
  // A mixed-precision config where every layer is 32-bit measures no noise.
  EpimSimulator sim;
  const Network net = mini_resnet();
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  PrecisionConfig p;
  p.weight_bits.assign(static_cast<std::size_t>(uni.num_layers()), 32);
  const auto m = sim.measure_noise(uni, p, QuantConfig{});
  EXPECT_EQ(m.count, 0);
  EXPECT_DOUBLE_EQ(m.weighted_mse(), 0.0);
  EXPECT_DOUBLE_EQ(m.plain_mse(), 0.0);
  EXPECT_DOUBLE_EQ(m.weight_power(), 1.0);
}

TEST(Simulator, SchemeLadderHoldsOnVgg) {
  // The scheme ordering is a property of the quantizer, so it must hold on
  // a workload with a very different shape distribution.
  EpimSimulator sim;
  const Network net = vgg16();
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  const auto precision = PrecisionConfig::uniform(3, 9);
  QuantConfig naive;
  naive.scheme = RangeScheme::kMinMax;
  QuantConfig overlap;
  overlap.scheme = RangeScheme::kOverlapWeighted;
  const auto a = sim.measure_noise(uni, precision, naive);
  const auto b = sim.measure_noise(uni, precision, overlap);
  EXPECT_LE(b.weighted_mse(), a.weighted_mse() * 1.0001);
}

TEST(Simulator, MoreBitsLessProjectedLoss) {
  EpimSimulator sim;
  const Network net = resnet101();
  const AccuracyProjector proj(AccuracyAnchors::resnet101());
  const QuantConfig scheme;
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  double prev = 0.0;
  for (const int bits : {3, 5, 7, 9}) {
    const auto e = sim.evaluate(uni, PrecisionConfig::uniform(bits, 9),
                                scheme, proj);
    EXPECT_GT(e.projected_accuracy, prev) << bits;
    prev = e.projected_accuracy;
  }
  EXPECT_LT(prev, 76.56);  // still below the FP32 epitome anchor
}

}  // namespace
}  // namespace epim
