// Unit tests for src/nn: layer geometry, the ResNet-50/101 inventories the
// hardware model depends on, and the reference executor.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/conv_exec.hpp"
#include "nn/network.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "tensor/ops.hpp"

namespace epim {
namespace {

TEST(Layer, ConvSpecDerivedQuantities) {
  ConvSpec c{64, 256, 3, 3, 1, 1};
  EXPECT_EQ(c.weight_count(), 64 * 256 * 9);
  EXPECT_EQ(c.unrolled_rows(), 576);
  EXPECT_EQ(c.unrolled_cols(), 256);
}

TEST(Layer, OutputGeometry) {
  ConvLayerInfo l{"x", ConvSpec{3, 64, 7, 7, 2, 3}, 224, 224};
  EXPECT_EQ(l.ofm_h(), 112);
  EXPECT_EQ(l.ofm_w(), 112);
  EXPECT_EQ(l.output_positions(), 112 * 112);
  EXPECT_EQ(l.macs(), 112 * 112 * 3 * 64 * 49);
}

TEST(Layer, FcAsConv) {
  FcLayerInfo fc{"fc", 2048, 1000};
  const ConvLayerInfo c = fc.as_conv();
  EXPECT_EQ(c.conv.in_channels, 2048);
  EXPECT_EQ(c.conv.out_channels, 1000);
  EXPECT_EQ(c.output_positions(), 1);
  EXPECT_EQ(c.conv.weight_count(), fc.weight_count());
}

TEST(Network, RejectsBadLayers) {
  Network net("n");
  EXPECT_THROW(net.add_conv({"bad", ConvSpec{0, 4, 1, 1, 1, 0}, 8, 8}),
               InvalidArgument);
  EXPECT_THROW(net.add_conv({"bad", ConvSpec{4, 4, 1, 1, 1, 0}, 0, 8}),
               InvalidArgument);
  EXPECT_THROW(net.fc(), InvalidArgument);
}

TEST(ResNet50, LayerInventory) {
  const Network net = resnet50();
  // 1 stem + (3+4+6+3) blocks x 3 convs + 4 downsample projections = 53.
  EXPECT_EQ(net.num_conv_layers(), 53);
  EXPECT_TRUE(net.has_fc());
  EXPECT_EQ(net.weighted_layers().size(), 54u);
}

TEST(ResNet50, ParameterCount) {
  // Weight parameters (convs + fc, no BN/bias): ~25.50M, matching the
  // canonical ResNet-50 within rounding of the BN parameters we exclude.
  const Network net = resnet50();
  EXPECT_NEAR(static_cast<double>(net.total_weights()), 25.50e6, 0.1e6);
}

TEST(ResNet50, MacCount) {
  // ~4.09 GMACs at 224x224 (torchvision reports 4.09e9 multiply-adds).
  const Network net = resnet50();
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 4.09e9, 0.1e9);
}

TEST(ResNet50, StageGeometry) {
  const Network net = resnet50();
  // conv1 at 224, stage1 at 56, stage2 first 3x3 at 56 (stride 2), stage4
  // bulk at 7.
  EXPECT_EQ(net.conv(0).ifm_h, 224);
  EXPECT_EQ(net.conv(1).ifm_h, 56);   // layer1.0.conv1
  const auto& last = net.conv(net.num_conv_layers() - 1);
  EXPECT_EQ(last.ofm_h(), 7);
}

TEST(ResNet50, FinalChannels) {
  const Network net = resnet50();
  EXPECT_EQ(net.fc().in_features, 2048);
  EXPECT_EQ(net.fc().out_features, 1000);
}

TEST(ResNet101, LayerInventory) {
  const Network net = resnet101();
  // 1 + (3+4+23+3)*3 + 4 = 104 convs.
  EXPECT_EQ(net.num_conv_layers(), 104);
  EXPECT_NEAR(static_cast<double>(net.total_weights()), 44.49e6, 0.15e6);
}

TEST(ResNet101, MoreMacsThanResNet50) {
  EXPECT_GT(resnet101().total_macs(), resnet50().total_macs());
  EXPECT_NEAR(static_cast<double>(resnet101().total_macs()), 7.8e9, 0.2e9);
}

TEST(MiniResNet, BuildsAndHasFc) {
  const Network net = mini_resnet();
  EXPECT_GT(net.num_conv_layers(), 10);
  EXPECT_EQ(net.fc().in_features, 64);
}

// Reference conv executor vs a direct nested-loop convolution.
TEST(ConvExec, MatchesNaiveConvolution) {
  Rng rng(3);
  const std::int64_t cin = 3, cout = 5, h = 7, w = 6, k = 3, stride = 2,
                     pad = 1;
  Tensor x({cin, h, w}), wt({cout, cin, k, k});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  rng.fill_normal(wt.data(), static_cast<std::size_t>(wt.numel()), 0.0f,
                  1.0f);
  const Tensor got = conv2d(x, wt, stride, pad);
  const std::int64_t oh = conv_out_dim(h, k, stride, pad);
  const std::int64_t ow = conv_out_dim(w, k, stride, pad);
  ASSERT_EQ(got.shape(), (Shape{cout, oh, ow}));
  for (std::int64_t co = 0; co < cout; ++co) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        for (std::int64_t ci = 0; ci < cin; ++ci) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t iy = oy * stride + ky - pad;
              const std::int64_t ix = ox * stride + kx - pad;
              if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
              acc += static_cast<double>(x(ci, iy, ix)) * wt(co, ci, ky, kx);
            }
          }
        }
        EXPECT_NEAR(got(co, oy, ox), acc, 1e-3);
      }
    }
  }
}

TEST(ConvExec, RunConvLayerValidatesShapes) {
  ConvLayerInfo l{"x", ConvSpec{3, 4, 3, 3, 1, 1}, 8, 8};
  Tensor x({3, 8, 8}), wt({4, 3, 3, 3});
  EXPECT_NO_THROW(run_conv_layer(l, x, wt));
  Tensor bad_x({3, 9, 8});
  EXPECT_THROW(run_conv_layer(l, bad_x, wt), InvalidArgument);
  Tensor bad_w({5, 3, 3, 3});
  EXPECT_THROW(run_conv_layer(l, x, bad_w), InvalidArgument);
}

TEST(ConvExec, MaxPoolKnownValues) {
  Tensor x({1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x.at(i) = static_cast<float>(i);
  const Tensor p = max_pool2d(x, 2, 2, 0);
  ASSERT_EQ(p.shape(), (Shape{1, 2, 2}));
  EXPECT_EQ(p(0, 0, 0), 5.0f);
  EXPECT_EQ(p(0, 1, 1), 15.0f);
}

TEST(ConvExec, GlobalAvgPool) {
  Tensor x({2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor g = global_avg_pool(x);
  EXPECT_FLOAT_EQ(g(0), 2.5f);
  EXPECT_FLOAT_EQ(g(1), 10.0f);
}

TEST(ConvExec, Relu) {
  Tensor x({3}, std::vector<float>{-1, 0, 2});
  const Tensor r = relu(x);
  EXPECT_EQ(r(0), 0.0f);
  EXPECT_EQ(r(1), 0.0f);
  EXPECT_EQ(r(2), 2.0f);
}

// Feature-map sizes chain correctly through an entire ResNet-50: every
// layer's input size must equal what the previous stage produces.
TEST(ResNet50, FeatureMapChainConsistent) {
  const Network net = resnet50();
  for (const auto& layer : net.conv_layers()) {
    EXPECT_GT(layer.ofm_h(), 0) << layer.to_string();
    EXPECT_LE(layer.ofm_h(), layer.ifm_h) << layer.to_string();
  }
  // Bulk of stage-4 layers run at 7x7.
  std::int64_t at7 = 0;
  for (const auto& layer : net.conv_layers()) {
    at7 += layer.ofm_h() == 7 ? 1 : 0;
  }
  EXPECT_GE(at7, 9);
}

TEST(Vgg16, ParameterCount) {
  // VGG-16 has ~138.3M weights, ~89% of them in the classifier FCs.
  const Network net = vgg16();
  EXPECT_NEAR(static_cast<double>(net.total_weights()), 138.3e6, 0.5e6);
  // 13 convs + fc6 + fc7 modelled as weighted layers, fc8 as the head.
  EXPECT_EQ(net.num_conv_layers(), 15);
  EXPECT_EQ(net.fc().out_features, 1000);
}

TEST(Vgg16, Fc6Geometry) {
  const Network net = vgg16();
  const auto& fc6 = net.conv(13);
  EXPECT_EQ(fc6.conv.in_channels, 512 * 7 * 7);
  EXPECT_EQ(fc6.conv.out_channels, 4096);
  EXPECT_EQ(fc6.output_positions(), 1);
}

TEST(ResNet18, Inventory) {
  const Network net = resnet18();
  // 1 stem + 8 blocks x 2 convs + 3 downsamples = 20 convs.
  EXPECT_EQ(net.num_conv_layers(), 20);
  EXPECT_NEAR(static_cast<double>(net.total_weights()), 11.68e6, 0.1e6);
  EXPECT_EQ(net.fc().in_features, 512);
}

TEST(ResNet34, Inventory) {
  const Network net = resnet34();
  // 1 + 16 blocks x 2 + 3 downsamples = 36.
  EXPECT_EQ(net.num_conv_layers(), 36);
  EXPECT_NEAR(static_cast<double>(net.total_weights()), 21.8e6, 0.15e6);
}

TEST(ModelZoo, MacsOrdering) {
  EXPECT_LT(resnet18().total_macs(), resnet34().total_macs());
  EXPECT_LT(resnet34().total_macs(), resnet50().total_macs());
  EXPECT_GT(vgg16().total_macs(), resnet50().total_macs());
}

// gtest names each case after the raw bytes of its parameter, so the struct
// has no padding: padding bytes are indeterminate and would rename the test
// from one build to the next.
struct ResNetCase {
  std::int64_t depth;
  std::int64_t convs;
};

class ResNetDepths : public ::testing::TestWithParam<ResNetCase> {};

TEST_P(ResNetDepths, ConvCountFormula) {
  const auto p = GetParam();
  const Network net = p.depth == 50 ? resnet50() : resnet101();
  EXPECT_EQ(net.num_conv_layers(), p.convs);
}

INSTANTIATE_TEST_SUITE_P(Depths, ResNetDepths,
                         ::testing::Values(ResNetCase{50, 53},
                                           ResNetCase{101, 104}));

}  // namespace
}  // namespace epim
