// Tests for src/train: numerical gradient checks of every layer's backward
// pass (including training *through* the epitome reconstruction), dataset
// synthesis, and the training loop itself.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.hpp"
#include "train/dataset.hpp"
#include "train/layers.hpp"
#include "train/small_net.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

/// Scalar loss used by gradient checks: sum of elements weighted by a fixed
/// pseudo-random pattern (so every output element matters).
double probe_loss(const Tensor& y) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    acc += y.at(i) * (0.3 + 0.7 * std::sin(static_cast<double>(i)));
  }
  return acc;
}

Tensor probe_grad(const Shape& shape) {
  Tensor g(shape);
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    g.at(i) = static_cast<float>(0.3 + 0.7 * std::sin(static_cast<double>(i)));
  }
  return g;
}

/// Central-difference check of d probe_loss(f(x)) / d param[i].
void check_param_gradient(Tensor& param, const Tensor& analytic_grad,
                          const std::function<Tensor()>& forward,
                          int samples = 12, double tol = 5e-2) {
  Rng rng(1);
  const float eps = 1e-2f;
  for (int s = 0; s < samples; ++s) {
    const std::int64_t i =
        rng.index(static_cast<int>(param.numel()));
    const float keep = param.at(i);
    param.at(i) = keep + eps;
    const double up = probe_loss(forward());
    param.at(i) = keep - eps;
    const double dn = probe_loss(forward());
    param.at(i) = keep;
    const double numeric = (up - dn) / (2.0 * eps);
    const double analytic = analytic_grad.at(i);
    EXPECT_NEAR(analytic, numeric,
                tol * std::max(1.0, std::abs(numeric)))
        << "param index " << i;
  }
}

Tensor random_input(Rng& rng, Shape shape) {
  Tensor x(std::move(shape));
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  return x;
}

TEST(GradCheck, Conv2dWeights) {
  Rng rng(3);
  Conv2dLayer layer(ConvSpec{3, 4, 3, 3, 1, 1}, rng);
  const Tensor x = random_input(rng, {2, 3, 6, 6});
  auto forward = [&] { return layer.forward(x, true); };
  const Tensor y = forward();
  layer.zero_grad();
  layer.backward(probe_grad(y.shape()));
  check_param_gradient(layer.weight().value, layer.weight().grad, forward);
}

TEST(GradCheck, Conv2dInput) {
  Rng rng(4);
  Conv2dLayer layer(ConvSpec{2, 3, 3, 3, 2, 1}, rng);
  Tensor x = random_input(rng, {1, 2, 5, 5});
  auto forward = [&] { return layer.forward(x, true); };
  const Tensor y = forward();
  const Tensor gin = layer.backward(probe_grad(y.shape()));
  // Finite differences on a few input elements.
  Rng pick(5);
  const float eps = 1e-2f;
  for (int s = 0; s < 10; ++s) {
    const std::int64_t i = pick.index(static_cast<int>(x.numel()));
    const float keep = x.at(i);
    x.at(i) = keep + eps;
    const double up = probe_loss(forward());
    x.at(i) = keep - eps;
    const double dn = probe_loss(forward());
    x.at(i) = keep;
    EXPECT_NEAR(gin.at(i), (up - dn) / (2.0 * eps), 5e-2);
  }
}

TEST(GradCheck, EpitomeWeights) {
  // The decisive test for training-through-reconstruction: analytic epitome
  // gradients (conv grad folded through the sample map) must match numeric
  // differentiation of the full reconstruct-then-convolve pipeline.
  Rng rng(6);
  const ConvSpec conv{4, 6, 3, 3, 1, 1};
  EpitomeConvLayer layer(EpitomeSpec{4, 4, 2, 3}, conv, rng);
  const Tensor x = random_input(rng, {2, 4, 5, 5});
  auto forward = [&] { return layer.forward(x, true); };
  const Tensor y = forward();
  // Extract the analytic gradient via the step trick: one SGD step with
  // lr=1, momentum=0, wd=0 moves each weight by exactly -grad.
  layer.zero_grad();
  forward();
  layer.backward(probe_grad(y.shape()));
  const Tensor before = layer.weights_snapshot();
  layer.step(1.0f, 0.0f, 0.0f);
  Tensor analytic(before.shape());
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    analytic.at(i) = before.at(i) - layer.epitome().weights().at(i);
  }
  layer.restore_weights(before);
  // Numeric check against the full reconstruct-then-convolve pipeline.
  // Perturbations go through restore_weights so the layer's SGD parameter
  // (the authoritative copy used by forward()) is what changes.
  Tensor w = layer.weights_snapshot();
  Rng pick(7);
  const float eps = 1e-2f;
  for (int s = 0; s < 12; ++s) {
    const std::int64_t i = pick.index(static_cast<int>(w.numel()));
    const float keep = w.at(i);
    w.at(i) = keep + eps;
    layer.restore_weights(w);
    const double up = probe_loss(forward());
    w.at(i) = keep - eps;
    layer.restore_weights(w);
    const double dn = probe_loss(forward());
    w.at(i) = keep;
    layer.restore_weights(w);
    const double numeric = (up - dn) / (2.0 * eps);
    EXPECT_NEAR(analytic.at(i), numeric,
                5e-2 * std::max(1.0, std::abs(numeric)));
  }
}

TEST(GradCheck, BatchNormGamma) {
  Rng rng(8);
  BatchNorm2d bn(3);
  const Tensor x = random_input(rng, {4, 3, 4, 4});
  auto forward = [&] { return bn.forward(x, true); };
  const Tensor y = forward();
  bn.zero_grad();
  const Tensor gin = bn.backward(probe_grad(y.shape()));
  // Numeric check on the input gradient (gamma/beta are exercised
  // indirectly; input grad is the error-prone formula).
  Tensor xv = x;
  auto forward_x = [&] { return bn.forward(xv, true); };
  Rng pick(9);
  const float eps = 1e-2f;
  for (int s = 0; s < 8; ++s) {
    const std::int64_t i = pick.index(static_cast<int>(xv.numel()));
    const float keep = xv.at(i);
    xv.at(i) = keep + eps;
    const double up = probe_loss(forward_x());
    xv.at(i) = keep - eps;
    const double dn = probe_loss(forward_x());
    xv.at(i) = keep;
    EXPECT_NEAR(gin.at(i), (up - dn) / (2.0 * eps), 8e-2);
  }
}

TEST(GradCheck, DenseWeightsAndInput) {
  Rng rng(10);
  DenseLayer layer(6, 4, rng);
  const Tensor x = random_input(rng, {3, 6});
  auto forward = [&] { return layer.forward(x, true); };
  const Tensor y = forward();
  layer.zero_grad();
  layer.backward(probe_grad(y.shape()));
  check_param_gradient(layer.weight().value, layer.weight().grad, forward);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(11);
  Tensor logits = random_input(rng, {4, 5});
  const std::vector<int> labels = {0, 2, 4, 1};
  const SoftmaxLoss base = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  Rng pick(12);
  for (int s = 0; s < 10; ++s) {
    const std::int64_t i = pick.index(static_cast<int>(logits.numel()));
    const float keep = logits.at(i);
    logits.at(i) = keep + eps;
    const double up = softmax_cross_entropy(logits, labels).loss;
    logits.at(i) = keep - eps;
    const double dn = softmax_cross_entropy(logits, labels).loss;
    logits.at(i) = keep;
    EXPECT_NEAR(base.grad.at(i), (up - dn) / (2.0 * eps), 1e-3);
  }
}

TEST(Layers, ReluMaskAndPoolArgmax) {
  ReluLayer relu;
  Tensor x({1, 1, 2, 2}, std::vector<float>{-1, 2, -3, 4});
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(1), 2.0f);
  const Tensor g = relu.backward(Tensor({1, 1, 2, 2}, 1.0f));
  EXPECT_EQ(g.at(0), 0.0f);
  EXPECT_EQ(g.at(3), 1.0f);

  MaxPool2dLayer pool(2, 2);
  const Tensor p = pool.forward(x, true);
  EXPECT_EQ(p.at(0), 4.0f);
  const Tensor pg = pool.backward(Tensor({1, 1, 1, 1}, 1.0f));
  EXPECT_EQ(pg.at(3), 1.0f);
  EXPECT_EQ(pg.at(0), 0.0f);
}

TEST(Dataset, ShapesAndLabels) {
  SyntheticSpec spec;
  spec.num_classes = 4;
  spec.train_per_class = 8;
  spec.test_per_class = 4;
  const SyntheticData data = make_synthetic_data(spec);
  EXPECT_EQ(data.train.size(), 32);
  EXPECT_EQ(data.test.size(), 16);
  EXPECT_EQ(data.train.images.dim(1), 3);
  for (const int label : data.train.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(Dataset, Deterministic) {
  SyntheticSpec spec;
  spec.train_per_class = 4;
  const SyntheticData a = make_synthetic_data(spec);
  const SyntheticData b = make_synthetic_data(spec);
  EXPECT_EQ(a.train.images.at(123), b.train.images.at(123));
}

TEST(SmallNet, EpitomeVariantHasFewerParams) {
  SmallNetConfig with, without;
  with.use_epitome = true;
  without.use_epitome = false;
  SmallEpitomeNet a(with), b(without);
  EXPECT_LT(a.weight_parameters(), b.weight_parameters());
  EXPECT_EQ(a.epitome_layers().size(), 2u);
  EXPECT_EQ(b.epitome_layers().size(), 0u);
}

TEST(SmallNet, ForwardShapes) {
  SmallNetConfig cfg;
  SmallEpitomeNet net(cfg);
  Rng rng(13);
  Tensor x({2, 3, 16, 16});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  const Tensor logits = net.forward(x, false);
  EXPECT_EQ(logits.shape(), (Shape{2, 8}));
}

TEST(SmallNet, SnapshotRestoreRoundTrip) {
  SmallNetConfig cfg;
  SmallEpitomeNet net(cfg);
  const auto snap = net.snapshot_weights();
  QuantConfig q;
  q.bits = 2;
  net.quantize_weights(q);
  net.restore_weights(snap);
  const auto snap2 = net.snapshot_weights();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    for (std::int64_t j = 0; j < snap[i].numel(); ++j) {
      EXPECT_EQ(snap[i].at(j), snap2[i].at(j));
    }
  }
}

TEST(SmallNet, QuantizeWeightsNoisePinned) {
  // Exact aggregate noise of the default-seeded net's 3-bit quantization,
  // for the epitome blocks and for the plain-conv (degenerate epitome) path.
  struct Pin {
    bool use_epitome;
    double weighted_mse, weight_power;
  };
  const Pin pins[] = {
      {true, 0.00059653446166848915, 0.0083963077030853282},
      {false, 0.00075145642327194252, 0.008405769215375317},
  };
  for (const Pin& p : pins) {
    SmallNetConfig cfg;
    cfg.use_epitome = p.use_epitome;
    SmallEpitomeNet net(cfg);
    QuantConfig q;
    q.bits = 3;
    const auto noise = net.quantize_weights(q);
    EXPECT_EQ(noise.weighted_mse(), p.weighted_mse) << p.use_epitome;
    EXPECT_EQ(noise.weight_power(), p.weight_power) << p.use_epitome;
  }
}

TEST(Training, LossDecreases) {
  SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.train_per_class = 16;
  dspec.test_per_class = 8;
  const SyntheticData data = make_synthetic_data(dspec);
  SmallNetConfig nspec;
  nspec.num_classes = 4;
  SmallEpitomeNet net(nspec);
  TrainConfig tcfg;
  tcfg.epochs = 4;
  const TrainResult result = train_model(net, data, tcfg);
  ASSERT_EQ(result.epoch_loss.size(), 4u);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front() * 0.8);
}

TEST(Training, ReachesGoodAccuracyOnEasyTask) {
  SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.train_per_class = 24;
  dspec.test_per_class = 12;
  dspec.noise = 0.25f;
  const SyntheticData data = make_synthetic_data(dspec);
  SmallNetConfig nspec;
  nspec.num_classes = 4;
  SmallEpitomeNet net(nspec);
  TrainConfig tcfg;
  tcfg.epochs = 8;
  const TrainResult result = train_model(net, data, tcfg);
  EXPECT_GT(result.test_accuracy, 0.8);
}

TEST(Training, QuantizedEvalRestoresWeights) {
  SyntheticSpec dspec;
  dspec.num_classes = 3;
  dspec.train_per_class = 8;
  dspec.test_per_class = 6;
  const SyntheticData data = make_synthetic_data(dspec);
  SmallNetConfig nspec;
  nspec.num_classes = 3;
  SmallEpitomeNet net(nspec);
  const double before = evaluate_model(net, data.test);
  QuantConfig q;
  q.bits = 3;
  const QuantEvalResult r = evaluate_quantized(net, data.test, q);
  EXPECT_GE(r.weighted_mse, 0.0);
  const double after = evaluate_model(net, data.test);
  EXPECT_DOUBLE_EQ(before, after);  // weights restored exactly
}

}  // namespace
}  // namespace epim
