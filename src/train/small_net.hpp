// A small epitome-CNN for the accuracy-trend experiments.
//
// Architecture (input C x S x S):
//   conv3x3(C->16) - BN - ReLU
//   [epitome|conv]3x3(16->32) - BN - ReLU - maxpool2
//   [epitome|conv]3x3(32->64) - BN - ReLU - maxpool2
//   GAP - dense(64->K)
//
// With use_epitome the two middle blocks use epitomes at ~2.25x parameter
// compression (matching the paper's whole-model epitome compression), so
// quantization/pruning experiments on this net exercise the same operator
// the paper deploys, end to end with real training.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "quant/epitome_quant.hpp"
#include "train/layers.hpp"

namespace epim {

struct SmallNetConfig {
  int num_classes = 8;
  std::int64_t image_size = 16;
  std::int64_t in_channels = 3;
  bool use_epitome = true;
  bool wrap_output = false;   ///< channel wrapping on the epitome layers
  std::uint64_t seed = 0x5AA17'17E7u;
};

class SmallEpitomeNet {
 public:
  explicit SmallEpitomeNet(const SmallNetConfig& config);

  const SmallNetConfig& config() const { return config_; }

  /// (N, C, S, S) -> logits (N, K).
  Tensor forward(const Tensor& x, bool train);

  void zero_grad();
  void step(float lr, float momentum, float weight_decay);

  /// Backprop from the loss gradient on logits.
  void backward(const Tensor& grad_logits);

  /// Trainable epitome layers (empty when use_epitome is false).
  std::vector<EpitomeConvLayer*> epitome_layers();

  /// Total learnable weight parameters (conv/epitome + dense).
  std::int64_t weight_parameters() const;

  /// Fake-quantize every epitome/conv weight tensor in place with the given
  /// scheme; returns the error summed over all of them.
  QuantNoise quantize_weights(const QuantConfig& config);

  /// Snapshot/restore all trainable weights (for quantize -> eval -> undo).
  std::vector<Tensor> snapshot_weights() const;
  void restore_weights(const std::vector<Tensor>& snapshot);

  /// Everything the PIM runtime needs to execute this model on crossbars:
  /// per-block weights as epitomes (degenerate epitomes for plain convs),
  /// folded BatchNorm affines, and the float classifier head.
  struct Deploy {
    SmallNetConfig config;
    Epitome block1, block2, block3;   ///< conv/epitome weights per block
    ChannelAffine bn1, bn2, bn3;      ///< folded eval-mode BatchNorms
    Tensor dense_w;                   ///< (K, 64)
    Tensor dense_b;                   ///< (K)
  };
  Deploy deploy() const;

 private:
  SmallNetConfig config_;
  std::unique_ptr<Conv2dLayer> conv1_;
  BatchNorm2d bn1_;
  ReluLayer relu1_;
  std::unique_ptr<Conv2dLayer> conv2_;
  std::unique_ptr<EpitomeConvLayer> epi2_;
  BatchNorm2d bn2_;
  ReluLayer relu2_;
  MaxPool2dLayer pool2_;
  std::unique_ptr<Conv2dLayer> conv3_;
  std::unique_ptr<EpitomeConvLayer> epi3_;
  BatchNorm2d bn3_;
  ReluLayer relu3_;
  MaxPool2dLayer pool3_;
  GlobalAvgPoolLayer gap_;
  std::unique_ptr<DenseLayer> dense_;
};

}  // namespace epim
