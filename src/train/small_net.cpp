#include "train/small_net.hpp"

#include "common/check.hpp"

namespace epim {

namespace {

/// Epitome shape used by the middle blocks: 4x4 spatial plane over a 3x3
/// kernel (overlapping patches) and half the conv's channel extent, giving
/// ~2.25x parameter compression per layer.
EpitomeSpec mid_block_spec(const ConvSpec& conv, bool wrap) {
  EpitomeSpec spec;
  spec.p = 4;
  spec.q = 4;
  spec.cin_e = conv.in_channels / 2;
  spec.cout_e = conv.out_channels / 2;
  spec.wrap_output = wrap;
  return spec;
}

}  // namespace

SmallEpitomeNet::SmallEpitomeNet(const SmallNetConfig& config)
    : config_(config), bn1_(16), bn2_(32), pool2_(2, 2), bn3_(64),
      pool3_(2, 2) {
  Rng rng(config.seed);
  const ConvSpec c1{config.in_channels, 16, 3, 3, 1, 1};
  const ConvSpec c2{16, 32, 3, 3, 1, 1};
  const ConvSpec c3{32, 64, 3, 3, 1, 1};
  conv1_ = std::make_unique<Conv2dLayer>(c1, rng);
  if (config.use_epitome) {
    epi2_ = std::make_unique<EpitomeConvLayer>(
        mid_block_spec(c2, config.wrap_output), c2, rng);
    epi3_ = std::make_unique<EpitomeConvLayer>(
        mid_block_spec(c3, config.wrap_output), c3, rng);
  } else {
    conv2_ = std::make_unique<Conv2dLayer>(c2, rng);
    conv3_ = std::make_unique<Conv2dLayer>(c3, rng);
  }
  dense_ = std::make_unique<DenseLayer>(64, config.num_classes, rng);
}

Tensor SmallEpitomeNet::forward(const Tensor& x, bool train) {
  Tensor h = relu1_.forward(bn1_.forward(conv1_->forward(x, train), train),
                            train);
  h = epi2_ ? epi2_->forward(h, train) : conv2_->forward(h, train);
  h = pool2_.forward(relu2_.forward(bn2_.forward(h, train), train), train);
  h = epi3_ ? epi3_->forward(h, train) : conv3_->forward(h, train);
  h = pool3_.forward(relu3_.forward(bn3_.forward(h, train), train), train);
  return dense_->forward(gap_.forward(h, train), train);
}

void SmallEpitomeNet::backward(const Tensor& grad_logits) {
  Tensor g = gap_.backward(dense_->backward(grad_logits));
  g = bn3_.backward(relu3_.backward(pool3_.backward(g)));
  g = epi3_ ? epi3_->backward(g) : conv3_->backward(g);
  g = bn2_.backward(relu2_.backward(pool2_.backward(g)));
  g = epi2_ ? epi2_->backward(g) : conv2_->backward(g);
  conv1_->backward(bn1_.backward(relu1_.backward(g)));
}

void SmallEpitomeNet::zero_grad() {
  conv1_->zero_grad();
  bn1_.zero_grad();
  if (epi2_) epi2_->zero_grad();
  if (conv2_) conv2_->zero_grad();
  bn2_.zero_grad();
  if (epi3_) epi3_->zero_grad();
  if (conv3_) conv3_->zero_grad();
  bn3_.zero_grad();
  dense_->zero_grad();
}

void SmallEpitomeNet::step(float lr, float momentum, float weight_decay) {
  conv1_->step(lr, momentum, weight_decay);
  bn1_.step(lr, momentum, weight_decay);
  if (epi2_) epi2_->step(lr, momentum, weight_decay);
  if (conv2_) conv2_->step(lr, momentum, weight_decay);
  bn2_.step(lr, momentum, weight_decay);
  if (epi3_) epi3_->step(lr, momentum, weight_decay);
  if (conv3_) conv3_->step(lr, momentum, weight_decay);
  bn3_.step(lr, momentum, weight_decay);
  dense_->step(lr, momentum, weight_decay);
}

std::vector<EpitomeConvLayer*> SmallEpitomeNet::epitome_layers() {
  std::vector<EpitomeConvLayer*> out;
  if (epi2_) out.push_back(epi2_.get());
  if (epi3_) out.push_back(epi3_.get());
  return out;
}

std::int64_t SmallEpitomeNet::weight_parameters() const {
  std::int64_t n = 16 * config_.in_channels * 9;  // conv1
  if (epi2_) {
    n += epi2_->epitome().weight_count() + epi3_->epitome().weight_count();
  } else {
    n += 32 * 16 * 9 + 64 * 32 * 9;
  }
  n += 64 * config_.num_classes + config_.num_classes;  // dense
  return n;
}

QuantNoise SmallEpitomeNet::quantize_weights(const QuantConfig& config) {
  // First (conv1) and last (dense) layers stay at full precision -- standard
  // practice mirrored from HAWQ; the compressed middle blocks are quantized.
  EpitomeQuantizer quantizer(config);
  QuantNoise noise;
  if (epi2_) {
    for (EpitomeConvLayer* layer : {epi2_.get(), epi3_.get()}) {
      layer->restore_weights(
          quantizer.quantize(layer->epitome(), noise).dequant_weights);
    }
  } else {
    for (Conv2dLayer* layer : {conv2_.get(), conv3_.get()}) {
      Tensor& value = layer->weight().value;
      const Epitome degenerate =
          Epitome::from_conv_weights(layer->spec(), value);
      value = quantizer.quantize(degenerate, noise)
                  .dequant_weights.reshaped(value.shape());
    }
  }
  return noise;
}

SmallEpitomeNet::Deploy SmallEpitomeNet::deploy() const {
  const ConvSpec c2{16, 32, 3, 3, 1, 1};
  const ConvSpec c3{32, 64, 3, 3, 1, 1};
  auto block = [&](const std::unique_ptr<EpitomeConvLayer>& epi,
                   const std::unique_ptr<Conv2dLayer>& conv,
                   const ConvSpec& spec) {
    return epi ? epi->epitome()
               : Epitome::from_conv_weights(spec, conv->weight().value);
  };
  return Deploy{
      config_,
      Epitome::from_conv_weights(ConvSpec{config_.in_channels, 16, 3, 3, 1,
                                          1},
                                 conv1_->weight().value),
      block(epi2_, conv2_, c2),
      block(epi3_, conv3_, c3),
      bn1_.eval_affine(),
      bn2_.eval_affine(),
      bn3_.eval_affine(),
      dense_->weight().value,
      dense_->bias().value};
}

std::vector<Tensor> SmallEpitomeNet::snapshot_weights() const {
  std::vector<Tensor> snap;
  snap.push_back(conv1_->weight().value);
  if (epi2_) {
    snap.push_back(epi2_->weights_snapshot());
    snap.push_back(epi3_->weights_snapshot());
  } else {
    snap.push_back(conv2_->weight().value);
    snap.push_back(conv3_->weight().value);
  }
  snap.push_back(dense_->weight().value);
  return snap;
}

void SmallEpitomeNet::restore_weights(const std::vector<Tensor>& snapshot) {
  EPIM_CHECK(snapshot.size() == 4, "snapshot arity mismatch");
  conv1_->weight().value = snapshot[0];
  if (epi2_) {
    epi2_->restore_weights(snapshot[1]);
    epi3_->restore_weights(snapshot[2]);
  } else {
    conv2_->weight().value = snapshot[1];
    conv3_->weight().value = snapshot[2];
  }
  dense_->weight().value = snapshot[3];
}

}  // namespace epim
