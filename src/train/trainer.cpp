#include "train/trainer.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace epim {

namespace {

/// Copy a batch of samples (by index) into one (B, C, H, W) tensor.
Tensor gather_batch(const Dataset& data, const std::vector<int>& order,
                    std::int64_t begin, std::int64_t count,
                    std::vector<int>& labels) {
  const std::int64_t c = data.images.dim(1), h = data.images.dim(2),
                     w = data.images.dim(3);
  Tensor batch({count, c, h, w});
  labels.resize(static_cast<std::size_t>(count));
  const std::int64_t sample = c * h * w;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t src =
        order[static_cast<std::size_t>(begin + i)];
    std::copy(data.images.data() + src * sample,
              data.images.data() + (src + 1) * sample,
              batch.data() + i * sample);
    labels[static_cast<std::size_t>(i)] =
        data.labels[static_cast<std::size_t>(src)];
  }
  return batch;
}

}  // namespace

TrainResult train_model(SmallEpitomeNet& model, const SyntheticData& data,
                        const TrainConfig& config) {
  EPIM_CHECK(config.epochs >= 1 && config.batch_size >= 1,
             "invalid training configuration");
  Rng rng(config.seed);
  TrainResult result;
  const std::int64_t n = data.train.size();
  float lr = config.lr;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    std::vector<int> order = rng.permutation(static_cast<int>(n));
    double loss_sum = 0.0;
    std::int64_t batches = 0;
    for (std::int64_t b = 0; b < n; b += config.batch_size) {
      const std::int64_t count =
          std::min<std::int64_t>(config.batch_size, n - b);
      std::vector<int> labels;
      const Tensor batch = gather_batch(data.train, order, b, count, labels);
      model.zero_grad();
      const Tensor logits = model.forward(batch, /*train=*/true);
      const SoftmaxLoss loss = softmax_cross_entropy(logits, labels);
      model.backward(loss.grad);
      model.step(lr, config.momentum, config.weight_decay);
      loss_sum += loss.loss;
      ++batches;
    }
    result.epoch_loss.push_back(loss_sum / static_cast<double>(batches));
    if (config.verbose) {
      EPIM_LOG(kInfo) << "epoch " << epoch << " loss "
                      << result.epoch_loss.back();
    }
    lr *= config.lr_decay;
  }
  result.train_accuracy = evaluate_model(model, data.train);
  result.test_accuracy = evaluate_model(model, data.test);
  return result;
}

double evaluate_model(SmallEpitomeNet& model, const Dataset& dataset) {
  const std::int64_t n = dataset.size();
  EPIM_CHECK(n > 0, "cannot evaluate on an empty dataset");
  std::int64_t correct = 0;
  const std::int64_t chunk = 32;
  std::vector<int> identity(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    identity[static_cast<std::size_t>(i)] = static_cast<int>(i);
  }
  for (std::int64_t b = 0; b < n; b += chunk) {
    const std::int64_t count = std::min(chunk, n - b);
    std::vector<int> labels;
    const Tensor batch = gather_batch(dataset, identity, b, count, labels);
    const Tensor logits = model.forward(batch, /*train=*/false);
    const SoftmaxLoss loss = softmax_cross_entropy(logits, labels);
    for (std::int64_t i = 0; i < count; ++i) {
      correct += loss.predicted[static_cast<std::size_t>(i)] ==
                         labels[static_cast<std::size_t>(i)]
                     ? 1
                     : 0;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

QuantEvalResult evaluate_quantized(SmallEpitomeNet& model,
                                   const Dataset& dataset,
                                   const QuantConfig& config) {
  const std::vector<Tensor> snapshot = model.snapshot_weights();
  const QuantNoise noise = model.quantize_weights(config);
  QuantEvalResult result;
  result.accuracy = evaluate_model(model, dataset);
  result.weighted_mse = noise.weighted_mse();
  result.weight_power = noise.weight_power();
  model.restore_weights(snapshot);
  return result;
}

}  // namespace epim
