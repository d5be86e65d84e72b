#include "sim/simulator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace epim {

namespace {

bool is_fp32(const PrecisionConfig& precision) {
  return std::all_of(precision.weight_bits.begin(),
                     precision.weight_bits.end(),
                     [](int b) { return b == 32; });
}

}  // namespace

QuantNoise EpimSimulator::measure_noise(const NetworkAssignment& assignment,
                                       const PrecisionConfig& precision,
                                       const QuantConfig& scheme,
                                       std::uint64_t seed) const {
  Rng rng(seed);
  QuantNoise noise;
  for (std::int64_t i = 0; i < assignment.num_layers(); ++i) {
    Epitome probe = assignment.random_epitome(i, rng);
    // Trained CNN weights are heavy-tailed (leptokurtic), and the tails are
    // what separates the range schemes: a single outlier inflates a naive
    // min/max range for the whole tensor, while per-crossbar and
    // overlap-weighted ranges contain the damage. Mimic that with a sparse
    // large-magnitude component on top of the He-initialized draw.
    for (std::int64_t e = 0; e < probe.weights().numel(); ++e) {
      if (rng.flip(0.03)) probe.weights().at(e) *= 4.0f;
    }
    QuantConfig cfg = scheme;
    cfg.bits = precision.layer_weight_bits(i);
    if (cfg.bits == 32) continue;  // layer kept at full precision
    EpitomeQuantizer(cfg).quantize(probe, noise);
  }
  return noise;
}

EpimSimulator::Evaluation EpimSimulator::evaluate(
    const NetworkAssignment& assignment, const PrecisionConfig& precision,
    const QuantConfig& scheme, const AccuracyProjector& projector,
    std::uint64_t seed) const {
  Evaluation eval;
  eval.cost = estimator_.eval_network(assignment, precision);
  if (is_fp32(precision)) {
    eval.projected_accuracy = assignment.num_epitome_layers() == 0
                                  ? projector.anchors().conv_fp32
                                  : projector.anchors().epitome_fp32;
    return eval;
  }
  const QuantNoise noise = measure_noise(assignment, precision, scheme, seed);
  eval.weighted_mse = noise.weighted_mse();
  eval.weight_power = noise.weight_power();
  eval.projected_accuracy =
      projector.project_quantized(eval.weighted_mse, eval.weight_power);
  return eval;
}

}  // namespace epim
