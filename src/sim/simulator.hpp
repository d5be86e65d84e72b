// Top-level EPIM simulator: one call produces everything a Table-1 row
// needs -- hardware cost (crossbars, latency, energy, utilization) from the
// analytical estimator and a projected accuracy from measured quantization
// noise (see quant/accuracy_model.hpp for what "projected" means here).
#pragma once

#include <cstdint>
#include <string>

#include "core/assignment.hpp"
#include "pim/estimator.hpp"
#include "quant/accuracy_model.hpp"
#include "quant/epitome_quant.hpp"

namespace epim {

class EpimSimulator {
 public:
  explicit EpimSimulator(CrossbarConfig config = {}, HardwareLut lut = {})
      : estimator_(config, lut) {}

  const PimEstimator& estimator() const { return estimator_; }
  const CrossbarConfig& crossbar_config() const {
    return estimator_.config();
  }

  struct Evaluation {
    NetworkCost cost;
    double projected_accuracy = 0.0;
    /// Aggregate repetition-weighted quantization MSE and mean weight power
    /// over all quantized layers (0/1 when unquantized).
    double weighted_mse = 0.0;
    double weight_power = 1.0;
  };

  /// Evaluate an assignment at a precision.
  ///
  /// FP32 (all weight_bits == 32) skips quantization: accuracy is the
  /// anchor value (conv baseline vs epitome). Quantized configurations draw
  /// synthetic per-layer weights (seeded), quantize them with `scheme`, and
  /// project accuracy from the measured noise.
  Evaluation evaluate(const NetworkAssignment& assignment,
                      const PrecisionConfig& precision,
                      const QuantConfig& scheme,
                      const AccuracyProjector& projector,
                      std::uint64_t seed = 0x51D'E57u) const;

  /// Measure only the aggregate quantization noise of an assignment: one
  /// running QuantNoise over every quantized layer's probe, in layer and
  /// element order. evaluate() projects accuracy from it.
  QuantNoise measure_noise(const NetworkAssignment& assignment,
                           const PrecisionConfig& precision,
                           const QuantConfig& scheme,
                           std::uint64_t seed = 0x51D'E57u) const;

 private:
  PimEstimator estimator_;
};

}  // namespace epim
