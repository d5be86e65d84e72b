// Epitome-aware quantization (paper Sec. 4.2, Eq. 4-5).
//
// Three range schemes, forming the ablation ladder of Table 2:
//  * kMinMax          -- one min/max range for the whole epitome (naive);
//  * kPerCrossbar     -- one scaling factor per crossbar block, exploiting
//                        the crossbars' parallel, independent compute;
//  * kOverlapWeighted -- per-crossbar + the clipping range is the weighted
//                        sum of the highly-repeated (overlap) region's
//                        min/max and the rest's min/max:
//                          alpha = w1*min_overlap + w2*min_others
//                          beta  = w1*max_overlap + w2*max_others
//                        so frequently-sampled weights (which appear many
//                        times in the reconstructed convolution) are
//                        represented more faithfully.
//
// The quantizer adds each epitome's error to a caller-owned QuantNoise, so
// one running sum spans a whole network. It yields the plain elementwise
// MSE and the repetition-weighted MSE; the latter is the error actually
// injected into the reconstructed convolution and is the quantity the
// overlap scheme improves.
#pragma once

#include <cstdint>
#include <vector>

#include "core/epitome.hpp"
#include "quant/quantizer.hpp"

namespace epim {

enum class RangeScheme { kMinMax, kPerCrossbar, kOverlapWeighted };

const char* range_scheme_name(RangeScheme scheme);

struct QuantConfig {
  int bits = 8;
  RangeScheme scheme = RangeScheme::kOverlapWeighted;
  /// Weight of the overlap (highly-repeated) region in Eq. 4-5.
  double w1 = 0.8;
  /// Weight of the remaining region.
  double w2 = 0.2;
  /// Crossbar block geometry used by the per-crossbar schemes.
  std::int64_t xbar_rows = 128;
  std::int64_t xbar_cols = 128;
};

/// Quantized epitome: the per-block parameters and a fake-quantized float
/// epitome for accuracy evaluation.
struct QuantizedEpitome {
  /// Per crossbar block, in row-major block order.
  std::vector<QuantParams> block_params;
  std::int64_t blocks_r = 0, blocks_c = 0;
  /// Epitome with dequantized weights (same spec as the source).
  Tensor dequant_weights;
};

/// Running error sums over every element of every epitome quantized into
/// it, added in element order. d = w - dequant(w), rep = repetition count.
struct QuantNoise {
  double wse = 0.0;        ///< sum of rep * d^2
  double rep_total = 0.0;  ///< sum of rep
  double se = 0.0;         ///< sum of d^2
  double power = 0.0;      ///< sum of w^2
  std::int64_t count = 0;  ///< elements summed

  /// Repetition-weighted (effective) MSE; 0 when nothing was summed.
  double weighted_mse() const {
    return rep_total > 0 ? wse / rep_total : 0.0;
  }
  double plain_mse() const {
    return count > 0 ? se / static_cast<double>(count) : 0.0;
  }
  /// Mean squared weight; 1 when nothing was summed.
  double weight_power() const {
    return count > 0 ? power / static_cast<double>(count) : 1.0;
  }
};

class EpitomeQuantizer {
 public:
  explicit EpitomeQuantizer(QuantConfig config);

  const QuantConfig& config() const { return config_; }

  /// Quantize one epitome and add its error terms to `noise`.
  QuantizedEpitome quantize(const Epitome& epitome, QuantNoise& noise) const;

 private:
  QuantConfig config_;
};

}  // namespace epim
