// Uniform affine quantization (paper Sec. 2.3, Eq. 2-3).
//
//   Q(r) = Int(r / S) - Z,   S = (beta - alpha) / (2^k - 1)
//
// Quantized codes are unsigned k-bit integers in [0, 2^k - 1]. Degenerate
// ranges (alpha == beta) quantize everything to a single code.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace epim {

/// Scaling factor + zero point for one quantization region.
struct QuantParams {
  double scale = 1.0;
  std::int64_t zero_point = 0;
  int bits = 8;

  std::int64_t max_code() const { return (std::int64_t{1} << bits) - 1; }

  /// Build from a clipping range [alpha, beta] (alpha <= beta required).
  static QuantParams from_range(double alpha, double beta, int bits);

  /// Real value -> code in [0, max_code()], clamping out-of-range inputs.
  std::int64_t quantize(double r) const;

  /// Code -> real value.
  double dequantize(std::int64_t code) const;

  /// Round-trip a real value through the quantizer.
  double fake_quantize(double r) const { return dequantize(quantize(r)); }
};

/// Fake-quantize a whole tensor with one shared parameter set.
Tensor fake_quantize_tensor(const Tensor& t, const QuantParams& params);

/// Min/max-range parameters for a tensor (the naive scheme).
QuantParams minmax_params(const Tensor& t, int bits);

}  // namespace epim
