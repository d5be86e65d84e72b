#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace epim {

QuantParams QuantParams::from_range(double alpha, double beta, int bits) {
  EPIM_CHECK(bits >= 1 && bits <= 16, "quantization bits out of range");
  EPIM_CHECK(alpha <= beta, "quantization range must satisfy alpha <= beta");
  QuantParams p;
  p.bits = bits;
  const double levels = static_cast<double>((std::int64_t{1} << bits) - 1);
  if (beta > alpha) {
    p.scale = (beta - alpha) / levels;
    p.zero_point = static_cast<std::int64_t>(std::llround(alpha / p.scale));
  } else if (alpha == 0.0) {
    // Degenerate all-zero range: code 0 represents 0 exactly.
    p.scale = 1.0;
    p.zero_point = 0;
  } else {
    // Degenerate constant range: scale = alpha with zero point 1 makes
    // code 0 dequantize to exactly alpha.
    p.scale = alpha;
    p.zero_point = 1;
  }
  return p;
}

std::int64_t QuantParams::quantize(double r) const {
  const std::int64_t code =
      static_cast<std::int64_t>(std::llround(r / scale)) - zero_point;
  return std::clamp<std::int64_t>(code, 0, max_code());
}

double QuantParams::dequantize(std::int64_t code) const {
  return scale * static_cast<double>(code + zero_point);
}

Tensor fake_quantize_tensor(const Tensor& t, const QuantParams& params) {
  Tensor out(t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    out.at(i) = static_cast<float>(params.fake_quantize(t.at(i)));
  }
  return out;
}

QuantParams minmax_params(const Tensor& t, int bits) {
  EPIM_CHECK(!t.empty(), "cannot derive range from empty tensor");
  return QuantParams::from_range(t.min(), t.max(), bits);
}

}  // namespace epim
