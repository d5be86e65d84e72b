#include "quant/epitome_quant.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace epim {

const char* range_scheme_name(RangeScheme scheme) {
  switch (scheme) {
    case RangeScheme::kMinMax:
      return "naive-minmax";
    case RangeScheme::kPerCrossbar:
      return "per-crossbar";
    case RangeScheme::kOverlapWeighted:
      return "overlap-weighted";
  }
  return "?";
}

EpitomeQuantizer::EpitomeQuantizer(QuantConfig config) : config_(config) {
  EPIM_CHECK(config_.bits >= 1 && config_.bits <= 16,
             "quantization bits out of range");
  EPIM_CHECK(config_.w1 >= 0.0 && config_.w2 >= 0.0,
             "range weights must be non-negative");
  EPIM_CHECK(config_.xbar_rows > 0 && config_.xbar_cols > 0,
             "crossbar block dims must be positive");
}

namespace {

struct RegionStats {
  double min_overlap = std::numeric_limits<double>::infinity();
  double max_overlap = -std::numeric_limits<double>::infinity();
  double min_others = std::numeric_limits<double>::infinity();
  double max_others = -std::numeric_limits<double>::infinity();
  bool any_overlap = false;
  bool any_others = false;
};

}  // namespace

QuantizedEpitome EpitomeQuantizer::quantize(const Epitome& epitome,
                                            QuantNoise& noise) const {
  const EpitomeSpec& spec = epitome.spec();
  const std::int64_t rows = spec.rows();
  const std::int64_t cols = spec.cout_e;
  const Tensor& w = epitome.weights();          // (cout_e, cin_e, p, q)
  const Tensor rep = epitome.repetition_map();  // same shape

  // Logical-matrix view: element (row, col) with row = (e_ci*p+py)*q+qx is
  // exactly w(col, row-as-flat-within-channel) because the weight tensor is
  // row-major (cout_e, cin_e, p, q). Walking rows innermost is contiguous.
  auto wval = [&](std::int64_t r, std::int64_t c) {
    return static_cast<double>(w.at(c * rows + r));
  };
  auto rval = [&](std::int64_t r, std::int64_t c) {
    return static_cast<double>(rep.at(c * rows + r));
  };

  QuantizedEpitome out;
  out.blocks_r = ceil_div(rows, config_.xbar_rows);
  out.blocks_c = ceil_div(cols, config_.xbar_cols);
  out.dequant_weights = Tensor(w.shape());
  out.block_params.reserve(
      static_cast<std::size_t>(out.blocks_r * out.blocks_c));

  // One global range for the naive scheme.
  QuantParams global = minmax_params(w, config_.bits);

  for (std::int64_t br = 0; br < out.blocks_r; ++br) {
    for (std::int64_t bc = 0; bc < out.blocks_c; ++bc) {
      const std::int64_t r0 = br * config_.xbar_rows;
      const std::int64_t r1 = std::min(rows, r0 + config_.xbar_rows);
      const std::int64_t c0 = bc * config_.xbar_cols;
      const std::int64_t c1 = std::min(cols, c0 + config_.xbar_cols);

      QuantParams params = global;
      if (config_.scheme != RangeScheme::kMinMax) {
        // Per-block repetition mean splits overlap vs. others (Fig. 2(c):
        // the centre of the epitome is repeated more than the borders).
        double rep_sum = 0.0;
        for (std::int64_t c = c0; c < c1; ++c) {
          for (std::int64_t r = r0; r < r1; ++r) rep_sum += rval(r, c);
        }
        const double rep_mean =
            rep_sum / static_cast<double>((r1 - r0) * (c1 - c0));
        RegionStats s;
        for (std::int64_t c = c0; c < c1; ++c) {
          for (std::int64_t r = r0; r < r1; ++r) {
            const double v = wval(r, c);
            if (rval(r, c) >= rep_mean) {
              s.min_overlap = std::min(s.min_overlap, v);
              s.max_overlap = std::max(s.max_overlap, v);
              s.any_overlap = true;
            } else {
              s.min_others = std::min(s.min_others, v);
              s.max_others = std::max(s.max_others, v);
              s.any_others = true;
            }
          }
        }
        EPIM_ASSERT(s.any_overlap, "repetition mean must capture some weights");
        double alpha, beta;
        if (config_.scheme == RangeScheme::kOverlapWeighted && s.any_others) {
          // Eq. 4-5: weighted sum of the two regions' extrema.
          alpha = config_.w1 * s.min_overlap + config_.w2 * s.min_others;
          beta = config_.w1 * s.max_overlap + config_.w2 * s.max_others;
        } else {
          // Per-crossbar min/max (also the fallback when the block has no
          // low-repetition region, e.g. pointwise epitomes).
          alpha = std::min(s.min_overlap,
                           s.any_others ? s.min_others : s.min_overlap);
          beta = std::max(s.max_overlap,
                          s.any_others ? s.max_others : s.max_overlap);
        }
        params = QuantParams::from_range(alpha, beta, config_.bits);
      }
      out.block_params.push_back(params);

      for (std::int64_t c = c0; c < c1; ++c) {
        for (std::int64_t r = r0; r < r1; ++r) {
          out.dequant_weights.at(c * rows + r) = static_cast<float>(
              params.dequantize(params.quantize(wval(r, c))));
        }
      }
    }
  }

  // Error sums, in flat element order so a caller's running totals over
  // many epitomes are one sequence of additions.
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    const double d =
        static_cast<double>(w.at(i)) - out.dequant_weights.at(i);
    noise.wse += static_cast<double>(rep.at(i)) * d * d;
    noise.rep_total += rep.at(i);
    noise.se += d * d;
    noise.power += static_cast<double>(w.at(i)) * w.at(i);
    ++noise.count;
  }
  return out;
}

}  // namespace epim
