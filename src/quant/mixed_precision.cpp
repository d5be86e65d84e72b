#include "quant/mixed_precision.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "pim/mapping.hpp"

namespace epim {

MixedPrecisionResult hawq_lite_allocate(const NetworkAssignment& assignment,
                                        const MixedPrecisionConfig& config,
                                        const CrossbarConfig& xbar) {
  EPIM_CHECK(config.low_bits >= 1 && config.high_bits > config.low_bits,
             "mixed precision requires low_bits < high_bits");
  EPIM_CHECK(config.budget_fraction >= 0.0 && config.budget_fraction <= 1.0,
             "budget fraction must be in [0, 1]");
  const std::int64_t n = assignment.num_layers();
  Rng rng(config.seed);

  std::vector<LayerSensitivity> sens;
  std::int64_t xb_all_low = 0, xb_all_high = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const ConvLayerInfo& layer = assignment.layers()[static_cast<std::size_t>(i)];
    const auto& choice = assignment.choice(i);
    const Epitome probe = assignment.random_epitome(i, rng);
    QuantConfig lo_cfg = config.quant;
    lo_cfg.bits = config.low_bits;
    QuantConfig hi_cfg = config.quant;
    hi_cfg.bits = config.high_bits;
    QuantNoise lo, hi;
    EpitomeQuantizer(lo_cfg).quantize(probe, lo);
    EpitomeQuantizer(hi_cfg).quantize(probe, hi);

    LayerSensitivity s;
    s.layer = i;
    // Curvature proxy x perturbation gap (see header).
    s.score = static_cast<double>(layer.macs()) *
              std::max(0.0, lo.weighted_mse() - hi.weighted_mse());
    const std::int64_t rows =
        choice.has_value() ? choice->rows() : layer.conv.unrolled_rows();
    const std::int64_t cols =
        choice.has_value() ? choice->cout_e : layer.conv.unrolled_cols();
    s.xb_low = map_weight_matrix(rows, cols, config.low_bits, xbar)
                   .num_crossbars;
    s.xb_high = map_weight_matrix(rows, cols, config.high_bits, xbar)
                    .num_crossbars;
    xb_all_low += s.xb_low;
    xb_all_high += s.xb_high;
    sens.push_back(s);
  }

  MixedPrecisionResult result;
  result.budget_crossbars =
      xb_all_low + static_cast<std::int64_t>(
                       config.budget_fraction *
                       static_cast<double>(xb_all_high - xb_all_low));
  result.precision.weight_bits.assign(static_cast<std::size_t>(n),
                                      config.low_bits);
  result.precision.act_bits = 9;

  // Greedy promotion: most sensitive layer first, while the budget allows.
  std::vector<LayerSensitivity> ranked = sens;
  std::sort(ranked.begin(), ranked.end(),
            [](const LayerSensitivity& a, const LayerSensitivity& b) {
              return a.score > b.score;
            });
  std::int64_t used = xb_all_low;
  for (const LayerSensitivity& s : ranked) {
    const std::int64_t delta = s.xb_high - s.xb_low;
    if (used + delta <= result.budget_crossbars) {
      result.precision.weight_bits[static_cast<std::size_t>(s.layer)] =
          config.high_bits;
      used += delta;
    }
  }
  result.used_crossbars = used;
  result.ranking = std::move(ranked);
  return result;
}

}  // namespace epim
