#include "pipeline/pipeline_config.hpp"

#include <string>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace epim {

namespace {

/// One weight of `bits` must fit on a single crossbar: its cell slices lie
/// side by side along the bit-line dimension.
void check_weight_fits_crossbar(const CrossbarConfig& xbar, int bits,
                                const char* what) {
  EPIM_CHECK(bits >= 1 && bits <= 32,
             std::string(what) + " weight bits must be in [1, 32], got " +
                 std::to_string(bits));
  const std::int64_t slices = xbar.weight_slices(bits);
  EPIM_CHECK(slices <= xbar.cols,
             std::string(what) + " weights need " + std::to_string(slices) +
                 " cell slices per weight but the crossbar has only " +
                 std::to_string(xbar.cols) +
                 " columns (weight bits exceed crossbar cell capacity)");
}

}  // namespace

void validate_serve(const ServeConfig& serve) {
  EPIM_CHECK(serve.max_batch >= 1, "serve.max_batch must be positive");
  EPIM_CHECK(serve.flush_deadline_ms > 0.0,
             "serve.flush_deadline_ms must be positive");
  // Same ceiling as the compute pool: a stray worker count must not
  // fork-bomb the process either.
  EPIM_CHECK(serve.workers >= 1 && serve.workers <= detail::kMaxThreads,
             "serve.workers must be in [1, " +
                 std::to_string(detail::kMaxThreads) + "]");
  EPIM_CHECK(serve.max_queue >= 0,
             "serve.max_queue must be non-negative (0 = unbounded)");
  EPIM_CHECK(serve.max_workers == 0 ||
                 (serve.max_workers >= serve.workers &&
                  serve.max_workers <= detail::kMaxThreads),
             "serve.max_workers must be 0 (= workers, fixed pool) or in "
             "[workers, " +
                 std::to_string(detail::kMaxThreads) + "]");
  EPIM_CHECK(serve.fairness_quantum >= 1,
             "serve.fairness_quantum must be positive");
}

void validate_design(const DesignConfig& design) {
  if (design.policy != DesignPolicy::kUniform) return;
  EPIM_CHECK(
      design.uniform.target_rows >= 1 && design.uniform.target_cout >= 1,
      "uniform design targets must be positive");
  EPIM_CHECK(design.uniform.crossbar_size >= 1,
             "uniform design crossbar_size must be positive");
  EPIM_CHECK(design.uniform.spatial_slack >= 0,
             "spatial_slack must be non-negative");
}

int PipelineConfig::resolved_deploy_weight_bits() const {
  if (deploy.weight_bits > 0) return deploy.weight_bits;
  return precision.mode == PrecisionMode::kUniform ? precision.weight_bits : 6;
}

int PipelineConfig::resolved_deploy_act_bits() const {
  if (deploy.act_bits > 0) return deploy.act_bits;
  return precision.mode == PrecisionMode::kUniform ? precision.act_bits : 8;
}

void PipelineConfig::validate() const {
  // --- hardware ---
  const CrossbarConfig& xbar = hardware.crossbar;
  EPIM_CHECK(xbar.rows >= 1 && xbar.cols >= 1,
             "crossbar geometry must be positive");
  EPIM_CHECK(xbar.cell_bits >= 1 && xbar.cell_bits <= 8,
             "cell_bits must be in [1, 8]");
  EPIM_CHECK(xbar.adc_bits >= 1 && xbar.adc_bits <= 32,
             "adc_bits must be in [1, 32]");
  EPIM_CHECK(xbar.adc_share >= 1, "adc_share must be positive");
  EPIM_CHECK(xbar.fp32_weight_bits >= 1 && xbar.fp32_act_bits >= 1,
             "FP32 fixed-point equivalents must be positive");
  EPIM_CHECK(hardware.deploy_adc_bits >= 1 && hardware.deploy_adc_bits <= 32,
             "deploy_adc_bits must be in [1, 32]");

  // --- design policy ---
  validate_design(design);

  // --- precision plan ---
  EPIM_CHECK(precision.act_bits >= 1 && precision.act_bits <= 32,
             "activation bits must be in [1, 32]");
  switch (precision.mode) {
    case PrecisionMode::kFp32:
      check_weight_fits_crossbar(xbar, xbar.fp32_weight_bits,
                                 "FP32-equivalent");
      break;
    case PrecisionMode::kUniform:
      check_weight_fits_crossbar(xbar, precision.weight_bits, "uniform");
      break;
    case PrecisionMode::kHawqMixed:
      EPIM_CHECK(precision.mixed.low_bits < precision.mixed.high_bits,
                 "HAWQ-lite low_bits must be below high_bits");
      EPIM_CHECK(precision.mixed.budget_fraction >= 0.0 &&
                     precision.mixed.budget_fraction <= 1.0,
                 "HAWQ-lite budget_fraction must be in [0, 1]");
      check_weight_fits_crossbar(xbar, precision.mixed.low_bits,
                                 "HAWQ-lite low");
      check_weight_fits_crossbar(xbar, precision.mixed.high_bits,
                                 "HAWQ-lite high");
      break;
  }

  // --- quantization scheme ---
  EPIM_CHECK(quant.bits >= 1 && quant.bits <= 16,
             "quantization bits must be in [1, 16]");
  EPIM_CHECK(quant.w1 >= 0.0 && quant.w2 >= 0.0 && quant.w1 + quant.w2 > 0.0,
             "overlap range weights must be non-negative and not both zero");
  EPIM_CHECK(quant.xbar_rows >= 1 && quant.xbar_cols >= 1,
             "quantization crossbar block geometry must be positive");

  // --- search ---
  if (search.enabled) {
    EPIM_CHECK(search.evo.crossbar_budget > 0,
               "search is enabled but the crossbar budget is zero; Eq. 7's "
               "feasibility mask needs a positive budget");
    EPIM_CHECK(search.evo.population >= 1, "search population must be >= 1");
    EPIM_CHECK(
        search.evo.parents >= 1 && search.evo.parents <= search.evo.population,
        "search parents must be in [1, population]");
    EPIM_CHECK(search.evo.iterations >= 1, "search iterations must be >= 1");
    EPIM_CHECK(
        search.evo.mutation_rate >= 0.0 && search.evo.mutation_rate <= 1.0,
        "mutation_rate must be in [0, 1]");
    EPIM_CHECK(!search.evo.candidates.row_targets.empty() &&
                   !search.evo.candidates.cout_targets.empty(),
               "search candidate targets must be non-empty");
    EPIM_CHECK(search.evo.candidates.crossbar_size >= 1,
               "search candidate crossbar_size must be positive");
  }

  // --- deployment ---
  EPIM_CHECK(deploy.weight_bits >= 0 && deploy.weight_bits <= 32 &&
                 deploy.act_bits >= 0 && deploy.act_bits <= 32,
             "deploy bit overrides must be in [0, 32] (0 = derive)");
  EPIM_CHECK(deploy.act_percentile > 0.0 && deploy.act_percentile <= 1.0,
             "act_percentile must be in (0, 1]");
  EPIM_CHECK(deploy.non_ideal.conductance_sigma >= 0.0 &&
                 deploy.non_ideal.stuck_at_zero_prob >= 0.0 &&
                 deploy.non_ideal.stuck_at_zero_prob <= 1.0 &&
                 deploy.non_ideal.stuck_at_max_prob >= 0.0 &&
                 deploy.non_ideal.stuck_at_max_prob <= 1.0,
             "non-ideality parameters out of range");
  check_weight_fits_crossbar(xbar, resolved_deploy_weight_bits(), "deploy");

  // --- serving ---
  validate_serve(serve);
}

}  // namespace epim
