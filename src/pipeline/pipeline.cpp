#include "pipeline/pipeline.hpp"

#include <utility>

#include "common/check.hpp"

namespace epim {

namespace {

NetworkAssignment build_assignment(const Network& net,
                                   const DesignConfig& design) {
  if (design.policy == DesignPolicy::kBaseline) {
    return NetworkAssignment::baseline(net);
  }
  NetworkAssignment assignment = NetworkAssignment::uniform(net,
                                                            design.uniform);
  if (design.wrap_output) assignment.set_wrap_output(true);
  return assignment;
}

RuntimeConfig derive_runtime_config(const PipelineConfig& config) {
  RuntimeConfig rc;
  rc.weight_bits = config.resolved_deploy_weight_bits();
  rc.act_bits = config.resolved_deploy_act_bits();
  rc.act_percentile = config.deploy.act_percentile;
  rc.crossbar = config.hardware.crossbar;
  rc.crossbar.adc_bits = config.hardware.deploy_adc_bits;
  rc.non_ideal = config.deploy.non_ideal;
  return rc;
}

std::string design_description(const DesignConfig& design, bool searched) {
  if (searched) return "layer-wise (evo-searched)";
  if (design.policy == DesignPolicy::kBaseline) return "conv baseline";
  std::string s = "uniform " + std::to_string(design.uniform.target_rows) +
                  "x" + std::to_string(design.uniform.target_cout);
  if (design.wrap_output) s += " + channel wrapping";
  return s;
}

std::string precision_description(const PrecisionPlan& plan) {
  switch (plan.mode) {
    case PrecisionMode::kFp32:
      return "FP32";
    case PrecisionMode::kUniform:
      return "W" + std::to_string(plan.weight_bits) + "A" +
             std::to_string(plan.act_bits);
    case PrecisionMode::kHawqMixed:
      return "W" + std::to_string(plan.mixed.low_bits) + "/" +
             std::to_string(plan.mixed.high_bits) + "mpA" +
             std::to_string(plan.act_bits) + " (HAWQ-lite)";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// DeployedModel
// ---------------------------------------------------------------------------

DeployedModel::DeployedModel(RuntimeConfig config,
                             const SmallEpitomeNet& model,
                             const Dataset& calibration, ServeConfig serve)
    : config_(config),
      serve_config_(serve),
      runtime_(std::make_unique<PimNetworkRuntime>(model, calibration,
                                                   config)) {}

DeployedModel::DeployedModel(RuntimeConfig config,
                             std::unique_ptr<PimNetworkRuntime> runtime)
    : config_(config), runtime_(std::move(runtime)) {}

std::int64_t DeployedModel::total_crossbars() const {
  return runtime_->total_crossbars();
}

Tensor DeployedModel::forward(const Tensor& image,
                              std::int64_t* clips) const {
  return runtime_->forward(image, clips);
}

std::vector<Tensor> DeployedModel::forward_batch(
    const std::vector<Tensor>& images,
    std::vector<std::int64_t>* per_image_clips) const {
  return runtime_->forward_batch(images, per_image_clips);
}

const SmallNetConfig& DeployedModel::model_config() const {
  return runtime_->deploy_state().config;
}

double DeployedModel::evaluate(const Dataset& dataset,
                               std::int64_t* clips) const {
  return runtime_->evaluate(dataset, clips);
}

// ---------------------------------------------------------------------------
// CompiledModel
// ---------------------------------------------------------------------------

CompiledModel::CompiledModel(std::shared_ptr<const PipelineConfig> config,
                             std::shared_ptr<const EvaluationBackend> backend,
                             std::shared_ptr<const PimEstimator> estimator,
                             std::unique_ptr<Network> net,
                             const DesignConfig& design)
    : config_(std::move(config)),
      backend_(std::move(backend)),
      estimator_(std::move(estimator)),
      net_(std::move(net)),
      design_(design),
      assignment_(build_assignment(*net_, design_)),
      projector_(config_->anchors) {
  resolve_precision();
}

void CompiledModel::resolve_precision() {
  mixed_.reset();
  const PrecisionPlan& plan = config_->precision;
  switch (plan.mode) {
    case PrecisionMode::kFp32:
      // Modelled as the fixed-point equivalent in CrossbarConfig; matches
      // the hand-wired PrecisionConfig::uniform(32, 32) convention.
      precision_ = PrecisionConfig::uniform(32, 32);
      break;
    case PrecisionMode::kUniform:
      precision_ = PrecisionConfig::uniform(plan.weight_bits, plan.act_bits);
      break;
    case PrecisionMode::kHawqMixed: {
      MixedPrecisionResult alloc = hawq_lite_allocate(
          assignment_, plan.mixed, config_->hardware.crossbar);
      alloc.precision.act_bits = plan.act_bits;
      precision_ = alloc.precision;
      mixed_ = std::move(alloc);
      break;
    }
  }
}

const CompiledModel::Evaluation& CompiledModel::estimate() const {
  if (!estimate_cache_) {
    estimate_cache_ = backend_->evaluate(assignment_, precision_,
                                         config_->quant, projector_,
                                         config_->seed);
  }
  return *estimate_cache_;
}

EvoSearchResult CompiledModel::search() {
  EPIM_CHECK(config_->search.enabled,
             "CompiledModel::search() requires config.search.enabled");
  EvoSearchConfig evo = config_->search.evo;
  evo.precision = precision_;
  EvolutionSearch searcher(*net_, *estimator_, evo);
  EvoSearchResult result = searcher.run();
  assignment_ = result.best;
  searched_ = true;
  // A HAWQ-lite plan is assignment-dependent; re-allocate for the refined
  // design.
  resolve_precision();
  estimate_cache_.reset();
  return result;
}

DeployedModel CompiledModel::deploy(const SmallEpitomeNet& model,
                                    const Dataset& calibration) const {
  return DeployedModel(derive_runtime_config(*config_), model, calibration,
                       config_->serve);
}

TextTable CompiledModel::to_table() const {
  const Evaluation& e = estimate();
  TextTable table({"metric", "value"});
  table.add_row({"network", net_->name()});
  table.add_row({"weighted layers", std::to_string(assignment_.num_layers())});
  table.add_row(
      {"epitome layers", std::to_string(assignment_.num_epitome_layers())});
  table.add_row({"design", design_description(design_, searched_)});
  table.add_row({"precision", precision_description(config_->precision)});
  table.add_row({"backend", backend_->name()});
  table.add_row(
      {"parameters (M)",
       fmt(static_cast<double>(assignment_.total_weights()) / 1e6, 2)});
  table.add_row(
      {"param compression", fmt(assignment_.parameter_compression()) + "x"});
  table.add_row({"crossbars", std::to_string(e.cost.num_crossbars)});
  table.add_row({"latency (ms)", fmt(e.cost.latency_ms, 1)});
  table.add_row({"dynamic energy (mJ)", fmt(e.cost.dynamic_energy_mj, 1)});
  table.add_row({"static energy (mJ)", fmt(e.cost.static_energy_mj, 1)});
  table.add_row({"energy (mJ)", fmt(e.cost.energy_mj(), 1)});
  table.add_row({"EDP (mJ*ms)", fmt(e.cost.edp(), 0)});
  table.add_row(
      {"memristor utilization", fmt(100.0 * e.cost.utilization, 1) + "%"});
  table.add_row(
      {"top-1 accuracy (projected)", fmt(e.projected_accuracy)});
  return table;
}

std::string CompiledModel::summary() const {
  return "=== EPIM pipeline report: " + net_->name() + " ===\n" +
         to_table().to_string();
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

Pipeline::Pipeline(PipelineConfig config)
    : Pipeline(std::move(config), nullptr) {}

Pipeline::Pipeline(PipelineConfig config,
                   std::shared_ptr<const EvaluationBackend> backend) {
  config.validate();
  config_ = std::make_shared<const PipelineConfig>(std::move(config));
  estimator_ = std::make_shared<const PimEstimator>(config_->hardware.crossbar,
                                                    config_->hardware.lut);
  if (backend != nullptr) {
    backend_ = std::move(backend);
  } else if (config_->backend == BackendKind::kDatapath) {
    backend_ = std::make_shared<const DatapathBackend>(
        config_->hardware.crossbar, config_->hardware.lut);
  } else {
    backend_ = std::make_shared<const AnalyticalBackend>(
        config_->hardware.crossbar, config_->hardware.lut);
  }
}

CompiledModel Pipeline::compile(const Network& net) const {
  return compile(net, config_->design);
}

CompiledModel Pipeline::compile(const Network& net,
                                const DesignConfig& design) const {
  validate_design(design);
  return CompiledModel(config_, backend_, estimator_,
                       std::make_unique<Network>(net), design);
}

DeployedModel Pipeline::deploy(const SmallEpitomeNet& model,
                               const Dataset& calibration) const {
  return DeployedModel(derive_runtime_config(*config_), model, calibration,
                       config_->serve);
}

QuantEvalResult Pipeline::evaluate_quantized(SmallEpitomeNet& model,
                                             const Dataset& dataset) const {
  return ::epim::evaluate_quantized(model, dataset, config_->quant);
}

}  // namespace epim
