// epim::Pipeline -- the one-stop compile-evaluate-deploy API over the
// designer, evolutionary search, quantizer, estimator and runtime.
//
// The façade mirrors how a compiler toolchain is driven:
//
//   PipelineConfig cfg;                       // aggregate of all sub-configs
//   cfg.precision = PrecisionPlan::uniform(9, 9);
//   Pipeline pipeline(cfg);                   // validates, builds backend
//   CompiledModel model = pipeline.compile(resnet50());
//   auto eval = model.estimate();             // cost + projected accuracy
//   model.search();                           // optional evo refinement
//   auto chip = pipeline.deploy(trained_net, calibration);  // bit-accurate
//   std::puts(model.summary().c_str());
//
// CompiledModel owns its Network copy, chosen NetworkAssignment and precision
// plan, so it stays valid after the source Network goes away. Evaluation is
// delegated to a pluggable EvaluationBackend (see backend.hpp); swapping the
// backend never changes caller code.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/table.hpp"
#include "core/assignment.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline_config.hpp"
#include "quant/mixed_precision.hpp"
#include "runtime/pim_runtime.hpp"
#include "search/evolution.hpp"
#include "train/trainer.hpp"

namespace epim {

class ArtifactCodec;
class InferenceService;

/// A trained model programmed onto the simulated chip: thin façade over
/// PimNetworkRuntime so callers never wire RuntimeConfig by hand.
class DeployedModel {
 public:
  DeployedModel(DeployedModel&&) noexcept = default;
  DeployedModel& operator=(DeployedModel&&) noexcept = default;

  /// The runtime configuration the pipeline derived (bits, ADC, faults).
  const RuntimeConfig& runtime_config() const { return config_; }

  /// Crossbars programmed across all on-chip layers.
  std::int64_t total_crossbars() const;

  /// Run one (C, H, W) image fully on the simulated chip; returns logits.
  /// The image's ADC clip events are stored in *clips when it is non-null.
  Tensor forward(const Tensor& image, std::int64_t* clips = nullptr) const;

  /// Thread-safe batched forward: logits[i] is bit-identical to
  /// forward(images[i]) at any batch size and thread count; per-image clip
  /// counts are reported through `per_image_clips` when non-null.
  std::vector<Tensor> forward_batch(
      const std::vector<Tensor>& images,
      std::vector<std::int64_t>* per_image_clips = nullptr) const;

  /// Geometry of the deployed model's inputs (what submit() validates
  /// against): channels x image_size x image_size.
  const SmallNetConfig& model_config() const;

  /// Top-1 accuracy over a dataset, everything executed on-chip; the ADC
  /// clip events summed over it are stored in *clips when it is non-null.
  double evaluate(const Dataset& dataset,
                  std::int64_t* clips = nullptr) const;

  /// Serialize to a `.epim` artifact (see serve/artifact.hpp). A later
  /// Pipeline::load_deployed(path) answers bit-identically to this model.
  void save(const std::string& path) const;

  /// Batching policy serve() uses: the pipeline's ServeConfig when this
  /// model came from deploy(), defaults after an artifact load.
  const ServeConfig& serve_config() const { return serve_config_; }

  /// Move this model into a batched InferenceService (serve/service.hpp).
  /// Rvalue-qualified: the service takes ownership of the programmed chip,
  /// e.g. `auto svc = std::move(chip).serve();`.
  InferenceService serve() &&;
  InferenceService serve(const ServeConfig& config) &&;

 private:
  friend class Pipeline;
  friend class CompiledModel;
  friend class ArtifactCodec;
  DeployedModel(RuntimeConfig config, const SmallEpitomeNet& model,
                const Dataset& calibration, ServeConfig serve = {});
  /// Restore path (artifact load): adopt an already-programmed runtime.
  DeployedModel(RuntimeConfig config,
                std::unique_ptr<PimNetworkRuntime> runtime);

  RuntimeConfig config_;
  ServeConfig serve_config_{};
  std::unique_ptr<PimNetworkRuntime> runtime_;
};

/// The artifact Pipeline::compile() produces: network copy + epitome
/// assignment + resolved precision plan, with evaluation, search refinement,
/// deployment and reporting hanging off it.
class CompiledModel {
 public:
  using Evaluation = EpimSimulator::Evaluation;

  CompiledModel(CompiledModel&&) noexcept = default;
  CompiledModel& operator=(CompiledModel&&) noexcept = default;

  const PipelineConfig& config() const { return *config_; }
  const Network& network() const { return *net_; }
  const NetworkAssignment& assignment() const { return assignment_; }
  const PrecisionConfig& precision() const { return precision_; }
  const EvaluationBackend& backend() const { return *backend_; }

  /// HAWQ-lite allocation detail (set iff the plan is kHawqMixed).
  const std::optional<MixedPrecisionResult>& mixed_precision() const {
    return mixed_;
  }

  /// Analytical NetworkCost + projected accuracy via the backend. Cached;
  /// recomputed after search() changes the assignment.
  const Evaluation& estimate() const;

  /// Evolutionary layer-wise refinement (paper Algorithm 1) under the
  /// config's search settings; replaces this model's assignment with the
  /// best feasible design found. Throws InvalidArgument unless
  /// config.search.enabled. The returned result's `best` assignment refers
  /// to this CompiledModel's network.
  EvoSearchResult search();

  /// Bit-accurate deployment of a trained model (see Pipeline::deploy).
  DeployedModel deploy(const SmallEpitomeNet& model,
                       const Dataset& calibration) const;

  /// One-line-per-metric deployment report (built on common/table.hpp).
  TextTable to_table() const;

  /// to_table() rendered with a title -- the report a hardware team reviews.
  std::string summary() const;

  /// Serialize to a `.epim` artifact: full PipelineConfig, network topology,
  /// assignment (including any search() refinement) and the resolved
  /// per-layer precision plan. Pipeline::load(path) round-trips it with
  /// byte-identical estimator numbers.
  void save(const std::string& path) const;

 private:
  friend class Pipeline;
  friend class ArtifactCodec;
  CompiledModel(std::shared_ptr<const PipelineConfig> config,
                std::shared_ptr<const EvaluationBackend> backend,
                std::shared_ptr<const PimEstimator> estimator,
                std::unique_ptr<Network> net, const DesignConfig& design);

  /// Re-resolve the precision plan against the current assignment.
  void resolve_precision();

  std::shared_ptr<const PipelineConfig> config_;
  std::shared_ptr<const EvaluationBackend> backend_;
  std::shared_ptr<const PimEstimator> estimator_;
  std::unique_ptr<Network> net_;  ///< owned; stable address for assignment_
  DesignConfig design_;           ///< policy this model was compiled under
  NetworkAssignment assignment_;
  PrecisionConfig precision_;
  std::optional<MixedPrecisionResult> mixed_;
  AccuracyProjector projector_;
  bool searched_ = false;
  mutable std::optional<Evaluation> estimate_cache_;
};

/// The façade. Construction validates the config and builds the evaluation
/// backend; compile() turns Networks into CompiledModel artifacts; deploy()
/// programs trained models onto the functional chip.
class Pipeline {
 public:
  /// Validates `config` (throws InvalidArgument) and constructs the backend
  /// selected by `config.backend`.
  explicit Pipeline(PipelineConfig config);

  /// Same, with a caller-supplied backend (batched / multi-chip / test
  /// doubles slot in here).
  Pipeline(PipelineConfig config,
           std::shared_ptr<const EvaluationBackend> backend);

  const PipelineConfig& config() const { return *config_; }
  const EvaluationBackend& backend() const { return *backend_; }

  /// The analytical estimator built from the hardware config (exposed for
  /// layer-level probes and auxiliary planners: duplication, chip model).
  const PimEstimator& estimator() const { return *estimator_; }

  /// Compile a network: design the epitome assignment under the config's
  /// policy and resolve the precision plan.
  CompiledModel compile(const Network& net) const;

  /// Compile under a one-off design policy (sweeps), keeping everything
  /// else from the config.
  CompiledModel compile(const Network& net, const DesignConfig& design) const;

  /// Quantize + calibrate + program a trained model onto functional
  /// crossbars, with bits/ADC/non-idealities derived from the config.
  DeployedModel deploy(const SmallEpitomeNet& model,
                       const Dataset& calibration) const;

  /// Fake-quantize a trained model's weights with the config's quant scheme
  /// and measure real accuracy (the trainer-level PTQ path).
  QuantEvalResult evaluate_quantized(SmallEpitomeNet& model,
                                     const Dataset& dataset) const;

  /// Load a CompiledModel artifact saved by CompiledModel::save(). The
  /// artifact embeds its PipelineConfig, so no Pipeline instance is needed.
  static CompiledModel load(const std::string& path);

  /// Load a DeployedModel artifact saved by DeployedModel::save();
  /// re-programs the crossbars bit-identically (non-ideality draws replay
  /// from the stored seed).
  static DeployedModel load_deployed(const std::string& path);

 private:
  std::shared_ptr<const PipelineConfig> config_;
  std::shared_ptr<const EvaluationBackend> backend_;
  std::shared_ptr<const PimEstimator> estimator_;
};

}  // namespace epim
