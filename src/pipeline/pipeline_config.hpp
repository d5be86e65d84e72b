// Aggregate configuration of the epim::Pipeline façade.
//
// Every knob of the compile-evaluate-deploy flow lives here, grouped by the
// subsystem it feeds: hardware (crossbar geometry + cost LUT), design policy
// (which epitome shapes the compiler picks), precision plan (uniform / FP32 /
// HAWQ-lite mixed), quantization scheme, evolutionary search, and on-chip
// deployment. `validate()` cross-checks the groups against each other --
// callers get one InvalidArgument at Pipeline construction instead of a
// failure half-way through an evaluation.
#pragma once

#include <cstdint>

#include "core/designer.hpp"
#include "pim/config.hpp"
#include "pim/crossbar.hpp"
#include "pim/estimator.hpp"
#include "quant/accuracy_model.hpp"
#include "quant/epitome_quant.hpp"
#include "quant/mixed_precision.hpp"
#include "search/evolution.hpp"

namespace epim {

/// Hardware description shared by estimation, search and deployment.
struct HardwareConfig {
  CrossbarConfig crossbar{};
  HardwareLut lut{};
  /// ADC resolution used when *deploying* a trained model onto functional
  /// crossbars (CompiledModel::deploy / Pipeline::deploy). Cost estimation
  /// keeps `crossbar.adc_bits` (the paper's 9-bit regime); the bit-accurate
  /// runtime instead needs enough ADC headroom to digitize a full column of
  /// partial sums without clipping, so deployment defaults to 12 bits.
  /// This replaces the silent `adc_bits = 12` override RuntimeConfig's
  /// constructor used to apply.
  int deploy_adc_bits = 12;
};

/// Which assignment `Pipeline::compile()` produces (before any search
/// refinement via `CompiledModel::search()`).
enum class DesignPolicy {
  kBaseline,  ///< every layer keeps its convolution
  kUniform,   ///< the paper's uniform "1024 x 256"-style epitome policy
};

struct DesignConfig {
  DesignPolicy policy = DesignPolicy::kUniform;
  /// Parameters of the uniform policy (ignored for kBaseline).
  UniformDesign uniform{};
  /// Enable output channel wrapping (paper Sec. 5.3) on every epitome layer
  /// of the compiled assignment.
  bool wrap_output = false;
};

/// How per-layer weight bits are chosen.
enum class PrecisionMode {
  kFp32,      ///< 32-bit everywhere (modelled as fixed-point equivalent)
  kUniform,   ///< `weight_bits` on every layer
  kHawqMixed, ///< HAWQ-lite low/high allocation under a crossbar budget
};

struct PrecisionPlan {
  PrecisionMode mode = PrecisionMode::kUniform;
  /// Weight bits for kUniform (ignored by the other modes).
  int weight_bits = 9;
  /// Activation bits, used by every mode.
  int act_bits = 9;
  /// HAWQ-lite parameters for kHawqMixed.
  MixedPrecisionConfig mixed{};

  static PrecisionPlan fp32() {
    PrecisionPlan p;
    p.mode = PrecisionMode::kFp32;
    return p;
  }
  static PrecisionPlan uniform(int wbits, int abits) {
    PrecisionPlan p;
    p.weight_bits = wbits;
    p.act_bits = abits;
    return p;
  }
  static PrecisionPlan hawq_mixed(MixedPrecisionConfig mixed = {},
                                  int abits = 9) {
    PrecisionPlan p;
    p.mode = PrecisionMode::kHawqMixed;
    p.mixed = mixed;
    p.act_bits = abits;
    return p;
  }
};

/// Evolutionary refinement (CompiledModel::search()).
struct SearchConfig {
  /// search() throws unless enabled; validate() requires a positive crossbar
  /// budget when enabled (Eq. 7's feasibility mask is meaningless without
  /// one).
  bool enabled = false;
  /// Algorithm-1 parameters. `evo.precision` is ignored: the pipeline always
  /// searches at the precision its own plan resolves to.
  EvoSearchConfig evo{};
};

/// Bit-accurate on-chip deployment of a trained SmallEpitomeNet.
struct DeployConfig {
  /// Weight/activation bits programmed on chip. 0 means "derive": the
  /// precision plan's bits under kUniform, else the runtime's historical
  /// W6A8 defaults (a per-layer mixed plan for an ImageNet-scale network
  /// does not transfer to the small deployed CNN).
  int weight_bits = 0;
  int act_bits = 0;
  /// Clipping percentile for activation calibration (1.0 = min/max).
  double act_percentile = 1.0;
  /// Memristor write variation / stuck-at faults applied at program time.
  NonIdealityConfig non_ideal{};
};

/// Continuous-batching policy of an InferenceService (serve/service.hpp).
/// Requests queue until either `max_batch` of them are pending or the oldest
/// has waited `flush_deadline_ms`; a free worker then closes the batch and
/// runs it (fanning out across the shared thread pool) while the remaining
/// workers keep draining the queue, so with `workers > 1` several batches
/// are in flight at once and batch formation overlaps execution. Results
/// are bit-identical to unbatched evaluation at any batch size, worker
/// count or thread count -- scheduling only changes throughput, latency and
/// completion order.
struct ServeConfig {
  /// Largest batch one flush executes (must be positive).
  int max_batch = 32;
  /// Longest a queued request waits for batch-mates, in milliseconds (must
  /// be positive; the latency price of throughput).
  double flush_deadline_ms = 2.0;
  /// Batch-closing worker threads (validated against the compute pool's
  /// detail::kMaxThreads ceiling, currently 256). Each worker pulls
  /// a batch off the queue and runs it to completion; with more than one,
  /// a long batch no longer head-of-line-blocks the queue behind it.
  /// Workers only *initiate* compute -- the arithmetic itself fans out
  /// across the one process-wide `common/parallel` pool, so this knob buys
  /// overlap (batching latency hidden behind compute, multiple in-flight
  /// batches), not extra compute threads.
  int workers = 1;
  /// Admission bound: largest number of requests allowed to sit queued
  /// (not yet flushed into a batch). A submission that would exceed it is
  /// rejected with epim::Unavailable instead of growing the queue -- the
  /// backpressure a multi-model registry relies on. 0 = unbounded (the
  /// historical single-service behaviour). A reslice-eligible burst (see
  /// reslice_bursts) is admitted against max_queue + max_workers*max_batch
  /// instead: its slices go straight to the worker pool rather than sitting
  /// queued, and the whole burst is counted ONCE at submit so concurrent
  /// slices can never double-reject.
  int max_queue = 0;
  /// Adaptive-pool ceiling: the worker pool grows one thread at a time from
  /// `workers` up to this bound while queued requests exceed what the idle
  /// workers can absorb (queued > idle * max_batch), and shrinks back --
  /// never below `workers` -- as extra workers sit idle. 0 (the default)
  /// means max_workers == workers: a fixed pool, the historical behaviour.
  int max_workers = 0;
  /// When true (the default), a submit_batch burst larger than max_batch is
  /// re-sliced: enqueued whole, then closed as ceil(queued/idle-workers)
  /// slices by concurrent workers instead of draining as serial max_batch
  /// chunks on one. Results are unchanged (bit-identity invariant); only
  /// completion order and latency move. When false, bursts drain serially
  /// and admission reverts to the strict max_queue bound.
  bool reslice_bursts = true;
};

/// Which EvaluationBackend Pipeline constructs by default.
enum class BackendKind {
  kAnalytical,  ///< behaviour-level estimator + accuracy projection
  kDatapath,    ///< analytical costs cross-checked against the functional
                ///< IFAT/IFRT/OFAT datapath's activity counters
};

/// Validates one design policy group (also used by Pipeline::compile's
/// per-call design overrides); throws InvalidArgument.
void validate_design(const DesignConfig& design);

/// Validates one serving policy group (also used by InferenceService and
/// the model registry, which accept standalone ServeConfigs); throws
/// InvalidArgument.
void validate_serve(const ServeConfig& serve);

/// The aggregate. One PipelineConfig fully determines a Pipeline.
struct PipelineConfig {
  HardwareConfig hardware{};
  DesignConfig design{};
  PrecisionPlan precision{};
  /// Epitome-aware quantization scheme used for noise measurement and
  /// accuracy projection (paper Sec. 4.2).
  QuantConfig quant{};
  SearchConfig search{};
  DeployConfig deploy{};
  ServeConfig serve{};
  /// Accuracy anchors of the target model family (paper FP32 points).
  AccuracyAnchors anchors = AccuracyAnchors::resnet50();
  BackendKind backend = BackendKind::kAnalytical;
  /// Seed for the synthetic weight draws of noise measurement; matches
  /// EpimSimulator::evaluate's default so façade estimates are bit-identical
  /// to hand-wired ones.
  std::uint64_t seed = 0x51D'E57u;

  /// Deployment bits after applying the DeployConfig derivation rule.
  int resolved_deploy_weight_bits() const;
  int resolved_deploy_act_bits() const;

  /// Throws InvalidArgument on any inconsistent or out-of-range setting
  /// (e.g. weight bits whose cell slices exceed one crossbar's columns, or
  /// search enabled with no crossbar budget).
  void validate() const;
};

}  // namespace epim
