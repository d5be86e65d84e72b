// Bit-accurate execution of a *trained* model on the simulated PIM chip.
//
// This is the deployment leg of the repo: it takes a trained
// SmallEpitomeNet, quantizes weights per output channel (symmetric signed,
// crossbar-programmable) and activations per site (unsigned, calibrated on
// a calibration set), programs the epitome weights onto functional
// CrossbarArrays -- optionally with device non-idealities -- and runs
// inference entirely through the IFAT/IFRT/OFAT engine, with digital
// per-channel dequantization, folded-BatchNorm affine, ReLU, pooling and the
// float classifier head.
//
// Because every MAC goes through the bit-sliced crossbar model, the
// accuracy this runtime measures is the accuracy the simulated chip would
// deliver -- the quantity behind the paper's "deployed" numbers.
//
// evaluate() fans images out across threads (see common/parallel.hpp); every
// image's forward pass is pure against the programmed crossbars and scratch
// state lives in per-chunk workspaces, so accuracy and clip counts are
// bit-identical at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "datapath/pim_engine.hpp"
#include "pim/crossbar.hpp"
#include "quant/activation_quant.hpp"
#include "train/dataset.hpp"
#include "train/small_net.hpp"

namespace epim {

struct RuntimeConfig {
  int weight_bits = 6;
  int act_bits = 8;
  /// Clipping percentile for activation calibration (1.0 = min/max).
  double act_percentile = 1.0;
  /// Crossbar geometry/precision the model is programmed onto. Note the
  /// default `adc_bits` (9) is the estimator's cost-model regime; the
  /// bit-accurate runtime usually needs a wider ADC to digitize a full
  /// column of partial sums without clipping. The Pipeline façade derives
  /// this from HardwareConfig::deploy_adc_bits (default 12); set it
  /// explicitly when constructing a RuntimeConfig by hand.
  CrossbarConfig crossbar{};
  NonIdealityConfig non_ideal{};
};

class PimNetworkRuntime {
 public:
  /// Calibrated input quantizers of the three on-chip blocks, in block
  /// order -- the state the activation-calibration pass produces and a
  /// deploy artifact persists.
  using ActivationParams = std::array<QuantParams, 3>;

  /// Compile the trained model: quantize, calibrate on `calibration`
  /// (forwarding it through the float model to observe activation ranges),
  /// and program the crossbars.
  PimNetworkRuntime(const SmallEpitomeNet& model, const Dataset& calibration,
                    RuntimeConfig config);

  /// Restore path (artifact load): rebuild from a deploy snapshot plus
  /// already-calibrated activation quantizers -- no calibration set needed.
  /// Weight quantization and crossbar programming are deterministic (the
  /// non-ideality RNG replays from config.non_ideal.seed), so the restored
  /// runtime is bit-identical to the one the snapshot was taken from.
  PimNetworkRuntime(SmallEpitomeNet::Deploy deploy,
                    const ActivationParams& act_params, RuntimeConfig config);

  const RuntimeConfig& config() const { return config_; }

  /// The float-side model state this runtime was compiled from (what a
  /// deploy artifact persists alongside config() and activation_params()).
  const SmallEpitomeNet::Deploy& deploy_state() const { return deploy_; }

  /// The calibrated input quantizers, block1..3.
  ActivationParams activation_params() const;

  /// Crossbars programmed across all on-chip layers.
  std::int64_t total_crossbars() const;

  /// Run one (C, H, W) image fully on the simulated chip; returns logits.
  /// The image's ADC clip events are stored (set, not accumulated) in
  /// *clips when it is non-null. Pure against the programmed crossbars, so
  /// concurrent callers sharing one runtime never race.
  Tensor forward(const Tensor& image, std::int64_t* clips = nullptr) const;

  /// Run a batch of (C, H, W) images, fanning out across the shared thread
  /// pool with per-chunk workspaces. logits[i] is bit-identical to
  /// forward(images[i]) at any batch size and thread count; when
  /// `per_image_clips` is non-null it receives one clip count per image.
  std::vector<Tensor> forward_batch(
      const std::vector<Tensor>& images,
      std::vector<std::int64_t>* per_image_clips = nullptr) const;

  /// Top-1 accuracy over a dataset, everything executed on-chip. Images are
  /// evaluated in parallel; the result is thread-count independent. The
  /// ADC clip events summed over the dataset are stored in *clips when it
  /// is non-null.
  double evaluate(const Dataset& dataset,
                  std::int64_t* clips = nullptr) const;

 private:
  struct CompiledBlock {
    ConvLayerInfo layer;
    std::unique_ptr<PimLayerEngine> engine;
    std::vector<double> weight_scale;  ///< per output channel
    /// Fully-resolved dequantization factor per output channel:
    /// act_in.scale * weight_scale[co % cout_e], hoisted out of run_block's
    /// pixel loops.
    std::vector<double> dequant;
    ChannelAffine bn;
    QuantParams act_in;  ///< quantizer for this block's input activations
  };

  /// Reusable per-thread scratch for one forward pass (quantized input
  /// codes); avoids reallocating the integer images for every block of
  /// every image.
  struct Workspace {
    IntImage pos, neg;
  };

  /// Quantize an epitome's weights per output channel and build the engine.
  CompiledBlock compile_block(const Epitome& epitome, const ChannelAffine& bn,
                              std::int64_t ifm, const std::string& name);

  /// Shared tail of both constructors: compile the three blocks, install the
  /// activation quantizers and hoist the per-channel dequant factors.
  void compile_network(const ActivationParams& act_params);

  /// Pure against the compiled model: all mutable state is in `ws`/`clips`.
  Tensor run_block(const CompiledBlock& block, const Tensor& input,
                   Workspace& ws, std::int64_t& clips) const;
  Tensor forward_impl(const Tensor& image, Workspace& ws,
                      std::int64_t& clips) const;

  RuntimeConfig config_;
  SmallEpitomeNet::Deploy deploy_;
  std::vector<CompiledBlock> blocks_;  // block1..3 in order
};

}  // namespace epim
