// A NetworkAssignment binds one epitome choice (or "keep the convolution")
// to every weighted layer of a Network. It is the genome manipulated by the
// evolutionary search and the unit the simulator evaluates.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/designer.hpp"
#include "core/epitome.hpp"
#include "core/sample_plan.hpp"
#include "nn/network.hpp"

namespace epim {

class NetworkAssignment {
 public:
  /// All layers keep their convolution (the ResNet baseline).
  static NetworkAssignment baseline(const Network& net);

  /// Apply a uniform design policy to every weighted layer.
  static NetworkAssignment uniform(const Network& net,
                                   const UniformDesign& policy);

  /// Build from an explicit per-layer choice vector (size must equal the
  /// number of weighted layers; each spec must be compatible).
  NetworkAssignment(const Network& net,
                    std::vector<std::optional<EpitomeSpec>> choices);

  const Network& network() const { return *net_; }
  std::int64_t num_layers() const {
    return static_cast<std::int64_t>(choices_.size());
  }

  const std::optional<EpitomeSpec>& choice(std::int64_t layer) const;
  void set_choice(std::int64_t layer, std::optional<EpitomeSpec> spec);

  /// The weighted layer specs (convs + fc) the choices refer to.
  const std::vector<ConvLayerInfo>& layers() const { return layers_; }

  /// A He-initialized probe of one layer's weights: its assigned epitome,
  /// or the degenerate (conv-sized) epitome when it keeps its convolution.
  Epitome random_epitome(std::int64_t layer, Rng& rng) const;

  /// Enable/disable output channel wrapping on every epitome layer.
  void set_wrap_output(bool wrap);

  /// Parameters with this assignment (epitome params where assigned,
  /// conv params elsewhere).
  std::int64_t total_weights() const;

  /// Parameter compression rate vs the all-convolution baseline.
  double parameter_compression() const;

  /// Number of layers that use an epitome.
  std::int64_t num_epitome_layers() const;

 private:
  const Network* net_ = nullptr;
  std::vector<ConvLayerInfo> layers_;
  std::vector<std::optional<EpitomeSpec>> choices_;
};

}  // namespace epim
