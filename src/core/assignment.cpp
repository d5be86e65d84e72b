#include "core/assignment.hpp"

#include "common/check.hpp"

namespace epim {

NetworkAssignment NetworkAssignment::baseline(const Network& net) {
  std::vector<std::optional<EpitomeSpec>> choices(
      net.weighted_layers().size());
  return NetworkAssignment(net, std::move(choices));
}

NetworkAssignment NetworkAssignment::uniform(const Network& net,
                                             const UniformDesign& policy) {
  std::vector<std::optional<EpitomeSpec>> choices;
  for (const auto& layer : net.weighted_layers()) {
    choices.push_back(design_uniform(layer.conv, policy));
  }
  return NetworkAssignment(net, std::move(choices));
}

NetworkAssignment::NetworkAssignment(
    const Network& net, std::vector<std::optional<EpitomeSpec>> choices)
    : net_(&net), layers_(net.weighted_layers()), choices_(std::move(choices)) {
  EPIM_CHECK(choices_.size() == layers_.size(),
             "one choice per weighted layer required");
  for (std::size_t i = 0; i < choices_.size(); ++i) {
    if (choices_[i].has_value()) {
      EPIM_CHECK(choices_[i]->compatible_with(layers_[i].conv),
                 "epitome choice incompatible with layer " + layers_[i].name);
    }
  }
}

const std::optional<EpitomeSpec>& NetworkAssignment::choice(
    std::int64_t layer) const {
  EPIM_CHECK(layer >= 0 && layer < num_layers(), "layer index out of range");
  return choices_[static_cast<std::size_t>(layer)];
}

Epitome NetworkAssignment::random_epitome(std::int64_t layer,
                                          Rng& rng) const {
  const ConvSpec& conv = layers_[static_cast<std::size_t>(layer)].conv;
  const std::optional<EpitomeSpec>& spec = choice(layer);
  return Epitome::random(spec.has_value()
                             ? *spec
                             : EpitomeSpec{conv.kernel_h, conv.kernel_w,
                                           conv.in_channels,
                                           conv.out_channels, 1, false},
                         conv, rng);
}

void NetworkAssignment::set_choice(std::int64_t layer,
                                   std::optional<EpitomeSpec> spec) {
  EPIM_CHECK(layer >= 0 && layer < num_layers(), "layer index out of range");
  if (spec.has_value()) {
    EPIM_CHECK(
        spec->compatible_with(layers_[static_cast<std::size_t>(layer)].conv),
        "epitome choice incompatible with layer");
  }
  choices_[static_cast<std::size_t>(layer)] = std::move(spec);
}

void NetworkAssignment::set_wrap_output(bool wrap) {
  for (auto& c : choices_) {
    if (c.has_value()) c->wrap_output = wrap;
  }
}

std::int64_t NetworkAssignment::total_weights() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < choices_.size(); ++i) {
    total += choices_[i].has_value() ? choices_[i]->weight_count()
                                     : layers_[i].conv.weight_count();
  }
  return total;
}

double NetworkAssignment::parameter_compression() const {
  std::int64_t base = 0;
  for (const auto& l : layers_) base += l.conv.weight_count();
  return static_cast<double>(base) / static_cast<double>(total_weights());
}

std::int64_t NetworkAssignment::num_epitome_layers() const {
  std::int64_t n = 0;
  for (const auto& c : choices_) n += c.has_value() ? 1 : 0;
  return n;
}

}  // namespace epim
