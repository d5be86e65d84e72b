#include "datapath/datapath_sim.hpp"

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace epim {

DatapathSimulator::DatapathSimulator(ConvLayerInfo layer, Epitome epitome)
    : layer_(std::move(layer)),
      epitome_(std::move(epitome)),
      tables_(epitome_.plan()) {
  EPIM_CHECK(layer_.conv == epitome_.conv(),
             "layer conv spec must match the epitome's target convolution");
}

Tensor DatapathSimulator::run(const Tensor& input) {
  const ConvSpec& conv = layer_.conv;
  EPIM_CHECK(input.rank() == 3 && input.dim(0) == conv.in_channels &&
                 input.dim(1) == layer_.ifm_h && input.dim(2) == layer_.ifm_w,
             "input does not match layer spec");
  stats_ = DatapathStats{};
  const EpitomeSpec& spec = epitome_.spec();
  const std::int64_t oh = layer_.ofm_h();
  const std::int64_t ow = layer_.ofm_w();
  const std::int64_t khw = conv.kernel_h * conv.kernel_w;
  // The address controller's sliding-window gather, done once per position.
  const Tensor cols = im2col(input, conv.kernel_h, conv.kernel_w, conv.stride,
                             conv.pad);  // (oh*ow, cin*kh*kw)
  Tensor out({conv.out_channels, oh, ow});
  const float* wdata = epitome_.weights().data();
  const std::int64_t wpq = spec.p * spec.q;
  const std::int64_t wstride_co = spec.cin_e * wpq;

  std::vector<std::vector<float>> partials(
      static_cast<std::size_t>(epitome_.plan().active_rounds()));

  for (std::int64_t pos = 0; pos < oh * ow; ++pos) {
    const float* seg_base = cols.data() + pos * conv.in_channels * khw;
    // Phase 1: all crossbar activation rounds for this position.
    for (const IfatEntry& fa : tables_.ifat()) {
      const IfrtSequence& seq =
          tables_.ifrt()[static_cast<std::size_t>(fa.round)];
      const std::int64_t ci_len = fa.ci_stop - fa.ci_start;
      // IFAT positions the segment: channels [ci_start, ci_stop) of the
      // gathered window, laid out (channel, ky, kx).
      const float* seg = seg_base + fa.ci_start * khw;
      stats_.buffer_reads += ci_len * khw;
      stats_.table_lookups += 2;  // IFAT entry + IFRT sequence fetch
      const std::int64_t co_len = tables_.co_len(fa.round);
      auto& partial = partials[static_cast<std::size_t>(fa.round)];
      partial.assign(static_cast<std::size_t>(co_len), 0.0f);
      // Word lines with IFRT == inactive stay at zero volts; active ones
      // carry the steered input element. Each bit line j integrates the
      // products with its column of epitome weights.
      const auto& row_map = seq.row_to_input;
      for (std::int64_t wl = 0;
           wl < static_cast<std::int64_t>(row_map.size()); ++wl) {
        const std::int32_t in_idx = row_map[static_cast<std::size_t>(wl)];
        if (in_idx == IfrtSequence::kInactiveRow) continue;
        const float x = seg[in_idx];
        if (x == 0.0f) continue;
        // wl = (e_ci * p + py) * q + qx maps straight into the epitome
        // weight tensor (cout_e, cin_e, p, q).
        for (std::int64_t j = 0; j < co_len; ++j) {
          partial[static_cast<std::size_t>(j)] +=
              x * wdata[j * wstride_co + wl];
        }
      }
      stats_.crossbar_rounds += 1;
    }
    // Phase 2: the joint module merges rounds into the output buffer.
    for (const OfatEntry& oe : tables_.ofat()) {
      const std::int64_t co_len = oe.co_stop - oe.co_start;
      const std::vector<float>& src =
          partials[static_cast<std::size_t>(
              oe.replica_of >= 0 ? oe.replica_of : oe.round)];
      EPIM_ASSERT(static_cast<std::int64_t>(src.size()) >= co_len,
                  "joint module source narrower than OFAT span");
      stats_.table_lookups += 1;
      if (oe.replica_of >= 0) stats_.replica_copies += 1;
      for (std::int64_t j = 0; j < co_len; ++j) {
        float& cell = out.at((oe.co_start + j) * oh * ow + pos);
        if (oe.accumulate) {
          cell += src[static_cast<std::size_t>(j)];
          stats_.joint_adds += 1;
        } else {
          cell = src[static_cast<std::size_t>(j)];
        }
        stats_.buffer_writes += 1;
      }
    }
  }
  return out;
}

}  // namespace epim
