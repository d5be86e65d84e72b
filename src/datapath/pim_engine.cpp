#include "datapath/pim_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/parallel.hpp"

namespace epim {

PimLayerEngine::PimLayerEngine(ConvLayerInfo layer, EpitomeSpec spec,
                               const std::vector<std::vector<int>>& weights,
                               int weight_bits, const CrossbarConfig& config,
                               const NonIdealityConfig& non_ideal)
    : layer_(std::move(layer)),
      plan_(spec, layer_.conv),
      tables_(plan_),
      config_(config) {
  const std::int64_t rows = spec.rows();
  const std::int64_t cols = spec.cout_e;
  EPIM_CHECK(static_cast<std::int64_t>(weights.size()) == rows,
             "weight matrix rows must equal epitome word lines");
  const std::int64_t slices = config.weight_slices(weight_bits);
  const std::int64_t cols_per_tile =
      std::max<std::int64_t>(1, config.cols / slices);
  // Tile the logical matrix over crossbars: rows in chunks of config.rows,
  // logical columns in chunks that keep all of a weight's slices on one
  // crossbar.
  for (std::int64_t r0 = 0; r0 < rows; r0 += config.rows) {
    const std::int64_t rc = std::min(config.rows, rows - r0);
    for (std::int64_t c0 = 0; c0 < cols; c0 += cols_per_tile) {
      const std::int64_t cc = std::min(cols_per_tile, cols - c0);
      std::vector<std::vector<int>> block(
          static_cast<std::size_t>(rc),
          std::vector<int>(static_cast<std::size_t>(cc)));
      for (std::int64_t r = 0; r < rc; ++r) {
        for (std::int64_t c = 0; c < cc; ++c) {
          block[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
              weights[static_cast<std::size_t>(r0 + r)]
                     [static_cast<std::size_t>(c0 + c)];
        }
      }
      // Each tile gets a distinct fault/variation draw.
      NonIdealityConfig tile_ni = non_ideal;
      tile_ni.seed = non_ideal.seed + static_cast<std::uint64_t>(
                                          tiles_.size() * 0x9E37'79B9u);
      tiles_.push_back(Tile{CrossbarArray(config, weight_bits, block,
                                          tile_ni),
                            r0, rc, c0, cc});
    }
  }
}

IntOutput PimLayerEngine::run(const IntImage& input, int act_bits,
                              std::int64_t* clip_count) const {
  const ConvSpec& conv = layer_.conv;
  EPIM_CHECK(input.channels == conv.in_channels &&
                 input.height == layer_.ifm_h && input.width == layer_.ifm_w,
             "input image does not match layer spec");
  EPIM_CHECK(static_cast<std::int64_t>(input.data.size()) == input.numel(),
             "input data size mismatch");
  const std::int64_t oh = layer_.ofm_h();
  const std::int64_t ow = layer_.ofm_w();
  const std::int64_t rows = tables_.epitome_rows();

  IntOutput out;
  out.channels = conv.out_channels;
  out.height = oh;
  out.width = ow;
  out.data.assign(static_cast<std::size_t>(conv.out_channels * oh * ow), 0);

  // Per-round output widths, invariant across positions (first primary OFAT
  // entry of each round, as in the per-position scan this hoists).
  std::vector<std::int64_t> round_co_len(
      static_cast<std::size_t>(plan_.active_rounds()), 0);
  std::vector<bool> round_seen(round_co_len.size(), false);
  for (const OfatEntry& oe : tables_.ofat()) {
    if (oe.replica_of < 0 && !round_seen[static_cast<std::size_t>(oe.round)]) {
      round_seen[static_cast<std::size_t>(oe.round)] = true;
      round_co_len[static_cast<std::size_t>(oe.round)] =
          oe.co_stop - oe.co_start;
    }
  }

  // Output positions fan out across threads. Every position writes a
  // disjoint set of out.data cells and the per-position work is pure, so
  // the result is identical at any thread count; clip events accumulate per
  // chunk and sum exactly. Scratch buffers live per chunk, allocated once
  // and reused across all of the chunk's positions.
  const std::int64_t positions = oh * ow;
  const int chunks = std::max(num_chunks(positions), 1);
  std::vector<std::int64_t> chunk_clips(static_cast<std::size_t>(chunks), 0);
  parallel_for_chunks(positions, chunks, [&](int chunk, std::int64_t begin,
                                             std::int64_t end) {
    std::vector<std::vector<std::int64_t>> partials(
        static_cast<std::size_t>(plan_.active_rounds()));
    std::vector<std::uint32_t> line_value(static_cast<std::size_t>(rows));
    std::vector<bool> line_enable(static_cast<std::size_t>(rows));
    std::vector<std::uint32_t> in;
    std::vector<bool> en;
    std::vector<std::int64_t> res;
    std::int64_t& clips = chunk_clips[static_cast<std::size_t>(chunk)];

    for (std::int64_t pos = begin; pos < end; ++pos) {
      const std::int64_t oy = pos / ow;
      const std::int64_t ox = pos % ow;
      // Crossbar activation rounds.
      for (const IfatEntry& fa : tables_.ifat()) {
        const IfrtSequence& seq =
            tables_.ifrt()[static_cast<std::size_t>(fa.round)];
        std::fill(line_value.begin(), line_value.end(), 0u);
        std::fill(line_enable.begin(), line_enable.end(), false);
        for (std::int64_t wl = 0; wl < rows; ++wl) {
          const std::int32_t idx =
              seq.row_to_input[static_cast<std::size_t>(wl)];
          if (idx == IfrtSequence::kInactiveRow) continue;
          // idx = (segment channel * kh + ky) * kw + kx.
          const std::int64_t khw = conv.kernel_h * conv.kernel_w;
          const std::int64_t ci = fa.ci_start + idx / khw;
          const std::int64_t ky = (idx % khw) / conv.kernel_w;
          const std::int64_t kx = idx % conv.kernel_w;
          const std::int64_t iy = oy * conv.stride + ky - conv.pad;
          const std::int64_t ix = ox * conv.stride + kx - conv.pad;
          std::uint32_t v = 0;
          if (iy >= 0 && iy < input.height && ix >= 0 && ix < input.width) {
            v = input.data[static_cast<std::size_t>(
                (ci * input.height + iy) * input.width + ix)];
          }
          line_value[static_cast<std::size_t>(wl)] = v;
          line_enable[static_cast<std::size_t>(wl)] = true;
        }
        const std::int64_t co_len =
            round_co_len[static_cast<std::size_t>(fa.round)];
        auto& partial = partials[static_cast<std::size_t>(fa.round)];
        partial.assign(static_cast<std::size_t>(co_len), 0);
        for (const Tile& tile : tiles_) {
          if (tile.col_begin >= co_len) continue;
          in.assign(static_cast<std::size_t>(tile.row_count), 0u);
          en.assign(static_cast<std::size_t>(tile.row_count), false);
          bool any = false;
          for (std::int64_t r = 0; r < tile.row_count; ++r) {
            in[static_cast<std::size_t>(r)] =
                line_value[static_cast<std::size_t>(tile.row_begin + r)];
            const bool e =
                line_enable[static_cast<std::size_t>(tile.row_begin + r)];
            en[static_cast<std::size_t>(r)] = e;
            any = any || e;
          }
          if (!any) continue;
          tile.array.mvm(in, en, act_bits, res, &clips);
          const std::int64_t cc = std::min(tile.col_count,
                                           co_len - tile.col_begin);
          for (std::int64_t c = 0; c < cc; ++c) {
            partial[static_cast<std::size_t>(tile.col_begin + c)] +=
                res[static_cast<std::size_t>(c)];
          }
        }
      }
      // Joint module / OFAT merge.
      for (const OfatEntry& oe : tables_.ofat()) {
        const std::int64_t co_len = oe.co_stop - oe.co_start;
        const auto& src = partials[static_cast<std::size_t>(
            oe.replica_of >= 0 ? oe.replica_of : oe.round)];
        for (std::int64_t j = 0; j < co_len; ++j) {
          std::int64_t& cell = out.data[static_cast<std::size_t>(
              (oe.co_start + j) * oh * ow + pos)];
          const std::int64_t v = src[static_cast<std::size_t>(j)];
          cell = oe.accumulate ? cell + v : v;
        }
      }
    }
  });
  if (clip_count != nullptr) {
    for (const std::int64_t c : chunk_clips) *clip_count += c;
  }
  return out;
}

}  // namespace epim
