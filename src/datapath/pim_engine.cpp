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

  // The gather plan: everything about a round that does not depend on the
  // output position. IFRT index idx = (segment channel * kh + ky) * kw + kx.
  const ConvSpec& conv = layer_.conv;
  const std::int64_t khw = conv.kernel_h * conv.kernel_w;
  const std::int64_t plane = layer_.ifm_h * layer_.ifm_w;
  rounds_.reserve(tables_.ifat().size());
  for (const IfatEntry& fa : tables_.ifat()) {
    const IfrtSequence& seq =
        tables_.ifrt()[static_cast<std::size_t>(fa.round)];
    RoundPlan& rp = rounds_.emplace_back(
        RoundPlan{fa.round, tables_.co_len(fa.round), {}});
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const Tile& tile = tiles_[t];
      if (tile.col_begin >= rp.co_len) continue;
      TileRound tr{t, std::min(tile.col_count, rp.co_len - tile.col_begin),
                   {}, {}, {}, {}};
      for (std::int64_t r = 0; r < tile.row_count; ++r) {
        const std::int32_t idx =
            seq.row_to_input[static_cast<std::size_t>(tile.row_begin + r)];
        if (idx == IfrtSequence::kInactiveRow) continue;
        const std::int64_t ci = fa.ci_start + idx / khw;
        const std::int64_t ky = (idx % khw) / conv.kernel_w;
        const std::int64_t kx = idx % conv.kernel_w;
        tr.rows.push_back(static_cast<std::int32_t>(r));
        tr.offset.push_back(ci * plane + ky * layer_.ifm_w + kx);
        tr.ky.push_back(static_cast<std::int32_t>(ky));
        tr.kx.push_back(static_cast<std::int32_t>(kx));
      }
      if (!tr.rows.empty()) rp.tiles.push_back(std::move(tr));
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

  IntOutput out;
  out.channels = conv.out_channels;
  out.height = oh;
  out.width = ow;
  out.data.assign(static_cast<std::size_t>(conv.out_channels * oh * ow), 0);

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
    // Inputs indexed by tile-local row; only a round's active rows are
    // written, and only those are read by the kernel.
    std::vector<std::uint32_t> in(static_cast<std::size_t>(config_.rows));
    std::vector<std::int64_t> res(static_cast<std::size_t>(config_.cols));
    std::int64_t& clips = chunk_clips[static_cast<std::size_t>(chunk)];
    const std::uint32_t* data = input.data.data();

    for (std::int64_t pos = begin; pos < end; ++pos) {
      // Top-left input coordinate of the receptive field, and whether the
      // whole kh x kw window lies inside the image (no padding read).
      const std::int64_t iy0 = (pos / ow) * conv.stride - conv.pad;
      const std::int64_t ix0 = (pos % ow) * conv.stride - conv.pad;
      const bool interior = iy0 >= 0 && ix0 >= 0 &&
                            iy0 + conv.kernel_h <= input.height &&
                            ix0 + conv.kernel_w <= input.width;
      const std::int64_t base = iy0 * input.width + ix0;
      // Crossbar activation rounds.
      for (const RoundPlan& rp : rounds_) {
        auto& partial = partials[static_cast<std::size_t>(rp.round)];
        partial.assign(static_cast<std::size_t>(rp.co_len), 0);
        for (const TileRound& tr : rp.tiles) {
          const std::size_t n = tr.rows.size();
          if (interior) {
            const std::uint32_t* src = data + base;
            for (std::size_t k = 0; k < n; ++k) {
              in[static_cast<std::size_t>(tr.rows[k])] = src[tr.offset[k]];
            }
          } else {
            for (std::size_t k = 0; k < n; ++k) {
              const std::int64_t iy = iy0 + tr.ky[k];
              const std::int64_t ix = ix0 + tr.kx[k];
              in[static_cast<std::size_t>(tr.rows[k])] =
                  iy >= 0 && iy < input.height && ix >= 0 && ix < input.width
                      ? data[base + tr.offset[k]]
                      : 0u;
            }
          }
          const Tile& tile = tiles_[tr.tile];
          const std::span<const std::uint32_t> tile_in(
              in.data(), static_cast<std::size_t>(tile.row_count));
          tile.array.mvm(tile_in, tr.rows, act_bits, res.data(), &clips);
          for (std::int64_t c = 0; c < tr.cols; ++c) {
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
