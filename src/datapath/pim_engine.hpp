// Crossbar-backed execution of an epitome layer.
//
// Where DatapathSimulator models the datapath with float arithmetic, this
// engine runs the same schedule on the functional CrossbarArray model:
// quantized integer epitome weights are programmed (once) into a grid of
// bit-sliced crossbars; each activation round drives the IFRT-selected word
// lines bit-serially and digitizes column currents through the shared ADCs.
// With adequate ADC resolution the result is bit-exact with the integer
// reference convolution -- the end-to-end hardware-correctness test of the
// repo -- and with a starved ADC it exhibits realistic clipping error.
//
// Like the hardware, whose IFAT/IFRT tables are fixed once the epitome is
// mapped, the engine resolves every round's word lines when it is built:
// per round and tile, the tile-local active rows (ascending) and each row's
// input offset ci*H*W + ky*W + kx. run() then only adds an output
// position's base address -- unchecked for interior positions, with a
// bounds check per row only where the window overlaps the zero padding --
// and hands the row list straight to the crossbar's span kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sample_plan.hpp"
#include "datapath/index_tables.hpp"
#include "nn/layer.hpp"
#include "pim/crossbar.hpp"

namespace epim {

/// Integer image, NCHW single sample: data[(c*h + y)*w + x].
struct IntImage {
  std::int64_t channels = 0, height = 0, width = 0;
  std::vector<std::uint32_t> data;

  std::int64_t numel() const { return channels * height * width; }
};

/// Integer output accumulators, same layout as IntImage but signed 64-bit.
struct IntOutput {
  std::int64_t channels = 0, height = 0, width = 0;
  std::vector<std::int64_t> data;
};

class PimLayerEngine {
 public:
  /// `weights` is the logical epitome weight matrix: weights[row][col] with
  /// row = word line (e_ci * p + py) * q + qx and col = epitome output
  /// channel, as signed weight_bits-bit integers. Non-idealities, if any,
  /// perturb every programmed crossbar (write variation / hard faults).
  PimLayerEngine(ConvLayerInfo layer, EpitomeSpec spec,
                 const std::vector<std::vector<int>>& weights, int weight_bits,
                 const CrossbarConfig& config,
                 const NonIdealityConfig& non_ideal = {});

  /// Number of crossbar tiles programmed.
  std::int64_t num_crossbars() const {
    return static_cast<std::int64_t>(tiles_.size());
  }

  const EpitomeSpec& spec() const { return plan_.spec(); }
  const ConvLayerInfo& layer() const { return layer_; }

  /// Run the layer; activations must each fit in act_bits (unsigned).
  /// Output positions are processed in parallel (deterministically: every
  /// position writes disjoint output cells).
  /// ADC clip events (0 means bit-exact) are accumulated into *clip_count
  /// when it is non-null.
  IntOutput run(const IntImage& input, int act_bits,
                std::int64_t* clip_count = nullptr) const;

 private:
  struct Tile {
    CrossbarArray array;
    std::int64_t row_begin, row_count;
    std::int64_t col_begin, col_count;
  };

  /// One tile's share of one round, resolved at build time. Tiles whose
  /// rows are all inactive in the round, or whose columns start past the
  /// round's output width, have no entry.
  struct TileRound {
    std::size_t tile;   ///< index into tiles_
    std::int64_t cols;  ///< output columns the tile adds to the round
    std::vector<std::int32_t> rows;     ///< tile-local active word lines
    std::vector<std::int64_t> offset;   ///< per row: ci*H*W + ky*W + kx
    std::vector<std::int32_t> ky, kx;   ///< per row: for the border check
  };

  /// One IFAT round: its output width and the tiles it drives, in tile
  /// order (the order the partial sums were always accumulated in).
  struct RoundPlan {
    std::int64_t round;
    std::int64_t co_len;
    std::vector<TileRound> tiles;
  };

  ConvLayerInfo layer_;
  SamplePlan plan_;
  IndexTables tables_;
  CrossbarConfig config_;
  std::vector<Tile> tiles_;
  std::vector<RoundPlan> rounds_;  ///< one per IFAT entry, in IFAT order
};

}  // namespace epim
