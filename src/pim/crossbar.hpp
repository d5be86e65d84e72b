// Functional (bit-accurate) memristor crossbar model.
//
// The estimator (estimator.hpp) predicts latency/energy analytically; this
// class models the *values*: integer weights are programmed into 2^cell_bits-
// level cells across bit slices (offset binary encoding so negative weights
// fit on non-negative conductances), inputs are streamed bit-serially, column
// currents are digitized by an ADC of finite resolution, and shift-add logic
// recombines slices and input bits. With sufficient ADC resolution the result
// is exactly the integer matrix-vector product -- a property the test suite
// verifies -- and with a starved ADC it degrades, which the ablation bench
// sweeps.
//
// Storage is one contiguous buffer walked with pointer arithmetic. The
// kernel takes its row gating as a span of active word lines (ascending)
// next to a span of inputs indexed by row, so a caller that knows its IFRT
// pattern ahead of time (PimLayerEngine builds it once per layer) never
// materializes a mask; the vector<bool> overloads build that list and call
// the same kernel. Each array keeps only the weight copy its regime reads,
// chosen once at construction:
//  * ideal arrays whose ADC cannot clip for any input keep the signed
//    weights and collapse the whole bit-serial schedule into one int64 dot
//    product per column (the direct path);
//  * every other array keeps its cell levels, each word line's slices side
//    by side, and runs the one bit-serial loop, which digitizes each
//    (input bit, slice) column current through the saturating ADC. Ideal
//    levels are small integers, exact in double, so an ideal array that can
//    clip gets exact sums and exact clip counts.
// The direct path is bit-identical to the bit-serial loop on ideal arrays.
//
// The bit-serial loop sums the rows lit in each cycle in ascending row
// order, a block of columns at a time in vector registers, and rounds each
// current inline and without branches (clamp to adc_max + 1, truncate, add
// one if the fraction is at least one half: exactly std::llround). It is
// compiled twice from one body, for the baseline ISA and for AVX2; mvm()
// takes the AVX2 copy when the CPU has it, checked once. Both copies add
// in the same order with no contraction, so the baseline copy is the
// golden reference for the other and the results do not depend on the
// host.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pim/config.hpp"
#include "tensor/tensor.hpp"

namespace epim {

/// Device non-idealities applied at programming time (write variation and
/// hard faults). With all fields zero the array is ideal and bit-exact.
struct NonIdealityConfig {
  /// Std-dev of Gaussian conductance error per cell, in conductance-level
  /// units (a 2-bit cell has levels 0..3; sigma 0.1 means ~10% of a level).
  double conductance_sigma = 0.0;
  /// Probability that a cell is stuck at zero conductance (open fault).
  double stuck_at_zero_prob = 0.0;
  /// Probability that a cell is stuck at maximum conductance (short fault).
  double stuck_at_max_prob = 0.0;
  std::uint64_t seed = 0x5711Cu;

  bool ideal() const {
    return conductance_sigma == 0.0 && stuck_at_zero_prob == 0.0 &&
           stuck_at_max_prob == 0.0;
  }
};

/// One physical crossbar programmed with an integer weight matrix.
class CrossbarArray {
 public:
  /// Program a (rows x cols) *logical* integer weight matrix. Weights must
  /// fit in weight_bits two's-complement. rows/cols must fit the crossbar
  /// (cols * slices <= config.cols). Non-idealities, if any, perturb the
  /// programmed conductances once (write-time variation model).
  CrossbarArray(const CrossbarConfig& config, int weight_bits,
                const std::vector<std::vector<int>>& weights,
                const NonIdealityConfig& non_ideal = {});

  std::int64_t logical_rows() const { return rows_; }
  std::int64_t logical_cols() const { return cols_; }

  /// Bit-serial MVM: `input` holds unsigned integer activations (each fitting
  /// in act_bits) for every logical row; `row_enable` masks word lines (the
  /// IFRT mechanism: disabled rows contribute nothing). Returns one signed
  /// integer accumulator per logical column.
  ///
  /// The computation is exact iff every per-cycle column current fits in the
  /// ADC range; otherwise currents clip (saturating ADC).
  std::vector<std::int64_t> mvm(const std::vector<std::uint32_t>& input,
                                const std::vector<bool>& row_enable,
                                int act_bits) const;

  /// Convenience: all rows enabled.
  std::vector<std::int64_t> mvm(const std::vector<std::uint32_t>& input,
                                int act_bits) const;

  /// Same output into `acc`, with ADC clip events accumulated (not reset)
  /// into *clip_count when it is non-null.
  void mvm(const std::vector<std::uint32_t>& input,
           const std::vector<bool>& row_enable, int act_bits,
           std::vector<std::int64_t>& acc, std::int64_t* clip_count) const;

  /// The kernel itself. `input` holds one activation per logical row, but
  /// only the rows listed in `active` (strictly ascending, each in
  /// [0, logical_rows())) are read; the others may hold anything. Writes
  /// logical_cols() accumulators to `out`, bit-identical to the masked
  /// overloads with exactly those rows enabled, and accumulates clip events
  /// into *clip_count when it is non-null.
  void mvm(std::span<const std::uint32_t> input,
           std::span<const std::int32_t> active, int act_bits,
           std::int64_t* out, std::int64_t* clip_count) const;

 private:
  // Pins the ADC step, the summation order and both compiled loop copies.
  friend class CrossbarTestPeer;

  /// The instruction sets the bit-serial loop is compiled for.
  enum class Isa { kGeneric, kAvx2 };
  /// The copy mvm() runs: kAvx2 when the CPU supports AVX2, decided once.
  static Isa host_isa();

  /// The bit-serial loop (every array off the direct path), in the copy
  /// compiled for `isa`, which must be kGeneric or host_isa(). Both copies
  /// add in the same order, so they are bit-identical.
  void mvm_analog(std::span<const std::uint32_t> input,
                  std::span<const std::int32_t> active, int act_bits,
                  std::int64_t* acc, std::int64_t& clips, Isa isa) const;
  /// One ADC conversion exactly as the loop performs it: the current
  /// rounded half away from zero (std::llround), saturated at
  /// 2^adc_bits - 1 with a clip added to `clips`, floored at zero. Test
  /// seam only.
  static std::int64_t adc_code(double current, int adc_bits,
                               std::int64_t& clips);
  /// Pre-ADC column currents of one slice, summed exactly as the copy of
  /// the bit-serial loop compiled for `isa` sums them: cur[c] = the levels
  /// of column c on the word lines in `lit` (ascending), added in ascending
  /// row order. Test seam only.
  void column_currents(std::span<const std::int32_t> lit, std::int64_t slice,
                       double* cur, Isa isa) const;

  CrossbarConfig config_;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t slices_ = 0;
  std::int64_t offset_ = 0;  ///< offset-binary bias: stored = w + offset
  /// True for an ideal array whose ADC cannot clip for any input (worst
  /// case: all rows enabled, all input bits set): it takes the direct path
  /// and keeps only signed_weights_; every other array keeps only cells_.
  bool direct_ = false;
  /// Bit-serial arrays only: programmed conductances in level units, one
  /// contiguous buffer holding each word line's slices side by side:
  /// cells_[(r * slices_ + s) * cols_ + c]. Exactly the
  /// digit of (w + offset) for an ideal array; perturbed by the
  /// non-ideality model otherwise.
  std::vector<double> cells_;
  /// Direct-path arrays only: the signed logical weights, row-major
  /// (rows x cols).
  std::vector<std::int64_t> signed_weights_;
};

}  // namespace epim
