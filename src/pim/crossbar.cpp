#include "pim/crossbar.hpp"

#include <algorithm>
#include <functional>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace epim {

CrossbarArray::CrossbarArray(const CrossbarConfig& config, int weight_bits,
                             const std::vector<std::vector<int>>& weights,
                             const NonIdealityConfig& non_ideal)
    : config_(config) {
  rows_ = static_cast<std::int64_t>(weights.size());
  EPIM_CHECK(rows_ > 0 && rows_ <= config.rows,
             "crossbar row count out of range");
  cols_ = static_cast<std::int64_t>(weights.front().size());
  EPIM_CHECK(cols_ > 0, "crossbar must have at least one column");
  slices_ = config.weight_slices(weight_bits);
  EPIM_CHECK(cols_ * slices_ <= config.cols,
             "weight matrix does not fit the crossbar's bit lines");
  // Offset-binary encoding: a k-bit two's-complement weight w in
  // [-2^(k-1), 2^(k-1)-1] is stored as the non-negative value w + 2^(k-1),
  // which fits in k bits and therefore in `slices_` cell digits. The mvm()
  // path subtracts offset * sum(inputs) digitally.
  offset_ = std::int64_t{1} << (weight_bits - 1);
  const std::int64_t lo = -offset_, hi = offset_ - 1;
  const int radix_bits = config.cell_bits;
  const int radix_mask = (1 << radix_bits) - 1;
  // Worst-case per-cycle column current of an ideal array: every row enabled
  // and driving a one bit. If even that fits the ADC, no input can ever clip
  // and the whole bit-serial schedule collapses to one integer dot product.
  std::vector<std::int64_t> worst(static_cast<std::size_t>(slices_ * cols_), 0);
  for (std::int64_t r = 0; r < rows_; ++r) {
    EPIM_CHECK(static_cast<std::int64_t>(weights[static_cast<std::size_t>(r)]
                                             .size()) == cols_,
               "ragged weight matrix");
    for (std::int64_t c = 0; c < cols_; ++c) {
      const int w = weights[static_cast<std::size_t>(r)]
                           [static_cast<std::size_t>(c)];
      EPIM_CHECK(w >= lo && w <= hi,
                 "weight out of range for " + std::to_string(weight_bits) +
                     "-bit encoding");
      std::int64_t stored = static_cast<std::int64_t>(w) + offset_;
      for (std::int64_t s = 0; s < slices_; ++s) {
        worst[static_cast<std::size_t>(s * cols_ + c)] += stored & radix_mask;
        stored >>= radix_bits;
      }
    }
  }
  const std::int64_t adc_max = (std::int64_t{1} << config_.adc_bits) - 1;
  direct_ = non_ideal.ideal() &&
            *std::max_element(worst.begin(), worst.end()) <= adc_max;
  if (direct_) {
    signed_weights_.reserve(static_cast<std::size_t>(rows_ * cols_));
    for (const std::vector<int>& row : weights) {
      signed_weights_.insert(signed_weights_.end(), row.begin(), row.end());
    }
    return;
  }
  const double level_max = static_cast<double>(radix_mask);
  Rng rng(non_ideal.seed);
  cells_.resize(static_cast<std::size_t>(slices_ * rows_ * cols_));
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t c = 0; c < cols_; ++c) {
      std::int64_t stored =
          static_cast<std::int64_t>(weights[static_cast<std::size_t>(r)]
                                           [static_cast<std::size_t>(c)]) +
          offset_;
      for (std::int64_t s = 0; s < slices_; ++s) {
        double level = static_cast<double>(stored & radix_mask);
        // Write-time variation and hard faults, applied once per cell (no
        // draws at all on an ideal array).
        if (non_ideal.stuck_at_zero_prob > 0.0 &&
            rng.flip(non_ideal.stuck_at_zero_prob)) {
          level = 0.0;
        } else if (non_ideal.stuck_at_max_prob > 0.0 &&
                   rng.flip(non_ideal.stuck_at_max_prob)) {
          level = level_max;
        } else if (non_ideal.conductance_sigma > 0.0) {
          level = std::clamp(
              level + rng.normal(0.0, non_ideal.conductance_sigma), 0.0,
              level_max);
        }
        cells_[static_cast<std::size_t>((r * slices_ + s) * cols_ + c)] = level;
        stored >>= radix_bits;
      }
    }
  }
}

namespace {

/// Per-thread scratch for mvm(): the kernel is called once per tile per
/// round per output position, so these buffers must not be reallocated per
/// call. Thread-local keeps the thread-safe overload allocation-free and
/// race-free; every element read is written first in the same call, so
/// results stay deterministic.
thread_local std::vector<std::int32_t> t_active;
thread_local std::vector<double> t_current_analog;
thread_local std::vector<std::int32_t> t_lit;

/// kLanes doubles added lane by lane (IEEE adds, as in scalar code), read
/// and written at any double's alignment, as the intrinsics' __m256d_u.
template <int kLanes>
struct DoubleLanes {
  typedef double type __attribute__((vector_size(kLanes * sizeof(double)),
                                     aligned(sizeof(double)), may_alias));
};
template <>
struct DoubleLanes<1> {
  using type = double;
};

/// Vector accumulators per column block: eight independent add chains
/// cover the add latency at two adds per cycle.
constexpr int kBlockRegs = 8;

/// cur[c] = the sum of plane[r * stride + c] over the rows r in `lit`
/// (ascending), added in ascending row order, for c in [0, width). The
/// columns go kLanes * kRegs at a time through kRegs vectors of running
/// sums held in registers: independent add chains, and no load or store of
/// cur per row. The tail takes half as many registers, then narrower
/// vectors, down to one column. Only the column grouping changes, never a
/// column's order of additions, so every sum is bit-identical to a
/// one-row-at-a-time pass. Inlined into both copies of the bit-serial
/// loop; column_currents() exposes each copy to tests.
template <int kLanes, int kRegs>
[[gnu::always_inline]] inline void sum_lit_rows(
    const double* plane, std::int64_t stride, std::int64_t width,
    std::span<const std::int32_t> lit, double* cur) {
  using Lanes = typename DoubleLanes<kLanes>::type;
  constexpr std::int64_t kBlock = kLanes * kRegs;
  std::int64_t c0 = 0;
  for (; c0 + kBlock <= width; c0 += kBlock) {
    Lanes sum[kRegs] = {};
    for (const std::int32_t r : lit) {
      const Lanes* row = reinterpret_cast<const Lanes*>(
          plane + static_cast<std::int64_t>(r) * stride + c0);
#pragma GCC unroll 16
      for (int k = 0; k < kRegs; ++k) sum[k] += row[k];
    }
    Lanes* out = reinterpret_cast<Lanes*>(cur + c0);
#pragma GCC unroll 16
    for (int k = 0; k < kRegs; ++k) out[k] = sum[k];
  }
  if constexpr (kRegs > 1) {
    sum_lit_rows<kLanes, kRegs / 2>(plane + c0, stride, width - c0, lit,
                                    cur + c0);
  } else if constexpr (kLanes > 1) {
    sum_lit_rows<kLanes / 2, 1>(plane + c0, stride, width - c0, lit,
                                cur + c0);
  }
}

/// Largest ADC resolution whose codes convert through int32: the current
/// is clamped to 2^adc_bits before conversion, and 2^30 < 2^31. Wider ADCs
/// convert through int64 (which AVX2 cannot do in vector registers).
constexpr int kMaxInt32AdcBits = 30;

/// The ADC on one column current, without branches. Clamping to
/// [0, adc_max + 1] first changes no result (every current above
/// adc_max + 0.5 clips either way, every negative one reads 0) and keeps the
/// conversion to Code in range. x - trunc(x) is exact for any double, so
/// adding the half-way test to trunc(x) rounds half away from zero exactly
/// as std::llround does.
template <typename Code>
[[gnu::always_inline]] inline Code adc_step(double current, Code adc_max,
                                            std::int64_t& clips) {
  const double x =
      std::clamp(current, 0.0, static_cast<double>(adc_max) + 1.0);
  Code code = static_cast<Code>(x);
  code += static_cast<Code>(x - static_cast<double>(code) >= 0.5);
  clips += code > adc_max;  // saturating ADC
  return std::min(code, adc_max);
}

/// What the bit-serial loop reads of an array.
struct AnalogTile {
  const double* cells;  ///< cells_[(r * slices + s) * cols + c]
  std::int64_t cols, slices;
  int radix_bits, adc_bits;
};

/// The bit-serial loop. Cycle t drives input bit t on every enabled word
/// line; each slice's column current is digitized and shift-added. Word
/// lines whose input bit is zero draw no current, so each cycle sums only
/// the lit rows, every slice of a row in one pass (a row's slices sit side
/// by side). Compiled twice, for the baseline ISA and for AVX2.
template <int kLanes, typename Code>
[[gnu::always_inline]] inline void analog_loop(
    const AnalogTile& a, const std::uint32_t* input,
    std::span<const std::int32_t> active, int act_bits, std::int64_t* acc,
    std::int64_t& clips) {
  // Locals, not loads through `a`: the stores to acc could alias `a`.
  const std::int64_t cols = a.cols, slices = a.slices, width = slices * cols;
  const int radix_bits = a.radix_bits;
  const Code adc_max = static_cast<Code>((std::int64_t{1} << a.adc_bits) - 1);
  std::vector<double>& current = t_current_analog;
  std::vector<std::int32_t>& lit = t_lit;
  current.resize(static_cast<std::size_t>(width));
  lit.resize(active.size());
  std::int64_t clipped = 0;
  for (int t = 0; t < act_bits; ++t) {
    // The word lines driving a one in cycle t, listed without branches.
    std::size_t n = 0;
    for (const std::int32_t r : active) {
      lit[n] = r;
      n += (input[static_cast<std::size_t>(r)] >> t) & 1u;
    }
    sum_lit_rows<kLanes, kBlockRegs>(a.cells, width, width, {lit.data(), n},
                                     current.data());
    for (std::int64_t s = 0; s < slices; ++s) {
      const double* cur = current.data() + s * cols;
      const int shift = t + static_cast<int>(s) * radix_bits;
      for (std::int64_t c = 0; c < cols; ++c) {
        acc[c] += static_cast<std::int64_t>(adc_step(cur[c], adc_max, clipped))
                  << shift;
      }
    }
  }
  clips += clipped;
}

template <int kLanes>
[[gnu::always_inline]] inline void analog_body(
    const AnalogTile& a, const std::uint32_t* input,
    std::span<const std::int32_t> active, int act_bits, std::int64_t* acc,
    std::int64_t& clips) {
  if (a.adc_bits <= kMaxInt32AdcBits) {
    analog_loop<kLanes, std::int32_t>(a, input, active, act_bits, acc, clips);
  } else {
    analog_loop<kLanes, std::int64_t>(a, input, active, act_bits, acc, clips);
  }
}

// The two compiled copies of the loop and of its summation. Both add in
// ascending row order with no contraction (the build is ISO C++,
// -ffp-contract=off), so the baseline copy is the golden reference for the
// AVX2 one, whose vectors are twice as wide.
constexpr int kGenericLanes = 2;  // SSE2 on x86-64
constexpr int kAvx2Lanes = 4;

void analog_generic(const AnalogTile& a, const std::uint32_t* input,
                    std::span<const std::int32_t> active, int act_bits,
                    std::int64_t* acc, std::int64_t& clips) {
  analog_body<kGenericLanes>(a, input, active, act_bits, acc, clips);
}

void currents_generic(const double* plane, std::int64_t stride,
                      std::int64_t width, std::span<const std::int32_t> lit,
                      double* cur) {
  sum_lit_rows<kGenericLanes, kBlockRegs>(plane, stride, width, lit, cur);
}

#if defined(__x86_64__) || defined(__i386__)
#define EPIM_CROSSBAR_AVX2 1
[[gnu::target("avx2")]] void analog_avx2(
    const AnalogTile& a, const std::uint32_t* input,
    std::span<const std::int32_t> active, int act_bits, std::int64_t* acc,
    std::int64_t& clips) {
  analog_body<kAvx2Lanes>(a, input, active, act_bits, acc, clips);
}

[[gnu::target("avx2")]] void currents_avx2(
    const double* plane, std::int64_t stride, std::int64_t width,
    std::span<const std::int32_t> lit, double* cur) {
  sum_lit_rows<kAvx2Lanes, kBlockRegs>(plane, stride, width, lit, cur);
}
#endif

}  // namespace

CrossbarArray::Isa CrossbarArray::host_isa() {
#ifdef EPIM_CROSSBAR_AVX2
  static const Isa isa = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kGeneric;
  }();
  return isa;
#else
  return Isa::kGeneric;
#endif
}

std::int64_t CrossbarArray::adc_code(double current, int adc_bits,
                                     std::int64_t& clips) {
  const std::int64_t adc_max = (std::int64_t{1} << adc_bits) - 1;
  if (adc_bits <= kMaxInt32AdcBits) {
    return adc_step(current, static_cast<std::int32_t>(adc_max), clips);
  }
  return adc_step(current, adc_max, clips);
}

void CrossbarArray::column_currents(std::span<const std::int32_t> lit,
                                    std::int64_t slice, double* cur,
                                    Isa isa) const {
  EPIM_DCHECK(isa == Isa::kGeneric || isa == host_isa(),
              "the AVX2 loop needs an AVX2 host");
  const double* plane = cells_.data() + slice * cols_;
#ifdef EPIM_CROSSBAR_AVX2
  if (isa == Isa::kAvx2) {
    currents_avx2(plane, slices_ * cols_, cols_, lit, cur);
    return;
  }
#endif
  currents_generic(plane, slices_ * cols_, cols_, lit, cur);
}

void CrossbarArray::mvm_analog(std::span<const std::uint32_t> input,
                               std::span<const std::int32_t> active,
                               int act_bits, std::int64_t* acc,
                               std::int64_t& clips, Isa isa) const {
  EPIM_DCHECK(isa == Isa::kGeneric || isa == host_isa(),
              "the AVX2 loop needs an AVX2 host");
  const AnalogTile tile{cells_.data(), cols_, slices_, config_.cell_bits,
                        config_.adc_bits};
#ifdef EPIM_CROSSBAR_AVX2
  if (isa == Isa::kAvx2) {
    analog_avx2(tile, input.data(), active, act_bits, acc, clips);
    return;
  }
#endif
  analog_generic(tile, input.data(), active, act_bits, acc, clips);
}

void CrossbarArray::mvm(std::span<const std::uint32_t> input,
                        std::span<const std::int32_t> active, int act_bits,
                        std::int64_t* out,
                        std::int64_t* clip_count) const {
  EPIM_CHECK(static_cast<std::int64_t>(input.size()) == rows_,
             "input length must equal logical rows");
  EPIM_CHECK(static_cast<std::int64_t>(active.size()) <= rows_,
             "more active rows than logical rows");
  EPIM_CHECK(act_bits >= 1 && act_bits <= 32, "act_bits out of range");
  EPIM_DCHECK(std::adjacent_find(active.begin(), active.end(),
                                 std::greater_equal<>()) == active.end(),
              "active rows must be strictly ascending");
  EPIM_DCHECK(active.empty() ||
                  (active.front() >= 0 && active.back() < rows_),
              "active row out of range");
  std::fill(out, out + cols_, std::int64_t{0});

  if (direct_) {
    // Direct path: with exact digits and a wide ADC the shift-add over
    // cycles and slices telescopes to sum_r in[r] * (w[r][c] + offset) with
    // in[r] = input[r] truncated to act_bits, and the offset correction
    // cancels against the truncated part of the bias -- so compute the
    // signed product outright. For in-contract inputs the residual
    // correction below is zero.
    const std::uint32_t mask =
        act_bits >= 32 ? 0xFFFF'FFFFu : (1u << act_bits) - 1u;
    std::int64_t full_sum = 0, masked_sum = 0;
    // Rows with a nonzero input go into `out` two per pass over the columns
    // (integer sums: the grouping cannot change the result).
    const std::int64_t* held = nullptr;
    std::int64_t held_in = 0;
    for (const std::int32_t r : active) {
      full_sum += input[static_cast<std::size_t>(r)];
      const std::int64_t in = input[static_cast<std::size_t>(r)] & mask;
      masked_sum += in;
      if (in == 0) continue;
      const std::int64_t* row =
          signed_weights_.data() + static_cast<std::int64_t>(r) * cols_;
      if (held == nullptr) {
        held = row;
        held_in = in;
        continue;
      }
      for (std::int64_t c = 0; c < cols_; ++c) {
        out[c] += held_in * held[c] + in * row[c];
      }
      held = nullptr;
    }
    if (held != nullptr) {
      for (std::int64_t c = 0; c < cols_; ++c) out[c] += held_in * held[c];
    }
    if (full_sum != masked_sum) {
      // The bit-serial reference streams only act_bits input bits but
      // corrects with the *full* input sum; mirror that bit-for-bit.
      for (std::int64_t c = 0; c < cols_; ++c) {
        out[c] -= offset_ * (full_sum - masked_sum);
      }
    }
    return;  // no clipping by construction
  }

  std::int64_t clips = 0;
  mvm_analog(input, active, act_bits, out, clips, host_isa());
  // Remove the offset-binary bias: stored = w + offset, so the analog result
  // overcounts by offset * sum(enabled inputs).
  std::int64_t input_sum = 0;
  for (const std::int32_t r : active) {
    input_sum += input[static_cast<std::size_t>(r)];
  }
  for (std::int64_t c = 0; c < cols_; ++c) out[c] -= offset_ * input_sum;
  if (clip_count != nullptr) *clip_count += clips;
}

void CrossbarArray::mvm(const std::vector<std::uint32_t>& input,
                        const std::vector<bool>& row_enable, int act_bits,
                        std::vector<std::int64_t>& acc,
                        std::int64_t* clip_count) const {
  EPIM_CHECK(static_cast<std::int64_t>(row_enable.size()) == rows_,
             "row_enable length must equal logical rows");
  // Row gating as a dense index list: the kernel walks only these rows.
  std::vector<std::int32_t>& active = t_active;
  active.clear();
  for (std::int64_t r = 0; r < rows_; ++r) {
    if (row_enable[static_cast<std::size_t>(r)]) {
      active.push_back(static_cast<std::int32_t>(r));
    }
  }
  acc.resize(static_cast<std::size_t>(cols_));
  mvm(input, active, act_bits, acc.data(), clip_count);
}

std::vector<std::int64_t> CrossbarArray::mvm(
    const std::vector<std::uint32_t>& input,
    const std::vector<bool>& row_enable, int act_bits) const {
  std::vector<std::int64_t> acc;
  mvm(input, row_enable, act_bits, acc, nullptr);
  return acc;
}

std::vector<std::int64_t> CrossbarArray::mvm(
    const std::vector<std::uint32_t>& input, int act_bits) const {
  return mvm(input, std::vector<bool>(input.size(), true), act_bits);
}

}  // namespace epim
