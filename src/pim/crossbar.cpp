#include "pim/crossbar.hpp"

#include <algorithm>
#include <cmath>
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
        cells_[static_cast<std::size_t>((s * rows_ + r) * cols_ + c)] = level;
        stored >>= radix_bits;
      }
    }
  }
}

namespace {

/// Per-thread scratch for mvm(): the kernel is called once per tile per
/// round per output position, so these buffers must not be reallocated per
/// call. Thread-local keeps the thread-safe overload allocation-free and
/// race-free; every element is overwritten before use, so results stay
/// deterministic.
thread_local std::vector<std::int32_t> t_active;
thread_local std::vector<double> t_current_analog;
thread_local std::vector<std::int32_t> t_lit;

/// cur[c] = the sum of plane[r * cols + c] over the rows r in `lit`
/// (ascending), added in ascending row order. Internal linkage so the
/// bit-serial loop inlines it; column_currents() exposes it to tests.
void sum_lit_rows(const double* plane, std::int64_t cols,
                  std::span<const std::int32_t> lit, double* cur) {
  std::fill(cur, cur + cols, 0.0);
  // Two rows per pass over the columns: (cur + a) + b rounds exactly as two
  // one-row passes do, so the sums stay bit-identical.
  std::size_t k = 0;
  for (; k + 1 < lit.size(); k += 2) {
    const double* a = plane + static_cast<std::int64_t>(lit[k]) * cols;
    const double* b = plane + static_cast<std::int64_t>(lit[k + 1]) * cols;
    for (std::int64_t c = 0; c < cols; ++c) cur[c] = cur[c] + a[c] + b[c];
  }
  if (k < lit.size()) {
    const double* a = plane + static_cast<std::int64_t>(lit[k]) * cols;
    for (std::int64_t c = 0; c < cols; ++c) cur[c] += a[c];
  }
}

}  // namespace

void CrossbarArray::column_currents(std::span<const std::int32_t> lit,
                                    std::int64_t slice, double* cur) const {
  sum_lit_rows(cells_.data() + slice * rows_ * cols_, cols_, lit, cur);
}

void CrossbarArray::mvm_analog(std::span<const std::uint32_t> input,
                               std::span<const std::int32_t> active,
                               int act_bits, std::int64_t* acc,
                               std::int64_t& clips) const {
  const std::int64_t adc_max = (std::int64_t{1} << config_.adc_bits) - 1;
  const int radix_bits = config_.cell_bits;
  // Bit-serial input streaming: cycle t drives input bit t on every enabled
  // word line; each slice's column current is digitized and shift-added.
  // (Word lines whose input bit is zero draw no current and are skipped.)
  std::vector<double>& current = t_current_analog;
  std::vector<std::int32_t>& lit = t_lit;
  current.resize(static_cast<std::size_t>(cols_));
  for (int t = 0; t < act_bits; ++t) {
    // The word lines driving a one in cycle t, shared by every slice.
    lit.clear();
    for (const std::int32_t r : active) {
      if ((input[static_cast<std::size_t>(r)] >> t) & 1u) lit.push_back(r);
    }
    for (std::int64_t s = 0; s < slices_; ++s) {
      sum_lit_rows(cells_.data() + s * rows_ * cols_, cols_, lit,
                   current.data());
      for (std::int64_t c = 0; c < cols_; ++c) {
        // The ADC digitizes the analog column current to an integer code.
        std::int64_t code = static_cast<std::int64_t>(
            std::llround(current[static_cast<std::size_t>(c)]));
        if (code > adc_max) {  // saturating ADC
          code = adc_max;
          ++clips;
        }
        if (code < 0) code = 0;
        acc[c] += code << (t + static_cast<int>(s) * radix_bits);
      }
    }
  }
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
  mvm_analog(input, active, act_bits, out, clips);
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
