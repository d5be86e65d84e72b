// Golden-vector tests for the contiguous-memory crossbar kernel: the
// rewritten CrossbarArray (flat cell store, enabled-row index list, direct
// integer path) must be bit-identical to the seed implementation in every
// regime -- ideal wide-ADC (direct int64 path), ideal starved-ADC (the
// bit-serial loop on exact levels, with saturation), and non-ideal (the
// bit-serial loop on perturbed levels), including partial row_enable masks
// and the clip diagnostics. The span overload (active-row list instead of
// a mask) is pinned the same way, and so is the bit-serial loop's pre-ADC
// summation order, which the end-to-end outputs cannot see. The loop's
// inline ADC is pinned against std::llround, and its AVX2 copy against
// the baseline copy (currents, outputs and clips).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "pim/crossbar.hpp"

namespace epim {

/// Test-only access to the bit-serial loop: its per-(bit, slice) current
/// accumulation, its ADC step and each of its compiled copies.
class CrossbarTestPeer {
 public:
  static void column_currents(const CrossbarArray& array,
                              std::span<const std::int32_t> lit,
                              std::int64_t slice, double* cur,
                              bool avx2 = false) {
    array.column_currents(lit, slice, cur,
                          avx2 ? CrossbarArray::Isa::kAvx2
                               : CrossbarArray::Isa::kGeneric);
  }

  static std::int64_t adc_code(double current, int adc_bits,
                               std::int64_t& clips) {
    return CrossbarArray::adc_code(current, adc_bits, clips);
  }

  static bool host_has_avx2() {
    return CrossbarArray::host_isa() == CrossbarArray::Isa::kAvx2;
  }

  static bool direct(const CrossbarArray& array) { return array.direct_; }

  /// What mvm() returns, with the bit-serial loop run in the baseline copy
  /// or in the AVX2 one; clips accumulate into `clips`.
  static std::vector<std::int64_t> loop_mvm(
      const CrossbarArray& array, const std::vector<std::uint32_t>& input,
      std::span<const std::int32_t> active, int act_bits, bool avx2,
      std::int64_t& clips) {
    std::vector<std::int64_t> acc(static_cast<std::size_t>(array.cols_), 0);
    array.mvm_analog(input, active, act_bits, acc.data(), clips,
                     avx2 ? CrossbarArray::Isa::kAvx2
                          : CrossbarArray::Isa::kGeneric);
    std::int64_t input_sum = 0;
    for (const std::int32_t r : active) {
      input_sum += input[static_cast<std::size_t>(r)];
    }
    for (std::int64_t& v : acc) v -= array.offset_ * input_sum;
    return acc;
  }
};

namespace {

/// Verbatim port of the seed (pre-flat-layout) CrossbarArray: nested
/// vector-of-vectors cell store, vector<bool> row gating, double column
/// currents in every mode. The production kernel is tested against this.
class SeedCrossbar {
 public:
  SeedCrossbar(const CrossbarConfig& config, int weight_bits,
               const std::vector<std::vector<int>>& weights,
               const NonIdealityConfig& non_ideal = {})
      : config_(config) {
    rows_ = static_cast<std::int64_t>(weights.size());
    cols_ = static_cast<std::int64_t>(weights.front().size());
    slices_ = config.weight_slices(weight_bits);
    offset_ = std::int64_t{1} << (weight_bits - 1);
    const int radix_bits = config.cell_bits;
    const int radix_mask = (1 << radix_bits) - 1;
    const double level_max = static_cast<double>(radix_mask);
    const bool ideal = non_ideal.ideal();
    Rng rng(non_ideal.seed);
    cells_.assign(static_cast<std::size_t>(slices_),
                  std::vector<std::vector<double>>(
                      static_cast<std::size_t>(rows_),
                      std::vector<double>(static_cast<std::size_t>(cols_),
                                          0.0)));
    for (std::int64_t r = 0; r < rows_; ++r) {
      for (std::int64_t c = 0; c < cols_; ++c) {
        const int w = weights[static_cast<std::size_t>(r)]
                             [static_cast<std::size_t>(c)];
        std::int64_t stored = static_cast<std::int64_t>(w) + offset_;
        for (std::int64_t s = 0; s < slices_; ++s) {
          double level = static_cast<double>(stored & radix_mask);
          if (!ideal) {
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
          }
          cells_[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)]
                [static_cast<std::size_t>(c)] = level;
          stored >>= radix_bits;
        }
      }
    }
  }

  std::vector<std::int64_t> mvm(const std::vector<std::uint32_t>& input,
                                const std::vector<bool>& row_enable,
                                int act_bits) const {
    clip_count_ = 0;
    const std::int64_t adc_max = (std::int64_t{1} << config_.adc_bits) - 1;
    const int radix_bits = config_.cell_bits;
    std::vector<std::int64_t> acc(static_cast<std::size_t>(cols_), 0);
    std::int64_t input_sum = 0;
    std::vector<double> current(static_cast<std::size_t>(cols_));
    for (int t = 0; t < act_bits; ++t) {
      for (std::int64_t s = 0; s < slices_; ++s) {
        const auto& plane = cells_[static_cast<std::size_t>(s)];
        std::fill(current.begin(), current.end(), 0.0);
        for (std::int64_t r = 0; r < rows_; ++r) {
          if (!row_enable[static_cast<std::size_t>(r)]) continue;
          if (((input[static_cast<std::size_t>(r)] >> t) & 1u) == 0u) {
            continue;
          }
          const auto& row = plane[static_cast<std::size_t>(r)];
          for (std::int64_t c = 0; c < cols_; ++c) {
            current[static_cast<std::size_t>(c)] +=
                row[static_cast<std::size_t>(c)];
          }
        }
        for (std::int64_t c = 0; c < cols_; ++c) {
          std::int64_t code = static_cast<std::int64_t>(
              std::llround(current[static_cast<std::size_t>(c)]));
          if (code > adc_max) {
            code = adc_max;
            ++clip_count_;
          }
          if (code < 0) code = 0;
          acc[static_cast<std::size_t>(c)] +=
              code << (t + static_cast<int>(s) * radix_bits);
        }
      }
    }
    for (std::int64_t r = 0; r < rows_; ++r) {
      if (row_enable[static_cast<std::size_t>(r)]) {
        input_sum += input[static_cast<std::size_t>(r)];
      }
    }
    for (std::int64_t c = 0; c < cols_; ++c) {
      acc[static_cast<std::size_t>(c)] -= offset_ * input_sum;
    }
    return acc;
  }

  std::int64_t last_clip_count() const { return clip_count_; }

  double cell(std::int64_t s, std::int64_t r, std::int64_t c) const {
    return cells_[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)]
                 [static_cast<std::size_t>(c)];
  }

 private:
  CrossbarConfig config_;
  std::int64_t rows_, cols_, slices_, offset_;
  std::vector<std::vector<std::vector<double>>> cells_;
  mutable std::int64_t clip_count_ = 0;
};

struct GoldenCase {
  const char* name;
  std::int64_t rows, cols;
  int weight_bits, act_bits, adc_bits;
  NonIdealityConfig non_ideal;
  double enable_prob;  ///< fraction of word lines enabled
};

// Without this, gtest prints the parameter as raw bytes, and the test name
// would carry the load address of `name`, which changes with every run.
void PrintTo(const GoldenCase& p, std::ostream* os) {
  *os << p.name << ' ' << p.rows << 'x' << p.cols << " w" << p.weight_bits
      << " a" << p.act_bits << " adc" << p.adc_bits;
}

class KernelGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(KernelGolden, BitIdenticalToSeedImplementation) {
  const GoldenCase& p = GetParam();
  Rng rng(0xC0FFEEu);
  CrossbarConfig cfg;
  cfg.adc_bits = p.adc_bits;
  const int lo = -(1 << (p.weight_bits - 1));
  const int hi = (1 << (p.weight_bits - 1)) - 1;
  std::vector<std::vector<int>> w(
      static_cast<std::size_t>(p.rows),
      std::vector<int>(static_cast<std::size_t>(p.cols)));
  for (auto& row : w) {
    for (auto& v : row) v = rng.uniform_int(lo, hi);
  }

  const CrossbarArray kernel(cfg, p.weight_bits, w, p.non_ideal);
  const SeedCrossbar seed(cfg, p.weight_bits, w, p.non_ideal);

  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::uint32_t> x(static_cast<std::size_t>(p.rows));
    std::vector<bool> en(static_cast<std::size_t>(p.rows));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<std::uint32_t>(
          rng.uniform_int(0, (1 << p.act_bits) - 1));
      en[i] = rng.flip(p.enable_prob);
    }
    std::vector<std::int64_t> got;
    std::int64_t clips = 0;
    kernel.mvm(x, en, p.act_bits, got, &clips);
    const auto want = seed.mvm(x, en, p.act_bits);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c], want[c]) << p.name << " trial " << trial
                                 << " col " << c;
    }
    EXPECT_EQ(clips, seed.last_clip_count())
        << p.name << " trial " << trial;
  }
}

TEST_P(KernelGolden, SpanOverloadBitIdenticalToSeedImplementation) {
  const GoldenCase& p = GetParam();
  Rng rng(0xC0FFEEu);
  CrossbarConfig cfg;
  cfg.adc_bits = p.adc_bits;
  const int lo = -(1 << (p.weight_bits - 1));
  const int hi = (1 << (p.weight_bits - 1)) - 1;
  std::vector<std::vector<int>> w(
      static_cast<std::size_t>(p.rows),
      std::vector<int>(static_cast<std::size_t>(p.cols)));
  for (auto& row : w) {
    for (auto& v : row) v = rng.uniform_int(lo, hi);
  }

  const CrossbarArray kernel(cfg, p.weight_bits, w, p.non_ideal);
  const SeedCrossbar seed(cfg, p.weight_bits, w, p.non_ideal);

  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::uint32_t> x(static_cast<std::size_t>(p.rows));
    std::vector<bool> en(static_cast<std::size_t>(p.rows));
    std::vector<std::int32_t> active;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<std::uint32_t>(
          rng.uniform_int(0, (1 << p.act_bits) - 1));
      en[i] = rng.flip(p.enable_prob);
      if (en[i]) active.push_back(static_cast<std::int32_t>(i));
    }
    const auto want = seed.mvm(x, en, p.act_bits);
    std::vector<std::int64_t> got(want.size());
    std::int64_t clips = 0;
    kernel.mvm(x, active, p.act_bits, got.data(), &clips);
    EXPECT_EQ(got, want) << p.name << " trial " << trial;
    EXPECT_EQ(clips, seed.last_clip_count()) << p.name << " trial " << trial;

    // Rows off the list are never read: saturate them and expect the same.
    std::vector<std::uint32_t> poisoned = x;
    for (std::size_t i = 0; i < poisoned.size(); ++i) {
      if (!en[i]) poisoned[i] = 0xFFFF'FFFFu;
    }
    std::vector<std::int64_t> got_poisoned(want.size());
    std::int64_t clips_poisoned = 0;
    kernel.mvm(poisoned, active, p.act_bits, got_poisoned.data(),
               &clips_poisoned);
    EXPECT_EQ(got_poisoned, want) << p.name << " trial " << trial;
    EXPECT_EQ(clips_poisoned, clips) << p.name << " trial " << trial;
  }
}

NonIdealityConfig noisy() {
  NonIdealityConfig ni;
  ni.conductance_sigma = 0.3;
  ni.stuck_at_zero_prob = 0.02;
  ni.stuck_at_max_prob = 0.01;
  return ni;
}

NonIdealityConfig sigma_only() {
  NonIdealityConfig ni;
  ni.conductance_sigma = 0.15;
  return ni;
}

const std::vector<GoldenCase> kGoldenCases = {
    // Ideal + wide ADC: exercises the direct int64 fast path.
    GoldenCase{"ideal_wide", 128, 16, 9, 9, 12, {}, 0.8},
    GoldenCase{"ideal_wide_full", 64, 32, 6, 8, 12, {}, 1.0},
    GoldenCase{"ideal_wide_sparse", 37, 5, 5, 7, 12, {}, 0.3},
    // Ideal + starved ADC: bit-serial loop on exact levels, saturating.
    GoldenCase{"ideal_clip", 64, 8, 8, 8, 3, {}, 1.0},
    GoldenCase{"ideal_clip_partial", 96, 12, 7, 6, 4, {}, 0.6},
    // Non-ideal: bit-serial loop on perturbed levels, same RNG order.
    GoldenCase{"noisy", 64, 8, 6, 6, 12, noisy(), 0.8},
    GoldenCase{"noisy_starved", 48, 6, 8, 8, 4, noisy(), 1.0},
    GoldenCase{"sigma", 128, 16, 9, 9, 12, sigma_only(), 0.7},
    // Degenerate geometry.
    GoldenCase{"one_cell", 1, 1, 2, 1, 12, {}, 1.0}};

INSTANTIATE_TEST_SUITE_P(
    Regimes, KernelGolden, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.name;
    });

TEST(KernelFastPath, OutOfContractInputBitsMatchSeedTruncation) {
  // The bit-serial reference streams only act_bits input bits but corrects
  // the offset with the full input sum; the direct fast path must reproduce
  // that exactly even for inputs that violate the act_bits contract.
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  std::vector<std::vector<int>> w = {{3, -2}, {-5, 7}, {1, 1}};
  const CrossbarArray kernel(cfg, 4, w);
  const SeedCrossbar seed(cfg, 4, w);
  const std::vector<std::uint32_t> x = {0x1F5u, 0x203u, 0x7u};  // > 3 bits
  const std::vector<bool> en = {true, false, true};
  const auto got = kernel.mvm(x, en, /*act_bits=*/3);
  const auto want = seed.mvm(x, en, /*act_bits=*/3);
  EXPECT_EQ(got, want);
}

TEST(KernelFastPath, ClipCountAccumulatesThroughThreadSafeOverload) {
  CrossbarConfig cfg;
  cfg.adc_bits = 3;  // starved: clips guaranteed
  Rng rng(5);
  std::vector<std::vector<int>> w(
      64, std::vector<int>(4));
  for (auto& row : w) {
    for (auto& v : row) v = rng.uniform_int(-128, 127);
  }
  const CrossbarArray kernel(cfg, 8, w);
  const std::vector<std::uint32_t> x(64, 255);
  const std::vector<bool> en(64, true);
  std::vector<std::int64_t> acc;
  std::int64_t clips = 0;
  kernel.mvm(x, en, 8, acc, &clips);
  const std::int64_t once = clips;
  EXPECT_GT(once, 0);
  kernel.mvm(x, en, 8, acc, &clips);  // accumulates, does not reset
  EXPECT_EQ(clips, 2 * once);
}

TEST(KernelAnalogOrder, ColumnCurrentsSumLitRowsInAscendingOrder) {
  // Perturbed levels are not integers, so double addition is not
  // associative on them: the pre-ADC column currents must equal, bit for
  // bit, the seed's one-row-at-a-time sum in ascending row order. Any
  // regrouping (e.g. cur + (a + b) for two rows per pass) rounds
  // differently, though llround and the ADC usually hide it downstream.
  for (const NonIdealityConfig& ni : {noisy(), sigma_only()}) {
    CrossbarConfig cfg;
    Rng rng(0x0DDE7u);
    const std::int64_t rows = 96, cols = 16;
    const int weight_bits = 8;
    std::vector<std::vector<int>> w(
        static_cast<std::size_t>(rows),
        std::vector<int>(static_cast<std::size_t>(cols)));
    for (auto& row : w) {
      for (auto& v : row) v = rng.uniform_int(-128, 127);
    }
    const CrossbarArray kernel(cfg, weight_bits, w, ni);
    const SeedCrossbar seed(cfg, weight_bits, w, ni);
    const std::int64_t slices = cfg.weight_slices(weight_bits);
    for (int trial = 0; trial < 16; ++trial) {
      // Lit-row lists of every parity and density, down to empty.
      std::vector<std::int32_t> lit;
      const double density = trial / 15.0;
      for (std::int64_t r = 0; r < rows; ++r) {
        if (rng.flip(density)) lit.push_back(static_cast<std::int32_t>(r));
      }
      for (std::int64_t s = 0; s < slices; ++s) {
        std::vector<double> got(static_cast<std::size_t>(cols), -1.0);
        CrossbarTestPeer::column_currents(kernel, lit, s, got.data());
        for (std::int64_t c = 0; c < cols; ++c) {
          double want = 0.0;
          for (const std::int32_t r : lit) want += seed.cell(s, r, c);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(
                        got[static_cast<std::size_t>(c)]),
                    std::bit_cast<std::uint64_t>(want))
              << "trial " << trial << " lit " << lit.size() << " slice "
              << s << " col " << c;
        }
      }
    }
  }
}

TEST(KernelAdc, InlineRoundingMatchesLlround) {
  // The bit-serial loop's ADC rounds without calling std::llround. It must
  // give the code and the clip of the llround-then-saturate ADC it
  // replaced for every current: half-way points and their neighbouring
  // ulps, exact integers up to 2^52, currents far past the ADC's range
  // (where it clamps before converting), and ADCs wide enough that the
  // conversion must go through int64.
  const auto llround_adc = [](double current, int adc_bits,
                              std::int64_t& clips) {
    const std::int64_t adc_max = (std::int64_t{1} << adc_bits) - 1;
    std::int64_t code = std::llround(current);
    if (code > adc_max) {
      code = adc_max;
      ++clips;
    }
    return std::max<std::int64_t>(code, 0);
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> currents = {0.0, -0.0, 0.49999999999999994, 0.5,
                                  -0.3, -0.5, -0.7, -1e9};
  const auto add_around = [&](double x) {
    for (const double v :
         {x, std::nextafter(x, -inf), std::nextafter(x, inf)}) {
      currents.push_back(v);
    }
  };
  for (const double k :
       {1.0, 2.0, 3.0, 7.0, 100.0, 511.0, 512.0, 4095.0, 4096.0, 0x1p20,
        0x1p31 - 1.0, 0x1p31, 0x1p32 - 1.0, 0x1p32, 0x1p40, 0x1p51}) {
    add_around(k);
    add_around(k - 0.5);
    add_around(k + 0.5);
  }
  for (const double k : {0x1p52 - 1.0, 0x1p52, 0x1p53, 0x1p62}) add_around(k);
  Rng rng(0xADCu);
  for (int i = 0; i < 2000; ++i) {
    currents.push_back(rng.uniform(0.0, 10000.0));
    currents.push_back(static_cast<double>(rng.engine()() >> 12));  // < 2^52
  }
  for (const int adc_bits : {9, 12, 31, 32}) {
    const double adc_max =
        static_cast<double>((std::int64_t{1} << adc_bits) - 1);
    for (const double over : {adc_max + 0.5, adc_max + 1.0, adc_max + 1.5,
                              adc_max * 2.0, adc_max * 1e6}) {
      add_around(over);
    }
    std::int64_t clips_seen = 0;
    for (const double x : currents) {
      std::int64_t want_clips = 0, got_clips = 0;
      const std::int64_t want = llround_adc(x, adc_bits, want_clips);
      const std::int64_t got =
          CrossbarTestPeer::adc_code(x, adc_bits, got_clips);
      EXPECT_EQ(got, want) << "current " << x << " adc_bits " << adc_bits;
      EXPECT_EQ(got_clips, want_clips)
          << "current " << x << " adc_bits " << adc_bits;
      clips_seen += got_clips;
    }
    EXPECT_GT(clips_seen, 0) << "adc_bits " << adc_bits;
  }
}

/// The KernelGolden cases plus geometries and settings that reach the
/// loop's other paths: column tails of every block size, an ADC that
/// clips, stuck-at faults alone, one and 32 input bits, and ADCs too wide
/// for an int32 code.
std::vector<GoldenCase> isa_cases() {
  NonIdealityConfig stuck;
  stuck.stuck_at_zero_prob = 0.05;
  stuck.stuck_at_max_prob = 0.05;
  std::vector<GoldenCase> cases = kGoldenCases;
  for (const GoldenCase& c : {
           GoldenCase{"cols1", 40, 1, 8, 8, 12, sigma_only(), 0.8},
           GoldenCase{"cols3", 40, 3, 8, 8, 12, sigma_only(), 0.8},
           GoldenCase{"cols5", 72, 5, 6, 8, 12, sigma_only(), 0.8},
           GoldenCase{"cols25", 100, 25, 9, 8, 12, sigma_only(), 0.7},
           GoldenCase{"starved", 72, 16, 6, 8, 3, sigma_only(), 1.0},
           GoldenCase{"stuck_at", 64, 12, 8, 8, 12, stuck, 0.8},
           GoldenCase{"act1", 64, 16, 6, 1, 12, sigma_only(), 0.8},
           GoldenCase{"act32", 64, 16, 6, 32, 12, noisy(), 0.8},
           GoldenCase{"adc31", 64, 16, 9, 8, 31, sigma_only(), 0.8},
           GoldenCase{"adc32", 64, 16, 9, 32, 32, noisy(), 0.8}}) {
    cases.push_back(c);
  }
  return cases;
}

/// A case's array, built to run the bit-serial loop: a case the direct path
/// would take gets a vanishing sigma, which keeps its geometry and every
/// rounded current.
NonIdealityConfig loop_non_ideal(const GoldenCase& p, const CrossbarConfig& cfg,
                                 const std::vector<std::vector<int>>& w) {
  NonIdealityConfig ni = p.non_ideal;
  if (CrossbarTestPeer::direct(CrossbarArray(cfg, p.weight_bits, w, ni))) {
    ni.conductance_sigma = 1e-9;
  }
  return ni;
}

class KernelIsa : public ::testing::TestWithParam<GoldenCase> {
 protected:
  /// Runs `body(array, seed, x, en, active)` on the case's array for 8
  /// random inputs and row masks.
  template <typename Body>
  void for_each_trial(Body body) {
    const GoldenCase& p = GetParam();
    Rng rng(0x15Au);
    CrossbarConfig cfg;
    cfg.adc_bits = p.adc_bits;
    const int lo = -(1 << (p.weight_bits - 1));
    const int hi = (1 << (p.weight_bits - 1)) - 1;
    std::vector<std::vector<int>> w(
        static_cast<std::size_t>(p.rows),
        std::vector<int>(static_cast<std::size_t>(p.cols)));
    for (auto& row : w) {
      for (auto& v : row) v = rng.uniform_int(lo, hi);
    }
    const NonIdealityConfig ni = loop_non_ideal(p, cfg, w);
    const CrossbarArray array(cfg, p.weight_bits, w, ni);
    const SeedCrossbar seed(cfg, p.weight_bits, w, ni);
    const std::uint32_t mask =
        p.act_bits >= 32 ? 0xFFFF'FFFFu : (1u << p.act_bits) - 1u;
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::uint32_t> x(static_cast<std::size_t>(p.rows));
      std::vector<bool> en(static_cast<std::size_t>(p.rows));
      std::vector<std::int32_t> active;
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<std::uint32_t>(rng.engine()()) & mask;
        en[i] = rng.flip(p.enable_prob);
        if (en[i]) active.push_back(static_cast<std::int32_t>(i));
      }
      body(array, seed, x, en, active);
    }
  }
};

TEST_P(KernelIsa, BaselineCopyMatchesSeedImplementation) {
  const GoldenCase& p = GetParam();
  std::int64_t total_clips = 0;
  for_each_trial([&](const CrossbarArray& array, const SeedCrossbar& seed,
                     const std::vector<std::uint32_t>& x,
                     const std::vector<bool>& en,
                     const std::vector<std::int32_t>& active) {
    std::int64_t clips = 0;
    const auto got = CrossbarTestPeer::loop_mvm(array, x, active, p.act_bits,
                                                /*avx2=*/false, clips);
    EXPECT_EQ(got, seed.mvm(x, en, p.act_bits)) << p.name;
    EXPECT_EQ(clips, seed.last_clip_count()) << p.name;
    total_clips += clips;
  });
  // Every case with an ADC this narrow has enough rows to saturate it.
  if (p.adc_bits <= 4) EXPECT_GT(total_clips, 0) << p.name;
}

TEST_P(KernelIsa, Avx2CopyBitIdenticalToBaselineCopy) {
  if (!CrossbarTestPeer::host_has_avx2()) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  const GoldenCase& p = GetParam();
  for_each_trial([&](const CrossbarArray& array, const SeedCrossbar&,
                     const std::vector<std::uint32_t>& x,
                     const std::vector<bool>&,
                     const std::vector<std::int32_t>& active) {
    std::int64_t clips_baseline = 0, clips_avx2 = 0;
    const auto baseline = CrossbarTestPeer::loop_mvm(
        array, x, active, p.act_bits, /*avx2=*/false, clips_baseline);
    const auto avx2 = CrossbarTestPeer::loop_mvm(array, x, active, p.act_bits,
                                                 /*avx2=*/true, clips_avx2);
    EXPECT_EQ(avx2, baseline) << p.name;
    EXPECT_EQ(clips_avx2, clips_baseline) << p.name;
  });
}

TEST(KernelIsaOrder, Avx2ColumnCurrentsBitIdenticalToBaseline) {
  // The AVX2 copy's pre-ADC currents, which the rounding downstream would
  // mostly hide, must match the baseline copy's bit for bit: same lit
  // rows, same ascending order, wider vectors. Column counts 1..25 reach
  // every tail of the register block.
  if (!CrossbarTestPeer::host_has_avx2()) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  Rng rng(0xA5A2u);
  for (const std::int64_t cols : {1, 3, 5, 7, 16, 25}) {
    CrossbarConfig cfg;
    const std::int64_t rows = 72;
    const int weight_bits = 9;
    std::vector<std::vector<int>> w(
        static_cast<std::size_t>(rows),
        std::vector<int>(static_cast<std::size_t>(cols)));
    for (auto& row : w) {
      for (auto& v : row) v = rng.uniform_int(-256, 255);
    }
    const CrossbarArray kernel(cfg, weight_bits, w, noisy());
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::int32_t> lit;
      for (std::int64_t r = 0; r < rows; ++r) {
        if (rng.flip(trial / 7.0)) lit.push_back(static_cast<std::int32_t>(r));
      }
      for (std::int64_t s = 0; s < cfg.weight_slices(weight_bits); ++s) {
        std::vector<double> baseline(static_cast<std::size_t>(cols), -1.0);
        std::vector<double> avx2(static_cast<std::size_t>(cols), -2.0);
        CrossbarTestPeer::column_currents(kernel, lit, s, baseline.data());
        CrossbarTestPeer::column_currents(kernel, lit, s, avx2.data(),
                                          /*avx2=*/true);
        for (std::size_t c = 0; c < baseline.size(); ++c) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(avx2[c]),
                    std::bit_cast<std::uint64_t>(baseline[c]))
              << "cols " << cols << " trial " << trial << " slice " << s
              << " col " << c;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KernelIsa, ::testing::ValuesIn(isa_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace epim
