// Tests for src/datapath: index-table construction and the repo's central
// correctness contract -- an epitome layer executed through the
// IFAT/IFRT/OFAT datapath equals the convolution with the epitome's
// reconstructed weights, in float (DatapathSimulator) and bit-exactly in
// integers on functional crossbars (PimLayerEngine), whose precomputed
// gather plan is pinned against a copy of the per-position seed loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "datapath/datapath_sim.hpp"
#include "datapath/index_tables.hpp"
#include "datapath/pim_engine.hpp"
#include "nn/conv_exec.hpp"
#include "tensor/ops.hpp"

namespace epim {
namespace {

ConvLayerInfo make_layer(ConvSpec conv, std::int64_t hw) {
  return {"layer", conv, hw, hw};
}

TEST(IndexTables, OneIfatEntryPerActiveRound) {
  const ConvSpec conv{16, 32, 3, 3, 1, 1};
  SamplePlan plan(EpitomeSpec{4, 4, 8, 16}, conv);
  IndexTables tables(plan);
  EXPECT_EQ(static_cast<std::int64_t>(tables.ifat().size()),
            plan.active_rounds());
  EXPECT_EQ(static_cast<std::int64_t>(tables.ofat().size()),
            plan.total_patches());
  EXPECT_EQ(static_cast<std::int64_t>(tables.ifrt().size()),
            plan.active_rounds());
}

TEST(IndexTables, IfrtActiveRowsMatchPatchSize) {
  const ConvSpec conv{16, 32, 3, 3, 1, 1};
  SamplePlan plan(EpitomeSpec{4, 4, 8, 16}, conv);
  IndexTables tables(plan);
  for (const auto& seq : tables.ifrt()) {
    EXPECT_EQ(static_cast<std::int64_t>(seq.row_to_input.size()),
              plan.spec().rows());
    EXPECT_EQ(seq.active_rows(), 8 * 3 * 3);  // cin_e * kh * kw
  }
}

TEST(IndexTables, OfatAccumulateFlagsFollowInputGroups) {
  const ConvSpec conv{16, 32, 3, 3, 1, 1};
  SamplePlan plan(EpitomeSpec{4, 4, 8, 16}, conv);  // 2 in x 2 out groups
  IndexTables tables(plan);
  int accumulating = 0;
  for (const auto& oe : tables.ofat()) accumulating += oe.accumulate ? 1 : 0;
  EXPECT_EQ(accumulating, 2);  // one per output group (the in_group=1 patch)
}

TEST(IndexTables, WrappedPlanMarksReplicas) {
  const ConvSpec conv{16, 64, 3, 3, 1, 1};
  EpitomeSpec spec{4, 4, 8, 16};
  spec.wrap_output = true;
  SamplePlan plan(spec, conv);
  IndexTables tables(plan);
  std::int64_t replicas = 0;
  for (const auto& oe : tables.ofat()) replicas += oe.replica_of >= 0 ? 1 : 0;
  EXPECT_EQ(replicas, plan.total_patches() - plan.active_rounds());
}

TEST(IndexTables, RoundOutputWidthsFollowPrimaryPatches) {
  // 20 output channels in groups of 8: the last group is 4 wide.
  const ConvSpec conv{16, 20, 3, 3, 1, 1};
  SamplePlan plan(EpitomeSpec{4, 4, 8, 8}, conv);  // 2 in x 3 out groups
  IndexTables tables(plan);
  const std::vector<std::int64_t> want = {8, 8, 8, 8, 4, 4};
  ASSERT_EQ(plan.active_rounds(), static_cast<std::int64_t>(want.size()));
  for (std::int64_t r = 0; r < plan.active_rounds(); ++r) {
    EXPECT_EQ(tables.co_len(r), want[static_cast<std::size_t>(r)]) << r;
  }
  for (const auto& oe : tables.ofat()) {
    if (oe.replica_of < 0) {
      EXPECT_EQ(tables.co_len(oe.round), oe.co_stop - oe.co_start);
    }
  }
}

TEST(IndexTables, WrappedRoundWidthIsTheSourceGroupWidth) {
  // Wrapped: only output group 0 computes; its rounds are cout_e wide even
  // though the narrower last group's replicas read only 4 of those columns.
  const ConvSpec conv{16, 20, 3, 3, 1, 1};
  EpitomeSpec spec{4, 4, 8, 8};
  spec.wrap_output = true;
  SamplePlan plan(spec, conv);
  IndexTables tables(plan);
  ASSERT_EQ(plan.active_rounds(), 2);
  EXPECT_EQ(tables.co_len(0), 8);
  EXPECT_EQ(tables.co_len(1), 8);
}

TEST(IndexTables, StorageGrowsWithRounds) {
  const ConvSpec conv{64, 64, 3, 3, 1, 1};
  IndexTables few(SamplePlan(EpitomeSpec{4, 4, 32, 64}, conv));
  IndexTables many(SamplePlan(EpitomeSpec{4, 4, 8, 32}, conv));
  EXPECT_GT(many.ifat().size(), few.ifat().size());
}

// ---- the core equivalence: datapath == reconstructed convolution ----

struct DatapathCase {
  std::int64_t cin, cout, k, stride, pad, hw;
  std::int64_t p, q, cin_e, cout_e;
  bool wrap;
};

class DatapathEquivalence : public ::testing::TestWithParam<DatapathCase> {};

TEST_P(DatapathEquivalence, MatchesReferenceConvolution) {
  const auto c = GetParam();
  Rng rng(42);
  const ConvSpec conv{c.cin, c.cout, c.k, c.k, c.stride, c.pad};
  EpitomeSpec spec{c.p, c.q, c.cin_e, c.cout_e};
  spec.wrap_output = c.wrap;
  const ConvLayerInfo layer = make_layer(conv, c.hw);
  Epitome epitome = Epitome::random(spec, conv, rng);
  Tensor x({c.cin, c.hw, c.hw});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);

  DatapathSimulator sim(layer, epitome);
  const Tensor got = sim.run(x);
  const Tensor want = conv2d(x, epitome.reconstruct(), c.stride, c.pad);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_LT(max_abs_diff(got, want), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DatapathEquivalence,
    ::testing::Values(
        DatapathCase{8, 8, 3, 1, 1, 6, 4, 4, 4, 4, false},
        DatapathCase{8, 16, 3, 1, 1, 5, 4, 4, 4, 8, false},
        DatapathCase{8, 16, 3, 1, 1, 5, 4, 4, 4, 8, true},
        DatapathCase{10, 6, 3, 2, 1, 7, 5, 5, 3, 4, false},
        DatapathCase{16, 16, 1, 1, 0, 4, 1, 1, 8, 8, false},
        DatapathCase{16, 32, 1, 1, 0, 4, 1, 1, 8, 8, true},
        DatapathCase{3, 12, 5, 2, 2, 9, 7, 6, 3, 4, false},
        DatapathCase{12, 12, 3, 1, 1, 6, 4, 4, 12, 12, false},
        DatapathCase{7, 9, 3, 1, 1, 5, 6, 4, 3, 4, true}));

TEST(DatapathSim, WrappedOutputIsTranslationInvariant) {
  // Eq. 9: OFM[x] == OFM[x + c] under channel wrapping.
  Rng rng(7);
  const ConvSpec conv{8, 24, 3, 3, 1, 1};
  EpitomeSpec spec{4, 4, 4, 8};
  spec.wrap_output = true;
  const ConvLayerInfo layer = make_layer(conv, 5);
  Epitome epitome = Epitome::random(spec, conv, rng);
  Tensor x({8, 5, 5});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  DatapathSimulator sim(layer, epitome);
  const Tensor ofm = sim.run(x);
  const std::int64_t plane = 5 * 5;
  for (std::int64_t ch = 0; ch < 24 - 8; ++ch) {
    for (std::int64_t i = 0; i < plane; ++i) {
      EXPECT_FLOAT_EQ(ofm.at(ch * plane + i), ofm.at((ch + 8) * plane + i));
    }
  }
}

TEST(DatapathSim, StatsMatchPlanAccounting) {
  Rng rng(8);
  const ConvSpec conv{8, 16, 3, 3, 1, 1};
  EpitomeSpec spec{4, 4, 4, 8};
  const ConvLayerInfo layer = make_layer(conv, 6);
  Epitome epitome = Epitome::random(spec, conv, rng);
  DatapathSimulator sim(layer, epitome);
  Tensor x({8, 6, 6});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  sim.run(x);
  const auto& st = sim.stats();
  const std::int64_t positions = layer.output_positions();
  EXPECT_EQ(st.crossbar_rounds, positions * epitome.plan().active_rounds());
  EXPECT_EQ(st.replica_copies, 0);
  // Every output element is written exactly total_patches/out-coverage
  // times: here each (position, patch) writes co_len elements.
  std::int64_t writes = 0;
  for (const auto& s : epitome.plan().samples()) writes += s.co_len;
  EXPECT_EQ(st.buffer_writes, positions * writes);
}

TEST(DatapathSim, WrappingConvertsRoundsIntoCopies) {
  Rng rng(9);
  const ConvSpec conv{8, 32, 3, 3, 1, 1};
  EpitomeSpec plain{4, 4, 4, 8};
  EpitomeSpec wrapped = plain;
  wrapped.wrap_output = true;
  const ConvLayerInfo layer = make_layer(conv, 5);
  DatapathSimulator sim_a(layer, Epitome::random(plain, conv, rng));
  DatapathSimulator sim_b(layer, Epitome::random(wrapped, conv, rng));
  Tensor x({8, 5, 5});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  sim_a.run(x);
  sim_b.run(x);
  EXPECT_GT(sim_a.stats().crossbar_rounds, sim_b.stats().crossbar_rounds);
  EXPECT_GT(sim_b.stats().replica_copies, 0);
}

TEST(DatapathSim, RejectsMismatchedLayer) {
  Rng rng(10);
  const ConvSpec conv{8, 16, 3, 3, 1, 1};
  const ConvSpec other{8, 16, 3, 3, 2, 1};
  Epitome epitome = Epitome::random(EpitomeSpec{4, 4, 4, 8}, conv, rng);
  EXPECT_THROW(DatapathSimulator(make_layer(other, 6), epitome),
               InvalidArgument);
}

// ---- integer, crossbar-backed engine ----

std::vector<std::vector<int>> epitome_int_matrix(Rng& rng,
                                                 const EpitomeSpec& spec,
                                                 int bits) {
  const int lo = -(1 << (bits - 1)), hi = (1 << (bits - 1)) - 1;
  std::vector<std::vector<int>> w(
      static_cast<std::size_t>(spec.rows()),
      std::vector<int>(static_cast<std::size_t>(spec.cout_e)));
  for (auto& row : w) {
    for (auto& v : row) v = rng.uniform_int(lo, hi);
  }
  return w;
}

/// Integer reference: reconstruct conv weights from the logical matrix via a
/// float Epitome carrying the integer values, then run an integer conv.
std::vector<std::int64_t> int_reference_conv(
    const std::vector<std::vector<int>>& wmat, const EpitomeSpec& spec,
    const ConvLayerInfo& layer, const IntImage& img) {
  Epitome e(spec, layer.conv);
  for (std::int64_t col = 0; col < spec.cout_e; ++col) {
    for (std::int64_t row = 0; row < spec.rows(); ++row) {
      e.weights().at(col * spec.rows() + row) = static_cast<float>(
          wmat[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)]);
    }
  }
  const Tensor recon = e.reconstruct();
  const ConvSpec& conv = layer.conv;
  const std::int64_t oh = layer.ofm_h(), ow = layer.ofm_w();
  std::vector<std::int64_t> out(
      static_cast<std::size_t>(conv.out_channels * oh * ow), 0);
  for (std::int64_t co = 0; co < conv.out_channels; ++co) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        std::int64_t acc = 0;
        for (std::int64_t ci = 0; ci < conv.in_channels; ++ci) {
          for (std::int64_t ky = 0; ky < conv.kernel_h; ++ky) {
            for (std::int64_t kx = 0; kx < conv.kernel_w; ++kx) {
              const std::int64_t iy = oy * conv.stride + ky - conv.pad;
              const std::int64_t ix = ox * conv.stride + kx - conv.pad;
              if (iy < 0 || iy >= img.height || ix < 0 || ix >= img.width) {
                continue;
              }
              acc += static_cast<std::int64_t>(
                         recon(co, ci, ky, kx)) *
                     img.data[static_cast<std::size_t>(
                         (ci * img.height + iy) * img.width + ix)];
            }
          }
        }
        out[static_cast<std::size_t>((co * oh + oy) * ow + ox)] = acc;
      }
    }
  }
  return out;
}

struct EngineCase {
  std::int64_t cin, cout, k, hw;
  std::int64_t p, q, cin_e, cout_e;
  int weight_bits, act_bits;
  bool wrap;
};

/// An EngineCase with explicit stride and padding (EngineCase itself runs
/// stride 1, pad k / 2).
struct EngineShape {
  const char* name;
  EngineCase c;
  std::int64_t stride, pad;

  ConvSpec conv() const {
    return {c.cin, c.cout, c.k, c.k, stride, pad};
  }
  EpitomeSpec spec() const {
    EpitomeSpec s{c.p, c.q, c.cin_e, c.cout_e};
    s.wrap_output = c.wrap;
    return s;
  }
};

void PrintTo(const EngineShape& s, std::ostream* os) { *os << s.name; }

IntImage random_image(Rng& rng, std::int64_t channels, std::int64_t hw,
                      int act_bits) {
  IntImage img;
  img.channels = channels;
  img.height = hw;
  img.width = hw;
  img.data.resize(static_cast<std::size_t>(img.numel()));
  for (auto& v : img.data) {
    v = static_cast<std::uint32_t>(rng.uniform_int(0, (1 << act_bits) - 1));
  }
  return img;
}

void expect_bit_exact(const EngineShape& shape) {
  const EngineCase& c = shape.c;
  Rng rng(77);
  const EpitomeSpec spec = shape.spec();
  const ConvLayerInfo layer = make_layer(shape.conv(), c.hw);
  const auto wmat = epitome_int_matrix(rng, spec, c.weight_bits);
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  PimLayerEngine engine(layer, spec, wmat, c.weight_bits, cfg);
  const IntImage img = random_image(rng, c.cin, c.hw, c.act_bits);
  std::int64_t clips = 0;
  const IntOutput got = engine.run(img, c.act_bits, &clips);
  EXPECT_EQ(clips, 0);
  const auto want = int_reference_conv(wmat, spec, layer, img);
  ASSERT_EQ(got.data.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.data[i], want[i]) << "at " << i;
  }
}

class EngineExactness : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineExactness, BitExactAgainstIntegerConv) {
  const EngineCase& c = GetParam();
  expect_bit_exact(EngineShape{"same", c, 1, c.k / 2});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineExactness,
    ::testing::Values(
        EngineCase{6, 8, 3, 5, 4, 4, 3, 4, 4, 4, false},
        EngineCase{6, 8, 3, 5, 4, 4, 3, 4, 4, 4, true},
        EngineCase{8, 8, 1, 4, 1, 1, 4, 4, 5, 6, false},
        EngineCase{4, 10, 3, 6, 5, 5, 2, 5, 3, 8, false},
        EngineCase{12, 6, 3, 4, 4, 4, 6, 3, 8, 4, false}));

class EngineShapes : public ::testing::TestWithParam<EngineShape> {};

TEST_P(EngineShapes, BitExactAgainstIntegerConv) {
  expect_bit_exact(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineShapes,
    ::testing::Values(
        EngineShape{"stride2", {6, 8, 3, 7, 4, 4, 3, 4, 4, 4, false}, 2, 1},
        // No padding: every position is interior.
        EngineShape{"pad0", {6, 8, 3, 6, 4, 4, 3, 4, 4, 4, false}, 1, 0},
        // Image smaller than the kernel: no position is interior.
        EngineShape{"image_below_kernel",
                    {4, 6, 5, 3, 5, 5, 2, 3, 4, 4, false}, 1, 2},
        // 256 epitome rows: two row tiles.
        EngineShape{"two_row_tiles",
                    {32, 16, 3, 5, 4, 4, 16, 8, 4, 4, false}, 1, 1},
        // 32 columns x 5 slices = 160 bit lines: two column tiles, and the
        // 4-wide last output group skips the second one.
        EngineShape{"two_col_tiles",
                    {8, 36, 3, 5, 4, 4, 4, 32, 9, 4, false}, 1, 1},
        // Wrapped output over a 2 x 2 tile grid, stride 2.
        EngineShape{"wrap_tile_grid",
                    {32, 64, 3, 7, 4, 4, 16, 32, 9, 4, true}, 2, 1}),
    [](const ::testing::TestParamInfo<EngineShape>& info) {
      return info.param.name;
    });

/// Verbatim port of the per-position PimLayerEngine::run loop that predates
/// the build-time gather plan: it decodes every word line with div/mod,
/// fills enable masks and copies per-tile slices at every output position x
/// round, and calls the masked CrossbarArray::mvm overload. The tiling is
/// the production one, so tile i gets the same fault/variation draw.
class SeedEngine {
 public:
  SeedEngine(ConvLayerInfo layer, EpitomeSpec spec,
             const std::vector<std::vector<int>>& weights, int weight_bits,
             const CrossbarConfig& config,
             const NonIdealityConfig& non_ideal = {})
      : layer_(std::move(layer)), plan_(spec, layer_.conv), tables_(plan_) {
    const std::int64_t rows = spec.rows();
    const std::int64_t cols = spec.cout_e;
    const std::int64_t slices = config.weight_slices(weight_bits);
    const std::int64_t cols_per_tile =
        std::max<std::int64_t>(1, config.cols / slices);
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
        NonIdealityConfig tile_ni = non_ideal;
        tile_ni.seed = non_ideal.seed + static_cast<std::uint64_t>(
                                            tiles_.size() * 0x9E37'79B9u);
        tiles_.push_back(Tile{CrossbarArray(config, weight_bits, block,
                                            tile_ni),
                              r0, rc, c0, cc});
      }
    }
  }

  std::int64_t num_crossbars() const {
    return static_cast<std::int64_t>(tiles_.size());
  }

  IntOutput run(const IntImage& input, int act_bits,
                std::int64_t* clip_count) const {
    const ConvSpec& conv = layer_.conv;
    const std::int64_t oh = layer_.ofm_h();
    const std::int64_t ow = layer_.ofm_w();
    const std::int64_t rows = tables_.epitome_rows();

    IntOutput out;
    out.channels = conv.out_channels;
    out.height = oh;
    out.width = ow;
    out.data.assign(static_cast<std::size_t>(conv.out_channels * oh * ow), 0);

    std::vector<std::int64_t> round_co_len(
        static_cast<std::size_t>(plan_.active_rounds()), 0);
    std::vector<bool> round_seen(round_co_len.size(), false);
    for (const OfatEntry& oe : tables_.ofat()) {
      if (oe.replica_of < 0 &&
          !round_seen[static_cast<std::size_t>(oe.round)]) {
        round_seen[static_cast<std::size_t>(oe.round)] = true;
        round_co_len[static_cast<std::size_t>(oe.round)] =
            oe.co_stop - oe.co_start;
      }
    }

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
        for (const IfatEntry& fa : tables_.ifat()) {
          const IfrtSequence& seq =
              tables_.ifrt()[static_cast<std::size_t>(fa.round)];
          std::fill(line_value.begin(), line_value.end(), 0u);
          std::fill(line_enable.begin(), line_enable.end(), false);
          for (std::int64_t wl = 0; wl < rows; ++wl) {
            const std::int32_t idx =
                seq.row_to_input[static_cast<std::size_t>(wl)];
            if (idx == IfrtSequence::kInactiveRow) continue;
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
    for (const std::int64_t c : chunk_clips) *clip_count += c;
    return out;
  }

 private:
  struct Tile {
    CrossbarArray array;
    std::int64_t row_begin, row_count;
    std::int64_t col_begin, col_count;
  };

  ConvLayerInfo layer_;
  SamplePlan plan_;
  IndexTables tables_;
  std::vector<Tile> tiles_;
};

/// Restores the caller's pool size after a test that resizes it.
struct ThreadGuard {
  int saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

struct EngineRegime {
  const char* name;
  int adc_bits;
  NonIdealityConfig non_ideal;
  bool expect_clips;
};

void PrintTo(const EngineRegime& r, std::ostream* os) { *os << r.name; }

NonIdealityConfig faulty() {
  NonIdealityConfig ni;
  ni.conductance_sigma = 0.05;
  ni.stuck_at_zero_prob = 0.01;
  ni.stuck_at_max_prob = 0.005;
  return ni;
}

class EngineSeedPin : public ::testing::TestWithParam<EngineRegime> {};

TEST_P(EngineSeedPin, OutputsAndClipsEqualSeedLoop) {
  const EngineRegime& regime = GetParam();
  CrossbarConfig cfg;
  cfg.adc_bits = regime.adc_bits;
  const std::vector<EngineShape> shapes = {
      {"one_tile", {6, 8, 3, 5, 4, 4, 3, 4, 4, 4, false}, 1, 1},
      // 2 x 2 tile grid, wrapped, stride 2.
      {"wrap_tile_grid", {32, 64, 3, 7, 4, 4, 16, 32, 9, 6, true}, 2, 1},
      // 160 rows x 36 columns (2 x 2 tiles); the 4-wide last output group
      // drops the second column tile; no padding.
      {"partial_group", {20, 40, 3, 6, 4, 4, 10, 36, 9, 8, false}, 1, 0},
      // Image smaller than the kernel: every position on the border path.
      {"image_below_kernel", {4, 6, 5, 3, 5, 5, 2, 3, 6, 5, false}, 1, 2},
  };
  ThreadGuard guard;
  std::uint64_t seed_value = 1000;
  for (const EngineShape& shape : shapes) {
    const EngineCase& c = shape.c;
    Rng rng(seed_value++);
    const ConvLayerInfo layer = make_layer(shape.conv(), c.hw);
    const auto wmat = epitome_int_matrix(rng, shape.spec(), c.weight_bits);
    const PimLayerEngine engine(layer, shape.spec(), wmat, c.weight_bits, cfg,
                                regime.non_ideal);
    const SeedEngine seed(layer, shape.spec(), wmat, c.weight_bits, cfg,
                          regime.non_ideal);
    ASSERT_EQ(engine.num_crossbars(), seed.num_crossbars());
    const IntImage img = random_image(rng, c.cin, c.hw, c.act_bits);
    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      std::int64_t got_clips = 0, want_clips = 0;
      const IntOutput got = engine.run(img, c.act_bits, &got_clips);
      const IntOutput want = seed.run(img, c.act_bits, &want_clips);
      EXPECT_EQ(got.data, want.data) << shape.name << ", " << threads
                                     << " threads";
      EXPECT_EQ(got_clips, want_clips) << shape.name << ", " << threads
                                       << " threads";
      if (regime.expect_clips) {
        EXPECT_GT(got_clips, 0) << shape.name;
      } else if (regime.non_ideal.ideal()) {
        EXPECT_EQ(got_clips, 0) << shape.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, EngineSeedPin,
    ::testing::Values(
        // Ideal, 12-bit ADC: the direct int64 kernel.
        EngineRegime{"ideal_direct", 12, {}, false},
        // Ideal, starved 4-bit ADC: the bit-serial kernel on exact levels.
        EngineRegime{"ideal_serial", 4, {}, true},
        // Write variation and stuck-at faults: the analog kernel.
        EngineRegime{"analog", 12, faulty(), false}),
    [](const ::testing::TestParamInfo<EngineRegime>& info) {
      return info.param.name;
    });

TEST(PimEngine, CrossbarCountMatchesTiling) {
  Rng rng(5);
  const ConvSpec conv{8, 8, 3, 3, 1, 1};
  const EpitomeSpec spec{4, 4, 8, 8};  // 128 rows x 8 cols
  const ConvLayerInfo layer = make_layer(conv, 4);
  const auto wmat = epitome_int_matrix(rng, spec, 4);
  CrossbarConfig cfg;  // 128x128, 2-bit cells, 4 bits -> 2 slices
  PimLayerEngine engine(layer, spec, wmat, 4, cfg);
  // 128 rows fit one tile; 8 logical cols x 2 slices = 16 <= 128 -> 1 tile.
  EXPECT_EQ(engine.num_crossbars(), 1);
}

}  // namespace
}  // namespace epim
