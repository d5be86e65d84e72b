// Tests for src/datapath: index-table construction and the repo's central
// correctness contract -- an epitome layer executed through the
// IFAT/IFRT/OFAT datapath equals the convolution with the epitome's
// reconstructed weights, in float (DatapathSimulator) and bit-exactly in
// integers on functional crossbars (PimLayerEngine).
#include <gtest/gtest.h>

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

class EngineExactness : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineExactness, BitExactAgainstIntegerConv) {
  const auto c = GetParam();
  Rng rng(77);
  const ConvSpec conv{c.cin, c.cout, c.k, c.k, 1, c.k / 2};
  EpitomeSpec spec{c.p, c.q, c.cin_e, c.cout_e};
  spec.wrap_output = c.wrap;
  const ConvLayerInfo layer = make_layer(conv, c.hw);
  const auto wmat = epitome_int_matrix(rng, spec, c.weight_bits);
  CrossbarConfig cfg;
  cfg.adc_bits = 12;
  PimLayerEngine engine(layer, spec, wmat, c.weight_bits, cfg);
  IntImage img;
  img.channels = c.cin;
  img.height = c.hw;
  img.width = c.hw;
  img.data.resize(static_cast<std::size_t>(img.numel()));
  for (auto& v : img.data) {
    v = static_cast<std::uint32_t>(rng.uniform_int(0, (1 << c.act_bits) - 1));
  }
  std::int64_t clips = 0;
  const IntOutput got = engine.run(img, c.act_bits, &clips);
  EXPECT_EQ(clips, 0);
  const auto want = int_reference_conv(wmat, spec, layer, img);
  ASSERT_EQ(got.data.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.data[i], want[i]) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineExactness,
    ::testing::Values(
        EngineCase{6, 8, 3, 5, 4, 4, 3, 4, 4, 4, false},
        EngineCase{6, 8, 3, 5, 4, 4, 3, 4, 4, 4, true},
        EngineCase{8, 8, 1, 4, 1, 1, 4, 4, 5, 6, false},
        EngineCase{4, 10, 3, 6, 5, 5, 2, 5, 3, 8, false},
        EngineCase{12, 6, 3, 4, 4, 4, 6, 3, 8, 4, false}));

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
