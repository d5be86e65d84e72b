// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out:
//  (a) crossbar size sweep          -- how array geometry moves Table 1;
//  (b) memristor cell-bits sweep    -- 1/2/4-bit cells at W9A9;
//  (c) ADC resolution               -- functional clipping error on real MVMs;
//  (d) index-table storage overhead -- cost of the IFAT/IFRT/OFAT datapath;
//  (e) channel-wrapping factor      -- energy vs replication factor r.
//
// Hardware sweeps drive the Pipeline façade (one config per point);
// layer-level probes use the pipeline's estimator.
#include <cstdio>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "datapath/index_tables.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "pim/chip.hpp"
#include "pim/crossbar.hpp"
#include "pim/duplication.hpp"
#include "pipeline/pipeline.hpp"

namespace epim {
namespace {

DesignConfig baseline_design() {
  DesignConfig design;
  design.policy = DesignPolicy::kBaseline;
  return design;
}

void crossbar_size_sweep(const Network& net) {
  std::printf("--- (a) crossbar size sweep (ResNet-50, epitome 1024x256, "
              "W9A9) ---\n");
  TextTable table({"xbar", "#XB", "lat ms", "mJ", "util%"});
  for (const std::int64_t size : {64, 128, 256}) {
    PipelineConfig cfg;
    cfg.hardware.crossbar.rows = cfg.hardware.crossbar.cols = size;
    // Keep the ADC able to resolve a full column of 2-bit cells.
    cfg.hardware.crossbar.adc_bits = size == 256 ? 10 : 9;
    cfg.design.uniform.crossbar_size = size;
    const auto c = Pipeline(cfg).compile(net).estimate().cost;
    table.add_row({std::to_string(size) + "x" + std::to_string(size),
                   std::to_string(c.num_crossbars), fmt(c.latency_ms, 1),
                   fmt(c.energy_mj(), 1), fmt(100 * c.utilization, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void cell_bits_sweep(const Network& net) {
  std::printf("--- (b) memristor cell-bits sweep (W9A9) ---\n");
  TextTable table({"cell bits", "slices", "#XB", "lat ms", "mJ"});
  for (const int cell_bits : {1, 2, 4}) {
    PipelineConfig cfg;
    cfg.hardware.crossbar.cell_bits = cell_bits;
    const auto c = Pipeline(cfg).compile(net).estimate().cost;
    table.add_row({std::to_string(cell_bits),
                   std::to_string(cfg.hardware.crossbar.weight_slices(9)),
                   std::to_string(c.num_crossbars), fmt(c.latency_ms, 1),
                   fmt(c.energy_mj(), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void adc_resolution_sweep() {
  std::printf("--- (c) ADC resolution vs functional MVM error ---\n");
  Rng rng(0xADCu);
  const std::int64_t rows = 128, cols = 8;
  std::vector<std::vector<int>> w(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(cols)));
  for (auto& r : w) {
    for (auto& v : r) v = rng.uniform_int(-128, 127);
  }
  std::vector<std::uint32_t> x(static_cast<std::size_t>(rows));
  for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
  // Exact reference from a generous ADC.
  CrossbarConfig ref_cfg;
  ref_cfg.adc_bits = 14;
  const auto exact = CrossbarArray(ref_cfg, 9, w).mvm(x, 8);
  TextTable table({"adc bits", "clips", "max |err|", "rel err %"});
  for (const int bits : {5, 6, 7, 8, 9, 10}) {
    CrossbarConfig cfg;
    cfg.adc_bits = bits;
    CrossbarArray xbar(cfg, 9, w);
    std::vector<std::int64_t> got;
    std::int64_t clips = 0;
    xbar.mvm(x, std::vector<bool>(x.size(), true), 8, got, &clips);
    double max_err = 0.0, ref_mag = 1.0;
    for (std::size_t c = 0; c < got.size(); ++c) {
      max_err = std::max(max_err,
                         std::abs(static_cast<double>(got[c] - exact[c])));
      ref_mag = std::max(ref_mag, std::abs(static_cast<double>(exact[c])));
    }
    table.add_row({std::to_string(bits),
                   std::to_string(clips), fmt(max_err, 0),
                   fmt(100.0 * max_err / ref_mag, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void index_table_overhead(const Pipeline& pipeline, const Network& net) {
  std::printf("--- (d) IFAT/IFRT/OFAT storage overhead (epitome 1024x256) "
              "---\n");
  TextTable table({"network", "table entries", "epitome params",
                   "overhead %"});
  const CompiledModel model = pipeline.compile(net);
  const NetworkAssignment& uni = model.assignment();
  std::int64_t entries = 0, params = 0;
  for (std::int64_t i = 0; i < uni.num_layers(); ++i) {
    const auto& choice = uni.choice(i);
    if (!choice.has_value()) continue;
    const SamplePlan plan(*choice,
                          uni.layers()[static_cast<std::size_t>(i)].conv);
    entries += IndexTables(plan).storage_entries();
    params += choice->weight_count();
  }
  table.add_row({net.name(), std::to_string(entries), std::to_string(params),
                 fmt(100.0 * static_cast<double>(entries) /
                         static_cast<double>(params),
                     2)});
  std::printf("%s\n", table.to_string().c_str());
}

void wrap_factor_sweep(const Pipeline& pipeline) {
  std::printf("--- (e) channel-wrapping factor r vs per-layer cost ---\n");
  const PimEstimator& est = pipeline.estimator();
  TextTable table({"r", "rounds", "replicas", "lat ms", "dyn mJ"});
  // One stage-4-like layer; r grows as the epitome's cout_e shrinks.
  const ConvLayerInfo layer{"probe", ConvSpec{512, 512, 3, 3, 1, 1}, 7, 7};
  for (const std::int64_t cout_e : {512, 256, 128, 64}) {
    EpitomeSpec spec{4, 4, 64, cout_e};
    spec.wrap_output = true;
    const LayerCost c = est.eval_epitome_layer(layer, spec, 9, 9);
    table.add_row({std::to_string(512 / cout_e),
                   std::to_string(c.rounds_per_position),
                   std::to_string(c.replicas_per_position),
                   fmt(c.latency_ms, 3), fmt(c.dynamic_energy_mj, 3)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void model_zoo_sweep(const Pipeline& pipeline) {
  std::printf("--- (f) model zoo: uniform 1024x256 epitome across "
              "architectures (W9A9) ---\n");
  TextTable table({"model", "weights M", "#XB conv", "#XB epitome", "XB CR",
                   "param CR", "lat x-conv", "mJ x-conv"});
  const Network nets[] = {resnet18(), resnet34(), resnet50(), resnet101(),
                          vgg16()};
  for (const Network& net : nets) {
    const auto base =
        pipeline.compile(net, baseline_design()).estimate().cost;
    const CompiledModel model = pipeline.compile(net);
    const auto& epi = model.estimate().cost;
    table.add_row(
        {net.name(), fmt(static_cast<double>(net.total_weights()) / 1e6, 1),
         std::to_string(base.num_crossbars),
         std::to_string(epi.num_crossbars),
         fmt(static_cast<double>(base.num_crossbars) /
             static_cast<double>(epi.num_crossbars)),
         fmt(model.assignment().parameter_compression()),
         fmt(epi.latency_ms / base.latency_ms),
         fmt(epi.energy_mj() / base.energy_mj())});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void duplication_sweep(const Pipeline& pipeline, const Network& net) {
  std::printf("--- (g) weight duplication: spend saved crossbars on "
              "parallelism (epitome 1024x256, W9A9) ---\n");
  const auto conv_base =
      pipeline.compile(net, baseline_design()).estimate().cost;
  const CompiledModel model = pipeline.compile(net);
  const auto& epi_base = model.estimate().cost;
  TextTable table({"extra XB budget", "XB total", "lat ms", "speedup",
                   "vs conv baseline"});
  for (const std::int64_t budget : {0, 1000, 2000, 4000}) {
    const auto plan = plan_duplication(pipeline.estimator(),
                                       model.assignment(), model.precision(),
                                       budget);
    table.add_row({std::to_string(budget),
                   std::to_string(epi_base.num_crossbars +
                                  plan.extra_crossbars),
                   fmt(plan.latency_after_ms, 1), fmt(plan.speedup()) + "x",
                   fmt(conv_base.latency_ms / plan.latency_after_ms) + "x"});
  }
  std::printf("(conv baseline: %lld crossbars, %.1f ms)\n%s\n",
              static_cast<long long>(conv_base.num_crossbars),
              conv_base.latency_ms, table.to_string().c_str());
}

void chip_noc_sweep(const Pipeline& pipeline, const Network& net) {
  std::printf("--- (h) chip hierarchy: tiles, mesh NoC, pipelining (W9A9) "
              "---\n");
  TextTable table({"design", "tiles", "mesh", "compute ms", "NoC ms",
                   "NoC mJ", "pipelined ms/img"});
  const struct {
    const char* label;
    CompiledModel model;
  } rows[] = {{"conv baseline", pipeline.compile(net, baseline_design())},
              {"epitome 1024x256", pipeline.compile(net)}};
  for (const auto& row : rows) {
    const ChipModel chip(pipeline.estimator(), TileConfig{});
    const auto c = chip.eval(row.model.assignment(), row.model.precision());
    table.add_row({row.label, std::to_string(c.num_tiles),
                   std::to_string(c.mesh_dim) + "x" +
                       std::to_string(c.mesh_dim),
                   fmt(c.compute.latency_ms, 1), fmt(c.noc_latency_ms, 2),
                   fmt(c.noc_energy_mj, 2), fmt(c.pipelined_latency_ms, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace
}  // namespace epim

int main() {
  using namespace epim;
  std::printf("=== EPIM ablation studies ===\n\n");
  const Network net = resnet50();
  const Pipeline pipeline{PipelineConfig{}};  // uniform 1024x256, W9A9
  crossbar_size_sweep(net);
  cell_bits_sweep(net);
  adc_resolution_sweep();
  index_table_overhead(pipeline, net);
  wrap_factor_sweep(pipeline);
  model_zoo_sweep(pipeline);
  duplication_sweep(pipeline, net);
  chip_noc_sweep(pipeline, net);
  return 0;
}
