// Kernel-level microbenchmarks (google-benchmark): the hot paths of the
// library -- epitome reconstruction, quantization, functional crossbar MVM
// (all three kernel regimes), the datapath executor, whole-network
// estimation, and the thread-scaling sweeps of runtime evaluation and
// evolution search (Arg = thread count).
#include <benchmark/benchmark.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/epitome.hpp"
#include "datapath/datapath_sim.hpp"
#include "nn/resnet.hpp"
#include "pim/crossbar.hpp"
#include "quant/epitome_quant.hpp"
#include "runtime/pim_runtime.hpp"
#include "search/evolution.hpp"
#include "sim/simulator.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

void BM_EpitomeReconstruct(benchmark::State& state) {
  Rng rng(1);
  const ConvSpec conv{512, 512, 3, 3, 1, 1};
  const Epitome e =
      Epitome::random(EpitomeSpec{4, 4, 64, 256}, conv, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.reconstruct());
  }
  state.SetItemsProcessed(state.iterations() * conv.weight_count());
}
BENCHMARK(BM_EpitomeReconstruct);

void BM_RepetitionMap(benchmark::State& state) {
  Rng rng(2);
  const ConvSpec conv{512, 512, 3, 3, 1, 1};
  const Epitome e =
      Epitome::random(EpitomeSpec{4, 4, 64, 256}, conv, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.repetition_map());
  }
}
BENCHMARK(BM_RepetitionMap);

void BM_EpitomeQuantize(benchmark::State& state) {
  Rng rng(3);
  const ConvSpec conv{512, 512, 3, 3, 1, 1};
  const Epitome e =
      Epitome::random(EpitomeSpec{4, 4, 64, 256}, conv, rng);
  QuantConfig cfg;
  cfg.bits = static_cast<int>(state.range(0));
  const EpitomeQuantizer quantizer(cfg);
  for (auto _ : state) {
    QuantNoise noise;
    benchmark::DoNotOptimize(quantizer.quantize(e, noise));
    benchmark::DoNotOptimize(noise);
  }
}
BENCHMARK(BM_EpitomeQuantize)->Arg(3)->Arg(9);

std::vector<std::vector<int>> mvm_weights(Rng& rng, std::int64_t rows,
                                          std::int64_t cols) {
  std::vector<std::vector<int>> w(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(cols)));
  for (auto& r : w) {
    for (auto& v : r) v = rng.uniform_int(-128, 127);
  }
  return w;
}

/// MVM in all three kernel regimes: ideal wide-ADC (direct int64 path),
/// ideal starved-ADC (the bit-serial loop on exact levels), and non-ideal
/// (the bit-serial loop on perturbed levels).
void BM_CrossbarMvm(benchmark::State& state) {
  Rng rng(4);
  const std::int64_t rows = 128, cols = 16;
  const auto w = mvm_weights(rng, rows, cols);
  CrossbarConfig cfg;
  cfg.adc_bits = static_cast<int>(state.range(0));
  NonIdealityConfig non_ideal;
  non_ideal.conductance_sigma = state.range(1) != 0 ? 0.1 : 0.0;
  CrossbarArray xbar(cfg, 9, w, non_ideal);
  std::vector<std::uint32_t> x(static_cast<std::size_t>(rows));
  for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(0, 511));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xbar.mvm(x, 9));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_CrossbarMvm)
    ->ArgNames({"adc", "noisy"})
    ->Args({12, 0})   // ideal, wide ADC: direct integer path
    ->Args({8, 0})    // ideal, starved ADC: bit-serial loop, exact levels
    ->Args({12, 1});  // non-ideal: bit-serial loop, perturbed levels

void BM_DatapathLayer(benchmark::State& state) {
  Rng rng(5);
  const ConvSpec conv{32, 32, 3, 3, 1, 1};
  const ConvLayerInfo layer{"probe", conv, 8, 8};
  Epitome e = Epitome::random(EpitomeSpec{4, 4, 16, 16}, conv, rng);
  DatapathSimulator sim(layer, e);
  Tensor x({32, 8, 8});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(x));
  }
}
BENCHMARK(BM_DatapathLayer);

void BM_EstimateResNet50(benchmark::State& state) {
  const Network net = resnet50();
  const auto uni = NetworkAssignment::uniform(net, UniformDesign{});
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  const auto precision = PrecisionConfig::uniform(9, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.eval_network(uni, precision));
  }
}
BENCHMARK(BM_EstimateResNet50);

// ---- thread-scaling sweeps (Arg = thread count) ----

struct DeployedModel {
  SyntheticData data;
  SmallEpitomeNet net;

  static DeployedModel& instance() {
    static DeployedModel* m = [] {
      SyntheticSpec dspec;
      dspec.num_classes = 4;
      dspec.train_per_class = 12;
      dspec.test_per_class = 16;
      auto* model = new DeployedModel{make_synthetic_data(dspec),
                                      SmallEpitomeNet([] {
                                        SmallNetConfig c;
                                        c.num_classes = 4;
                                        return c;
                                      }())};
      TrainConfig tcfg;
      tcfg.epochs = 2;  // throughput benchmark, accuracy irrelevant
      train_model(model->net, model->data, tcfg);
      return model;
    }();
    return *m;
  }
};

/// Whole-dataset on-chip evaluation; images fan out across threads.
void BM_RuntimeEvaluate(benchmark::State& state) {
  auto& m = DeployedModel::instance();
  RuntimeConfig cfg;
  cfg.crossbar.adc_bits = 12;
  PimNetworkRuntime runtime(m.net, m.data.train, cfg);
  set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.evaluate(m.data.test));
  }
  state.SetItemsProcessed(state.iterations() * m.data.test.size());
  set_num_threads(1);
}
BENCHMARK(BM_RuntimeEvaluate)->Arg(1)->Arg(2)->Arg(4);

/// Evolution-search candidate scoring; genomes fan out across threads.
void BM_EvolutionSearch(benchmark::State& state) {
  const Network net = mini_resnet();
  PimEstimator est(CrossbarConfig{}, HardwareLut{});
  EvoSearchConfig cfg;
  cfg.population = 16;
  cfg.parents = 4;
  cfg.iterations = 4;
  cfg.crossbar_budget = 400;
  set_num_threads(static_cast<int>(state.range(0)));
  std::int64_t evaluations = 0;
  for (auto _ : state) {
    EvolutionSearch search(net, est, cfg);
    const auto result = search.run();
    evaluations += result.evaluations;
    benchmark::DoNotOptimize(result.best_reward);
  }
  state.SetItemsProcessed(evaluations);
  set_num_threads(1);
}
BENCHMARK(BM_EvolutionSearch)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace epim

BENCHMARK_MAIN();
