// Golden end-to-end regression tests: the paper-facing numbers and report
// rendering are pinned at string/value level, so façade or backend
// refactors cannot silently drift them. If a change legitimately moves one
// of these values, update the golden here *in the same PR* and call the
// movement out in review.
//
// Everything below is deterministic by construction: seeded RNG everywhere,
// chunk-ordered parallel reductions (common/parallel.hpp), and double/float
// arithmetic on the SSE2 baseline (no FMA contraction at default -O2), so
// the pins hold across gcc/clang at any thread count.
#include <gtest/gtest.h>

#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "pipeline/pipeline.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

TEST(GoldenReport, ResNet18DefaultSummaryPinned) {
  const CompiledModel model = Pipeline{PipelineConfig{}}.compile(resnet18());
  const std::string expected =
      "=== EPIM pipeline report: ResNet18 ===\n"
      "| metric                     | value                |\n"
      "|----------------------------+----------------------|\n"
      "| network                    | ResNet18             |\n"
      "| weighted layers            | 21                   |\n"
      "| epitome layers             | 13                   |\n"
      "| design                     | uniform 1024x256     |\n"
      "| precision                  | W9A9                 |\n"
      "| backend                    | analytical-estimator |\n"
      "| parameters (M)             | 2.96                 |\n"
      "| param compression          | 3.95x                |\n"
      "| crossbars                  | 926                  |\n"
      "| latency (ms)               | 22.8                 |\n"
      "| dynamic energy (mJ)        | 2.2                  |\n"
      "| static energy (mJ)         | 2.1                  |\n"
      "| energy (mJ)                | 4.3                  |\n"
      "| EDP (mJ*ms)                | 98                   |\n"
      "| memristor utilization      | 97.5%                |\n"
      "| top-1 accuracy (projected) | 73.95                |\n";
  EXPECT_EQ(model.summary(), expected);
}

TEST(GoldenReport, ResNet50DefaultSummaryPinned) {
  // The headline configuration of the paper reproduction: ResNet-50 under
  // the uniform 1024x256 epitome policy at W9A9.
  const CompiledModel model = Pipeline{PipelineConfig{}}.compile(resnet50());
  const std::string expected =
      "=== EPIM pipeline report: ResNet50 ===\n"
      "| metric                     | value                |\n"
      "|----------------------------+----------------------|\n"
      "| network                    | ResNet50             |\n"
      "| weighted layers            | 54                   |\n"
      "| epitome layers             | 33                   |\n"
      "| design                     | uniform 1024x256     |\n"
      "| precision                  | W9A9                 |\n"
      "| backend                    | analytical-estimator |\n"
      "| parameters (M)             | 7.20                 |\n"
      "| param compression          | 3.54x                |\n"
      "| crossbars                  | 2236                 |\n"
      "| latency (ms)               | 49.2                 |\n"
      "| dynamic energy (mJ)        | 6.5                  |\n"
      "| static energy (mJ)         | 11.0                 |\n"
      "| energy (mJ)                | 17.5                 |\n"
      "| EDP (mJ*ms)                | 859                  |\n"
      "| memristor utilization      | 98.3%                |\n"
      "| top-1 accuracy (projected) | 73.96                |\n";
  EXPECT_EQ(model.summary(), expected);
}

TEST(GoldenQuickstart, TrainDeployAccuracyPinned) {
  // The quickstart train->deploy loop (same spec as the README / example
  // flow): float accuracy, on-chip accuracy, crossbar count and clip count
  // are all pinned. Seeded data synthesis + seeded init + deterministic
  // parallel reductions make this exact.
  SyntheticSpec dspec;
  dspec.num_classes = 5;
  dspec.train_per_class = 20;
  dspec.test_per_class = 10;
  dspec.noise = 0.3f;
  const SyntheticData data = make_synthetic_data(dspec);
  SmallNetConfig nspec;
  nspec.num_classes = 5;
  SmallEpitomeNet net(nspec);
  TrainConfig tcfg;
  tcfg.epochs = 4;
  const TrainResult trained = train_model(net, data, tcfg);
  EXPECT_DOUBLE_EQ(trained.test_accuracy, 0.62);

  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(8, 10);
  DeployedModel chip = Pipeline(cfg).deploy(net, data.train);
  EXPECT_EQ(chip.total_crossbars(), 4);
  std::int64_t clips = -1;
  EXPECT_DOUBLE_EQ(chip.evaluate(data.test, &clips), 0.62);
  EXPECT_EQ(clips, 0);
}

}  // namespace
}  // namespace epim
