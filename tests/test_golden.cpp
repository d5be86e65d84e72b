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

#include <ostream>
#include <string>

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

/// One uniform ResNet-50 design point at A9 and the default seed: the
/// projected top-1 and the quantization noise it is projected from.
struct AccuracyPin {
  const char* name;
  int weight_bits;
  RangeScheme scheme;
  double weighted_mse, weight_power, projected_accuracy;
};

void PrintTo(const AccuracyPin& p, std::ostream* os) {
  *os << p.name << " W" << p.weight_bits << ' '
      << range_scheme_name(p.scheme);
}

class GoldenAccuracy : public ::testing::TestWithParam<AccuracyPin> {};

TEST_P(GoldenAccuracy, ResNet50UniformProjectionPinnedExactly) {
  // The summary prints accuracy to two decimals; these pins are exact, so
  // any change to the noise measurement or the projection shows here.
  const AccuracyPin& p = GetParam();
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(p.weight_bits, 9);
  cfg.quant.scheme = p.scheme;
  const CompiledModel model = Pipeline{cfg}.compile(resnet50());
  const auto& eval = model.estimate();
  EXPECT_EQ(eval.weighted_mse, p.weighted_mse);
  EXPECT_EQ(eval.weight_power, p.weight_power);
  EXPECT_EQ(eval.projected_accuracy, p.projected_accuracy);
}

std::string accuracy_pin_name(
    const ::testing::TestParamInfo<AccuracyPin>& info) {
  return info.param.name;
}

// The four uniform estimates of epimbench's design-sweep workload, under
// the default (overlap-weighted) range scheme.
INSTANTIATE_TEST_SUITE_P(
    DesignSweep, GoldenAccuracy,
    ::testing::Values(
        AccuracyPin{"W9", 9, RangeScheme::kOverlapWeighted,
                    5.3321405275602664e-07, 0.0038471462144105519,
                    73.956440471399375},
        AccuracyPin{"W7", 7, RangeScheme::kOverlapWeighted,
                    6.4842445155109331e-06, 0.0038471462144105519,
                    73.848098497518876},
        AccuracyPin{"W5", 5, RangeScheme::kOverlapWeighted,
                    0.00010660817213514603, 0.0038471462144105519,
                    73.384075291771325},
        AccuracyPin{"W3", 3, RangeScheme::kOverlapWeighted,
                    0.0016198602277670412, 0.0038471462144105519,
                    71.599116156663797}),
    accuracy_pin_name);

// The other two range schemes at W3, where the schemes differ most (the
// overlap-weighted W3 point is DesignSweep/W3).
INSTANTIATE_TEST_SUITE_P(
    RangeSchemes, GoldenAccuracy,
    ::testing::Values(
        AccuracyPin{"MinMax", 3, RangeScheme::kMinMax, 0.001910993471727422,
                    0.0038471462144105519, 71.392273864954106},
        AccuracyPin{"PerCrossbar", 3, RangeScheme::kPerCrossbar,
                    0.0016498343780429906, 0.0038471462144105519,
                    71.577004808282069}),
    accuracy_pin_name);

}  // namespace
}  // namespace epim
