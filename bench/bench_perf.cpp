// Fixed-workload performance suite -- the tracked perf trajectory.
//
// Runs a pinned set of hot-path workloads (crossbar MVM in every kernel
// regime, a seed-layout reference MVM for the speedup ratio, on-chip
// runtime evaluation and evolution search at 1/2/4 threads, float conv2d)
// and writes one JSON record per workload:
//
//   { "op": ..., "threads": N, "wall_ms": per-op, "items_per_sec": ...,
//     "items_per_op": ... }
//
// Every PR appends its BENCH_<pr>.json to the repo, so regressions are
// visible in review. Needs no external dependency (unlike bench_micro's
// google-benchmark): this binary is the CI smoke test.
//
// Usage: bench_perf [output.json] [--commit=HASH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/conv_exec.hpp"
#include "nn/resnet.hpp"
#include "pim/crossbar.hpp"
#include "pim/estimator.hpp"
#include "runtime/pim_runtime.hpp"
#include "search/evolution.hpp"
#include "telemetry/telemetry.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

struct Record {
  std::string op;
  int threads = 1;
  double wall_ms = 0.0;        ///< per operation
  double items_per_sec = 0.0;
  double items_per_op = 0.0;
};

/// Time fn (called repeatedly) until `min_ms` of wall clock accumulates;
/// returns milliseconds per call. One untimed warmup call first.
template <typename Fn>
double measure_ms(Fn&& fn, double min_ms = 200.0) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup
  std::int64_t iters = 0;
  const auto start = clock::now();
  double elapsed_ms = 0.0;
  do {
    fn();
    ++iters;
    elapsed_ms = std::chrono::duration<double, std::milli>(clock::now() -
                                                           start)
                     .count();
  } while (elapsed_ms < min_ms);
  return elapsed_ms / static_cast<double>(iters);
}

Record record(std::string op, int threads, double wall_ms,
              double items_per_op) {
  Record r;
  r.op = std::move(op);
  r.threads = threads;
  r.wall_ms = wall_ms;
  r.items_per_op = items_per_op;
  r.items_per_sec = items_per_op / (wall_ms * 1e-3);
  return r;
}

/// The seed (pre-PR-2) crossbar MVM: nested vector-of-vectors cell store
/// walked bit-serially through double column currents in every mode. Kept
/// here so the tracked JSON always carries the flat-kernel speedup ratio.
struct SeedReferenceMvm {
  std::int64_t rows, cols, slices, offset;
  int adc_bits, cell_bits;
  std::vector<std::vector<std::vector<double>>> cells;

  SeedReferenceMvm(const CrossbarConfig& cfg, int weight_bits,
                   const std::vector<std::vector<int>>& w)
      : rows(static_cast<std::int64_t>(w.size())),
        cols(static_cast<std::int64_t>(w.front().size())),
        slices(cfg.weight_slices(weight_bits)),
        offset(std::int64_t{1} << (weight_bits - 1)),
        adc_bits(cfg.adc_bits),
        cell_bits(cfg.cell_bits) {
    const int radix_mask = (1 << cell_bits) - 1;
    cells.assign(static_cast<std::size_t>(slices),
                 std::vector<std::vector<double>>(
                     static_cast<std::size_t>(rows),
                     std::vector<double>(static_cast<std::size_t>(cols))));
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        std::int64_t stored =
            static_cast<std::int64_t>(
                w[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]) +
            offset;
        for (std::int64_t s = 0; s < slices; ++s) {
          cells[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)]
               [static_cast<std::size_t>(c)] =
                   static_cast<double>(stored & radix_mask);
          stored >>= cell_bits;
        }
      }
    }
  }

  std::vector<std::int64_t> mvm(const std::vector<std::uint32_t>& input,
                                int act_bits) const {
    const std::int64_t adc_max = (std::int64_t{1} << adc_bits) - 1;
    std::vector<std::int64_t> acc(static_cast<std::size_t>(cols), 0);
    std::vector<double> current(static_cast<std::size_t>(cols));
    std::int64_t input_sum = 0;
    for (int t = 0; t < act_bits; ++t) {
      for (std::int64_t s = 0; s < slices; ++s) {
        const auto& plane = cells[static_cast<std::size_t>(s)];
        std::fill(current.begin(), current.end(), 0.0);
        for (std::int64_t r = 0; r < rows; ++r) {
          if (((input[static_cast<std::size_t>(r)] >> t) & 1u) == 0u) {
            continue;
          }
          const auto& row = plane[static_cast<std::size_t>(r)];
          for (std::int64_t c = 0; c < cols; ++c) {
            current[static_cast<std::size_t>(c)] +=
                row[static_cast<std::size_t>(c)];
          }
        }
        for (std::int64_t c = 0; c < cols; ++c) {
          std::int64_t code = static_cast<std::int64_t>(
              std::llround(current[static_cast<std::size_t>(c)]));
          code = std::clamp<std::int64_t>(code, 0, adc_max);
          acc[static_cast<std::size_t>(c)] +=
              code << (t + static_cast<int>(s) * cell_bits);
        }
      }
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      input_sum += input[static_cast<std::size_t>(r)];
    }
    for (std::int64_t c = 0; c < cols; ++c) {
      acc[static_cast<std::size_t>(c)] -= offset * input_sum;
    }
    return acc;
  }
};

std::vector<Record> run_suite() {
  std::vector<Record> records;
  Rng rng(42);
  const std::int64_t rows = 128, cols = 16;
  std::vector<std::vector<int>> w(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(cols)));
  for (auto& r : w) {
    for (auto& v : r) v = rng.uniform_int(-128, 127);
  }
  std::vector<std::uint32_t> x(static_cast<std::size_t>(rows));
  for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(0, 511));
  const double mvm_items = static_cast<double>(rows * cols);

  set_num_threads(1);

  // One row_enable mask shared by the timed lambdas: allocations must not
  // leak into the measured kernel.
  const std::vector<bool> all_rows(x.size(), true);
  {
    CrossbarConfig cfg;
    cfg.adc_bits = 12;
    const CrossbarArray xbar(cfg, 9, w);  // ideal + wide ADC: direct path
    std::vector<std::int64_t> acc;
    records.push_back(record(
        "mvm_flat_ideal", 1,
        measure_ms([&] { xbar.mvm(x, all_rows, 9, acc, nullptr); }),
        mvm_items));
  }
  {
    CrossbarConfig cfg;
    // Starved below this tile's worst-case column current, so the bit-serial
    // loop runs on exact levels (at 8 bits no input can clip this tile and
    // the array takes the direct path).
    cfg.adc_bits = 6;
    const CrossbarArray xbar(cfg, 9, w);
    std::vector<std::int64_t> acc;
    records.push_back(record(
        "mvm_flat_serial", 1,
        measure_ms([&] { xbar.mvm(x, all_rows, 9, acc, nullptr); }),
        mvm_items));
  }
  {
    CrossbarConfig cfg;
    cfg.adc_bits = 12;
    NonIdealityConfig ni;
    ni.conductance_sigma = 0.1;
    const CrossbarArray xbar(cfg, 9, w, ni);  // analog path
    std::vector<std::int64_t> acc;
    records.push_back(record(
        "mvm_flat_analog", 1,
        measure_ms([&] { xbar.mvm(x, all_rows, 9, acc, nullptr); }),
        mvm_items));
  }
  {
    CrossbarConfig cfg;
    cfg.adc_bits = 12;
    const SeedReferenceMvm seed(cfg, 9, w);
    records.push_back(record(
        "mvm_seed_reference", 1,
        measure_ms([&] {
          volatile std::int64_t sink = seed.mvm(x, 9).back();
          (void)sink;
        }),
        mvm_items));
  }

  // Float reference conv2d (im2col + fused-transpose matmul).
  {
    Rng crng(7);
    Tensor img({32, 16, 16});
    Tensor weight({64, 32, 3, 3});
    crng.fill_normal(img.data(), static_cast<std::size_t>(img.numel()), 0.0f,
                     1.0f);
    crng.fill_normal(weight.data(),
                     static_cast<std::size_t>(weight.numel()), 0.0f, 0.1f);
    const double macs = 64.0 * 32 * 3 * 3 * 16 * 16;
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      records.push_back(record(
          "conv2d_float", threads,
          measure_ms([&] {
            volatile float sink = conv2d(img, weight, 1, 1).at(0);
            (void)sink;
          }),
          macs));
    }
    set_num_threads(1);
  }

  // On-chip runtime evaluation (the deployment hot loop).
  {
    SyntheticSpec dspec;
    dspec.num_classes = 4;
    dspec.train_per_class = 12;
    dspec.test_per_class = 16;
    SyntheticData data = make_synthetic_data(dspec);
    SmallNetConfig nc;
    nc.num_classes = 4;
    SmallEpitomeNet net(nc);
    TrainConfig tcfg;
    tcfg.epochs = 2;  // throughput workload; accuracy irrelevant
    train_model(net, data, tcfg);
    RuntimeConfig rcfg;
    rcfg.crossbar.adc_bits = 12;
    PimNetworkRuntime runtime(net, data.train, rcfg);
    const double images = static_cast<double>(data.test.size());
    for (int threads : {1, 2, 4}) {
      set_num_threads(threads);
      records.push_back(record(
          "runtime_evaluate", threads,
          measure_ms([&] { runtime.evaluate(data.test); }, 400.0), images));
    }
    set_num_threads(1);
  }

  // Evolution search (candidate scoring fan-out).
  {
    const Network net = mini_resnet();
    PimEstimator est(CrossbarConfig{}, HardwareLut{});
    EvoSearchConfig cfg;
    cfg.population = 16;
    cfg.parents = 4;
    cfg.iterations = 4;
    cfg.crossbar_budget = 400;
    const double evals = static_cast<double>(cfg.population) * cfg.iterations;
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      records.push_back(record(
          "evolution_search", threads,
          measure_ms([&] { EvolutionSearch(net, est, cfg).run(); }, 400.0),
          evals));
    }
    set_num_threads(1);
  }

  return records;
}

void write_json(const std::vector<Record>& records, const std::string& path,
                const std::string& commit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"epim-bench-v1\",\n");
  std::fprintf(f, "  \"commit\": \"%s\",\n", commit.c_str());
  // Build context: a lockdep/sanitizer build is not comparable with the
  // committed Release trajectory, so rows carry their flavor.
  std::fprintf(f, "  \"build_flavor\": \"%s\",\n", build_flavor());
  std::fprintf(f, "  \"lock_debug\": %s,\n",
               debug::kLockDebugEnabled ? "true" : "false");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"threads\": %d, \"wall_ms\": %.4f, "
                 "\"items_per_sec\": %.1f, \"items_per_op\": %.0f}%s\n",
                 r.op.c_str(), r.threads, r.wall_ms, r.items_per_sec,
                 r.items_per_op, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace epim

int main(int argc, char** argv) {
  std::string out = "BENCH.json";
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--commit=", 9) == 0) {
      commit = argv[i] + 9;
    } else {
      out = argv[i];
    }
  }
  const auto records = epim::run_suite();
  for (const auto& r : records) {
    std::printf("%-20s threads=%d  %10.4f ms/op  %12.1f items/s\n",
                r.op.c_str(), r.threads, r.wall_ms, r.items_per_sec);
  }
  // Pool telemetry the suite accumulated (every parallel region above is a
  // pool job): what a fleet scrape of this process would report.
  {
    namespace tm = epim::telemetry;
    tm::Registry& reg = tm::Registry::process();
    std::printf(
        "telemetry: pool_jobs=%lld pool_queue_depth_high_water=%lld\n",
        static_cast<long long>(reg.counter("epim_pool_jobs_total")->value()),
        static_cast<long long>(
            reg.gauge("epim_pool_queue_depth")->high_water()));
  }
  epim::write_json(records, out, commit);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
