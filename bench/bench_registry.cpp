// Multi-model registry throughput suite -- continues the BENCH_*.json perf
// trajectory (schema epim-bench-v1).
//
// Workloads, each one JSON row ({op, threads, wall_ms, items_per_sec,
// items_per_op}):
//
//   registry_single        one resident model behind the router, the whole
//                          request stream in bursts of max_batch -- the
//                          same steady-state regime as bench_serve's
//                          serve_batch16, now paying the routing layer
//   registry_fleet3        three resident models, one submitter thread per
//                          model bursting its own stream concurrently;
//                          items/s counts ALL models' completions (fleet
//                          throughput at the same total thread budget)
//   registry_fleet3_w4     same fleet, every service running 4
//                          continuous-batching workers (PR 5 sweep: the
//                          fleet's batch formation overlaps compute; the
//                          shared compute pool still caps the machine-wide
//                          thread budget)
//   registry_churn         resident budget 1, three artifact-backed
//                          models touched round-robin: every request pays
//                          materialize (artifact load + crossbar
//                          programming) + LRU eviction -- the worst-case
//                          cold path (items_per_op = swaps per pass)
//   registry_coldstart_hol resident model B serves its full stream while a
//                          background thread cold-churns the other two
//                          artifact-backed models through the remaining
//                          budget slot. Before PR 8 each materialization
//                          held the registry lock and B's stream stalled
//                          behind disk + crossbar programming
//                          (head-of-line blocking); with lock-dropped
//                          loads this row should track registry_single
//   artifact_load          one load_deployed() of an artifact (one sized
//                          read, every section checksum verified) -- the
//                          materialization I/O cost the registry pays per
//                          cold start
//
// The PR 4 acceptance gate: fleet3 throughput >= 0.8x registry_single on
// the same thread budget -- i.e. hosting three models behind one front door
// costs at most 20% of what one dedicated service delivers, because all
// residents share the one common/parallel pool instead of oversubscribing
// the machine with private pools.
//
// Usage: bench_registry [output.json] [--commit=HASH]
// The output defaults to the untracked BENCH_registry_local.json, so a bare
// run never overwrites a committed baseline.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.hpp"
#include "common/parallel.hpp"
#include "pipeline/pipeline.hpp"
#include "registry/registry.hpp"
#include "serve/service.hpp"
#include "telemetry/telemetry.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

using Clock = std::chrono::steady_clock;

struct Record {
  std::string op;
  int threads = 1;
  double wall_ms = 0.0;  ///< per operation
  double items_per_sec = 0.0;
  double items_per_op = 0.0;
};

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

template <typename Fn>
double measure_ms(Fn&& fn, double min_ms = 300.0) {
  fn();  // warmup
  std::int64_t iters = 0;
  const auto start = Clock::now();
  double elapsed_ms = 0.0;
  do {
    fn();
    ++iters;
    elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
  } while (elapsed_ms < min_ms);
  return elapsed_ms / static_cast<double>(iters);
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

/// Burst `stream` through `router` at `target` and await every result.
void push_stream(Router& router, const std::string& target,
                 const std::vector<Tensor>& stream, int burst) {
  std::vector<std::future<InferenceResult>> pending;
  pending.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size();
       i += static_cast<std::size_t>(burst)) {
    std::vector<Tensor> chunk(
        stream.begin() + static_cast<std::ptrdiff_t>(i),
        stream.begin() + static_cast<std::ptrdiff_t>(std::min(
                             stream.size(),
                             i + static_cast<std::size_t>(burst))));
    for (auto& f : router.submit_batch(target, std::move(chunk))) {
      pending.push_back(std::move(f));
    }
  }
  for (auto& f : pending) (void)f.get();
}

std::vector<Record> run_suite() {
  std::vector<Record> records;

  // Same fixed workload as bench_serve: a trained small net at W6A8 on 8x8
  // inputs, where dispatch + routing overhead is visible next to the
  // forward cost. Three artifact variants of the SAME deployment, so the
  // single-model and fleet regimes are per-model identical work.
  SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_size = 8;
  dspec.train_per_class = 12;
  dspec.test_per_class = 32;
  const SyntheticData data = make_synthetic_data(dspec);
  SmallNetConfig nc;
  nc.num_classes = 4;
  nc.image_size = 8;
  SmallEpitomeNet net(nc);
  TrainConfig tcfg;
  tcfg.epochs = 2;
  train_model(net, data, tcfg);

  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(6, 8);
  cfg.serve.max_batch = 16;
  cfg.serve.flush_deadline_ms = 2.0;
  Pipeline pipeline(cfg);

  set_num_threads(1);
  const std::vector<std::string> names = {"zoo_a", "zoo_b", "zoo_c"};
  std::vector<std::string> paths;
  for (const std::string& name : names) {
    const std::string path = "bench_registry_" + name + ".epim";
    pipeline.deploy(net, data.train).save(path);
    paths.push_back(path);
  }

  std::vector<Tensor> stream;
  for (std::int64_t i = 0; i < data.test.size(); ++i) {
    stream.push_back(data.test.sample(i));
  }
  const double n_items = static_cast<double>(stream.size());
  const int burst = cfg.serve.max_batch;

  for (int threads : {1, 2, 4}) {
    set_num_threads(threads);

    // One model behind the front door (the routing-layer overhead row).
    {
      RegistryConfig rcfg;
      rcfg.max_resident_models = 1;
      rcfg.serve = cfg.serve;
      ModelRegistry registry(rcfg);
      registry.register_artifact(names[0], "v1", paths[0]);
      Router router(registry);
      records.push_back(record(
          "registry_single", threads,
          measure_ms([&] { push_stream(router, names[0], stream, burst); }),
          n_items));
    }

    // Three resident models, one submitter per model, all at once. The
    // per-op item count is 3x the stream: fleet throughput, not per-model.
    // Swept over the per-service continuous-batching worker count (PR 5):
    // w1 is the PR 4 baseline shape, w4 runs four batch-closers per model
    // against the same shared compute pool.
    for (const int workers : {1, 4}) {
      RegistryConfig rcfg;
      rcfg.max_resident_models = 3;
      rcfg.serve = cfg.serve;
      rcfg.serve.workers = workers;
      ModelRegistry registry(rcfg);
      for (std::size_t v = 0; v < names.size(); ++v) {
        registry.register_artifact(names[v], "v1", paths[v]);
      }
      Router router(registry);
      records.push_back(record(
          workers == 1 ? "registry_fleet3"
                       : "registry_fleet3_w" + std::to_string(workers),
          threads,
          measure_ms([&] {
            std::vector<std::thread> submitters;
            for (const std::string& name : names) {
              submitters.emplace_back(
                  [&, name] { push_stream(router, name, stream, burst); });
            }
            for (std::thread& t : submitters) t.join();
          }),
          3.0 * n_items));
    }
  }

  // Eviction churn: a budget of 1 with round-robin traffic across three
  // artifact-backed models makes EVERY touch a materialize + evict cycle.
  {
    set_num_threads(1);
    RegistryConfig rcfg;
    rcfg.max_resident_models = 1;
    rcfg.serve = cfg.serve;
    ModelRegistry registry(rcfg);
    for (std::size_t v = 0; v < names.size(); ++v) {
      registry.register_artifact(names[v], "v1", paths[v]);
    }
    Router router(registry);
    constexpr int kSwapsPerPass = 9;
    records.push_back(record(
        "registry_churn", 1,
        measure_ms(
            [&] {
              for (int i = 0; i < kSwapsPerPass; ++i) {
                (void)router
                    .submit(names[static_cast<std::size_t>(i) % names.size()],
                            stream[static_cast<std::size_t>(i) %
                                   stream.size()])
                    .get();
              }
            },
            100.0),
        kSwapsPerPass));
  }

  // Cold-start head-of-line: model B stays resident and serves the full
  // stream while a background churner keeps cold-loading the other two
  // artifact-backed models through the remaining budget slot (each touch
  // is a materialize + LRU evict of the other). The registry lock is
  // dropped during materialization, so B's throughput should track the
  // registry_single row instead of stalling behind every cold load.
  {
    set_num_threads(1);
    RegistryConfig rcfg;
    rcfg.max_resident_models = 2;
    rcfg.serve = cfg.serve;
    ModelRegistry registry(rcfg);
    for (std::size_t v = 0; v < names.size(); ++v) {
      registry.register_artifact(names[v], "v1", paths[v]);
    }
    Router router(registry);
    push_stream(router, names[1], stream, burst);  // warm B resident
    std::atomic<bool> stop{false};
    std::thread churner([&] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& cold = (i++ % 2 == 0) ? names[0] : names[2];
        (void)router.submit(cold, stream[0]).get();
      }
    });
    records.push_back(record(
        "registry_coldstart_hol", 2,
        measure_ms([&] { push_stream(router, names[1], stream, burst); }),
        n_items));
    stop.store(true);
    churner.join();
  }

  // Materialization I/O: one load_deployed() of the artifact (one sized
  // read, every section checksum verified).
  set_num_threads(1);
  records.push_back(record(
      "artifact_load", 1,
      measure_ms([&] { (void)Pipeline::load_deployed(paths[0]); }, 100.0),
      1.0));

  set_num_threads(1);
  for (const std::string& path : paths) std::remove(path.c_str());
  return records;
}

}  // namespace
}  // namespace epim

int main(int argc, char** argv) {
  std::string out = "BENCH_registry_local.json";
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--commit=", 9) == 0) {
      commit = argv[i] + 9;
    } else {
      out = argv[i];
    }
  }
  const auto records = epim::run_suite();
  // Gate: fleet throughput vs the single-model row at the SAME total
  // thread budget; worst budget reported so thread scaling cannot mask a
  // fleet regression.
  std::map<int, double> single_by_threads, fleet_by_threads;
  for (const auto& r : records) {
    std::printf("%-18s threads=%d  %10.4f ms/op  %12.1f items/s\n",
                r.op.c_str(), r.threads, r.wall_ms, r.items_per_sec);
    if (r.op == "registry_single") single_by_threads[r.threads] = r.items_per_sec;
    if (r.op == "registry_fleet3") fleet_by_threads[r.threads] = r.items_per_sec;
  }
  double worst_ratio = 0.0;
  for (const auto& [threads, single] : single_by_threads) {
    const auto it = fleet_by_threads.find(threads);
    if (it == fleet_by_threads.end() || single <= 0.0) continue;
    const double ratio = it->second / single;
    std::printf("fleet3/single @ %d thread(s): %.2fx\n", threads, ratio);
    worst_ratio = worst_ratio == 0.0 ? ratio : std::min(worst_ratio, ratio);
  }
  std::printf("worst same-budget fleet3/single: %.2fx (gate: >= 0.8x)\n",
              worst_ratio);
  // Fleet telemetry the suite accumulated: the materialize wall-time digest
  // and lifecycle counters a scrape would see for the churned models
  // (registry_churn + registry_coldstart_hol re-materialize these over and
  // over, so the histogram has a real population).
  {
    namespace tm = epim::telemetry;
    tm::Registry& reg = tm::Registry::process();
    for (const char* model : {"zoo_a@v1", "zoo_b@v1", "zoo_c@v1"}) {
      const tm::Labels labels{{"model", model}};
      tm::Histogram* mat =
          reg.histogram("epim_registry_materialize_ms", labels);
      std::printf(
          "telemetry %s: materialize count=%lld p50<=%.3fms p99<=%.3fms "
          "evictions=%lld\n",
          model, static_cast<long long>(mat->count()), mat->quantile(0.5),
          mat->quantile(0.99),
          static_cast<long long>(
              reg.counter("epim_registry_evictions_total", labels)->value()));
    }
  }
  epim::write_json(records, out, commit);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
