// Serving throughput suite -- continues the BENCH_*.json perf trajectory.
//
// Workloads, each recorded as one JSON row ({op, threads, wall_ms,
// items_per_sec, items_per_op}, schema epim-bench-v1):
//
//   artifact_save / artifact_load   durable-artifact round-trip
//                                   (items_per_op = artifact bytes)
//   serve_single                    one request at a time through the
//                                   service, awaiting each future (pays the
//                                   flush deadline per request)
//   serve_batch<k>                  submit_batch bursts of k
//   serve_saturated_w<N>            the whole stream enqueued as ONE burst
//                                   (saturated queue) against a service
//                                   with N continuous-batching workers --
//                                   the PR 5 worker sweep. Every row also
//                                   verifies its logits bit-identical to
//                                   the direct forward_batch reference.
//   direct_evaluate                 PimNetworkRuntime::evaluate, the
//                                   unbatched in-process reference
//   serve_faulted1pct_w2            the saturated workers=2 workload with
//                                   the serve.run_batch fault point armed
//                                   at prob 1% (seeded): items_per_op is
//                                   the mean number of requests that still
//                                   SUCCEEDED per pass, so items_per_sec is
//                                   useful-goodput under injected batch
//                                   faults -- the PR 7 degradation row.
//                                   Surviving logits stay bit-identical to
//                                   the clean reference.
//   serve_telemetry_overhead        the saturated workers=2 workload run
//                                   twice in one binary: metrics recording
//                                   ON (the default) vs OFF
//                                   (telemetry::set_recording(false)).
//                                   wall_ms/items_per_sec describe the ON
//                                   pass; items_per_op is the ON/OFF
//                                   throughput ratio x100 (99 = 0.99x).
//                                   The PR 9 gate: >= 95, i.e. relaxed-
//                                   atomic instrumentation costs at most 5%
//                                   of saturated serving throughput.
//   serve_mixed_priority_w4         caller-side exact p99 latency of
//                                   kInteractive singles while a feeder
//                                   thread keeps a deep kBulk backlog
//                                   queued, measured twice: SLA scheduling
//                                   on (distinct priorities/clients) vs the
//                                   FIFO baseline (everything kNormal, one
//                                   client). wall_ms is the scheduled p99;
//                                   items_per_op is the FIFO/scheduled p99
//                                   ratio x100. The PR 10 gate: >= 143,
//                                   i.e. scheduling cuts interactive p99
//                                   under bulk load to <= 0.7x FIFO.
//   serve_burst_resliced_w4         a 2x-max_batch burst awaited whole
//                                   against 4 workers, re-slicing on vs
//                                   off. Off closes ceil(burst/max_batch)
//                                   greedy batches (2 workers busy); on
//                                   slices it across every idle worker.
//                                   items_per_op is the off/on wall ratio
//                                   x100; the PR 10 gate: >= 120.
//
// Acceptance gates along the BENCH trajectory: serve_batch throughput
// >= 2x serve_single on the same thread budget (PR 3), and the workers=4
// saturated row >= 1.3x the workers=1 row at 4 pool threads (PR 5). The
// worker gate needs real cores to show: multiple workers overlap batch
// formation and per-batch fork/join latency with compute, but a 1-core
// host is work-conserving under a saturated queue, so every worker count
// sustains the same items/s there (the JSON records the host's cpu count
// next to the rows; CI's multi-core perf-smoke run is the arbiter).
//
// Usage: bench_serve [output.json] [--commit=HASH] [--enforce-worker-gate]
//                    [--enforce-telemetry-gate] [--enforce-sched-gate]
// The output defaults to the untracked BENCH_serve_local.json, so a bare
// run never overwrites a committed baseline.
// --enforce-worker-gate exits non-zero when the host has >= 4 cpus and the
// saturated workers=4/workers=1 ratio at 4 pool threads falls below 1.3x
// (on hosts with fewer cpus the gate is reported but cannot bind).
// --enforce-telemetry-gate exits non-zero when the recording-on/off ratio
// falls below 0.95x.
// --enforce-sched-gate exits non-zero when the host has >= 4 cpus and
// either scheduling gate fails: mixed-priority p99 ratio < 1.43x or the
// re-slice wall ratio < 1.2x. Like the worker gate, both need real cores
// (a 1-core host serializes batch compute whatever the schedule), so on
// smaller hosts they are reported as warnings and cannot bind. The JSON is
// written before any gate is evaluated.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/fault_inject.hpp"
#include "common/parallel.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/artifact.hpp"
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

std::int64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<std::int64_t>(in.tellg()) : 0;
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
  // Host context: the worker sweep is core-count sensitive (see header).
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
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

std::vector<Record> run_suite() {
  std::vector<Record> records;

  // Fixed workload: a trained small net deployed at W6A8 (accuracy is
  // irrelevant here; the forward pass cost is what we serve). 8x8 inputs
  // keep one request in the low-millisecond range -- the regime where
  // per-request dispatch cost and the flush deadline dominate, i.e. where
  // dynamic batching earns its keep.
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
  cfg.serve.max_batch = 16;
  cfg.serve.flush_deadline_ms = 2.0;
  Pipeline pipeline(cfg);

  set_num_threads(1);
  const std::string path = "bench_serve.epim";
  {
    DeployedModel chip = pipeline.deploy(net, data.train);
    chip.save(path);  // materialize once so the size is known up front
    const double bytes = static_cast<double>(file_bytes(path));
    records.push_back(record(
        "artifact_save", 1, measure_ms([&] { chip.save(path); }, 100.0),
        bytes));
    records.push_back(record(
        "artifact_load", 1,
        measure_ms([&] { (void)Pipeline::load_deployed(path); }, 100.0),
        bytes));
  }

  // Pre-extract the request stream once, plus the direct forward_batch
  // reference logits every serving row must reproduce bit for bit.
  std::vector<Tensor> stream;
  for (std::int64_t i = 0; i < data.test.size(); ++i) {
    stream.push_back(data.test.sample(i));
  }
  const double n_items = static_cast<double>(stream.size());
  std::vector<Tensor> reference;
  {
    DeployedModel chip = Pipeline::load_deployed(path);
    reference = chip.forward_batch(stream);
  }
  const auto check_identical = [&](const std::vector<InferenceResult>& got,
                                   const char* row) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Tensor& want = reference[i];
      bool same = got[i].logits.shape() == want.shape();
      for (std::int64_t j = 0; same && j < want.numel(); ++j) {
        same = got[i].logits.at(j) == want.at(j);
      }
      if (!same) {
        std::fprintf(stderr,
                     "%s: logits diverge from direct forward_batch at image "
                     "%zu -- determinism contract broken\n",
                     row, i);
        std::exit(1);
      }
    }
  };

  for (int threads : {1, 2, 4}) {
    set_num_threads(threads);

    // In-process reference: direct unbatched evaluation.
    {
      DeployedModel chip = Pipeline::load_deployed(path);
      records.push_back(record(
          "direct_evaluate", threads,
          measure_ms([&] { chip.evaluate(data.test); }), n_items));
    }

    // One request at a time: every request waits out the flush deadline
    // alone -- the cost dynamic batching exists to amortize.
    {
      InferenceService service =
          std::move(Pipeline::load_deployed(path)).serve(cfg.serve);
      records.push_back(record(
          "serve_single", threads,
          measure_ms([&] {
            for (Tensor& image : stream) {
              (void)service.submit(image).get();
            }
          }),
          n_items));
    }

    // Bursts: full batches flush immediately and fan out across the pool.
    for (int burst : {4, 16}) {
      InferenceService service =
          std::move(Pipeline::load_deployed(path)).serve(cfg.serve);
      records.push_back(record(
          "serve_batch" + std::to_string(burst), threads,
          measure_ms([&] {
            std::vector<std::future<InferenceResult>> pending;
            for (std::size_t i = 0; i < stream.size();
                 i += static_cast<std::size_t>(burst)) {
              std::vector<Tensor> chunk(
                  stream.begin() + static_cast<std::ptrdiff_t>(i),
                  stream.begin() +
                      static_cast<std::ptrdiff_t>(std::min(
                          stream.size(),
                          i + static_cast<std::size_t>(burst))));
              for (auto& f : service.submit_batch(std::move(chunk))) {
                pending.push_back(std::move(f));
              }
            }
            for (auto& f : pending) (void)f.get();
          }),
          n_items));
    }

    // Worker sweep on a saturated queue: the whole stream lands as one
    // burst, so every worker always finds a full batch to close -- the
    // regime where continuous batching overlaps batch formation and
    // per-batch fork/join latency with compute. Each row first replays the
    // workload once, checking every logit against the direct
    // forward_batch reference (the PR 5 determinism gate).
    for (int workers : {1, 2, 4}) {
      ServeConfig scfg = cfg.serve;
      scfg.workers = workers;
      InferenceService service =
          std::move(Pipeline::load_deployed(path)).serve(scfg);
      const std::string op = "serve_saturated_w" + std::to_string(workers);
      const auto saturated_pass = [&] {
        std::vector<Tensor> burst = stream;
        std::vector<std::future<InferenceResult>> pending =
            service.submit_batch(std::move(burst));
        std::vector<InferenceResult> results;
        results.reserve(pending.size());
        for (auto& f : pending) results.push_back(f.get());
        return results;
      };
      check_identical(saturated_pass(), op.c_str());
      records.push_back(record(op, threads,
                               measure_ms([&] { (void)saturated_pass(); }),
                               n_items));
    }

    // Degradation row: the same saturated workload with 1% of batches
    // failing (seeded, so every run injects the same fault schedule).
    // items_per_op is the mean count of requests that still succeeded per
    // pass -- useful goodput, not offered load -- and every surviving
    // logit must match the clean reference bit for bit.
    {
      ServeConfig scfg = cfg.serve;
      scfg.workers = 2;
      InferenceService service =
          std::move(Pipeline::load_deployed(path)).serve(scfg);
      fault::arm_probability("serve.run_batch", 0.01, 0xBE7Au);
      double ok_total = 0.0;
      double passes = 0.0;
      const auto faulted_pass = [&] {
        std::vector<Tensor> burst = stream;
        std::vector<std::future<InferenceResult>> pending =
            service.submit_batch(std::move(burst));
        for (std::size_t i = 0; i < pending.size(); ++i) {
          try {
            const InferenceResult got = pending[i].get();
            const Tensor& want = reference[i];
            bool same = got.logits.shape() == want.shape();
            for (std::int64_t j = 0; same && j < want.numel(); ++j) {
              same = got.logits.at(j) == want.at(j);
            }
            if (!same) {
              std::fprintf(stderr,
                           "serve_faulted1pct_w2: surviving logits diverge "
                           "at image %zu -- determinism contract broken\n",
                           i);
              std::exit(1);
            }
            ok_total += 1.0;
          } catch (const Error&) {
            // An injected batch fault resolved this request with an error.
          }
        }
        passes += 1.0;
      };
      const double wall = measure_ms(faulted_pass);
      records.push_back(
          record("serve_faulted1pct_w2", threads, wall, ok_total / passes));
      fault::disarm_all();
    }
  }

  // Telemetry overhead: the saturated workers=2 workload with metrics
  // recording ON (default) then OFF, a fresh service per pass. items_per_op
  // carries the on/off throughput ratio x100 -- the PR 9 "effectively free
  // when unscraped" proof (gate >= 95, i.e. >= 0.95x).
  {
    set_num_threads(2);
    ServeConfig scfg = cfg.serve;
    scfg.workers = 2;
    const auto saturated_wall = [&] {
      InferenceService service =
          std::move(Pipeline::load_deployed(path)).serve(scfg);
      return measure_ms([&] {
        std::vector<Tensor> burst = stream;
        for (auto& f : service.submit_batch(std::move(burst))) (void)f.get();
      });
    };
    const double on_wall = saturated_wall();
    telemetry::set_recording(false);
    const double off_wall = saturated_wall();
    telemetry::set_recording(true);
    Record r = record("serve_telemetry_overhead", 2, on_wall, n_items);
    r.items_per_op = (off_wall / on_wall) * 100.0;
    records.push_back(r);
  }

  // Mixed-priority p99: interactive singles racing a feeder-maintained bulk
  // backlog, scheduling on vs the FIFO baseline. 1 pool thread so the
  // workers' own threads carry the compute -- the serving-layer regime
  // where the schedule (not the pool) decides who waits.
  {
    set_num_threads(1);
    const auto interactive_p99 = [&](bool sched_on) {
      ServeConfig scfg = cfg.serve;
      scfg.workers = 4;
      InferenceService service =
          std::move(Pipeline::load_deployed(path)).serve(scfg);
      std::atomic<bool> stop{false};
      std::thread feeder([&] {
        SubmitOptions bulk;
        bulk.priority = sched_on ? Priority::kBulk : Priority::kNormal;
        while (!stop.load(std::memory_order_relaxed)) {
          if (service.stats().queued < 64) {
            std::vector<Tensor> burst(stream.begin(), stream.begin() + 16);
            // Abandon the futures: promise-backed futures never block in
            // their destructor, and goodput is not what this row measures.
            (void)service.submit_batch(std::move(burst), bulk);
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      });
      while (service.stats().queued < 32) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      SubmitOptions fg;
      fg.priority = sched_on ? Priority::kInteractive : Priority::kNormal;
      std::vector<double> latencies;
      for (int i = 0; i < 200; ++i) {
        const auto t0 = Clock::now();
        (void)service
            .submit(stream[static_cast<std::size_t>(i) % stream.size()], fg)
            .get();
        latencies.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
      }
      stop.store(true);
      feeder.join();
      // Exact caller-side p99: index ceil(0.99 * N) - 1 of the sorted
      // sample, no histogram-bucket rounding.
      std::sort(latencies.begin(), latencies.end());
      return latencies[(latencies.size() * 99 + 99) / 100 - 1];
    };
    const double sched_p99 = interactive_p99(true);
    const double fifo_p99 = interactive_p99(false);
    Record r = record("serve_mixed_priority_w4", 1, sched_p99, 100.0);
    r.items_per_op = (fifo_p99 / sched_p99) * 100.0;
    records.push_back(r);
  }

  // Burst re-slicing: one 2x-max_batch burst awaited whole, re-slicing on
  // vs off. Off = two greedy max_batch closes (half the pool idle); on =
  // ceil(32/4)-sized slices across all four workers.
  {
    set_num_threads(1);
    const auto burst_wall = [&](bool reslice) {
      ServeConfig scfg = cfg.serve;
      scfg.workers = 4;
      scfg.reslice_bursts = reslice;
      InferenceService service =
          std::move(Pipeline::load_deployed(path)).serve(scfg);
      return measure_ms([&] {
        std::vector<Tensor> burst(stream.begin(), stream.begin() + 32);
        for (auto& f : service.submit_batch(std::move(burst))) (void)f.get();
      });
    };
    const double resliced_wall = burst_wall(true);
    const double serial_wall = burst_wall(false);
    Record r = record("serve_burst_resliced_w4", 1, resliced_wall, 32.0);
    r.items_per_op = (serial_wall / resliced_wall) * 100.0;
    records.push_back(r);
  }
  set_num_threads(1);
  std::remove(path.c_str());
  return records;
}

}  // namespace
}  // namespace epim

int main(int argc, char** argv) {
  std::string out = "BENCH_serve_local.json";
  std::string commit = "unknown";
  bool enforce_worker_gate = false;
  bool enforce_telemetry_gate = false;
  bool enforce_sched_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--commit=", 9) == 0) {
      commit = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--enforce-worker-gate") == 0) {
      enforce_worker_gate = true;
    } else if (std::strcmp(argv[i], "--enforce-telemetry-gate") == 0) {
      enforce_telemetry_gate = true;
    } else if (std::strcmp(argv[i], "--enforce-sched-gate") == 0) {
      enforce_sched_gate = true;
    } else {
      out = argv[i];
    }
  }
  const auto records = epim::run_suite();
  // Gate ratio per thread budget (batched vs single under the *same*
  // thread count); the reported figure is the worst budget's ratio, so
  // thread scaling can never mask a batching regression.
  std::map<int, double> single_by_threads, batch_by_threads;
  std::map<int, double> faulted_by_threads;
  std::map<std::pair<int, int>, double> saturated;  // (threads, workers)
  double telemetry_ratio = 0.0;
  double mixed_priority_ratio = 0.0;
  double resliced_ratio = 0.0;
  for (const auto& r : records) {
    std::printf("%-20s threads=%d  %10.4f ms/op  %12.1f items/s\n",
                r.op.c_str(), r.threads, r.wall_ms, r.items_per_sec);
    if (r.op == "serve_single") {
      single_by_threads[r.threads] = r.items_per_sec;
    }
    if (r.op.rfind("serve_batch", 0) == 0) {
      double& best = batch_by_threads[r.threads];
      best = std::max(best, r.items_per_sec);
    }
    if (r.op.rfind("serve_saturated_w", 0) == 0) {
      saturated[{r.threads, std::atoi(r.op.c_str() + 17)}] = r.items_per_sec;
    }
    if (r.op == "serve_faulted1pct_w2") {
      faulted_by_threads[r.threads] = r.items_per_sec;
    }
    if (r.op == "serve_telemetry_overhead") {
      telemetry_ratio = r.items_per_op / 100.0;
    }
    if (r.op == "serve_mixed_priority_w4") {
      mixed_priority_ratio = r.items_per_op / 100.0;
    }
    if (r.op == "serve_burst_resliced_w4") {
      resliced_ratio = r.items_per_op / 100.0;
    }
  }
  // The suite is itself telemetry-instrumented (every service above records
  // under model="default"): surface the totals a fleet scrape would see.
  {
    namespace tm = epim::telemetry;
    tm::Registry& reg = tm::Registry::process();
    const tm::Labels labels{{"model", "default"}};
    // Queue depth is per scheduling class since PR 10: report the max
    // high-water over the three {model, priority} series.
    long long depth_high_water = 0;
    for (const char* priority : {"interactive", "normal", "bulk"}) {
      depth_high_water = std::max(
          depth_high_water,
          static_cast<long long>(
              reg.gauge("epim_serve_queue_depth",
                        {{"model", "default"}, {"priority", priority}})
                  ->high_water()));
    }
    std::printf(
        "telemetry: requests=%lld batches=%lld queue_depth_high_water=%lld "
        "pool_jobs=%lld\n",
        static_cast<long long>(
            reg.counter("epim_serve_requests_total", labels)->value()),
        static_cast<long long>(
            reg.counter("epim_serve_batches_total", labels)->value()),
        depth_high_water,
        static_cast<long long>(reg.counter("epim_pool_jobs_total")->value()));
  }
  std::printf("bit-identity vs direct forward_batch: OK at every workers x "
              "threads x batch point\n");
  double worst_ratio = 0.0;
  for (const auto& [threads, single] : single_by_threads) {
    const auto it = batch_by_threads.find(threads);
    if (it == batch_by_threads.end() || single <= 0.0) continue;
    const double ratio = it->second / single;
    std::printf("batched/single @ %d thread(s): %.2fx\n", threads, ratio);
    worst_ratio = worst_ratio == 0.0 ? ratio : std::min(worst_ratio, ratio);
  }
  std::printf("worst same-budget batched/single: %.2fx (gate: >= 2x)\n",
              worst_ratio);
  // PR 7 degradation: goodput under 1% injected batch faults vs the clean
  // saturated workers=2 row on the same thread budget. Informational --
  // a ~1% batch fault rate should cost roughly its share of goodput, not
  // collapse it.
  for (const auto& [threads, faulted] : faulted_by_threads) {
    const auto clean = saturated.find({threads, 2});
    if (clean == saturated.end() || clean->second <= 0.0) continue;
    std::printf("faulted-1%%/clean goodput @ %d thread(s): %.2fx\n", threads,
                faulted / clean->second);
  }
  epim::write_json(records, out, commit);
  std::printf("wrote %s\n", out.c_str());
  // PR 5 worker gate: saturated-queue workers=4 vs workers=1 at 4 pool
  // threads. On a 1-core host every worker count is work-conserving under
  // saturation (ratio ~1.0); the gate needs real cores to express, so it
  // only *binds* (--enforce-worker-gate) when the host has >= 4 cpus. The
  // JSON above is written regardless of the gate's verdict.
  const unsigned cpus = std::thread::hardware_concurrency();
  const auto w1 = saturated.find({4, 1});
  const auto w4 = saturated.find({4, 4});
  if (w1 != saturated.end() && w4 != saturated.end() && w1->second > 0.0) {
    const double ratio = w4->second / w1->second;
    std::printf(
        "saturated workers=4 / workers=1 @ 4 threads: %.2fx "
        "(gate: >= 1.3x on a multi-core host; this host: %u cpu(s))\n",
        ratio, cpus);
    if (enforce_worker_gate && cpus >= 4 && ratio < 1.3) {
      std::fprintf(stderr,
                   "worker gate FAILED: %.2fx < 1.3x on a %u-cpu host\n",
                   ratio, cpus);
      return 3;
    }
  }
  // PR 9 telemetry gate: recording-on throughput vs recording-off on the
  // same saturated workload -- relaxed-atomic instrumentation must keep at
  // least 95% of uninstrumented throughput.
  if (telemetry_ratio > 0.0) {
    std::printf(
        "telemetry recording on/off throughput: %.2fx (gate: >= 0.95x)\n",
        telemetry_ratio);
    if (enforce_telemetry_gate && telemetry_ratio < 0.95) {
      std::fprintf(stderr, "telemetry gate FAILED: %.2fx < 0.95x\n",
                   telemetry_ratio);
      return 4;
    }
  }
  // PR 10 scheduling gates. Both need real cores to express: with one cpu
  // the four workers time-slice a single core, so batch compute serializes
  // whatever the scheduler decides -- on such hosts the ratios are printed
  // as warnings and --enforce-sched-gate cannot bind (same policy as the
  // worker gate above).
  if (mixed_priority_ratio > 0.0) {
    std::printf(
        "interactive p99 FIFO/scheduled under bulk load: %.2fx "
        "(gate: >= 1.43x, i.e. scheduled p99 <= 0.7x FIFO, on a multi-core "
        "host; this host: %u cpu(s))\n",
        mixed_priority_ratio, cpus);
    if (enforce_sched_gate && cpus >= 4 && mixed_priority_ratio < 1.43) {
      std::fprintf(stderr,
                   "scheduling gate FAILED: mixed-priority p99 ratio %.2fx "
                   "< 1.43x on a %u-cpu host\n",
                   mixed_priority_ratio, cpus);
      return 5;
    }
  }
  if (resliced_ratio > 0.0) {
    std::printf(
        "burst wall re-slicing off/on: %.2fx (gate: >= 1.2x on a multi-core "
        "host; this host: %u cpu(s))\n",
        resliced_ratio, cpus);
    if (enforce_sched_gate && cpus >= 4 && resliced_ratio < 1.2) {
      std::fprintf(stderr,
                   "scheduling gate FAILED: re-slice wall ratio %.2fx < "
                   "1.2x on a %u-cpu host\n",
                   resliced_ratio, cpus);
      return 5;
    }
  }
  return 0;
}
