// EPIM benchmark: one workload per process, measured end to end through the
// library's public API, plus a per-layer profile in trace mode.
//
// Usage:
//   bench_epim --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Workloads (see README.md for why each exists):
//   eval-ideal    DeployedModel::evaluate over the 256 test images as 32-image
//                 calls, ideal crossbars, 1 pool thread (direct int64 MVM)
//   eval-analog   the same with conductance_sigma = 0.05, 4 pool threads
//                 (analog bit-serial MVM path)
//   serve-mixed   Router -> ModelRegistry -> InferenceService: open-loop
//                 Poisson interactive singles at 100 req/s beside a
//                 closed-loop bulk client keeping one 32-image burst in flight
//   fleet-churn   3 artifact-backed models, 2 resident: hot model A gets
//                 open-loop singles at 100 req/s while B and C alternate
//                 every 100 ms, each forcing a materialize and an eviction
//   design-sweep  Pipeline::compile(resnet50()) + estimate() at W9/W7/W5/W3
//                 (A9), then one evolution search (paper Algorithm 1)
//
// The seed drives every input: the synthetic dataset, the network init, the
// arrival schedules and the evolution search. The last stdout line is
//   RESULT {json}
// with the end-to-end metrics, in trace mode also the per-layer profile
// (both at the nominal host speed, see HostSpeed), the raw figures, the
// observed golden values and every failed check. Exit codes: 0 ok,
// 1 a correctness check failed, 2 bad usage, 3 thread budget above the host's
// CPUs, 4 open-loop generator ran late (invalid run), 5 unexpected error.
#include <sched.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "datapath/index_tables.hpp"
#include "datapath/pim_engine.hpp"
#include "nn/conv_exec.hpp"
#include "nn/resnet.hpp"
#include "pim/crossbar.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "quant/activation_quant.hpp"
#include "registry/registry.hpp"
#include "runtime/pim_runtime.hpp"
#include "serve/service.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kExitCheckFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBudget = 3;
constexpr int kExitLateGenerator = 4;
constexpr int kExitError = 5;

/// Independent segments per serving run (see run_segments).
constexpr int kSegments = 10;
/// An open-loop run whose generator lateness p99 exceeds this is invalid:
/// its latencies would describe the generator, not the system.
constexpr double kMaxLatenessP99Ms = 5.0;

// ------------------------------------------------------------- utilities ---

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n), 1.0, n));
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest of a few standard percentiles with at least ten samples
/// beyond it (falls back to the median for tiny samples).
double tail_level(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

std::string describe_timing(const std::vector<double>& v, const char* unit) {
  const double q = tail_level(v.size());
  char tail[32] = "max";
  if (q > 0.5) std::snprintf(tail, sizeof tail, "p%g", q * 100.0);
  char buf[160];
  std::snprintf(buf, sizeof buf, "p50 %.3f %s, %s %.3f %s (n=%zu)",
                median(v), unit, tail, quantile(v, q > 0.5 ? q : 1.0), unit,
                v.size());
  return buf;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Independent sub-seed for one input stream of the run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ stream);
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Process high-water resident set (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

bool ready(std::future<InferenceResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

// ------------------------------------------------------------ host speed ---

/// Typical time of one reference-kernel run on a 4-vCPU Xeon VM: the host
/// speed every timing is reported at.
constexpr double kNominalReferenceMs = 1.0;

/// The reference kernel: integer hash chains through an L1-resident table,
/// first 2 chains (latency-bound), then 8 (throughput-bound), each phase
/// about half the run. A slow phase of the host slowed the latency-bound
/// phase less than the workloads and the throughput-bound one more; their
/// sum tracked the eval and design workloads best (run-to-run spread of
/// eval-ideal 2.4% against 7.0% with either phase alone). Each step is
/// serial through an empty asm, so no compiler flag can vectorize it, and it
/// is benchmark code, so no library change can move it. It has no floating
/// point: a float dot product timed the same way ran 2x slower right after
/// an evaluate() call than right after a deploy, on one pinned CPU, so it
/// measured the workload's leftover state, not the host.
class ReferenceKernel {
 public:
  ReferenceKernel() : table_(kTable) {
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = splitmix64(i);
  }

  /// Times one run, after touching the table so the cache state the
  /// workload left behind does not leak in.
  double run_ms() {
    std::uint64_t seed = 0;
    for (const std::uint64_t v : table_) seed += v;
    const auto t0 = Clock::now();
    const std::uint64_t out = chains<2>(seed, 120000) ^ chains<8>(seed, 105000);
    const double ms = ms_between(t0, Clock::now());
    sink_ = sink_ ^ out;
    return ms;
  }

 private:
  static constexpr std::uint64_t kTable = 4096;  // 32 KiB

  /// K independent chains, `steps` steps each; the chains stay in registers.
  template <int K>
  std::uint64_t chains(std::uint64_t seed, std::uint64_t steps) const {
    std::uint64_t x[K];
    for (int k = 0; k < K; ++k) x[k] = seed + static_cast<std::uint64_t>(k);
    for (std::uint64_t i = 0; i < steps; ++i) {
      for (int k = 0; k < K; ++k) {
        x[k] = (x[k] ^ table_[x[k] & (kTable - 1)]) * 0x9E3779B97F4A7C15ull + i;
      }
      asm volatile("" ::: "memory");
    }
    std::uint64_t out = 0;
    for (int k = 0; k < K; ++k) out ^= x[k];
    return out;
  }

  std::vector<std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;
};

/// Neighbouring tenants of a shared host slow its cores, each in its own
/// phases that last from about a second to minutes: the same 32-image
/// evaluate() call took 136 ms and 222 ms within 30 seconds of one process.
/// The reference kernel, run right after an operation on as many threads
/// as the operation kept busy, measures the slowdown that operation saw;
/// Timings reports operations at the nominal speed. One thread is not
/// enough for a parallel operation: it sees only its own core, and dividing
/// 4-thread evaluate() calls by it widened their run-to-run spread.
/// One thread at a time may use it: fleet-churn's cold generator uses it
/// while the main thread drives the hot model, which does not.
class HostSpeed {
 public:
  static constexpr int kMaxThreads = 4;

  HostSpeed() : kernels_(kMaxThreads) {
    for (int t = 1; t < kMaxThreads; ++t) {
      helpers_.emplace_back([this, t] {
        for (;;) {
          start_.arrive_and_wait();
          if (stop_) return;
          if (t < active_) ms_[t] = kernels_[t].run_ms();
          done_.arrive_and_wait();
        }
      });
    }
  }
  ~HostSpeed() {
    stop_ = true;
    start_.arrive_and_wait();
    for (std::thread& h : helpers_) h.join();
  }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// The host's speed right now on `threads` CPUs, in ms: the median of
  /// three samples, each the mean time of `threads` kernels run at once.
  double now_ms(int threads) {
    const double a = sample(threads), b = sample(threads),
                 c = sample(threads);
    last_ms_[threads] = std::max(std::min(a, b), std::min(std::max(a, b), c));
    return last_ms_[threads];
  }

  /// The previous now_ms(threads) (0 before the first one).
  double last_ms(int threads) const { return last_ms_[threads]; }

  /// Median sample over the nominal kernel time (1.2: the host ran 20% slow).
  double factor() const {
    return samples_.empty() ? 1.0 : median(samples_) / kNominalReferenceMs;
  }

 private:
  double sample(int threads) {
    if (threads > 1) {
      active_ = threads;
      start_.arrive_and_wait();
    }
    ms_[0] = kernels_[0].run_ms();
    if (threads > 1) done_.arrive_and_wait();
    double sum = 0.0;
    for (int t = 0; t < threads; ++t) sum += ms_[t];
    samples_.push_back(sum / threads);
    return samples_.back();
  }

  std::vector<ReferenceKernel> kernels_;
  std::array<double, kMaxThreads> ms_{};
  std::array<double, kMaxThreads + 1> last_ms_{};
  std::vector<double> samples_;
  /// Helpers run their kernel when their index is below active_; both are
  /// published to them by the start_ barrier.
  int active_ = 1;
  bool stop_ = false;
  std::barrier<> start_{kMaxThreads}, done_{kMaxThreads};
  std::vector<std::thread> helpers_;
};

HostSpeed& host_speed() {
  static HostSpeed host;
  return host;
}

/// Durations of one kind of operation (a call, a design step, a serving
/// segment), each also divided by the host's speed around it, on the number
/// of threads the operation keeps busy: the mean of the reference taken
/// right after it and the one taken after the operation before it, which
/// the benchmark ran right before this one. Per operation, because the
/// host's slow phases can be as short as a second.
class Timings {
 public:
  explicit Timings(int threads) : threads_(threads) {}

  void add(double ms) {
    HostSpeed& host = host_speed();
    const double before = host.last_ms(threads_);
    const double after = host.now_ms(threads_);
    const double ref = before > 0.0 ? 0.5 * (before + after) : after;
    raw_.push_back(ms);
    nominal_.push_back(ms * kNominalReferenceMs / ref);
  }
  /// Median at the nominal host speed.
  double median_ms() const { return median(nominal_); }
  /// Median as measured.
  double raw_median_ms() const { return median(raw_); }
  const std::vector<double>& raw() const { return raw_; }

 private:
  int threads_;
  std::vector<double> raw_, nominal_;
};

// ---------------------------------------------------------------- report ---

struct Metric {
  std::string name;
  double value = 0.0;
};
using Metrics = std::vector<Metric>;

struct Report {
  Metrics e2e;     ///< end-to-end metrics of the workload (trace 0)
  Metrics layers;  ///< per-layer profile (trace 1)
  /// Run context: lateness, figures as measured, host speed.
  Metrics info;
  std::vector<std::pair<std::string, std::string>> golden;  ///< raw JSON
  std::vector<std::string> failures;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void layer(std::string name, double value) {
    layers.push_back({std::move(name), value});
  }
  void golden_int(const std::string& key, std::int64_t v) {
    golden.emplace_back(key, std::to_string(v));
  }
  void golden_num(const std::string& key, double v) {
    golden.emplace_back(key, json_number(v));
  }
  void golden_str(const std::string& key, const std::string& v) {
    golden.emplace_back(key, json_string(v));
  }
};

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    s += (i ? ", " : "") + json_string(m[i].name) + ": " +
         json_number(m[i].value);
  }
  return s + "}";
}

// ---------------------------------------------------------------- budget ---

/// Threads a workload can keep busy at once: the pool's helper threads
/// (the pool size minus the initiating thread), the threads that initiate
/// compute (the main thread or the service batch workers), and the load
/// generators. Must not exceed the host's CPUs.
struct ThreadBudget {
  int pool = 1;
  int initiators = 1;
  int generators = 0;
  int total() const { return pool - 1 + initiators + generators; }
};

bool enforce_budget(const char* workload, const ThreadBudget& b) {
  const int cpus = host_cpus();
  std::printf(
      "thread budget: pool %d (%d helper%s) + %d initiator%s + %d "
      "generator%s = %d of %d cpus\n",
      b.pool, b.pool - 1, b.pool == 2 ? "" : "s", b.initiators,
      b.initiators == 1 ? "" : "s", b.generators,
      b.generators == 1 ? "" : "s", b.total(), cpus);
  if (b.total() > cpus) {
    std::fprintf(stderr,
                 "bench_epim: %s needs %d threads but the host has %d cpus\n",
                 workload, b.total(), cpus);
    return false;
  }
  return true;
}

// --------------------------------------------------------------- fixture ---

SyntheticSpec data_spec(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.seed = derive_seed(seed, 1);
  spec.test_per_class = 32;  // 8 classes -> 256 test images
  return spec;
}

SmallNetConfig net_config(std::uint64_t seed) {
  SmallNetConfig nc;
  nc.seed = derive_seed(seed, 2);
  return nc;
}

/// The trained model every inference workload serves: SmallEpitomeNet with
/// its default config (3x16x16 inputs, 8 classes, epitome blocks), trained
/// for 2 epochs. Training is deterministic at any thread count.
struct Fixture {
  explicit Fixture(std::uint64_t seed)
      : data(make_synthetic_data(data_spec(seed))), net(net_config(seed)) {
    TrainConfig tc;
    tc.epochs = 2;
    train_model(net, data, tc);
    for (std::int64_t i = 0; i < data.test.size(); ++i) {
      images.push_back(data.test.sample(i));
    }
  }

  SyntheticData data;
  SmallEpitomeNet net;
  std::vector<Tensor> images;  ///< the test set as (C, H, W) requests
};

DeployedModel deploy(const Fixture& fx, const PipelineConfig& cfg) {
  return Pipeline(cfg).deploy(fx.net, fx.data.train);
}

std::string artifact_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".epim";
}

// ------------------------------------------------------------------ eval ---

/// Images per timed evaluate() call (divides the 256-image test set).
constexpr std::int64_t kEvalSlice = 32;

std::vector<Dataset> slice_dataset(const Dataset& d, std::int64_t per) {
  const std::int64_t image = d.images.numel() / d.size();
  std::vector<Dataset> out;
  for (std::int64_t b = 0; b + per <= d.size(); b += per) {
    Dataset s;
    s.images = Tensor({per, d.images.dim(1), d.images.dim(2), d.images.dim(3)});
    std::copy(d.images.data() + b * image, d.images.data() + (b + per) * image,
              s.images.data());
    s.labels.assign(d.labels.begin() + b, d.labels.begin() + b + per);
    out.push_back(std::move(s));
  }
  return out;
}

struct EvalSignature {
  std::int64_t top1 = 0;
  std::int64_t clips = 0;
  std::uint64_t checksum = kFnvOffset;
  bool operator==(const EvalSignature&) const = default;
};

EvalSignature signature(const std::vector<Tensor>& logits,
                        const std::vector<std::int64_t>& clips,
                        const std::vector<int>& labels) {
  EvalSignature s;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const Tensor& l = logits[i];
    std::int64_t arg = 0;
    for (std::int64_t j = 1; j < l.numel(); ++j) {
      if (l.at(j) > l.at(arg)) arg = j;
    }
    s.top1 += arg == labels[i] ? 1 : 0;
    s.clips += clips[i];
    s.checksum = fnv1a(s.checksum, l.data(),
                       static_cast<std::size_t>(l.numel()) * sizeof(float));
  }
  return s;
}

void run_eval(bool analog, std::uint64_t seed, double seconds, Report& r) {
  const int threads = analog ? 4 : 1;
  const Fixture fx(seed);
  PipelineConfig cfg;
  if (analog) cfg.deploy.non_ideal.conductance_sigma = 0.05;
  const Pipeline pipeline(cfg);
  set_num_threads(threads);

  Timings setup(threads);
  const auto timed_deploy = [&] {
    const auto t0 = Clock::now();
    DeployedModel m = pipeline.deploy(fx.net, fx.data.train);
    setup.add(ms_between(t0, Clock::now()));
    return m;
  };
  DeployedModel chip = timed_deploy();

  // Correctness: the workload's thread count against another one, bit for
  // bit, and evaluate()'s accuracy against the logits' top-1.
  std::vector<std::int64_t> clips, clips_alt;
  const std::vector<Tensor> logits = chip.forward_batch(fx.images, &clips);
  set_num_threads(analog ? 3 : 4);
  const std::vector<Tensor> logits_alt =
      chip.forward_batch(fx.images, &clips_alt);
  set_num_threads(threads);
  const EvalSignature sig = signature(logits, clips, fx.data.test.labels);
  bool identical = sig == signature(logits_alt, clips_alt,
                                    fx.data.test.labels);
  for (std::size_t i = 0; identical && i < logits.size(); ++i) {
    identical = same_bits(logits[i], logits_alt[i]);
  }
  r.check(identical, "forward_batch logits differ between thread counts");

  // Each pass evaluates the whole test set as consecutive slices, one timed
  // evaluate() call each, so a run holds dozens of samples and a burst of
  // host noise moves only a few of them.
  const std::vector<Dataset> slices = slice_dataset(fx.data.test, kEvalSlice);
  const auto pass = [&](Timings* calls) {
    std::int64_t correct = 0;
    for (const Dataset& slice : slices) {
      const auto t0 = Clock::now();
      const double accuracy = chip.evaluate(slice);
      if (calls) calls->add(ms_between(t0, Clock::now()));
      correct += std::llround(accuracy * static_cast<double>(kEvalSlice));
    }
    r.check(correct == sig.top1,
            "evaluate() accuracy differs from forward_batch top-1");
  };
  pass(nullptr);  // warm-up
  Timings calls(threads);
  std::int64_t passes = 0;
  const auto start = Clock::now();
  while (passes < 2 || ms_between(start, Clock::now()) < seconds * 1e3) {
    pass(&calls);
    ++passes;
    // Set-up is sampled after every pass too, so one slow deploy moves only
    // one of the samples.
    (void)timed_deploy();
  }
  r.attempted = passes * static_cast<std::int64_t>(fx.images.size());

  std::printf("deploy: %s\n", describe_timing(setup.raw(), "ms").c_str());
  std::printf("evaluate(%lld images): %s; top-1 %lld/256, clips %lld\n",
              static_cast<long long>(kEvalSlice),
              describe_timing(calls.raw(), "ms").c_str(),
              static_cast<long long>(sig.top1),
              static_cast<long long>(sig.clips));
  const auto per_s = [](double ms) { return kEvalSlice / (ms / 1e3); };
  r.e2e = {{"setup_s", setup.median_ms() / 1e3},
           {"ops_per_s", per_s(calls.median_ms())}};
  r.info = {{"raw.setup_s", setup.raw_median_ms() / 1e3},
            {"raw.ops_per_s", per_s(calls.raw_median_ms())}};
  r.golden_int("top1", sig.top1);
  r.golden_int("clips", sig.clips);
  r.golden_str("logits_fnv1a", hex64(sig.checksum));
}

// --------------------------------------------------------------- serving ---

/// Open-loop interactive traffic (Poisson arrivals, each request timed from
/// when it was due) with an optional closed-loop bulk client, driven from the
/// calling thread, which also polls every future it holds. The arrival count
/// is fixed at rate x seconds and the arrival times are the Poisson process
/// conditioned on that count (sorted uniform draws), so the offered load is
/// the same for every seed.
struct TrafficSpec {
  std::string target;
  double rate_per_s = 100.0;
  int bulk_batch = 0;  ///< 0: no bulk client
  double seconds = 1.0;
  std::uint64_t seed = 0;
  /// Trace-mode extras: time Router::route and poll registry stats.
  bool profile = false;
};

struct TrafficResult {
  std::vector<double> latency_ms;  ///< interactive, due -> result
  std::vector<double> lateness_ms;
  std::vector<double> submit_us;
  std::vector<double> route_us;
  std::int64_t sent = 0;
  std::int64_t bulk_sent = 0;
  std::int64_t bulk_completed = 0;
  std::int64_t failed = 0;
  /// From the start of the traffic to the bulk client's last completion,
  /// summed over merged segments.
  double bulk_elapsed_s = 0.0;
  int workers_peak = 0;
  double batch_size_mean = 0.0;

  double bulk_per_s() const {
    return static_cast<double>(bulk_completed) / bulk_elapsed_s;
  }
  void merge(const TrafficResult& t) {
    for (auto [to, from] : {std::pair{&latency_ms, &t.latency_ms},
                            std::pair{&lateness_ms, &t.lateness_ms},
                            std::pair{&submit_us, &t.submit_us},
                            std::pair{&route_us, &t.route_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    sent += t.sent;
    bulk_sent += t.bulk_sent;
    bulk_completed += t.bulk_completed;
    failed += t.failed;
    bulk_elapsed_s += t.bulk_elapsed_s;
    workers_peak = std::max(workers_peak, t.workers_peak);
  }
};

struct Pending {
  std::future<InferenceResult> future;
  Clock::time_point due;
  std::size_t image = 0;
};

/// Collects one result: counts a failure if it threw, records a check
/// failure if its logits are not the direct forward_batch reference.
bool harvest(Pending& p, const std::vector<Tensor>& reference,
             std::int64_t& failed, Report& r) {
  try {
    const InferenceResult res = p.future.get();
    r.check(same_bits(res.logits, reference[p.image]),
            "served logits differ from direct forward_batch");
    return true;
  } catch (const std::exception&) {
    ++failed;
    return false;
  }
}

TrafficResult drive_traffic(Router& router, ModelRegistry& registry,
                            const std::vector<Tensor>& images,
                            const std::vector<Tensor>& reference,
                            const TrafficSpec& spec, Report& r) {
  TrafficResult out;
  Rng rng(spec.seed);
  std::vector<double> arrivals_s(
      static_cast<std::size_t>(std::llround(spec.rate_per_s * spec.seconds)));
  for (double& t : arrivals_s) t = rng.uniform(0.0, spec.seconds);
  std::sort(arrivals_s.begin(), arrivals_s.end());
  SubmitOptions fg;
  fg.priority = Priority::kInteractive;
  fg.client_id = "fg";
  SubmitOptions bg;
  bg.priority = Priority::kBulk;
  bg.client_id = "bg";

  std::deque<Pending> interactive;
  std::vector<Pending> bulk;
  std::size_t bulk_ready = 0;
  std::size_t bulk_cursor = 0;
  const auto submit_bulk = [&] {
    std::vector<Tensor> burst;
    std::vector<std::size_t> index;
    for (int i = 0; i < spec.bulk_batch; ++i) {
      index.push_back(bulk_cursor);
      burst.push_back(images[bulk_cursor]);
      bulk_cursor = (bulk_cursor + 1) % images.size();
    }
    const auto t0 = Clock::now();
    auto futures = router.submit_batch(spec.target, std::move(burst), bg);
    out.submit_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    for (std::size_t i = 0; i < futures.size(); ++i) {
      bulk.push_back({std::move(futures[i]), t0, index[i]});
    }
    bulk_ready = 0;
    out.bulk_sent += spec.bulk_batch;
  };

  const auto start = Clock::now();
  const auto end = start + seconds_to_duration(spec.seconds);
  auto bulk_last_done = start, next_poll = start;
  std::size_t next = 0;
  const auto due = [&] {
    return next < arrivals_s.size()
               ? start + seconds_to_duration(arrivals_s[next])
               : Clock::time_point::max();
  };
  if (spec.bulk_batch > 0) submit_bulk();
  for (;;) {
    const auto now = Clock::now();
    for (auto it = interactive.begin(); it != interactive.end();) {
      if (!ready(it->future)) {
        ++it;
        continue;
      }
      if (harvest(*it, reference, out.failed, r)) {
        out.latency_ms.push_back(ms_between(it->due, now));
      }
      it = interactive.erase(it);
    }
    while (bulk_ready < bulk.size() && ready(bulk[bulk_ready].future)) {
      ++bulk_ready;
    }
    if (!bulk.empty() && bulk_ready == bulk.size()) {
      for (Pending& p : bulk) {
        if (harvest(p, reference, out.failed, r)) ++out.bulk_completed;
      }
      bulk_last_done = now;
      bulk.clear();
      if (now < end) submit_bulk();
    }
    while (due() <= Clock::now()) {
      const auto t0 = Clock::now();
      out.lateness_ms.push_back(ms_between(due(), t0));
      const std::size_t image = static_cast<std::size_t>(
          rng.index(static_cast<int>(images.size())));
      if (spec.profile) {
        const auto r0 = Clock::now();
        (void)router.route(spec.target);
        out.route_us.push_back(ms_between(r0, Clock::now()) * 1e3);
      }
      const auto s0 = Clock::now();
      try {
        interactive.push_back(
            {router.submit(spec.target, images[image], fg), due(), image});
      } catch (const Error&) {
        ++out.failed;  // refused at admission
      }
      out.submit_us.push_back(ms_between(s0, Clock::now()) * 1e3);
      ++out.sent;
      ++next;
    }
    if (spec.profile && now >= next_poll) {
      for (const ModelSnapshot& m : registry.stats().models) {
        out.workers_peak = std::max(out.workers_peak, m.stats.live_workers);
      }
      next_poll = now + std::chrono::milliseconds(20);
    }
    if (now >= end && next == arrivals_s.size() && interactive.empty() &&
        bulk.empty()) {
      break;
    }
    // No sleep: a thread woken from sleep on this kind of VM ran up to ~5 ms
    // late at p99 even with every other CPU idle, which would invalidate
    // the run. Spinning keeps the generator's CPU awake; the thread budget
    // counts the generator as a busy thread.
  }
  out.bulk_elapsed_s = ms_between(start, bulk_last_done) / 1e3;
  for (const ModelSnapshot& m : registry.stats().models) {
    if (m.resident) out.batch_size_mean = m.stats.mean_batch_size;
  }
  return out;
}

/// Continuous-batching policy of the served models.
ServeConfig serve_config(int max_workers) {
  ServeConfig s;
  s.max_batch = 16;
  s.flush_deadline_ms = 2.0;
  s.workers = 1;
  s.max_queue = 1024;
  s.max_workers = max_workers;
  return s;
}

std::vector<Tensor> reference_logits(const std::string& path,
                                     const std::vector<Tensor>& images) {
  return Pipeline::load_deployed(path).forward_batch(images);
}

void report_lateness(const std::vector<double>& lateness, Report& r) {
  const double p99 = quantile(lateness, 0.99);
  std::printf("generator lateness: %s -> %s (limit p99 %.1f ms)\n",
              describe_timing(lateness, "ms").c_str(),
              p99 <= kMaxLatenessP99Ms ? "valid" : "INVALID",
              kMaxLatenessP99Ms);
  r.info.push_back({"lateness_p99_ms", p99});
}

/// A model registry and the router in front of it. Destroying it drains
/// every queued request and joins every worker.
struct Frontend {
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Router> router;
};

/// Registers each (name, artifact) pair, then materializes the first by
/// sending it one request.
Frontend open_frontend(const RegistryConfig& rc,
                       const std::vector<std::string>& names,
                       const std::vector<std::string>& paths,
                       const Tensor& warm) {
  Frontend f;
  f.registry = std::make_unique<ModelRegistry>(rc);
  for (std::size_t i = 0; i < names.size(); ++i) {
    f.registry->register_artifact(names[i], "v1", paths[i]);
  }
  f.router = std::make_unique<Router>(*f.registry);
  (void)f.router->submit(names[0], warm).get();
  return f;
}

/// Serving workloads run as kSegments independent segments, each on a
/// fresh registry whose set-up is one set-up sample: the adaptive worker
/// pool and the batch phases settle into a pattern that persists for a
/// while, so many short runs repeat far better than one long one.
/// `segment(k, frontend)` drives segment k's traffic and records its
/// per-segment timings.
Timings run_segments(const RegistryConfig& rc,
                     const std::vector<std::string>& names,
                     const std::vector<std::string>& paths, const Tensor& warm,
                     bool traced,
                     const std::function<void(int, Frontend&)>& segment) {
  // Registering and materializing run on the calling thread.
  Timings setup(1);
  for (int k = 0; k < kSegments; ++k) {
    const auto t0 = Clock::now();
    Frontend f = open_frontend(rc, names, paths, warm);
    setup.add(ms_between(t0, Clock::now()));
    telemetry::set_tracing(traced);
    segment(k, f);
    telemetry::set_tracing(false);
    f = {};
    telemetry::clear_trace();  // quiescent: every worker has joined
  }
  return setup;
}

RegistryConfig serve_mixed_registry() {
  RegistryConfig rc;
  rc.max_resident_models = 1;
  rc.serve = serve_config(2);
  return rc;
}

TrafficSpec serve_mixed_spec(std::uint64_t seed, double seconds) {
  TrafficSpec spec;
  spec.target = "m";
  spec.rate_per_s = 100.0;
  spec.bulk_batch = 32;
  spec.seconds = seconds;
  spec.seed = seed;
  return spec;
}

void run_serve_mixed(const Fixture& fx, const std::string& work_dir,
                     std::uint64_t seed, double seconds, bool traced,
                     Report& r) {
  const std::string path = artifact_path(work_dir, "serve");
  deploy(fx, PipelineConfig()).save(path);
  const std::vector<Tensor> reference = reference_logits(path, fx.images);
  set_num_threads(2);
  TrafficResult t;
  Timings bulk_ms_per_img(4);  // workers, pool helper and generator
  const Timings setup = run_segments(
      serve_mixed_registry(), {"m"}, {path}, fx.images[0], traced,
      [&](int k, Frontend& f) {
        const TrafficResult one = drive_traffic(
            *f.router, *f.registry, fx.images, reference,
            serve_mixed_spec(derive_seed(seed, 10 + k), seconds / kSegments),
            r);
        bulk_ms_per_img.add(1e3 / one.bulk_per_s());
        t.merge(one);
      });

  std::printf("setup (registry + materialize): %s\n",
              describe_timing(setup.raw(), "ms").c_str());
  std::printf("interactive latency from due: %s\n",
              describe_timing(t.latency_ms, "ms").c_str());
  std::printf("bulk: %.1f img/s; sent %lld interactive + %lld bulk, "
              "%lld failed\n",
              t.bulk_per_s(), static_cast<long long>(t.sent),
              static_cast<long long>(t.bulk_sent),
              static_cast<long long>(t.failed));
  report_lateness(t.lateness_ms, r);
  r.attempted = t.sent + t.bulk_sent;
  r.failed = t.failed;
  // The interactive load is offered at a fixed rate; the closed-loop bulk
  // client's throughput is what the host's and the code's speed decide.
  // Interactive latency is reported, not gated: it follows the phase the
  // bulk batches and the adaptive pool fall into, and its median moved by
  // 13-18% between runs of the same code (README, Calibration).
  r.e2e = {{"setup_s", setup.median_ms() / 1e3},
           {"ops_per_s", 1e3 / bulk_ms_per_img.median_ms()}};
  r.info.push_back({"raw.setup_s", setup.raw_median_ms() / 1e3});
  r.info.push_back({"raw.ops_per_s", 1e3 / bulk_ms_per_img.raw_median_ms()});
  r.info.push_back({"latency_p50_ms", median(t.latency_ms)});
  r.info.push_back({"latency_p99_ms", quantile(t.latency_ms, 0.99)});
}

// ----------------------------------------------------------------- fleet ---

struct FleetArtifacts {
  std::vector<std::string> names = {"A", "B", "C"};
  std::vector<std::string> paths;
  std::vector<std::vector<Tensor>> reference;  ///< per model
};

/// Three distinct deployments of the fixture (W9A9, W8A8, W7A8), so a
/// request routed to the wrong model shows up as a logits mismatch.
FleetArtifacts save_fleet(const Fixture& fx, const std::string& work_dir) {
  FleetArtifacts a;
  const int wbits[] = {9, 8, 7};
  const int abits[] = {9, 8, 8};
  for (std::size_t i = 0; i < a.names.size(); ++i) {
    PipelineConfig cfg;
    cfg.precision = PrecisionPlan::uniform(wbits[i], abits[i]);
    a.paths.push_back(artifact_path(work_dir, "fleet_" + a.names[i]));
    deploy(fx, cfg).save(a.paths.back());
    a.reference.push_back(reference_logits(a.paths.back(), fx.images));
  }
  return a;
}

RegistryConfig fleet_registry() {
  RegistryConfig rc;
  rc.max_resident_models = 2;
  rc.serve = serve_config(0);
  return rc;
}

struct FleetResult {
  TrafficResult hot;
  std::vector<double> cold_ms;  ///< B/C requests, due -> result
  std::vector<double> cold_lateness_ms;
  std::vector<double> cold_route_us;
  std::int64_t cold_sent = 0;
  std::int64_t cold_completed = 0;
  std::int64_t cold_failed = 0;

  void merge(const FleetResult& f) {
    hot.merge(f.hot);
    for (auto [to, from] : {std::pair{&cold_ms, &f.cold_ms},
                            std::pair{&cold_lateness_ms, &f.cold_lateness_ms},
                            std::pair{&cold_route_us, &f.cold_route_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    cold_sent += f.cold_sent;
    cold_completed += f.cold_completed;
    cold_failed += f.cold_failed;
  }
};

/// `cold_timed`, when set, gets each completed cold request's time from due
/// to result; it times the reference kernel on the cold generator's thread,
/// which is idle until its next due time.
FleetResult drive_fleet(Frontend& s, const FleetArtifacts& a,
                        const std::vector<Tensor>& images, std::uint64_t seed,
                        double seconds, bool profile, Timings* cold_timed,
                        Report& r) {
  FleetResult out;
  const auto start = Clock::now();
  const auto end = start + seconds_to_duration(seconds);
  std::vector<std::string> cold_failures;
  // Second generator: one cold request every 100 ms, alternating B and C.
  // Its submit blocks while the registry materializes the model. It spins
  // rather than sleeping, for its own due times and for its result, for the
  // reason given in drive_traffic: a wake-up from sleep would add up to
  // ~5 ms to the cold start it times.
  std::thread cold([&] {
    Rng rng(derive_seed(seed, 5));
    for (int k = 0;; ++k) {
      const auto due = start + std::chrono::milliseconds(50 + 100 * k);
      if (due >= end) break;
      while (Clock::now() < due) {
      }
      out.cold_lateness_ms.push_back(ms_between(due, Clock::now()));
      const std::size_t model = 1 + static_cast<std::size_t>(k % 2);
      const std::size_t image = static_cast<std::size_t>(
          rng.index(static_cast<int>(images.size())));
      ++out.cold_sent;
      try {
        if (profile) {
          const auto r0 = Clock::now();
          (void)s.router->route(a.names[model]);
          out.cold_route_us.push_back(ms_between(r0, Clock::now()) * 1e3);
        }
        std::future<InferenceResult> pending =
            s.router->submit(a.names[model], images[image]);
        while (!ready(pending)) {
        }
        const double cold_ms = ms_between(due, Clock::now());
        const InferenceResult res = pending.get();
        out.cold_ms.push_back(cold_ms);
        if (cold_timed) cold_timed->add(cold_ms);
        ++out.cold_completed;
        if (!same_bits(res.logits, a.reference[model][image])) {
          cold_failures.push_back(
              "cold-model logits differ from direct forward_batch");
        }
      } catch (const std::exception&) {
        ++out.cold_failed;
      }
    }
  });
  TrafficSpec hot;
  hot.target = a.names[0];
  hot.rate_per_s = 100.0;
  hot.seconds = seconds;
  hot.seed = derive_seed(seed, 4);
  hot.profile = profile;
  out.hot = drive_traffic(*s.router, *s.registry, images, a.reference[0], hot,
                          r);
  cold.join();
  for (const std::string& f : cold_failures) r.check(false, f);
  return out;
}

double counter_sum(const char* name, const std::vector<std::string>& models) {
  telemetry::Registry& reg = telemetry::Registry::process();
  double total = 0.0;
  for (const std::string& m : models) {
    total += static_cast<double>(reg.counter(name, {{"model", m}})->value());
  }
  return total;
}

std::vector<std::string> fleet_labels(const FleetArtifacts& a) {
  std::vector<std::string> labels;
  for (const std::string& n : a.names) labels.push_back(n + "@v1");
  return labels;
}

void run_fleet_churn(const Fixture& fx, const std::string& work_dir,
                     std::uint64_t seed, double seconds, bool traced,
                     Report& r) {
  const FleetArtifacts a = save_fleet(fx, work_dir);
  set_num_threads(1);
  const double evictions0 =
      counter_sum("epim_registry_evictions_total", fleet_labels(a));
  FleetResult f;
  // Every cold request, at the speed of the cold generator's CPU, which
  // routes it and materializes the model.
  Timings cold_start(1);
  const Timings setup = run_segments(
      fleet_registry(), a.names, a.paths, fx.images[0], traced,
      [&](int k, Frontend& front) {
        f.merge(drive_fleet(front, a, fx.images, derive_seed(seed, 20 + k),
                            seconds / kSegments, false, &cold_start, r));
      });
  const double evictions =
      counter_sum("epim_registry_evictions_total", fleet_labels(a)) -
      evictions0;

  std::vector<double> lateness = f.hot.lateness_ms;
  lateness.insert(lateness.end(), f.cold_lateness_ms.begin(),
                  f.cold_lateness_ms.end());
  std::printf("setup (registry + materialize A): %s\n",
              describe_timing(setup.raw(), "ms").c_str());
  std::printf("hot A latency from due: %s\n",
              describe_timing(f.hot.latency_ms, "ms").c_str());
  std::printf("cold B/C latency from due: %s; %.0f evictions\n",
              describe_timing(f.cold_ms, "ms").c_str(), evictions);
  report_lateness(lateness, r);
  r.attempted = f.hot.sent + f.cold_sent;
  r.failed = f.hot.failed + f.cold_failed;
  // The first cold request of a segment finds a free resident slot.
  r.check(evictions >= static_cast<double>(f.cold_completed - kSegments),
          "cold requests did not force evictions");
  // All traffic is offered at fixed rates, so goodput would not follow the
  // code's speed. The rate of the cold path does: cold starts per second
  // (route, evict, artifact read, crossbar programming, first inference),
  // as one client issuing them back to back would get. Hot-model latency
  // is reported, not gated: its median moved by 20% between runs of the
  // same code (README, Calibration).
  r.e2e = {{"setup_s", setup.median_ms() / 1e3},
           {"ops_per_s", 1e3 / cold_start.median_ms()}};
  r.info.push_back({"raw.setup_s", setup.raw_median_ms() / 1e3});
  r.info.push_back({"raw.ops_per_s", 1e3 / cold_start.raw_median_ms()});
  r.info.push_back({"cold_start_ms", median(f.cold_ms)});
  r.info.push_back({"latency_p50_ms", median(f.hot.latency_ms)});
  r.info.push_back({"latency_p99_ms", quantile(f.hot.latency_ms, 0.99)});
}

// ---------------------------------------------------------------- design ---

/// Paper Table 1 (ResNet-50) rows the sweep reproduces: crossbars, latency
/// (ms), energy (mJ) -- the same reference values bench_table1 prints.
struct PaperRow {
  const char* label;
  double xbars, latency_ms, energy_mj;
};
constexpr PaperRow kPaperRows[] = {{"W9A9", 1424, 50.9, 17.0},
                                   {"W7A9", 1076, 45.2, 20.5},
                                   {"W5A9", 720, 39.9, 13.7},
                                   {"W3A9", 428, 36.7, 9.3},
                                   {"W9A9-Latency-Opt", 1080, 49.2, 16.4}};

struct DesignPoint {
  std::int64_t xbars = 0;
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  bool operator==(const DesignPoint&) const = default;
};

struct SweepResult {
  std::vector<DesignPoint> points;  ///< W9, W7, W5, W3, then the winner
  double best_reward = 0.0;
  std::int64_t evaluations = 0;
  bool operator==(const SweepResult&) const = default;
};

DesignPoint design_point(const CompiledModel::Evaluation& e) {
  return {e.cost.num_crossbars, e.cost.latency_ms, e.cost.energy_mj()};
}

PipelineConfig search_config(std::int64_t w9_xbars, std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.search.enabled = true;
  cfg.search.evo.population = 32;
  cfg.search.evo.iterations = 20;
  cfg.search.evo.parents = 8;
  cfg.search.evo.crossbar_budget = (w9_xbars * 3) / 4;
  cfg.search.evo.objective = SearchObjective::kLatency;
  cfg.search.evo.candidates.wrap_output = true;
  cfg.search.evo.seed = derive_seed(seed, 6);
  return cfg;
}

DesignPoint estimate_uniform(const Network& net, int weight_bits) {
  PipelineConfig cfg;
  cfg.precision = PrecisionPlan::uniform(weight_bits, 9);
  return design_point(Pipeline(cfg).compile(net).estimate());
}

/// One design rep: its five steps (four uniform estimates, then compile +
/// search + estimate) each add their wall time to steps[step].
SweepResult design_rep(const Network& net, std::int64_t w9_xbars,
                       std::uint64_t seed, std::vector<Timings>& steps) {
  SweepResult s;
  for (const int bits : {9, 7, 5, 3}) {
    const auto t0 = Clock::now();
    s.points.push_back(estimate_uniform(net, bits));
    steps[s.points.size() - 1].add(ms_between(t0, Clock::now()));
  }
  const auto t0 = Clock::now();
  CompiledModel model = Pipeline(search_config(w9_xbars, seed)).compile(net);
  const EvoSearchResult found = model.search();
  s.points.push_back(design_point(model.estimate()));
  steps[4].add(ms_between(t0, Clock::now()));
  s.best_reward = found.best_reward;
  s.evaluations = found.evaluations;
  return s;
}

void print_table1(const SweepResult& s) {
  std::printf("%-18s %8s %8s %9s %9s %8s %8s\n", "design", "#XB", "paper",
              "lat ms", "paper", "mJ", "paper");
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const DesignPoint& p = s.points[i];
    const PaperRow& ref = kPaperRows[i];
    const auto rel = [](double got, double want) {
      return 100.0 * (got - want) / want;
    };
    std::printf("%-18s %8lld %8.0f %9.2f %9.1f %8.2f %8.1f   "
                "(rel err %+.1f%% / %+.1f%% / %+.1f%%)\n",
                ref.label, static_cast<long long>(p.xbars), ref.xbars,
                p.latency_ms, ref.latency_ms, p.energy_mj, ref.energy_mj,
                rel(static_cast<double>(p.xbars), ref.xbars),
                rel(p.latency_ms, ref.latency_ms),
                rel(p.energy_mj, ref.energy_mj));
  }
}

void run_design_sweep(std::uint64_t seed, double seconds, Report& r) {
  set_num_threads(4);
  // Set-up: the network graph and the W9A9 reference design whose crossbar
  // count fixes the search budget, sampled before the first rep and after
  // every rep (as in run_eval).
  // The design flow barely uses its pool (a rep ran ~6% faster at 4 threads
  // than at 1), so its timings are normalized on one thread.
  Timings setup(1);
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    Network n = resnet50();
    const DesignPoint w9 = estimate_uniform(n, 9);
    setup.add(ms_between(t0, Clock::now()));
    return std::make_pair(std::move(n), w9);
  };
  const auto [net, reference] = timed_setup();
  // A rep takes ~4 s, so a run holds only a few; its time is the sum of
  // each step's median across reps, which a noise burst during one step of
  // one rep cannot move.
  std::vector<Timings> steps(5, Timings(1));
  std::optional<SweepResult> first;
  std::int64_t reps = 0;
  const auto start = Clock::now();
  while (reps < 2 || ms_between(start, Clock::now()) < seconds * 1e3) {
    const SweepResult s = design_rep(net, reference.xbars, seed, steps);
    ++reps;
    if (!first) first = s;
    r.check(s == *first, "design sweep differs between repetitions");
    r.check(timed_setup().second == reference,
            "W9A9 reference design differs between set-ups");
  }
  r.check(first->points[0] == reference,
          "W9A9 estimate differs between set-up and sweep");
  double design_ms = 0.0, raw_design_ms = 0.0;
  for (const Timings& step : steps) {
    design_ms += step.median_ms();
    raw_design_ms += step.raw_median_ms();
  }
  r.attempted = reps;
  print_table1(*first);
  std::printf("setup (resnet50 graph + W9A9 reference): %s\n",
              describe_timing(setup.raw(), "ms").c_str());
  std::printf("one design rep (4 estimates + search): %.1f ms over %lld "
              "reps\n",
              raw_design_ms, static_cast<long long>(reps));
  r.e2e = {{"setup_s", setup.median_ms() / 1e3},
           {"ops_per_s", 1e3 / design_ms}};
  r.info = {{"raw.setup_s", setup.raw_median_ms() / 1e3},
            {"raw.ops_per_s", 1e3 / raw_design_ms}};
  const char* keys[] = {"w9", "w7", "w5", "w3", "winner"};
  for (std::size_t i = 0; i < first->points.size(); ++i) {
    const DesignPoint& p = first->points[i];
    r.golden_int(std::string(keys[i]) + "_xbars", p.xbars);
    r.golden_num(std::string(keys[i]) + "_latency_ms", p.latency_ms);
    r.golden_num(std::string(keys[i]) + "_energy_mj", p.energy_mj);
  }
  r.golden_num("winner_reward", first->best_reward);
}

// --------------------------------------------------------- layer profile ---

/// Per-output-channel symmetric weight quantization of an epitome, the
/// scheme PimNetworkRuntime programs onto its crossbars.
std::vector<std::vector<int>> quantize_epitome(const Epitome& epitome,
                                               int weight_bits) {
  const EpitomeSpec& spec = epitome.spec();
  const std::int64_t rows = spec.rows(), cols = spec.cout_e;
  const double qmax =
      static_cast<double>((std::int64_t{1} << (weight_bits - 1)) - 1);
  const Tensor& w = epitome.weights();
  std::vector<std::vector<int>> q(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(cols)));
  for (std::int64_t c = 0; c < cols; ++c) {
    double amax = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) {
      amax = std::max(amax, std::abs(static_cast<double>(w.at(c * rows + r))));
    }
    const double scale = amax > 0 ? amax / qmax : 1.0;
    for (std::int64_t r = 0; r < rows; ++r) {
      q[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
          static_cast<int>(std::clamp<double>(
              static_cast<double>(std::llround(w.at(c * rows + r) / scale)),
              -qmax, qmax));
    }
  }
  return q;
}

IntImage to_codes(const Tensor& t, const QuantParams& params) {
  IntImage img;
  img.channels = t.dim(0);
  img.height = t.dim(1);
  img.width = t.dim(2);
  img.data = quantize_activations(t, params);
  return img;
}

Tensor float_block(const Epitome& e, const ChannelAffine& bn, const Tensor& x) {
  Tensor y = conv2d(x, e.reconstruct(), 1, 1);
  affine_relu(y, bn);
  return y;
}

/// Median time per call of fn, a call that keeps one thread busy, at the
/// nominal host speed, in ms: calls are batched until each batch lasts
/// >= 20 ms, over `seconds` of wall clock (at least 5 batches).
double time_call_ms(const std::function<void()>& fn, double seconds) {
  fn();  // warm-up
  std::int64_t per_batch = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < per_batch; ++i) fn();
    if (ms_between(t0, Clock::now()) >= 20.0) break;
    per_batch *= 2;
  }
  Timings per_call(1);
  const auto start = Clock::now();
  while (per_call.raw().size() < 5 ||
         ms_between(start, Clock::now()) < seconds * 1e3) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < per_batch; ++i) fn();
    per_call.add(ms_between(t0, Clock::now()) /
                 static_cast<double>(per_batch));
  }
  return per_call.median_ms();
}

/// Crossbar MVM in each kernel regime on the first tile of block 2, fed the
/// word-line codes of an interior output position's first round.
void profile_mvm(const PimNetworkRuntime& rt, const Tensor& block2_input,
                 Report& r) {
  const SmallEpitomeNet::Deploy& d = rt.deploy_state();
  const RuntimeConfig& rc = rt.config();
  const EpitomeSpec& spec = d.block2.spec();
  const ConvSpec& conv = d.block2.conv();
  const IntImage codes = to_codes(block2_input, rt.activation_params()[1]);
  const IndexTables tables(SamplePlan(spec, conv));
  const IfatEntry& round = tables.ifat().front();
  const IfrtSequence& seq =
      tables.ifrt()[static_cast<std::size_t>(round.round)];
  const std::int64_t rows = std::min(rc.crossbar.rows, spec.rows());
  const std::int64_t cols = std::min(
      spec.cout_e, std::max<std::int64_t>(
                       1, rc.crossbar.cols /
                              rc.crossbar.weight_slices(rc.weight_bits)));
  const std::int64_t oy = codes.height / 2, ox = codes.width / 2;
  const std::int64_t khw = conv.kernel_h * conv.kernel_w;
  std::vector<std::uint32_t> input(static_cast<std::size_t>(rows), 0u);
  std::vector<bool> enable(static_cast<std::size_t>(rows), false);
  for (std::int64_t wl = 0; wl < rows; ++wl) {
    const std::int32_t idx = seq.row_to_input[static_cast<std::size_t>(wl)];
    if (idx == IfrtSequence::kInactiveRow) continue;
    const std::int64_t ci = round.ci_start + idx / khw;
    const std::int64_t iy = oy * conv.stride + (idx % khw) / conv.kernel_w -
                            conv.pad;
    const std::int64_t ix = ox * conv.stride + idx % conv.kernel_w - conv.pad;
    input[static_cast<std::size_t>(wl)] = codes.data[static_cast<std::size_t>(
        (ci * codes.height + iy) * codes.width + ix)];
    enable[static_cast<std::size_t>(wl)] = true;
  }
  const std::vector<std::vector<int>> q =
      quantize_epitome(d.block2, rc.weight_bits);
  std::vector<std::vector<int>> tile(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    tile[static_cast<std::size_t>(i)].assign(
        q[static_cast<std::size_t>(i)].begin(),
        q[static_cast<std::size_t>(i)].begin() + cols);
  }
  CrossbarConfig starved = rc.crossbar;
  starved.adc_bits = 6;  // below any tile's worst-case column current
  NonIdealityConfig noisy;
  noisy.conductance_sigma = 0.05;
  const struct {
    const char* name;
    CrossbarArray array;
  } regimes[] = {
      {"pim.mvm_us.direct", CrossbarArray(rc.crossbar, rc.weight_bits, tile)},
      {"pim.mvm_us.serial", CrossbarArray(starved, rc.weight_bits, tile)},
      {"pim.mvm_us.analog",
       CrossbarArray(rc.crossbar, rc.weight_bits, tile, noisy)},
  };
  for (const auto& regime : regimes) {
    std::vector<std::int64_t> acc;
    std::int64_t clips = 0;
    r.layer(regime.name, 1e3 * time_call_ms(
                                  [&] {
                                    regime.array.mvm(input, enable,
                                                     rc.act_bits, acc, &clips);
                                  },
                                  0.3));
  }
}

/// Everything a single image does inside PimNetworkRuntime::forward, layer
/// by layer, at one thread: the three crossbar blocks (engines rebuilt from
/// deploy_state() with the deployed bits, ADC and non-idealities), the whole
/// forward, and its self time.
void profile_runtime(const Fixture& fx, Report& r) {
  set_num_threads(1);
  const DeployedModel chip = deploy(fx, PipelineConfig());
  const PimNetworkRuntime rt(fx.net, fx.data.train, chip.runtime_config());
  const SmallEpitomeNet::Deploy& d = rt.deploy_state();
  const RuntimeConfig& rc = rt.config();
  const PimNetworkRuntime::ActivationParams act = rt.activation_params();

  const Tensor& x = fx.images[0];
  const Tensor a1 = float_block(d.block1, d.bn1, x);
  const Tensor a2 = max_pool2d(float_block(d.block2, d.bn2, a1), 2, 2, 0);
  profile_mvm(rt, a1, r);

  struct Block {
    const char* metric;
    const Epitome* epitome;
    std::int64_t ifm;
    IntImage codes;
    int act_bits;
  };
  const std::int64_t s = d.config.image_size;
  const Block blocks[] = {
      {"datapath.block1.run_ms", &d.block1, s, to_codes(relu(x), act[0]),
       rc.act_bits - 1},
      {"datapath.block2.run_ms", &d.block2, s, to_codes(a1, act[1]),
       rc.act_bits},
      {"datapath.block3.run_ms", &d.block3, s / 2, to_codes(a2, act[2]),
       rc.act_bits},
  };
  const DatapathBackend backend(rc.crossbar, HardwareLut{});
  double blocks_ms = 0.0;
  std::int64_t rounds = 0;
  for (const Block& b : blocks) {
    const ConvLayerInfo layer{b.metric, b.epitome->conv(), b.ifm, b.ifm};
    const PimLayerEngine engine(layer, b.epitome->spec(),
                                quantize_epitome(*b.epitome, rc.weight_bits),
                                rc.weight_bits, rc.crossbar, rc.non_ideal);
    std::int64_t clips = 0;
    const double ms = time_call_ms(
        [&] { (void)engine.run(b.codes, b.act_bits, &clips); }, 0.3);
    r.layer(b.metric, ms);
    // Block 1 runs twice per image (differential +/- input encoding).
    const int passes = b.epitome == &d.block1 ? 2 : 1;
    blocks_ms += passes * ms;
    rounds += passes *
              backend.layer_activity(layer, b.epitome->spec(), 0)
                  .crossbar_rounds;
  }
  r.layer("pim.crossbar_rounds_per_img", static_cast<double>(rounds));

  std::size_t next = 0;
  const double forward_ms = time_call_ms(
      [&] {
        std::int64_t clips = 0;
        (void)rt.forward(fx.images[next++ % fx.images.size()], &clips);
      },
      0.5);
  r.layer("runtime.forward_ms", forward_ms);
  r.layer("runtime.self_ms", forward_ms - blocks_ms);

  // evaluate() at 4 threads varies ~15% run to run, so it is a layer
  // metric here rather than an end-to-end one.
  set_num_threads(4);
  PimNetworkRuntime eval_rt(fx.net, fx.data.train, chip.runtime_config());
  telemetry::Counter* jobs =
      telemetry::Registry::process().counter("epim_pool_jobs_total");
  const double n = static_cast<double>(fx.data.test.size());
  Timings eval_ms(4);
  double jobs_per_img = 0.0;
  (void)eval_rt.evaluate(fx.data.test);
  for (int k = 0; k < 3; ++k) {
    const std::int64_t jobs0 = jobs->value();
    const auto t0 = Clock::now();
    (void)eval_rt.evaluate(fx.data.test);
    eval_ms.add(ms_between(t0, Clock::now()));
    jobs_per_img = static_cast<double>(jobs->value() - jobs0) / n;
  }
  r.layer("runtime.eval_img_per_s_4t", n / (eval_ms.median_ms() / 1e3));
  r.layer("pool.jobs_per_img", jobs_per_img);
}

/// Serving layers under serve-mixed traffic with the trace ring armed. The
/// traffic figures here are as measured, not scaled to nominal host speed.
void profile_serving(const Fixture& fx, const std::string& work_dir,
                     std::uint64_t seed, Report& r) {
  const std::string path = artifact_path(work_dir, "profile_serve");
  deploy(fx, PipelineConfig()).save(path);
  const std::vector<Tensor> reference = reference_logits(path, fx.images);
  set_num_threads(2);
  Frontend f = open_frontend(serve_mixed_registry(), {"m"}, {path},
                             fx.images[0]);
  telemetry::clear_trace();
  telemetry::set_tracing(true);
  TrafficSpec spec = serve_mixed_spec(derive_seed(seed, 40), 3.0);
  spec.profile = true;
  const TrafficResult t =
      drive_traffic(*f.router, *f.registry, fx.images, reference, spec, r);
  telemetry::set_tracing(false);
  f = {};
  r.check(telemetry::spans_recorded() <= telemetry::trace_capacity(),
          "trace ring overflowed during the serving profile");
  std::vector<double> queue_ms, run_ms;
  for (const telemetry::SpanRecord& span : telemetry::snapshot_spans()) {
    queue_ms.push_back(span.close_ms - span.submit_ms);
    run_ms.push_back(span.run_end_ms - span.run_begin_ms);
  }
  r.check(!queue_ms.empty(), "serving profile recorded no trace spans");
  telemetry::clear_trace();
  r.layer("serve.submit_us_p99", quantile(t.submit_us, 0.99));
  r.layer("serve.queue_ms_p50", median(queue_ms));
  r.layer("serve.queue_ms_p99", quantile(queue_ms, 0.99));
  r.layer("serve.run_ms_p50", median(run_ms));
  r.layer("serve.batch_size_mean", t.batch_size_mean);
  r.layer("serve.workers_peak", t.workers_peak);
  r.layer("serve.latency_p50_ms", median(t.latency_ms));
  r.layer("serve.latency_p99_ms", quantile(t.latency_ms, 0.99));
  r.layer("serve.bulk_img_per_s", t.bulk_per_s());
}

/// Registry layers under fleet-churn traffic (as measured, like the serving
/// ones) and the artifact read on its own.
void profile_registry(const Fixture& fx, const std::string& work_dir,
                      std::uint64_t seed, Report& r) {
  FleetArtifacts a = save_fleet(fx, work_dir);
  set_num_threads(1);
  Timings load(1);
  for (int k = 0; k < 5; ++k) {
    const auto t0 = Clock::now();
    (void)Pipeline::load_deployed(a.paths[0]);
    load.add(ms_between(t0, Clock::now()));
  }
  telemetry::Registry& reg = telemetry::Registry::process();
  const std::vector<std::string> labels = fleet_labels(a);
  const auto materialize = [&] {
    double sum = 0.0, count = 0.0;
    for (const std::string& m : labels) {
      const telemetry::Histogram* h =
          reg.histogram("epim_registry_materialize_ms", {{"model", m}});
      sum += h->sum();
      count += static_cast<double>(h->count());
    }
    return std::make_pair(sum, count);
  };
  Frontend front = open_frontend(fleet_registry(), a.names, a.paths,
                                 fx.images[0]);
  const auto [sum0, count0] = materialize();
  const double evictions0 =
      counter_sum("epim_registry_evictions_total", labels);
  const FleetResult f = drive_fleet(front, a, fx.images, derive_seed(seed, 41),
                                    3.0, true, nullptr, r);
  front = {};
  const auto [sum1, count1] = materialize();
  std::vector<double> route_us = f.hot.route_us;
  route_us.insert(route_us.end(), f.cold_route_us.begin(),
                  f.cold_route_us.end());
  r.layer("registry.route_us_p99", quantile(route_us, 0.99));
  r.layer("registry.materialize_ms",
          count1 > count0 ? (sum1 - sum0) / (count1 - count0) : 0.0);
  r.layer("registry.evictions",
          counter_sum("epim_registry_evictions_total", labels) - evictions0);
  r.layer("registry.cold_start_ms", median(f.cold_ms));
  r.layer("registry.latency_p50_ms", median(f.hot.latency_ms));
  r.layer("registry.latency_p99_ms", quantile(f.hot.latency_ms, 0.99));
  r.layer("artifact.load_ms", load.median_ms());
}

/// The design flow's layers at 4 threads: compile, estimate (cost + noise
/// measurement), the bare estimator, and the evolution search.
void profile_design(std::uint64_t seed, Report& r) {
  set_num_threads(4);
  const Network net = resnet50();
  const PipelineConfig cfg;
  const Pipeline pipeline(cfg);
  Timings compile(1), estimate(1);
  std::int64_t w9_xbars = 0;
  for (int k = 0; k < 3; ++k) {
    auto t0 = Clock::now();
    const CompiledModel m = pipeline.compile(net);
    compile.add(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    w9_xbars = m.estimate().cost.num_crossbars;
    estimate.add(ms_between(t0, Clock::now()));
  }
  const CompiledModel m = pipeline.compile(net);
  const double eval_network_ms = time_call_ms(
      [&] {
        (void)pipeline.estimator().eval_network(m.assignment(), m.precision());
      },
      0.3);
  Timings search(1);
  std::int64_t evaluations = 0;  // the same every time, for a fixed seed
  for (int k = 0; k < 2; ++k) {
    CompiledModel model =
        Pipeline(search_config(w9_xbars, seed)).compile(net);
    const auto t0 = Clock::now();
    evaluations = model.search().evaluations;
    search.add(ms_between(t0, Clock::now()));
  }
  r.layer("pipeline.compile_ms", compile.median_ms());
  r.layer("sim.estimate_ms", estimate.median_ms());
  r.layer("pim.eval_network_ms", eval_network_ms);
  r.layer("search.run_ms", search.median_ms());
  r.layer("search.genomes_per_s",
          static_cast<double>(evaluations) / (search.median_ms() / 1e3));
}

// ------------------------------------------------------------------ main ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      a.trace = value[0] == '1';
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

ThreadBudget budget_of(const std::string& workload) {
  if (workload == "eval-ideal") return {1, 1, 0};
  if (workload == "eval-analog") return {4, 1, 0};
  // Two batch workers at most (the adaptive pool's ceiling).
  if (workload == "serve-mixed") return {2, 2, 1};
  // One worker per resident model, one generator per traffic class.
  if (workload == "fleet-churn") return {1, 2, 2};
  return {4, 1, 0};  // design-sweep
}

int run(const Args& a) {
  const std::vector<std::string> known = {"eval-ideal", "eval-analog",
                                          "serve-mixed", "fleet-churn",
                                          "design-sweep"};
  if (std::find(known.begin(), known.end(), a.workload) == known.end()) {
    std::fprintf(stderr, "bench_epim: unknown workload '%s'\n",
                 a.workload.c_str());
    return kExitUsage;
  }
  std::printf("== %s  seed %llu  %.1f s  trace %d  build %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, build_flavor());
  if (!enforce_budget(a.workload.c_str(), budget_of(a.workload))) {
    return kExitBudget;
  }
  telemetry::metrics::ensure_registered();
  // Training is bit-identical at any thread count; use the whole budget.
  set_num_threads(std::min(4, host_cpus()));

  Report r;
  std::optional<Fixture> fx;
  if (a.workload != "design-sweep" || a.trace) fx.emplace(a.seed);
  if (a.workload == "eval-ideal" || a.workload == "eval-analog") {
    run_eval(a.workload == "eval-analog", a.seed, a.seconds, r);
  } else if (a.workload == "serve-mixed") {
    run_serve_mixed(*fx, a.work_dir, a.seed, a.seconds, a.trace, r);
  } else if (a.workload == "fleet-churn") {
    run_fleet_churn(*fx, a.work_dir, a.seed, a.seconds, a.trace, r);
  } else {
    run_design_sweep(a.seed, a.seconds, r);
  }
  for (const auto& [name, value] : r.info) {
    if (name == "lateness_p99_ms" && value > kMaxLatenessP99Ms) {
      std::fprintf(stderr,
                   "bench_epim: generator lateness p99 %.2f ms > %.1f ms; "
                   "run invalid\n",
                   value, kMaxLatenessP99Ms);
      return kExitLateGenerator;
    }
  }
  if (a.trace) {
    // The workload's own high-water mark, before the profile allocates.
    r.layer("process.peak_rss_mb", peak_rss_mb());
    profile_runtime(*fx, r);
    profile_serving(*fx, a.work_dir, a.seed, r);
    profile_registry(*fx, a.work_dir, a.seed, r);
    profile_design(a.seed, r);
  }

  const double host = host_speed().factor();
  std::printf("host speed: reference kernel at %.3fx its nominal time; "
              "timings are reported at nominal speed\n",
              host);
  r.info.push_back({"host_factor", host});
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::string golden = "{";
  for (std::size_t i = 0; i < r.golden.size(); ++i) {
    golden += (i ? ", " : "") + json_string(r.golden[i].first) + ": " +
              r.golden[i].second;
  }
  golden += "}";
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    failures += (i ? ", " : "") + json_string(r.failures[i]);
  }
  failures += "]";
  std::printf(
      "RESULT {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"attempted\": %lld, \"failed\": %lld, \"failures\": %s, "
      "\"e2e\": %s, \"layers\": %s, \"info\": %s, \"golden\": %s}\n",
      json_string(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.trace ? 1 : 0, static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), failures.c_str(),
      metrics_json(r.e2e).c_str(), metrics_json(r.layers).c_str(),
      metrics_json(r.info).c_str(), golden.c_str());
  return r.failures.empty() ? 0 : kExitCheckFailed;
}

}  // namespace
}  // namespace epim

int main(int argc, char** argv) {
  epim::Args args;
  if (!epim::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_epim --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return epim::kExitUsage;
  }
  try {
    const int code = epim::run(args);
    std::fflush(stdout);
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_epim: %s\n", e.what());
    return epim::kExitError;
  }
}
