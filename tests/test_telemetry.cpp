// Tests for the fleet telemetry layer (src/telemetry/): metric primitives
// (boundary/overflow bucketing, high-water gauges, nearest-rank quantiles),
// lossless concurrent recording, pinned registration errors, a golden
// Prometheus text exposition, the trace-span ring, and the instrumented
// layers end-to-end -- including the lockdep-gated pin that
// telemetry::Registry::mu_ is a LEAF (no outgoing edges, never taken under
// ModelRegistry::mu_).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_inject.hpp"
#include "common/lock_debug.hpp"
#include "pipeline/pipeline.hpp"
#include "registry/registry.hpp"
#include "serve/service.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::HistogramOptions;
using telemetry::Labels;
using telemetry::Registry;

// ---- primitives ----

TEST(TelemetryCounter, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(TelemetryGauge, TracksValueAndHighWater) {
  Gauge g;
  g.add(5);
  g.add(3);
  g.sub(6);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.high_water(), 8);
  g.set(4);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(g.high_water(), 8);  // sub/set-below never raise it
  g.set(11);
  EXPECT_EQ(g.high_water(), 11);
}

TEST(TelemetryHistogram, BoundaryValueLandsInLowerBucket) {
  HistogramOptions opt;
  opt.first_bound = 1.0;
  opt.buckets = 4;  // inclusive upper bounds 1, 2, 4, 8
  Histogram h(opt);
  h.observe(1.0);  // exactly on the first bound -> bucket 0, not bucket 1
  h.observe(2.0);  // exactly on the second bound -> bucket 1
  h.observe(2.0000001);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 0);
  EXPECT_EQ(h.overflow_count(), 0);
}

TEST(TelemetryHistogram, OverflowBucketCatchesLargeSamples) {
  HistogramOptions opt;
  opt.first_bound = 1.0;
  opt.buckets = 4;
  Histogram h(opt);
  h.observe(8.0);    // exactly the largest finite bound: finite bucket
  h.observe(8.0001); // past it: overflow
  h.observe(1.0e18);
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_EQ(h.overflow_count(), 2);
  EXPECT_EQ(h.count(), 3);
}

TEST(TelemetryHistogram, QuantileIsBucketUpperBoundNearestRank) {
  HistogramOptions opt;
  opt.first_bound = 1.0;
  opt.buckets = 4;
  Histogram h(opt);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty -> 0
  for (int i = 0; i < 9; ++i) h.observe(0.5);  // bucket 0 (bound 1)
  h.observe(100.0);                            // overflow
  EXPECT_EQ(h.quantile(0.50), 1.0);
  EXPECT_EQ(h.quantile(0.90), 1.0);
  // The p99+ rank lands in the overflow bucket: clamped to the largest
  // finite bound, not infinity.
  EXPECT_EQ(h.quantile(0.99), 8.0);
  EXPECT_EQ(h.quantile(1.0), 8.0);
  EXPECT_THROW((void)h.quantile(1.5), InvalidArgument);
}

TEST(TelemetryHistogram, ResetZeroesEverything) {
  Histogram h;
  h.observe(1.0);
  h.observe(2.0);
  ASSERT_EQ(h.count(), 2);
  ASSERT_GT(h.sum(), 0.0);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(TelemetryHistogram, MergeEqualsOneHistogramFedBothSampleSets) {
  HistogramOptions opt;
  opt.first_bound = 1.0;
  opt.buckets = 4;  // bounds 1, 2, 4, 8, then overflow
  const std::vector<double> first = {0.5, 1.0, 3.0, 3.5, 100.0};
  const std::vector<double> second = {2.0, 7.0, 8.0, 9.0, 0.25, 6.0};
  Histogram a(opt), b(opt), both(opt);
  for (const double v : first) {
    a.observe(v);
    both.observe(v);
  }
  for (const double v : second) {
    b.observe(v);
    both.observe(v);
  }
  a.merge(b);
  for (int i = 0; i < a.buckets(); ++i) {
    EXPECT_EQ(a.bucket_count(i), both.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(a.overflow_count(), both.overflow_count());
  EXPECT_EQ(a.overflow_count(), 2);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), both.quantile(q)) << "q=" << q;
  }
  // The merged-from histogram is only read.
  EXPECT_EQ(b.count(), static_cast<std::int64_t>(second.size()));

  // Different bucket bounds cannot be summed bucket by bucket.
  HistogramOptions shifted = opt;
  shifted.first_bound = 2.0;
  HistogramOptions longer = opt;
  longer.buckets = 5;
  Histogram other_bounds(shifted), more_buckets(longer);
  EXPECT_THROW(a.merge(other_bounds), InvalidArgument);
  EXPECT_THROW(a.merge(more_buckets), InvalidArgument);
  EXPECT_EQ(a.count(), both.count());  // a failed merge changes nothing
}

TEST(TelemetryHistogram, ConcurrentRecordingLosesNoCounts) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  HistogramOptions opt;
  opt.first_bound = 1.0;
  opt.buckets = 8;
  Histogram h(opt);
  Counter c;
  Gauge g;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        // Spread samples across buckets (and the overflow slot).
        h.observe(static_cast<double>((t + i) % 300));
        c.inc(1);
        g.add(1);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(g.value(), kThreads * kPerThread);
}

TEST(Telemetry, RecordingKillSwitchDropsEverySample) {
  Counter c;
  Gauge g;
  Histogram h;
  telemetry::set_recording(false);
  c.inc(5);
  g.add(5);
  h.observe(5.0);
  telemetry::set_recording(true);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0);
  c.inc(1);
  EXPECT_EQ(c.value(), 1);  // switch restored
}

// ---- registry: registration rules (pinned errors) ----

TEST(TelemetryRegistry, DuplicateRegistrationThrowsPinnedError) {
  Registry reg;
  reg.register_counter("epim_test_dup_total", "First.");
  try {
    reg.register_gauge("epim_test_dup_total", "Second, any type.");
    FAIL() << "duplicate registration must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(Registry::kErrDuplicateMetric),
              std::string::npos)
        << e.what();
  }
}

TEST(TelemetryRegistry, BadNamesAndLookupsThrowPinnedErrors) {
  Registry reg;
  EXPECT_THROW(reg.register_counter("serve_requests_total", "No prefix."),
               InvalidArgument);
  EXPECT_THROW(reg.register_counter("epim_Serve_total", "Uppercase."),
               InvalidArgument);
  EXPECT_THROW(reg.register_counter("epim_", "Bare prefix."),
               InvalidArgument);
  try {
    reg.register_counter("epim_bad-name", "Dash.");
    FAIL() << "bad name must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(Registry::kErrBadMetricName),
              std::string::npos);
  }
  try {
    (void)reg.counter("epim_test_never_registered_total");
    FAIL() << "unknown family must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(Registry::kErrUnknownMetric),
              std::string::npos);
  }
  reg.register_counter("epim_test_typed_total", "A counter.");
  try {
    (void)reg.gauge("epim_test_typed_total");
    FAIL() << "type mismatch must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(Registry::kErrMetricType),
              std::string::npos);
  }
  try {
    (void)reg.counter("epim_test_typed_total", {{"bad label", "x"}});
    FAIL() << "bad label name must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(Registry::kErrBadLabel),
              std::string::npos);
  }
  EXPECT_THROW(
      (void)reg.counter("epim_test_typed_total", {{"a", "1"}, {"a", "2"}}),
      InvalidArgument);
}

TEST(TelemetryRegistry, SeriesPointersAreStableAndLabelOrderCanonical) {
  Registry reg;
  reg.register_counter("epim_test_stable_total", "Stable.");
  Counter* a = reg.counter("epim_test_stable_total",
                           {{"x", "1"}, {"y", "2"}});
  Counter* b = reg.counter("epim_test_stable_total",
                           {{"y", "2"}, {"x", "1"}});  // same series, reordered
  Counter* other = reg.counter("epim_test_stable_total", {{"x", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->inc(3);
  EXPECT_EQ(b->value(), 3);
}

// ---- registry: golden exposition ----

TEST(TelemetryRegistry, RenderTextMatchesGolden) {
  Registry reg;
  reg.register_gauge("epim_test_depth", "Depth.");
  HistogramOptions opt;
  opt.first_bound = 1.0;
  opt.buckets = 4;
  reg.register_histogram("epim_test_latency_ms", "Latency.", opt);
  reg.register_counter("epim_test_requests_total", "Requests.");

  reg.gauge("epim_test_depth")->set(7);
  Histogram* h = reg.histogram("epim_test_latency_ms", {{"model", "a"}});
  h->observe(0.5);
  h->observe(1.0);    // boundary: lower bucket
  h->observe(3.0);
  h->observe(100.0);  // overflow
  reg.counter("epim_test_requests_total", {{"model", "a"}})->inc(3);
  reg.counter("epim_test_requests_total", {{"model", "b"}})->inc(1);

  const std::string golden =
      "# HELP epim_test_depth Depth.\n"
      "# TYPE epim_test_depth gauge\n"
      "epim_test_depth 7\n"
      "# HELP epim_test_latency_ms Latency.\n"
      "# TYPE epim_test_latency_ms histogram\n"
      "epim_test_latency_ms_bucket{model=\"a\",le=\"1\"} 2\n"
      "epim_test_latency_ms_bucket{model=\"a\",le=\"2\"} 2\n"
      "epim_test_latency_ms_bucket{model=\"a\",le=\"4\"} 3\n"
      "epim_test_latency_ms_bucket{model=\"a\",le=\"8\"} 3\n"
      "epim_test_latency_ms_bucket{model=\"a\",le=\"+Inf\"} 4\n"
      "epim_test_latency_ms_sum{model=\"a\"} 104.5\n"
      "epim_test_latency_ms_count{model=\"a\"} 4\n"
      "# HELP epim_test_requests_total Requests.\n"
      "# TYPE epim_test_requests_total counter\n"
      "epim_test_requests_total{model=\"a\"} 3\n"
      "epim_test_requests_total{model=\"b\"} 1\n";
  EXPECT_EQ(reg.render_text(), golden);
  EXPECT_EQ(reg.family_count(), 3u);
}

TEST(TelemetryRegistry, RenderTextEscapesLabelValuesAndHelp) {
  Registry reg;
  reg.register_counter("epim_test_escape_total", "Line one\nwith \\ slash.");
  reg.counter("epim_test_escape_total", {{"m", "a\"b\\c\nd"}})->inc(1);
  const std::string golden =
      "# HELP epim_test_escape_total Line one\\nwith \\\\ slash.\n"
      "# TYPE epim_test_escape_total counter\n"
      "epim_test_escape_total{m=\"a\\\"b\\\\c\\nd\"} 1\n";
  EXPECT_EQ(reg.render_text(), golden);
}

// ---- trace ring ----

TEST(TelemetryTrace, RingRecordsAndSnapshotsInOrder) {
  telemetry::clear_trace();
  telemetry::set_tracing(true);
  for (int i = 0; i < 5; ++i) {
    telemetry::SpanRecord s;
    std::snprintf(s.model, sizeof(s.model), "m%d", i);
    s.worker = static_cast<std::uint32_t>(i);
    s.batch = 1;
    s.submit_ms = i;
    s.close_ms = i + 0.5;
    s.run_begin_ms = i + 0.5;
    s.run_end_ms = i + 1.0;
    telemetry::record_span(s);
  }
  telemetry::set_tracing(false);
  EXPECT_EQ(telemetry::spans_recorded(), 5u);
  const std::vector<telemetry::SpanRecord> spans = telemetry::snapshot_spans();
  ASSERT_EQ(spans.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].worker,
              static_cast<std::uint32_t>(i));
  }
  // Disarmed recording is a no-op.
  telemetry::record_span(spans[0]);
  EXPECT_EQ(telemetry::spans_recorded(), 5u);
  telemetry::clear_trace();
  EXPECT_EQ(telemetry::snapshot_spans().size(), 0u);
}

TEST(TelemetryTrace, RingOverwritesOldestPastCapacity) {
  telemetry::clear_trace();
  telemetry::set_tracing(true);
  const std::size_t capacity = telemetry::trace_capacity();
  telemetry::SpanRecord s;
  std::snprintf(s.model, sizeof(s.model), "overflow");
  for (std::size_t i = 0; i < capacity + 10; ++i) {
    s.worker = static_cast<std::uint32_t>(i);
    telemetry::record_span(s);
  }
  telemetry::set_tracing(false);
  EXPECT_EQ(telemetry::spans_recorded(), capacity + 10);
  const std::vector<telemetry::SpanRecord> spans = telemetry::snapshot_spans();
  ASSERT_EQ(spans.size(), capacity);
  // Oldest surviving record is ticket 10.
  EXPECT_EQ(spans.front().worker, 10u);
  EXPECT_EQ(spans.back().worker, static_cast<std::uint32_t>(capacity + 9));
  telemetry::clear_trace();
}

TEST(TelemetryTrace, RenderJsonEmitsQueueAndRunEvents) {
  telemetry::clear_trace();
  telemetry::set_tracing(true);
  telemetry::SpanRecord s;
  std::snprintf(s.model, sizeof(s.model), "json\"model");
  s.worker = 3;
  s.batch = 2;
  s.submit_ms = 1.0;
  s.close_ms = 2.0;
  s.run_begin_ms = 2.0;
  s.run_end_ms = 4.0;
  telemetry::record_span(s);
  telemetry::set_tracing(false);
  const std::string json = telemetry::render_trace_json();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000.000,\"dur\":1000.000"), std::string::npos);
  EXPECT_NE(json.find("json\\\"model"), std::string::npos);  // escaped quote
  telemetry::clear_trace();
}

// ---- instrumented layers end-to-end ----

struct TinyModel {
  TinyModel() {
    SyntheticSpec spec;
    spec.num_classes = 2;
    spec.train_per_class = 6;
    spec.test_per_class = 2;
    data = make_synthetic_data(spec);
    SmallNetConfig nc;
    nc.num_classes = 2;
    net = std::make_unique<SmallEpitomeNet>(nc);
    TrainConfig tcfg;
    tcfg.epochs = 1;
    train_model(*net, data, tcfg);
  }
  DeployedModel deploy() {
    return Pipeline(PipelineConfig{}).deploy(*net, data.train);
  }
  SyntheticData data;
  std::unique_ptr<SmallEpitomeNet> net;
};

TEST(TelemetryServe, QueuedStatsAndQueueDepthGaugeAgree) {
  TinyModel tiny;
  ServeConfig scfg;
  scfg.workers = 1;
  scfg.max_batch = 1;
  InferenceService service(tiny.deploy(), scfg, "gate_test");
  // Queue depth is a per-priority series since the scheduler PR; default
  // submissions land in the "normal" class.
  Gauge* depth = telemetry::Registry::process().gauge(
      "epim_serve_queue_depth",
      {{"model", "gate_test"}, {"priority", "normal"}});
  ASSERT_EQ(depth->value(), 0);

  // Park the single worker inside run_batch: the batch it closed is in
  // flight, the rest of the burst stays queued, and both the guarded
  // ServiceStats::queued counter and the lock-free gauge must agree.
  fault::arm_gate("serve.run_batch");
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.submit(tiny.data.test.sample(0)));
  }
  fault::wait_for_hits("serve.run_batch", 1);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued, 2);
  EXPECT_EQ(stats.in_flight, 1);
  EXPECT_EQ(depth->value(), 2);

  fault::open_gate("serve.run_batch");
  for (auto& f : futures) f.get();
  fault::disarm("serve.run_batch");
  stats = service.stats();
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(depth->value(), 0);
  // The worker may drain the first submit before the others land, so only
  // the parked-gate depth of 2 is a guaranteed high-water mark.
  EXPECT_GE(depth->high_water(), 2);

  // The shared per-label series saw the traffic too.
  Counter* requests = telemetry::Registry::process().counter(
      "epim_serve_requests_total", {{"model", "gate_test"}});
  EXPECT_EQ(requests->value(), 3);
  Histogram* latency = telemetry::Registry::process().histogram(
      "epim_serve_latency_ms",
      {{"model", "gate_test"}, {"priority", "normal"}});
  EXPECT_EQ(latency->count(), 3);
}

TEST(TelemetryServe, StatsPercentilesComeFromIntervalHistogram) {
  TinyModel tiny;
  InferenceService service(tiny.deploy(), ServeConfig{},
                           "percentile_test");
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(tiny.data.test.sample(0)));
  }
  for (auto& f : futures) f.get();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 8);
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p99_latency_ms);
  // The digest is the interval histogram, which counted every request.
  EXPECT_EQ(service.interval_latency().count(), 8);
  EXPECT_EQ(stats.p50_latency_ms, service.interval_latency().quantile(0.50));
  EXPECT_EQ(stats.p99_latency_ms, service.interval_latency().quantile(0.99));
  service.reset();
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.p50_latency_ms, 0.0);
  EXPECT_EQ(after.p99_latency_ms, 0.0);
  EXPECT_EQ(service.interval_latency().count(), 0);
}

TEST(TelemetryRegistryIntegration, LifecycleSeriesFollowTheMachine) {
  TinyModel tiny;
  Registry& process = telemetry::Registry::process();
  RegistryConfig rcfg;
  rcfg.max_resident_models = 1;
  ModelRegistry registry(rcfg);
  registry.register_model("telem", "v1", tiny.deploy());
  registry.register_model("telem", "v2", tiny.deploy());

  Counter* v1_resident = process.counter(
      "epim_registry_transitions_total",
      {{"model", "telem@v1"}, {"to", "resident"}});
  Counter* v1_evicted =
      process.counter("epim_registry_evictions_total", {{"model", "telem@v1"}});
  Histogram* v1_mat = process.histogram("epim_registry_materialize_ms",
                                        {{"model", "telem@v1"}});
  Gauge* v1_pins =
      process.gauge("epim_registry_pins_depth", {{"model", "telem@v1"}});
  ASSERT_EQ(v1_resident->value(), 0);

  registry.submit("telem", "v1", tiny.data.test.sample(0)).get();
  EXPECT_EQ(v1_resident->value(), 1);
  EXPECT_EQ(v1_mat->count(), 1);
  EXPECT_GT(v1_mat->sum(), 0.0);
  EXPECT_EQ(v1_pins->value(), 0);       // pinned around the enqueue only
  EXPECT_GE(v1_pins->high_water(), 1);  // ... but it was pinned

  // Materializing v2 exceeds the budget of 1 and evicts v1.
  registry.submit("telem", "v2", tiny.data.test.sample(0)).get();
  EXPECT_EQ(v1_evicted->value(), 1);

  // Re-materializing v1 CONTINUES its monotonic series (same pointers).
  registry.submit("telem", "v1", tiny.data.test.sample(0)).get();
  EXPECT_EQ(v1_resident->value(), 2);
  EXPECT_EQ(v1_mat->count(), 2);

  // The service the registry materialized records under "name@version".
  Counter* v1_requests = process.counter("epim_serve_requests_total",
                                         {{"model", "telem@v1"}});
  EXPECT_EQ(v1_requests->value(), 2);
}

TEST(TelemetryFault, ArmedPointsMirrorHitAndFireCounters) {
  // Under a gtest filter this can be the process's first registry touch.
  telemetry::metrics::ensure_registered();
  Registry& process = telemetry::Registry::process();
  Counter* hits = process.counter("epim_fault_hits_total",
                                  {{"point", "telemetry.test.point"}});
  Counter* fires = process.counter("epim_fault_fires_total",
                                   {{"point", "telemetry.test.point"}});
  const std::int64_t hits0 = hits->value();
  const std::int64_t fires0 = fires->value();
  fault::arm_nth("telemetry.test.point", 2);
  EXPECT_FALSE(fault::should_fire("telemetry.test.point"));
  EXPECT_TRUE(fault::should_fire("telemetry.test.point"));
  EXPECT_FALSE(fault::should_fire("telemetry.test.point"));
  fault::disarm("telemetry.test.point");
  EXPECT_EQ(hits->value() - hits0, 3);
  EXPECT_EQ(fires->value() - fires0, 1);
}

// ---- lockdep: the telemetry mutex is a leaf ----

TEST(TelemetryLockdep, RegistryMutexIsALeaf) {
  if (!debug::kLockDebugEnabled) {
    GTEST_SKIP() << "build with -DEPIM_LOCK_DEBUG=ON to check lock order";
  }
  // Drive every instrumented path: registration + series lookup, serving
  // traffic, registry materialize/evict/scrape, fault points, and a render
  // -- then pin the leaf contract on the accumulated acquisition graph.
  TinyModel tiny;
  RegistryConfig rcfg;
  rcfg.max_resident_models = 1;
  ModelRegistry registry(rcfg);
  registry.register_model("leaf", "v1", tiny.deploy());
  registry.register_model("leaf", "v2", tiny.deploy());
  registry.submit("leaf", "v1", tiny.data.test.sample(0)).get();
  registry.submit("leaf", "v2", tiny.data.test.sample(0)).get();  // evicts v1
  (void)registry.stats();
  Router router(registry);
  (void)router.route("leaf@v2");
  fault::arm_nth("telemetry.leaf.point", 1000);
  (void)fault::should_fire("telemetry.leaf.point");
  fault::disarm("telemetry.leaf.point");
  (void)telemetry::Registry::process().render_text();

  debug::LockOrderRegistry& graph = debug::LockOrderRegistry::instance();
  const std::string telemetry_mu = "telemetry::Registry::mu_";
  // Never taken UNDER any instrumented layer's lock: series are resolved
  // before those locks, recording is lock-free.
  EXPECT_FALSE(graph.has_edge("ModelRegistry::mu_", telemetry_mu));
  EXPECT_FALSE(graph.has_edge("InferenceService::mu_", telemetry_mu));
  EXPECT_FALSE(graph.has_edge("Router::mu_", telemetry_mu));
  EXPECT_FALSE(graph.has_edge("fault::FaultRegistry::mu_", telemetry_mu));
  EXPECT_FALSE(graph.has_edge("parallel::ThreadPool::mutex_", telemetry_mu));
  // And NOTHING is acquired under it (leaf): render_text reads atomics only.
  EXPECT_FALSE(graph.has_edge(telemetry_mu, "ModelRegistry::mu_"));
  EXPECT_FALSE(graph.has_edge(telemetry_mu, "InferenceService::mu_"));
  EXPECT_FALSE(graph.has_edge(telemetry_mu, "Router::mu_"));
  EXPECT_FALSE(graph.has_edge(telemetry_mu, "fault::FaultRegistry::mu_"));
  EXPECT_FALSE(graph.has_edge(telemetry_mu, "parallel::ThreadPool::mutex_"));
  // Positive control: the graph is live (the router's one legal edge).
  EXPECT_TRUE(graph.has_edge("Router::mu_", "ModelRegistry::mu_"));
}

}  // namespace
}  // namespace epim
