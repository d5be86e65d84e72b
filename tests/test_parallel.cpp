// Tests for the shared parallel-execution layer (common/parallel.hpp) and
// the determinism contract it promises: runtime evaluation and evolution
// search must produce bit-identical results at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "nn/resnet.hpp"
#include "pim/estimator.hpp"
#include "runtime/pim_runtime.hpp"
#include "search/evolution.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace epim {
namespace {

/// Restores the entry thread count on scope exit so tests compose.
struct ThreadGuard {
  int saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  for (int threads : {1, 2, 8}) {
    set_num_threads(threads);
    const std::int64_t n = 1000;
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    parallel_for(n, [&](std::int64_t i) {
      ++hits[static_cast<std::size_t>(i)];
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), n);
    EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
    EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
  }
}

TEST(Parallel, EmptyAndTinyTripCounts) {
  ThreadGuard guard;
  set_num_threads(8);
  int calls = 0;
  parallel_for(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(num_chunks(0), 0);
  // Fewer iterations than threads: one chunk per iteration.
  EXPECT_EQ(num_chunks(3), 3);
  std::vector<std::int64_t> seen;
  parallel_for_chunks(3, [&](int chunk, std::int64_t b, std::int64_t e) {
    EXPECT_EQ(e, b + 1);
    EXPECT_EQ(chunk, static_cast<int>(b));
    (void)seen;
  });
}

TEST(Parallel, ChunkBoundariesDependOnlyOnConfiguration) {
  ThreadGuard guard;
  set_num_threads(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> first, second;
  std::mutex m;
  parallel_for_chunks(103, [&](int, std::int64_t b, std::int64_t e) {
    std::lock_guard<std::mutex> lock(m);
    first.emplace_back(b, e);
  });
  parallel_for_chunks(103, [&](int, std::int64_t b, std::int64_t e) {
    std::lock_guard<std::mutex> lock(m);
    second.emplace_back(b, e);
  });
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  EXPECT_EQ(first, second);
  EXPECT_EQ(static_cast<int>(first.size()), num_chunks(103));
}

TEST(Parallel, ChunkedReductionIsThreadCountInvariant) {
  ThreadGuard guard;
  // The blessed reduction pattern: per-chunk partials sized via
  // num_chunks(), passed explicitly to parallel_for_chunks, folded in
  // chunk order. Integer sums are order-independent, so the result is
  // identical at every thread count.
  std::vector<std::int64_t> sums;
  for (int threads : {1, 2, 8}) {
    set_num_threads(threads);
    const int chunks = std::max(num_chunks(1234), 1);
    std::vector<std::int64_t> partials(static_cast<std::size_t>(chunks), 0);
    parallel_for_chunks(1234, chunks,
                        [&](int chunk, std::int64_t b, std::int64_t e) {
                          for (std::int64_t i = b; i < e; ++i) {
                            partials[static_cast<std::size_t>(chunk)] += i * i;
                          }
                        });
    std::int64_t total = 0;
    for (const std::int64_t p : partials) total += p;
    sums.push_back(total);
  }
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[0], sums[2]);
}

TEST(Parallel, NestedRegionsRunInline) {
  ThreadGuard guard;
  set_num_threads(4);
  std::atomic<int> total{0};
  parallel_for(8, [&](std::int64_t) {
    // Nested region: must not deadlock and must still cover every index.
    parallel_for(10, [&](std::int64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  ThreadGuard guard;
  set_num_threads(4);
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::int64_t i) {
                     EPIM_CHECK(i != 57, "boom");
                   }),
      InvalidArgument);
}

TEST(Parallel, SetNumThreadsClampsAndReports) {
  ThreadGuard guard;
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(0);
  EXPECT_EQ(num_threads(), 1);
  // Huge requests clamp to the hard ceiling instead of fork-bombing.
  set_num_threads(1 << 28);
  EXPECT_EQ(num_threads(), detail::kMaxThreads);
}

TEST(Parallel, ThreadEnvParsingRejectsGarbage) {
  // EPIM_THREADS is read once at pool creation, so the parser is exercised
  // directly: 0 means "invalid, fall back to hardware concurrency".
  EXPECT_EQ(detail::parse_thread_env("0"), 0);
  EXPECT_EQ(detail::parse_thread_env("-1"), 0);
  EXPECT_EQ(detail::parse_thread_env("-999999999999999999"), 0);
  EXPECT_EQ(detail::parse_thread_env("abc"), 0);
  EXPECT_EQ(detail::parse_thread_env("4x"), 0);
  EXPECT_EQ(detail::parse_thread_env(""), 0);
  EXPECT_EQ(detail::parse_thread_env(" "), 0);
  EXPECT_EQ(detail::parse_thread_env(nullptr), 0);
}

TEST(Parallel, ThreadEnvParsingAcceptsAndClampsNumbers) {
  EXPECT_EQ(detail::parse_thread_env("1"), 1);
  EXPECT_EQ(detail::parse_thread_env("16"), 16);
  EXPECT_EQ(detail::parse_thread_env(std::to_string(detail::kMaxThreads)
                                         .c_str()),
            detail::kMaxThreads);
  // Huge (including values that overflow long) clamp to the ceiling.
  EXPECT_EQ(detail::parse_thread_env("1000000"), detail::kMaxThreads);
  EXPECT_EQ(detail::parse_thread_env("999999999999999999999999"),
            detail::kMaxThreads);
}

TEST(Parallel, ConcurrentInitiatorsShareOnePool) {
  // Several threads (one dispatcher per resident model, in serving terms)
  // may each initiate parallel regions at once; every region must still
  // cover every index exactly once with correct results, and the process
  // must never hold more than the configured pool. Repeated rounds shake
  // out job-handoff races.
  ThreadGuard guard;
  set_num_threads(4);
  constexpr int kInitiators = 3;
  constexpr int kRounds = 20;
  constexpr std::int64_t kN = 2000;
  std::vector<std::string> failures(kInitiators);
  std::vector<std::thread> initiators;
  for (int t = 0; t < kInitiators; ++t) {
    initiators.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::int64_t> out(static_cast<std::size_t>(kN), -1);
        parallel_for(kN, [&](std::int64_t i) {
          out[static_cast<std::size_t>(i)] = i * (t + 1) + round;
        });
        for (std::int64_t i = 0; i < kN; ++i) {
          if (out[static_cast<std::size_t>(i)] != i * (t + 1) + round) {
            failures[static_cast<std::size_t>(t)] =
                "round " + std::to_string(round) + " index " +
                std::to_string(i);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : initiators) t.join();
  for (int t = 0; t < kInitiators; ++t) {
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], "") << "initiator " << t;
  }
}

TEST(Parallel, ConcurrentInitiatorExceptionsStayWithTheirRegion) {
  // An exception thrown inside one initiator's region must propagate to
  // that initiator only; the sibling region completes untouched.
  ThreadGuard guard;
  set_num_threads(4);
  std::atomic<bool> ok_region_done{false};
  std::atomic<bool> threw{false};
  std::thread throwing([&] {
    try {
      parallel_for(64, [&](std::int64_t i) {
        if (i == 13) throw std::runtime_error("boom");
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
  });
  std::thread clean([&] {
    std::vector<int> hits(256, 0);
    parallel_for(256, [&](std::int64_t i) {
      ++hits[static_cast<std::size_t>(i)];
    });
    ok_region_done =
        std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; });
  });
  throwing.join();
  clean.join();
  EXPECT_TRUE(threw.load());
  EXPECT_TRUE(ok_region_done.load());
}

TEST(Parallel, NegativeTripCountsAreEmpty) {
  ThreadGuard guard;
  set_num_threads(4);
  int calls = 0;
  parallel_for(-5, [&](std::int64_t) { ++calls; });
  parallel_for_chunks(-5, [&](int, std::int64_t, std::int64_t) { ++calls; });
  parallel_for_chunks(10, /*chunks=*/0,
                      [&](int, std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(num_chunks(-5), 0);
}

TEST(Parallel, FirstFailingChunkWinsExceptionPropagation) {
  ThreadGuard guard;
  set_num_threads(4);
  // Chunks 1 and 3 both throw; the caller must see chunk 1's exception --
  // exactly what serial execution would have thrown first.
  try {
    parallel_for_chunks(
        4, 4, [&](int chunk, std::int64_t, std::int64_t) {
          if (chunk == 3) throw InvalidArgument("chunk 3 failed");
          if (chunk == 1) throw InvalidArgument("chunk 1 failed");
        });
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "chunk 1 failed");
  }
}

TEST(Parallel, NestedRegionExceptionsPropagateThroughOuterRegion) {
  ThreadGuard guard;
  set_num_threads(4);
  // The service's nesting shape: an outer region (batch fan-out) whose
  // chunks issue inner regions (per-image engine loops). An inner failure
  // must surface through both levels, lowest outer chunk first.
  std::atomic<int> completed{0};
  try {
    parallel_for_chunks(8, 8, [&](int chunk, std::int64_t, std::int64_t) {
      parallel_for(4, [&](std::int64_t i) {
        if (chunk >= 5 && i == 2) {
          throw InvalidArgument("inner failure in outer chunk " +
                                std::to_string(chunk));
        }
      });
      completed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "inner failure in outer chunk 5");
  }
  // Chunks before the failing one all completed (chunk order guarantee for
  // the inline nested path is per-chunk, not global, but at least the
  // non-throwing chunks ran).
  EXPECT_EQ(completed.load(), 5);
}

TEST(Parallel, PoolSurvivesExceptionAndKeepsWorking) {
  ThreadGuard guard;
  set_num_threads(4);
  EXPECT_THROW(parallel_for(16, [&](std::int64_t i) {
                 EPIM_CHECK(i != 3, "boom");
               }),
               InvalidArgument);
  // The pool must remain usable for the next region.
  std::atomic<std::int64_t> sum{0};
  parallel_for(100, [&](std::int64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(Parallel, MatmulIsThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(11);
  Tensor a({37, 53}), b({29, 53});
  rng.fill_normal(a.data(), static_cast<std::size_t>(a.numel()), 0.0f, 1.0f);
  rng.fill_normal(b.data(), static_cast<std::size_t>(b.numel()), 0.0f, 1.0f);
  set_num_threads(1);
  const Tensor c1 = matmul_nt(a, b);
  set_num_threads(8);
  const Tensor c8 = matmul_nt(a, b);
  ASSERT_EQ(c1.shape(), c8.shape());
  for (std::int64_t i = 0; i < c1.numel(); ++i) {
    EXPECT_EQ(c1.at(i), c8.at(i)) << "element " << i;
  }
}

// ---- end-to-end determinism: the acceptance criterion of the PR ----

struct DeployedFixture {
  SyntheticData data;
  SmallEpitomeNet net;
  RuntimeConfig cfg;
};

DeployedFixture& deployed_fixture() {
  static DeployedFixture* f = [] {
    SyntheticSpec dspec;
    dspec.num_classes = 4;
    dspec.train_per_class = 12;
    dspec.test_per_class = 8;
    auto* fx = new DeployedFixture{make_synthetic_data(dspec),
                                   SmallEpitomeNet([] {
                                     SmallNetConfig c;
                                     c.num_classes = 4;
                                     return c;
                                   }()),
                                   RuntimeConfig{}};
    TrainConfig tcfg;
    tcfg.epochs = 2;  // determinism needs a deployed model, not a good one
    train_model(fx->net, fx->data, tcfg);
    fx->cfg.crossbar.adc_bits = 12;
    return fx;
  }();
  return *f;
}

TEST(Determinism, RuntimeEvaluateIdenticalAtAnyThreadCount) {
  ThreadGuard guard;
  auto& f = deployed_fixture();
  set_num_threads(1);
  PimNetworkRuntime runtime(f.net, f.data.train, f.cfg);
  std::int64_t clips1 = 0;
  const double acc1 = runtime.evaluate(f.data.test, &clips1);
  const Tensor logits1 = runtime.forward(f.data.test.sample(0));
  for (int threads : {2, 8}) {
    set_num_threads(threads);
    std::int64_t clips = 0;
    const double acc = runtime.evaluate(f.data.test, &clips);
    EXPECT_EQ(acc, acc1) << "threads=" << threads;
    EXPECT_EQ(clips, clips1) << "threads=" << threads;
    const Tensor logits = runtime.forward(f.data.test.sample(0));
    for (std::int64_t j = 0; j < logits1.numel(); ++j) {
      EXPECT_EQ(logits.at(j), logits1.at(j))
          << "logit " << j << " threads=" << threads;
    }
  }
}

TEST(Determinism, NoisyRuntimeEvaluateIdenticalAtAnyThreadCount) {
  ThreadGuard guard;
  auto& f = deployed_fixture();
  RuntimeConfig noisy = f.cfg;
  noisy.non_ideal.conductance_sigma = 0.4;
  noisy.non_ideal.stuck_at_zero_prob = 0.02;
  PimNetworkRuntime runtime(f.net, f.data.train, noisy);
  set_num_threads(1);
  const double acc1 = runtime.evaluate(f.data.test);
  set_num_threads(8);
  EXPECT_EQ(runtime.evaluate(f.data.test), acc1);
}

TEST(Determinism, EvolutionSearchIdenticalAtAnyThreadCount) {
  ThreadGuard guard;
  const Network net = mini_resnet();
  PimEstimator estimator(CrossbarConfig{}, HardwareLut{});
  EvoSearchConfig cfg;
  cfg.population = 12;
  cfg.parents = 4;
  cfg.iterations = 4;
  cfg.crossbar_budget = 400;

  set_num_threads(1);
  const EvoSearchResult r1 = EvolutionSearch(net, estimator, cfg).run();
  for (int threads : {2, 8}) {
    set_num_threads(threads);
    const EvoSearchResult r = EvolutionSearch(net, estimator, cfg).run();
    EXPECT_EQ(r.best_reward, r1.best_reward) << "threads=" << threads;
    EXPECT_EQ(r.best_cost.num_crossbars, r1.best_cost.num_crossbars);
    EXPECT_EQ(r.best_cost.latency_ms, r1.best_cost.latency_ms);
    EXPECT_EQ(r.reward_history, r1.reward_history);
    ASSERT_EQ(r.best.num_layers(), r1.best.num_layers());
    for (std::int64_t i = 0; i < r.best.num_layers(); ++i) {
      EXPECT_EQ(r.best.choice(i), r1.best.choice(i)) << "layer " << i;
    }
  }
}

}  // namespace
}  // namespace epim
