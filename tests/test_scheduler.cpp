// Deterministic unit tests for the SLA-aware scheduler (serve/scheduler.hpp)
// in isolation -- no service, no threads, no clock reads. Requests carry a
// synthetic marker in their `enqueued` timestamp so selection ORDER is
// asserted exactly: strict priority across classes, FIFO within a class,
// the bounded anti-starvation reservation, and deadline shedding. The
// single-class case must degenerate to the original FIFO queue
// bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "serve/scheduler.hpp"

namespace epim {
namespace {

using Clock = std::chrono::steady_clock;

/// Fixed synthetic epoch: tests never read the real clock.
Clock::time_point base() { return Clock::time_point{}; }

/// A request tagged with `marker` (recovered by marker_of below). Image and
/// promise stay default -- the scheduler never inspects payloads.
SchedRequest make_request(int marker, Priority priority = Priority::kNormal,
                          bool no_hold = false) {
  SchedRequest request;
  request.enqueued = base() + std::chrono::nanoseconds(marker);
  request.priority = priority;
  request.no_hold = no_hold;
  return request;
}

int marker_of(const SchedRequest& request) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(request.enqueued -
                                                           base())
          .count());
}

std::vector<int> markers_of(const std::vector<SchedRequest>& requests) {
  std::vector<int> markers;
  for (const SchedRequest& request : requests) {
    markers.push_back(marker_of(request));
  }
  return markers;
}

// The degenerate case the refactor must preserve: one class == the original
// FIFO queue, including across select() boundaries.
TEST(Scheduler, SingleClientSingleClassIsFifo) {
  Scheduler sched;
  for (int i = 0; i < 6; ++i) sched.enqueue(make_request(i));
  EXPECT_EQ(sched.size(), 6u);
  EXPECT_EQ(sched.size(Priority::kNormal), 6u);
  EXPECT_TRUE(sched.empty() == false);

  std::vector<SchedRequest> out;
  EXPECT_EQ(sched.select(4, out), 4u);
  EXPECT_EQ(markers_of(out), (std::vector<int>{0, 1, 2, 3}));
  out.clear();
  EXPECT_EQ(sched.select(10, out), 2u);  // partial fill: only what is queued
  EXPECT_EQ(markers_of(out), (std::vector<int>{4, 5}));
  EXPECT_TRUE(sched.empty());
  out.clear();
  EXPECT_EQ(sched.select(1, out), 0u);
}

TEST(Scheduler, StrictPriorityAcrossClasses) {
  Scheduler sched;
  // Three requests per class, enqueued interleaved in the priority inverse
  // (bulk, normal, interactive, bulk, ...). Marker = 10 * class + sequence.
  for (int i = 0; i < 3; ++i) {
    sched.enqueue(make_request(20 + i, Priority::kBulk));
    sched.enqueue(make_request(10 + i, Priority::kNormal));
    sched.enqueue(make_request(i, Priority::kInteractive));
  }
  EXPECT_EQ(sched.size(Priority::kInteractive), 3u);
  EXPECT_EQ(sched.size(Priority::kNormal), 3u);
  EXPECT_EQ(sched.size(Priority::kBulk), 3u);

  // Classes come out in strict priority order, each in submission order.
  std::vector<SchedRequest> out;
  EXPECT_EQ(sched.select(9, out), 9u);
  EXPECT_EQ(markers_of(out),
            (std::vector<int>{0, 1, 2, 10, 11, 12, 20, 21, 22}));
}

// Anti-starvation bound: a kBulk request behind a steady kInteractive stream
// is selected within kStarvationBound + 1 batch closes, never later.
TEST(Scheduler, StarvedClassGetsAReservedSlotWithinTheQuantumBound) {
  const int bound = Scheduler::kStarvationBound;
  Scheduler sched;
  sched.enqueue(make_request(99, Priority::kBulk));

  int bulk_selected_at = -1;
  for (int round = 1; round <= bound + 1; ++round) {
    sched.enqueue(make_request(round, Priority::kInteractive));
    std::vector<SchedRequest> out;
    ASSERT_EQ(sched.select(1, out), 1u) << "round " << round;
    if (marker_of(out[0]) == 99) {
      bulk_selected_at = round;
      break;
    }
    EXPECT_EQ(out[0].priority, Priority::kInteractive);
  }
  // Rounds 1..bound go to the interactive stream (strict priority);
  // round bound+1 MUST open with the reserved bulk slot.
  EXPECT_EQ(bulk_selected_at, bound + 1);
  // The reservation resets: bulk is not suddenly preferred afterwards.
  sched.enqueue(make_request(100, Priority::kBulk));
  std::vector<SchedRequest> out;
  ASSERT_EQ(sched.select(1, out), 1u);
  EXPECT_EQ(out[0].priority, Priority::kInteractive);
}

// A contributing class never accrues starvation credit, and a class served
// by the normal fill has its counter reset.
TEST(Scheduler, ContributingClassesDoNotAccrueStarvationCredit) {
  const int bound = Scheduler::kStarvationBound;
  Scheduler sched;
  // Enough normal work to fill every 2-slot batch of the loop below, so
  // bulk can only ever get in through the reservation.
  for (int i = 0; i < 4 * bound + 4; ++i) {
    sched.enqueue(make_request(i, Priority::kNormal));
  }
  for (int i = 0; i < 8; ++i) {
    sched.enqueue(make_request(100 + i, Priority::kBulk));
  }
  // Strict priority fills both slots from kNormal, so bulk starves for
  // `bound` rounds, then gets its reserved slot every bound+1-th round.
  std::vector<int> bulk_rounds;
  for (int round = 1; round <= 2 * bound + 2; ++round) {
    std::vector<SchedRequest> out;
    ASSERT_EQ(sched.select(2, out), 2u) << "round " << round;
    for (const SchedRequest& r : out) {
      if (r.priority == Priority::kBulk) bulk_rounds.push_back(round);
    }
  }
  EXPECT_EQ(bulk_rounds, (std::vector<int>{bound + 1, 2 * bound + 2}))
      << "a bulk slot exactly when passed_over hits the bound";
}

TEST(Scheduler, OldestEnqueuedAndSoonestDeadlineScanAllClasses) {
  Scheduler sched;
  SchedRequest early = make_request(1, Priority::kBulk);
  SchedRequest late = make_request(50, Priority::kInteractive);
  late.deadline = base() + std::chrono::milliseconds(5);
  sched.enqueue(std::move(early));
  sched.enqueue(std::move(late));
  EXPECT_EQ(sched.oldest_enqueued(), base() + std::chrono::nanoseconds(1));
  EXPECT_EQ(sched.soonest_deadline(), base() + std::chrono::milliseconds(5));

  std::vector<SchedRequest> out;
  sched.select(2, out);
  EXPECT_EQ(sched.soonest_deadline(), Clock::time_point::max())
      << "no queued deadline left";
}

TEST(Scheduler, ShedExpiredRemovesExactlyTheExpiredRequests) {
  Scheduler sched;
  SchedRequest keep = make_request(0);
  keep.deadline = base() + std::chrono::milliseconds(10);
  SchedRequest forever = make_request(1);  // deadline stays max()
  SchedRequest doomed = make_request(2, Priority::kBulk);
  doomed.deadline = base() + std::chrono::milliseconds(2);
  SchedRequest doomed_no_hold = make_request(3, Priority::kBulk,
                                             /*no_hold=*/true);
  doomed_no_hold.deadline = base() + std::chrono::milliseconds(1);
  sched.enqueue(std::move(keep));
  sched.enqueue(std::move(forever));
  sched.enqueue(std::move(doomed));
  sched.enqueue(std::move(doomed_no_hold));
  EXPECT_EQ(sched.no_hold_count(), 1u);

  std::vector<SchedRequest> shed;
  EXPECT_EQ(sched.shed_expired(base() + std::chrono::milliseconds(5), shed),
            2u);
  std::vector<int> markers = markers_of(shed);
  std::sort(markers.begin(), markers.end());
  EXPECT_EQ(markers, (std::vector<int>{2, 3}));
  EXPECT_EQ(sched.size(), 2u);
  EXPECT_EQ(sched.no_hold_count(), 0u)
      << "shedding a no_hold request must release its hold-skip";
  EXPECT_EQ(sched.soonest_deadline(), base() + std::chrono::milliseconds(10));

  // Nothing expired: a no-op shed.
  shed.clear();
  EXPECT_EQ(sched.shed_expired(base() + std::chrono::milliseconds(5), shed),
            0u);
  // The survivors still drain in order.
  std::vector<SchedRequest> out;
  EXPECT_EQ(sched.select(4, out), 2u);
  EXPECT_EQ(markers_of(out), (std::vector<int>{0, 1}));
}

TEST(Scheduler, NoHoldCountTracksSelection) {
  Scheduler sched;
  for (int i = 0; i < 3; ++i) {
    sched.enqueue(make_request(i, Priority::kNormal, /*no_hold=*/true));
  }
  sched.enqueue(make_request(3));
  EXPECT_EQ(sched.no_hold_count(), 3u);

  std::vector<SchedRequest> out;
  sched.select(2, out);  // FIFO: takes the first two no_hold requests
  EXPECT_EQ(sched.no_hold_count(), 1u);
  out.clear();
  sched.select(2, out);
  EXPECT_EQ(sched.no_hold_count(), 0u);
  EXPECT_TRUE(sched.empty());
}

}  // namespace
}  // namespace epim
