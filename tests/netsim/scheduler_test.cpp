#include "src/netsim/scheduler.h"

#include <gtest/gtest.h>

#include <vector>

namespace ab::netsim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), TimePoint{});
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_after(milliseconds(30), [&] { order.push_back(3); });
  s.schedule_after(milliseconds(10), [&] { order.push_back(1); });
  s.schedule_after(milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(30));
}

TEST(Scheduler, TiesBreakInSubmissionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_after(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  TimePoint seen{};
  s.schedule_after(seconds(2), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen.time_since_epoch(), seconds(2));
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) s.schedule_after(milliseconds(1), chain);
  };
  s.schedule_after(milliseconds(1), chain);
  s.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(5));
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(milliseconds(10), [&] { ++fired; });
  s.schedule_after(milliseconds(30), [&] { ++fired; });
  const std::size_t n = s.run_until(TimePoint{} + milliseconds(20));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(20));
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunUntilIncludesEventsAtTheBoundary) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(milliseconds(20), [&] { ++fired; });
  s.run_until(TimePoint{} + milliseconds(20));
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, RunForIsRelative) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(milliseconds(5), [&] { ++fired; });
  s.run_for(milliseconds(10));
  s.schedule_after(milliseconds(5), [&] { ++fired; });
  s.run_for(milliseconds(10));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(20));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  int fired = 0;
  const EventId id = s.schedule_after(milliseconds(1), [&] { ++fired; });
  s.schedule_after(milliseconds(2), [&] { ++fired; });
  s.cancel(id);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CancelAfterFireIsHarmless) {
  Scheduler s;
  const EventId id = s.schedule_after(milliseconds(1), [] {});
  s.run();
  s.cancel(id);  // no effect, no crash
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CancelOfUnknownSeqIsHarmless) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(milliseconds(1), [&] { ++fired; });
  s.cancel(EventId{});       // the null id
  s.cancel(EventId{12345});  // never issued
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, PendingAndEmptyAreExactUnderCancellation) {
  Scheduler s;
  const EventId a = s.schedule_after(milliseconds(1), [] {});
  const EventId b = s.schedule_after(milliseconds(2), [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  s.cancel(b);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.run(), 0u);
}

TEST(Scheduler, StaleCancelsDoNotAccumulate) {
  // Cancelling events that already fired must not leave bookkeeping behind:
  // pending() stays exact through many fire-then-cancel rounds (the leak
  // would have made a long-lived simulation's cancelled-set grow forever).
  Scheduler s;
  for (int round = 0; round < 100; ++round) {
    const EventId id = s.schedule_after(milliseconds(1), [] {});
    s.run();
    s.cancel(id);  // stale: already fired
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_TRUE(s.empty());
  }
  int fired = 0;
  s.schedule_after(milliseconds(1), [&] { ++fired; });
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, RunUntilDoesNotOvershootPastACancelledHead) {
  Scheduler s;
  int fired = 0;
  const EventId head = s.schedule_after(milliseconds(10), [&] { ++fired; });
  s.schedule_after(milliseconds(100), [&] { ++fired; });
  s.cancel(head);
  // The cancelled head must not let the t=100 event run inside a t<=50 run.
  EXPECT_EQ(s.run_until(TimePoint{} + milliseconds(50)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(50));
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, StepRunsExactlyOneEvent) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(milliseconds(1), [&] { ++fired; });
  s.schedule_after(milliseconds(2), [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  s.schedule_after(seconds(1), [] {});
  s.run();
  TimePoint seen{};
  s.schedule_at(TimePoint{}, [&] { seen = s.now(); });  // in the past
  s.run();
  EXPECT_EQ(seen.time_since_epoch(), seconds(1));
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(milliseconds(-5), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, RejectsNullCallback) {
  Scheduler s;
  EXPECT_THROW(s.schedule_after(milliseconds(1), nullptr), std::invalid_argument);
}

TEST(Scheduler, RejectsEmptyStdFunctionAtTheDoor) {
  // A null std::function (or function pointer) must fail at the call site,
  // not as a bad_function_call when the event fires.
  Scheduler s;
  std::function<void()> empty;
  EXPECT_THROW(s.schedule_after(milliseconds(1), std::move(empty)),
               std::invalid_argument);
  void (*null_fp)() = nullptr;
  EXPECT_THROW(s.schedule_after(milliseconds(1), null_fp), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RunWithEventBudget) {
  Scheduler s;
  int fired = 0;
  for (int i = 0; i < 10; ++i) s.schedule_after(milliseconds(i), [&] { ++fired; });
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, StaleCancelCannotKillASlotReuser) {
  // Cancelling the same id twice must not cancel whichever event recycled
  // the slot in between: the generation stamp makes the second cancel a
  // no-op.
  Scheduler s;
  int fired = 0;
  const EventId a = s.schedule_after(milliseconds(1), [&] { ++fired; });
  s.cancel(a);
  s.schedule_after(milliseconds(1), [&] { ++fired; });  // may reuse a's slot
  s.cancel(a);                                          // stale: must not hit b
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CancelOfOwnIdInsideCallbackIsHarmless) {
  Scheduler s;
  int fired = 0;
  EventId id{};
  id = s.schedule_after(milliseconds(1), [&] {
    ++fired;
    s.cancel(id);  // already firing: stale no-op
  });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, ManyCancelsKeepHeapExact) {
  // Interleaved schedule/cancel at scale: pending() is exact and the
  // survivors fire in time order.
  Scheduler s;
  std::vector<EventId> ids;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(s.schedule_after(milliseconds(100 - i), [&order, i] {
      order.push_back(i);
    }));
  }
  for (int i = 0; i < 100; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending(), 50u);
  s.run();
  ASSERT_EQ(order.size(), 50u);
  // Odd i scheduled at (100 - i) ms: later i fires earlier.
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_GT(order[k - 1], order[k]);
  }
}

TEST(Scheduler, ExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 4; ++i) s.schedule_after(milliseconds(1), [] {});
  s.run();
  EXPECT_EQ(s.executed(), 4u);
}

// ---------------------------------------------------------------------------
// Equal-time runs: schedule_run_at with every entry at one timestamp, the
// shape a same-time fan-out takes.

namespace {

/// Builds an equal-time run of callbacks, due at `when`, that append their
/// label to `order`.
std::vector<Scheduler::TimedEntry> labelled_batch(std::vector<int>& order, int first,
                                                  int count, TimePoint when) {
  std::vector<Scheduler::TimedEntry> fns;
  for (int i = 0; i < count; ++i) {
    const int label = first + i;
    fns.push_back({when, [&order, label] { order.push_back(label); }});
  }
  return fns;
}

}  // namespace

TEST(SchedulerBatch, FiresEntriesInSubmissionOrderAtTheTimestamp) {
  Scheduler s;
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 5, TimePoint{} + milliseconds(3));
  s.schedule_run_at(fns);
  EXPECT_EQ(s.pending(), 5u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(3));
  EXPECT_EQ(s.executed(), 5u);
}

TEST(SchedulerBatch, InterleavesFifoWithSinglesAtTheSameTimestamp) {
  // single, run, single at one timestamp: firing order must be exactly
  // the submission order, the run occupying its k order numbers.
  Scheduler s;
  std::vector<int> order;
  const TimePoint when = TimePoint{} + milliseconds(1);
  s.schedule_at(when, [&order] { order.push_back(0); });
  auto fns = labelled_batch(order, 1, 3, when);
  s.schedule_run_at(fns);
  s.schedule_at(when, [&order] { order.push_back(4); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerBatch, EmptyBatchIsANoOp) {
  // An empty run between two singles at one timestamp admits nothing and
  // consumes no order number or insert.
  Scheduler s;
  std::vector<int> order;
  const TimePoint when = TimePoint{} + milliseconds(1);
  s.schedule_at(when, [&order] { order.push_back(0); });
  auto none = labelled_batch(order, 9, 0, when);
  const BatchId id = s.schedule_run_at(none);
  s.schedule_at(when, [&order] { order.push_back(1); });
  EXPECT_EQ(id, BatchId{});
  EXPECT_EQ(s.inserts(), 2u);
  EXPECT_EQ(s.scheduled(), 2u);
  s.cancel(id);  // null handle: harmless
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerBatch, NullCallbackInBatchThrowsBeforeAdmittingAnything) {
  Scheduler s;
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 2, TimePoint{} + milliseconds(1));
  fns[1].fn = nullptr;
  EXPECT_THROW(s.schedule_run_at(fns), std::invalid_argument);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerBatch, CancelRemovesTheWholeRun) {
  Scheduler s;
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 4, TimePoint{} + milliseconds(1));
  const BatchId id = s.schedule_run_at(fns);
  s.schedule_at(TimePoint{} + milliseconds(2), [&order] { order.push_back(99); });
  EXPECT_EQ(s.pending(), 5u);
  s.cancel(id);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{99}));
}

TEST(SchedulerBatch, CancelAfterTheRunFiredIsHarmless) {
  Scheduler s;
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 2, TimePoint{} + milliseconds(1));
  const BatchId id = s.schedule_run_at(fns);
  s.run();
  s.cancel(id);  // stale: the run completed
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
  // The recycled slot must not be killable through the stale BatchId.
  int fired = 0;
  s.schedule_after(milliseconds(1), [&fired] { ++fired; });
  s.cancel(id);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerBatch, StaleEventIdCannotKillARunInTheRecycledSlot) {
  // An EventId whose slot was recycled into a run must stay a no-op:
  // the generation stamp (and the run guard) protect all k entries.
  Scheduler s;
  std::vector<int> order;
  const EventId a = s.schedule_after(milliseconds(1), [&order] { order.push_back(-1); });
  s.cancel(a);
  auto fns = labelled_batch(order, 0, 3, TimePoint{} + milliseconds(1));
  s.schedule_run_at(fns);  // may reuse a's slot
  s.cancel(a);  // stale
  EXPECT_EQ(s.pending(), 3u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerBatch, RunBudgetSplitsARunWithoutDroppingOrReordering) {
  // run(max_events) counts run entries individually; a budget expiring
  // mid-run leaves the remainder pending, in order.
  Scheduler s;
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 3, TimePoint{} + milliseconds(1));
  s.schedule_run_at(fns);
  s.schedule_at(TimePoint{} + milliseconds(1), [&order] { order.push_back(3); });

  EXPECT_EQ(s.run(2), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(1));

  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerBatch, StepExecutesOneEntryAtATime) {
  Scheduler s;
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 3, TimePoint{} + milliseconds(1));
  s.schedule_run_at(fns);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_TRUE(s.step());
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerBatch, RunUntilAtTheBoundaryDrainsTheWholeRun) {
  Scheduler s;
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 3, TimePoint{} + milliseconds(10));
  s.schedule_run_at(fns);
  EXPECT_EQ(s.run_until(TimePoint{} + milliseconds(5)), 0u);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_EQ(s.run_until(TimePoint{} + milliseconds(10)), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerBatch, RunUntilAfterAPartialBudgetKeepsTheRemainder) {
  // A budget splits the run, then a run_until to the run's own timestamp
  // must finish exactly the remaining entries (satellite regression: the
  // stepping limits must not drop or reorder a split run).
  Scheduler s;
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 4, TimePoint{} + milliseconds(2));
  s.schedule_run_at(fns);
  EXPECT_EQ(s.run(1), 1u);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(s.run_until(TimePoint{} + milliseconds(2)), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerBatch, CancelMidExecutionDropsOnlyTheRemainingEntries) {
  Scheduler s;
  std::vector<int> order;
  BatchId id{};
  auto fns = labelled_batch(order, 0, 4, TimePoint{} + milliseconds(1));
  fns[1].fn = [&order, &s, &id] {
    order.push_back(1);
    s.cancel(id);  // from inside entry 1: entries 2 and 3 must not fire
  };
  id = s.schedule_run_at(fns);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerBatch, CancelInsideTheLastEntryIsAStaleNoOp) {
  Scheduler s;
  int fired = 0;
  BatchId id{};
  std::vector<Scheduler::TimedEntry> fns;
  fns.push_back({TimePoint{} + milliseconds(1), [&fired, &s, &id] {
                   ++fired;
                   s.cancel(id);  // the run is already retired: harmless
                 }});
  id = s.schedule_run_at(fns);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerBatch, EventsScheduledInsideAnEntryFireAfterTheRun) {
  // A same-timestamp event scheduled from inside entry 0 takes an order
  // number past the whole run, so it fires after entry k-1 -- exactly as
  // with k individual events.
  Scheduler s;
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 3, TimePoint{} + milliseconds(1));
  fns[0].fn = [&order, &s] {
    order.push_back(0);
    s.schedule_after(Duration::zero(), [&order] { order.push_back(9); });
  };
  s.schedule_run_at(fns);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(SchedulerBatch, PastBatchTimeClampsToNow) {
  Scheduler s;
  s.schedule_after(seconds(1), [] {});
  s.run();
  std::vector<int> order;
  auto fns = labelled_batch(order, 0, 2, TimePoint{});  // in the past
  s.schedule_run_at(fns);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.now().time_since_epoch(), seconds(1));
}

/// Builds a timed run of labelled callbacks at the given millisecond
/// offsets (non-decreasing).
std::vector<Scheduler::TimedEntry> labelled_run(std::vector<int>& order, int first,
                                                std::initializer_list<int> at_ms) {
  std::vector<Scheduler::TimedEntry> entries;
  int label = first;
  for (int ms : at_ms) {
    Scheduler::TimedEntry e;
    e.when = TimePoint{} + milliseconds(ms);
    const int this_label = label++;
    e.fn = [&order, this_label] { order.push_back(this_label); };
    entries.push_back(std::move(e));
  }
  return entries;
}

TEST(SchedulerTimedRun, FiresEntriesAtTheirOwnTimes) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 3, 3, 7});
  s.schedule_run_at(entries);
  EXPECT_EQ(s.pending(), 4u);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(1));
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(3));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(7));
  EXPECT_EQ(s.executed(), 4u);
}

TEST(SchedulerTimedRun, InterleavesWithSinglesExactlyLikeIndividualEvents) {
  // Singles scheduled BEFORE the run at an inner entry's timestamp fire
  // before that entry; singles scheduled AFTER fire after it -- the run's
  // entries carry the consecutive order numbers individual schedule_at
  // calls would have had.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint{} + milliseconds(3), [&order] { order.push_back(-1); });
  auto entries = labelled_run(order, 0, {1, 3, 5});
  s.schedule_run_at(entries);
  s.schedule_at(TimePoint{} + milliseconds(3), [&order] { order.push_back(-2); });
  s.schedule_at(TimePoint{} + milliseconds(2), [&order] { order.push_back(-3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, -3, -1, 1, -2, 2}));
}

TEST(SchedulerTimedRun, RunUntilSplitsAtTheTimeBoundary) {
  // run_until between entry times executes exactly the due prefix; the
  // remainder stays pending at its own later times.
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 4, 8});
  s.schedule_run_at(entries);
  EXPECT_EQ(s.run_until(TimePoint{} + milliseconds(5)), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(5));  // clock advances
  EXPECT_EQ(s.run_until(TimePoint{} + milliseconds(8)), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTimedRun, BudgetSplitsWithoutDroppingOrReordering) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 2, 3});
  s.schedule_run_at(entries);
  s.schedule_at(TimePoint{} + milliseconds(2), [&order] { order.push_back(9); });
  EXPECT_EQ(s.run(2), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.run(), 2u);
  // The single at 2 ms was scheduled after the run, so it fires after the
  // run's 2 ms entry but before the 3 ms one.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 2}));
}

TEST(SchedulerTimedRun, CancelRemovesEverythingStillPending) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 2, 3, 4});
  const BatchId id = s.schedule_run_at(entries);
  EXPECT_EQ(s.run(1), 1u);  // entry 0 fired
  s.cancel(id);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
}

TEST(SchedulerTimedRun, CancelFromInsideAnEntryDropsTheRemainder) {
  Scheduler s;
  std::vector<int> order;
  BatchId id{};
  std::vector<Scheduler::TimedEntry> entries;
  Scheduler::TimedEntry e0;
  e0.when = TimePoint{} + milliseconds(1);
  e0.fn = [&order, &s, &id] {
    order.push_back(0);
    s.cancel(id);
  };
  entries.push_back(std::move(e0));
  Scheduler::TimedEntry e1;
  e1.when = TimePoint{} + milliseconds(2);
  e1.fn = [&order] { order.push_back(1); };
  entries.push_back(std::move(e1));
  id = s.schedule_run_at(entries);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTimedRun, DecreasingTimesThrowBeforeAdmittingAnything) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {3, 3, 1});
  EXPECT_THROW(s.schedule_run_at(entries), std::invalid_argument);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTimedRun, NullCallbackThrowsBeforeAdmittingAnything) {
  Scheduler s;
  std::vector<Scheduler::TimedEntry> entries;
  Scheduler::TimedEntry ok;
  ok.when = TimePoint{} + milliseconds(1);
  ok.fn = [] {};
  entries.push_back(std::move(ok));
  entries.emplace_back();  // null callback
  entries.back().when = TimePoint{} + milliseconds(2);
  EXPECT_THROW(s.schedule_run_at(entries), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTimedRun, EmptyRunIsANoOp) {
  Scheduler s;
  std::vector<Scheduler::TimedEntry> none;
  const BatchId id = s.schedule_run_at(none);
  EXPECT_EQ(id, BatchId{});
  EXPECT_TRUE(s.empty());
  s.cancel(id);
  EXPECT_EQ(s.run(), 0u);
}

TEST(SchedulerTimedRun, PastTimesClampToNow) {
  Scheduler s;
  s.schedule_after(seconds(1), [] {});
  s.run();
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 2000});  // 1 ms is in the past
  s.schedule_run_at(entries);
  EXPECT_EQ(s.run(1), 1u);
  EXPECT_EQ(s.now().time_since_epoch(), seconds(1));  // clamped, not rewound
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.now().time_since_epoch(), seconds(2));
}

TEST(SchedulerTimedRun, OneInsertPerRun) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 2, 3, 4});
  const std::uint64_t inserts_before = s.inserts();
  s.schedule_run_at(entries);
  EXPECT_EQ(s.inserts() - inserts_before, 1u);
  EXPECT_EQ(s.scheduled(), 4u);
  s.run();
  EXPECT_EQ(order.size(), 4u);
}

TEST(SchedulerBatch, ManyRunsInterleavedWithCancelsKeepPendingExact) {
  Scheduler s;
  std::vector<int> order;
  std::vector<BatchId> ids;
  int label = 0;
  for (int b = 0; b < 50; ++b) {
    auto fns = labelled_batch(order, label, 4, TimePoint{} + milliseconds(1 + b % 3));
    label += 4;
    ids.push_back(s.schedule_run_at(fns));
  }
  EXPECT_EQ(s.pending(), 200u);
  for (std::size_t b = 0; b < ids.size(); b += 2) s.cancel(ids[b]);
  EXPECT_EQ(s.pending(), 100u);
  s.run();
  EXPECT_EQ(order.size(), 100u);
  EXPECT_EQ(s.executed(), 100u);
  EXPECT_TRUE(s.empty());
}

// ---------------------------------------------------------------------------
// try_extend_run: appending to an in-flight timed run

Scheduler::TimedEntry labelled_entry(std::vector<int>& order, int label, int ms) {
  Scheduler::TimedEntry e;
  e.when = TimePoint{} + milliseconds(ms);
  e.fn = [&order, label] { order.push_back(label); };
  return e;
}

TEST(SchedulerTimedRunExtend, AppendsPastTheTailWithNoNewInsert) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 2, 3});
  const BatchId id = s.schedule_run_at(entries);
  const std::uint64_t inserts_before = s.inserts();
  EXPECT_TRUE(s.try_extend_run(id, labelled_entry(order, 3, 4)));
  EXPECT_EQ(s.inserts(), inserts_before);  // the run absorbed it
  EXPECT_EQ(s.pending(), 4u);
  EXPECT_EQ(s.scheduled(), 4u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(4));
}

TEST(SchedulerTimedRunExtend, ExtensionInterleavesLikeAFreshSchedule) {
  // A single event scheduled between the run and its extension, at the
  // extension's own timestamp, must fire BEFORE the extension -- the
  // appended entry is "newer" and takes a later order number.
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 2});
  const BatchId id = s.schedule_run_at(entries);
  s.schedule_at(TimePoint{} + milliseconds(5), [&order] { order.push_back(-1); });
  EXPECT_TRUE(s.try_extend_run(id, labelled_entry(order, 2, 5)));
  s.schedule_at(TimePoint{} + milliseconds(5), [&order] { order.push_back(-2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, -1, 2, -2}));
}

TEST(SchedulerTimedRunExtend, ExtensionFromInsideTheRunRespectsRetirement) {
  // pop_and_run retires the slot BEFORE the run's last entry fires, so a
  // self-extension from inside that entry is already stale and must fail
  // -- that is what sends the NIC's saturated-transmit path to its FIFO
  // fallback (its run_remaining_ guard is 0 by then). From any EARLIER
  // entry the run is still live and the extension lands.
  Scheduler s;
  std::vector<int> order;
  BatchId id{};
  std::vector<Scheduler::TimedEntry> entries;
  Scheduler::TimedEntry e0;
  e0.when = TimePoint{} + milliseconds(1);
  e0.fn = [&] {
    order.push_back(0);
    EXPECT_TRUE(s.try_extend_run(id, labelled_entry(order, 1, 3)));
  };
  entries.push_back(std::move(e0));
  Scheduler::TimedEntry e9;
  e9.when = TimePoint{} + milliseconds(2);
  e9.fn = [&] { order.push_back(9); };
  entries.push_back(std::move(e9));
  id = s.schedule_run_at(entries);
  s.run();
  // The 3ms extension appended from the 1ms entry fired as the run's tail.
  EXPECT_EQ(order, (std::vector<int>{0, 9, 1}));
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(3));

  // Same shape, one entry: extending from inside the run's LAST entry
  // finds the stamp already stale and reports false, leaving the clock
  // and the order log untouched by the rejected entry.
  std::vector<int> solo;
  BatchId solo_id{};
  std::vector<Scheduler::TimedEntry> solo_entries;
  Scheduler::TimedEntry last;
  last.when = TimePoint{} + milliseconds(10);
  last.fn = [&] {
    solo.push_back(0);
    EXPECT_FALSE(s.try_extend_run(solo_id, labelled_entry(solo, 1, 30)));
  };
  solo_entries.push_back(std::move(last));
  solo_id = s.schedule_run_at(solo_entries);
  s.run();
  EXPECT_EQ(solo, (std::vector<int>{0}));
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(10));
}

TEST(SchedulerTimedRunExtend, StaleIdRejected) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1});
  const BatchId id = s.schedule_run_at(entries);
  s.run();  // the run fires and retires; the stamp goes stale
  EXPECT_FALSE(s.try_extend_run(id, labelled_entry(order, 9, 5)));
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.try_extend_run(BatchId{}, labelled_entry(order, 9, 5)));
}

TEST(SchedulerTimedRunExtend, CancelledRunRejected) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 2});
  const BatchId id = s.schedule_run_at(entries);
  s.cancel(id);
  EXPECT_FALSE(s.try_extend_run(id, labelled_entry(order, 9, 5)));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTimedRunExtend, NonMonotoneExtensionRejected) {
  // An entry before the run's tail time cannot be absorbed (the run's
  // heap key would lie); the caller falls back to a normal schedule.
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {2, 6});
  const BatchId id = s.schedule_run_at(entries);
  EXPECT_FALSE(s.try_extend_run(id, labelled_entry(order, 9, 4)));
  EXPECT_EQ(s.pending(), 2u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerTimedRunExtend, NullCallbackThrows) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1});
  const BatchId id = s.schedule_run_at(entries);
  Scheduler::TimedEntry null_entry;
  null_entry.when = TimePoint{} + milliseconds(2);
  EXPECT_THROW(s.try_extend_run(id, std::move(null_entry)),
               std::invalid_argument);
  EXPECT_EQ(s.pending(), 1u);  // nothing was admitted
}

TEST(SchedulerTimedRunExtend, RepeatedExtensionsKeepFifoOrder) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1});
  const BatchId id = s.schedule_run_at(entries);
  const std::uint64_t inserts_before = s.inserts();
  for (int i = 1; i <= 16; ++i) {
    EXPECT_TRUE(s.try_extend_run(id, labelled_entry(order, i, 1 + i)));
  }
  EXPECT_EQ(s.inserts(), inserts_before);
  s.run();
  std::vector<int> expect;
  for (int i = 0; i <= 16; ++i) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

// ---------------------------------------------------------------------------
// Run storage recycling: a retired run's storage is cleared and handed to
// the next schedule_run_at. Nothing of the old run (entries, times, the
// cursor, materialized per-entry orders) may leak into the new one, and
// the old handle must stay stale.

namespace {

/// Schedules a fresh timed run {5, 5, 6} ms labelled 10..12 between two
/// singles at 5 ms, and checks it fires exactly like individual events
/// issued at that point. A leftover `orders` vector from an extended run
/// would give the new entries the old, smaller order numbers and fire them
/// before the single scheduled ahead of them. The retired run's handle
/// `old` must be a no-op for cancel and try_extend_run throughout.
void expect_fresh_run_behaves(Scheduler& s, std::vector<int>& order, BatchId old) {
  order.clear();
  s.schedule_at(TimePoint{} + milliseconds(5), [&order] { order.push_back(-1); });
  auto entries = labelled_run(order, 10, {5, 5, 6});
  const BatchId fresh = s.schedule_run_at(entries);
  s.schedule_at(TimePoint{} + milliseconds(5), [&order] { order.push_back(-2); });
  EXPECT_EQ(s.pending(), 5u);
  s.cancel(old);
  EXPECT_FALSE(s.try_extend_run(old, labelled_entry(order, 99, 20)));
  EXPECT_EQ(s.pending(), 5u);
  EXPECT_TRUE(s.step());
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.pending(), 3u);
  // The new handle is live and extends the new run; the old one still
  // cannot touch it.
  EXPECT_TRUE(s.try_extend_run(fresh, labelled_entry(order, 13, 7)));
  s.cancel(old);
  EXPECT_EQ(s.pending(), 4u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 10, 11, -2, 12, 13}));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.now().time_since_epoch(), milliseconds(7));
}

}  // namespace

TEST(SchedulerRunRecycling, FinishedExtendedRunStorageIsReusedCleanly) {
  Scheduler s;
  std::vector<int> order;
  auto entries = labelled_run(order, 0, {1, 2});
  const BatchId old = s.schedule_run_at(entries);
  // Extending materializes the run's per-entry order vector.
  EXPECT_TRUE(s.try_extend_run(old, labelled_entry(order, 2, 3)));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(s.empty());

  expect_fresh_run_behaves(s, order, old);
}

TEST(SchedulerRunRecycling, RunCancelledFromItsOwnEntryIsReusedCleanly) {
  Scheduler s;
  std::vector<int> order;
  BatchId old{};
  std::vector<Scheduler::TimedEntry> entries;
  Scheduler::TimedEntry first;
  first.when = TimePoint{} + milliseconds(1);
  first.fn = [&] {
    order.push_back(0);
    s.cancel(old);  // drops entries 1 and 2 (the appended one) unfired
  };
  entries.push_back(std::move(first));
  entries.push_back(labelled_entry(order, 1, 2));
  old = s.schedule_run_at(entries);
  EXPECT_TRUE(s.try_extend_run(old, labelled_entry(order, 2, 3)));
  EXPECT_EQ(s.pending(), 3u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.executed(), 1u);

  expect_fresh_run_behaves(s, order, old);
}

}  // namespace
}  // namespace ab::netsim
