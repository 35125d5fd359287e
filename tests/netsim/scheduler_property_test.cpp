// Determinism property test for the scheduler rewrite: seeded random
// programs of interleaved schedule_at / schedule_after / schedule_run_at
// (monotone timed runs, equal-time ones included) / try_extend_run /
// cancel (single ids and whole BatchId runs) / run_until / step / run are
// executed against both cores -- the indexed 4-ary heap (Scheduler) and
// the original priority_queue + live-set core (BaselineScheduler), whose
// observable contract is the oracle. The baseline has no run API, which is
// the point: a timed run is DEFINED as k individual events at its k times
// and an extension as one schedule_at at the moment of extension, so the
// oracle schedules k events and cancels k ids where the indexed core takes
// one insert and one BatchId cancel. Firing order, the clock after every
// op, pending() after every op, and which extensions were accepted must be
// identical, including events scheduled from inside callbacks, budgets
// that split a run, and cancels of already-fired ids. A second,
// recycle-heavy op mix keeps most runs short, extended, cancelled and
// drained soon after they are issued, so most runs land in storage a
// retired run left behind and stale handles to retired runs keep being
// used.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/netsim/baseline_scheduler.h"
#include "src/netsim/scheduler.h"
#include "src/util/rng.h"

namespace ab::netsim {
namespace {

struct Op {
  enum Kind {
    kSchedule,
    kScheduleRun,  ///< monotone timed run (schedule_run_at)
    kExtendRun,    ///< try_extend_run on an issued run handle
    kCancel,
    kCancelBatch,
    kRunUntil,
    kStep,
    kRunBudget
  };
  Kind kind = kSchedule;
  std::int64_t delay_us = 0;   ///< kSchedule: delay (may be negative);
                               ///< kExtendRun: appended entry's delay;
                               ///< kRunUntil: window
  bool spawn_child = false;    ///< kSchedule: callback schedules a child event
  std::int64_t child_delay_us = 0;
  std::vector<std::int64_t> run_delays_us;  ///< kScheduleRun: sorted delays
                                            ///< (may start negative; empty
                                            ///< exercises the no-op)
  std::size_t cancel_sel = 0;  ///< kCancel/kCancelBatch/kExtendRun: index
                               ///< into issued handles (mod size)
  bool recent = false;         ///< kCancelBatch/kExtendRun: cancel_sel counts
                               ///< back from the newest run handle instead
  std::size_t budget = 0;      ///< kRunBudget: max events
};

/// An op mix: cumulative percentage thresholds for each kind, in the
/// order generate_program tests them (kRunBudget takes the rest).
struct Mix {
  std::uint64_t schedule, equal_run, timed_run, cancel, extend, cancel_batch,
      run_until, step;
  bool recent_runs;  ///< run cancels/extends pick among the newest handles
};

constexpr Mix kDefaultMix{35, 45, 50, 58, 65, 73, 85, 95, false};
/// Few singles; short runs that are extended (materializing per-entry
/// orders), cancelled and drained soon after issue, then replaced.
constexpr Mix kRecycleMix{10, 25, 45, 50, 68, 78, 86, 96, true};

/// Index of the handle an op selects among `size` issued ones.
std::size_t pick(const Op& op, std::size_t size) {
  if (!op.recent) return op.cancel_sel % size;
  return size - 1 - op.cancel_sel % std::min<std::size_t>(size, 3);
}

std::vector<Op> generate_program(std::uint64_t seed, int length,
                                 const Mix& mix = kDefaultMix) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(length));
  for (int i = 0; i < length; ++i) {
    Op op;
    const std::uint64_t roll = rng.uniform(0, 99);
    if (roll < mix.schedule) {
      op.kind = Op::kSchedule;
      // Mostly future, occasionally negative to exercise the clamp.
      op.delay_us = static_cast<std::int64_t>(rng.uniform(0, 2100)) - 100;
      op.spawn_child = rng.chance(0.3);
      op.child_delay_us = static_cast<std::int64_t>(rng.uniform(0, 500));
    } else if (roll < mix.equal_run) {
      // Equal-time run: a same-time fan-out.
      op.kind = Op::kScheduleRun;
      const auto delay = static_cast<std::int64_t>(rng.uniform(0, 2100)) - 100;
      op.run_delays_us.assign(static_cast<std::size_t>(rng.uniform(0, 5)), delay);
    } else if (roll < mix.timed_run) {
      op.kind = Op::kScheduleRun;
      const auto size = static_cast<std::size_t>(rng.uniform(0, 5));
      for (std::size_t e = 0; e < size; ++e) {
        op.run_delays_us.push_back(static_cast<std::int64_t>(rng.uniform(0, 2100)) -
                                   100);
      }
      // The API takes non-decreasing times; sorting keeps random draws
      // valid while exercising equal-time pairs.
      std::sort(op.run_delays_us.begin(), op.run_delays_us.end());
    } else if (roll < mix.cancel) {
      op.kind = Op::kCancel;
      op.cancel_sel = static_cast<std::size_t>(rng.uniform(0, 1 << 20));
    } else if (roll < mix.extend) {
      op.kind = Op::kExtendRun;
      op.delay_us = static_cast<std::int64_t>(rng.uniform(0, 2100));
      op.cancel_sel = static_cast<std::size_t>(rng.uniform(0, 1 << 20));
      op.recent = mix.recent_runs;
    } else if (roll < mix.cancel_batch) {
      op.kind = Op::kCancelBatch;
      op.cancel_sel = static_cast<std::size_t>(rng.uniform(0, 1 << 20));
      op.recent = mix.recent_runs;
    } else if (roll < mix.run_until) {
      op.kind = Op::kRunUntil;
      op.delay_us = static_cast<std::int64_t>(rng.uniform(0, 3000));
    } else if (roll < mix.step) {
      op.kind = Op::kStep;
    } else {
      op.kind = Op::kRunBudget;
      op.budget = static_cast<std::size_t>(rng.uniform(0, 5));
    }
    ops.push_back(op);
  }
  return ops;
}

/// Everything observable about one execution.
struct Observation {
  std::vector<int> fired;              ///< event labels in firing order
  std::vector<std::int64_t> clock_ns;  ///< now() after every op
  std::vector<std::size_t> pending;    ///< pending() after every op
  std::vector<bool> extended;          ///< outcome of every kExtendRun
  bool empty_at_end = false;
  std::uint64_t executed = 0;
};

/// Run adapter for the indexed core: the real schedule_run_at /
/// try_extend_run / BatchId-cancel API.
struct IndexedRunOps {
  std::vector<BatchId> handles;

  void schedule_run(Scheduler& sched, Observation& obs,
                    const std::vector<std::int64_t>& delays_us, int first_label) {
    std::vector<Scheduler::TimedEntry> entries;
    for (std::size_t i = 0; i < delays_us.size(); ++i) {
      const int label = first_label + static_cast<int>(i);
      Scheduler::TimedEntry e;
      e.when = sched.now() + microseconds(delays_us[i]);
      e.fn = [&obs, label] { obs.fired.push_back(label); };
      entries.push_back(std::move(e));
    }
    handles.push_back(sched.schedule_run_at(entries));
  }

  bool extend(Scheduler& sched, Observation& obs, const Op& op, int label) {
    if (handles.empty()) return false;
    return sched.try_extend_run(handles[pick(op, handles.size())],
                                {sched.now() + microseconds(op.delay_us),
                                 [&obs, label] { obs.fired.push_back(label); }});
  }

  void cancel(Scheduler& sched, const Op& op) {
    if (!handles.empty()) sched.cancel(handles[pick(op, handles.size())]);
  }
};

/// Run adapter for the baseline oracle, which has no run API: a run IS k
/// individual events at its k times (negative delays clamp exactly like
/// the run's per-entry clamp), cancelled together as one group. An
/// extension IS one schedule_at at the moment of extension, accepted while
/// the run still has an unfired, uncancelled entry and the new time is not
/// before the run's last (clamped) time.
struct BaselineRunOps {
  struct Group {
    std::vector<BaselineEventId> ids;
    std::size_t fired = 0;
    bool cancelled = false;
    TimePoint tail{};
  };
  std::vector<Group> groups;

  /// Schedules one entry of group `g` at `when`.
  void add(BaselineScheduler& sched, Observation& obs, std::size_t g, TimePoint when,
           int label) {
    groups[g].tail = std::max(when, sched.now());
    groups[g].ids.push_back(sched.schedule_at(when, [this, &obs, g, label] {
      obs.fired.push_back(label);
      groups[g].fired += 1;
    }));
  }

  void schedule_run(BaselineScheduler& sched, Observation& obs,
                    const std::vector<std::int64_t>& delays_us, int first_label) {
    const std::size_t g = groups.size();
    groups.emplace_back();
    for (std::size_t i = 0; i < delays_us.size(); ++i) {
      add(sched, obs, g, sched.now() + microseconds(delays_us[i]),
          first_label + static_cast<int>(i));
    }
  }

  bool extend(BaselineScheduler& sched, Observation& obs, const Op& op, int label) {
    if (groups.empty()) return false;
    const std::size_t g = pick(op, groups.size());
    const TimePoint when = sched.now() + microseconds(op.delay_us);
    Group& group = groups[g];
    if (group.cancelled || group.fired == group.ids.size() || when < group.tail) {
      return false;
    }
    add(sched, obs, g, when, label);
    return true;
  }

  void cancel(BaselineScheduler& sched, const Op& op) {
    if (groups.empty()) return;
    Group& group = groups[pick(op, groups.size())];
    for (const BaselineEventId id : group.ids) sched.cancel(id);
    group.cancelled = true;
  }
};

template <typename SchedulerT>
Observation execute(const std::vector<Op>& ops) {
  using Id = decltype(std::declval<SchedulerT&>().schedule_after(Duration{}, [] {}));
  SchedulerT sched;
  Observation obs;
  std::vector<Id> ids;
  std::conditional_t<std::is_same_v<SchedulerT, Scheduler>, IndexedRunOps,
                     BaselineRunOps>
      runs;

  int label = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kSchedule: {
        const int this_label = label++;
        const int child_label = label++;
        if (op.spawn_child) {
          const auto child_delay = microseconds(op.child_delay_us);
          ids.push_back(sched.schedule_after(
              microseconds(op.delay_us),
              [&obs, &sched, &ids, this_label, child_label, child_delay] {
                obs.fired.push_back(this_label);
                ids.push_back(sched.schedule_after(
                    child_delay,
                    [&obs, child_label] { obs.fired.push_back(child_label); }));
              }));
        } else {
          ids.push_back(sched.schedule_after(
              microseconds(op.delay_us),
              [&obs, this_label] { obs.fired.push_back(this_label); }));
        }
        break;
      }
      case Op::kScheduleRun: {
        const int first_label = label;
        label += static_cast<int>(op.run_delays_us.size());
        runs.schedule_run(sched, obs, op.run_delays_us, first_label);
        break;
      }
      case Op::kExtendRun:
        obs.extended.push_back(runs.extend(sched, obs, op, label++));
        break;
      case Op::kCancel:
        if (!ids.empty()) sched.cancel(ids[op.cancel_sel % ids.size()]);
        break;
      case Op::kCancelBatch:
        runs.cancel(sched, op);
        break;
      case Op::kRunUntil:
        sched.run_until(sched.now() + microseconds(op.delay_us));
        break;
      case Op::kStep:
        sched.step();
        break;
      case Op::kRunBudget:
        sched.run(op.budget);
        break;
    }
    obs.clock_ns.push_back(sched.now().time_since_epoch().count());
    obs.pending.push_back(sched.pending());
  }
  sched.run();  // drain
  obs.empty_at_end = sched.empty();
  obs.executed = sched.executed();
  return obs;
}

/// Runs `program` on both cores, expects identical observations, and
/// returns the indexed core's.
Observation expect_equivalent(const std::vector<Op>& program, std::uint64_t seed) {
  const Observation baseline = execute<BaselineScheduler>(program);
  const Observation indexed = execute<Scheduler>(program);

  EXPECT_EQ(baseline.fired, indexed.fired) << "seed " << seed;
  EXPECT_EQ(baseline.clock_ns, indexed.clock_ns) << "seed " << seed;
  EXPECT_EQ(baseline.pending, indexed.pending) << "seed " << seed;
  EXPECT_EQ(baseline.extended, indexed.extended) << "seed " << seed;
  EXPECT_EQ(baseline.executed, indexed.executed) << "seed " << seed;
  EXPECT_TRUE(baseline.empty_at_end);
  EXPECT_TRUE(indexed.empty_at_end);
  return indexed;
}

class SchedulerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerEquivalence, RandomProgramsFireIdenticallyOnBothCores) {
  expect_equivalent(generate_program(GetParam(), 400), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence,
                         ::testing::Range<std::uint64_t>(1, 41));

class SchedulerRecycleEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerRecycleEquivalence, RecycledRunStorageFiresIdenticallyOnBothCores) {
  const Observation indexed =
      expect_equivalent(generate_program(GetParam(), 600, kRecycleMix), GetParam());
  // The mix must actually land extensions on live runs, or the reused
  // storage would never carry materialized per-entry orders.
  EXPECT_NE(std::count(indexed.extended.begin(), indexed.extended.end(), true), 0)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerRecycleEquivalence,
                         ::testing::Range<std::uint64_t>(1, 21));

// Equal-time FIFO at scale: many events on one timestamp interleaved with
// cancels must fire in exact submission order on both cores.
TEST(SchedulerEquivalenceFifo, EqualTimestampsKeepSubmissionOrderUnderCancellation) {
  constexpr int kEvents = 500;
  util::Rng rng(7);
  std::vector<bool> cancel_mask;
  for (int i = 0; i < kEvents; ++i) cancel_mask.push_back(rng.chance(0.4));

  const auto run = [&](auto sched) {
    std::vector<int> fired;
    using Id = decltype(sched.schedule_after(Duration{}, [] {}));
    std::vector<Id> ids;
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(
          sched.schedule_after(milliseconds(5), [&fired, i] { fired.push_back(i); }));
    }
    for (int i = 0; i < kEvents; ++i) {
      if (cancel_mask[static_cast<std::size_t>(i)]) {
        sched.cancel(ids[static_cast<std::size_t>(i)]);
      }
    }
    sched.run();
    return fired;
  };

  const std::vector<int> baseline = run(BaselineScheduler{});
  const std::vector<int> indexed = run(Scheduler{});
  EXPECT_EQ(baseline, indexed);
  // And the order is the submission order of the survivors.
  std::vector<int> survivors;
  for (int i = 0; i < kEvents; ++i) {
    if (!cancel_mask[static_cast<std::size_t>(i)]) survivors.push_back(i);
  }
  EXPECT_EQ(indexed, survivors);
}

// Equal-time runs mixed with singles on ONE timestamp, some runs cancelled
// wholesale: the surviving labels must fire in exact submission order on
// both cores (the run occupying its k order numbers in the FIFO).
TEST(SchedulerEquivalenceFifo, BatchRunsKeepSubmissionOrderAmongSingles) {
  constexpr int kGroups = 120;
  util::Rng rng(11);
  std::vector<std::size_t> group_size;  // 0: single event; >0: run of k
  std::vector<bool> cancel_mask;
  for (int g = 0; g < kGroups; ++g) {
    group_size.push_back(rng.chance(0.5) ? static_cast<std::size_t>(rng.uniform(1, 4))
                                         : 0);
    cancel_mask.push_back(rng.chance(0.35));
  }

  std::vector<int> expected;
  {
    int label = 0;
    for (int g = 0; g < kGroups; ++g) {
      const int n = group_size[static_cast<std::size_t>(g)] == 0
                        ? 1
                        : static_cast<int>(group_size[static_cast<std::size_t>(g)]);
      for (int i = 0; i < n; ++i, ++label) {
        if (!cancel_mask[static_cast<std::size_t>(g)]) expected.push_back(label);
      }
    }
  }

  // Indexed core: real equal-time runs.
  std::vector<int> indexed_fired;
  {
    Scheduler sched;
    std::vector<EventId> single_ids(static_cast<std::size_t>(kGroups));
    std::vector<BatchId> batch_ids(static_cast<std::size_t>(kGroups));
    int label = 0;
    for (int g = 0; g < kGroups; ++g) {
      const std::size_t k = group_size[static_cast<std::size_t>(g)];
      if (k == 0) {
        const int this_label = label++;
        single_ids[static_cast<std::size_t>(g)] = sched.schedule_after(
            milliseconds(5),
            [&indexed_fired, this_label] { indexed_fired.push_back(this_label); });
      } else {
        std::vector<Scheduler::TimedEntry> entries(k);
        for (Scheduler::TimedEntry& e : entries) {
          const int this_label = label++;
          e.when = sched.now() + milliseconds(5);
          e.fn = [&indexed_fired, this_label] { indexed_fired.push_back(this_label); };
        }
        batch_ids[static_cast<std::size_t>(g)] = sched.schedule_run_at(entries);
      }
    }
    for (int g = 0; g < kGroups; ++g) {
      if (!cancel_mask[static_cast<std::size_t>(g)]) continue;
      if (group_size[static_cast<std::size_t>(g)] == 0) {
        sched.cancel(single_ids[static_cast<std::size_t>(g)]);
      } else {
        sched.cancel(batch_ids[static_cast<std::size_t>(g)]);
      }
    }
    sched.run();
  }

  EXPECT_EQ(indexed_fired, expected);
}

}  // namespace
}  // namespace ab::netsim
