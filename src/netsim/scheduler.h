// Deterministic discrete-event scheduler.
//
// Events at equal timestamps fire in submission order (a monotonically
// increasing order number breaks ties), so every simulation in the test
// and bench suites is bit-for-bit reproducible.
//
// The event core is an indexed 4-ary min-heap over a slot table:
//
//   * schedule is O(log n) with no per-event heap allocation -- slots are
//     recycled through a free list and the callback type keeps small
//     captures (a few pointers, a WireFrame) in inline storage;
//   * cancel is O(log n) and in-place: the handle's generation stamp is
//     checked against the slot, the slot is unlinked from the heap
//     immediately, and nothing dead is ever left behind -- no tombstones to
//     skip at pop time, no live-set hash lookups on the hot path;
//   * pending()/empty() are exact by construction (the heap only ever
//     contains live events);
//   * schedule_run_at inserts a MONOTONE TIMED run -- k (time, callback)
//     pairs with non-decreasing times -- as ONE heap entry and one sift,
//     where k schedule_at calls would pay k of each: a flood fan-out, a NIC
//     draining its queue, a processing element pacing a fragment train. A
//     same-time fan-out is simply a run whose times are all equal. The run
//     occupies k consecutive order numbers and, after each entry fires, the
//     head entry is re-keyed to the next entry's (time, order) pair --
//     exactly the key an individual schedule_at would have given it -- so
//     observably a run is k individual events: entries fire one per pop,
//     each counts against run() budgets and executed(), pending() counts
//     every unfired entry, and interleaving with every other event is
//     bit-identical to k schedule_at calls. One BatchId cancel unlinks
//     everything still pending in O(log n).
//
// A cancelled, fired, or never-issued EventId is recognized by its
// generation stamp, so stale cancels are harmless no-ops (timers race with
// the traffic that restarts them). src/netsim/baseline_scheduler.h keeps
// the previous priority_queue core as the ordering oracle for the
// determinism property test and as the microbench baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/netsim/time.h"
#include "src/util/inline_function.h"

namespace ab::netsim {

/// Handle for cancelling a scheduled event. Opaque: the low 32 bits are a
/// slot index, the high 32 bits the slot's generation at issue time, so a
/// handle stops matching the moment its event fires or is cancelled.
struct EventId {
  std::uint64_t seq = 0;
  friend bool operator==(const EventId&, const EventId&) = default;
};

/// Handle for cancelling a whole timed run scheduled with
/// schedule_run_at. Encoded like an EventId (slot + generation stamp) but
/// deliberately a distinct type: a run is cancelled wholesale, never entry
/// by entry, and the stamp goes stale the moment the run's last entry fires
/// or the run is cancelled.
struct BatchId {
  std::uint64_t seq = 0;
  friend bool operator==(const BatchId&, const BatchId&) = default;
};

/// The simulator's event loop and clock.
class Scheduler {
 public:
  /// Inline capacity fits the datapath's delivery closures (this + NIC +
  /// WireFrame) and a moved-in std::function without touching the heap.
  using Callback = util::InlineFunction<void(), 48>;

  /// Current virtual time. Advances only while events run.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `when` (clamped to now()).
  EventId schedule_at(TimePoint when, Callback fn);

  /// Schedules `fn` after a delay relative to now().
  EventId schedule_after(Duration delay, Callback fn);

  /// One entry of a monotone timed run: an absolute firing time plus its
  /// callback. Produced by the transmit paths (NIC burst drain, TxBatch,
  /// ProcessingElement::submit_burst) whose completion times are computed
  /// upfront.
  struct TimedEntry {
    TimePoint when{};
    Callback fn;
  };

  /// Schedules every (time, callback) pair of `entries` (moved from) as
  /// one monotone timed run: a single heap entry, a single sift, one slot
  /// -- where k schedule_at calls would pay k of each. Times must be
  /// non-decreasing (std::invalid_argument otherwise, before any entry is
  /// admitted); each is clamped to now(). Entries fire one per pop at
  /// their own times, in order, with the FIFO key an individual
  /// schedule_at would have produced -- budgets, step(), run_until and
  /// events scheduled in between observe exactly k individual events. The
  /// whole remaining run cancels as a unit via the BatchId. An empty span
  /// returns the null BatchId; a null callback anywhere throws.
  BatchId schedule_run_at(std::span<TimedEntry> entries);

  /// Appends `entry` to a still-pending run -- the saturated-
  /// transmitter case where a frame arrives while a burst is in flight and
  /// its completion time lands past the run's tail, so the run can absorb
  /// it with NO new heap insert. The appended entry gets a fresh order
  /// number (it was admitted after everything already in the run), so
  /// interleaving with other same-time events is exactly what an
  /// individual schedule_at at that moment would have produced. Returns
  /// false with no side effects when the handle is stale (run finished or
  /// cancelled) or `entry.when` precedes the run's last time. A null
  /// callback throws.
  bool try_extend_run(BatchId id, TimedEntry entry);

  /// Cancels a pending event in place. Cancelling an already-fired or
  /// unknown event is a harmless no-op (timers race with the traffic that
  /// restarts them) and leaves no bookkeeping behind.
  void cancel(EventId id);

  /// Cancels every still-unfired entry of a run in O(log n) -- one unlink,
  /// no matter how many entries remain. From inside one of the run's own
  /// callbacks this drops exactly the entries after the running one; after
  /// the last entry fires the stamp is stale and the cancel a no-op.
  void cancel(BatchId id);

  /// Runs the single next event. Returns false if the queue is empty.
  bool step();

  /// Runs all events with time <= `until`, then advances the clock to
  /// `until`. Returns the number of events executed.
  std::size_t run_until(TimePoint until);

  /// run_until(now() + d).
  std::size_t run_for(Duration d);

  /// Runs until the queue is empty or `max_events` have executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Timestamp of the earliest pending event -- the shard horizon the
  /// parallel runner's conservative window computation reads between
  /// rounds. TimePoint::max() when the queue is empty (an idle shard
  /// never constrains its neighbors).
  [[nodiscard]] TimePoint peek_next_time() const {
    return heap_.empty() ? TimePoint::max() : heap_.front().when;
  }
  /// Exact count of unfired events; every unfired entry of a run counts
  /// individually (a run is k events, not one).
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  /// Heap insert operations performed: one per schedule_at, one per run
  /// no matter how many entries it carries. scheduled() vs
  /// inserts() is the batching ratio the transmit-path benches guard.
  [[nodiscard]] std::uint64_t inserts() const { return inserts_; }
  /// Entries admitted in total (a run of k counts k) -- what
  /// inserts() would be if every entry were its own schedule_at call.
  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }

 private:
  /// Heap arity. Quads trade a slightly deeper compare per sift-down level
  /// for half the tree depth and contiguous child cache lines.
  static constexpr std::uint32_t kArity = 4;

  /// The heap stores the full sort key next to the slot index, so sifting
  /// compares contiguous memory and never chases into the slot table (the
  /// slot is touched only at schedule / cancel / fire).
  struct HeapEntry {
    TimePoint when{};
    std::uint64_t order = 0;  ///< FIFO tiebreak for equal timestamps
    std::uint32_t slot = 0;

    [[nodiscard]] bool earlier_than(const HeapEntry& o) const {
      if (when != o.when) return when < o.when;
      return order < o.order;
    }
  };

  /// A run: the entries of one schedule_run_at call (plus any
  /// try_extend_run appends), fired front to back. `next` is the cursor of
  /// a partially executed run; after each pop the heap entry is re-keyed to
  /// (times[next], order_of(next)) and re-seated, which is exactly the key
  /// entry `next` would have had as an individual schedule_at call.
  struct Batch {
    std::vector<Callback> entries;
    std::vector<TimePoint> times;  ///< per-entry firing times, non-decreasing
    std::uint64_t first_order = 0;
    std::size_t next = 0;
    /// Per-entry order numbers; empty until the first try_extend_run
    /// (entries admitted together are consecutive from first_order, so the
    /// vector is materialized only when an extension breaks that run).
    std::vector<std::uint64_t> orders;
    [[nodiscard]] std::size_t remaining() const { return entries.size() - next; }
    [[nodiscard]] std::uint64_t order_of(std::size_t i) const {
      return orders.empty() ? first_order + i : orders[i];
    }
  };

  struct Slot {
    std::uint32_t gen = 0;  ///< matches the EventId/BatchId stamp while live
    std::uint32_t heap_pos = 0;
    Callback fn;                    ///< single events
    std::unique_ptr<Batch> batch;   ///< non-null: this slot is a run
  };

  [[nodiscard]] static std::uint32_t id_slot(std::uint64_t seq) {
    return static_cast<std::uint32_t>(seq & 0xFFFFFFFFu);
  }
  [[nodiscard]] static std::uint32_t id_gen(std::uint64_t seq) {
    return static_cast<std::uint32_t>(seq >> 32);
  }

  /// Pops a slot index off the free list (or grows the table).
  [[nodiscard]] std::uint32_t acquire_slot();

  void heap_place(std::uint32_t pos, const HeapEntry& entry);
  void sift_up(std::uint32_t pos, const HeapEntry& entry);
  void sift_down(std::uint32_t pos, const HeapEntry& entry);
  /// Unlinks the heap entry at `pos`, restoring the heap property.
  void heap_remove(std::uint32_t pos);
  /// Retires a slot: bumps its generation (invalidating outstanding ids),
  /// drops the callback, and recycles the index.
  void free_slot(std::uint32_t slot);

  /// Pops and runs the next event; false when the queue is empty.
  bool pop_and_run();

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;      ///< 4-ary min-heap on (when, order)
  std::vector<std::uint32_t> free_;  ///< recycled slot indices
  TimePoint now_{};
  std::uint64_t next_order_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t inserts_ = 0;    ///< heap insert ops (a run of k counts 1)
  std::uint64_t scheduled_ = 0;  ///< entries admitted (a run of k counts k)
  std::size_t pending_ = 0;  ///< unfired events (run entries counted each)
};

}  // namespace ab::netsim
