#include "src/netsim/scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/string_util.h"

namespace ab::netsim {

std::string time_to_string(TimePoint t) {
  return util::format("%.6fs", to_seconds(t.time_since_epoch()));
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  // Generations start at 1 so a hand-rolled EventId{small int} (gen 0)
  // can never match a live slot.
  slots_.back().gen = 1;
  return slot;
}

EventId Scheduler::schedule_at(TimePoint when, Callback fn) {
  if (!fn) throw std::invalid_argument("Scheduler: null callback");
  if (when < now_) when = now_;

  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);

  HeapEntry entry;
  entry.when = when;
  entry.order = next_order_++;
  entry.slot = slot;
  const auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(entry);
  sift_up(pos, entry);
  pending_ += 1;
  inserts_ += 1;
  scheduled_ += 1;
  return EventId{(static_cast<std::uint64_t>(slots_[slot].gen) << 32) | slot};
}

EventId Scheduler::schedule_after(Duration delay, Callback fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

BatchId Scheduler::schedule_run_at(std::span<TimedEntry> entries) {
  if (entries.empty()) return BatchId{};  // null handle: cancelling is a no-op
  // Validate everything before admitting anything, so a bad entry cannot
  // leave a half-scheduled run behind.
  TimePoint prev = TimePoint::min();
  for (const TimedEntry& e : entries) {
    if (!e.fn) throw std::invalid_argument("Scheduler: null callback in run");
    if (e.when < prev) {
      throw std::invalid_argument("Scheduler: run times must be non-decreasing");
    }
    prev = e.when;
  }

  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.batch = std::make_unique<Batch>();
  s.batch->entries.reserve(entries.size());
  s.batch->times.reserve(entries.size());
  for (TimedEntry& e : entries) {
    s.batch->entries.push_back(std::move(e.fn));
    // Clamping to now() preserves monotonicity: a prefix of past times all
    // clamp to the same now().
    s.batch->times.push_back(std::max(e.when, now_));
  }

  // Occupying k consecutive order numbers makes every entry's effective
  // key (times[i], first_order + i) identical to what k individual
  // schedule_at calls would have been issued; pop_and_run re-keys the heap
  // entry to the next pair after each firing.
  HeapEntry entry;
  entry.when = s.batch->times.front();
  entry.order = next_order_;
  entry.slot = slot;
  s.batch->first_order = next_order_;
  next_order_ += entries.size();
  const auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(entry);
  sift_up(pos, entry);
  pending_ += entries.size();
  inserts_ += 1;
  scheduled_ += entries.size();
  return BatchId{(static_cast<std::uint64_t>(s.gen) << 32) | slot};
}

bool Scheduler::try_extend_run(BatchId id, TimedEntry entry) {
  if (!entry.fn) throw std::invalid_argument("Scheduler: null callback in extend");
  const std::uint32_t slot = id_slot(id.seq);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // A finished or cancelled run has a bumped generation; from inside the
  // run's own LAST entry the slot is already retired (pop_and_run frees it
  // before that entry fires), so self-extension past the end safely fails
  // into the caller's FIFO fallback.
  if (s.gen != id_gen(id.seq)) return false;
  Batch* b = s.batch.get();
  if (b == nullptr) return false;                   // a single event's slot
  if (entry.when < b->times.back()) return false;  // would break monotonicity
  // From here the append always succeeds. Materialize per-entry orders on
  // the first extension: the new entry is NOT consecutive with the run's
  // original block (arbitrarily many events were admitted in between), so
  // the implicit first_order + i rule no longer holds past the block.
  if (b->orders.empty()) {
    b->orders.reserve(b->entries.size() + 1);
    for (std::size_t i = 0; i < b->entries.size(); ++i) {
      b->orders.push_back(b->first_order + i);
    }
  }
  b->entries.push_back(std::move(entry.fn));
  // No clamp needed: every unfired time of a pending run is >= now(), and
  // the appended time is >= times.back(). The heap key (the run's NEXT
  // entry) is unchanged -- the tail only grew -- so no re-sift either.
  b->times.push_back(entry.when);
  b->orders.push_back(next_order_++);
  pending_ += 1;
  scheduled_ += 1;  // inserts_ unchanged: that is the whole point
  return true;
}

void Scheduler::cancel(EventId id) {
  const std::uint32_t slot = id_slot(id.seq);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // A live slot's generation matches the stamp in exactly one outstanding
  // id; firing or cancelling bumps it, so stale handles fall through here.
  // (Live generations are never 0, so null/forged ids miss too.)
  if (s.gen != id_gen(id.seq)) return;
  // An EventId is never issued for a run; a forged/wrapped one must not
  // unlink k entries while accounting for one.
  if (s.batch != nullptr) return;
  heap_remove(s.heap_pos);
  free_slot(slot);
  pending_ -= 1;
}

void Scheduler::cancel(BatchId id) {
  const std::uint32_t slot = id_slot(id.seq);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != id_gen(id.seq)) return;
  if (s.batch == nullptr) return;  // stale handle over a recycled single slot
  pending_ -= s.batch->remaining();
  heap_remove(s.heap_pos);
  free_slot(slot);
}

void Scheduler::heap_place(std::uint32_t pos, const HeapEntry& entry) {
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = pos;
}

void Scheduler::sift_up(std::uint32_t pos, const HeapEntry& entry) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!entry.earlier_than(heap_[parent])) break;
    heap_place(pos, heap_[parent]);
    pos = parent;
  }
  heap_place(pos, entry);
}

void Scheduler::sift_down(std::uint32_t pos, const HeapEntry& entry) {
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint64_t first = std::uint64_t{pos} * kArity + 1;
    if (first >= size) break;
    const auto last =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(first + kArity, size));
    auto best = static_cast<std::uint32_t>(first);
    for (std::uint32_t c = best + 1; c < last; ++c) {
      if (heap_[c].earlier_than(heap_[best])) best = c;
    }
    if (!heap_[best].earlier_than(entry)) break;
    heap_place(pos, heap_[best]);
    pos = best;
  }
  heap_place(pos, entry);
}

void Scheduler::heap_remove(std::uint32_t pos) {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  // Re-seat the displaced tail entry: it may need to move either way.
  if (pos > 0 && moved.earlier_than(heap_[(pos - 1) / kArity])) {
    sift_up(pos, moved);
  } else {
    sift_down(pos, moved);
  }
}

void Scheduler::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // never hand out the unissuable generation
  s.fn = nullptr;
  s.batch.reset();
  free_.push_back(slot);
}

bool Scheduler::pop_and_run() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_[0].slot;
  now_ = heap_[0].when;
  ++executed_;
  pending_ -= 1;
  Slot& s = slots_[slot];
  Callback fn;
  if (s.batch != nullptr) {
    // One entry per pop: a run is observably k individual events, so a
    // budget or step() that splits it leaves the remainder pending, in
    // order. The slot is retired before the LAST entry runs, so a cancel
    // of the run's own BatchId from inside that entry is already a stale
    // no-op -- from any earlier entry it drops exactly the remaining ones.
    Batch& b = *s.batch;
    fn = std::move(b.entries[b.next]);
    b.next += 1;
    if (b.remaining() == 0) {
      heap_remove(0);
      free_slot(slot);
    } else {
      // Re-key the head to the next entry's (time, order) -- the key an
      // individual schedule_at would have given it -- and re-seat it. The
      // new key is never earlier than the one just fired, so a sift-down
      // suffices.
      HeapEntry head = heap_[0];
      head.when = b.times[b.next];
      head.order = b.order_of(b.next);
      sift_down(0, head);
    }
  } else {
    heap_remove(0);
    // Retire the slot before running so a cancel of this event's own id
    // from inside the callback is already a stale no-op, and pending()
    // excludes the running event (matching the baseline core's semantics).
    fn = std::move(s.fn);
    free_slot(slot);
  }
  fn();
  return true;
}

bool Scheduler::step() { return pop_and_run(); }

std::size_t Scheduler::run_until(TimePoint until) {
  std::size_t count = 0;
  // The heap never holds cancelled entries, so the head is always a live
  // event and the time bound is checked against real work.
  while (!heap_.empty() && heap_[0].when <= until) {
    pop_and_run();
    ++count;
  }
  if (now_ < until) now_ = until;
  return count;
}

std::size_t Scheduler::run_for(Duration d) { return run_until(now_ + d); }

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && pop_and_run()) ++count;
  return count;
}

}  // namespace ab::netsim
