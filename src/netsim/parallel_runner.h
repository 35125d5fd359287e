// ParallelRunner: conservative lockstep execution of per-shard Schedulers.
//
// Time advances in ROUNDS. The thread that calls run_until (the
// COORDINATOR) runs each round:
//
//   1. It drains every shard's inbound mailboxes (all producers are
//      quiescent, so the drain sees every frame emitted in earlier rounds
//      and nothing else), scheduling the frames into their local queues at
//      their producer-computed delivery times.
//   2. It computes the next window end  E = min(target, Tmin + L - 1ns)
//      where Tmin is the earliest pending event across ALL shards and L is
//      the cell's lookahead -- the minimum propagation delay over every
//      cut segment.
//   3. A shard with no event at or before E is idle for the round: nothing
//      can reach it inside the window, so the coordinator just moves its
//      clock to E. When at most one shard is BUSY (has such an event), the
//      coordinator runs that shard's window itself -- an INLINE round, with
//      no hand-off at all.
//   4. Otherwise it posts the round: one atomic generation word wakes the
//      workers, and every thread, the coordinator included, claims busy
//      shards from an atomic cursor and runs them to E. The thread that
//      finishes the round's last shard wakes the coordinator through a
//      second word.
//
// A waiting thread (a worker between rounds, the coordinator at the end of
// a round) spins for a bounded time and then parks on std::atomic::wait.
// It spins only when the workers leave a hardware thread free; otherwise a
// spinner would take the core the thread it waits for needs.
//
// Safety: an event executed in the window fires at some t >= Tmin, so any
// frame it relays across a cut is delivered at t + propagation >= Tmin + L
// > E -- strictly beyond the window. No shard can ever receive a frame in
// its past, which is exactly the conservative-lookahead contract; the
// inject_remote assert enforces it. Cells with no cut segments (one shard,
// or lookahead unset) collapse to a single window to the target.
//
// Determinism: the round/window sequence -- and which shards are busy in
// each -- is a pure function of the simulation state: Tmin and L do not
// depend on how shards are mapped to threads, and within a round shards
// touch disjoint state (the coordinator drained every mailbox before the
// post; producers write only their own shard's state and outbound rings).
// So every shard executes the identical event sequence whether the runner
// uses 1 worker or 8, which is what the thread-count independence tests
// prove end to end. With threads == 1 the runner never spawns a thread and
// executes the same rounds inline -- the 1-thread sharded path IS the
// serial path. Workers are spawned per run_until call, at the first round
// that needs them.
#pragma once

#include <cstdint>
#include <vector>

#include "src/netsim/shard.h"
#include "src/netsim/time.h"

namespace ab::netsim {

class ParallelRunner {
 public:
  struct Options {
    /// Worker threads, the calling thread included. Clamped to
    /// [1, shards]; 1 runs inline.
    int threads = 1;
    /// Conservative lookahead: minimum propagation delay across cut
    /// segments. <= 0 means "no cross-shard coupling" (single window).
    /// A cell WITH cut segments must set this strictly positive.
    Duration lookahead{};
  };

  ParallelRunner(std::vector<Shard*> shards, Options options);

  /// Advances every shard to exactly `target` (events <= target executed,
  /// clocks == target), honoring the conservative windows. Callable
  /// repeatedly; frames relayed by target-time events stay in their
  /// mailboxes and are drained by the next call's first round.
  void run_until(TimePoint target);

  /// run_until(now of shard 0 + d) -- all shard clocks agree between calls.
  void run_for(Duration d);

  /// Synchronization rounds executed so far (telemetry: the bench reports
  /// rounds per simulated second to show round amortization).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Rounds in which at most one shard had an event in the window -- the
  /// rounds the coordinator runs without a hand-off. A function of the
  /// round structure alone, so equal at every thread count.
  [[nodiscard]] std::uint64_t inline_rounds() const { return inline_rounds_; }

  /// True when waiting threads spin before they park (the workers leave a
  /// hardware thread free); false when they park at once or when the
  /// runner is single-threaded.
  [[nodiscard]] bool spins() const { return spins_; }

  [[nodiscard]] const std::vector<Shard*>& shards() const { return shards_; }

 private:
  class Crew;

  /// Computes the end of the next window: min(target, Tmin + lookahead -
  /// 1ns), saturating; `target` when every queue is empty or there is no
  /// cross-shard coupling. Requires mailboxes drained (Tmin must see every
  /// deliverable frame).
  [[nodiscard]] TimePoint next_window(TimePoint target) const;

  std::vector<Shard*> shards_;
  Options options_;
  bool spins_ = false;
  std::uint64_t rounds_ = 0;
  std::uint64_t inline_rounds_ = 0;
  /// The current round's busy shards (an event at or before the window
  /// end), in shard order. Kept across rounds to reuse its storage.
  std::vector<Shard*> busy_;
};

}  // namespace ab::netsim
