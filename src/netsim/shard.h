// Cross-shard frame transport for the sharded parallel simulation core.
//
// A sharded cell splits one topology into regions, each driven by its own
// Scheduler, one worker thread at a time. A LAN whose bridges span two regions
// (a CUT segment) exists as one replica per region: the owning region's
// replica carries the frame (stats, tap, serialization) and RELAYS the wire
// bytes into a mailbox per consuming region; the consumer injects them into
// its local replica with LanSegment::inject_remote at the producer-computed
// delivery time.
//
// Mailboxes are bounded SPSC rings -- exactly one producing shard and one
// consuming shard per ring, lock-free with acquire/release indices, the
// same engine/backlog-queue shape as per-CPU packet processing engines.
// The parallel runner's conservative windows mean a consumer only drains at
// round boundaries, after every producer finished the round; a ring that
// fills mid-window therefore CANNOT wait for the consumer (deadlock: the
// drain is waiting for the producer to finish its window), so overflow
// spills into a producer-owned vector that the round hand-off's
// happens-before passes to the consumer safely.
//
// Determinism: a shard drains its channels in registration order (the
// builder registers them in (cut segment, producer region) order), each
// ring in push order (the producer's own deterministic event order), and
// rings are strictly point-to-point -- so the injection sequence is a pure
// function of the simulation, independent of thread count or scheduling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/netsim/scheduler.h"
#include "src/netsim/time.h"
#include "src/util/bytes.h"

namespace ab::netsim {

class LanSegment;

/// One frame crossing a shard boundary: the encoded wire bytes (WireFrames
/// are never shared across threads -- their lazy parse/encode caches are
/// unsynchronized) plus the absolute delivery time, computed producer-side
/// as transmit time + the cut segment's propagation delay.
struct RelayFrame {
  TimePoint deliver_at{};
  util::ByteBuffer wire;
};

/// Bounded single-producer single-consumer ring of RelayFrames.
class RelayRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit RelayRing(std::size_t capacity = 1024);

  RelayRing(const RelayRing&) = delete;
  RelayRing& operator=(const RelayRing&) = delete;

  /// Producer side. Moves from `frame` only on success; false when the
  /// ring is full (caller still owns the frame and can spill it).
  [[nodiscard]] bool try_push(RelayFrame& frame);

  /// Consumer side. False when the ring is empty.
  [[nodiscard]] bool try_pop(RelayFrame& out);

  /// Consumer-side view; exact once the producer has quiesced.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<RelayFrame> slots_;
  std::size_t mask_;
  /// Consumer cursor (pop side) and producer cursor (push side) on their
  /// own cache lines; each side reads the other's index with acquire and
  /// publishes its own with release.
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

/// One directed cross-shard conduit: frames relayed by the producing
/// region's owning replica of one cut segment, drained into `target` (the
/// consuming region's replica of that same segment).
class ShardChannel {
 public:
  ShardChannel(LanSegment& target, std::size_t ring_capacity = 1024)
      : target_(&target), ring_(ring_capacity) {}

  /// Producer side (called from the owning replica's relay hook, on the
  /// producing shard's thread). Never blocks: a full ring spills into the
  /// producer-owned overflow vector, which the consumer may only read
  /// after a synchronization point (the end of the runner's round).
  void push(TimePoint deliver_at, util::ByteView wire);

  /// Consumer side, at a sync point only: injects every queued frame into
  /// the target replica (ring first -- those frames are older than any
  /// spilled one -- then the spill, in push order). Returns frames drained.
  std::size_t drain();

  [[nodiscard]] LanSegment& target() { return *target_; }
  [[nodiscard]] std::uint64_t spilled() const { return spilled_; }

 private:
  LanSegment* target_;
  RelayRing ring_;
  /// Producer-owned overflow for full-ring pushes. Only touched by the
  /// consumer inside drain(), which the runner orders after the round.
  std::vector<RelayFrame> spill_;
  std::uint64_t spilled_ = 0;  ///< total spilled frames (telemetry)
};

/// One shard's view of the synchronization machinery: its Scheduler plus
/// the inbound channels feeding its cut-segment replicas. The parallel
/// runner drains and advances shards; the sharded topology builder wires
/// them.
class Shard {
 public:
  explicit Shard(Scheduler& scheduler) : scheduler_(&scheduler) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }

  /// Registers an inbound channel. Registration order IS drain order; the
  /// builder registers in (cut segment, producer region) order so drains
  /// are deterministic.
  void add_inbound(ShardChannel& channel) { inbound_.push_back(&channel); }

  /// Drains every inbound channel into its target replica. Must only run
  /// at a round boundary (producers quiescent). Returns frames drained.
  std::size_t drain();

  [[nodiscard]] const std::vector<ShardChannel*>& inbound() const { return inbound_; }

 private:
  Scheduler* scheduler_;
  std::vector<ShardChannel*> inbound_;
};

}  // namespace ab::netsim
