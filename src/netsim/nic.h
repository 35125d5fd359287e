// A simulated Ethernet adapter.
//
// Receive path: the segment's per-frame delivery event hands the shared
// WireFrame to the receivers it visits (see lan.h for which ones); the NIC
// checks FCS validity (one decode + one CRC check shared by every receiver
// of the frame), applies its address filter (unicast-to-me, broadcast,
// group, or everything when promiscuous -- the paper's bridge "whenever an
// input port is bound, it is put into promiscuous mode"), and hands the
// shared frame to the registered handler. The frames the segment did not
// visit this NIC for are credited in bulk, so stats() still counts every
// frame the NIC heard. Detaching removes the NIC from in-flight delivery
// walks; it is safe from inside another NIC's rx handler mid-walk.
//
// Transmit path: WireFrames queue FIFO behind the transmitter, which is
// busy for the segment's serialization delay per frame; a full queue drops
// (tail-drop, counted). A WireFrame that already carries encoded bytes
// (a forwarded frame) is queued by reference count -- no re-encode, no
// re-CRC, no copy.
//
// Burst transmit: a backlog (a ttcp write's fragment train, a flood fan-
// out's share of one port) drains as ONE monotone timed run -- the k
// serialization completion times are cumulative and known upfront, so the
// whole burst costs one scheduler insert where the self-rearming per-frame
// chain cost k. The k DELIVERIES ride a second shared timed run scheduled
// alongside (each at its frame's completion + propagation): a completion
// entry snapshots its receivers with LanSegment::prepare_broadcast and
// deposits the run index into a slot vector the delivery entries read, so
// a k-frame burst costs two inserts total where completion-then-broadcast
// cost 1 + k. Completion and delivery events still fire at exactly the
// times the chain produced; only the insert count changes. Pacing is
// fixed when a completion is scheduled: EVERY completion (single-frame,
// try_prepare claim, or burst entry) broadcasts only onto the segment it
// was paced for -- a NIC detached (or reattached elsewhere) in flight
// skips the pending broadcasts instead of delivering them at the wrong
// rate. Frames queued mid-burst drain after the burst's last entry --
// UNLESS nothing else is queued and the frame's completion lands past the
// run's tail, in which case transmit() appends it to the in-flight run
// (Scheduler::try_extend_run): a saturated flood stays at one insert per
// hop instead of re-entering the FIFO queue, with timing identical to the
// queue-then-restart path. tx_frames/tx_bytes count at schedule time
// (admission to the wire), so transmissions cut short by a detach keep
// their counts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/lan.h"
#include "src/netsim/scheduler.h"

namespace ab::netsim {

/// Interface counters, mirroring what ifconfig would have shown on the
/// paper's testbed.
struct NicStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_dropped = 0;  ///< tail-dropped: transmit queue full
  std::uint64_t rx_frames = 0;   ///< delivered to the handler
  std::uint64_t rx_bytes = 0;
  std::uint64_t rx_filtered = 0;  ///< address filter rejected
  std::uint64_t rx_bad = 0;       ///< FCS or framing errors
};

/// How a receiver that declared a group interest (Nic::set_group_interest)
/// treats a group-addressed frame: the decisions HostStack::on_frame makes,
/// judged from the frame alone, so the segment can skip the hosts a frame
/// cannot touch.
struct GroupRoute {
  enum class Kind : std::uint8_t {
    kIgnored,    ///< LLC, or an ethertype other than ARP and IPv4
    kArpTarget,  ///< a well-formed ARP: only the owner of arp_target acts
    kEveryone,   ///< IPv4, or a malformed ARP: every host decodes it
  };
  Kind kind = Kind::kIgnored;
  /// The ARP target protocol address, host byte order (kArpTarget only).
  std::uint32_t arp_target = 0;
};

/// Classifies a group-addressed frame for interested receivers. An ARP is
/// well-formed exactly when ArpPacket::decode accepts its payload.
[[nodiscard]] GroupRoute route_group_frame(const ether::Frame& frame);

/// Minimal FIFO of wire frames over a lazily-allocated vector. An idle
/// NIC's queue costs two words; std::deque here eagerly allocated its
/// chunk map and first chunk (~600 heap bytes per NIC -- ruinous at a
/// million idle stations). pop_front advances a head index and releases
/// the frame's wire buffer immediately; storage resets when the queue
/// drains and the dead prefix is compacted away when it dominates.
class FrameFifo {
 public:
  [[nodiscard]] std::size_t size() const { return buf_.size() - head_; }
  [[nodiscard]] bool empty() const { return head_ == buf_.size(); }
  [[nodiscard]] ether::WireFrame& front() { return buf_[head_]; }
  void push_back(ether::WireFrame frame) { buf_.push_back(std::move(frame)); }
  void pop_front() {
    buf_[head_] = ether::WireFrame();  // drop the wire buffer now
    head_ += 1;
    if (head_ == buf_.size()) {
      buf_.clear();  // keeps capacity for the steady state
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<ether::WireFrame> buf_;
  std::size_t head_ = 0;
};

/// One network interface. NICs are owned by Network and must outlive any
/// scheduled simulation events.
class Nic {
 public:
  using RxHandler = std::function<void(const ether::WireFrame&)>;

  Nic(Scheduler& scheduler, std::string name, ether::MacAddress mac);
  ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ether::MacAddress mac() const { return mac_; }

  /// Connects to a segment (detaching from any previous one).
  void attach(LanSegment& segment);
  void detach();
  [[nodiscard]] LanSegment* segment() const { return segment_; }

  /// Installs the receive callback. Passing nullptr silences the NIC
  /// (frames are counted but dropped). Clears the group interest: the
  /// interest describes the receiver it was declared for.
  void set_rx_handler(RxHandler handler);

  void set_promiscuous(bool on);
  [[nodiscard]] bool promiscuous() const { return promiscuous_; }

  /// Declares that this NIC's receiver is an IPv4 host stack owning
  /// `ipv4` (host byte order; 0 clears the interest). The receiver then
  /// promises to ignore a group frame whenever route_group_frame() says
  /// kIgnored, or kArpTarget with another target -- exactly what
  /// HostStack::on_frame does -- and the segment skips delivering those
  /// frames to this NIC, crediting their counts instead (see lan.h).
  /// Unicast delivery is unaffected. HostStack's constructor sets it;
  /// set_rx_handler clears it.
  void set_group_interest(std::uint32_t ipv4);
  [[nodiscard]] std::uint32_t group_interest() const { return group_interest_; }

  /// Bounds the transmit backlog (frames). Default 512. Occupancy counts
  /// queued frames plus the unfired remainder of a scheduled burst run
  /// beyond the frame currently serializing -- the same backlog the
  /// per-frame chain kept in the queue -- so tail-drop behavior under
  /// sustained overload is unchanged by burst draining.
  void set_tx_queue_limit(std::size_t limit) { tx_queue_limit_ = limit; }

  /// Queues a shared wire buffer for transmission, forcing its bytes to be
  /// materialized (encode-once: a frame already encoded upstream is queued
  /// by refcount). Returns false (and counts a drop) if the queue is full
  /// or the NIC is detached.
  bool transmit(ether::WireFrame frame);

  /// Convenience overloads for locally originated traffic: wrap the parsed
  /// frame into a WireFrame (one encode at most, on this call). Temporaries
  /// move in; lvalues pay one counted payload copy.
  bool transmit(const ether::Frame& frame) { return transmit(ether::WireFrame(frame)); }
  bool transmit(ether::Frame&& frame) {
    return transmit(ether::WireFrame(std::move(frame)));
  }

  /// Queues every frame of `frames` (moved from) for transmission as one
  /// burst. Admission per frame matches transmit() -- a full queue
  /// tail-drops (counted), a detached NIC drops everything -- and the
  /// admitted backlog is scheduled as ONE monotone timed run: a K-frame
  /// burst costs one scheduler insert where K transmit() calls cost K,
  /// with identical frame timing. Returns the number of frames admitted.
  std::size_t transmit_burst(std::span<ether::WireFrame> frames);

  /// Claims the idle transmitter for `frame`: accounts stats, marks the
  /// NIC busy, and returns the serialization-completion event -- time plus
  /// the callback that broadcasts the frame and restarts the queue -- for
  /// the CALLER to schedule (a bridge's TxBatch merges the claims of every
  /// egress port into one run). The caller MUST schedule the entry, or the
  /// transmitter stays claimed forever. Returns nullopt with NO side
  /// effects when the transmitter is busy, frames are queued, or the NIC
  /// is detached; fall back to transmit(), which preserves FIFO order and
  /// counts drops.
  std::optional<Scheduler::TimedEntry> try_prepare(ether::WireFrame frame);

  /// Records the run a try_prepare claim was scheduled into (TxBatch calls
  /// this after flush), so a later transmit() on the saturated NIC can
  /// extend that run instead of falling back to the FIFO queue. The run is
  /// SHARED with the batch's other claimants, so this NIC never cancels it.
  void note_run(BatchId id) {
    run_id_ = id;
    owns_run_ = false;
  }

  /// Entry point for the segment's delivery events.
  void deliver(const ether::WireFrame& frame);

  /// Legacy/test entry point: wraps raw wire bytes and delivers them.
  void deliver_wire(util::ByteView wire);

  /// This NIC's counters plus its share of the segment's bulk credits:
  /// exactly what delivering every heard frame to it would have counted.
  [[nodiscard]] NicStats stats() const;

 private:
  friend class LanSegment;  // attach bookkeeping, filter state, credits

  void start_transmitter();

  Scheduler* scheduler_;
  std::string name_;
  ether::MacAddress mac_;
  LanSegment* segment_ = nullptr;
  /// This NIC's position in segment_'s attach list -- the back-index that
  /// makes detach O(1) on a million-station segment. Owned by LanSegment.
  std::size_t lan_index_ = 0;
  /// Order of attachment to segment_ (unique per segment, growing with
  /// lan_index_): tells the NICs attached while a frame was in flight from
  /// those that heard it. Owned by LanSegment.
  std::uint64_t attach_stamp_ = 0;
  /// segment_->heard() when this NIC last folded its share into stats_.
  HeardCounts heard_base_;
  RxHandler rx_handler_;
  bool promiscuous_ = false;
  bool transmitting_ = false;
  std::uint32_t group_interest_ = 0;  ///< see set_group_interest
  FrameFifo tx_queue_;
  std::size_t tx_queue_limit_ = 512;
  NicStats stats_;
  /// Unfired entries of this NIC's in-flight transmit run, INCLUDING the
  /// frame currently serializing (so occupancy charges run_remaining_ - 1
  /// against tx_queue_limit_ -- the same backlog the per-frame chain kept
  /// in the queue). Each completion entry decrements it; the entry that
  /// takes it to zero restarts the transmitter, which makes appended
  /// extension entries part of the same service period.
  std::size_t run_remaining_ = 0;
  /// Handle + tail completion time of the in-flight transmit run; a
  /// transmit() on the saturated NIC appends past the tail via
  /// Scheduler::try_extend_run. Stale handles fail the extension safely.
  BatchId run_id_{};
  TimePoint run_tail_time_{};
  /// True when run_id_ names a run scheduled by and for this NIC alone
  /// (start_transmitter's single or burst drain), which ~Nic cancels if
  /// still pending -- its completion entries capture `this`. False for a
  /// TxBatch run recorded via note_run(): that run carries OTHER ports'
  /// completions too and must survive this NIC.
  bool owns_run_ = false;
  /// Receiver-run indices a burst's completion entries deposit (via
  /// LanSegment::prepare_broadcast) for its delivery entries to read.
  /// Shared: the delivery closures hold the vector alive after the next
  /// burst replaces it. burst_cursor_ is the deposit position -- implicit
  /// order works because every completion of a burst fires before the
  /// next burst resets the vector.
  std::shared_ptr<std::vector<std::uint32_t>> burst_slots_;
  std::size_t burst_cursor_ = 0;
  /// Scratch for start_transmitter's burst drain (capacity reused).
  std::vector<Scheduler::TimedEntry> drain_scratch_;
  std::vector<Scheduler::TimedEntry> delivery_scratch_;
};

/// Collects claimed transmissions (Nic::try_prepare) across the NICs of
/// one node and issues them as ONE monotone timed run: an N-port flood
/// costs the bridge one scheduler insert instead of one per egress port.
/// Idle ports serializing the same frame complete at the same timestamp,
/// so a typical flood's entries coalesce onto one time and the in-place
/// insertion sort in flush() does no work. The entry vector keeps its
/// capacity across flushes, so steady-state floods allocate nothing.
class TxBatch {
 public:
  void add(Scheduler::TimedEntry entry) {
    entries_.push_back(std::move(entry));
    claimants_.push_back(nullptr);
  }

  /// add() that also remembers whose transmitter the claim belongs to:
  /// flush() hands the run's BatchId back to each claimant (note_run), so
  /// a saturated port's next frame can extend the run in place.
  void add(Nic& nic, Scheduler::TimedEntry entry) {
    entries_.push_back(std::move(entry));
    claimants_.push_back(&nic);
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Orders the collected completions by time (stable: claim order breaks
  /// ties, matching what per-port schedule calls would have produced) and
  /// schedules them as one run. Clears the batch, keeping capacity.
  /// Returns the run's handle (null when the batch was empty).
  BatchId flush(Scheduler& scheduler);

 private:
  std::vector<Scheduler::TimedEntry> entries_;
  std::vector<Nic*> claimants_;  ///< parallel to entries_; null for add(entry)
};

}  // namespace ab::netsim
