// A broadcast LAN segment: the simulated stand-in for the paper's 100 Mbps
// Ethernets. Serialization delay is charged at the transmitting NIC using
// the segment's bit rate; the segment adds the propagation delay and
// delivers.
//
// Addressed delivery. A frame is heard by every NIC attached other than
// its sender, and each NIC's NicStats count it exactly as if its own
// address filter had judged it -- but the segment only VISITS (calls
// Nic::deliver on) the NICs whose filter or receiver acts on the frame,
// in attach order:
//   - a unicast frame visits the NICs owning its destination MAC and the
//     promiscuous NICs (bridge ports); every other filter would reject it;
//   - a group frame visits every NIC without a declared group interest
//     (raw NICs, generators, bridge ports) and each interested NIC
//     (Nic::set_group_interest, set by HostStack) whose receiver acts on
//     it, as judged by route_group_frame(): a well-formed ARP visits the
//     NICs that declared its target IP, an LLC or other-ethertype frame
//     none of them.
// The NICs skipped are credited in bulk: the segment keeps cumulative
// HeardCounts, bumped once per addressed frame; each NIC remembers the
// counts at its last fold, and Nic::stats() adds the difference, so
// rx_frames, rx_bytes and rx_filtered read exactly what visiting every
// NIC counts. The visited NICs and the sender count their own share, so
// they step their remembered counts past the frame instead. A NIC folds
// its share into its own counts whenever it attaches, detaches, is
// destroyed, or changes its promiscuous mode or interest. The per-segment
// MAC and interest index is built the first time the segment carries an
// addressed frame (set-up pays nothing per station), then kept current by
// attach, detach, set_promiscuous and set_group_interest.
// LanStats::visits counts the Nic::deliver calls -- the one counter that
// shows the saving, since every NicStats field stays exact.
//
// The full walk -- every NIC attached at transmit time and still attached
// visited in attach order, each applying its own filter -- still runs for:
//   - every frame on a segment with LanConfig::loss > 0, so the seeded
//     per-receiver loss draws stay in attach order;
//   - frames that fail the FCS or parse check (every receiver counts
//     rx_bad);
//   - IPv4 and malformed-ARP group frames, which every host decodes (and
//     a malformed one counts as a parse error at each);
//   - a frame whose segment saw an attach, detach, promiscuous toggle or
//     interest change while it was in flight. A change made by a visited
//     receiver's handler during the frame's own delivery hands the rest of
//     that delivery to the full walk: NICs before the handler's are
//     credited one by one, those after it are visited.
// So does every frame on a segment with fewer than kMinAddressedReceivers
// receivers (point-to-point inter-bridge links, the few-station LANs of
// the bridged TCP cells): there, visiting each receiver is cheaper than
// choosing whom to skip.
//
// Delivery is per SEGMENT, not per receiver: one transmission schedules
// one event, whose callback visits the receivers chosen at transmit time.
// A NIC detached between transmit and delivery, or detached/destroyed by
// an earlier receiver's handler inside the same walk, is skipped, never
// touched.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/scheduler.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace ab::netsim {

class Nic;

/// Physical parameters of a segment.
struct LanConfig {
  /// Link speed in bits per second. Default: the paper's 100 Mbps Fast
  /// Ethernet.
  double bit_rate = 100e6;
  /// One-way propagation delay across the segment.
  Duration propagation = microseconds(5);
  /// Independent per-receiver drop probability (fault injection).
  double loss = 0.0;
  /// Seed for the loss process.
  std::uint64_t seed = 1;
};

/// Traffic counters for a segment.
struct LanStats {
  std::uint64_t frames_carried = 0;
  std::uint64_t bytes_carried = 0;
  std::uint64_t frames_lost = 0;  ///< receiver-side drops from the loss model
  /// Whole-frame drops scripted via set_drop_filter (conformance suites).
  std::uint64_t frames_dropped_by_filter = 0;
  /// Nic::deliver calls this segment made. The full walk makes one per
  /// attached receiver; addressed delivery only for the NICs that act.
  std::uint64_t visits = 0;
};

/// Frames a segment credited in bulk to the attached NICs it did not visit
/// (cumulative; see the addressed-delivery contract above).
struct HeardCounts {
  std::uint64_t accepted = 0;        ///< group frames passed by the filter
  std::uint64_t accepted_bytes = 0;  ///< their wire bytes
  std::uint64_t filtered = 0;        ///< unicast frames for another MAC

  HeardCounts& operator+=(const HeardCounts& other) {
    accepted += other.accepted;
    accepted_bytes += other.accepted_bytes;
    filtered += other.filtered;
    return *this;
  }
};

/// A shared broadcast medium. Attach NICs with Nic::attach().
class LanSegment {
 public:
  /// Observer invoked once per transmitted frame (wire bytes, pre-loss).
  /// Used by FrameTrace and by the storm-detection tests.
  using FrameTap = std::function<void(TimePoint, const Nic* sender, util::ByteView wire)>;

  LanSegment(Scheduler& scheduler, std::string name, LanConfig config);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const LanConfig& config() const { return config_; }
  [[nodiscard]] const LanStats& stats() const { return stats_; }
  /// Bulk credits so far; Nic::stats() reads its share from here.
  [[nodiscard]] const HeardCounts& heard() const { return heard_; }
  /// Attach-ordered receiver list. May contain nullptr tombstones for
  /// recently detached NICs (compacted away once they dominate).
  [[nodiscard]] const std::vector<Nic*>& attached() const { return nics_; }

  /// Time to clock `bytes` onto the wire at this segment's bit rate.
  [[nodiscard]] Duration serialization_delay(std::size_t bytes) const;

  /// Carries one shared wire buffer from `sender` to every other attached
  /// NIC with ONE scheduled delivery event for the whole segment. All
  /// receivers reference the same WireFrame, so they share one decode and
  /// one FCS verification. Called by Nic's transmit path; tests may inject
  /// frames with a null sender (delivered to everyone).
  void broadcast(const ether::WireFrame& frame, const Nic* sender);

  /// Sentinel for "no receiver run": a prepared broadcast with no
  /// surviving receivers, or a burst frame whose NIC detached in flight.
  static constexpr std::uint32_t kNoPreparedRun = 0xFFFFFFFFu;

  /// The split form of broadcast() for the burst transmit path: carries
  /// the frame (stats, tap, loss draws and receiver snapshot exactly as
  /// broadcast(), in attach order) but schedules NOTHING -- the caller
  /// already holds a delivery slot in its burst's shared timed run and
  /// fires deliver_prepared() from it, so a k-frame burst's k deliveries
  /// cost one scheduler insert instead of k. Returns the run index to
  /// deliver (the frame is parked in the run), or kNoPreparedRun when no
  /// receiver survived (the delivery slot then no-ops).
  [[nodiscard]] std::uint32_t prepare_broadcast(const ether::WireFrame& frame,
                                                const Nic* sender);

  /// Delivers a run parked by prepare_broadcast() and recycles it. Must be
  /// called exactly once per prepared index, at transmit time +
  /// propagation -- the burst's delivery run provides both.
  void deliver_prepared(std::uint32_t index);

  void set_frame_tap(FrameTap tap) { tap_ = std::move(tap); }

  /// Scripted per-frame drop hook for the loss-schedule conformance
  /// suites: consulted once per transmitted frame (after the tap and the
  /// relay, before the receiver snapshot); returning true drops the frame
  /// for EVERY receiver, counted in frames_dropped_by_filter. The filter
  /// runs before any loss draw, so scripting drops never perturbs the
  /// seeded per-receiver loss sequence -- deterministic tests use it with
  /// LanConfig::loss == 0 to drop exactly the frames a scenario names.
  using DropFilter =
      std::function<bool(TimePoint, const Nic* sender, util::ByteView wire)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

  /// Second observer, reserved for the sharded runner: on a CUT segment the
  /// owning region's replica relays every transmitted frame (same wire
  /// bytes, same timestamp as the tap) into the cross-shard mailboxes.
  /// Kept separate from the frame tap so traces and storm detectors still
  /// compose with sharding.
  void set_relay(FrameTap relay) { relay_ = std::move(relay); }

  /// Remote-origin delivery for a cut segment's non-owning replicas: wraps
  /// the relayed wire bytes arriving from another shard's mailbox and
  /// carries them to every locally attached NIC at absolute time
  /// `deliver_at` (transmit time + propagation, computed producer-side).
  /// Counts NO frames_carried/bytes_carried -- the owning replica already
  /// counted the frame once -- but local loss draws still count
  /// frames_lost here. No sender exclusion: the sender's NIC lives in the
  /// producer's replica, never in this one. The conservative window
  /// guarantees deliver_at is still in this shard's future at drain time
  /// (asserted).
  void inject_remote(const ether::WireFrame& frame, TimePoint deliver_at);

  // Nic calls these: attach/detach, and every change to what its filter or
  // receiver accepts (promiscuous mode, group interest).
  void attach_nic(Nic& nic);
  void detach_nic(Nic& nic);
  void change_filter(Nic& nic, bool promiscuous, std::uint32_t group_interest);

 private:
  static constexpr std::uint32_t kNoRun = kNoPreparedRun;
  /// Receivers (attached NICs other than the sender) below which a frame
  /// takes the full walk. On the bridged TCP cells' ~6-NIC LANs the
  /// addressed path measured ~6% more simulation time than the walk; a
  /// station LAN has thousands of receivers.
  static constexpr std::size_t kMinAddressedReceivers = 16;

  /// Open-addressed multimap from a 64-bit key (a MAC, or a declared IPv4
  /// address) to the attached NICs that carry it; several NICs may share a
  /// key. A slot holds only the NIC pointer -- the key is read back from the
  /// NIC through `key_of` -- so a 125,000-station LAN's index costs 2 MiB.
  /// Linear probing with backward-shift erase, so a segment that sheds and
  /// regains stations never accumulates tombstones.
  class NicIndex {
   public:
    using KeyOf = std::uint64_t (*)(const Nic&);
    explicit NicIndex(KeyOf key_of) : key_of_(key_of) {}

    /// Files `nic` under key_of(nic), which must not change while filed.
    void insert(Nic* nic);
    void erase(const Nic* nic);
    /// Calls `fn(Nic*)` for every NIC filed under `key`.
    template <typename Fn>
    void for_each(std::uint64_t key, Fn&& fn) const {
      if (slots_.empty()) return;
      for (std::size_t i = home(key); slots_[i] != nullptr; i = next(i)) {
        if (key_of_(*slots_[i]) == key) fn(slots_[i]);
      }
    }

   private:
    [[nodiscard]] std::size_t home(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 20) &
             (slots_.size() - 1);
    }
    [[nodiscard]] std::size_t next(std::size_t i) const {
      return (i + 1) & (slots_.size() - 1);
    }
    void grow();

    KeyOf key_of_;
    std::vector<Nic*> slots_;  ///< power-of-two, nullptr = empty; none until an insert
    std::size_t size_ = 0;
  };

  /// A snapshotted receiver, its slot in nics_ and the segment's
  /// compaction count at snapshot time: while no compaction has run since,
  /// `nics_[slot] == nic` is the membership test (attach only appends, so
  /// a slot is never reused before one); after one, a scan.
  struct Receiver {
    Nic* nic = nullptr;
    std::uint32_t slot = 0;
    std::uint32_t compact_epoch = 0;
  };

  /// The receivers one in-flight frame will visit, snapshotted at transmit
  /// time. Runs are pooled (index-linked free list, receiver vectors keep
  /// their capacity) so steady-state fan-out allocates nothing. A run made
  /// by prepare_broadcast() also parks the frame itself (its delivery slot
  /// lives in a shared burst run with no room for a per-frame capture).
  struct ReceiverRun {
    std::vector<Receiver> receivers;
    ether::WireFrame frame;
    /// Segment's roster counter at snapshot time: while it still matches,
    /// nothing attached, detached or changed its filter since, so every
    /// receiver is trivially attached and an addressed run's choice of
    /// whom to visit still holds.
    std::uint64_t roster_epoch = 0;
    /// False for a full-walk run, which visits every receiver.
    bool addressed = false;
    // Addressed runs only:
    /// What the frame credits each attached NIC it does not visit: one
    /// filtered frame (unicast) or one accepted frame and its bytes.
    HeardCounts credit;
    /// Excluded from visits and credit. Compared, never dereferenced.
    const Nic* sender = nullptr;
    /// The sender when it was attached here at snapshot time (it then
    /// steps past the frame's bulk credit), else nullptr.
    Nic* attached_sender = nullptr;
    /// attach_stamp_ bound: the NICs attached at snapshot time have
    /// smaller stamps, so the full walk skips NICs attached in flight.
    std::uint64_t attach_limit = 0;
    /// True from acquire to release: guards against delivering or
    /// releasing a run index that is already back on the free list.
    bool live = false;
    std::uint32_t next_free = kNoRun;
  };

  /// An addressed delivery in progress. A roster change made by a visited
  /// NIC's handler hands the rest of the delivery to the full walk.
  struct ActiveWalk {
    std::uint32_t run = kNoRun;
    std::uint64_t at_stamp = 0;  ///< attach stamp of the NIC being visited
    bool handed_off = false;
    ActiveWalk* outer = nullptr;  ///< enclosing walk on this segment, if any
  };

  [[nodiscard]] std::uint32_t acquire_run();
  void release_run(std::uint32_t index);
  /// Shared snapshot for broadcast / prepare_broadcast / inject_remote:
  /// the addressed snapshot when the contract above allows one, otherwise
  /// every attached NIC but `sender` in attach order, with the loss draws.
  /// Returns the acquired run (kNoRun when nothing is to be delivered);
  /// with a non-null `sole_out` a full walk's single surviving receiver is
  /// deposited there instead of paying for a run.
  [[nodiscard]] std::uint32_t snapshot_run(const ether::WireFrame& frame,
                                           const Nic* sender, Receiver* sole_out);
  [[nodiscard]] std::uint32_t snapshot_all(const Nic* sender, Receiver* sole_out);
  /// Fills an addressed run, or returns kNoRun when the frame needs the
  /// full walk.
  [[nodiscard]] std::uint32_t snapshot_addressed(const ether::WireFrame& frame,
                                                 const Nic* sender);
  /// Appends the slot-ordered merge of `a` and `b` (no duplicates, no
  /// `sender`) to the run's receivers.
  void merge_visitors(std::uint32_t run, const std::vector<Nic*>& a,
                      const std::vector<Nic*>& b, const Nic* sender);
  /// Fires one delivery event for a run, then recycles it.
  void deliver_run(std::uint32_t index, const ether::WireFrame& frame);
  void deliver_addressed(std::uint32_t index, const ether::WireFrame& frame);
  /// The full walk of an addressed run: visits every NIC attached at
  /// snapshot time and still attached, other than the sender, whose attach
  /// stamp is above `after_stamp`.
  void walk_members(std::uint32_t index, const ether::WireFrame& frame,
                    std::uint64_t after_stamp);
  /// First slot holding a NIC with an attach stamp above `stamp`.
  [[nodiscard]] std::size_t first_slot_after(std::uint64_t stamp) const;
  void visit(Nic& nic, const ether::WireFrame& frame);
  /// Called before any roster change: every addressed walk in progress
  /// credits the NICs it already passed and leaves the rest to the full
  /// walk, which sees the change.
  void hand_off_walks();
  /// Adds one frame of `run`'s credit to the NIC's own counters.
  void credit_one(Nic& nic, const ReceiverRun& run);
  /// True while `r.nic` may still be delivered to (attached to this
  /// segment). Compares stored pointers only -- the NIC may be destroyed.
  [[nodiscard]] bool still_attached(Receiver r) const;
  /// Moves the NIC's share of heard_ into its own counters.
  void fold_heard(Nic& nic);
  void build_index();
  /// Attach order. The promiscuous and uninterested lists keep it, so
  /// merging them with a key's owners yields the visits in attach order.
  [[nodiscard]] static bool by_slot(const Nic* a, const Nic* b);
  [[nodiscard]] static std::uint64_t mac_key(const Nic& nic);
  [[nodiscard]] static std::uint64_t interest_key(const Nic& nic);
  void index_nic(Nic& nic);
  void unindex_nic(Nic& nic);
  /// Drops the nullptr tombstones, renumbering the survivors' back-indices.
  /// Attach order (and so loss-draw order) is preserved.
  void compact_nics();

  Scheduler* scheduler_;
  std::string name_;
  LanConfig config_;
  LanStats stats_;
  HeardCounts heard_;
  /// Attach-ordered; a detach leaves a nullptr tombstone (O(1) via the
  /// NIC's back-index) so a million-station teardown never pays a linear
  /// erase per NIC. Compacted when tombstones dominate.
  std::vector<Nic*> nics_;
  std::size_t dead_nics_ = 0;  ///< tombstones currently in nics_
  util::Rng rng_;
  FrameTap tap_;
  FrameTap relay_;  ///< cross-shard mailbox hook; see set_relay()
  DropFilter drop_filter_;  ///< scripted drops; see set_drop_filter()
  std::vector<ReceiverRun> runs_;
  std::uint32_t free_run_ = kNoRun;
  std::uint64_t roster_epoch_ = 0;   ///< bumped by every roster change
  std::uint32_t compact_epoch_ = 0;  ///< bumped by every compact_nics
  std::uint64_t attach_stamps_ = 0;  ///< last attach stamp handed out
  ActiveWalk* active_walk_ = nullptr;

  // The addressed-delivery index; empty until build_index().
  bool indexed_ = false;
  NicIndex by_mac_{&mac_key};            ///< MAC -> owning NICs
  NicIndex by_interest_{&interest_key};  ///< declared IPv4 -> interested NICs
  std::vector<Nic*> promiscuous_;   ///< attach order
  std::vector<Nic*> uninterested_;  ///< NICs with no group interest, attach order
  std::vector<Nic*> owners_scratch_;
};

}  // namespace ab::netsim
