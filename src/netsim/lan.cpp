#include "src/netsim/lan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/netsim/nic.h"

namespace ab::netsim {

void LanSegment::NicIndex::grow() {
  std::vector<Nic*> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, nullptr);
  for (Nic* nic : old) {
    if (nic == nullptr) continue;
    std::size_t i = home(key_of_(*nic));
    while (slots_[i] != nullptr) i = next(i);
    slots_[i] = nic;
  }
}

void LanSegment::NicIndex::insert(Nic* nic) {
  // Load stays at or below 4/5: a 25,000-station LAN fits 32,768 slots.
  if ((size_ + 1) * 5 > slots_.size() * 4) grow();
  std::size_t i = home(key_of_(*nic));
  while (slots_[i] != nullptr) i = next(i);
  slots_[i] = nic;
  size_ += 1;
}

void LanSegment::NicIndex::erase(const Nic* nic) {
  if (slots_.empty()) return;
  std::size_t hole = home(key_of_(*nic));
  while (slots_[hole] != nullptr && slots_[hole] != nic) hole = next(hole);
  if (slots_[hole] == nullptr) return;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, j] -- it would then become
  // unreachable from its home.
  for (std::size_t j = next(hole); slots_[j] != nullptr; j = next(j)) {
    const std::size_t h = home(key_of_(*slots_[j]));
    const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = nullptr;
  size_ -= 1;
}

LanSegment::LanSegment(Scheduler& scheduler, std::string name, LanConfig config)
    : scheduler_(&scheduler),
      name_(std::move(name)),
      config_(config),
      rng_(config.seed) {
  if (config_.bit_rate <= 0) throw std::invalid_argument("LanSegment: bit_rate <= 0");
}

Duration LanSegment::serialization_delay(std::size_t bytes) const {
  const double seconds = static_cast<double>(bytes) * 8.0 / config_.bit_rate;
  return Duration(static_cast<std::int64_t>(std::llround(seconds * 1e9)));
}

bool LanSegment::still_attached(Receiver r) const {
  if (r.compact_epoch == compact_epoch_) {
    return r.slot < nics_.size() && nics_[r.slot] == r.nic;
  }
  return std::find(nics_.begin(), nics_.end(), r.nic) != nics_.end();
}

std::uint32_t LanSegment::acquire_run() {
  std::uint32_t index = free_run_;
  if (index != kNoRun) {
    free_run_ = runs_[index].next_free;
  } else {
    runs_.emplace_back();
    index = static_cast<std::uint32_t>(runs_.size() - 1);
  }
  ReceiverRun& run = runs_[index];
  run.next_free = kNoRun;
  run.roster_epoch = roster_epoch_;
  run.addressed = false;
  run.sender = nullptr;
  run.attached_sender = nullptr;
  run.live = true;
  return index;
}

void LanSegment::release_run(std::uint32_t index) {
  assert(runs_[index].live && "double release of a receiver run");
  runs_[index].live = false;
  runs_[index].receivers.clear();  // keeps capacity for the next broadcast
  runs_[index].frame = ether::WireFrame();  // drop the parked wire buffer
  runs_[index].next_free = free_run_;
  free_run_ = index;
}

std::uint32_t LanSegment::snapshot_run(const ether::WireFrame& frame,
                                       const Nic* sender, Receiver* sole_out) {
  if (config_.loss == 0) {
    const std::uint32_t run = snapshot_addressed(frame, sender);
    if (run != kNoRun) return run;
  }
  return snapshot_all(sender, sole_out);
}

std::uint32_t LanSegment::snapshot_all(const Nic* sender, Receiver* sole_out) {
  // The full walk's snapshot: loss draws stay in attach order, so seeded
  // loss sequences match the old per-receiver-event core exactly. With
  // `sole_out`, a single surviving receiver is deposited there instead of
  // paying for a run (the point-to-point inter-bridge case); callers whose
  // delivery slot has no per-frame capture room pass nullptr and always
  // get a run.
  Receiver sole;
  std::uint32_t run = kNoRun;
  for (std::size_t slot = 0; slot < nics_.size(); ++slot) {
    Nic* nic = nics_[slot];
    if (nic == nullptr || nic == sender) continue;  // tombstone or sender
    if (config_.loss > 0 && rng_.chance(config_.loss)) {
      stats_.frames_lost += 1;
      continue;
    }
    const Receiver r{nic, static_cast<std::uint32_t>(slot), compact_epoch_};
    if (run == kNoRun) {
      if (sole_out != nullptr && sole.nic == nullptr) {
        sole = r;
        continue;
      }
      run = acquire_run();
      if (sole.nic != nullptr) {
        runs_[run].receivers.push_back(sole);
        sole = Receiver{};
      }
    }
    runs_[run].receivers.push_back(r);
  }
  if (sole_out != nullptr) *sole_out = sole;
  return run;
}

std::uint32_t LanSegment::snapshot_addressed(const ether::WireFrame& frame,
                                             const Nic* sender) {
  Nic* const attached_sender =
      sender != nullptr && sender->lan_index_ < nics_.size() &&
              nics_[sender->lan_index_] == sender
          ? nics_[sender->lan_index_]
          : nullptr;
  const std::size_t others =
      nics_.size() - dead_nics_ - (attached_sender != nullptr ? 1 : 0);
  // A frame that fails its FCS check is counted as rx_bad by everyone.
  if (others < kMinAddressedReceivers || !frame.ok()) return kNoRun;
  const ether::Frame& parsed = frame.frame();
  const bool unicast = !parsed.dst.is_group();
  GroupRoute route;
  if (!unicast) {
    route = route_group_frame(parsed);
    if (route.kind == GroupRoute::Kind::kEveryone) return kNoRun;
  }
  if (!indexed_) build_index();

  const std::uint32_t run = acquire_run();
  owners_scratch_.clear();
  const auto collect = [this](Nic* nic) { owners_scratch_.push_back(nic); };
  if (unicast) {
    by_mac_.for_each(parsed.dst.value(), collect);
  } else if (route.kind == GroupRoute::Kind::kArpTarget) {
    by_interest_.for_each(route.arp_target, collect);
  }
  std::sort(owners_scratch_.begin(), owners_scratch_.end(), by_slot);
  merge_visitors(run, owners_scratch_, unicast ? promiscuous_ : uninterested_, sender);

  ReceiverRun& r = runs_[run];
  r.addressed = true;
  r.credit = unicast ? HeardCounts{0, 0, 1} : HeardCounts{1, frame.wire_size(), 0};
  r.sender = sender;
  r.attached_sender = attached_sender;
  r.attach_limit = attach_stamps_ + 1;
  return run;
}

void LanSegment::merge_visitors(std::uint32_t run, const std::vector<Nic*>& a,
                                const std::vector<Nic*>& b, const Nic* sender) {
  std::vector<Receiver>& out = runs_[run].receivers;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    Nic* nic = nullptr;
    if (j == b.size() || (i < a.size() && a[i]->lan_index_ < b[j]->lan_index_)) {
      nic = a[i++];
    } else {
      nic = b[j++];
      if (i < a.size() && a[i] == nic) ++i;  // in both lists: visit once
    }
    if (nic == sender) continue;
    out.push_back(Receiver{nic, static_cast<std::uint32_t>(nic->lan_index_),
                           compact_epoch_});
  }
}

void LanSegment::broadcast(const ether::WireFrame& frame, const Nic* sender) {
  stats_.frames_carried += 1;
  stats_.bytes_carried += frame.wire_size();
  if (tap_) tap_(scheduler_->now(), sender, frame.wire());
  if (relay_) relay_(scheduler_->now(), sender, frame.wire());
  if (drop_filter_ && drop_filter_(scheduler_->now(), sender, frame.wire())) {
    stats_.frames_dropped_by_filter += 1;
    return;  // before any loss draw: the seeded sequence is untouched
  }

  // One scheduled event delivers the whole segment. Every receiver shares
  // the same WireFrame: one buffer, one (lazy) decode, one FCS check.
  Receiver sole;
  const std::uint32_t run = snapshot_run(frame, sender, &sole);

  if (sole.nic != nullptr) {
    // Single receiver (the point-to-point inter-bridge case): skip the run
    // machinery; this closure fits the 48-byte inline capture.
    scheduler_->schedule_after(config_.propagation, [this, sole, frame] {
      // The NIC may have detached while the frame was in flight.
      if (still_attached(sole)) visit(*sole.nic, frame);
    });
  } else if (run != kNoRun) {
    const std::uint32_t index = run;
    scheduler_->schedule_after(config_.propagation, [this, index, frame] {
      deliver_run(index, frame);
    });
  }
}

std::uint32_t LanSegment::prepare_broadcast(const ether::WireFrame& frame,
                                            const Nic* sender) {
  stats_.frames_carried += 1;
  stats_.bytes_carried += frame.wire_size();
  if (tap_) tap_(scheduler_->now(), sender, frame.wire());
  if (relay_) relay_(scheduler_->now(), sender, frame.wire());
  if (drop_filter_ && drop_filter_(scheduler_->now(), sender, frame.wire())) {
    stats_.frames_dropped_by_filter += 1;
    return kNoPreparedRun;  // the caller's delivery slot no-ops
  }

  // Same snapshot as broadcast() -- loss draws in attach order, so seeded
  // loss sequences are identical whichever transmit path carried the
  // frame -- but the delivery event belongs to the caller's burst run, so
  // nothing is scheduled here and the frame parks in the run itself (the
  // shared burst slot has no room for a per-frame capture). No
  // sole-receiver shortcut: the run IS the frame's storage.
  const std::uint32_t run = snapshot_run(frame, sender, nullptr);
  if (run != kNoRun) runs_[run].frame = frame;
  return run;
}

void LanSegment::inject_remote(const ether::WireFrame& frame, TimePoint deliver_at) {
  // The conservative window ends at least one lookahead short of any
  // cross-shard frame's delivery time, so a drained frame is always still
  // in this shard's future.
  assert(deliver_at >= scheduler_->now() &&
         "cross-shard frame arrived in this shard's past: window too wide");
  // No frames_carried/bytes_carried, no tap, no relay: the owning replica
  // counted, traced, and relayed this frame once at transmit time. Local
  // loss draws (this replica's own rng, its own attach order) still count
  // frames_lost here. No sender to exclude -- the transmitting NIC is
  // attached to the producer's replica, never to this one. Scripted drops
  // apply per replica, like the loss model.
  if (drop_filter_ && drop_filter_(scheduler_->now(), /*sender=*/nullptr,
                                   frame.wire())) {
    stats_.frames_dropped_by_filter += 1;
    return;
  }
  Receiver sole;
  const std::uint32_t run = snapshot_run(frame, /*sender=*/nullptr, &sole);

  if (sole.nic != nullptr) {
    scheduler_->schedule_at(deliver_at, [this, sole, frame] {
      if (still_attached(sole)) visit(*sole.nic, frame);
    });
  } else if (run != kNoRun) {
    const std::uint32_t index = run;
    scheduler_->schedule_at(deliver_at, [this, index, frame] {
      deliver_run(index, frame);
    });
  }
}

void LanSegment::deliver_prepared(std::uint32_t index) {
  assert(index < runs_.size() && runs_[index].live &&
         "deliver_prepared on a released or never-prepared run");
  // Move the frame out first: a receiver's handler can broadcast
  // synchronously and grow runs_, invalidating references into it.
  ether::WireFrame frame = std::move(runs_[index].frame);
  deliver_run(index, frame);
}

void LanSegment::visit(Nic& nic, const ether::WireFrame& frame) {
  stats_.visits += 1;
  nic.deliver(frame);
}

void LanSegment::deliver_run(std::uint32_t index, const ether::WireFrame& frame) {
  assert(runs_[index].live && "delivering a released receiver run");
  if (runs_[index].addressed) {
    deliver_addressed(index, frame);
    return;
  }
  // Indexed access throughout: a handler could conceivably inject another
  // broadcast synchronously and grow runs_ under us.
  for (std::size_t i = 0; i < runs_[index].receivers.size(); ++i) {
    const Receiver r = runs_[index].receivers[i];
    // A receiver detached since the snapshot -- including by an EARLIER
    // receiver's handler inside this very walk -- must not be touched (it
    // may even have been destroyed; still_attached compares pointers
    // without dereferencing). While the roster is unchanged since the
    // snapshot, membership is implied.
    if (runs_[index].roster_epoch != roster_epoch_) {
      if (!still_attached(r)) continue;
    } else {
      // Compaction only ever runs off a detach, which bumps the roster
      // epoch -- so an epoch match means the snapshot's slots are exactly
      // the live attach list.
      assert(r.compact_epoch == compact_epoch_ &&
             "nics_ compacted without a roster epoch bump: snapshot stale");
    }
    visit(*r.nic, frame);
  }
  release_run(index);
}

void LanSegment::deliver_addressed(std::uint32_t index, const ether::WireFrame& frame) {
  if (runs_[index].roster_epoch != roster_epoch_) {
    // The roster changed in flight: whom to visit may have changed too.
    walk_members(index, frame, /*after_stamp=*/0);
    release_run(index);
    return;
  }
  ActiveWalk walk;
  walk.run = index;
  walk.outer = active_walk_;
  active_walk_ = &walk;
  for (std::size_t i = 0; i < runs_[index].receivers.size() && !walk.handed_off; ++i) {
    Nic* nic = runs_[index].receivers[i].nic;
    walk.at_stamp = nic->attach_stamp_;
    visit(*nic, frame);
  }
  active_walk_ = walk.outer;

  if (walk.handed_off) {
    walk_members(index, frame, walk.at_stamp);
  } else {
    // Nothing changed: every attached NIC but the sender and the visited
    // heard this frame without acting on it. One bump credits them all;
    // the visited (who counted themselves) and the sender step past it.
    const ReceiverRun& run = runs_[index];
    heard_ += run.credit;
    for (const Receiver& r : run.receivers) r.nic->heard_base_ += run.credit;
    if (run.attached_sender != nullptr) run.attached_sender->heard_base_ += run.credit;
  }
  release_run(index);
}

std::size_t LanSegment::first_slot_after(std::uint64_t stamp) const {
  std::size_t slot = 0;
  while (slot < nics_.size() &&
         (nics_[slot] == nullptr || nics_[slot]->attach_stamp_ <= stamp)) {
    ++slot;
  }
  return slot;
}

void LanSegment::walk_members(std::uint32_t index, const ether::WireFrame& frame,
                              std::uint64_t after_stamp) {
  const Nic* const sender = runs_[index].sender;
  const std::uint64_t limit = runs_[index].attach_limit;
  std::uint32_t compact = compact_epoch_;
  std::size_t slot = first_slot_after(after_stamp);
  while (slot < nics_.size()) {
    Nic* nic = nics_[slot];
    if (nic == nullptr || nic == sender) {
      ++slot;
      continue;
    }
    // Stamps grow with the slot: everything from here on attached in flight.
    if (nic->attach_stamp_ >= limit) break;
    after_stamp = nic->attach_stamp_;
    visit(*nic, frame);
    if (compact != compact_epoch_) {
      // A handler's detach compacted the list: find our place again.
      compact = compact_epoch_;
      slot = first_slot_after(after_stamp);
    } else {
      ++slot;
    }
  }
}

void LanSegment::credit_one(Nic& nic, const ReceiverRun& run) {
  nic.stats_.rx_frames += run.credit.accepted;
  nic.stats_.rx_bytes += run.credit.accepted_bytes;
  nic.stats_.rx_filtered += run.credit.filtered;
}

void LanSegment::hand_off_walks() {
  for (ActiveWalk* walk = active_walk_; walk != nullptr; walk = walk->outer) {
    if (walk->handed_off) continue;
    walk->handed_off = true;
    // The roster is still as the snapshot saw it: credit the members the
    // walk already passed without visiting. The rest are the full walk's.
    const ReceiverRun& run = runs_[walk->run];
    std::size_t visited = 0;
    for (Nic* nic : nics_) {
      if (nic == nullptr) continue;
      if (nic->attach_stamp_ >= walk->at_stamp) break;
      if (visited < run.receivers.size() && run.receivers[visited].nic == nic) {
        ++visited;
      } else if (nic != run.sender) {
        credit_one(*nic, run);
      }
    }
  }
}

void LanSegment::fold_heard(Nic& nic) {
  nic.stats_.rx_frames += heard_.accepted - nic.heard_base_.accepted;
  nic.stats_.rx_bytes += heard_.accepted_bytes - nic.heard_base_.accepted_bytes;
  nic.stats_.rx_filtered += heard_.filtered - nic.heard_base_.filtered;
  nic.heard_base_ = heard_;
}

bool LanSegment::by_slot(const Nic* a, const Nic* b) {
  return a->lan_index_ < b->lan_index_;
}

std::uint64_t LanSegment::mac_key(const Nic& nic) { return nic.mac_.value(); }

std::uint64_t LanSegment::interest_key(const Nic& nic) { return nic.group_interest_; }

void LanSegment::index_nic(Nic& nic) {
  const auto add = [&nic](std::vector<Nic*>& list) {
    list.insert(std::upper_bound(list.begin(), list.end(), &nic, by_slot), &nic);
  };
  by_mac_.insert(&nic);
  if (nic.promiscuous_) add(promiscuous_);
  if (nic.group_interest_ != 0) {
    by_interest_.insert(&nic);
  } else {
    add(uninterested_);
  }
}

void LanSegment::unindex_nic(Nic& nic) {
  const auto remove = [&nic](std::vector<Nic*>& list) {
    const auto it = std::lower_bound(list.begin(), list.end(), &nic, by_slot);
    if (it != list.end() && *it == &nic) list.erase(it);
  };
  by_mac_.erase(&nic);
  if (nic.promiscuous_) remove(promiscuous_);
  if (nic.group_interest_ != 0) {
    by_interest_.erase(&nic);
  } else {
    remove(uninterested_);
  }
}

void LanSegment::build_index() {
  indexed_ = true;
  for (Nic* nic : nics_) {
    if (nic != nullptr) index_nic(*nic);
  }
}

void LanSegment::attach_nic(Nic& nic) {
  // Nic::attach detaches from any previous segment first, so `nic` cannot
  // already be in the list -- attaching a million stations is a million
  // push_backs, not a million membership scans.
  hand_off_walks();
  nic.lan_index_ = nics_.size();
  nic.attach_stamp_ = ++attach_stamps_;
  nic.heard_base_ = heard_;
  nics_.push_back(&nic);
  roster_epoch_ += 1;
  if (indexed_) index_nic(nic);
}

void LanSegment::detach_nic(Nic& nic) {
  // Tombstone via the NIC's back-index: O(1), and attach order (which the
  // loss-draw sequence is keyed to) is preserved for the survivors. An
  // ordered erase here would make a million-station teardown quadratic.
  const std::size_t i = nic.lan_index_;
  if (i >= nics_.size() || nics_[i] != &nic) return;
  hand_off_walks();
  fold_heard(nic);
  if (indexed_) unindex_nic(nic);
  nics_[i] = nullptr;
  dead_nics_ += 1;
  roster_epoch_ += 1;  // in-flight runs fall back to membership checks
  if (dead_nics_ * 2 > nics_.size()) compact_nics();
}

void LanSegment::change_filter(Nic& nic, bool promiscuous, std::uint32_t group_interest) {
  if (nic.promiscuous_ == promiscuous && nic.group_interest_ == group_interest) return;
  hand_off_walks();
  fold_heard(nic);
  if (indexed_) unindex_nic(nic);
  nic.promiscuous_ = promiscuous;
  nic.group_interest_ = group_interest;
  if (indexed_) index_nic(nic);
  roster_epoch_ += 1;  // in-flight addressed runs re-decide whom to visit
}

void LanSegment::compact_nics() {
  std::size_t w = 0;
  for (Nic* nic : nics_) {
    if (nic == nullptr) continue;
    nic->lan_index_ = w;
    nics_[w++] = nic;
  }
  nics_.resize(w);
  dead_nics_ = 0;
  compact_epoch_ += 1;  // in-flight snapshots must not trust their slots
}

}  // namespace ab::netsim
