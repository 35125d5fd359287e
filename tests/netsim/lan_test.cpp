#include "src/netsim/lan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/netsim/network.h"
#include "src/netsim/nic.h"
#include "src/netsim/trace.h"
#include "src/util/rng.h"

namespace ab::netsim {
namespace {

ether::Frame test_frame(ether::MacAddress dst, ether::MacAddress src,
                        std::size_t len = 64) {
  return ether::Frame::ethernet2(dst, src, ether::EtherType::kExperimental,
                                 util::ByteBuffer(len, 0x33));
}

TEST(LanSegment, SerializationDelayMatchesBitRate) {
  Network net;
  LanConfig cfg;
  cfg.bit_rate = 100e6;  // 100 Mb/s
  LanSegment& lan = net.add_segment("lan", cfg);
  // 1250 bytes = 10000 bits = 100 us at 100 Mb/s.
  EXPECT_EQ(lan.serialization_delay(1250), microseconds(100));
}

TEST(LanSegment, RejectsNonPositiveBitRate) {
  Network net;
  LanConfig cfg;
  cfg.bit_rate = 0;
  EXPECT_THROW(net.add_segment("bad", cfg), std::invalid_argument);
}

TEST(LanSegment, BroadcastReachesAllButSender) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  Nic& c = net.add_nic("c", lan);

  int b_got = 0, c_got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++b_got; });
  c.set_rx_handler([&](const ether::WireFrame&) { ++c_got; });

  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  net.scheduler().run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
  EXPECT_EQ(a.stats().rx_frames, 0u);  // sender does not hear itself
}

TEST(LanSegment, PropagationDelayIsApplied) {
  Network net;
  LanConfig cfg;
  cfg.propagation = microseconds(50);
  LanSegment& lan = net.add_segment("lan", cfg);
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);

  TimePoint delivered{};
  b.set_rx_handler([&](const ether::WireFrame&) { delivered = net.now(); });
  const ether::Frame f = test_frame(b.mac(), a.mac());
  const Duration ser = lan.serialization_delay(f.wire_size());
  a.transmit(f);
  net.scheduler().run();
  EXPECT_EQ(delivered.time_since_epoch(), (ser + cfg.propagation).count() * Duration(1));
}

TEST(LanSegment, LossModelDropsApproximatelyTheConfiguredFraction) {
  Network net;
  LanConfig cfg;
  cfg.loss = 0.5;
  cfg.seed = 42;
  LanSegment& lan = net.add_segment("lossy", cfg);
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);

  int got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++got; });
  const int kFrames = 1000;
  a.set_tx_queue_limit(kFrames + 1);
  for (int i = 0; i < kFrames; ++i) {
    a.transmit(test_frame(b.mac(), a.mac()));
  }
  net.scheduler().run();
  EXPECT_GT(got, 350);
  EXPECT_LT(got, 650);
  EXPECT_EQ(lan.stats().frames_lost, static_cast<std::uint64_t>(kFrames - got));
}

TEST(LanSegment, StatsCountCarriedFrames) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  net.add_nic("b", lan);
  for (int i = 0; i < 5; ++i) a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  net.scheduler().run();
  EXPECT_EQ(lan.stats().frames_carried, 5u);
  EXPECT_GT(lan.stats().bytes_carried, 0u);
}

TEST(LanSegment, DetachedNicMissesInFlightFrames) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  int got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++got; });
  a.transmit(test_frame(b.mac(), a.mac()));
  b.detach();  // detach before delivery event fires
  net.scheduler().run();
  EXPECT_EQ(got, 0);
}

TEST(LanSegment, NicDetachedFromTheDeliverySnapshotIsSkipped) {
  // Multi-receiver variant: the broadcast's delivery walk snapshots b and
  // c at transmit time; c detaches before the event fires and must be
  // skipped while b still receives.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  Nic& c = net.add_nic("c", lan);
  int b_got = 0, c_got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++b_got; });
  c.set_rx_handler([&](const ether::WireFrame&) { ++c_got; });
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  c.detach();
  net.scheduler().run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
}

TEST(LanSegment, ReceiverDetachedMidWalkByAnEarlierHandlerIsNotTouched) {
  // Regression for per-segment delivery: one event walks all receivers, so
  // a handler running for receiver b can detach receiver c INSIDE the same
  // walk -- c must then be skipped, not delivered to.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  Nic& c = net.add_nic("c", lan);
  int b_got = 0, c_got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) {
    ++b_got;
    c.detach();
  });
  c.set_rx_handler([&](const ether::WireFrame&) { ++c_got; });
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  net.scheduler().run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
  EXPECT_EQ(c.segment(), nullptr);
}

TEST(LanSegment, NicDestroyedWhileFramesAreInFlightIsNeverTouched) {
  // Destruction (not just detach) between transmit and delivery: the walk
  // must not dereference the dead NIC. Covers both the single-receiver
  // fast path (one live receiver left) and the multi-receiver run.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  int b_got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++b_got; });
  auto doomed = std::make_unique<Nic>(net.scheduler(), "doomed",
                                      ether::MacAddress{{2, 0, 0, 0, 0, 0x99}});
  doomed->attach(lan);
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  doomed.reset();  // destructor detaches; the snapshot still names it
  net.scheduler().run();
  EXPECT_EQ(b_got, 1);
}

TEST(LanSegment, BroadcastSchedulesOneDeliveryEventPerSegment) {
  // The batched-delivery contract: a broadcast costs one transmit event
  // plus ONE delivery event for the whole segment, independent of the
  // receiver population.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  constexpr int kReceivers = 50;
  int got = 0;
  for (int i = 0; i < kReceivers; ++i) {
    Nic& rx = net.add_nic("rx" + std::to_string(i), lan);
    rx.set_rx_handler([&](const ether::WireFrame&) { ++got; });
  }
  const std::uint64_t before = net.scheduler().executed();
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  net.scheduler().run();
  EXPECT_EQ(got, kReceivers);
  // One serialization-done event at the NIC + one delivery walk.
  EXPECT_EQ(net.scheduler().executed() - before, 2u);
}

TEST(LanSegment, InjectRemoteDeliversAtGivenTimeWithoutCountingCarried) {
  // Cross-shard injection: the producing replica counted/taped/relayed the
  // frame at transmit time, so this replica only delivers -- at exactly the
  // producer-computed time, to every attached NIC (no sender to exclude).
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  int a_got = 0, b_got = 0;
  TimePoint at_a{};
  a.set_rx_handler([&](const ether::WireFrame&) { ++a_got; at_a = net.now(); });
  b.set_rx_handler([&](const ether::WireFrame&) { ++b_got; });

  bool relayed = false;
  lan.set_relay([&](TimePoint, const Nic*, util::ByteView) { relayed = true; });

  const ether::WireFrame frame(test_frame(ether::MacAddress::broadcast(),
                                          ether::MacAddress::local(9, 9)));
  lan.inject_remote(frame, TimePoint(microseconds(40)));
  net.scheduler().run();

  EXPECT_EQ(a_got, 1);
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(at_a, TimePoint(microseconds(40)));
  EXPECT_EQ(lan.stats().frames_carried, 0u);
  EXPECT_EQ(lan.stats().bytes_carried, 0u);
  // A re-relay here would echo the frame back across the cut forever.
  EXPECT_FALSE(relayed);
}

TEST(LanSegment, InjectRemoteDrawsThisReplicasOwnLoss) {
  // Local loss draws still apply to remote frames: this replica's rng,
  // this replica's attach order -- and losses count here, because the
  // producer could not know which consumer-side receivers drop.
  Network net;
  LanConfig cfg;
  cfg.loss = 1.0;
  LanSegment& lan = net.add_segment("lossy-replica", cfg);
  Nic& rx = net.add_nic("rx", lan);
  int got = 0;
  rx.set_rx_handler([&](const ether::WireFrame&) { ++got; });

  const ether::WireFrame frame(test_frame(ether::MacAddress::broadcast(),
                                          ether::MacAddress::local(9, 9)));
  lan.inject_remote(frame, TimePoint(microseconds(10)));
  net.scheduler().run();

  EXPECT_EQ(got, 0);
  EXPECT_EQ(lan.stats().frames_lost, 1u);
  EXPECT_EQ(lan.stats().frames_carried, 0u);
}

TEST(LanSegment, InjectRemoteSurvivesDetachDrivenCompactionMidFlight) {
  // Shard-teardown regression: a frame drained from a neighbor's mailbox is
  // in flight (snapshot taken) when enough NICs detach -- and are DESTROYED
  // -- to trigger tombstone compaction, which reshuffles nics_ under the
  // snapshot's slot indices. The walk must fall back to membership checks
  // (detach epoch changed) and deliver only to survivors, never touching a
  // compacted-away slot or a dead NIC.
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& survivor = net.add_nic("survivor", lan);
  int got = 0;
  survivor.set_rx_handler([&](const ether::WireFrame&) { ++got; });

  std::vector<std::unique_ptr<Nic>> doomed;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(std::make_unique<Nic>(
        net.scheduler(), "doomed" + std::to_string(i),
        ether::MacAddress{{2, 0, 0, 0, 0, static_cast<std::uint8_t>(0x50 + i)}}));
    doomed.back()->attach(lan);
  }

  const ether::WireFrame frame(test_frame(ether::MacAddress::broadcast(),
                                          ether::MacAddress::local(9, 9)));
  lan.inject_remote(frame, TimePoint(microseconds(25)));
  // 3 of 4 slots tombstone: the third detach tips dead*2 > size and
  // compacts, bumping both epochs while the run is still scheduled.
  doomed.clear();
  net.scheduler().run();

  EXPECT_EQ(got, 1);
}

TEST(LanSegment, InjectRemoteSoleReceiverDetachMidFlightIsSafe) {
  // Single-receiver fast path of inject_remote: the one receiver detaches
  // before the delivery event fires; nothing must be delivered or touched.
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& rx = net.add_nic("rx", lan);
  int got = 0;
  rx.set_rx_handler([&](const ether::WireFrame&) { ++got; });

  const ether::WireFrame frame(test_frame(ether::MacAddress::broadcast(),
                                          ether::MacAddress::local(9, 9)));
  lan.inject_remote(frame, TimePoint(microseconds(15)));
  rx.detach();
  net.scheduler().run();

  EXPECT_EQ(got, 0);
}

// ---- addressed delivery: every NicStats counter against a brute-force model

// Today's full-walk rule, recomputed independently of the segment: at
// transmit time (the frame tap) a frame is heard by every NIC attached
// other than its sender, in attach order, minus the twin loss draws; at
// delivery time every one of those still attached applies Nic::deliver's
// filter. Changes to the roster must not share a timestamp with a
// delivery (the model's event and the segment's fire back to back).
class BruteForceModel {
 public:
  BruteForceModel(Network& net, LanSegment& lan)
      : net_(net), lan_(lan), rng_(lan.config().seed) {
    lan.set_frame_tap([this](TimePoint, const Nic* sender, util::ByteView wire) {
      on_carried(sender, wire);
    });
  }

  /// Expected rx counters; tx counters are copied from `nic`.
  [[nodiscard]] NicStats expected(const Nic& nic) const {
    NicStats s = nic.stats();
    const auto it = counts_.find(&nic);
    const NicStats rx = it == counts_.end() ? NicStats{} : it->second;
    s.rx_frames = rx.rx_frames;
    s.rx_bytes = rx.rx_bytes;
    s.rx_filtered = rx.rx_filtered;
    s.rx_bad = rx.rx_bad;
    return s;
  }

  /// Drops a destroyed NIC (its address may be reused).
  void forget(const Nic* nic) { counts_.erase(nic); }

 private:
  void on_carried(const Nic* sender, util::ByteView wire) {
    auto heard = std::make_shared<std::vector<const Nic*>>();
    for (const Nic* nic : lan_.attached()) {
      if (nic == nullptr || nic == sender) continue;
      if (lan_.config().loss > 0 && rng_.chance(lan_.config().loss)) continue;
      heard->push_back(nic);
    }
    const ether::WireFrame frame =
        ether::WireFrame::from_wire(util::ByteBuffer(wire.begin(), wire.end()));
    net_.scheduler().schedule_after(lan_.config().propagation, [this, heard, frame] {
      for (const Nic* nic : *heard) {
        const auto& now = lan_.attached();
        if (std::find(now.begin(), now.end(), nic) == now.end()) continue;
        NicStats& s = counts_[nic];
        if (!frame.ok()) {
          s.rx_bad += 1;
        } else if (nic->promiscuous() || frame.frame().dst == nic->mac() ||
                   frame.frame().dst.is_group()) {
          s.rx_frames += 1;
          s.rx_bytes += frame.wire_size();
        } else {
          s.rx_filtered += 1;
        }
      }
    });
  }

  Network& net_;
  LanSegment& lan_;
  util::Rng rng_;
  std::map<const Nic*, NicStats> counts_;
};

util::ByteBuffer arp_payload(std::uint32_t target_ip, std::uint16_t op = 1) {
  util::ByteBuffer p = {0x00, 0x01, 0x08, 0x00, 6, 4, 0x00, static_cast<std::uint8_t>(op)};
  for (int i = 0; i < 6; ++i) p.push_back(static_cast<std::uint8_t>(0x10 + i));
  for (const std::uint8_t b : {10, 0, 0, 77}) p.push_back(b);
  for (int i = 0; i < 6; ++i) p.push_back(0);
  for (int shift = 24; shift >= 0; shift -= 8) {
    p.push_back(static_cast<std::uint8_t>(target_ip >> shift));
  }
  return p;
}

constexpr std::uint32_t kHost0Ip = 0x0A000001;  // 10.0.0.1
constexpr std::uint32_t kHost1Ip = 0x0A000002;  // 10.0.0.2

/// One segment carrying raw, promiscuous, host-interest and twin-MAC NICs,
/// plus enough idle hosts to stay above the segment's small-LAN walk
/// threshold, checked against the model. NICs are owned here (declared
/// after the Network, so destroyed before its segments).
struct AddressedRig {
  Network net;
  LanSegment* lan;
  std::unique_ptr<BruteForceModel> model;
  std::vector<std::unique_ptr<Nic>> owned;
  std::map<const Nic*, int> handled;  ///< rx handler calls per NIC
  Nic* raw0;
  Nic* promisc;
  Nic* host0;
  Nic* twin0;
  Nic* raw1;
  Nic* host1;
  Nic* twin1;

  static constexpr ether::MacAddress kTwinMac{{0x02, 0, 0, 0, 0x7e, 0x7e}};

  explicit AddressedRig(LanConfig config = {}) {
    lan = &net.add_segment("lan", config);
    model = std::make_unique<BruteForceModel>(net, *lan);
    raw0 = &add("raw0");
    promisc = &add("promisc");
    promisc->set_promiscuous(true);
    host0 = &add("host0", std::nullopt, kHost0Ip);
    twin0 = &add("twin0", kTwinMac);
    raw1 = &add("raw1");
    host1 = &add("host1", std::nullopt, kHost1Ip);
    twin1 = &add("twin1", kTwinMac);
    for (std::uint32_t i = 0; i < 16; ++i) {
      add("idle" + std::to_string(i), std::nullopt, 0x0A000100 + i);
    }
  }

  Nic& add(const std::string& name, std::optional<ether::MacAddress> mac = std::nullopt,
           std::uint32_t interest = 0) {
    const auto ordinal = static_cast<std::uint16_t>(owned.size() + 1);
    owned.push_back(std::make_unique<Nic>(net.scheduler(), name,
                                          mac.value_or(ether::MacAddress::local(7, ordinal))));
    Nic& nic = *owned.back();
    nic.attach(*lan);
    nic.set_rx_handler([this, &nic](const ether::WireFrame&) { handled[&nic] += 1; });
    if (interest != 0) nic.set_group_interest(interest);
    return nic;
  }

  void destroy(Nic* nic) {
    model->forget(nic);
    handled.erase(nic);
    std::erase_if(owned, [nic](const std::unique_ptr<Nic>& p) { return p.get() == nic; });
  }

  /// Every kind of frame the addressed path distinguishes.
  std::vector<ether::Frame> mix(const Nic& from) const {
    const ether::MacAddress bcast = ether::MacAddress::broadcast();
    const ether::MacAddress stp_group{{0x01, 0x80, 0xC2, 0, 0, 0}};
    std::vector<ether::Frame> frames;
    for (const auto& nic : owned) frames.push_back(test_frame(nic->mac(), from.mac()));
    frames.push_back(test_frame(ether::MacAddress::local(99, 99), from.mac()));
    for (const std::uint32_t ip : {kHost0Ip, kHost1Ip, 0x0A0000FFu}) {
      frames.push_back(ether::Frame::ethernet2(bcast, from.mac(), ether::EtherType::kArp,
                                               arp_payload(ip)));
    }
    frames.push_back(ether::Frame::ethernet2(host0->mac(), from.mac(),
                                             ether::EtherType::kArp,
                                             arp_payload(kHost0Ip, 2)));
    frames.push_back(ether::Frame::ethernet2(bcast, from.mac(), ether::EtherType::kArp,
                                             util::ByteBuffer(20, 0x01)));  // malformed
    frames.push_back(ether::Frame::ethernet2(bcast, from.mac(), ether::EtherType::kIpv4,
                                             util::ByteBuffer(40, 0x45)));
    frames.push_back(test_frame(bcast, from.mac()));
    frames.push_back(ether::Frame::llc_frame(stp_group, from.mac(),
                                             ether::LlcHeader::spanning_tree(),
                                             util::ByteBuffer(35, 0)));
    return frames;
  }

  /// The mix from `from` as one transmit burst, starting now.
  void send_mix(Nic& from) {
    for (ether::Frame& f : mix(from)) from.transmit(std::move(f));
  }

  /// A frame with a corrupted FCS, carried from no NIC.
  void inject_bad_fcs() {
    util::ByteBuffer wire = test_frame(ether::MacAddress::broadcast(), raw0->mac()).encode();
    wire.back() ^= 0xFF;
    lan->broadcast(ether::WireFrame::from_wire(std::move(wire)), nullptr);
  }

  /// Traffic from three NICs plus injected frames, with `changes` run at
  /// the given times. Wire times are multiples of 80 ns and propagation is
  /// 5 us, so the odd change times never coincide with a delivery, and
  /// after 5.12 us some frame is always in flight.
  void run(std::vector<std::pair<Duration, std::function<void()>>> changes = {}) {
    for (auto& [at, change] : changes) {
      net.scheduler().schedule_after(at, std::move(change));
    }
    send_mix(*raw0);
    send_mix(*host0);
    send_mix(*promisc);
    net.scheduler().schedule_after(nanoseconds(7'500), [this] {
      for (ether::Frame& f : mix(*raw1)) lan->broadcast(ether::WireFrame(std::move(f)), nullptr);
      inject_bad_fcs();
    });
    net.scheduler().run();
  }

  void expect_exact() const {
    for (const auto& nic : owned) {
      const NicStats want = model->expected(*nic);
      const NicStats got = nic->stats();
      EXPECT_EQ(got.rx_frames, want.rx_frames) << nic->name();
      EXPECT_EQ(got.rx_bytes, want.rx_bytes) << nic->name();
      EXPECT_EQ(got.rx_filtered, want.rx_filtered) << nic->name();
      EXPECT_EQ(got.rx_bad, want.rx_bad) << nic->name();
    }
  }

  [[nodiscard]] std::uint64_t heard_total() const {
    std::uint64_t total = 0;
    for (const auto& nic : owned) {
      const NicStats s = nic->stats();
      total += s.rx_frames + s.rx_filtered + s.rx_bad;
    }
    return total;
  }
};

TEST(AddressedDelivery, CountersMatchTheBruteForceModel) {
  AddressedRig rig;
  rig.run();
  rig.expect_exact();
  // The saving is real: fewer deliver() calls than frames heard.
  EXPECT_LT(rig.lan->stats().visits, rig.heard_total());
  // Raw and promiscuous receivers see every frame their filter passes;
  // host-interest receivers only what their stack acts on.
  EXPECT_EQ(static_cast<std::uint64_t>(rig.handled[rig.raw0]), rig.raw0->stats().rx_frames);
  EXPECT_EQ(static_cast<std::uint64_t>(rig.handled[rig.promisc]),
            rig.promisc->stats().rx_frames);
  EXPECT_LT(static_cast<std::uint64_t>(rig.handled[rig.host1]), rig.host1->stats().rx_frames);
}

TEST(AddressedDelivery, TwinMacsBothReceiveTheirUnicasts) {
  AddressedRig rig;
  rig.raw0->transmit(test_frame(AddressedRig::kTwinMac, rig.raw0->mac()));
  rig.net.scheduler().run();
  EXPECT_EQ(rig.handled[rig.twin0], 1);
  EXPECT_EQ(rig.handled[rig.twin1], 1);
  EXPECT_EQ(rig.handled[rig.raw1], 0);
  EXPECT_EQ(rig.raw1->stats().rx_filtered, 1u);
  rig.expect_exact();
}

TEST(AddressedDelivery, ExactWhenANicAttachesInFlight) {
  AddressedRig rig;
  rig.run({{nanoseconds(8'333), [&] { rig.add("late-raw"); }},
           {nanoseconds(31'777), [&] { rig.add("late-host", std::nullopt, 0x0A000009); }}});
  rig.expect_exact();
}

TEST(AddressedDelivery, ExactWhenANicDetachesInFlight) {
  AddressedRig rig;
  rig.run({{nanoseconds(8'333), [&] { rig.raw1->detach(); }},
           {nanoseconds(23'333), [&] { rig.host1->detach(); }},
           {nanoseconds(41'777), [&] { rig.raw1->attach(*rig.lan); }}});
  rig.expect_exact();
}

TEST(AddressedDelivery, ExactWhenANicIsDestroyedInFlight) {
  AddressedRig rig;
  rig.run({{nanoseconds(8'333), [&] { rig.destroy(rig.twin1); }},
           {nanoseconds(23'333), [&] { rig.destroy(rig.host1); }}});
  rig.expect_exact();
}

TEST(AddressedDelivery, ExactWhenPromiscuousModeTogglesInFlight) {
  AddressedRig rig;
  rig.run({{nanoseconds(8'333), [&] { rig.promisc->set_promiscuous(false); }},
           {nanoseconds(11'777), [&] { rig.raw1->set_promiscuous(true); }},
           {nanoseconds(23'333), [&] { rig.host1->set_promiscuous(true); }},
           {nanoseconds(37'333), [&] { rig.promisc->set_promiscuous(true); }}});
  rig.expect_exact();
}

TEST(AddressedDelivery, ExactWhenSetRxHandlerReplacesAHostsHandler) {
  AddressedRig rig;
  int replaced = 0;
  rig.run({{nanoseconds(13'333), [&] {
              rig.host1->set_rx_handler([&](const ether::WireFrame&) { ++replaced; });
            }}});
  rig.expect_exact();
  EXPECT_EQ(rig.host1->group_interest(), 0u);
  EXPECT_GT(replaced, 0);
}

TEST(AddressedDelivery, ExactForBadFcsFrames) {
  AddressedRig rig;
  for (int i = 0; i < 3; ++i) rig.inject_bad_fcs();
  rig.net.scheduler().run();
  rig.expect_exact();
  EXPECT_EQ(rig.raw1->stats().rx_bad, 3u);
  EXPECT_EQ(rig.host1->stats().rx_bad, 3u);
}

TEST(AddressedDelivery, ExactOnALossySegment) {
  LanConfig config;
  config.loss = 0.3;
  config.seed = 9;
  AddressedRig rig(config);
  rig.run({{nanoseconds(11'777), [&] { rig.raw1->detach(); }}});
  rig.expect_exact();
  EXPECT_GT(rig.lan->stats().frames_lost, 0u);
}

TEST(AddressedDelivery, HandlerChangesMidWalkHandTheRestToTheFullWalk) {
  // A unicast to `first` visits only `first` (and no promiscuous NIC).
  // Its handler reshapes the roster mid-delivery; the old full walk then
  // judged the NICs after it in their new state and had already counted
  // the ones before it: `before` and the idle hosts filtered, `doomed`
  // never reached, `turned` accepted (now promiscuous), `late` not part
  // of the frame. The idle hosts keep the segment above the small-LAN
  // walk threshold.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& sender = net.add_nic("sender", lan);
  std::vector<Nic*> idle;
  for (std::uint32_t i = 0; i < 16; ++i) {
    idle.push_back(&net.add_nic("idle" + std::to_string(i), lan));
    idle.back()->set_group_interest(0x0A000100 + i);
  }
  Nic& before = net.add_nic("before", lan);
  Nic& first = net.add_nic("first", lan);
  Nic& doomed = net.add_nic("doomed", lan);
  Nic& host = net.add_nic("host", lan);
  host.set_group_interest(kHost0Ip);
  Nic& turned = net.add_nic("turned", lan);
  Nic* late = nullptr;
  int turned_got = 0;
  turned.set_rx_handler([&](const ether::WireFrame&) { ++turned_got; });
  first.set_rx_handler([&](const ether::WireFrame&) {
    if (late != nullptr) return;
    doomed.detach();
    turned.set_promiscuous(true);
    late = &net.add_nic("late", lan);
  });
  sender.transmit(test_frame(first.mac(), sender.mac()));
  net.scheduler().run();

  EXPECT_EQ(before.stats().rx_filtered, 1u);
  for (const Nic* nic : idle) EXPECT_EQ(nic->stats().rx_filtered, 1u) << nic->name();
  EXPECT_EQ(first.stats().rx_frames, 1u);
  EXPECT_EQ(doomed.stats().rx_filtered, 0u);
  EXPECT_EQ(host.stats().rx_filtered, 1u);
  EXPECT_EQ(turned.stats().rx_frames, 1u);
  EXPECT_EQ(turned_got, 1);
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->stats().rx_frames + late->stats().rx_filtered, 0u);
  EXPECT_EQ(sender.stats().rx_frames + sender.stats().rx_filtered, 0u);

  // A second unicast after the dust settles is addressed again.
  const std::uint64_t visits = lan.stats().visits;
  sender.transmit(test_frame(first.mac(), sender.mac()));
  net.scheduler().run();
  EXPECT_EQ(lan.stats().visits - visits, 2u);  // first + the now-promiscuous turned
  EXPECT_EQ(before.stats().rx_filtered, 2u);
  for (const Nic* nic : idle) EXPECT_EQ(nic->stats().rx_filtered, 2u) << nic->name();
  EXPECT_EQ(late->stats().rx_filtered, 1u);
}

TEST(AddressedDelivery, SmallSegmentsVisitEveryReceiver) {
  // Below the threshold the walk is cheaper than addressing: every
  // receiver is visited, and the counters are the same either way.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& sender = net.add_nic("sender", lan);
  std::vector<Nic*> rx;
  for (int i = 0; i < 5; ++i) rx.push_back(&net.add_nic("rx" + std::to_string(i), lan));
  sender.transmit(test_frame(rx[0]->mac(), sender.mac()));
  net.scheduler().run();
  EXPECT_EQ(lan.stats().visits, 5u);
  EXPECT_EQ(rx[0]->stats().rx_frames, 1u);
  for (int i = 1; i < 5; ++i) EXPECT_EQ(rx[i]->stats().rx_filtered, 1u);
}

TEST(AddressedDelivery, SnapshotWalkSkipsOnlyTheNicDetachedInFlight) {
  // After a detach in flight, each snapshotted receiver's membership is
  // checked by its slot: exactly the detached one is skipped.
  Network net;
  LanConfig config;
  config.loss = 1e-12;  // forces the snapshot walk over every receiver
  LanSegment& lan = net.add_segment("lan", config);
  Nic& a = net.add_nic("a", lan);
  constexpr int kReceivers = 2000;
  int got = 0;
  std::vector<Nic*> rx;
  for (int i = 0; i < kReceivers; ++i) {
    rx.push_back(&net.add_nic("rx" + std::to_string(i), lan));
    rx.back()->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  }
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  net.scheduler().schedule_after(nanoseconds(8'333), [&] { rx[5]->detach(); });
  net.scheduler().run();
  EXPECT_EQ(got, kReceivers - 1);
  EXPECT_EQ(lan.stats().visits, static_cast<std::uint64_t>(kReceivers - 1));
}

TEST(FrameTrace, RecordsCarriedFrames) {
  Network net;
  LanSegment& lan = net.add_segment("lan1");
  FrameTrace trace;
  trace.watch(lan);
  Nic& a = net.add_nic("a", lan);
  net.add_nic("b", lan);
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac(), 100));
  net.scheduler().run();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.entries()[0].segment, "lan1");
  EXPECT_TRUE(trace.entries()[0].decoded_ok);
  EXPECT_EQ(trace.entries()[0].src, a.mac());
  EXPECT_EQ(trace.count_on("lan1"), 1u);
  EXPECT_EQ(trace.count_on("other"), 0u);
  EXPECT_NE(trace.dump().find("lan1"), std::string::npos);
}

TEST(Network, FindSegmentAndDuplicateNames) {
  Network net;
  net.add_segment("x");
  EXPECT_NE(net.find_segment("x"), nullptr);
  EXPECT_EQ(net.find_segment("y"), nullptr);
  EXPECT_THROW(net.add_segment("x"), std::invalid_argument);
}

TEST(Network, AutoAssignedMacsAreUnique) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  Nic& c = net.add_nic("c", lan);
  EXPECT_NE(a.mac(), b.mac());
  EXPECT_NE(b.mac(), c.mac());
  EXPECT_NE(a.mac(), c.mac());
}

}  // namespace
}  // namespace ab::netsim
