// The group-interest contract between HostStack and the LAN segment: a
// host that declared an interest (its constructor does) is skipped for a
// group frame unless netsim::route_group_frame says its stack acts on it.
// Here every frame is delivered straight to the host's NIC anyway, and a
// frame the rule lets the segment skip must leave no trace: host stats,
// ARP cache and transmissions all unchanged.
#include <gtest/gtest.h>

#include <optional>

#include "src/netsim/network.h"
#include "src/netsim/nic.h"
#include "src/stack/arp.h"
#include "src/stack/host_stack.h"
#include "src/stack/ipv4.h"
#include "src/util/rng.h"

namespace ab::stack {
namespace {

constexpr Ipv4Addr kHostIp(10, 0, 0, 1);

Ipv4Addr random_ip(util::Rng& rng) {
  if (rng.chance(0.4)) return kHostIp;
  return Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(rng.uniform(2, 254)));
}

util::ByteBuffer random_bytes(util::Rng& rng, std::size_t n) {
  util::ByteBuffer b(n);
  for (std::uint8_t& byte : b) byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
  return b;
}

/// A random ARP, IPv4, LLC or other-ethertype group frame, often with a
/// few flipped bits or a truncated payload.
ether::Frame random_group_frame(util::Rng& rng) {
  static constexpr ether::MacAddress kGroups[] = {
      ether::MacAddress::broadcast(),
      ether::MacAddress{{0x01, 0x80, 0xC2, 0, 0, 0}},
      ether::MacAddress{{0x01, 0x00, 0x5E, 0, 0, 0x01}},
  };
  const ether::MacAddress dst = kGroups[rng.index(3)];
  const ether::MacAddress src = ether::MacAddress::local(3, 3);
  std::uint16_t type = 0;
  util::ByteBuffer payload;
  switch (rng.index(4)) {
    case 0: {
      ArpPacket arp = ArpPacket::request(src, random_ip(rng), random_ip(rng));
      if (rng.chance(0.5)) arp = arp.make_reply(ether::MacAddress::local(4, 4));
      type = static_cast<std::uint16_t>(ether::EtherType::kArp);
      payload = arp.encode();
      break;
    }
    case 1: {
      Ipv4Header h;
      h.protocol = rng.chance(0.5) ? 17 : 1;
      h.src = random_ip(rng);
      h.dst = rng.chance(0.5) ? Ipv4Addr(255, 255, 255, 255) : random_ip(rng);
      type = static_cast<std::uint16_t>(ether::EtherType::kIpv4);
      payload = h.encode(random_bytes(rng, rng.index(40)));
      break;
    }
    case 2:
      return ether::Frame::llc_frame(dst, src, ether::LlcHeader::spanning_tree(),
                                     random_bytes(rng, 35));
    default:
      do {
        type = static_cast<std::uint16_t>(rng.uniform(0x0600, 0xFFFF));
      } while (type == static_cast<std::uint16_t>(ether::EtherType::kArp) ||
               type == static_cast<std::uint16_t>(ether::EtherType::kIpv4));
      payload = random_bytes(rng, 46);
      break;
  }
  if (rng.chance(0.3)) {
    for (int flips = 1 + static_cast<int>(rng.index(3)); flips > 0; --flips) {
      payload[rng.index(payload.size())] ^= static_cast<std::uint8_t>(1u << rng.index(8));
    }
  }
  if (rng.chance(0.2)) payload.resize(rng.index(payload.size() + 1));
  return ether::Frame::ethernet2(dst, src, type, std::move(payload));
}

TEST(HostInterest, ConstructorDeclaresTheHostsAddress) {
  netsim::Network net;
  netsim::LanSegment& lan = net.add_segment("lan");
  netsim::Nic& nic = net.add_nic("host", lan);
  HostConfig cfg;
  cfg.ip = kHostIp;
  HostStack host(net.scheduler(), nic, cfg);
  EXPECT_EQ(nic.group_interest(), kHostIp.value());
  nic.set_rx_handler(nullptr);
  EXPECT_EQ(nic.group_interest(), 0u);
}

TEST(HostInterest, SkippedGroupFramesLeaveTheHostUntouched) {
  netsim::Network net;
  netsim::LanSegment& lan = net.add_segment("lan");
  netsim::Nic& nic = net.add_nic("host", lan);
  net.add_nic("peer", lan);  // somewhere for the host's replies to go
  HostConfig cfg;
  cfg.ip = kHostIp;
  HostStack host(net.scheduler(), nic, cfg);

  util::Rng rng(20260);
  int skipped = 0;
  int visited_changed = 0;
  for (int i = 0; i < 3000; ++i) {
    const ether::WireFrame wire(random_group_frame(rng));
    const ether::Frame& frame = wire.frame();
    const netsim::GroupRoute route = netsim::route_group_frame(frame);

    // The rule's ARP verdict is ArpPacket::decode's.
    std::optional<ArpPacket> arp;
    if (frame.has_type(ether::EtherType::kArp)) {
      auto decoded = ArpPacket::decode(frame.payload);
      EXPECT_EQ(route.kind == netsim::GroupRoute::Kind::kArpTarget, decoded.has_value());
      if (decoded) {
        arp = decoded.value();
        EXPECT_EQ(route.arp_target, arp->target_ip.value());
      }
    } else {
      EXPECT_NE(route.kind, netsim::GroupRoute::Kind::kArpTarget);
    }
    const bool must_visit =
        route.kind == netsim::GroupRoute::Kind::kEveryone ||
        (route.kind == netsim::GroupRoute::Kind::kArpTarget &&
         route.arp_target == kHostIp.value());

    const HostStats stats_before = host.stats();
    const std::size_t cache_before = host.arp_cache().size();
    const auto mapping_before =
        arp ? host.arp_cache().lookup(arp->sender_ip, net.now()) : std::nullopt;
    const std::uint64_t tx_before = nic.stats().tx_frames + nic.stats().tx_dropped;

    nic.deliver(wire);
    net.scheduler().run();

    const bool changed =
        host.stats() != stats_before || host.arp_cache().size() != cache_before ||
        (arp && host.arp_cache().lookup(arp->sender_ip, net.now()) != mapping_before) ||
        nic.stats().tx_frames + nic.stats().tx_dropped != tx_before;
    if (must_visit) {
      visited_changed += changed ? 1 : 0;
    } else {
      ++skipped;
      EXPECT_FALSE(changed) << "frame " << i << ": " << frame.summary();
    }
  }
  // The generator exercised both sides of the rule.
  EXPECT_GT(skipped, 1000);
  EXPECT_GT(visited_changed, 100);
}

}  // namespace
}  // namespace ab::stack
