// Units for the sharded parallel core: the SPSC RelayRing, the
// ShardChannel conduit (ring + spill), Shard drain ordering, and the
// ParallelRunner's conservative windows -- including the thread-count
// independence property on synthetic shards.
#include "src/netsim/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/lan.h"
#include "src/netsim/network.h"
#include "src/netsim/nic.h"
#include "src/netsim/parallel_runner.h"

namespace ab::netsim {
namespace {

ether::Frame test_frame(std::size_t payload_len = 64) {
  return ether::Frame::ethernet2(ether::MacAddress::broadcast(),
                                 ether::MacAddress::local(7, 1),
                                 ether::EtherType::kExperimental,
                                 util::ByteBuffer(payload_len, 0x33));
}

RelayFrame relay_frame(TimePoint deliver_at, std::size_t payload_len = 64) {
  RelayFrame frame;
  frame.deliver_at = deliver_at;
  const ether::WireFrame wire(test_frame(payload_len));
  frame.wire.assign(wire.wire().begin(), wire.wire().end());
  return frame;
}

// ---------------------------------------------------------------- RelayRing

TEST(RelayRing, CapacityRoundsUpToPowerOfTwoMinimumTwo) {
  EXPECT_EQ(RelayRing(1).capacity(), 2u);
  EXPECT_EQ(RelayRing(2).capacity(), 2u);
  EXPECT_EQ(RelayRing(4).capacity(), 4u);
  EXPECT_EQ(RelayRing(5).capacity(), 8u);
  EXPECT_EQ(RelayRing(1024).capacity(), 1024u);
}

TEST(RelayRing, PopsInPushOrder) {
  RelayRing ring(4);
  for (int i = 0; i < 3; ++i) {
    RelayFrame frame = relay_frame(TimePoint(microseconds(i)));
    ASSERT_TRUE(ring.try_push(frame));
  }
  EXPECT_EQ(ring.size(), 3u);

  RelayFrame out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out.deliver_at, TimePoint(microseconds(i)));
    EXPECT_FALSE(out.wire.empty());
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(RelayRing, FullRingRejectsPushAndLeavesFrameIntact) {
  RelayRing ring(2);
  RelayFrame a = relay_frame(TimePoint(microseconds(1)));
  RelayFrame b = relay_frame(TimePoint(microseconds(2)));
  ASSERT_TRUE(ring.try_push(a));
  ASSERT_TRUE(ring.try_push(b));

  RelayFrame c = relay_frame(TimePoint(microseconds(3)));
  const std::size_t wire_bytes = c.wire.size();
  EXPECT_FALSE(ring.try_push(c));
  // The caller still owns the frame (it spills, it is not lost).
  EXPECT_EQ(c.deliver_at, TimePoint(microseconds(3)));
  EXPECT_EQ(c.wire.size(), wire_bytes);

  RelayFrame out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(c));  // slot freed, push succeeds now
  EXPECT_EQ(ring.size(), 2u);
}

TEST(RelayRing, CrossThreadSpscPreservesOrder) {
  RelayRing ring(64);
  constexpr int kFrames = 4096;

  std::thread producer([&ring] {
    for (int i = 0; i < kFrames; ++i) {
      RelayFrame frame;
      frame.deliver_at = TimePoint(Duration(i));
      frame.wire.assign(8, static_cast<unsigned char>(i & 0xFF));
      while (!ring.try_push(frame)) std::this_thread::yield();
    }
  });

  RelayFrame out;
  for (int i = 0; i < kFrames; ++i) {
    while (!ring.try_pop(out)) std::this_thread::yield();
    ASSERT_EQ(out.deliver_at, TimePoint(Duration(i)));
    ASSERT_EQ(out.wire[0], static_cast<unsigned char>(i & 0xFF));
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// ------------------------------------------------------------- ShardChannel

TEST(ShardChannel, DrainInjectsIntoTargetAtProducerComputedTimes) {
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& rx = net.add_nic("rx", lan);
  std::vector<TimePoint> delivered;
  rx.set_rx_handler([&](const ether::WireFrame&) { delivered.push_back(net.now()); });

  ShardChannel channel(lan);
  const ether::WireFrame wire(test_frame());
  channel.push(TimePoint(microseconds(10)), wire.wire());
  channel.push(TimePoint(microseconds(20)), wire.wire());

  EXPECT_EQ(channel.drain(), 2u);
  net.scheduler().run();

  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], TimePoint(microseconds(10)));
  EXPECT_EQ(delivered[1], TimePoint(microseconds(20)));
  // Remote frames are counted at the producer's replica, never here.
  EXPECT_EQ(lan.stats().frames_carried, 0u);
  EXPECT_EQ(lan.stats().bytes_carried, 0u);
  EXPECT_EQ(channel.spilled(), 0u);
}

TEST(ShardChannel, OverflowSpillsAndDrainPreservesPushOrder) {
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& rx = net.add_nic("rx", lan);
  std::vector<std::size_t> sizes;
  rx.set_rx_handler(
      [&](const ether::WireFrame& f) { sizes.push_back(f.wire_size()); });

  // Ring capacity 2: pushes 3..5 overflow into the producer-owned spill.
  ShardChannel channel(lan, 2);
  const TimePoint at(microseconds(5));
  for (std::size_t i = 0; i < 5; ++i) {
    const ether::WireFrame wire(test_frame(100 + i));  // distinct wire sizes
    channel.push(at, wire.wire());
  }
  EXPECT_EQ(channel.spilled(), 3u);

  EXPECT_EQ(channel.drain(), 5u);
  net.scheduler().run();

  // Same timestamp throughout, so delivery order IS injection order: ring
  // first (older frames), then spill, both in push order.
  ASSERT_EQ(sizes.size(), 5u);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[i - 1] + 1) << "frame " << i << " out of order";
  }
  EXPECT_EQ(channel.spilled(), 3u);  // telemetry is cumulative, not reset
}

// -------------------------------------------------------------------- Shard

TEST(Shard, DrainsInboundChannelsInRegistrationOrder) {
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& rx = net.add_nic("rx", lan);
  std::vector<std::size_t> sizes;
  rx.set_rx_handler(
      [&](const ether::WireFrame& f) { sizes.push_back(f.wire_size()); });

  ShardChannel first(lan);
  ShardChannel second(lan);
  Shard shard(net.scheduler());
  shard.add_inbound(first);
  shard.add_inbound(second);
  ASSERT_EQ(shard.inbound().size(), 2u);

  // Push into `second` before `first`; the drain must still visit `first`
  // first -- registration order, not push order, is the contract.
  const TimePoint at(microseconds(5));
  second.push(at, ether::WireFrame(test_frame(101)).wire());
  first.push(at, ether::WireFrame(test_frame(100)).wire());

  EXPECT_EQ(shard.drain(), 2u);
  net.scheduler().run();

  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], ether::WireFrame(test_frame(100)).wire_size());
  EXPECT_EQ(sizes[1], ether::WireFrame(test_frame(101)).wire_size());
}

// ----------------------------------------------------------- ParallelRunner

TEST(ParallelRunner, RejectsEmptyOrNullShards) {
  EXPECT_THROW(ParallelRunner({}, {}), std::invalid_argument);

  Network net;
  Shard shard(net.scheduler());
  EXPECT_THROW(ParallelRunner({&shard, nullptr}, {}), std::invalid_argument);
}

TEST(ParallelRunner, NoLookaheadCollapsesToOneWindow) {
  Network a, b;
  Shard sa(a.scheduler()), sb(b.scheduler());
  int fired = 0;
  a.scheduler().schedule_at(TimePoint(microseconds(10)), [&] { ++fired; });
  b.scheduler().schedule_at(TimePoint(microseconds(700)), [&] { ++fired; });

  ParallelRunner runner({&sa, &sb}, {.threads = 1, .lookahead = Duration::zero()});
  runner.run_until(TimePoint(milliseconds(1)));

  EXPECT_EQ(fired, 2);
  EXPECT_EQ(runner.rounds(), 1u);
  EXPECT_EQ(a.now(), TimePoint(milliseconds(1)));
  EXPECT_EQ(b.now(), TimePoint(milliseconds(1)));
}

TEST(ParallelRunner, ConservativeWindowsBoundEachRoundByLookahead) {
  Network a, b;
  Shard sa(a.scheduler()), sb(b.scheduler());

  // Shard a ticks every 10us, rescheduling itself from inside each tick.
  std::vector<TimePoint> ticks;
  struct Ticker {
    Scheduler* sched;
    std::vector<TimePoint>* out;
    void arm(TimePoint at) {
      if (at > TimePoint(microseconds(100))) return;
      sched->schedule_at(at, [this, at] {
        out->push_back(at);
        arm(at + microseconds(10));
      });
    }
  } ticker{&a.scheduler(), &ticks};
  ticker.arm(TimePoint(microseconds(10)));

  ParallelRunner runner({&sa, &sb},
                        {.threads = 1, .lookahead = microseconds(10)});
  runner.run_until(TimePoint(microseconds(100)));

  ASSERT_EQ(ticks.size(), 10u);
  // With Tmin stepping 10us per tick and a 10us lookahead, every window can
  // hold at most one tick, so at least 10 rounds were needed.
  EXPECT_GE(runner.rounds(), 10u);
  // Only shard a ever has work, so every round ran inline.
  EXPECT_EQ(runner.inline_rounds(), runner.rounds());
  EXPECT_EQ(a.now(), TimePoint(microseconds(100)));
  EXPECT_EQ(b.now(), TimePoint(microseconds(100)));

  // run_until is repeatable: the next call picks up exactly where this one
  // stopped, and an event at exactly the target time executes.
  bool edge = false;
  b.scheduler().schedule_at(TimePoint(microseconds(200)), [&] { edge = true; });
  runner.run_until(TimePoint(microseconds(200)));
  EXPECT_TRUE(edge);
  EXPECT_EQ(b.now(), TimePoint(microseconds(200)));
}

// One synthetic cell: `n` shards, shard k ticking every (k+1)*3us up to
// 300us, each recording its firing times into its own (per-shard, so
// race-free) trace. Built fresh per run so thread counts can be compared.
struct SyntheticCell {
  std::vector<std::unique_ptr<Network>> nets;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::vector<TimePoint>> traces;

  explicit SyntheticCell(int n) : traces(static_cast<std::size_t>(n)) {
    for (int k = 0; k < n; ++k) {
      nets.push_back(std::make_unique<Network>());
      shards.push_back(std::make_unique<Shard>(nets.back()->scheduler()));
      arm(k, TimePoint(microseconds(k + 1) * 3));
    }
  }

  void arm(int k, TimePoint at) {
    if (at > TimePoint(microseconds(300))) return;
    nets[static_cast<std::size_t>(k)]->scheduler().schedule_at(at, [this, k, at] {
      traces[static_cast<std::size_t>(k)].push_back(at);
      arm(k, at + microseconds(k + 1) * 3);
    });
  }

  [[nodiscard]] std::vector<Shard*> handles() {
    std::vector<Shard*> out;
    for (auto& s : shards) out.push_back(s.get());
    return out;
  }
};

TEST(ParallelRunner, ThreadCountDoesNotChangeExecutionOrRoundStructure) {
  constexpr int kShards = 4;
  std::vector<std::vector<TimePoint>> reference;
  std::uint64_t reference_rounds = 0;
  std::uint64_t reference_inline = 0;

  for (const int threads : {1, 2, 4, 8}) {
    SyntheticCell cell(kShards);
    ParallelRunner runner(cell.handles(),
                          {.threads = threads, .lookahead = microseconds(2)});
    runner.run_until(TimePoint(milliseconds(1)));

    for (int k = 0; k < kShards; ++k) {
      EXPECT_EQ(cell.nets[static_cast<std::size_t>(k)]->now(),
                TimePoint(milliseconds(1)));
    }
    if (threads == 1) {
      reference = cell.traces;
      reference_rounds = runner.rounds();
      reference_inline = runner.inline_rounds();
      ASSERT_EQ(reference[0].size(), 100u);  // 3us ticks through 300us
    } else {
      EXPECT_EQ(cell.traces, reference) << "threads=" << threads;
      EXPECT_EQ(runner.rounds(), reference_rounds) << "threads=" << threads;
      EXPECT_EQ(runner.inline_rounds(), reference_inline) << "threads=" << threads;
    }
  }
}

// Eight shards whose windows alternate between one busy shard and all of
// them: shard 0 ticks every 10us, the others every 20us, and the 10us
// lookahead makes each window [Tmin, Tmin + 10us) -- so a window starting
// on an odd 10us mark holds shard 0's tick alone (an inline round) and one
// starting on an even mark holds every shard's tick (a posted round). Each
// tick also schedules a follow-up inside its own window, so a busy shard
// runs more than one event per round. Thread counts cover the inline
// runner, the spinning crew, the parking crew and more workers than the
// machine has hardware threads (clamped to the shard count).
struct AlternatingCell {
  static constexpr int kShards = 8;
  std::vector<std::unique_ptr<Network>> nets;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::vector<TimePoint>> traces;

  AlternatingCell() : traces(kShards) {
    for (int k = 0; k < kShards; ++k) {
      nets.push_back(std::make_unique<Network>());
      shards.push_back(std::make_unique<Shard>(nets.back()->scheduler()));
      arm(k, TimePoint(microseconds(k == 0 ? 10 : 20)));
    }
  }

  void arm(int k, TimePoint at) {
    if (at > TimePoint(milliseconds(1))) return;
    Scheduler& sched = nets[static_cast<std::size_t>(k)]->scheduler();
    auto& trace = traces[static_cast<std::size_t>(k)];
    sched.schedule_at(at, [this, k, at, &sched, &trace] {
      trace.push_back(at);
      sched.schedule_at(at + microseconds(1 + k), [at, k, &trace] {
        trace.push_back(at + microseconds(1 + k));
      });
      arm(k, at + microseconds(k == 0 ? 10 : 20));
    });
  }

  [[nodiscard]] std::vector<Shard*> handles() {
    std::vector<Shard*> out;
    for (auto& s : shards) out.push_back(s.get());
    return out;
  }
};

TEST(ParallelRunner, AlternatingBusyWindowsMatchAtEveryThreadCount) {
  const int oversubscribed = static_cast<int>(std::thread::hardware_concurrency()) + 1;
  std::vector<std::vector<TimePoint>> reference;
  std::uint64_t reference_rounds = 0;
  std::uint64_t reference_inline = 0;

  for (const int threads : {1, 2, 4, 8, oversubscribed}) {
    AlternatingCell cell;
    ParallelRunner runner(cell.handles(),
                          {.threads = threads, .lookahead = microseconds(10)});
    runner.run_until(TimePoint(milliseconds(1)));

    for (const auto& net : cell.nets) {
      EXPECT_EQ(net->now(), TimePoint(milliseconds(1))) << "threads=" << threads;
    }
    if (threads == 1) {
      reference = cell.traces;
      reference_rounds = runner.rounds();
      reference_inline = runner.inline_rounds();
      // 100 windows through 1ms: the 50 odd marks run shard 0 alone. The
      // follow-up of the tick at exactly 1ms falls past the target.
      ASSERT_EQ(reference[0].size(), 199u);
      ASSERT_EQ(reference[1].size(), 99u);
      EXPECT_EQ(reference_rounds, 100u);
      EXPECT_EQ(reference_inline, 50u);
      EXPECT_FALSE(runner.spins());
    } else {
      EXPECT_EQ(cell.traces, reference) << "threads=" << threads;
      EXPECT_EQ(runner.rounds(), reference_rounds) << "threads=" << threads;
      EXPECT_EQ(runner.inline_rounds(), reference_inline) << "threads=" << threads;
      const int workers = std::min(threads, AlternatingCell::kShards);
      EXPECT_EQ(runner.spins(),
                static_cast<unsigned>(workers) < std::thread::hardware_concurrency())
          << "threads=" << threads;
    }
  }
}

// run_until in 200 steps of 5us must land exactly where one call to the
// same target does: each call posts, stops and joins its own crew, so this
// drives the start/stop hand-off on every call.
TEST(ParallelRunner, ManyShortCallsMatchOneLongCall) {
  constexpr int kShards = 4;
  SyntheticCell reference_cell(kShards);
  ParallelRunner reference_runner(reference_cell.handles(),
                                  {.threads = 1, .lookahead = microseconds(2)});
  reference_runner.run_until(TimePoint(milliseconds(1)));

  for (const int threads : {1, 2, 4}) {
    SyntheticCell cell(kShards);
    ParallelRunner runner(cell.handles(),
                          {.threads = threads, .lookahead = microseconds(2)});
    for (int step = 1; step <= 200; ++step) {
      runner.run_until(TimePoint(microseconds(5) * step));
      for (const auto& net : cell.nets) {
        ASSERT_EQ(net->now(), TimePoint(microseconds(5) * step))
            << "threads=" << threads << " step=" << step;
      }
    }
    EXPECT_EQ(cell.traces, reference_cell.traces) << "threads=" << threads;
    for (int k = 0; k < kShards; ++k) {
      const auto i = static_cast<std::size_t>(k);
      EXPECT_EQ(cell.nets[i]->scheduler().executed(),
                reference_cell.nets[i]->scheduler().executed())
          << "threads=" << threads << " shard=" << k;
    }
  }
}

// An exception from a shard's event reaches the run_until caller at every
// thread count, and only once the round's other busy shards finished their
// window. The throw lands in a window shards 0, 1 and 2 share.
TEST(ParallelRunner, EventExceptionReachesTheCaller) {
  for (const int threads : {1, 2, 4}) {
    SyntheticCell cell(4);
    cell.nets[2]->scheduler().schedule_at(TimePoint(microseconds(30)), [] {
      throw std::runtime_error("event failed");
    });
    ParallelRunner runner(cell.handles(),
                          {.threads = threads, .lookahead = microseconds(2)});
    EXPECT_THROW(runner.run_until(TimePoint(milliseconds(1))), std::runtime_error)
        << "threads=" << threads;
    EXPECT_EQ(cell.traces[0].back(), TimePoint(microseconds(30))) << "threads=" << threads;
    EXPECT_EQ(cell.traces[1].back(), TimePoint(microseconds(30))) << "threads=" << threads;
  }
}

// End-to-end miniature of the real wiring: two single-NIC regions joined by
// one cut segment. Region A's replica relays each local transmission into
// the channel; region B injects it at the producer-computed delivery time.
TEST(ParallelRunner, RelaysFramesAcrossShardsThroughChannels) {
  for (const int threads : {1, 2}) {
    Network net_a, net_b;
    LanSegment& lan_a = net_a.add_segment("cut");
    LanSegment& lan_b = net_b.add_segment("cut");
    Nic& tx = net_a.add_nic("tx", lan_a);
    Nic& rx = net_b.add_nic("rx", lan_b);

    std::vector<TimePoint> delivered;
    rx.set_rx_handler(
        [&](const ether::WireFrame&) { delivered.push_back(net_b.now()); });

    Shard shard_a(net_a.scheduler()), shard_b(net_b.scheduler());
    ShardChannel channel(lan_b);
    shard_b.add_inbound(channel);
    const Duration prop = microseconds(50);
    lan_a.set_relay([&channel, prop](TimePoint now, const Nic*,
                                     util::ByteView wire) {
      channel.push(now + prop, wire);
    });

    const ether::Frame frame = test_frame();
    const Duration ser = lan_a.serialization_delay(frame.wire_size());
    net_a.scheduler().schedule_at(TimePoint{}, [&] { tx.transmit(frame); });

    ParallelRunner runner({&shard_a, &shard_b},
                          {.threads = threads, .lookahead = prop});
    runner.run_until(TimePoint(milliseconds(1)));

    ASSERT_EQ(delivered.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(delivered[0], TimePoint{} + ser + prop) << "threads=" << threads;
    // Carried stats belong to the producing replica alone.
    EXPECT_EQ(lan_a.stats().frames_carried, 1u);
    EXPECT_EQ(lan_b.stats().frames_carried, 0u);
  }
}

}  // namespace
}  // namespace ab::netsim
