// The sharded parallel core's acceptance property: a sharded cell is
// OBSERVABLY IDENTICAL to the single-Network oracle -- same frames, bytes,
// pings, MAC tables, stream bytes -- and a sharded cell's results are a
// pure function of the cell, independent of thread count and repeatable
// run to run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/apps/scenario.h"

namespace ab::apps {
namespace {

netsim::TopologySpec star_cell() {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kStar;
  spec.nodes = 3;  // hub lan + 3 leaf lans, 3 bridges
  spec.hosts_per_lan = 2;
  return spec;
}

// The observable contract: everything a user of the sweep reads that does
// not depend on HOW the event loop was partitioned. Scheduler-internal
// counters (events, heap_inserts) are compared only between sharded runs
// -- splitting one delivery walk across replicas legitimately changes the
// event count against the oracle, never the traffic.
void expect_observables_equal(const SweepResult& a, const SweepResult& b,
                              const std::string& what) {
  EXPECT_EQ(a.frames_carried, b.frames_carried) << what;
  EXPECT_EQ(a.bytes_carried, b.bytes_carried) << what;
  EXPECT_EQ(a.frames_lost, b.frames_lost) << what;
  EXPECT_EQ(a.mac_entries, b.mac_entries) << what;
  EXPECT_EQ(a.pings_sent, b.pings_sent) << what;
  EXPECT_EQ(a.pings_answered, b.pings_answered) << what;
  EXPECT_EQ(a.stp_converged, b.stp_converged) << what;
  EXPECT_EQ(a.blocked_ports, b.blocked_ports) << what;
  EXPECT_EQ(a.forwarding_ports, b.forwarding_ports) << what;
  EXPECT_DOUBLE_EQ(a.virtual_seconds, b.virtual_seconds) << what;
  ASSERT_EQ(a.streams.size(), b.streams.size()) << what;
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(a.streams[i].label, b.streams[i].label) << what;
    EXPECT_EQ(a.streams[i].bytes_sent, b.streams[i].bytes_sent) << what;
    EXPECT_EQ(a.streams[i].bytes_received, b.streams[i].bytes_received) << what;
    EXPECT_EQ(a.streams[i].datagrams, b.streams[i].datagrams) << what;
    EXPECT_EQ(a.streams[i].retransmits, b.streams[i].retransmits) << what;
    EXPECT_EQ(a.streams[i].cwnd_final, b.streams[i].cwnd_final) << what;
  }
}

TEST(ParallelSweep, ShardedFloodPingMatchesOracleAtEveryThreadCount) {
  const netsim::TopologySpec spec = star_cell();

  TopologySweep oracle_sweep;  // defaults: single Network, one scheduler
  const SweepResult oracle = oracle_sweep.run_cell(spec);
  ASSERT_TRUE(oracle.stp_converged);
  ASSERT_EQ(oracle.pings_answered, oracle.pings_sent);
  ASSERT_GT(oracle.frames_carried, 0u);

  SweepResult reference;  // the threads=1 sharded run
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.shard_regions = 2;  // fixed partition; only the thread count varies
    opts.threads = threads;
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec);

    expect_observables_equal(
        sharded, oracle, "threads=" + std::to_string(threads) + " vs oracle");
    if (threads == 1) {
      reference = sharded;
    } else {
      // Between sharded runs EVERYTHING must match, scheduler internals
      // included: the round/window structure is thread-count independent.
      expect_observables_equal(sharded, reference, "vs threads=1");
      EXPECT_EQ(sharded.events, reference.events) << "threads=" << threads;
      EXPECT_EQ(sharded.heap_inserts, reference.heap_inserts)
          << "threads=" << threads;
      EXPECT_EQ(sharded.scheduled_entries, reference.scheduled_entries)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelSweep, ShardedTtcpStreamsMatchOracle) {
  const netsim::TopologySpec spec = star_cell();

  TtcpStreamWorkload::Options wopts;
  wopts.streams = 2;
  wopts.bytes_per_stream = 32 * 1024;

  TtcpStreamWorkload oracle_ttcp(wopts);
  TopologySweep oracle_sweep;
  const SweepResult oracle = oracle_sweep.run_cell(spec, oracle_ttcp);
  ASSERT_EQ(oracle.streams.size(), 2u);
  for (const StreamResult& s : oracle.streams) {
    ASSERT_EQ(s.bytes_received, s.bytes_sent);  // lossless, generous window
  }

  for (const int threads : {2, 4}) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = threads;
    TtcpStreamWorkload ttcp(wopts);
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec, ttcp);
    expect_observables_equal(sharded, oracle,
                             "ttcp threads=" + std::to_string(threads));
  }
}

TEST(ParallelSweep, ShardedTcpStreamsMatchOracleBitIdentically) {
  // TCP adds timers (RTO, TIME_WAIT) and feedback loops (cwnd clocks the
  // wire) on top of the UDP streams above, all running on per-host
  // schedulers. The sharded runs must still be a pure function of the
  // cell: frames, bytes, goodput, retransmit counters and the final
  // congestion window identical at every thread count and to the oracle.
  const netsim::TopologySpec spec = star_cell();

  TtcpStreamWorkload::Options wopts;
  wopts.streams = 2;
  wopts.bytes_per_stream = 32 * 1024;
  wopts.transport = TtcpStreamWorkload::Transport::kTcp;

  TtcpStreamWorkload oracle_ttcp(wopts);
  TopologySweep oracle_sweep;
  const SweepResult oracle = oracle_sweep.run_cell(spec, oracle_ttcp);
  ASSERT_EQ(oracle.streams.size(), 2u);
  for (const StreamResult& s : oracle.streams) {
    ASSERT_EQ(s.bytes_sent, 32u * 1024u) << s.label;
    ASSERT_EQ(s.bytes_received, s.bytes_sent) << s.label;  // lossless LANs
    ASSERT_EQ(s.retransmits, 0u) << s.label;
    ASSERT_GT(s.datagrams, 0u) << s.label;   // segments the sink received
    ASSERT_GT(s.cwnd_final, 0u) << s.label;  // connection really ran TCP
    ASSERT_GT(s.goodput_mbps, 0.0) << s.label;
  }

  SweepResult reference;  // the threads=1 sharded run
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = threads;
    TtcpStreamWorkload ttcp(wopts);
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec, ttcp);

    expect_observables_equal(
        sharded, oracle, "tcp threads=" + std::to_string(threads) + " vs oracle");
    ASSERT_EQ(sharded.streams.size(), oracle.streams.size());
    for (std::size_t i = 0; i < sharded.streams.size(); ++i) {
      // goodput is a double computed from sink timestamps; bit-identity
      // means EXACT equality, not near-equality.
      EXPECT_EQ(sharded.streams[i].goodput_mbps, oracle.streams[i].goodput_mbps)
          << sharded.streams[i].label << " threads=" << threads;
    }
    if (threads == 1) {
      reference = sharded;
    } else {
      expect_observables_equal(sharded, reference,
                               "tcp vs threads=1, threads=" +
                                   std::to_string(threads));
      EXPECT_EQ(sharded.events, reference.events) << "threads=" << threads;
      EXPECT_EQ(sharded.heap_inserts, reference.heap_inserts)
          << "threads=" << threads;
      EXPECT_EQ(sharded.scheduled_entries, reference.scheduled_entries)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelSweep, ShardedRingAgreesOnSteadyStateAndWithItself) {
  // Conservative windows preserve every event TIME but not the serial
  // oracle's global FIFO tiebreak: on a symmetric ring, two BPDUs reach a
  // boundary bridge at the exact same nanosecond during STP startup and the
  // injected one sorts after a local one where the oracle interleaved them
  // -- a couple of extra hello transmissions in the first 25us, nothing
  // after. So against the oracle this cell pins the steady-state
  // observables (streams, pings, tables, tree shape); between sharded runs
  // at different thread counts EVERYTHING must still match.
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRing;
  spec.nodes = 4;
  spec.hosts_per_lan = 1;

  TtcpStreamWorkload::Options wopts;
  wopts.streams = 2;
  wopts.bytes_per_stream = 32 * 1024;

  TtcpStreamWorkload oracle_ttcp(wopts);
  TopologySweep oracle_sweep;
  const SweepResult oracle = oracle_sweep.run_cell(spec, oracle_ttcp);

  SweepResult reference;
  for (const int threads : {1, 2, 4}) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = threads;
    TtcpStreamWorkload ttcp(wopts);
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec, ttcp);

    EXPECT_EQ(sharded.stp_converged, oracle.stp_converged);
    EXPECT_EQ(sharded.blocked_ports, oracle.blocked_ports);
    EXPECT_EQ(sharded.mac_entries, oracle.mac_entries);
    EXPECT_EQ(sharded.pings_sent, oracle.pings_sent);
    EXPECT_EQ(sharded.pings_answered, oracle.pings_answered);
    ASSERT_EQ(sharded.streams.size(), oracle.streams.size());
    for (std::size_t i = 0; i < sharded.streams.size(); ++i) {
      EXPECT_EQ(sharded.streams[i].label, oracle.streams[i].label);
      EXPECT_EQ(sharded.streams[i].bytes_received,
                oracle.streams[i].bytes_received);
      EXPECT_EQ(sharded.streams[i].datagrams, oracle.streams[i].datagrams);
    }

    if (threads == 1) {
      reference = sharded;
    } else {
      expect_observables_equal(sharded, reference,
                               "ring threads=" + std::to_string(threads));
      EXPECT_EQ(sharded.events, reference.events);
      EXPECT_EQ(sharded.heap_inserts, reference.heap_inserts);
      EXPECT_EQ(sharded.scheduled_entries, reference.scheduled_entries);
    }
  }
}

TEST(ParallelSweep, OneRegionShardedEqualsLegacyPathExactly) {
  // shard_regions=1 runs the sharded machinery -- builder, runner, context
  // -- on a single region. With no cut segments there is nothing the
  // partitioning could change, so even the scheduler-internal counters
  // must equal the legacy single-Network path's: the seed-stability anchor
  // that pins the new path to the old one.
  const netsim::TopologySpec spec = star_cell();

  TopologySweep legacy_sweep;
  const SweepResult legacy = legacy_sweep.run_cell(spec);

  SweepOptions opts;
  opts.shard_regions = 1;
  TopologySweep sweep(opts);
  const SweepResult sharded = sweep.run_cell(spec);

  expect_observables_equal(sharded, legacy, "1-region vs legacy");
  EXPECT_EQ(sharded.events, legacy.events);
  EXPECT_EQ(sharded.heap_inserts, legacy.heap_inserts);
  EXPECT_EQ(sharded.scheduled_entries, legacy.scheduled_entries);
  EXPECT_EQ(sharded.bridges, legacy.bridges);
  EXPECT_EQ(sharded.lans, legacy.lans);
  EXPECT_EQ(sharded.hosts, legacy.hosts);
  EXPECT_EQ(sharded.ports, legacy.ports);
}

TEST(ParallelSweep, ShardedRunsAreRepeatable) {
  // Same cell, same thread count, fresh sweep objects: the two runs must
  // agree on every counter (the seed-stability requirement the scaling
  // bench's in-run assertion builds on).
  const netsim::TopologySpec spec = star_cell();
  SweepResult runs[2];
  for (SweepResult& r : runs) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = 2;
    TopologySweep sweep(opts);
    r = sweep.run_cell(spec);
  }
  expect_observables_equal(runs[0], runs[1], "repeat run");
  EXPECT_EQ(runs[0].events, runs[1].events);
  EXPECT_EQ(runs[0].heap_inserts, runs[1].heap_inserts);
  EXPECT_EQ(runs[0].scheduled_entries, runs[1].scheduled_entries);
}

TEST(ParallelSweep, SingleNetworkOnlyWorkloadsRejectShardedCells) {
  // Staged rollouts reach for the global Network; until they are taught
  // shard ownership they must refuse loudly, not corrupt silently. The
  // message is compared against the constant the refusal actually throws
  // (kSingleNetworkOnlyMessage) so workloads graduating off the refusal --
  // as the aggregate workload has -- shrink this test instead of breaking
  // it, while the text itself stays pinned where it is defined: it is the
  // only thing a user sees when a sweep config quietly combined a
  // single-Network workload with shard_regions > 0.
  const netsim::TopologySpec spec = star_cell();
  SweepOptions opts;
  opts.shard_regions = 2;
  opts.build.netloader = true;  // what RolloutWorkload needs, so the throw
                                // below is about sharding, not netloaders

  RolloutWorkload rollout;
  TopologySweep sweep(opts);
  try {
    (void)sweep.run_cell(spec, rollout);
    FAIL() << "RolloutWorkload must refuse a sharded cell";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()), kSingleNetworkOnlyMessage) << "RolloutWorkload";
  }
}

void expect_sharded_aggregate_matches_oracle(int hosts_per_lan) {
  netsim::TopologySpec spec = star_cell();
  spec.hosts_per_lan = hosts_per_lan;

  AggregateHostWorkload::Options wopts;
  wopts.talkers_per_lan = 2;
  wopts.background_per_lan = 4;
  wopts.seed = 7;

  AggregateHostWorkload oracle_aggregate(wopts);
  TopologySweep oracle_sweep;
  const SweepResult oracle = oracle_sweep.run_cell(spec, oracle_aggregate);
  ASSERT_GT(oracle.pings_sent, 0);
  ASSERT_EQ(oracle.pings_answered, oracle.pings_sent);
  ASSERT_EQ(oracle.streams.size(), 1u);
  ASSERT_EQ(oracle.streams[0].bytes_received, oracle.streams[0].bytes_sent);
  ASSERT_GT(oracle.mac_entries, 0u);

  SweepResult reference;  // the threads=1 sharded run
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = threads;
    AggregateHostWorkload aggregate(wopts);
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec, aggregate);

    expect_observables_equal(
        sharded, oracle,
        "aggregate threads=" + std::to_string(threads) + " vs oracle");
    if (threads == 1) {
      reference = sharded;
    } else {
      expect_observables_equal(sharded, reference,
                               "aggregate vs threads=1, threads=" +
                                   std::to_string(threads));
      EXPECT_EQ(sharded.events, reference.events) << "threads=" << threads;
      EXPECT_EQ(sharded.heap_inserts, reference.heap_inserts)
          << "threads=" << threads;
      EXPECT_EQ(sharded.scheduled_entries, reference.scheduled_entries)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelSweep, ShardedAggregateMatchesOracleBitIdentically) {
  // The aggregate workload partitioned across regions -- per-LAN generator
  // NICs on their owning shard, talkers pinging on per-host clocks, the
  // ttcp stream riding cut-LAN mailboxes -- must reproduce the
  // single-Network oracle's traffic exactly on a tie-free cell, at every
  // thread count, and sharded runs must agree with each other on
  // scheduler internals too.
  expect_sharded_aggregate_matches_oracle(8);  // room for talkers AND a background sample
}

TEST(ParallelSweep, ShardedAggregateMatchesOracleBitIdenticallyOnBigLans) {
  // 200 stations per LAN: addressed delivery on every replica.
  expect_sharded_aggregate_matches_oracle(200);
}

TEST(ParallelSweep, ShardedAggregateBackgroundReplayIsSeedStable) {
  // The background sample is drawn by ONE seeded RNG walking LANs in
  // global order, so the set of speaking stations is a pure function of
  // the seed -- not of the partition, and not of whether the frames are
  // replayed by the generator or clocked out by materialized stations.
  netsim::TopologySpec spec = star_cell();
  spec.hosts_per_lan = 8;

  AggregateHostWorkload::Options wopts;
  wopts.talkers_per_lan = 2;
  wopts.background_per_lan = 4;
  wopts.seed = 21;

  SweepOptions opts;
  opts.shard_regions = 2;
  opts.threads = 2;

  // Same seed, fresh sweeps: identical everything.
  SweepResult runs[2];
  for (SweepResult& r : runs) {
    AggregateHostWorkload aggregate(wopts);
    TopologySweep sweep(opts);
    r = sweep.run_cell(spec, aggregate);
  }
  expect_observables_equal(runs[0], runs[1], "aggregate same-seed repeat");
  EXPECT_EQ(runs[0].events, runs[1].events);
  EXPECT_EQ(runs[0].heap_inserts, runs[1].heap_inserts);

  // Pre-encoded replay vs fully materialized stations: the sample and the
  // wire bytes must agree, sharded exactly like the single-Network
  // equivalence pinned in sweep_test.cpp.
  AggregateHostWorkload::Options mat = wopts;
  mat.materialize_background = true;
  AggregateHostWorkload materialized(mat);
  TopologySweep mat_sweep(opts);
  const SweepResult full = mat_sweep.run_cell(spec, materialized);
  EXPECT_EQ(full.frames_carried, runs[0].frames_carried);
  EXPECT_EQ(full.bytes_carried, runs[0].bytes_carried);
  EXPECT_EQ(full.pings_sent, runs[0].pings_sent);
  EXPECT_EQ(full.pings_answered, runs[0].pings_answered);
  EXPECT_EQ(full.mac_entries, runs[0].mac_entries);
}

TEST(ParallelSweep, ForkedGridMatchesInProcessGrid) {
  // Fork-per-cell must be a pure execution-strategy change: same cells,
  // same order, same traffic numbers as the in-process loop. (On non-Linux
  // builds fork_cells falls back to the in-process loop, so the test still
  // holds trivially.)
  const auto grid = TopologySweep::make_grid(
      {netsim::TopologyShape::kLine}, {1, 2}, 1);

  TopologySweep in_process;
  const auto serial = in_process.run_grid(grid);

  SweepOptions opts;
  opts.fork_cells = true;
  opts.max_parallel_cells = 2;
  TopologySweep forked_sweep(opts);
  const auto forked = forked_sweep.run_grid(grid);

  ASSERT_EQ(forked.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(forked[i].label, serial[i].label);
    EXPECT_EQ(forked[i].workload, serial[i].workload);
    expect_observables_equal(forked[i], serial[i], forked[i].label);
    EXPECT_EQ(forked[i].events, serial[i].events);
    EXPECT_EQ(forked[i].bridges, serial[i].bridges);
    EXPECT_EQ(forked[i].hosts, serial[i].hosts);
#if defined(__linux__)
    // Each forked cell reports its own process's peak, not a predecessor's.
    EXPECT_GT(forked[i].peak_rss_bytes, 0u);
#endif
  }
}

}  // namespace
}  // namespace ab::apps
