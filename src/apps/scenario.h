// ScenarioRunner: drive a whole simulation from a small text description --
// the front door for a user who wants to try topologies without writing
// C++. Used by the `scenario_sim` example and the scenario tests.
//
// TopologySweep (below) is the batch counterpart: build each TopologySpec
// of a grid in a fresh Network, wait out STP convergence, then hand the
// running extended LAN to a pluggable Workload and collect per-cell stats
// -- events/sec, wall time, convergence, table sizes, plus whatever the
// workload measured -- for benches and capacity planning.
//
// Three workloads ship here:
//   * FloodPingWorkload  -- broadcast burst + neighbor pings (learning);
//   * TtcpStreamWorkload -- K concurrent ttcp sender/sink pairs placed
//     across LANs, per-stream goodput and loss (the paper's fig. 10
//     traffic, scaled out);
//   * RolloutWorkload    -- the paper's section 5.2 staged deployment: an
//     admin host TFTPs a new switchlet generation to every bridge's
//     network loader, nearest stage first, mid-traffic, measuring
//     per-bridge load time and old- vs new-code frame counts.
//
// How to add a workload:
//
//   class JitterWorkload final : public Workload {
//    public:
//     std::string_view name() const override { return "jitter"; }
//     void run(WorkloadContext& ctx, SweepResult& r) override {
//       // 1. place apps on ctx.host(i) (schedule per-host work on
//       //    ctx.host(i).scheduler() -- in a sharded cell each shard has
//       //    its own clock);
//       // 2. drive traffic: ctx.advance(ctx.options.traffic_window);
//       // 3. record what you measured into `r` (reuse streams/rollout or
//       //    the core counters).
//     }
//   };
//   ...
//   JitterWorkload jitter;
//   auto cells = TopologySweep(opts).run_grid(grid, jitter);
//
// The sweep owns topology construction, convergence, and the cost
// accounting; the workload owns everything that happens on the wire during
// the traffic window.
//
// Grammar (one directive per line; '#' starts a comment):
//
//   segment <name> [rate=<bits/s>] [loss=<probability>]
//   bridge  <name> <segment> <segment> [cost=ideal|repeater|caml]
//           [modules=dumb,learning,ieee|dec|multitree,monitor]
//   host    <name> <segment> <dotted-quad-ip>
//   pcap    <segment> <file-path>
//   ping    <src-host> <dst-host> [count=N] [size=BYTES] [interval_ms=MS] [at=SEC]
//   ttcp    <src-host> <dst-host> [bytes=N[K|M]] [write=BYTES] [at=SEC]
//   run     <seconds>
//
// Measurements are scheduled at their `at=` time; `run` advances virtual
// time; the final report summarizes every measurement and bridge.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/apps/ping.h"
#include "src/apps/ttcp.h"
#include "src/bridge/bridge_node.h"
#include "src/bridge/sharded_topology.h"
#include "src/bridge/topology.h"
#include "src/netsim/network.h"
#include "src/netsim/parallel_runner.h"
#include "src/netsim/pcap.h"
#include "src/stack/host_stack.h"
#include "src/util/result.h"

namespace ab::apps {

class ScenarioRunner {
 public:
  ScenarioRunner() = default;

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Parses and executes a scenario. Returns the textual report, or a
  /// parse/semantic error naming the offending line.
  [[nodiscard]] util::Expected<std::string, std::string> run_text(
      const std::string& config);

  // ---- inspection (tests) ----
  [[nodiscard]] netsim::Network& network() { return net_; }
  [[nodiscard]] stack::HostStack* find_host(const std::string& name);
  [[nodiscard]] bridge::BridgeNode* find_bridge(const std::string& name);

 private:
  struct NamedHost {
    std::string name;
    std::unique_ptr<stack::HostStack> stack;
  };
  struct NamedBridge {
    std::string name;
    std::unique_ptr<bridge::BridgeNode> node;
  };
  struct PingJob {
    std::string label;
    std::unique_ptr<PingApp> app;
  };
  struct TtcpJob {
    std::string label;
    std::size_t total_bytes = 0;
    std::unique_ptr<TtcpSink> sink;
    std::unique_ptr<TtcpSender> sender;
  };

  [[nodiscard]] util::Expected<bool, std::string> execute_line(
      const std::string& line, int line_number);

  netsim::Network net_;
  std::vector<NamedHost> hosts_;
  std::vector<NamedBridge> bridges_;
  std::vector<PingJob> pings_;
  std::vector<TtcpJob> ttcps_;
  std::vector<std::unique_ptr<netsim::PcapWriter>> pcaps_;
  std::uint16_t next_ttcp_port_ = 5001;
};

// ---------------------------------------------------------------------------
// Topology sweeps

/// One ttcp stream's outcome inside a sweep cell.
struct StreamResult {
  std::string label;              ///< "host3_0 -> host9_1"
  std::size_t bytes_sent = 0;     ///< payload bytes the sender issued
  std::size_t bytes_received = 0; ///< payload bytes the sink completed
  /// UDP: datagrams the sink reassembled. TCP: segments the sink's
  /// connection received.
  std::size_t datagrams = 0;
  double goodput_mbps = 0.0;      ///< sink goodput, first to last byte
  double loss_fraction = 0.0;     ///< 1 - received/sent
  std::uint64_t retransmits = 0;  ///< TCP only: sender retransmissions
  std::uint64_t cwnd_final = 0;   ///< TCP only: sender cwnd at cell end
};

/// One bridge's outcome in a staged switchlet rollout.
struct RolloutStepResult {
  std::string bridge;        ///< node name ("bridge3")
  int stage = 0;             ///< BFS distance from the admin's LAN
  bool ok = false;           ///< the image loaded and started
  int attempts = 0;          ///< TFTP attempts the deployer needed
  double load_ms = 0.0;      ///< request leaving admin -> switchlet running
  /// Frames the bridge's plane had forwarded when the new generation took
  /// over (work done by the old code)...
  std::uint64_t frames_before_load = 0;
  /// ...and frames the freshly loaded generation itself processed after.
  std::uint64_t frames_after_load = 0;
  std::uint64_t bytes_pushed = 0;  ///< image bytes the loader received
};

/// One measured cell of a topology sweep.
struct SweepResult {
  netsim::TopologySpec spec;
  std::string label;
  std::string workload;  ///< name() of the workload that drove the cell

  // topology size
  int bridges = 0;
  int lans = 0;
  int hosts = 0;
  int ports = 0;

  // spanning-tree outcome
  bool stp_converged = false;
  int blocked_ports = 0;
  int forwarding_ports = 0;

  // workload outcome (core counters every workload shares)
  std::uint64_t frames_carried = 0;
  std::uint64_t bytes_carried = 0;
  std::uint64_t frames_lost = 0;
  /// Nic::deliver calls the cell's segments made (LanStats::visits): the
  /// delivery work addressed delivery leaves, where NicStats count every
  /// frame each NIC heard.
  std::uint64_t lan_visits = 0;
  std::size_t mac_entries = 0;
  int pings_sent = 0;
  int pings_answered = 0;

  // workload outcome (per-workload detail; empty unless that workload ran)
  std::vector<StreamResult> streams;        ///< TtcpStreamWorkload
  std::vector<RolloutStepResult> rollout;   ///< RolloutWorkload

  // cost
  std::uint64_t events = 0;      ///< scheduler events executed for the cell
  /// Scheduler heap inserts the cell performed, against what the same
  /// event program costs when every entry is its own insert
  /// (scheduled_entries): their ratio is the transmit-path batching win.
  std::uint64_t heap_inserts = 0;
  std::uint64_t scheduled_entries = 0;
  double virtual_seconds = 0.0;  ///< simulated time elapsed
  double wall_seconds = 0.0;     ///< real time the cell took
  double events_per_sec = 0.0;   ///< events / wall_seconds

  // parallel-runner rounds (sharded path only; 0 on the single-Network path)
  std::uint64_t runner_rounds = 0;
  std::uint64_t inline_rounds = 0;  ///< rounds with at most one busy shard
  bool runner_spins = false;        ///< waiters spun before parking

  // station-scale cost (the million-station cell's acceptance columns)
  double build_ms = 0.0;              ///< build_topology wall time
  std::uint64_t peak_rss_bytes = 0;   ///< process peak RSS at cell end
  /// Resident-set growth across build_topology divided by the station
  /// count -- the marginal memory an idle station costs (0 when the
  /// platform exposes no RSS, or when reclaimed pages hide the delta).
  double bytes_per_station = 0.0;

  /// Sum of per-stream goodputs (0 when no streams ran).
  [[nodiscard]] double total_goodput_mbps() const;
  /// scheduled_entries / heap_inserts -- how many entries the average
  /// insert carried (1.0 with nothing batched; 0 when nothing ran).
  [[nodiscard]] double insert_reduction() const;
  /// True when every rollout step loaded OK (false when none ran).
  [[nodiscard]] bool rollout_ok() const;
};

/// Knobs shared by every cell of a sweep.
struct SweepOptions {
  /// Simulated settle time before traffic (2 x forward delay + margin when
  /// STP is on).
  netsim::Duration convergence_window = netsim::seconds(45);
  /// Simulated time the workload runs.
  netsim::Duration traffic_window = netsim::seconds(5);
  /// Broadcast frames injected on lan0 after convergence (flood workload).
  int probe_broadcasts = 10;
  /// Every host pings its successor host (learning + directed workload).
  bool neighbor_pings = true;
  /// Worker threads driving a sharded cell. 1 (the default) with
  /// shard_regions == 0 keeps the original single-Network path.
  int threads = 1;
  /// Regions for the sharded build: 0 derives it from `threads`, >= 1
  /// forces the sharded path with exactly that many regions (1 region is
  /// the sharded machinery on a single scheduler -- the parity baseline
  /// the seed-stability test pins against the legacy path).
  int shard_regions = 0;
  /// run_grid: build and measure each cell in its OWN forked worker
  /// process (Linux only; elsewhere it falls back to in-process cells).
  /// Besides the wall-clock win, per-cell processes give every cell a
  /// fresh getrusage peak and untouched pages, so peak_rss_bytes and
  /// bytes_per_station measure THAT cell instead of whichever earlier
  /// cell in the process was biggest.
  bool fork_cells = false;
  /// Concurrent forked cells (0: hardware concurrency).
  int max_parallel_cells = 0;
  bridge::BridgeNodeConfig node_config;
  bridge::TopologyBuildOptions build;
};

/// Everything a Workload may touch while driving one built, converged
/// cell. Owned by run_cell; valid only for the duration of Workload::run.
///
/// The context abstracts over the two execution modes -- a single-Network
/// cell (one scheduler) and a sharded cell (one scheduler per region,
/// advanced by a ParallelRunner). Mode-agnostic workloads use the unified
/// views below and advance() and run identically, bit for bit, in both
/// modes; single-mode workloads grab net()/topo() and throw when handed a
/// sharded cell.
struct WorkloadContext {
  const SweepOptions& options;

  // Exactly one mode is populated by run_cell.
  netsim::Network* single_net = nullptr;
  bridge::BridgedTopology* single_topo = nullptr;
  bridge::ShardedTopology* sharded = nullptr;
  netsim::ParallelRunner* runner = nullptr;

  [[nodiscard]] bool is_sharded() const { return sharded != nullptr; }

  // ---- mode-agnostic views ----
  [[nodiscard]] std::size_t host_count() const;
  /// Host at global attachment ordinal `i` (oracle order in both modes).
  [[nodiscard]] stack::HostStack& host(std::size_t i) const;
  /// Where host ordinal `i` attaches (global plan, both modes).
  [[nodiscard]] const netsim::Topology::HostAttach& host_attach(std::size_t i) const;
  [[nodiscard]] std::size_t lan_count() const;
  /// NICs attached to global LAN `l` (summed over replicas when sharded).
  [[nodiscard]] std::size_t lan_attached_count(std::size_t l) const;
  /// Creates a workload-owned station NIC on global LAN `l` (the owning
  /// region's replica when sharded). MAC assignment continues the cell's
  /// global counter, so sharded and single-Network cells stay
  /// address-identical.
  [[nodiscard]] netsim::Nic& add_station_nic(const std::string& name,
                                             std::size_t l) const;
  /// Advances virtual time: the single scheduler, or every shard in
  /// conservative lockstep windows.
  void advance(netsim::Duration d) const;

  // ---- single-Network-only accessors ----
  /// Throws std::logic_error (kSingleNetworkOnlyMessage) when the cell is
  /// sharded: workloads that reach for the global Network/topology (the
  /// staged rollout's BFS deployment) have not been taught shard
  /// ownership yet.
  [[nodiscard]] netsim::Network& net() const;
  [[nodiscard]] bridge::BridgedTopology& topo() const;
};

/// The exact refusal a single-Network-only workload throws on a sharded
/// cell. Shared with the rollout-pin test so the wording changes in one
/// place when a workload graduates to shard awareness (as the aggregate
/// workload did).
inline constexpr const char* kSingleNetworkOnlyMessage =
    "this workload drives the global Network directly and only supports "
    "single-Network cells (SweepOptions::threads == 1, shard_regions == 0)";

/// A traffic pattern the sweep drives over each built topology. Implement
/// run() to place apps, advance the scheduler through the traffic window,
/// and record what you measured (see the "How to add a workload" example
/// at the top of this header). Workloads are reused across cells, so keep
/// per-cell state local to run().
class Workload {
 public:
  virtual ~Workload() = default;

  /// Stable tag recorded into SweepResult::workload and the bench JSON.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Drive traffic over a built topology (already converged for
  /// options.convergence_window) and fill the workload fields of `result`.
  /// The implementation advances virtual time itself via ctx.advance().
  ///
  /// Lifetime contract: run_cell never advances the schedulers after run()
  /// returns, so apps owned by the workload (senders, deployers, extra
  /// hosts) may live on run()'s stack even if their timers are still
  /// queued when it returns. A workload that itself runs other workloads
  /// (or otherwise advances the schedulers after inner apps are destroyed)
  /// must cancel or outlive those apps' pending callbacks.
  ///
  /// Sharded cells: during ctx.advance() each host's callbacks run on its
  /// shard's worker thread. Place per-host state so no two hosts on
  /// different shards share a mutable location (e.g. one counter slot per
  /// host, summed after advance() -- see FloodPingWorkload).
  virtual void run(WorkloadContext& ctx, SweepResult& result) = 0;
};

/// The original canned workload: a broadcast burst from a probe NIC on
/// lan0, then every host pings its successor (populates MAC tables, then
/// rides directed forwarding). Knobs come from SweepOptions.
class FloodPingWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "flood+pings"; }
  void run(WorkloadContext& ctx, SweepResult& result) override;
};

/// K concurrent ttcp streams placed across LANs (sender and sink on
/// different segments whenever the topology has enough hosts). Fills
/// SweepResult::streams.
class TtcpStreamWorkload final : public Workload {
 public:
  /// Where each stream's sender and sink land (the ROADMAP "stream
  /// placement strategies" knob).
  enum class Placement {
    /// Pair host s with the host half the population away: with lan-major
    /// host ordering that crosses LANs whenever more than one segment is
    /// populated. The original default.
    kPaired,
    /// Every sink sits on the busiest segment (the one with the most
    /// attached stations -- a scale-free shape's hub), senders drawn from
    /// the other LANs: all streams converge on the hub's links, the
    /// bottleneck DEC-TR-592's skewed destination locality predicts.
    kHubTargeted,
    /// Round-robin over distinct (sender, sink) pairs: sender s % H with
    /// sink advanced by a growing stride, so successive streams cover
    /// different pairs instead of re-running one pairing.
    kAllPairs,
  };

  /// Which transport carries the streams.
  enum class Transport {
    kUdp,  ///< the paper's original blast (loss shows as missing datagrams)
    kTcp,  ///< real connections (loss shows as retransmits + cwnd cuts)
  };

  struct Options {
    int streams = 4;                       ///< concurrent sender/sink pairs
    std::size_t bytes_per_stream = 256 * 1024;
    std::size_t write_size = 8192;         ///< the paper's 8 KB writes
    /// Successive streams start this far apart (ARP staggering).
    netsim::Duration stagger = netsim::milliseconds(10);
    Placement placement = Placement::kPaired;
    Transport transport = Transport::kUdp;
    /// kTcp only: application write pacing per stream in bits/s (the
    /// offered-load knob of the incast bench); 0 queues the whole stream
    /// at connect time and lets the congestion window clock the wire.
    double offered_rate_bps = 0.0;
  };

  TtcpStreamWorkload() = default;
  explicit TtcpStreamWorkload(Options options) : options_(options) {}

  [[nodiscard]] std::string_view name() const override { return "ttcp-streams"; }
  void run(WorkloadContext& ctx, SweepResult& result) override;

 private:
  Options options_;
};

/// The million-station workload. A big cell's stations are almost all
/// idle: they hold addresses, occupy LAN attachment points, and answer
/// nothing -- their cost is memory, not traffic. Driving each one as a
/// first-class app (FloodPingWorkload pings EVERY host) is what caps
/// sweep cells at a few thousand stations. This workload keeps a handful
/// of REAL talkers per LAN (neighbor pings + one cross-LAN ttcp stream,
/// the flood+pings+ttcp mix of the other workloads) and models the idle
/// majority's background chatter -- ARP who-has + a ping toward the LAN's
/// first talker -- by replaying pre-encoded frames in a seeded SAMPLE of
/// the idle stations' names from ONE generator NIC per LAN.
///
/// The aggregate path is counter-equivalent to materializing the same
/// background from each sampled station's own NIC: the frames, their
/// timestamps, the bridges' learned tables, and every scheduler/LAN
/// counter match exactly on loss-free segments, because the only
/// difference is which NIC clocked the frame onto the wire and
/// background_gap keeps the generator's transmitter idle between frames
/// (no queueing skew). `materialize_background` flips to the reference
/// model so tests can assert the equivalence on small cells.
///
/// Shard-aware: the workload runs mode-agnostically. The background
/// sample is drawn from ONE seeded RNG walking LANs in global order (so
/// sharded and single cells sample identical stations); each LAN's
/// generator NIC is created on the LAN's owning region, and its replay is
/// scheduled on that region's clock (any host of the LAN lives there).
/// Talker pings use one answer slot per talker, and the cross-LAN ttcp
/// stream rides the mailbox path when its endpoints land on different
/// regions. On tie-free cells the sharded observables match the
/// single-scheduler oracle bit for bit.
class AggregateHostWorkload final : public Workload {
 public:
  struct Options {
    /// Real conversing stations per LAN (the first K host ordinals).
    int talkers_per_lan = 2;
    /// Idle stations per LAN whose chatter is modeled, sampled by seed.
    int background_per_lan = 16;
    /// Spacing between a LAN's consecutive background frames. Must exceed
    /// the frames' serialization time so the one generator NIC never
    /// queues (that idleness is what makes aggregate == materialized).
    netsim::Duration background_gap = netsim::milliseconds(4);
    /// Background starts this far into the traffic window (lets the
    /// talker ping/ARP flurry settle first).
    netsim::Duration background_start = netsim::milliseconds(100);
    /// Seeds the background sample. Same seed, same cell -> bit-identical
    /// counters.
    std::uint64_t seed = 1;
    /// Replay each background frame from its own station's NIC instead of
    /// the per-LAN generator (the fully-materialized reference model).
    bool materialize_background = false;
    /// Broadcast burst from a probe NIC on lan0 (0 disables).
    int probe_broadcasts = 4;
    /// One ttcp stream between the first talkers of two LANs (0 disables).
    std::size_t ttcp_bytes = 64 * 1024;
    std::size_t write_size = 8192;  ///< the paper's 8 KB writes
  };

  AggregateHostWorkload() = default;
  explicit AggregateHostWorkload(Options options) : options_(options) {}

  [[nodiscard]] std::string_view name() const override { return "aggregate-hosts"; }
  void run(WorkloadContext& ctx, SweepResult& result) override;

 private:
  Options options_;
};

/// The paper's section 5.2 staged deployment, replayed as a workload: an
/// admin host on lan0 pushes a named switchlet image to every bridge's
/// network loader -- bridges nearest the admin first, the stage growing
/// with BFS distance exactly as the paper grows the extended LAN's
/// diameter -- while background pings keep frames moving. Requires
/// SweepOptions::build.netloader (throws std::logic_error otherwise).
/// Fills SweepResult::rollout.
class RolloutWorkload final : public Workload {
 public:
  struct Options {
    /// Named image every bridge's registry can resolve.
    std::string image = "bridge.monitor";
    /// Padding appended to the image (simulated code size; drives TFTP
    /// transfer time like bench/sec75_load_time).
    std::size_t payload_padding = 4096;
    /// Hosts pinging their successor during the rollout, capped so
    /// thousand-station cells don't drown the deployment being measured.
    int max_background_pairs = 32;
    netsim::Duration ping_interval = netsim::milliseconds(500);
  };

  RolloutWorkload() = default;
  explicit RolloutWorkload(Options options) : options_(std::move(options)) {}

  [[nodiscard]] std::string_view name() const override { return "rollout"; }
  void run(WorkloadContext& ctx, SweepResult& result) override;

 private:
  Options options_;
};

/// Builds each cell of a grid in a fresh Network, converges it, and hands
/// it to a Workload (FloodPingWorkload when none is given).
class TopologySweep {
 public:
  explicit TopologySweep(SweepOptions options = {}) : options_(std::move(options)) {}

  /// Builds one cell, drives the default flood+pings workload, measures.
  [[nodiscard]] SweepResult run_cell(const netsim::TopologySpec& spec);

  /// Builds one cell, drives `workload`, measures.
  [[nodiscard]] SweepResult run_cell(const netsim::TopologySpec& spec,
                                     Workload& workload);

  /// run_cell over every spec, in order, with the default workload.
  [[nodiscard]] std::vector<SweepResult> run_grid(
      const std::vector<netsim::TopologySpec>& grid);

  /// run_cell over every spec, in order, with `workload`.
  [[nodiscard]] std::vector<SweepResult> run_grid(
      const std::vector<netsim::TopologySpec>& grid, Workload& workload);

  /// Cross product helper: every shape x every node count, fixed hosts.
  [[nodiscard]] static std::vector<netsim::TopologySpec> make_grid(
      const std::vector<netsim::TopologyShape>& shapes,
      const std::vector<int>& node_counts, int hosts_per_lan);

  /// Human-readable summary table.
  [[nodiscard]] static std::string format_table(const std::vector<SweepResult>& cells);

  /// JSON array for BENCH_*.json trajectories; stream and rollout detail
  /// is emitted for cells that carry it.
  [[nodiscard]] static std::string format_json(const std::vector<SweepResult>& cells);

 private:
  /// The original path: one Network, one scheduler.
  [[nodiscard]] SweepResult run_cell_single(const netsim::TopologySpec& spec,
                                            Workload& workload);
  /// The sharded path: per-region Networks under a ParallelRunner.
  [[nodiscard]] SweepResult run_cell_sharded(const netsim::TopologySpec& spec,
                                             Workload& workload);
  /// Fork-per-cell grid executor (Linux; see SweepOptions::fork_cells).
  [[nodiscard]] std::vector<SweepResult> run_grid_forked(
      const std::vector<netsim::TopologySpec>& grid, Workload& workload);

  SweepOptions options_;
};

}  // namespace ab::apps
