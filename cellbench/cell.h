// One benchmark cell, driven phase by phase through the simulator's public
// calls: topology build, runner construction, the STP convergence window,
// the traffic window (Workload::run on a WorkloadContext filled in here),
// and collection. Each phase is timed from outside, and every layer's
// public counters are read into one flat snapshot (Counters) after the run
// -- and, in a traced run, at both ends of every phase span.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/scenario.h"
#include "src/netsim/network.h"

namespace cellbench {

/// Everything that defines one cell: the topology, how it is executed, and
/// the traffic that runs on it.
struct CellConfig {
  std::string workload;
  int graph = 0;  ///< index of this cell in its workload's batch
  ab::netsim::TopologySpec spec;
  /// 0 runs the cell on one scheduler (build_topology + Scheduler);
  /// >= 1 splits it into that many regions (build_sharded_topology +
  /// ParallelRunner).
  int regions = 0;
  int threads = 1;
  ab::apps::SweepOptions sweep;  ///< convergence and traffic windows
  bool aggregate = true;         ///< AggregateHostWorkload, else TtcpStreamWorkload
  ab::apps::AggregateHostWorkload::Options aggregate_options;
  ab::apps::TtcpStreamWorkload::Options ttcp_options;
};

/// k-regular graphs one bridged_tcp run measures. Each graph is a different
/// input with its own frame count and its own stream stalls, so a run pools
/// several: one graph alone would make the run's figures follow the seed.
inline constexpr int kTcpGraphs = 8;

/// The cells one run of `workload` at `seed` measures, in order: the one
/// station cell, or bridged_tcp's kTcpGraphs graphs -- the first picked by
/// `seed` itself, the rest by seeds derived from it. `tiny` selects small
/// cells of the same kind (the benchmark's own tests). Throws
/// std::invalid_argument for an unknown workload name.
[[nodiscard]] std::vector<CellConfig> make_batch(std::string_view workload,
                                                 std::uint64_t seed, bool tiny);

/// Every per-layer counter, summed over the cell. Plain counts only:
/// deterministic for a given cell and seed.
struct Counters {
  // LAN (src/netsim/lan): summed per global segment, each frame counted once.
  std::uint64_t lan_frames = 0;
  std::uint64_t lan_bytes = 0;
  std::uint64_t lan_lost = 0;
  // NIC (src/netsim/nic): every attached NIC, bridge ports included.
  std::uint64_t nic_deliveries = 0;  ///< Nic::deliver calls
  std::uint64_t nic_rx_frames = 0;   ///< passed the address filter
  std::uint64_t nic_rx_filtered = 0;
  std::uint64_t nic_tx_frames = 0;
  std::uint64_t nic_tx_dropped = 0;
  // Host stack (src/stack).
  std::uint64_t stack_rx_frames = 0;  ///< frames handed to a HostStack
  std::uint64_t arp_requests = 0;
  std::uint64_t arp_replies = 0;
  std::uint64_t echo_answered = 0;
  std::uint64_t tcp_delivered = 0;
  std::uint64_t parse_errors = 0;
  // Bridge (src/bridge: forwarding plane, learning, STP).
  std::uint64_t bridge_frames_in = 0;
  std::uint64_t bridge_flooded = 0;
  std::uint64_t bridge_directed = 0;
  std::uint64_t learning_hits = 0;
  std::uint64_t learning_lookups = 0;  ///< hits + floods + filtered
  std::uint64_t learning_entries = 0;
  std::uint64_t stp_configs_sent = 0;
  std::uint64_t stp_blocked_ports = 0;
  // Scheduler (src/netsim/scheduler), summed over shards.
  std::uint64_t sched_events = 0;
  std::uint64_t sched_inserts = 0;
  std::uint64_t sched_scheduled = 0;
  // Parallel runner (src/netsim/parallel_runner, shard).
  std::uint64_t runner_rounds = 0;
  std::uint64_t runner_spills = 0;
  // Arenas (src/netsim/arena): bump-pointer bytes in use.
  std::uint64_t arena_bytes = 0;

  /// Calls fn(name, value) for every field, in declaration order.
  template <class Fn>
  void visit(Fn&& fn) const {
    fields(*this, fn);
  }

  Counters& operator+=(const Counters& other) {
    std::vector<std::uint64_t> values;
    other.visit([&values](const char*, std::uint64_t v) { values.push_back(v); });
    std::size_t i = 0;
    fields(*this, [&](const char*, std::uint64_t& v) { v += values[i++]; });
    return *this;
  }

  friend bool operator==(const Counters&, const Counters&) = default;

 private:
  template <class Self, class Fn>
  static void fields(Self& self, Fn&& fn) {
    fn("lan_frames", self.lan_frames);
    fn("lan_bytes", self.lan_bytes);
    fn("lan_lost", self.lan_lost);
    fn("nic_deliveries", self.nic_deliveries);
    fn("nic_rx_frames", self.nic_rx_frames);
    fn("nic_rx_filtered", self.nic_rx_filtered);
    fn("nic_tx_frames", self.nic_tx_frames);
    fn("nic_tx_dropped", self.nic_tx_dropped);
    fn("stack_rx_frames", self.stack_rx_frames);
    fn("arp_requests", self.arp_requests);
    fn("arp_replies", self.arp_replies);
    fn("echo_answered", self.echo_answered);
    fn("tcp_delivered", self.tcp_delivered);
    fn("parse_errors", self.parse_errors);
    fn("bridge_frames_in", self.bridge_frames_in);
    fn("bridge_flooded", self.bridge_flooded);
    fn("bridge_directed", self.bridge_directed);
    fn("learning_hits", self.learning_hits);
    fn("learning_lookups", self.learning_lookups);
    fn("learning_entries", self.learning_entries);
    fn("stp_configs_sent", self.stp_configs_sent);
    fn("stp_blocked_ports", self.stp_blocked_ports);
    fn("sched_events", self.sched_events);
    fn("sched_inserts", self.sched_inserts);
    fn("sched_scheduled", self.sched_scheduled);
    fn("runner_rounds", self.runner_rounds);
    fn("runner_spills", self.runner_spills);
    fn("arena_bytes", self.arena_bytes);
  }
};

/// One traced phase: host and virtual start/end, the span that contains
/// it, and the counters at both ends.
struct Span {
  std::string name;
  int rep = 0;
  int graph = 0;  ///< the cell's index in its workload's batch
  int parent = -1;  ///< index into the span list; -1 for a cell's root span
  double host_start_s = 0.0;  ///< seconds since the tracer was created
  double host_end_s = 0.0;
  double virt_start_s = 0.0;  ///< simulated seconds
  double virt_end_s = 0.0;
  Counters start;
  Counters end;
};

/// Keeps spans in memory; written out once, when the run ends.
class Tracer {
 public:
  Tracer();
  [[nodiscard]] int open(std::string name, int rep, int graph, int parent,
                         double virt_s, const Counters& at);
  void close(int span, double virt_s, const Counters& at);
  /// Writes every span as a JSON array. Returns false if the file cannot
  /// be written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  std::int64_t epoch_ns_ = 0;
  std::vector<Span> spans_;
};

/// What one run of a cell produced.
struct CellRun {
  // Host time per phase, seconds.
  double setup_s = 0.0;     ///< build + runner construction
  double converge_s = 0.0;  ///< convergence window
  double traffic_s = 0.0;   ///< Workload::run
  double sim_s = 0.0;       ///< end of set-up to end of traffic
  double virtual_s = 0.0;   ///< simulated seconds at the end of traffic

  std::uint64_t stations = 0;
  std::uint64_t build_arena_bytes = 0;  ///< arena bytes in use after build
  bool stp_converged = false;

  /// Operations: pings sent plus streams started; a ping fails when it
  /// goes unanswered, a stream when it has not delivered every byte.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t tcp_retransmits = 0;

  Counters counters;  ///< after the traffic window
  /// Model outputs: frames/bytes/losses per LAN, NIC deliveries, MAC
  /// entries, blocked ports, pings sent/answered, bytes per stream. Never
  /// scheduler internals, which a speed-only change may alter.
  std::vector<std::uint64_t> outputs;
  std::vector<std::string> failures;  ///< one line per failed operation

  /// FNV-1a over `outputs`.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Builds the cell and constructs its runner, then tears both down.
/// Returns {build seconds, setup seconds}.
[[nodiscard]] std::pair<double, double> setup_only(const CellConfig& config);

/// Runs the cell through every phase. With a tracer, records the cell's
/// phase spans (tagged `rep`) with counter snapshots at both ends.
[[nodiscard]] CellRun run_cell(const CellConfig& config, Tracer* tracer, int rep);

}  // namespace cellbench
