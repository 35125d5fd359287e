#include "cellbench/cell.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "src/bridge/learning.h"
#include "src/bridge/sharded_topology.h"
#include "src/bridge/stp_switchlet.h"
#include "src/bridge/topology.h"
#include "src/netsim/parallel_runner.h"

namespace cellbench {

namespace netsim = ab::netsim;
namespace bridge = ab::bridge;
namespace apps = ab::apps;

namespace {

CellConfig make_cell(std::string_view workload, std::uint64_t seed, bool tiny) {
  CellConfig c;
  c.workload = std::string(workload);
  c.spec.seed = seed;
  if (workload == "station_star" || workload == "sharded_station") {
    // star-8x25000: 225k stations on 9 LANs under the aggregate workload's
    // defaults; the seed picks the background sample.
    c.spec.shape = netsim::TopologyShape::kStar;
    c.spec.nodes = tiny ? 4 : 8;
    c.spec.hosts_per_lan = tiny ? 60 : 25000;
    c.aggregate = true;
    c.aggregate_options.seed = seed;
    if (workload == "sharded_station") {
      c.regions = tiny ? 4 : 8;
      c.threads = 2;
    }
  } else if (workload == "bridged_tcp") {
    // kregular-32x4-d4: 64 LANs of 4 stations, every stream crossing
    // several learning bridges; the seed picks the graph.
    c.spec.shape = netsim::TopologyShape::kRandomKRegular;
    c.spec.nodes = tiny ? 8 : 32;
    c.spec.degree = tiny ? 3 : 4;
    c.spec.hosts_per_lan = tiny ? 2 : 4;
    c.aggregate = false;
    c.ttcp_options.streams = tiny ? 4 : 16;
    c.ttcp_options.bytes_per_stream = tiny ? 256 * 1024 : 8 * 1024 * 1024;
    c.ttcp_options.placement = apps::TtcpStreamWorkload::Placement::kPaired;
    c.ttcp_options.transport = apps::TtcpStreamWorkload::Transport::kTcp;
    c.sweep.traffic_window = netsim::seconds(tiny ? 5 : 20);
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(workload));
  }
  return c;
}

/// SplitMix64's finalizer: spreads the derived graph seeds apart.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<CellConfig> make_batch(std::string_view workload, std::uint64_t seed,
                                   bool tiny) {
  std::vector<CellConfig> batch{make_cell(workload, seed, tiny)};
  if (workload == "bridged_tcp") {
    for (int g = 1; g < kTcpGraphs; ++g) {
      batch.push_back(make_cell(workload, mix(seed * kTcpGraphs + g), tiny));
      batch.back().graph = g;
    }
  }
  return batch;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A built cell: one Network and BridgedTopology, or a ShardedTopology and
/// its ParallelRunner. Members are declared so teardown runs runner, then
/// topology, then Network -- the order run_cell_single/sharded use.
struct LiveCell {
  std::unique_ptr<netsim::Network> net;
  std::optional<bridge::BridgedTopology> topo;
  std::optional<bridge::ShardedTopology> sharded;
  std::unique_ptr<netsim::ParallelRunner> runner;

  // Views filled by build().
  std::vector<bridge::BridgeNode*> bridges;
  std::span<ab::stack::HostStack* const> hosts;
  std::vector<netsim::Scheduler*> schedulers;
  std::vector<netsim::LanSegment*> segments;  ///< every segment or replica
  std::vector<netsim::Arena*> arenas;

  [[nodiscard]] double virtual_s() const {
    return schedulers.empty()
               ? 0.0
               : netsim::to_seconds(schedulers.front()->now().time_since_epoch());
  }

  [[nodiscard]] std::size_t lan_count() const {
    if (topo) return topo->shape.lans.size();
    return sharded ? sharded->lan_count() : 0;
  }

  [[nodiscard]] netsim::LanStats lan_stats(std::size_t l) const {
    return topo ? topo->shape.lans[l]->stats() : sharded->lan_stats(l);
  }

  [[nodiscard]] std::uint64_t arena_bytes() const {
    std::uint64_t bytes = 0;
    for (const netsim::Arena* a : arenas) bytes += a->stats().bytes_used;
    return bytes;
  }

  void advance(netsim::Duration d) {
    if (runner) {
      runner->run_for(d);
    } else {
      net->scheduler().run_for(d);
    }
  }
};

void build(const CellConfig& c, LiveCell& cell) {
  if (c.regions == 0) {
    cell.net = std::make_unique<netsim::Network>();
    bridge::BridgedTopology& topo = cell.topo.emplace(bridge::build_topology(
        *cell.net, c.spec, c.sweep.node_config, c.sweep.build));
    for (const auto& b : topo.bridges) cell.bridges.push_back(b.get());
    cell.hosts = topo.hosts;
    cell.schedulers.push_back(&cell.net->scheduler());
    cell.segments = topo.shape.lans;
    cell.arenas.push_back(topo.arena.get());
    return;
  }
  bridge::ShardedTopology& topo = cell.sharded.emplace(bridge::build_sharded_topology(
      c.spec, c.regions, c.sweep.node_config, c.sweep.build));
  cell.bridges = topo.bridges;
  cell.hosts = topo.hosts;
  for (const auto& region : topo.regions) {
    cell.schedulers.push_back(&region->net.scheduler());
    cell.arenas.push_back(&region->arena);
    for (netsim::LanSegment* replica : region->replicas) {
      if (replica != nullptr) cell.segments.push_back(replica);
    }
  }
}

/// Sharded cells only: the runner that advances the region schedulers.
void construct_runner(const CellConfig& c, LiveCell& cell) {
  if (!cell.sharded) return;
  netsim::ParallelRunner::Options options;
  options.threads = c.threads;
  options.lookahead = cell.sharded->plan.lookahead;
  cell.runner =
      std::make_unique<netsim::ParallelRunner>(cell.sharded->shard_handles(), options);
}

Counters snapshot(const LiveCell& cell) {
  Counters c;
  for (std::size_t l = 0; l < cell.lan_count(); ++l) {
    const netsim::LanStats s = cell.lan_stats(l);
    c.lan_frames += s.frames_carried;
    c.lan_bytes += s.bytes_carried;
    c.lan_lost += s.frames_lost;
  }
  for (const netsim::LanSegment* segment : cell.segments) {
    for (const netsim::Nic* nic : segment->attached()) {
      if (nic == nullptr) continue;
      const netsim::NicStats& s = nic->stats();
      c.nic_deliveries += s.rx_frames + s.rx_filtered + s.rx_bad;
      c.nic_rx_frames += s.rx_frames;
      c.nic_rx_filtered += s.rx_filtered;
      c.nic_tx_frames += s.tx_frames;
      c.nic_tx_dropped += s.tx_dropped;
    }
  }
  for (ab::stack::HostStack* host : cell.hosts) {
    const ab::stack::HostStats& s = host->stats();
    c.stack_rx_frames += host->nic().stats().rx_frames;
    c.arp_requests += s.arp_requests_sent;
    c.arp_replies += s.arp_replies_sent;
    c.echo_answered += s.echo_requests_answered;
    c.tcp_delivered += s.tcp_delivered;
    c.parse_errors += s.rx_parse_errors;
  }
  for (bridge::BridgeNode* b : cell.bridges) {
    const bridge::PlaneStats& plane = b->plane().stats();
    c.bridge_frames_in += plane.received;
    c.bridge_flooded += plane.flooded;
    c.bridge_directed += plane.directed;
    auto* learning = dynamic_cast<bridge::LearningBridgeSwitchlet*>(
        b->node().loader().find("bridge.learning"));
    if (learning != nullptr) {
      const bridge::LearningStats& s = learning->stats();
      c.learning_hits += s.hits;
      c.learning_lookups += s.hits + s.floods + s.filtered;
      c.learning_entries += learning->table().size();
    }
  }
  const std::span<bridge::BridgeNode* const> bridges(cell.bridges);
  for (const bridge::StpEngine* engine : bridge::stp_engines(bridges)) {
    c.stp_configs_sent += engine->stats().configs_sent;
  }
  c.stp_blocked_ports =
      static_cast<std::uint64_t>(bridge::count_gates(bridges, bridge::PortGate::kBlocked));
  for (const netsim::Scheduler* s : cell.schedulers) {
    c.sched_events += s->executed();
    c.sched_inserts += s->inserts();
    c.sched_scheduled += s->scheduled();
  }
  if (cell.runner) {
    c.runner_rounds = cell.runner->rounds();
    for (const auto& channel : cell.sharded->channels) c.runner_spills += channel->spilled();
  }
  c.arena_bytes = cell.arena_bytes();
  return c;
}

/// Opens and closes spans when a tracer is present; a no-op otherwise, so
/// the untraced run takes no snapshots.
class PhaseTrace {
 public:
  PhaseTrace(Tracer* tracer, int rep, int graph, const LiveCell& cell)
      : tracer_(tracer), rep_(rep), graph_(graph), cell_(&cell) {}
  int open(const char* name, int parent) {
    if (tracer_ == nullptr) return -1;
    return tracer_->open(name, rep_, graph_, parent, cell_->virtual_s(),
                         snapshot(*cell_));
  }
  void close(int span) {
    if (tracer_ != nullptr) tracer_->close(span, cell_->virtual_s(), snapshot(*cell_));
  }

 private:
  Tracer* tracer_;
  int rep_;
  int graph_;
  const LiveCell* cell_;
};

void collect_outputs(const CellConfig& config, const LiveCell& cell,
                     const apps::SweepResult& result, CellRun& run) {
  for (std::size_t l = 0; l < cell.lan_count(); ++l) {
    const netsim::LanStats s = cell.lan_stats(l);
    run.outputs.insert(run.outputs.end(),
                       {s.frames_carried, s.bytes_carried, s.frames_lost});
  }
  run.outputs.insert(run.outputs.end(),
                     {run.counters.nic_deliveries, run.counters.learning_entries,
                      run.counters.stp_blocked_ports,
                      static_cast<std::uint64_t>(result.pings_sent),
                      static_cast<std::uint64_t>(result.pings_answered)});

  const int pings_failed = result.pings_sent - result.pings_answered;
  run.attempted = static_cast<std::uint64_t>(result.pings_sent) + result.streams.size();
  if (pings_failed > 0) {
    run.failed += static_cast<std::uint64_t>(pings_failed);
    run.failures.push_back(std::to_string(pings_failed) + " of " +
                           std::to_string(result.pings_sent) + " pings unanswered");
  }
  const std::size_t expected = config.aggregate ? config.aggregate_options.ttcp_bytes
                                                : config.ttcp_options.bytes_per_stream;
  for (const apps::StreamResult& s : result.streams) {
    run.outputs.insert(run.outputs.end(), {s.bytes_sent, s.bytes_received});
    run.tcp_retransmits += s.retransmits;
    if (s.bytes_received < expected) {
      run.failed += 1;
      run.failures.push_back("stream " + s.label + " delivered " +
                             std::to_string(s.bytes_received) + " of " +
                             std::to_string(expected) + " bytes after " +
                             std::to_string(s.retransmits) + " retransmits");
    }
  }
}

}  // namespace

std::uint64_t CellRun::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t v : outputs) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

Tracer::Tracer()
    : epoch_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count()) {}

int Tracer::open(std::string name, int rep, int graph, int parent, double virt_s,
                 const Counters& at) {
  Span span;
  span.name = std::move(name);
  span.rep = rep;
  span.graph = graph;
  span.parent = parent;
  span.host_start_s = std::chrono::duration<double>(
                          Clock::now().time_since_epoch() -
                          std::chrono::nanoseconds(epoch_ns_))
                          .count();
  span.virt_start_s = virt_s;
  span.start = at;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span, double virt_s, const Counters& at) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.host_end_s = std::chrono::duration<double>(Clock::now().time_since_epoch() -
                                               std::chrono::nanoseconds(epoch_ns_))
                     .count();
  s.virt_end_s = virt_s;
  s.end = at;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto write_counters = [f](const Counters& c) {
    std::fputc('{', f);
    bool first = true;
    c.visit([&](const char* name, std::uint64_t v) {
      std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ", name,
                   static_cast<unsigned long long>(v));
      first = false;
    });
    std::fputc('}', f);
  };
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"rep\": %d, \"graph\": %d, "
                 "\"parent\": %d, \"host_start_s\": %.9f, \"host_end_s\": %.9f, "
                 "\"virt_start_s\": %.9f, \"virt_end_s\": %.9f,\n   \"start\": ",
                 i, s.name.c_str(), s.rep, s.graph, s.parent, s.host_start_s, s.host_end_s,
                 s.virt_start_s, s.virt_end_s);
    write_counters(s.start);
    std::fputs(",\n   \"end\": ", f);
    write_counters(s.end);
    std::fputs(i + 1 < spans_.size() ? "},\n" : "}\n", f);
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::pair<double, double> setup_only(const CellConfig& config) {
  LiveCell cell;
  const auto start = Clock::now();
  build(config, cell);
  const double build_s = seconds_since(start);
  construct_runner(config, cell);
  return {build_s, seconds_since(start)};
}

CellRun run_cell(const CellConfig& config, Tracer* tracer, int rep) {
  CellRun run;
  LiveCell cell;
  PhaseTrace trace(tracer, rep, config.graph, cell);

  const int root = trace.open("cell", -1);
  int span = trace.open("build", root);
  const auto setup_start = Clock::now();
  build(config, cell);
  trace.close(span);

  span = trace.open("runner", root);
  construct_runner(config, cell);
  run.setup_s = seconds_since(setup_start);
  trace.close(span);
  run.stations = cell.hosts.size();
  run.build_arena_bytes = cell.arena_bytes();

  const auto sim_start = Clock::now();
  span = trace.open("converge", root);
  cell.advance(config.sweep.convergence_window);
  run.stp_converged = cell.topo ? cell.topo->stp_converged() : cell.sharded->stp_converged();
  trace.close(span);
  run.converge_s = seconds_since(sim_start);

  const auto traffic_start = Clock::now();
  span = trace.open("traffic", root);
  apps::WorkloadContext ctx{config.sweep};
  if (cell.topo) {
    ctx.single_net = cell.net.get();
    ctx.single_topo = &*cell.topo;
  } else {
    ctx.sharded = &*cell.sharded;
    ctx.runner = cell.runner.get();
  }
  apps::SweepResult result;
  result.spec = config.spec;
  result.label = config.spec.label();
  if (config.aggregate) {
    apps::AggregateHostWorkload workload(config.aggregate_options);
    workload.run(ctx, result);
  } else {
    apps::TtcpStreamWorkload workload(config.ttcp_options);
    workload.run(ctx, result);
  }
  trace.close(span);
  run.traffic_s = seconds_since(traffic_start);
  run.sim_s = seconds_since(sim_start);
  run.virtual_s = cell.virtual_s();

  span = trace.open("collect", root);
  run.counters = snapshot(cell);
  collect_outputs(config, cell, result, run);
  trace.close(span);
  trace.close(root);
  return run;
}

}  // namespace cellbench
