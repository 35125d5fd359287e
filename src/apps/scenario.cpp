#include "src/apps/scenario.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#endif

#include "src/apps/deployer.h"
#include "src/stack/arp.h"
#include "src/stack/icmp.h"
#include "src/stack/ipv4.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace ab::apps {
namespace {

/// Tokenizes a directive line into positional words and key=value options.
struct Directive {
  std::vector<std::string> words;
  std::map<std::string, std::string> options;
};

Directive parse_directive(std::string_view line) {
  Directive d;
  for (const std::string& raw : util::split(std::string(line), ' ')) {
    const std::string token(util::trim(raw));
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq != std::string::npos && eq > 0) {
      d.options[token.substr(0, eq)] = token.substr(eq + 1);
    } else {
      d.words.push_back(token);
    }
  }
  return d;
}

/// Parses "65536", "64K", "4M" into bytes.
util::Expected<std::size_t, std::string> parse_size(const std::string& text) {
  if (text.empty()) return util::Unexpected{std::string("empty size")};
  std::string digits = text;
  std::size_t multiplier = 1;
  const char last = digits.back();
  if (last == 'K' || last == 'k') {
    multiplier = 1024;
    digits.pop_back();
  } else if (last == 'M' || last == 'm') {
    multiplier = 1024 * 1024;
    digits.pop_back();
  }
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
    return util::Unexpected{"bad size: " + text};
  }
  return value * multiplier;
}

util::Expected<double, std::string> parse_double(const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) return util::Unexpected{"bad number: " + text};
    return v;
  } catch (const std::exception&) {
    return util::Unexpected{"bad number: " + text};
  }
}

std::string option_or(const Directive& d, const std::string& key,
                      const std::string& fallback) {
  const auto it = d.options.find(key);
  return it != d.options.end() ? it->second : fallback;
}

}  // namespace

stack::HostStack* ScenarioRunner::find_host(const std::string& name) {
  for (NamedHost& h : hosts_) {
    if (h.name == name) return h.stack.get();
  }
  return nullptr;
}

bridge::BridgeNode* ScenarioRunner::find_bridge(const std::string& name) {
  for (NamedBridge& b : bridges_) {
    if (b.name == name) return b.node.get();
  }
  return nullptr;
}

util::Expected<bool, std::string> ScenarioRunner::execute_line(const std::string& line,
                                                               int line_number) {
  const std::string without_comment = line.substr(0, line.find('#'));
  const std::string_view stripped = util::trim(without_comment);
  if (stripped.empty()) return true;
  const Directive d = parse_directive(stripped);
  const std::string& verb = d.words[0];
  const auto fail = [&](const std::string& what) {
    return util::Unexpected{util::format("line %d: %s", line_number, what.c_str())};
  };

  if (verb == "segment") {
    if (d.words.size() != 2) return fail("segment <name> [rate=] [loss=]");
    netsim::LanConfig cfg;
    if (d.options.count("rate")) {
      auto rate = parse_double(d.options.at("rate"));
      if (!rate) return fail(rate.error());
      cfg.bit_rate = rate.value();
    }
    if (d.options.count("loss")) {
      auto loss = parse_double(d.options.at("loss"));
      if (!loss) return fail(loss.error());
      cfg.loss = loss.value();
    }
    if (net_.find_segment(d.words[1]) != nullptr) {
      return fail("duplicate segment " + d.words[1]);
    }
    net_.add_segment(d.words[1], cfg);
    return true;
  }

  if (verb == "bridge") {
    if (d.words.size() != 4) return fail("bridge <name> <segment> <segment>");
    netsim::LanSegment* seg_a = net_.find_segment(d.words[2]);
    netsim::LanSegment* seg_b = net_.find_segment(d.words[3]);
    if (seg_a == nullptr || seg_b == nullptr) return fail("unknown segment");
    if (find_bridge(d.words[1]) != nullptr) {
      return fail("duplicate bridge " + d.words[1]);
    }
    bridge::BridgeNodeConfig cfg;
    cfg.name = d.words[1];
    const std::string cost = option_or(d, "cost", "ideal");
    if (cost == "caml") {
      cfg.cost = netsim::CostModel::caml_bridge();
    } else if (cost == "repeater") {
      cfg.cost = netsim::CostModel::c_repeater();
    } else if (cost != "ideal") {
      return fail("unknown cost model: " + cost);
    }
    auto node = std::make_unique<bridge::BridgeNode>(net_.scheduler(), cfg);
    node->add_port(net_.add_nic(cfg.name + ".eth0", *seg_a));
    node->add_port(net_.add_nic(cfg.name + ".eth1", *seg_b));
    for (const std::string& module :
         util::split(option_or(d, "modules", "dumb,learning,ieee"), ',')) {
      if (module == "dumb") {
        node->load_dumb();
      } else if (module == "learning") {
        node->load_learning();
      } else if (module == "ieee") {
        node->load_ieee();
      } else if (module == "dec") {
        node->load_dec();
      } else if (module == "multitree") {
        node->load_multitree();
      } else if (module == "monitor") {
        node->load_monitor();
      } else if (!module.empty()) {
        return fail("unknown module: " + module);
      }
    }
    bridges_.push_back(NamedBridge{d.words[1], std::move(node)});
    return true;
  }

  if (verb == "host") {
    if (d.words.size() != 4) return fail("host <name> <segment> <ip>");
    netsim::LanSegment* seg = net_.find_segment(d.words[2]);
    if (seg == nullptr) return fail("unknown segment " + d.words[2]);
    const auto ip = stack::Ipv4Addr::parse(d.words[3]);
    if (!ip.has_value()) return fail("bad IP " + d.words[3]);
    if (find_host(d.words[1]) != nullptr) return fail("duplicate host " + d.words[1]);
    stack::HostConfig cfg;
    cfg.ip = *ip;
    cfg.tx_cost = netsim::CostModel::linux_host();
    auto stack = std::make_unique<stack::HostStack>(
        net_.scheduler(), net_.add_nic(d.words[1], *seg), cfg);
    stack->nic().set_tx_queue_limit(1 << 20);
    hosts_.push_back(NamedHost{d.words[1], std::move(stack)});
    return true;
  }

  if (verb == "pcap") {
    if (d.words.size() != 3) return fail("pcap <segment> <path>");
    netsim::LanSegment* seg = net_.find_segment(d.words[1]);
    if (seg == nullptr) return fail("unknown segment " + d.words[1]);
    try {
      pcaps_.push_back(std::make_unique<netsim::PcapWriter>(d.words[2]));
    } catch (const std::exception& e) {
      return fail(e.what());
    }
    pcaps_.back()->watch(*seg);
    return true;
  }

  if (verb == "ping") {
    if (d.words.size() != 3) return fail("ping <src> <dst> [count=] [size=] ...");
    stack::HostStack* src = find_host(d.words[1]);
    stack::HostStack* dst = find_host(d.words[2]);
    if (src == nullptr || dst == nullptr) return fail("unknown host");
    auto count = parse_size(option_or(d, "count", "5"));
    auto size = parse_size(option_or(d, "size", "64"));
    auto interval = parse_size(option_or(d, "interval_ms", "200"));
    auto at = parse_size(option_or(d, "at", "0"));
    if (!count || !size || !interval || !at) return fail("bad ping option");
    auto app = std::make_unique<PingApp>(
        net_.scheduler(), *src, dst->ip(),
        static_cast<std::uint16_t>(0x100 + pings_.size()));
    PingApp* raw = app.get();
    const int n = static_cast<int>(count.value());
    const std::size_t bytes = size.value();
    const auto step = netsim::milliseconds(static_cast<std::int64_t>(interval.value()));
    net_.scheduler().schedule_after(netsim::seconds(static_cast<std::int64_t>(at.value())),
                                    [raw, n, bytes, step] { raw->run(n, bytes, step); });
    pings_.push_back(PingJob{d.words[1] + " -> " + d.words[2], std::move(app)});
    return true;
  }

  if (verb == "ttcp") {
    if (d.words.size() != 3) return fail("ttcp <src> <dst> [bytes=] [write=] [at=]");
    stack::HostStack* src = find_host(d.words[1]);
    stack::HostStack* dst = find_host(d.words[2]);
    if (src == nullptr || dst == nullptr) return fail("unknown host");
    auto bytes = parse_size(option_or(d, "bytes", "1M"));
    auto write = parse_size(option_or(d, "write", "8192"));
    auto at = parse_size(option_or(d, "at", "0"));
    if (!bytes || !write || !at) return fail("bad ttcp option");
    TtcpJob job;
    job.label = d.words[1] + " -> " + d.words[2];
    job.total_bytes = bytes.value();
    const std::uint16_t port = next_ttcp_port_++;
    job.sink = std::make_unique<TtcpSink>(net_.scheduler(), *dst, port);
    TtcpConfig cfg;
    cfg.destination = dst->ip();
    cfg.port = port;
    cfg.write_size = write.value();
    cfg.total_bytes = bytes.value();
    job.sender = std::make_unique<TtcpSender>(*src, cfg);
    TtcpSender* raw = job.sender.get();
    net_.scheduler().schedule_after(
        netsim::seconds(static_cast<std::int64_t>(at.value())),
        [raw] { raw->start(); });
    ttcps_.push_back(std::move(job));
    return true;
  }

  if (verb == "run") {
    if (d.words.size() != 2) return fail("run <seconds>");
    auto secs = parse_double(d.words[1]);
    if (!secs) return fail(secs.error());
    net_.scheduler().run_for(netsim::Duration(
        static_cast<std::int64_t>(secs.value() * 1e9)));
    return true;
  }

  return fail("unknown directive: " + verb);
}

util::Expected<std::string, std::string> ScenarioRunner::run_text(
    const std::string& config) {
  int line_number = 0;
  for (const std::string& line : util::split(config, '\n')) {
    ++line_number;
    auto result = execute_line(line, line_number);
    if (!result) return util::Unexpected{result.error()};
  }

  for (auto& pcap : pcaps_) pcap->flush();

  std::string report = util::format("scenario complete at t=%.3fs\n",
                                    netsim::to_seconds(net_.now().time_since_epoch()));
  for (const PingJob& job : pings_) {
    const PingStats& s = job.app->stats();
    report += util::format("ping %-24s %d/%d replies, avg %.3f ms\n",
                           job.label.c_str(), s.received, s.sent,
                           netsim::to_millis(s.avg()));
  }
  for (const TtcpJob& job : ttcps_) {
    report += util::format("ttcp %-24s %zu/%zu bytes, %.2f Mb/s\n", job.label.c_str(),
                           job.sink->bytes_received(), job.total_bytes,
                           job.sink->throughput_mbps());
  }
  for (const NamedBridge& b : bridges_) {
    const bridge::PlaneStats& s = b.node->plane().stats();
    report += util::format(
        "bridge %-20s rx %llu, directed %llu, flooded %llu, modules:",
        b.name.c_str(), static_cast<unsigned long long>(s.received),
        static_cast<unsigned long long>(s.directed),
        static_cast<unsigned long long>(s.flooded));
    for (const std::string& m : b.node->node().loader().loaded_names()) {
      report += " " + m;
    }
    report += "\n";
  }
  return report;
}

// ---------------------------------------------------------------------------
// WorkloadContext: one surface over the single-Network and sharded modes.

std::size_t WorkloadContext::host_count() const {
  return is_sharded() ? sharded->hosts.size() : single_topo->hosts.size();
}

stack::HostStack& WorkloadContext::host(std::size_t i) const {
  return is_sharded() ? *sharded->hosts[i] : *single_topo->hosts[i];
}

const netsim::Topology::HostAttach& WorkloadContext::host_attach(
    std::size_t i) const {
  return is_sharded() ? sharded->host_attach[i] : single_topo->shape.hosts[i];
}

std::size_t WorkloadContext::lan_count() const {
  return is_sharded() ? sharded->lan_count() : single_topo->shape.lans.size();
}

std::size_t WorkloadContext::lan_attached_count(std::size_t l) const {
  return is_sharded() ? sharded->lan_attached(l)
                      : single_topo->shape.lans[l]->attached().size();
}

netsim::Nic& WorkloadContext::add_station_nic(const std::string& name,
                                              std::size_t l) const {
  if (!is_sharded()) return single_net->add_nic(name, *single_topo->shape.lans[l]);
  auto& region =
      *sharded->regions[static_cast<std::size_t>(sharded->plan.lan_owner[l])];
  const std::uint32_t id = sharded->next_mac_id++;
  // Arena-owned, like every other NIC attached to the region's replica
  // segments: the arena's reverse finalizer walk then detaches workload
  // NICs while their segments are still alive. A Network-owned NIC here
  // would outlive the arena and detach from a freed segment.
  return region.net.add_nic(region.arena, name, *region.replicas[l],
                            ether::MacAddress::local(id >> 16, id & 0xFFFF));
}

void WorkloadContext::advance(netsim::Duration d) const {
  if (is_sharded()) {
    runner->run_for(d);
  } else {
    single_net->scheduler().run_for(d);
  }
}

namespace {

[[noreturn]] void require_single_network() {
  throw std::logic_error(kSingleNetworkOnlyMessage);
}

}  // namespace

netsim::Network& WorkloadContext::net() const {
  if (is_sharded()) require_single_network();
  return *single_net;
}

bridge::BridgedTopology& WorkloadContext::topo() const {
  if (is_sharded()) require_single_network();
  return *single_topo;
}

// ---------------------------------------------------------------------------
// Workloads

double SweepResult::total_goodput_mbps() const {
  double total = 0.0;
  for (const StreamResult& s : streams) total += s.goodput_mbps;
  return total;
}

double SweepResult::insert_reduction() const {
  if (heap_inserts == 0) return 0.0;
  return static_cast<double>(scheduled_entries) / static_cast<double>(heap_inserts);
}

bool SweepResult::rollout_ok() const {
  if (rollout.empty()) return false;
  for (const RolloutStepResult& step : rollout) {
    if (!step.ok) return false;
  }
  return true;
}

void FloodPingWorkload::run(WorkloadContext& ctx, SweepResult& result) {
  // Flood: a burst of broadcasts from a probe on lan0. On a loopy shape
  // without STP this measures the storm; with STP it measures the pruned
  // flood.
  if (ctx.options.probe_broadcasts > 0) {
    netsim::Nic& probe = ctx.add_station_nic(result.label + ".probe", 0);
    for (int i = 0; i < ctx.options.probe_broadcasts; ++i) {
      probe.transmit(ether::Frame::ethernet2(
          ether::MacAddress::broadcast(), probe.mac(), ether::EtherType::kExperimental,
          {static_cast<std::uint8_t>(i)}));
    }
  }

  // Learning: every host pings its successor, so the bridges learn every
  // host location and the second half of each exchange rides directed
  // forwarding.
  //
  // One reply slot per host, not a shared counter: in a sharded cell each
  // handler fires on its host's shard thread, and disjoint slots are the
  // whole synchronization story (the runner's round hand-offs publish them).
  const std::size_t hosts = ctx.host_count();
  std::vector<int> answered(hosts, 0);
  if (ctx.options.neighbor_pings && hosts >= 2) {
    for (std::size_t i = 0; i < hosts; ++i) {
      stack::HostStack& src = ctx.host(i);
      stack::HostStack& dst = ctx.host((i + 1) % hosts);
      int* slot = &answered[i];
      src.set_echo_handler(
          [slot](const stack::HostStack::EchoReply&) { ++*slot; });
      src.send_echo_request(dst.ip(), 7, static_cast<std::uint16_t>(i), {});
      ++result.pings_sent;
    }
  }

  ctx.advance(ctx.options.traffic_window);
  for (const int slot : answered) result.pings_answered += slot;
}

void TtcpStreamWorkload::run(WorkloadContext& ctx, SweepResult& result) {
  const std::size_t host_count = ctx.host_count();
  if (host_count < 2 || options_.streams < 1) {
    ctx.advance(ctx.options.traffic_window);
    return;
  }

  struct Stream {
    std::string label;
    std::unique_ptr<TtcpSink> sink;
    std::unique_ptr<TtcpSender> sender;
    std::unique_ptr<TcpTtcpSink> tcp_sink;
    std::unique_ptr<TcpTtcpSender> tcp_sender;
  };
  std::vector<Stream> live;

  // Hub-targeted placement: sinks live on the busiest segment (most
  // attached stations -- a scale-free shape's hub), senders everywhere
  // else, so every stream crosses the hub's links.
  std::vector<std::size_t> hub_hosts;
  std::vector<std::size_t> spoke_hosts;
  if (options_.placement == Placement::kHubTargeted) {
    int hub_lan = 0;
    for (std::size_t l = 1; l < ctx.lan_count(); ++l) {
      if (ctx.lan_attached_count(l) >
          ctx.lan_attached_count(static_cast<std::size_t>(hub_lan))) {
        hub_lan = static_cast<int>(l);
      }
    }
    for (std::size_t h = 0; h < host_count; ++h) {
      if (ctx.host_attach(h).lan == hub_lan) {
        hub_hosts.push_back(h);
      } else {
        spoke_hosts.push_back(h);
      }
    }
    // A single populated LAN degenerates to everything on the hub; fall
    // back to splitting it so sender != sink below.
    if (hub_hosts.empty() || spoke_hosts.empty()) {
      hub_hosts.clear();
      spoke_hosts.clear();
    }
  }

  for (int s = 0; s < options_.streams; ++s) {
    // Default (kPaired): sender s with the host half the population away;
    // with lan-major host ordering that lands sink and sender on
    // different LANs whenever more than one segment is populated.
    std::size_t src = static_cast<std::size_t>(s) % host_count;
    std::size_t dst = (src + host_count / 2) % host_count;
    switch (options_.placement) {
      case Placement::kPaired:
        break;
      case Placement::kHubTargeted:
        if (!hub_hosts.empty()) {
          src = spoke_hosts[static_cast<std::size_t>(s) % spoke_hosts.size()];
          dst = hub_hosts[static_cast<std::size_t>(s) % hub_hosts.size()];
        }
        break;
      case Placement::kAllPairs: {
        // Distinct pairs: the sink stride grows once per full sender lap,
        // cycling through 1..H-1 (stride H would collapse onto dst==src).
        const std::size_t lap = static_cast<std::size_t>(s) / host_count;
        dst = (src + 1 + lap % (host_count - 1)) % host_count;
        break;
      }
    }
    if (dst == src) dst = (dst + 1) % host_count;
    stack::HostStack& sender_host = ctx.host(src);
    stack::HostStack& sink_host = ctx.host(dst);

    Stream stream;
    stream.label = ctx.host_attach(src).name + " -> " + ctx.host_attach(dst).name;
    const std::uint16_t port = static_cast<std::uint16_t>(5001 + s);
    // Sink timing reads the SINK's clock, and the staggered start must fire
    // on the SENDER's scheduler -- per-host clocks, never a global one, so
    // the placement works unchanged when those hosts sit on different
    // shards.
    TtcpConfig cfg;
    cfg.destination = sink_host.ip();
    cfg.port = port;
    cfg.write_size = options_.write_size;
    cfg.total_bytes = options_.bytes_per_stream;
    if (options_.transport == Transport::kTcp) {
      stream.tcp_sink = std::make_unique<TcpTtcpSink>(sink_host.scheduler(),
                                                      sink_host, port);
      stream.tcp_sender = std::make_unique<TcpTtcpSender>(
          sender_host, cfg, options_.offered_rate_bps);
      TcpTtcpSender* raw = stream.tcp_sender.get();
      sender_host.scheduler().schedule_after(options_.stagger * s,
                                             [raw] { raw->start(); });
    } else {
      stream.sink =
          std::make_unique<TtcpSink>(sink_host.scheduler(), sink_host, port);
      stream.sender = std::make_unique<TtcpSender>(sender_host, cfg);
      TtcpSender* raw = stream.sender.get();
      sender_host.scheduler().schedule_after(options_.stagger * s,
                                             [raw] { raw->start(); });
    }
    live.push_back(std::move(stream));
  }

  ctx.advance(ctx.options.traffic_window);

  for (const Stream& stream : live) {
    StreamResult sr;
    sr.label = stream.label;
    if (stream.tcp_sender != nullptr) {
      sr.bytes_sent = stream.tcp_sender->bytes_issued();
      sr.bytes_received = stream.tcp_sink->bytes_received();
      sr.goodput_mbps = stream.tcp_sink->throughput_mbps();
      if (!stream.tcp_sink->connections().empty()) {
        sr.datagrams = static_cast<std::size_t>(
            stream.tcp_sink->connections().front()->stats().segments_received);
      }
      if (stream.tcp_sender->started()) {
        sr.retransmits = stream.tcp_sender->socket().stats().retransmits;
        sr.cwnd_final = stream.tcp_sender->socket().cwnd();
      }
    } else {
      sr.bytes_sent = stream.sender->bytes_issued();
      sr.bytes_received = stream.sink->bytes_received();
      sr.datagrams = stream.sink->datagrams_received();
      sr.goodput_mbps = stream.sink->throughput_mbps();
    }
    sr.loss_fraction =
        sr.bytes_sent > 0
            ? 1.0 - static_cast<double>(sr.bytes_received) / sr.bytes_sent
            : 0.0;
    result.streams.push_back(std::move(sr));
  }
}

void AggregateHostWorkload::run(WorkloadContext& ctx, SweepResult& result) {
  // Mode-agnostic: everything below goes through the context's unified
  // views, so the same code drives a single-Network cell and a sharded
  // cell. Shard-safety discipline: per-host state is scheduled on that
  // host's own clock (a LAN's hosts and its generator all live in the
  // LAN's owning region), and counters are one slot per talker, summed
  // after advance().
  const std::size_t host_count = ctx.host_count();
  const std::size_t lan_count = ctx.lan_count();
  if (host_count == 0) {
    ctx.advance(ctx.options.traffic_window);
    return;
  }

  // Host ordinals per LAN (the plan is lan-major, but derive it rather
  // than assume).
  std::vector<std::vector<std::size_t>> by_lan(lan_count);
  for (std::size_t h = 0; h < host_count; ++h) {
    by_lan[static_cast<std::size_t>(ctx.host_attach(h).lan)].push_back(h);
  }

  // Generator NICs attach FIRST, in both modes: LAN membership (and so
  // every delivery walk) must be identical whether or not they transmit.
  // Global LAN order keeps the MAC counter's assignment identical to the
  // oracle's; when sharded, each lands on its LAN's owning replica.
  std::vector<netsim::Nic*> generators(lan_count, nullptr);
  for (std::size_t l = 0; l < lan_count; ++l) {
    generators[l] = &ctx.add_station_nic(result.label + ".agg" + std::to_string(l), l);
  }

  // ---- talkers: the LAN's first K ordinals stay fully materialized ----
  const std::size_t talkers_per_lan =
      options_.talkers_per_lan > 0
          ? static_cast<std::size_t>(options_.talkers_per_lan)
          : 0;
  std::vector<std::size_t> talkers;  // lan-major
  for (const std::vector<std::size_t>& lan_hosts : by_lan) {
    for (std::size_t k = 0; k < std::min(talkers_per_lan, lan_hosts.size()); ++k) {
      talkers.push_back(lan_hosts[k]);
    }
  }

  // Talker pings: each talker pings the next (lan-major order crosses
  // LANs), so bridges learn every talker and half of each exchange rides
  // directed forwarding -- flood+pings at talker scale, not station scale.
  // One reply slot per talker (not a shared counter): each handler fires
  // on its host's shard thread, and disjoint slots summed after advance()
  // are the whole synchronization story.
  std::vector<int> answered(talkers.size(), 0);
  if (talkers.size() >= 2) {
    for (std::size_t i = 0; i < talkers.size(); ++i) {
      stack::HostStack& src = ctx.host(talkers[i]);
      stack::HostStack& dst = ctx.host(talkers[(i + 1) % talkers.size()]);
      int* slot = &answered[i];
      src.set_echo_handler([slot](const stack::HostStack::EchoReply&) { ++*slot; });
      src.send_echo_request(dst.ip(), 7, static_cast<std::uint16_t>(i), {});
      ++result.pings_sent;
    }
  }

  // ---- flood burst from a probe on lan0 ----
  if (options_.probe_broadcasts > 0) {
    netsim::Nic& probe = ctx.add_station_nic(result.label + ".probe", 0);
    std::vector<ether::WireFrame> burst;
    burst.reserve(static_cast<std::size_t>(options_.probe_broadcasts));
    for (int i = 0; i < options_.probe_broadcasts; ++i) {
      burst.emplace_back(ether::Frame::ethernet2(
          ether::MacAddress::broadcast(), probe.mac(),
          ether::EtherType::kExperimental, {static_cast<std::uint8_t>(i)}));
    }
    probe.transmit_burst(burst);
  }

  // ---- one ttcp stream between the first talkers of two LANs ----
  std::unique_ptr<TtcpSink> sink;
  std::unique_ptr<TtcpSender> sender;
  std::string stream_label;
  if (options_.ttcp_bytes > 0) {
    std::size_t lan_a = lan_count;
    std::size_t lan_b = lan_count;
    for (std::size_t l = 0; l < by_lan.size(); ++l) {
      if (by_lan[l].empty()) continue;
      if (lan_a == lan_count) {
        lan_a = l;
      } else if (lan_b == lan_count) {
        lan_b = l;
        break;
      }
    }
    if (lan_b == lan_count) lan_b = lan_a;  // single populated LAN
    if (lan_a != lan_count && (lan_a != lan_b || by_lan[lan_a].size() >= 2)) {
      const std::size_t src = by_lan[lan_a][0];
      const std::size_t dst = lan_a == lan_b ? by_lan[lan_a][1] : by_lan[lan_b][0];
      stack::HostStack& sender_host = ctx.host(src);
      stack::HostStack& sink_host = ctx.host(dst);
      stream_label = ctx.host_attach(src).name + " -> " + ctx.host_attach(dst).name;
      // Sink timing on the SINK's clock (its shard's scheduler when the
      // endpoints live in different regions -- the stream then rides the
      // cut LAN's mailboxes like any other cross-region frame).
      sink = std::make_unique<TtcpSink>(sink_host.scheduler(), sink_host, 5001);
      TtcpConfig cfg;
      cfg.destination = sink_host.ip();
      cfg.port = 5001;
      cfg.write_size = options_.write_size;
      cfg.total_bytes = options_.ttcp_bytes;
      sender = std::make_unique<TtcpSender>(sender_host, cfg);
      sender->start();
    }
  }

  // ---- aggregate background: seeded sample of each LAN's idle stations ----
  // Each sampled station "speaks" twice: an ARP who-has for the LAN's
  // first talker (the talker caches the station and replies), then an
  // echo request half a gap later (the talker answers from that cached
  // mapping). Frames are pre-encoded in the station's name; who clocks
  // them out is the mode switch.
  util::Rng rng(options_.seed);
  std::vector<std::size_t> sampled;
  for (std::size_t l = 0; l < by_lan.size(); ++l) {
    const std::vector<std::size_t>& lan_hosts = by_lan[l];
    if (lan_hosts.size() <= talkers_per_lan || options_.background_per_lan <= 0 ||
        talkers_per_lan == 0) {
      continue;
    }
    std::vector<std::size_t> idle(lan_hosts.begin() +
                                      static_cast<std::ptrdiff_t>(talkers_per_lan),
                                  lan_hosts.end());
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(options_.background_per_lan), idle.size());
    // Partial Fisher-Yates: the first `want` entries become the sample.
    for (std::size_t j = 0; j < want; ++j) {
      const std::size_t pick = j + rng.index(idle.size() - j);
      std::swap(idle[j], idle[pick]);
    }

    stack::HostStack& talker = ctx.host(lan_hosts[0]);
    const stack::Ipv4Addr talker_ip = talker.ip();
    const ether::MacAddress talker_mac = talker.nic().mac();
    for (std::size_t j = 0; j < want; ++j) {
      stack::HostStack& station = ctx.host(idle[j]);
      sampled.push_back(idle[j]);
      const ether::MacAddress st_mac = station.nic().mac();
      const stack::Ipv4Addr st_ip = station.ip();
      netsim::Nic* tx_nic =
          options_.materialize_background ? &station.nic() : generators[l];

      const stack::ArpPacket arp =
          stack::ArpPacket::request(st_mac, st_ip, talker_ip);
      const ether::WireFrame arp_frame(ether::Frame::ethernet2(
          ether::MacAddress::broadcast(), st_mac, ether::EtherType::kArp,
          arp.encode()));

      stack::IcmpEcho echo;
      echo.type = stack::IcmpType::kEchoRequest;
      echo.id = static_cast<std::uint16_t>(l);
      echo.seq = static_cast<std::uint16_t>(j);
      stack::Ipv4Header h;
      h.protocol = static_cast<std::uint8_t>(stack::IpProto::kIcmp);
      h.src = st_ip;
      h.dst = talker_ip;
      h.identification = static_cast<std::uint16_t>(j + 1);
      const ether::WireFrame echo_frame(ether::Frame::ethernet2(
          talker_mac, st_mac, ether::EtherType::kIpv4, h.encode(echo.encode())));

      const netsim::Duration at =
          options_.background_start + options_.background_gap * static_cast<int>(j);
      // The station, its LAN's generator, and the LAN's talker all live in
      // the LAN's owning region, so the station's clock is the right clock
      // for either tx NIC.
      netsim::Scheduler& clock = station.scheduler();
      clock.schedule_after(at, [tx_nic, arp_frame] { tx_nic->transmit(arp_frame); });
      clock.schedule_after(at + options_.background_gap / 2,
                           [tx_nic, echo_frame] { tx_nic->transmit(echo_frame); });
      ++result.pings_sent;
    }
  }

  ctx.advance(ctx.options.traffic_window);

  for (int slot : answered) result.pings_answered += slot;
  for (std::size_t ordinal : sampled) {
    result.pings_answered += static_cast<int>(
        ctx.host(ordinal).stats().echo_replies_received);
  }
  if (sender && sink) {
    StreamResult sr;
    sr.label = std::move(stream_label);
    sr.bytes_sent = sender->bytes_issued();
    sr.bytes_received = sink->bytes_received();
    sr.datagrams = sink->datagrams_received();
    sr.goodput_mbps = sink->throughput_mbps();
    sr.loss_fraction =
        sr.bytes_sent > 0
            ? 1.0 - static_cast<double>(sr.bytes_received) / sr.bytes_sent
            : 0.0;
    result.streams.push_back(std::move(sr));
  }
}

namespace {

/// BFS stage of every bridge from `start_lan` over the bridge/LAN
/// incidence graph: a bridge touching a stage-d LAN deploys at stage d and
/// exposes its other LANs at stage d+1 -- the paper's "diameter grows by
/// one at each subsequent step".
std::vector<int> rollout_stages(const netsim::Topology& shape, int start_lan) {
  std::map<const netsim::LanSegment*, int> lan_index;
  for (std::size_t i = 0; i < shape.lans.size(); ++i) {
    lan_index[shape.lans[i]] = static_cast<int>(i);
  }
  std::vector<int> lan_stage(shape.lans.size(), -1);
  std::vector<int> bridge_stage(shape.node_ports.size(), -1);
  lan_stage[static_cast<std::size_t>(start_lan)] = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t b = 0; b < shape.node_ports.size(); ++b) {
      int best = -1;
      for (const netsim::LanSegment* lan : shape.node_ports[b]) {
        const int stage = lan_stage[static_cast<std::size_t>(lan_index.at(lan))];
        if (stage >= 0 && (best < 0 || stage < best)) best = stage;
      }
      if (best < 0) continue;
      if (bridge_stage[b] < 0 || best < bridge_stage[b]) {
        bridge_stage[b] = best;
        progress = true;
      }
      for (const netsim::LanSegment* lan : shape.node_ports[b]) {
        auto& stage = lan_stage[static_cast<std::size_t>(lan_index.at(lan))];
        if (stage < 0 || bridge_stage[b] + 1 < stage) {
          stage = bridge_stage[b] + 1;
          progress = true;
        }
      }
    }
  }
  return bridge_stage;
}

}  // namespace

void RolloutWorkload::run(WorkloadContext& ctx, SweepResult& result) {
  if (!ctx.options.build.netloader) {
    throw std::logic_error(
        "RolloutWorkload: SweepOptions::build.netloader must be set so the "
        "bridges run network loaders");
  }
  // Single-Network only (throws on a sharded cell): the deployer walks the
  // whole bridge set from one admin station on one clock.
  netsim::Network& net = ctx.net();
  bridge::BridgedTopology& topo = ctx.topo();

  // The administrator station, on lan0 like the paper's console host.
  stack::HostConfig admin_cfg;
  admin_cfg.ip = bridge::topology_admin_ip(0);
  stack::HostStack admin(net.scheduler(),
                         net.add_nic(result.label + ".admin",
                                         *topo.shape.lans[0]),
                         admin_cfg);
  admin.nic().set_tx_queue_limit(1 << 20);

  // Background traffic: a capped set of neighbor ping pairs keeps frames
  // crossing every stage while the rollout runs.
  std::vector<std::unique_ptr<PingApp>> pings;
  const double window_secs = netsim::to_seconds(ctx.options.traffic_window);
  if (topo.hosts.size() >= 2) {
    const std::size_t pairs =
        std::min<std::size_t>(topo.hosts.size(),
                              static_cast<std::size_t>(options_.max_background_pairs));
    const int count = std::max(
        1, static_cast<int>(window_secs /
                            netsim::to_seconds(options_.ping_interval)) -
               1);
    for (std::size_t i = 0; i < pairs; ++i) {
      stack::HostStack& src = *topo.hosts[i];
      stack::HostStack& dst = *topo.hosts[(i + 1) % topo.hosts.size()];
      auto app = std::make_unique<PingApp>(
          net.scheduler(), src, dst.ip(),
          static_cast<std::uint16_t>(0x200 + i));
      app->run(count, 64, options_.ping_interval);
      result.pings_sent += count;
      pings.push_back(std::move(app));
    }
  }

  // The deployment plan: every bridge, nearest stage first.
  const std::vector<int> stages = rollout_stages(topo.shape, 0);
  std::vector<std::size_t> order(topo.bridges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return stages[a] < stages[b];
  });

  active::SwitchletImage image = active::SwitchletImage::named(options_.image);
  image.payload.assign(options_.payload_padding, 0xAB);

  std::vector<DeployStep> plan;
  std::map<stack::Ipv4Addr, std::size_t> bridge_of;  // loader IP -> bridge index
  for (const std::size_t b : order) {
    DeployStep step;
    step.node = *topo.bridges[b]->config().loader_ip;
    step.image = image;
    plan.push_back(std::move(step));
    bridge_of[*topo.bridges[b]->config().loader_ip] = b;
  }

  Deployer deployer(net.scheduler(), admin);
  bool plan_done = false;
  std::vector<std::size_t> step_bridge;  // bridge index per rollout entry
  deployer.deploy(
      std::move(plan),
      [&plan_done](const std::vector<DeployResult>&) { plan_done = true; },
      [&](const DeployResult& step) {
        // Snapshot the bridge the moment its new generation took over.
        const std::size_t b = bridge_of.at(step.node);
        RolloutStepResult rs;
        rs.bridge = topo.shape.node_names[b];
        rs.stage = stages[b];
        rs.ok = step.ok;
        rs.attempts = step.attempts;
        rs.load_ms = netsim::to_millis(step.load_time());
        rs.frames_before_load = topo.bridges[b]->plane().stats().received;
        result.rollout.push_back(std::move(rs));
        step_bridge.push_back(b);
      });

  net.scheduler().run_for(ctx.options.traffic_window);

  // A plan that outlasted the traffic window (lossy links, long retry
  // backoffs) must not read as success: record the bridges never reached
  // as failed steps so rollout_ok() is false.
  if (!plan_done) {
    for (const std::size_t b : order) {
      const bool seen =
          std::find(step_bridge.begin(), step_bridge.end(), b) != step_bridge.end();
      if (!seen) {
        RolloutStepResult rs;
        rs.bridge = topo.shape.node_names[b];
        rs.stage = stages[b];
        rs.ok = false;
        result.rollout.push_back(std::move(rs));
        step_bridge.push_back(b);
      }
    }
  }

  // Close the books: what each new generation processed after taking over.
  for (std::size_t i = 0; i < result.rollout.size(); ++i) {
    RolloutStepResult& rs = result.rollout[i];
    auto& node = *topo.bridges[step_bridge[i]];
    if (auto* monitor = dynamic_cast<bridge::MonitorSwitchlet*>(
            node.node().loader().find(options_.image))) {
      rs.frames_after_load = monitor->report().frames;
    } else if (rs.ok) {
      // Loaded but not the monitor image: fall back to plane work since
      // the load. (Failed steps keep 0: no new generation ever ran.)
      rs.frames_after_load = node.plane().stats().received - rs.frames_before_load;
    }
    if (auto* loader = dynamic_cast<active::NetLoaderSwitchlet*>(
            node.node().loader().find("loader.net"))) {
      rs.bytes_pushed = loader->stats().bytes_received;
    }
  }
  for (const auto& ping : pings) result.pings_answered += ping->stats().received;
}

// ---------------------------------------------------------------------------
// TopologySweep

namespace {

/// Current resident set in bytes (/proc/self/statm); 0 where unsupported.
std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total_pages = 0;
  unsigned long long resident_pages = 0;
  const int got = std::fscanf(f, "%llu %llu", &total_pages, &resident_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

/// Process-lifetime peak RSS in bytes; 0 where unsupported.
std::uint64_t peak_rss_bytes_now() {
#if defined(__linux__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is KiB
#else
  return 0;
#endif
}

}  // namespace

SweepResult TopologySweep::run_cell(const netsim::TopologySpec& spec) {
  FloodPingWorkload flood;
  return run_cell(spec, flood);
}

SweepResult TopologySweep::run_cell(const netsim::TopologySpec& spec,
                                    Workload& workload) {
  if (options_.shard_regions >= 1 || options_.threads > 1) {
    return run_cell_sharded(spec, workload);
  }
  return run_cell_single(spec, workload);
}

SweepResult TopologySweep::run_cell_single(const netsim::TopologySpec& spec,
                                           Workload& workload) {
  const auto wall_start = std::chrono::steady_clock::now();

  const std::uint64_t rss_before = current_rss_bytes();
  netsim::Network net;
  bridge::BridgedTopology topo =
      bridge::build_topology(net, spec, options_.node_config, options_.build);
  const double build_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();
  const std::uint64_t rss_after = current_rss_bytes();

  SweepResult r;
  r.build_ms = build_ms;
  if (rss_after > rss_before && !topo.hosts.empty()) {
    r.bytes_per_station = static_cast<double>(rss_after - rss_before) /
                          static_cast<double>(topo.hosts.size());
  }
  r.spec = spec;
  r.label = spec.label();
  r.workload = std::string(workload.name());
  r.bridges = static_cast<int>(topo.bridges.size());
  r.lans = static_cast<int>(topo.shape.lans.size());
  r.hosts = static_cast<int>(topo.hosts.size());
  for (const auto& b : topo.bridges) {
    r.ports += static_cast<int>(b->plane().bridge_ports().size());
  }

  net.scheduler().run_for(options_.convergence_window);
  r.stp_converged = topo.stp_converged();

  WorkloadContext ctx{options_};
  ctx.single_net = &net;
  ctx.single_topo = &topo;
  workload.run(ctx, r);

  r.blocked_ports = topo.count_gates(bridge::PortGate::kBlocked);
  r.forwarding_ports = topo.count_gates(bridge::PortGate::kForwarding);
  r.mac_entries = topo.mac_entries();
  for (netsim::LanSegment* lan : topo.shape.lans) {
    r.frames_carried += lan->stats().frames_carried;
    r.bytes_carried += lan->stats().bytes_carried;
    r.frames_lost += lan->stats().frames_lost;
    r.lan_visits += lan->stats().visits;
  }
  r.events = net.scheduler().executed();
  r.heap_inserts = net.scheduler().inserts();
  r.scheduled_entries = net.scheduler().scheduled();
  r.virtual_seconds = netsim::to_seconds(net.now().time_since_epoch());
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  r.events_per_sec = r.wall_seconds > 0 ? static_cast<double>(r.events) / r.wall_seconds
                                        : 0.0;
  r.peak_rss_bytes = peak_rss_bytes_now();
  return r;
}

SweepResult TopologySweep::run_cell_sharded(const netsim::TopologySpec& spec,
                                            Workload& workload) {
  const auto wall_start = std::chrono::steady_clock::now();

  const std::uint64_t rss_before = current_rss_bytes();
  const int regions =
      options_.shard_regions >= 1 ? options_.shard_regions : options_.threads;
  bridge::ShardedTopology topo = bridge::build_sharded_topology(
      spec, regions, options_.node_config, options_.build);
  const double build_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();
  const std::uint64_t rss_after = current_rss_bytes();

  netsim::ParallelRunner::Options run_options;
  run_options.threads = options_.threads;
  run_options.lookahead = topo.plan.lookahead;
  netsim::ParallelRunner runner(topo.shard_handles(), run_options);

  SweepResult r;
  r.build_ms = build_ms;
  if (rss_after > rss_before && !topo.hosts.empty()) {
    r.bytes_per_station = static_cast<double>(rss_after - rss_before) /
                          static_cast<double>(topo.hosts.size());
  }
  r.spec = spec;
  r.label = spec.label();
  r.workload = std::string(workload.name());
  r.bridges = static_cast<int>(topo.bridges.size());
  r.lans = static_cast<int>(topo.lan_count());
  r.hosts = static_cast<int>(topo.hosts.size());
  for (bridge::BridgeNode* b : topo.bridges) {
    r.ports += static_cast<int>(b->plane().bridge_ports().size());
  }

  runner.run_for(options_.convergence_window);
  r.stp_converged = topo.stp_converged();

  WorkloadContext ctx{options_};
  ctx.sharded = &topo;
  ctx.runner = &runner;
  workload.run(ctx, r);

  r.blocked_ports = topo.count_gates(bridge::PortGate::kBlocked);
  r.forwarding_ports = topo.count_gates(bridge::PortGate::kForwarding);
  r.mac_entries = topo.mac_entries();
  for (std::size_t l = 0; l < topo.lan_count(); ++l) {
    const netsim::LanStats stats = topo.lan_stats(l);
    r.frames_carried += stats.frames_carried;
    r.bytes_carried += stats.bytes_carried;
    r.frames_lost += stats.frames_lost;
    r.lan_visits += stats.visits;
  }
  r.events = topo.events();
  r.heap_inserts = topo.heap_inserts();
  r.scheduled_entries = topo.scheduled_entries();
  r.runner_rounds = runner.rounds();
  r.inline_rounds = runner.inline_rounds();
  r.runner_spins = runner.spins();
  r.virtual_seconds =
      netsim::to_seconds(topo.regions.front()->net.now().time_since_epoch());
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  r.events_per_sec = r.wall_seconds > 0 ? static_cast<double>(r.events) / r.wall_seconds
                                        : 0.0;
  r.peak_rss_bytes = peak_rss_bytes_now();
  return r;
}

std::vector<SweepResult> TopologySweep::run_grid(
    const std::vector<netsim::TopologySpec>& grid) {
  FloodPingWorkload flood;
  return run_grid(grid, flood);
}

std::vector<SweepResult> TopologySweep::run_grid(
    const std::vector<netsim::TopologySpec>& grid, Workload& workload) {
#if defined(__linux__)
  // Even a single-cell grid forks when asked: the point is per-cell RSS
  // isolation (peak_rss_bytes measured in a child that built ONLY this
  // cell), not just parallelism across cells.
  if (options_.fork_cells && !grid.empty()) {
    return run_grid_forked(grid, workload);
  }
#endif
  std::vector<SweepResult> cells;
  cells.reserve(grid.size());
  for (const netsim::TopologySpec& spec : grid) {
    cells.push_back(run_cell(spec, workload));
  }
  return cells;
}

#if defined(__linux__)
namespace {

// ---- fork-per-cell result shuttle ----
// The child serializes every measured field over its pipe; the parent
// reattaches what it already knows (spec, label, workload). Labels go last
// on their lines because they contain spaces.

void write_result(std::FILE* f, const SweepResult& r) {
  std::fprintf(
      f,
      "cell %d %d %d %d %d %d %d %llu %llu %llu %llu %zu %d %d %llu %llu %llu "
      "%.17g %.17g %.17g %.17g %llu %.17g\n",
      r.bridges, r.lans, r.hosts, r.ports, r.stp_converged ? 1 : 0,
      r.blocked_ports, r.forwarding_ports,
      static_cast<unsigned long long>(r.frames_carried),
      static_cast<unsigned long long>(r.bytes_carried),
      static_cast<unsigned long long>(r.frames_lost),
      static_cast<unsigned long long>(r.lan_visits), r.mac_entries, r.pings_sent,
      r.pings_answered, static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.heap_inserts),
      static_cast<unsigned long long>(r.scheduled_entries), r.virtual_seconds,
      r.wall_seconds, r.events_per_sec, r.build_ms,
      static_cast<unsigned long long>(r.peak_rss_bytes), r.bytes_per_station);
  std::fprintf(f, "streams %zu\n", r.streams.size());
  for (const StreamResult& s : r.streams) {
    std::fprintf(f, "%zu %zu %zu %.17g %.17g %llu %llu %s\n", s.bytes_sent,
                 s.bytes_received, s.datagrams, s.goodput_mbps, s.loss_fraction,
                 static_cast<unsigned long long>(s.retransmits),
                 static_cast<unsigned long long>(s.cwnd_final), s.label.c_str());
  }
  std::fprintf(f, "rollout %zu\n", r.rollout.size());
  for (const RolloutStepResult& s : r.rollout) {
    std::fprintf(f, "%d %d %d %.17g %llu %llu %llu %s\n", s.stage, s.ok ? 1 : 0,
                 s.attempts, s.load_ms,
                 static_cast<unsigned long long>(s.frames_before_load),
                 static_cast<unsigned long long>(s.frames_after_load),
                 static_cast<unsigned long long>(s.bytes_pushed), s.bridge.c_str());
  }
}

/// Reads the rest of the line (after the numeric prefix) as a label.
std::string read_label(std::FILE* f) {
  std::string label;
  int c = std::fgetc(f);
  if (c == ' ') c = std::fgetc(f);  // the separator before the label
  while (c != EOF && c != '\n') {
    label.push_back(static_cast<char>(c));
    c = std::fgetc(f);
  }
  return label;
}

bool read_result(std::FILE* f, SweepResult& r) {
  int stp = 0;
  unsigned long long frames = 0, bytes = 0, lost = 0, visits = 0, events = 0,
                     inserts = 0, scheduled = 0, rss = 0;
  if (std::fscanf(f,
                  " cell %d %d %d %d %d %d %d %llu %llu %llu %llu %zu %d %d %llu "
                  "%llu %llu %lg %lg %lg %lg %llu %lg",
                  &r.bridges, &r.lans, &r.hosts, &r.ports, &stp, &r.blocked_ports,
                  &r.forwarding_ports, &frames, &bytes, &lost, &visits, &r.mac_entries,
                  &r.pings_sent, &r.pings_answered, &events, &inserts, &scheduled,
                  &r.virtual_seconds, &r.wall_seconds, &r.events_per_sec,
                  &r.build_ms, &rss, &r.bytes_per_station) != 23) {
    return false;
  }
  r.stp_converged = stp != 0;
  r.frames_carried = frames;
  r.bytes_carried = bytes;
  r.frames_lost = lost;
  r.lan_visits = visits;
  r.events = events;
  r.heap_inserts = inserts;
  r.scheduled_entries = scheduled;
  r.peak_rss_bytes = rss;

  std::size_t count = 0;
  if (std::fscanf(f, " streams %zu", &count) != 1) return false;
  r.streams.resize(count);
  for (StreamResult& s : r.streams) {
    unsigned long long retransmits = 0, cwnd_final = 0;
    if (std::fscanf(f, " %zu %zu %zu %lg %lg %llu %llu", &s.bytes_sent,
                    &s.bytes_received, &s.datagrams, &s.goodput_mbps,
                    &s.loss_fraction, &retransmits, &cwnd_final) != 7) {
      return false;
    }
    s.retransmits = retransmits;
    s.cwnd_final = cwnd_final;
    s.label = read_label(f);
  }
  if (std::fscanf(f, " rollout %zu", &count) != 1) return false;
  r.rollout.resize(count);
  for (RolloutStepResult& s : r.rollout) {
    int ok = 0;
    unsigned long long before = 0, after = 0, pushed = 0;
    if (std::fscanf(f, " %d %d %d %lg %llu %llu %llu", &s.stage, &ok, &s.attempts,
                    &s.load_ms, &before, &after, &pushed) != 7) {
      return false;
    }
    s.ok = ok != 0;
    s.frames_before_load = before;
    s.frames_after_load = after;
    s.bytes_pushed = pushed;
    s.bridge = read_label(f);
  }
  return true;
}

}  // namespace
#endif  // __linux__

std::vector<SweepResult> TopologySweep::run_grid_forked(
    const std::vector<netsim::TopologySpec>& grid, Workload& workload) {
#if !defined(__linux__)
  std::vector<SweepResult> cells;
  cells.reserve(grid.size());
  for (const netsim::TopologySpec& spec : grid) {
    cells.push_back(run_cell(spec, workload));
  }
  return cells;
#else
  const int cap = std::max(
      1, options_.max_parallel_cells > 0
             ? options_.max_parallel_cells
             : static_cast<int>(std::thread::hardware_concurrency()));

  struct Child {
    pid_t pid = -1;
    int fd = -1;
  };
  std::vector<Child> children(grid.size());

  const auto spawn = [&](std::size_t i) {
    int fds[2];
    if (pipe(fds) != 0) {
      throw std::runtime_error("run_grid: pipe() failed");
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      throw std::runtime_error("run_grid: fork() failed");
    }
    if (pid == 0) {
      // Child: a fresh address space, so this cell's getrusage peak and
      // page residency are ITS OWN -- bytes_per_station no longer reads 0
      // because some earlier, bigger cell already touched the pages.
      close(fds[0]);
      int status = 0;
      std::FILE* out = fdopen(fds[1], "w");
      try {
        const SweepResult r = run_cell(grid[i], workload);
        if (out != nullptr) {
          write_result(out, r);
          std::fflush(out);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "run_grid cell %zu: %s\n", i, e.what());
        status = 1;
      }
      if (out != nullptr) std::fclose(out);
      _exit(status);
    }
    close(fds[1]);
    children[i] = Child{pid, fds[0]};
  };

  std::vector<SweepResult> cells(grid.size());
  std::size_t spawned = 0;
  for (std::size_t reaped = 0; reaped < grid.size(); ++reaped) {
    while (spawned < grid.size() &&
           spawned - reaped < static_cast<std::size_t>(cap)) {
      spawn(spawned++);
    }
    // Read the oldest child to EOF (younger siblings keep running; a child
    // that outgrows the pipe buffer simply blocks until its turn).
    Child& child = children[reaped];
    std::FILE* in = fdopen(child.fd, "r");
    const bool parsed = in != nullptr && read_result(in, cells[reaped]);
    if (in != nullptr) std::fclose(in);
    int status = 0;
    waitpid(child.pid, &status, 0);
    const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!parsed || !exited_ok) {
      throw std::runtime_error("run_grid: forked cell " +
                               grid[reaped].label() + " failed");
    }
    cells[reaped].spec = grid[reaped];
    cells[reaped].label = grid[reaped].label();
    cells[reaped].workload = std::string(workload.name());
  }
  return cells;
#endif
}

std::vector<netsim::TopologySpec> TopologySweep::make_grid(
    const std::vector<netsim::TopologyShape>& shapes,
    const std::vector<int>& node_counts, int hosts_per_lan) {
  std::vector<netsim::TopologySpec> grid;
  for (netsim::TopologyShape shape : shapes) {
    for (int nodes : node_counts) {
      netsim::TopologySpec spec;
      spec.shape = shape;
      spec.nodes = nodes;
      spec.hosts_per_lan = hosts_per_lan;
      grid.push_back(spec);
    }
  }
  return grid;
}

std::string TopologySweep::format_table(const std::vector<SweepResult>& cells) {
  std::string out = util::format(
      "%-16s %-12s %8s %6s %6s %5s %9s %12s %10s %10s %7s\n", "cell", "workload",
      "bridges", "lans", "hosts", "conv", "frames", "events", "events/s", "wall_ms",
      "pings");
  for (const SweepResult& c : cells) {
    out += util::format(
        "%-16s %-12s %8d %6d %6d %5s %9llu %12llu %10.0f %10.2f %3d/%-3d\n",
        c.label.c_str(), c.workload.c_str(), c.bridges, c.lans, c.hosts,
        c.stp_converged ? "yes" : "no",
        static_cast<unsigned long long>(c.frames_carried),
        static_cast<unsigned long long>(c.events), c.events_per_sec,
        c.wall_seconds * 1e3, c.pings_answered, c.pings_sent);
    for (const StreamResult& s : c.streams) {
      out += util::format("    stream %-28s %8zu/%-8zu bytes  %8.2f Mb/s  loss %.3f\n",
                          s.label.c_str(), s.bytes_received, s.bytes_sent,
                          s.goodput_mbps, s.loss_fraction);
    }
    for (const RolloutStepResult& s : c.rollout) {
      out += util::format(
          "    rollout %-12s stage %d  %-4s %d tries  %8.2f ms  old %llu / new %llu\n",
          s.bridge.c_str(), s.stage, s.ok ? "ok" : "FAIL", s.attempts, s.load_ms,
          static_cast<unsigned long long>(s.frames_before_load),
          static_cast<unsigned long long>(s.frames_after_load));
    }
  }
  return out;
}

std::string TopologySweep::format_json(const std::vector<SweepResult>& cells) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepResult& c = cells[i];
    out += util::format(
        "  {\"cell\": \"%s\", \"shape\": \"%s\", \"workload\": \"%s\", "
        "\"bridges\": %d, \"lans\": %d, "
        "\"hosts\": %d, \"stp_converged\": %s, \"blocked_ports\": %d, "
        "\"forwarding_ports\": %d, \"frames_carried\": %llu, \"mac_entries\": %zu, "
        "\"pings_sent\": %d, \"pings_answered\": %d, \"events\": %llu, "
        "\"heap_inserts\": %llu, \"scheduled_entries\": %llu, "
        "\"insert_reduction\": %.2f, "
        "\"virtual_seconds\": %.3f, \"wall_seconds\": %.6f, \"events_per_sec\": %.0f, "
        "\"build_ms\": %.2f, \"peak_rss_bytes\": %llu, \"bytes_per_station\": %.1f",
        c.label.c_str(), std::string(to_string(c.spec.shape)).c_str(),
        c.workload.c_str(), c.bridges,
        c.lans, c.hosts, c.stp_converged ? "true" : "false", c.blocked_ports,
        c.forwarding_ports, static_cast<unsigned long long>(c.frames_carried),
        c.mac_entries, c.pings_sent, c.pings_answered,
        static_cast<unsigned long long>(c.events),
        static_cast<unsigned long long>(c.heap_inserts),
        static_cast<unsigned long long>(c.scheduled_entries), c.insert_reduction(),
        c.virtual_seconds, c.wall_seconds,
        c.events_per_sec, c.build_ms,
        static_cast<unsigned long long>(c.peak_rss_bytes), c.bytes_per_station);
    if (!c.streams.empty()) {
      out += util::format(",\n   \"goodput_mbps_total\": %.2f, \"streams\": [",
                          c.total_goodput_mbps());
      for (std::size_t s = 0; s < c.streams.size(); ++s) {
        const StreamResult& sr = c.streams[s];
        out += util::format(
            "\n    {\"stream\": \"%s\", \"bytes_sent\": %zu, \"bytes_received\": %zu, "
            "\"datagrams\": %zu, \"goodput_mbps\": %.2f, \"loss_fraction\": %.4f, "
            "\"retransmits\": %llu, \"cwnd_final\": %llu}%s",
            sr.label.c_str(), sr.bytes_sent, sr.bytes_received, sr.datagrams,
            sr.goodput_mbps, sr.loss_fraction,
            static_cast<unsigned long long>(sr.retransmits),
            static_cast<unsigned long long>(sr.cwnd_final),
            s + 1 < c.streams.size() ? "," : "]");
      }
    }
    if (!c.rollout.empty()) {
      out += util::format(",\n   \"rollout_ok\": %s, \"rollout\": [",
                          c.rollout_ok() ? "true" : "false");
      for (std::size_t s = 0; s < c.rollout.size(); ++s) {
        const RolloutStepResult& rs = c.rollout[s];
        out += util::format(
            "\n    {\"bridge\": \"%s\", \"stage\": %d, \"ok\": %s, \"attempts\": %d, "
            "\"load_ms\": %.3f, \"frames_before_load\": %llu, "
            "\"frames_after_load\": %llu, \"bytes_pushed\": %llu}%s",
            rs.bridge.c_str(), rs.stage, rs.ok ? "true" : "false", rs.attempts,
            rs.load_ms, static_cast<unsigned long long>(rs.frames_before_load),
            static_cast<unsigned long long>(rs.frames_after_load),
            static_cast<unsigned long long>(rs.bytes_pushed),
            s + 1 < c.rollout.size() ? "," : "]");
      }
    }
    out += util::format("}%s\n", i + 1 < cells.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

}  // namespace ab::apps
