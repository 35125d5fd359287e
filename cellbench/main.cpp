// cellbench: runs one benchmark workload for a time budget and prints its
// metrics as one JSON line (see NOTES.md for the metric map).
//
//   cellbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <file>] [--fingerprint-only]
//
// A workload is a batch of cells: one station cell, or bridged_tcp's
// kTcpGraphs graphs. A run first sets the whole batch up several times
// without running it (set-up samples), then runs whole cells -- build,
// convergence, traffic, collection -- in passes, each pass running every
// cell of the batch once, until the budget is spent. The first cell is a
// warm-up: its time is not counted. The first run of each cell is that
// cell's reference; every cell of a run must converge and produce the same
// model-output fingerprint and the same per-layer counters as its reference,
// and enough passes run that every cell is checked at least once; otherwise
// the run reports correct=false and exits 1. Time metrics are medians over
// passes of each pass's mean cell time. With --trace 1, every cell runs
// untraced and then traced within a pass (phase spans with counter
// snapshots, written to --trace-out) and the per-layer metrics are reported
// instead of the end-to-end ones.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cellbench/cell.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up samples: at least kMinSetupSamples, and more until
/// kSetupSampleSeconds are spent, so millisecond set-ups get a steady median.
constexpr int kMinSetupSamples = 7;
constexpr int kMaxSetupSamples = 1000;
constexpr double kSetupSampleSeconds = 1.0;
/// Timed passes when the batch is one cell.
constexpr int kMinTimedReps = 3;
/// No pass starts once the last one would carry the run past this, so a run
/// ends well inside three minutes whatever the budget.
constexpr double kMaxRunSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  bool fingerprint_only = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (flag == "--fingerprint-only") {
      a.fingerprint_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && (have_seconds || a.fingerprint_only);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Timings grouped by pass; a pass runs every cell of the batch once.
class PassSeries {
 public:
  void add(int pass, double value) {
    if (static_cast<std::size_t>(pass) >= passes_.size()) passes_.resize(pass + 1);
    passes_[static_cast<std::size_t>(pass)].push_back(value);
  }
  /// The median over passes of each pass's mean.
  [[nodiscard]] double median_of_means() const {
    std::vector<double> means;
    for (const std::vector<double>& pass : passes_) {
      double sum = 0.0;
      for (double v : pass) sum += v;
      if (!pass.empty()) means.push_back(sum / static_cast<double>(pass.size()));
    }
    return median(std::move(means));
  }

 private:
  std::vector<std::vector<double>> passes_;
};

/// The batch's cells as one result: counts and outputs summed or joined in
/// cell order, failures tagged with their cell's label. For a batch of one
/// cell, the fingerprint is that cell's.
cellbench::CellRun combine(const std::vector<cellbench::CellConfig>& batch,
                           const std::vector<cellbench::CellRun>& runs) {
  cellbench::CellRun total;
  total.stp_converged = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const cellbench::CellRun& r = runs[i];
    total.virtual_s += r.virtual_s;
    total.stations += r.stations;
    total.build_arena_bytes += r.build_arena_bytes;
    total.stp_converged = total.stp_converged && r.stp_converged;
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.tcp_retransmits += r.tcp_retransmits;
    total.counters += r.counters;
    total.outputs.insert(total.outputs.end(), r.outputs.begin(), r.outputs.end());
    for (const std::string& f : r.failures) {
      total.failures.push_back(batch[i].spec.label() + ": " + f);
    }
  }
  return total;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string outputs_line(const cellbench::CellRun& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "outputs: %zu values, %llu frames, %llu deliveries, %llu MAC "
                "entries, %llu blocked ports, %llu operations, %llu failed",
                r.outputs.size(), static_cast<unsigned long long>(r.counters.lan_frames),
                static_cast<unsigned long long>(r.counters.nic_deliveries),
                static_cast<unsigned long long>(r.counters.learning_entries),
                static_cast<unsigned long long>(r.counters.stp_blocked_ports),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
  return buf;
}

class MetricWriter {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: cellbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--trace-out <file>] [--fingerprint-only]\n");
    return 2;
  }
  std::vector<cellbench::CellConfig> batch;
  try {
    batch = cellbench::make_batch(args.workload, args.seed, args.tiny);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cellbench: %s\n", e.what());
    return 2;
  }
  const int graphs = static_cast<int>(batch.size());

  if (args.fingerprint_only) {
    std::vector<cellbench::CellRun> runs;
    for (int g = 0; g < graphs; ++g) runs.push_back(cellbench::run_cell(batch[g], nullptr, g));
    const cellbench::CellRun r = combine(batch, runs);
    std::printf("fingerprint %016llx\n",
                static_cast<unsigned long long>(r.fingerprint()));
    std::printf("%s\n", outputs_line(r).c_str());
    for (const std::string& f : r.failures) std::printf("failed: %s\n", f.c_str());
    return r.stp_converged ? 0 : 1;
  }

  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::vector<double> build_samples;
  std::vector<double> setup_samples;
  for (int i = 0; i < kMaxSetupSamples &&
                  (i < kMinSetupSamples || elapsed() < kSetupSampleSeconds);
       ++i) {
    double build_s = 0.0;
    double setup_s = 0.0;
    for (const cellbench::CellConfig& config : batch) {
      const auto [cell_build_s, cell_setup_s] = cellbench::setup_only(config);
      build_s += cell_build_s;
      setup_s += cell_setup_s;
    }
    build_samples.push_back(build_s);
    setup_samples.push_back(setup_s);
  }

  std::fprintf(stderr, "%zu set-up samples: min %.6f s, median %.6f s, max %.6f s\n",
               setup_samples.size(), *std::min_element(setup_samples.begin(), setup_samples.end()),
               median(setup_samples),
               *std::max_element(setup_samples.begin(), setup_samples.end()));

  cellbench::Tracer tracer;
  PassSeries sim_untraced;
  PassSeries sim_traced;
  PassSeries converge_traced;
  PassSeries traffic_traced;
  std::vector<cellbench::CellRun> reference(static_cast<std::size_t>(graphs));
  std::vector<bool> have_reference(static_cast<std::size_t>(graphs), false);
  std::vector<std::string> problems;
  // With tracing, each cell runs untraced and then traced in every pass.
  const int cells_per_graph = args.trace ? 2 : 1;
  const int cells_per_pass = graphs * cells_per_graph;
  // Several cells: every cell runs at least twice, its first run being its
  // reference (graph 0's is the warm-up).
  const int min_passes = graphs == 1 ? kMinTimedReps : (args.trace ? 1 : 2);
  double pass_start = 0.0;
  double last_pass_s = 0.0;
  int reps = 0;
  for (int rep = 0;; ++rep) {
    const int timed = rep - 1;
    const int pass = rep == 0 ? -1 : timed / cells_per_pass;
    const int slot = rep == 0 ? 0 : timed % cells_per_pass;
    if (rep > 0 && slot == 0) {
      const double used = elapsed();
      if (pass > 0) last_pass_s = used - pass_start;
      if (pass >= min_passes &&
          (used >= args.seconds || used + last_pass_s > kMaxRunSeconds)) {
        break;
      }
      pass_start = used;
    }
    const int graph = slot / cells_per_graph;
    const auto g = static_cast<std::size_t>(graph);
    const bool traced = rep > 0 && slot % cells_per_graph == 1;
    cellbench::CellRun r = cellbench::run_cell(batch[g], traced ? &tracer : nullptr, rep);
    ++reps;
    std::fprintf(stderr, "rep %d, graph %d%s: setup %.4f s, converge %.4f s, traffic %.4f s\n",
                 rep, graph, rep == 0 ? " (warm-up)" : traced ? " (traced)" : "", r.setup_s,
                 r.converge_s, r.traffic_s);

    if (traced) {
      sim_traced.add(pass, r.sim_s);
      converge_traced.add(pass, r.converge_s);
      traffic_traced.add(pass, r.traffic_s);
    } else if (rep > 0) {
      sim_untraced.add(pass, r.sim_s);
    }
    const std::string where = "rep " + std::to_string(rep) + " (" + batch[g].spec.label() + ")";
    if (!r.stp_converged) problems.push_back(where + ": STP did not converge");
    if (!have_reference[g]) {
      reference[g] = std::move(r);
      have_reference[g] = true;
      continue;
    }
    if (r.outputs != reference[g].outputs) {
      problems.push_back(where + ": model-output fingerprint differs from the cell's first run");
    }
    if (!(r.counters == reference[g].counters)) {
      problems.push_back(where + ": per-layer counters differ from the cell's first run");
    }
  }
  const cellbench::CellRun first = combine(batch, reference);

  if (args.trace && !args.trace_out.empty() && !tracer.write_json(args.trace_out)) {
    problems.push_back("cannot write " + args.trace_out);
  }

  std::printf("workload %s, seed %llu: %d cells, %d set-up samples, %.1f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), reps,
              static_cast<int>(setup_samples.size()), elapsed());
  for (int i = 0; i < graphs; ++i) {
    const std::size_t g = static_cast<std::size_t>(i);
    std::printf("cell %d: %s, outputs %016llx\n", i, batch[g].spec.label().c_str(),
                static_cast<unsigned long long>(reference[g].fingerprint()));
  }
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(first.fingerprint()));
  std::printf("%s\n", outputs_line(first).c_str());
  for (const std::string& f : first.failures) std::printf("failed: %s\n", f.c_str());
  for (const std::string& p : problems) std::printf("GATE FAILED: %s\n", p.c_str());

  const cellbench::Counters& c = first.counters;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  MetricWriter m;
  if (!args.trace) {
    const double sim_s = sim_untraced.median_of_means();
    m.add("setup_s", median(setup_samples), "s");
    m.add("sim_s", sim_s, "s");
    m.add("frames_per_s", ratio(n(c.lan_frames) / graphs, sim_s), "frames/s");
    m.add("peak_rss_mib", peak_rss_mib(), "MiB");
    m.add("ok_frac", ratio(n(first.attempted - first.failed), n(first.attempted)), "ratio");
  } else {
    const double sim_s = sim_traced.median_of_means();
    m.add("topology.build_us_per_station",
          ratio(median(build_samples) * 1e6, n(first.stations)), "us");
    m.add("arena.bytes_per_station", ratio(n(first.build_arena_bytes), n(first.stations)),
          "B");
    m.add("lan.frames", n(c.lan_frames), "count");
    m.add("lan.bytes", n(c.lan_bytes), "B");
    m.add("lan.lost", n(c.lan_lost), "count");
    m.add("lan.deliveries_per_frame", ratio(n(c.nic_deliveries), n(c.lan_frames)), "ratio");
    m.add("nic.deliveries", n(c.nic_deliveries), "count");
    m.add("nic.rx_filtered", n(c.nic_rx_filtered), "count");
    m.add("nic.tx_dropped", n(c.nic_tx_dropped), "count");
    m.add("nic.accept_frac", ratio(n(c.nic_rx_frames), n(c.nic_deliveries)), "ratio");
    m.add("nic.ns_per_delivery", ratio(sim_s * graphs * 1e9, n(c.nic_deliveries)), "ns");
    m.add("stack.rx_per_frame", ratio(n(c.stack_rx_frames), n(c.lan_frames)), "ratio");
    m.add("stack.arp_requests", n(c.arp_requests), "count");
    m.add("stack.arp_replies", n(c.arp_replies), "count");
    m.add("stack.echo_answered", n(c.echo_answered), "count");
    m.add("stack.tcp_delivered", n(c.tcp_delivered), "count");
    m.add("stack.parse_errors", n(c.parse_errors), "count");
    m.add("tcp.retransmits", n(first.tcp_retransmits), "count");
    m.add("bridge.frames_in", n(c.bridge_frames_in), "count");
    m.add("bridge.flooded", n(c.bridge_flooded), "count");
    m.add("bridge.directed", n(c.bridge_directed), "count");
    m.add("learning.hit_frac", ratio(n(c.learning_hits), n(c.learning_lookups)), "ratio");
    m.add("learning.entries", n(c.learning_entries), "count");
    m.add("stp.configs_sent", n(c.stp_configs_sent), "count");
    m.add("stp.blocked_ports", n(c.stp_blocked_ports), "count");
    m.add("scheduler.events", n(c.sched_events), "count");
    m.add("scheduler.inserts", n(c.sched_inserts), "count");
    m.add("scheduler.entries_per_insert", ratio(n(c.sched_scheduled), n(c.sched_inserts)),
          "ratio");
    m.add("scheduler.events_per_frame", ratio(n(c.sched_events), n(c.lan_frames)), "ratio");
    m.add("runner.rounds", n(c.runner_rounds), "count");
    m.add("runner.rounds_per_vsec", ratio(n(c.runner_rounds), first.virtual_s), "1/s");
    m.add("runner.events_per_round", ratio(n(c.sched_events), n(c.runner_rounds)), "ratio");
    m.add("runner.spills", n(c.runner_spills), "count");
    m.add("phase.converge_s", converge_traced.median_of_means(), "s");
    m.add("phase.traffic_s", traffic_traced.median_of_means(), "s");
    m.add("trace.overhead_frac", ratio(sim_s, sim_untraced.median_of_means()) - 1.0,
          "ratio");
  }
  const bool correct = problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed), m.body().c_str());
  return correct ? 0 : 1;
}
