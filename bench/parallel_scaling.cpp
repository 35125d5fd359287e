// Parallel scaling bench for the sharded simulation core.
//
// Two cells. First the flood/ping star: five runs -- the legacy
// single-Network baseline, then the sharded path (8 regions) at 1, 2, 4
// and 8 worker threads. Before any timing claim is written out the bench
// asserts the sharded runs are bit-identical across thread counts --
// frames, bytes, events, heap inserts -- because a speedup that changes
// the answer is not a speedup.
//
// Then aggregate_parallel: the million-station acceptance cell
// (star-8x125000, 1,125,000 arena-backed stations under the aggregate
// workload) through the SAME five runs. This is the cell the sharded core
// exists for -- the macro bench's biggest cell, now with per-region
// arenas and the shard-partitioned workload -- and it carries two extra
// acceptance columns: build_ms (the serial topology build) and
// bytes_per_station. Speedups for this cell are computed over SIM time
// (wall_seconds - build_ms/1000): the build is serial by design and would
// otherwise cap the measured scaling long before the event loop does.
// Always full scale, --smoke included: the bit-identity assertion against
// the legacy path and the 4-thread speedup bound in
// scripts/check_bench_smoke.sh are the tentpole's acceptance gate.
//
// Output: BENCH_parallel.json in the working directory. Each run stays on
// one line: scripts/check_bench_smoke.sh greps them. Speedups are relative
// to the sharded 1-thread run (same code path, only the worker count
// varies); hardware_concurrency is recorded so the smoke check can skip
// the scaling bounds on starved containers.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/scenario.h"

namespace {

struct RunRow {
  std::string run;   // "legacy" or "sharded-t<N>"
  int threads = 1;
  int shard_regions = 0;
  ab::apps::SweepResult result;
};

bool counters_match(const ab::apps::SweepResult& a,
                    const ab::apps::SweepResult& b) {
  return a.frames_carried == b.frames_carried &&
         a.bytes_carried == b.bytes_carried &&
         a.frames_lost == b.frames_lost && a.mac_entries == b.mac_entries &&
         a.pings_sent == b.pings_sent &&
         a.pings_answered == b.pings_answered && a.events == b.events &&
         a.heap_inserts == b.heap_inserts &&
         a.scheduled_entries == b.scheduled_entries;
}

/// How the run's waiting threads passed the time between rounds: "serial"
/// for the legacy path and the 1-thread runner (nothing waits),
/// "spin-park" when waiters spin before parking, "park" when they park at
/// once because the workers take every hardware thread.
const char* wait_mode(const RunRow& row) {
  if (row.shard_regions == 0 || row.threads <= 1) return "serial";
  return row.result.runner_spins ? "spin-park" : "park";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  ab::netsim::TopologySpec spec;
  spec.shape = ab::netsim::TopologyShape::kStar;
  spec.nodes = 8;
  spec.hosts_per_lan = smoke ? 4 : 16;
  const std::string cell =
      "star-" + std::to_string(spec.nodes) + "x" +
      std::to_string(spec.hosts_per_lan);

  std::vector<RunRow> rows;

  {
    RunRow row;
    row.run = "legacy";
    ab::apps::TopologySweep sweep;  // single Network, one scheduler
    row.result = sweep.run_cell(spec);
    rows.push_back(std::move(row));
  }
  for (const int threads : {1, 2, 4, 8}) {
    RunRow row;
    row.run = "sharded-t" + std::to_string(threads);
    row.threads = threads;
    row.shard_regions = 8;
    ab::apps::SweepOptions opts;
    opts.shard_regions = row.shard_regions;
    opts.threads = threads;
    ab::apps::TopologySweep sweep(opts);
    row.result = sweep.run_cell(spec);
    rows.push_back(std::move(row));
  }

  // Determinism gate: every sharded run must agree with the sharded
  // 1-thread run on every counter, scheduler internals included.
  const ab::apps::SweepResult& sharded_1t = rows[1].result;
  bool deterministic = true;
  for (std::size_t i = 2; i < rows.size(); ++i) {
    if (!counters_match(rows[i].result, sharded_1t)) {
      deterministic = false;
      std::fprintf(stderr, "FAIL: %s diverges from sharded-t1\n",
                   rows[i].run.c_str());
    }
  }
  // And the sharded runs must carry the oracle's traffic (star cells are
  // tie-free, so even frame counts match the legacy path exactly).
  const ab::apps::SweepResult& legacy = rows[0].result;
  if (sharded_1t.frames_carried != legacy.frames_carried ||
      sharded_1t.bytes_carried != legacy.bytes_carried ||
      sharded_1t.pings_answered != legacy.pings_answered) {
    deterministic = false;
    std::fprintf(stderr, "FAIL: sharded traffic diverges from legacy\n");
  }

  // ---- aggregate_parallel: the 1.125M-station cell, sharded ---------------
  ab::netsim::TopologySpec agg_spec;
  agg_spec.shape = ab::netsim::TopologyShape::kStar;
  agg_spec.nodes = 8;
  agg_spec.hosts_per_lan = 125000;
  const std::string agg_cell =
      "star-" + std::to_string(agg_spec.nodes) + "x" +
      std::to_string(agg_spec.hosts_per_lan);

  std::vector<RunRow> agg_rows;
  {
    RunRow row;
    row.run = "agg-legacy";
    ab::apps::AggregateHostWorkload workload;
    ab::apps::TopologySweep sweep;
    row.result = sweep.run_cell(agg_spec, workload);
    agg_rows.push_back(std::move(row));
  }
  for (const int threads : {1, 2, 4, 8}) {
    RunRow row;
    row.run = "agg-sharded-t" + std::to_string(threads);
    row.threads = threads;
    row.shard_regions = 8;
    ab::apps::SweepOptions opts;
    opts.shard_regions = row.shard_regions;
    opts.threads = threads;
    ab::apps::AggregateHostWorkload workload;
    ab::apps::TopologySweep sweep(opts);
    row.result = sweep.run_cell(agg_spec, workload);
    agg_rows.push_back(std::move(row));
  }

  // Determinism gate, aggregate cell: sharded runs bit-identical across
  // thread counts (scheduler internals included)...
  const ab::apps::SweepResult& agg_1t = agg_rows[1].result;
  bool agg_deterministic = true;
  for (std::size_t i = 2; i < agg_rows.size(); ++i) {
    if (!counters_match(agg_rows[i].result, agg_1t)) {
      agg_deterministic = false;
      std::fprintf(stderr, "FAIL: %s diverges from agg-sharded-t1\n",
                   agg_rows[i].run.c_str());
    }
  }
  // ...and the partitioned workload must reproduce the legacy path's
  // traffic EXACTLY (star cells are tie-free): frames, bytes, pings, MAC
  // tables, and the ttcp stream's bytes. This is the in-bench bit-identity
  // assertion the sharded aggregate workload ships under.
  const ab::apps::SweepResult& agg_legacy = agg_rows[0].result;
  bool agg_matches_legacy =
      agg_1t.frames_carried == agg_legacy.frames_carried &&
      agg_1t.bytes_carried == agg_legacy.bytes_carried &&
      agg_1t.frames_lost == agg_legacy.frames_lost &&
      agg_1t.mac_entries == agg_legacy.mac_entries &&
      agg_1t.pings_sent == agg_legacy.pings_sent &&
      agg_1t.pings_answered == agg_legacy.pings_answered &&
      agg_1t.streams.size() == agg_legacy.streams.size();
  if (agg_matches_legacy) {
    for (std::size_t s = 0; s < agg_1t.streams.size(); ++s) {
      agg_matches_legacy =
          agg_matches_legacy &&
          agg_1t.streams[s].bytes_sent == agg_legacy.streams[s].bytes_sent &&
          agg_1t.streams[s].bytes_received ==
              agg_legacy.streams[s].bytes_received;
    }
  }
  if (!agg_matches_legacy) {
    std::fprintf(stderr,
                 "FAIL: sharded aggregate traffic diverges from legacy\n");
  }

  // Sim time excludes the serial topology build; below zero never happens
  // but guard the division anyway.
  const auto sim_seconds = [](const ab::apps::SweepResult& r) {
    const double sim = r.wall_seconds - r.build_ms / 1000.0;
    return sim > 0.0 ? sim : r.wall_seconds;
  };
  const double agg_base_sim = sim_seconds(agg_1t);

  const double base_eps = sharded_1t.events_per_sec;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("parallel scaling: %s  (hardware_concurrency=%u)\n",
              cell.c_str(), hw);
  std::printf("%-12s %7s %7s %12s %10s %12s %8s\n", "run", "threads",
              "regions", "events", "wall_s", "events/s", "speedup");
  for (const RunRow& row : rows) {
    const double speedup =
        (row.shard_regions > 0 && base_eps > 0.0)
            ? row.result.events_per_sec / base_eps
            : 1.0;
    std::printf("%-12s %7d %7d %12llu %10.3f %12.0f %8.2f\n",
                row.run.c_str(), row.threads, row.shard_regions,
                static_cast<unsigned long long>(row.result.events),
                row.result.wall_seconds, row.result.events_per_sec, speedup);
  }
  std::printf("deterministic across thread counts: %s\n",
              deterministic ? "yes" : "NO");

  std::printf("\naggregate parallel: %s  (%llu stations)\n", agg_cell.c_str(),
              static_cast<unsigned long long>(agg_legacy.hosts));
  std::printf("%-16s %7s %7s %10s %10s %10s %12s %8s\n", "run", "threads",
              "regions", "build_s", "wall_s", "sim_s", "B/station",
              "speedup");
  for (const RunRow& row : agg_rows) {
    const double sim = sim_seconds(row.result);
    const double speedup =
        (row.shard_regions > 0 && sim > 0.0) ? agg_base_sim / sim : 1.0;
    std::printf("%-16s %7d %7d %10.2f %10.2f %10.2f %12.1f %8.2f\n",
                row.run.c_str(), row.threads, row.shard_regions,
                row.result.build_ms / 1000.0, row.result.wall_seconds, sim,
                row.result.bytes_per_station, speedup);
  }
  std::printf("aggregate deterministic across thread counts: %s\n",
              agg_deterministic ? "yes" : "NO");
  std::printf("aggregate sharded matches legacy bit-identically: %s\n",
              agg_matches_legacy ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_parallel.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"parallel_scaling\",\n"
               "  \"smoke\": %s,\n"
               "  \"cell\": \"%s\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"deterministic\": %s,\n"
               "  \"runs\": [\n",
               smoke ? "true" : "false", cell.c_str(), hw,
               deterministic ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& row = rows[i];
    const double speedup =
        (row.shard_regions > 0 && base_eps > 0.0)
            ? row.result.events_per_sec / base_eps
            : 1.0;
    std::fprintf(f,
                 "    {\"run\": \"%s\", \"threads\": %d, "
                 "\"shard_regions\": %d, \"events\": %llu, "
                 "\"frames_carried\": %llu, \"bytes_carried\": %llu, "
                 "\"rounds\": %llu, \"inline_rounds\": %llu, "
                 "\"wait_mode\": \"%s\", "
                 "\"wall_seconds\": %.6f, \"events_per_sec\": %.0f, "
                 "\"speedup_vs_1t\": %.3f}%s\n",
                 row.run.c_str(), row.threads, row.shard_regions,
                 static_cast<unsigned long long>(row.result.events),
                 static_cast<unsigned long long>(row.result.frames_carried),
                 static_cast<unsigned long long>(row.result.bytes_carried),
                 static_cast<unsigned long long>(row.result.runner_rounds),
                 static_cast<unsigned long long>(row.result.inline_rounds),
                 wait_mode(row), row.result.wall_seconds,
                 row.result.events_per_sec, speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"aggregate_cell\": \"%s\",\n"
               "  \"aggregate_stations\": %d,\n"
               "  \"aggregate_deterministic\": %s,\n"
               "  \"aggregate_matches_legacy\": %s,\n"
               "  \"aggregate_runs\": [\n",
               agg_cell.c_str(), agg_legacy.hosts,
               agg_deterministic ? "true" : "false",
               agg_matches_legacy ? "true" : "false");
  for (std::size_t i = 0; i < agg_rows.size(); ++i) {
    const RunRow& row = agg_rows[i];
    const double sim = sim_seconds(row.result);
    const double speedup =
        (row.shard_regions > 0 && sim > 0.0) ? agg_base_sim / sim : 1.0;
    std::uint64_t stream_bytes = 0;
    for (const auto& s : row.result.streams) stream_bytes += s.bytes_received;
    std::fprintf(f,
                 "    {\"run\": \"%s\", \"threads\": %d, "
                 "\"shard_regions\": %d, \"events\": %llu, "
                 "\"frames_carried\": %llu, \"bytes_carried\": %llu, "
                 "\"pings_answered\": %d, \"mac_entries\": %llu, "
                 "\"stream_bytes_received\": %llu, \"build_ms\": %.1f, "
                 "\"bytes_per_station\": %.1f, \"rounds\": %llu, "
                 "\"inline_rounds\": %llu, \"wait_mode\": \"%s\", "
                 "\"wall_seconds\": %.6f, "
                 "\"sim_seconds\": %.6f, \"speedup_vs_1t\": %.3f}%s\n",
                 row.run.c_str(), row.threads, row.shard_regions,
                 static_cast<unsigned long long>(row.result.events),
                 static_cast<unsigned long long>(row.result.frames_carried),
                 static_cast<unsigned long long>(row.result.bytes_carried),
                 row.result.pings_answered,
                 static_cast<unsigned long long>(row.result.mac_entries),
                 static_cast<unsigned long long>(stream_bytes),
                 row.result.build_ms, row.result.bytes_per_station,
                 static_cast<unsigned long long>(row.result.runner_rounds),
                 static_cast<unsigned long long>(row.result.inline_rounds),
                 wait_mode(row), row.result.wall_seconds, sim, speedup,
                 i + 1 < agg_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_parallel.json\n");

  return (deterministic && agg_deterministic && agg_matches_legacy) ? 0 : 1;
}
