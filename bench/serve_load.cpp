// Load bench for the admission service: replays a generated arrival trace
// through a serve::Daemon at 10x-1000x the paper's workload scale and
// reports per-request decision latency (p50/p90/p99/max from the raw
// samples), throughput, acceptance and revenue — greedy-only versus
// greedy plus periodic exact re-optimization, so the reoptimizer's revenue
// win is measurable on the same trace.
//
//   serve_load [--scale K] [--mode greedy|reopt|both] [--csv out.csv]
//              [--seed N] [--flex F] [--rows R] [--cols C]
//              [--slo-ms MS] [--shed-fraction F]
//              [--max-step 64] [--reopt-every N] [--reopt-budget S]
//              [--arrival-rate R] [--metrics-port P]
//              [--slo-window S] [--slo-budget F]
//              [--emit-trace PATH]
//              [--state-dir DIR] [--wal-fsync off|batch|every] [--wal-ab]
//
// `--scale K` runs K * 20 requests (the paper's evaluation uses 20).
// Every request is decided by Daemon::decide, the worker's own step, so
// the bench walks the daemon's shed ladder (overload, aged, budget,
// solver) and exports the daemon's metric names. It calls that step in
// process instead of over pipes: reoptimization then runs synchronously
// every `--reopt-every` admissions and the bench stays deterministic; the
// daemon runs the same passes on a wall-clock interval thread instead.
//
// `--arrival-rate R` (virtual requests/second, 0 = as fast as possible)
// replays the trace through a simulated single-server queue on a virtual
// clock: request i arrives at i/R, waits for the server, and is decided at
// its *virtual* queue age, with measured wall-clock service times. The SLO
// error budget runs on the same virtual clock. That makes queue depth,
// per-rung shed counts and the SLO budget measurable without sleeps.
//
// `--metrics-port P` starts the same loopback /metrics listener the
// daemon uses; the daemon's decision step records latency, rung counters
// and the SLO budget gauges into the live registry, so a 1 Hz scraper
// watches the run as it happens.
//
// `--state-dir DIR` turns the durability layer on: every decision is
// write-ahead-logged (DESIGN.md §16) before it counts, with the fsync
// cadence from `--wal-fsync` (default batch). `--wal-ab` instead runs
// each selected mode three times — WAL off, batch, every — on the same
// trace and reports the p99 cost of each durability level side by side
// (the acceptance bar: batch within 15% of off under the 100 ms SLO).
#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "eval/args.hpp"
#include "fig_common.hpp"
#include "net/topology.hpp"
#include "serve/daemon.hpp"
#include "serve/metrics_server.hpp"
#include "support/atomic_file.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "workload/trace.hpp"

using namespace tvnep;

namespace {

struct LoadOptions {
  /// The daemon configuration every run starts from; run_mode fills in
  /// the WAL directory and fsync cadence of its durability level.
  serve::DaemonOptions daemon;
  double arrival_rate = 0.0;  // virtual req/s; 0 = no queue simulation
  int reopt_every = 4;
  /// WAL A/B axis: "off" disables the durability layer; "batch"/"every"
  /// write-ahead-log each decision into `state_root/<mode>-<wal>` with
  /// the corresponding fsync cadence.
  std::string wal = "off";
  std::string state_root;
};

struct ModeResult {
  std::string mode;
  long requests = 0;
  long accepted = 0;
  serve::Daemon::LadderCounts ladder;
  double revenue = 0.0;
  long reopt_passes = 0;
  long reopt_installs = 0;
  long reopt_stale = 0;
  long max_queue_depth = 0;
  double mean_queue_depth = 0.0;
  double slo_budget_remaining = 1.0;
  std::string wal = "off";
  long wal_appends = 0;
  long wal_fsyncs = 0;
  long wal_snapshots = 0;
  // Every request's latency. Quantiles come from these samples, not from
  // log2 histogram buckets: a bucket-interpolated p99 in [16, 32) ms is
  // off by several ms, more than the WAL A/B gate's bound.
  std::vector<double> latencies_ms;
  double total_seconds = 0.0;

  double req_per_s() const {
    return total_seconds > 0.0
               ? static_cast<double>(requests) / total_seconds
               : 0.0;
  }
  double latency_quantile_ms(double q) const {
    return latencies_ms.empty() ? 0.0 : quantile(latencies_ms, q);
  }
};

ModeResult run_mode(const workload::ArrivalTrace& trace,
                    const workload::WorkloadParams& params, bool with_reopt,
                    const LoadOptions& load) {
  ModeResult result;
  result.mode = with_reopt ? "reopt" : "greedy";
  result.wal = load.wal;

  serve::DaemonOptions options = load.daemon;
  if (load.wal != "off") {
    // Each run gets a fresh directory so the A/B rows measure logging
    // cost, never recovery cost.
    options.state_dir = load.state_root + "/" + result.mode + "-" + load.wal;
    std::error_code ec;
    std::filesystem::remove_all(options.state_dir, ec);
    options.wal.fsync = load.wal == "batch" ? serve::WalOptions::Fsync::kBatch
                                            : serve::WalOptions::Fsync::kEvery;
  }
  serve::Daemon daemon(
      net::make_grid(params.grid_rows, params.grid_cols, params.node_capacity,
                     params.link_capacity),
      options);

  const bool paced = load.arrival_rate > 0.0;
  double server_free = 0.0;       // virtual clock: when the server frees up
  std::deque<double> in_flight;   // virtual finish times of undecided work
  long depth_sum = 0;
  double slo_now = 0.0;           // the SLO window's time after a decision

  Stopwatch total;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    serve::RequestMessage message;
    message.id = "R" + std::to_string(i);
    message.request = trace.requests[i].request;
    message.mapping = trace.requests[i].mapping;

    // Virtual queue state at this arrival (zero when unpaced).
    const double arrival =
        paced ? static_cast<double>(i) / load.arrival_rate : 0.0;
    while (!in_flight.empty() && in_flight.front() <= arrival)
      in_flight.pop_front();
    const long depth = static_cast<long>(in_flight.size());
    result.max_queue_depth = std::max(result.max_queue_depth, depth);
    depth_sum += depth;
    const double start_service = paced ? std::max(arrival, server_free) : 0.0;
    const double now = paced ? start_service : total.seconds();

    Stopwatch service;
    const serve::Decision decision =
        daemon.decide(message, start_service - arrival, now);
    const double service_s = service.seconds();
    slo_now = now + service_s;
    if (paced) {
      server_free = slo_now;
      in_flight.push_back(server_free);
    }
    // Snapshot cadence between requests, exactly like the daemon worker:
    // the WAL append (inside the decision) is in the measured latency;
    // the compaction is not on any request's critical path.
    daemon.snapshot_if_due();

    result.latencies_ms.push_back(decision.latency_ms);
    ++result.requests;
    if (decision.accepted) ++result.accepted;

    if (with_reopt && load.reopt_every > 0 &&
        (i + 1) % static_cast<std::size_t>(load.reopt_every) == 0) {
      const serve::ReoptReport report =
          daemon.reoptimizer().reoptimize_once();
      if (report.attempted) ++result.reopt_passes;
      if (report.installed) ++result.reopt_installs;
      if (report.stale) ++result.reopt_stale;
    }
  }
  result.total_seconds = total.seconds();
  if (result.requests > 0)
    result.mean_queue_depth =
        static_cast<double>(depth_sum) / static_cast<double>(result.requests);
  result.ladder = daemon.ladder_counts();
  result.slo_budget_remaining =
      daemon.slo_budget().read(slo_now).budget_remaining;

  if (const serve::Wal* wal = daemon.wal()) {
    const serve::WalStats stats = wal->stats();
    result.wal_appends = stats.appends;
    result.wal_fsyncs = stats.fsyncs;
    result.wal_snapshots = stats.snapshots;
  }

  // Paper revenue (Section IV-E.1): every commit in the history is an
  // accepted request contributing d_R * sum of its node demands.
  for (const serve::Commit& c : daemon.engine().history())
    result.revenue += c.original.duration() * c.original.total_node_demand();
  return result;
}

void print_result(const ModeResult& r) {
  std::printf(
      "%-6s wal=%-5s requests=%-6ld accepted=%-6ld shed=%-5ld aged=%-4ld "
      "budget=%-4ld overload=%-4ld revenue=%-10.3f reopt=%ld/%ld stale=%ld  "
      "p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms  qmax=%ld qmean=%.2f "
      "slo_budget=%.2f  wal=%ld/%ld/%ld  %.1f req/s (%.2fs total)\n",
      r.mode.c_str(), r.wal.c_str(), r.requests, r.accepted, r.ladder.solver,
      r.ladder.aged, r.ladder.budget, r.ladder.overload, r.revenue,
      r.reopt_installs, r.reopt_passes, r.reopt_stale,
      r.latency_quantile_ms(0.50),
      r.latency_quantile_ms(0.90), r.latency_quantile_ms(0.99),
      r.latency_quantile_ms(1.0),
      r.max_queue_depth, r.mean_queue_depth, r.slo_budget_remaining,
      r.wal_appends, r.wal_fsyncs, r.wal_snapshots, r.req_per_s(),
      r.total_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  bench::init_observability(args);

  const int scale = args.get_int("scale", 10);
  const std::string mode = args.get_string("mode", "both");

  workload::WorkloadParams params;
  params.num_requests = scale * 20;
  params.flexibility = args.get_double("flex", 1.5);
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  params.grid_rows = args.get_int("rows", params.grid_rows);
  params.grid_cols = args.get_int("cols", params.grid_cols);

  const workload::ArrivalTrace trace = workload::make_trace(params);
  const std::string trace_out = args.get_string("emit-trace", "");
  if (!trace_out.empty()) workload::save_trace(trace, trace_out);

  LoadOptions load;
  serve::DaemonOptions& daemon = load.daemon;
  daemon.slo_ms = args.get_double("slo-ms", 100.0);
  daemon.shed_fraction = args.get_double("shed-fraction", 0.5);
  daemon.admission.max_step_requests = args.get_int("max-step", 64);
  // The exact path gets the same per-step budget as in tvnep_serve: what
  // the shed ladder leaves it before falling back to the fastpath.
  daemon.admission.greedy.per_iteration_time_limit =
      daemon.shed_fraction * daemon.slo_ms / 1000.0;
  daemon.reopt.time_limit_seconds = args.get_double("reopt-budget", 2.0);
  // No interval thread: run_mode reoptimizes every --reopt-every
  // admissions, so a run's revenue does not depend on timing.
  daemon.reopt_interval_seconds = 0.0;
  daemon.slo.window_seconds = args.get_double("slo-window", 60.0);
  daemon.slo.budget_fraction = args.get_double("slo-budget", 0.05);
  load.reopt_every = args.get_int("reopt-every", 4);
  load.arrival_rate = args.get_double("arrival-rate", 0.0);

  const bool has_metrics_port = args.has("metrics-port");
  const int metrics_port_flag = args.get_int("metrics-port", 0);
  // WAL A/B axis: --wal-ab runs each mode at off/batch/every; otherwise a
  // single durability level from --state-dir / --wal-fsync (default off).
  const std::string wal_fsync = args.get_string("wal-fsync", "batch");
  load.state_root = args.get_string("state-dir", "");
  const bool wal_ab = args.has("wal-ab");
  const std::string csv = args.get_string("csv", "");
  args.reject_unused_flags();

  serve::MetricsServer metrics_server({{{"service", "serve_load"}}, {}});
  if (has_metrics_port) {
    const int metrics_port = metrics_server.start(metrics_port_flag);
    if (metrics_port < 0) {
      std::cerr << "serve_load: cannot bind metrics port\n";
      return 1;
    }
    std::printf("serve_load: /metrics on 127.0.0.1:%d\n", metrics_port);
  }

  std::printf("serve_load: scale=%dx (%d requests), seed=%llu, flex=%g, "
              "slo=%gms, max-step=%d, arrival-rate=%g\n",
              scale, params.num_requests,
              static_cast<unsigned long long>(params.seed),
              params.flexibility, daemon.slo_ms,
              daemon.admission.max_step_requests,
              load.arrival_rate);

  if (wal_fsync != "off" && wal_fsync != "batch" && wal_fsync != "every") {
    std::cerr << "serve_load: --wal-fsync must be off, batch, or every\n";
    return 1;
  }
  std::vector<std::string> wal_levels;
  if (wal_ab)
    wal_levels = {"off", "batch", "every"};
  else if (!load.state_root.empty())
    wal_levels = {wal_fsync};
  else
    wal_levels = {"off"};
  if (load.state_root.empty()) load.state_root = "serve_load_state";

  std::vector<ModeResult> results;
  for (const std::string& wal_level : wal_levels) {
    load.wal = wal_level;
    if (mode == "greedy" || mode == "both")
      results.push_back(run_mode(trace, params, /*with_reopt=*/false, load));
    if (mode == "reopt" || mode == "both")
      results.push_back(run_mode(trace, params, /*with_reopt=*/true, load));
  }
  for (const ModeResult& r : results) print_result(r);
  metrics_server.stop();

  // Same-mode revenue deltas only make sense within one durability level.
  if (results.size() == 2 && wal_levels.size() == 1) {
    const double delta = results[1].revenue - results[0].revenue;
    std::printf("reopt revenue delta: %+.3f (%+.2f%%), accepted %+ld\n",
                delta,
                results[0].revenue > 0.0 ? 100.0 * delta / results[0].revenue
                                         : 0.0,
                results[1].accepted - results[0].accepted);
  }

  // A/B summary: the durability tax on tail latency, per engine mode.
  if (wal_levels.size() > 1) {
    for (const std::string& m : {std::string("greedy"), std::string("reopt")}) {
      const ModeResult* off = nullptr;
      for (const ModeResult& r : results)
        if (r.mode == m && r.wal == "off") off = &r;
      if (off == nullptr) continue;
      for (const ModeResult& r : results) {
        if (r.mode != m || r.wal == "off") continue;
        const double base = off->latency_quantile_ms(0.99);
        const double p99 = r.latency_quantile_ms(0.99);
        std::printf("wal p99 %-6s %-5s: %.2fms vs %.2fms off (%+.1f%%)\n",
                    m.c_str(), r.wal.c_str(), p99, base,
                    base > 0.0 ? 100.0 * (p99 - base) / base : 0.0);
      }
    }
  }

  if (!csv.empty()) {
    AtomicFile out(csv);
    out.stream() << "scale,mode,wal,requests,accepted,shed,shed_aged,"
                    "shed_budget,reject_overload,revenue,reopt_passes,"
                    "reopt_installs,reopt_stale,p50_ms,p90_ms,p99_ms,max_ms,"
                    "max_queue_depth,mean_queue_depth,slo_budget_remaining,"
                    "wal_appends,wal_fsyncs,wal_snapshots,"
                    "req_per_s,total_s\n";
    for (const ModeResult& r : results)
      out.stream() << scale << ',' << r.mode << ',' << r.wal << ','
                   << r.requests << ','
                   << r.accepted << ',' << r.ladder.solver << ','
                   << r.ladder.aged << ',' << r.ladder.budget << ','
                   << r.ladder.overload << ',' << r.revenue << ','
                   << r.reopt_passes << ',' << r.reopt_installs << ','
                   << r.reopt_stale << ','
                   << r.latency_quantile_ms(0.50) << ','
                   << r.latency_quantile_ms(0.90) << ','
                   << r.latency_quantile_ms(0.99) << ','
                   << r.latency_quantile_ms(1.0) << ','
                   << r.max_queue_depth << ',' << r.mean_queue_depth << ','
                   << r.slo_budget_remaining << ','
                   << r.wal_appends << ',' << r.wal_fsyncs << ','
                   << r.wal_snapshots << ','
                   << r.req_per_s() << ',' << r.total_seconds << '\n';
    if (!out.commit()) {
      std::cerr << "serve_load: failed to write " << csv << "\n";
      return 1;
    }
  }
  return 0;
}
