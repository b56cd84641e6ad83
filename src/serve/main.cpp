// tvnep_serve — the online admission daemon (DESIGN.md §13).
//
// Daemon mode (default): reads NDJSON requests from stdin and writes
// decisions to stdout; --port switches to a loopback TCP listener.
// Generator mode (--emit N): prints N workload-generator requests as
// protocol NDJSON and exits — `tvnep_serve --emit 200 | tvnep_serve` is
// the whole quickstart pipeline.
//
//   tvnep_serve [--slo-ms 100] [--shed-fraction 0.5] [--queue 256]
//               [--max-step 64] [--reopt-interval-ms 0] [--reopt-budget 2]
//               [--port P]                 (0 = ephemeral; prints the port)
//               [--slo-window 60] [--slo-budget 0.05]
//               [--metrics-port P]         (loopback /metrics listener)
//               [--state-dir D]            (durable WAL + snapshots, §16)
//               [--wal-fsync every|batch] [--snapshot-every 256]
//               [--log F] [--log-level info] [--live-flush-ms 0]
//               [--rows 4 --cols 5 --node-cap 3.5 --link-cap 5]
//               [--trace F] [--trace-jsonl F] [--metrics F] [--tree-log F]
//   tvnep_serve --emit N [--seed 1] [--flex 1.5] [--interarrival 1]
//               [--leaves 4] [--no-mappings] [--save-trace F]
//               [--from-trace F] [--no-drain]
//   tvnep_serve --dump-state --state-dir D   (recover, validate, print, exit)
#include <atomic>
#include <csignal>
#include <iostream>
#include <memory>
#include <sstream>

#include "eval/args.hpp"
#include "net/topology.hpp"
#include "obs/log.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/metrics_server.hpp"
#include "serve/protocol.hpp"
#include "serve/wal.hpp"
#include "support/check.hpp"
#include "workload/trace.hpp"

namespace {

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  // A client that hangs up mid-reply must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);
}

int emit_requests(const tvnep::eval::Args& args) {
  namespace workload = tvnep::workload;
  const std::string from = args.get_string("from-trace", "");
  workload::WorkloadParams params;
  if (from.empty()) {
    params.num_requests = args.get_int("emit", 20);
    params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    params.flexibility = args.get_double("flex", 1.5);
    params.interarrival_mean = args.get_double("interarrival", 1.0);
    params.star_leaves = args.get_int("leaves", 4);
    params.grid_rows = args.get_int("rows", 4);
    params.grid_cols = args.get_int("cols", 5);
    params.fix_node_mappings = !args.get_bool("no-mappings", false);
  }
  const std::string save = args.get_string("save-trace", "");
  const bool drain = !args.get_bool("no-drain", false);
  args.reject_unused_flags();

  const workload::ArrivalTrace trace =
      from.empty() ? workload::make_trace(params) : workload::load_trace(from);
  if (!save.empty()) workload::save_trace(trace, save);

  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    tvnep::serve::RequestMessage message;
    message.id = trace.requests[i].request.name().empty()
                     ? "R" + std::to_string(i)
                     : trace.requests[i].request.name();
    message.request = trace.requests[i].request;
    message.mapping = trace.requests[i].mapping;
    std::cout << tvnep::serve::encode_request(message) << '\n';
  }
  if (drain) std::cout << "{\"type\":\"drain\"}\n";
  return 0;
}

bool parse_wal_flags(const tvnep::eval::Args& args,
                     tvnep::serve::DaemonOptions* options) {
  options->state_dir = args.get_string("state-dir", "");
  const std::string fsync_mode = args.get_string("wal-fsync", "every");
  if (fsync_mode == "batch") {
    options->wal.fsync = tvnep::serve::WalOptions::Fsync::kBatch;
  } else if (fsync_mode != "every") {
    std::cerr << "tvnep_serve: unknown --wal-fsync \"" << fsync_mode
              << "\" (every|batch)\n";
    return false;
  }
  options->wal.snapshot_every = args.get_int("snapshot-every", 256);
  return true;
}

// --dump-state: recover from --state-dir exactly as the daemon would
// (snapshot + WAL tail + capacity validation), print the recovered commit
// ledger as one JSON line, and exit — what the CI recover job diffs the
// pre-kill acknowledgements against. Exit 1 when validation fails.
int dump_state(const tvnep::eval::Args& args) {
  namespace serve = tvnep::serve;
  const std::string state_dir = args.get_string("state-dir", "");
  if (state_dir.empty()) {
    std::cerr << "tvnep_serve: --dump-state requires --state-dir\n";
    return 1;
  }
  serve::AdmissionOptions admission;
  admission.max_step_requests = args.get_int("max-step", 64);
  const tvnep::net::SubstrateNetwork substrate = tvnep::net::make_grid(
      args.get_int("rows", 4), args.get_int("cols", 5),
      args.get_double("node-cap", 3.5), args.get_double("link-cap", 5.0));
  args.reject_unused_flags();

  serve::RecoveredState recovered;
  const std::unique_ptr<serve::Wal> wal = serve::Wal::open(
      state_dir, serve::serve_state_fingerprint(substrate, admission),
      serve::WalOptions{}, &recovered);
  const serve::WalStats stats = wal->stats();
  const tvnep::core::ValidationResult check = serve::validate_commit_state(
      substrate, recovered.state.commits, recovered.state.retired);

  std::ostringstream out;
  out << "{\"type\":\"state\",\"recovered\":"
      << (recovered.had_state ? "true" : "false")
      << ",\"active\":" << recovered.state.commits.size()
      << ",\"retired\":" << recovered.state.retired.size()
      << ",\"decisions\":" << recovered.state.decisions
      << ",\"accepted\":" << recovered.state.accepted_total
      << ",\"now\":" << tvnep::exact_number(recovered.state.now)
      << ",\"replayed\":" << stats.replayed
      << ",\"torn_repaired\":" << stats.torn_repaired
      << ",\"validation_ok\":" << (check.ok ? "true" : "false")
      << ",\"validation_errors\":[";
  for (std::size_t i = 0; i < check.errors.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << tvnep::obs::json_escape(check.errors[i]) << '"';
  }
  out << "],\"commits\":[";
  bool first = true;
  const auto emit = [&](const serve::Commit& commit) {
    if (!first) out << ',';
    first = false;
    out << "{\"id\":\"" << tvnep::obs::json_escape(commit.id)
        << "\",\"seq\":" << commit.seq
        << ",\"start\":" << tvnep::exact_number(commit.start)
        << ",\"end\":" << tvnep::exact_number(commit.end)
        << ",\"fastpath\":" << (commit.fastpath ? "true" : "false") << "}";
  };
  for (const serve::Commit& commit : recovered.state.commits) emit(commit);
  for (const serve::Commit& commit : recovered.state.retired) emit(commit);
  out << "]}";
  std::cout << out.str() << std::endl;
  return check.ok ? 0 : 1;
}

int run_daemon(const tvnep::eval::Args& args) {
  namespace serve = tvnep::serve;
  serve::DaemonOptions options;
  if (!parse_wal_flags(args, &options)) return 1;
  options.slo_ms = args.get_double("slo-ms", 100.0);
  options.shed_fraction = args.get_double("shed-fraction", 0.5);
  options.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 256));
  options.reopt_interval_seconds =
      args.get_double("reopt-interval-ms", 0.0) / 1000.0;
  options.reopt.time_limit_seconds = args.get_double("reopt-budget", 2.0);
  options.admission.max_step_requests = args.get_int("max-step", 64);
  // The greedy step may use at most the SLO headroom the shed ladder leaves.
  options.admission.greedy.per_iteration_time_limit =
      options.shed_fraction * options.slo_ms / 1000.0;
  options.admission.greedy.mip.cancel = &g_stop;
  options.external_stop = &g_stop;
  options.slo.window_seconds = args.get_double("slo-window", 60.0);
  options.slo.budget_fraction = args.get_double("slo-budget", 0.05);

  tvnep::net::SubstrateNetwork substrate = tvnep::net::make_grid(
      args.get_int("rows", 4), args.get_int("cols", 5),
      args.get_double("node-cap", 3.5), args.get_double("link-cap", 5.0));
  const bool has_metrics_port = args.has("metrics-port");
  const int metrics_port_flag = args.get_int("metrics-port", 0);
  const bool has_port = args.has("port");
  const int port_flag = args.get_int("port", 0);
  args.reject_unused_flags();

  serve::Daemon daemon(std::move(substrate), options);
  if (!options.state_dir.empty()) {
    const serve::Daemon::RecoveryInfo& rec = daemon.recovery_info();
    std::cout << "{\"type\":\"recovered\",\"recovered\":"
              << (rec.recovered ? "true" : "false")
              << ",\"active\":" << rec.active << ",\"retired\":" << rec.retired
              << ",\"decisions\":" << rec.decisions
              << ",\"replayed\":" << rec.replayed
              << ",\"torn_repaired\":" << rec.torn_repaired
              << ",\"validated\":" << (rec.validated ? "true" : "false")
              << "}" << std::endl;
  }

  serve::MetricsServer metrics_server([&daemon] {
    serve::MetricsServerOptions server_options;
    server_options.const_labels = {{"service", "tvnep_serve"}};
    server_options.before_scrape = [&daemon] { daemon.refresh_slo_gauges(); };
    return server_options;
  }());
  if (has_metrics_port) {
    const int metrics_port = metrics_server.start(metrics_port_flag);
    if (metrics_port < 0) {
      tvnep::obs::log_error("serve.main", "cannot bind metrics port");
      return 1;
    }
    std::cout << "{\"type\":\"metrics_listening\",\"port\":" << metrics_port
              << "}" << std::endl;
  }

  long decided = 0;
  if (has_port) {
    const int port = daemon.listen_tcp(port_flag);
    if (port < 0) {
      tvnep::obs::log_error("serve.main", "cannot bind TCP port");
      return 1;
    }
    std::cout << "{\"type\":\"listening\",\"port\":" << port << "}"
              << std::endl;
    decided = daemon.serve_tcp();
  } else {
    decided = daemon.serve(STDIN_FILENO, STDOUT_FILENO);
  }
  metrics_server.stop();
  tvnep::obs::log_info(
      "serve.main", "daemon exit",
      "\"decisions\":" + std::to_string(decided) +
          ",\"accepted\":" + std::to_string(daemon.engine().accepted_total()) +
          ",\"retired\":" + std::to_string(daemon.engine().retired_commits()) +
          ",\"reopt_installs\":" +
          std::to_string(daemon.reoptimizer().installs()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tvnep::eval::Args args(argc, argv);
  try {
    tvnep::obs::LogConfig log_config;
    log_config.path = args.get_string("log", "");
    tvnep::obs::LogLevel level = tvnep::obs::LogLevel::kInfo;
    const std::string level_text = args.get_string("log-level", "info");
    if (!tvnep::obs::parse_log_level(level_text, &level)) {
      std::cerr << "tvnep_serve: unknown --log-level \"" << level_text
                << "\" (debug|info|warn|error|off)\n";
      return 1;
    }
    log_config.level = level;
    tvnep::obs::Logger::instance().configure(log_config);

    tvnep::obs::ObsConfig obs_config;
    obs_config.trace_path = args.get_string("trace", "");
    obs_config.trace_jsonl_path = args.get_string("trace-jsonl", "");
    obs_config.metrics_path = args.get_string("metrics", "");
    obs_config.tree_log_path = args.get_string("tree-log", "");
    obs_config.live_flush_seconds =
        args.get_double("live-flush-ms", 0.0) / 1000.0;
    // --metrics-port serves snapshots straight from the live registry; it
    // must be active even without a --metrics output file.
    obs_config.metrics_live = args.has("metrics-port");
    std::unique_ptr<tvnep::obs::ObsSession> session;
    if (obs_config.any())
      session = std::make_unique<tvnep::obs::ObsSession>(std::move(obs_config));

    if (args.has("emit") || args.has("from-trace")) return emit_requests(args);
    if (args.has("dump-state")) return dump_state(args);
    install_signal_handlers();
    return run_daemon(args);
  } catch (const tvnep::CheckError& e) {
    std::cerr << "tvnep_serve: " << e.what() << '\n';
    return 1;
  }
}
