// admit_slo and admit_durable: an in-process serve::Daemon, configured as
// the tvnep_serve CLI configures it, driven over pipes through
// Daemon::serve by one poll-based generator/reader thread. The daemon adds
// its own reader thread; its worker is this process's main thread.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/topology.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/wal.hpp"
#include "support/stopwatch.hpp"
#include "trace_report.hpp"
#include "workload/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tvnep;

/// A serve workload as declared: the daemon configuration it must run
/// with and how it is loaded.
struct ServeSpec {
  const char* name;
  double slo_ms;
  double shed_fraction;
  int max_step;
  std::size_t queue;
  bool durable;  // --state-dir set: fsync-every WAL plus snapshots
  int snapshot_every;
  double rate;  // open-loop requests per second; 0 = closed loop
  /// Trace length cap (closed loop), and the prefix revenue is summed
  /// over so that it does not scale with throughput.
  long max_requests;
  long revenue_prefix;
  /// > 0: the trace is a chain of independent busy periods of this many
  /// requests (see make_trace_for).
  long segment_requests;
};

constexpr ServeSpec kAdmitSlo{"admit_slo", 100.0, 0.5, 64, 256, false, 256,
                              10.0, 0, 0, 15};
constexpr ServeSpec kAdmitDurable{"admit_durable", 100.0, 0.5, 1, 256, true,
                                  256, 0.0, 20000, 2000, 0};

// The request shape of the paper's evaluation (and of `tvnep_serve
// --emit`): five-node stars on the 4×5 grid, flexibility 1.5 h.
workload::WorkloadParams trace_params(std::uint64_t seed, long requests) {
  workload::WorkloadParams params;
  params.num_requests = static_cast<int>(requests);
  params.seed = seed;
  params.flexibility = 1.5;
  params.interarrival_mean = 1.0;
  params.star_leaves = 4;
  params.grid_rows = 4;
  params.grid_cols = 5;
  params.fix_node_mappings = true;
  return params;
}

net::SubstrateNetwork make_substrate() {
  // tvnep_serve's defaults: --rows 4 --cols 5 --node-cap 3.5 --link-cap 5.
  return net::make_grid(4, 5, 3.5, 5.0);
}

/// The daemon options run_daemon (src/serve/main.cpp) derives from the
/// CLI flags this workload corresponds to.
serve::DaemonOptions daemon_options(const ServeSpec& spec,
                                    const std::string& state_dir,
                                    const std::atomic<bool>* stop) {
  serve::DaemonOptions options;
  options.state_dir = spec.durable ? state_dir : std::string();
  options.wal.fsync = serve::WalOptions::Fsync::kEvery;
  options.wal.snapshot_every = spec.snapshot_every;
  options.slo_ms = spec.slo_ms;
  options.shed_fraction = spec.shed_fraction;
  options.queue_capacity = spec.queue;
  options.reopt_interval_seconds = 0.0;
  options.reopt.time_limit_seconds = 2.0;
  options.admission.max_step_requests = spec.max_step;
  options.admission.greedy.per_iteration_time_limit =
      options.shed_fraction * options.slo_ms / 1000.0;
  options.admission.greedy.mip.cancel = stop;
  options.external_stop = stop;
  options.slo.window_seconds = 60.0;
  options.slo.budget_fraction = 0.05;
  return options;
}

/// Refuses to run when the constructed daemon does not carry the declared
/// configuration.
std::string check_config(const ServeSpec& spec,
                         const serve::DaemonOptions& options,
                         serve::Daemon& daemon) {
  const serve::AdmissionOptions& admission = daemon.engine().options();
  const double budget_ms = admission.greedy.per_iteration_time_limit * 1000.0;
  const std::string line = format(
      "config %s: slo_ms=%g step_budget_ms=%g max_step=%d queue=%zu wal=%s "
      "fsync=%s snapshot_every=%d reopt=%s",
      spec.name, options.slo_ms, budget_ms, admission.max_step_requests,
      options.queue_capacity, daemon.wal() != nullptr ? "on" : "off",
      options.wal.fsync == serve::WalOptions::Fsync::kEvery ? "every"
                                                            : "batch",
      options.wal.snapshot_every,
      options.reopt_interval_seconds > 0.0 ? "on" : "off");
  const bool ok =
      options.slo_ms == spec.slo_ms &&
      std::abs(budget_ms - spec.shed_fraction * spec.slo_ms) < 1e-9 &&
      admission.max_step_requests == spec.max_step &&
      options.queue_capacity == spec.queue &&
      (daemon.wal() != nullptr) == spec.durable &&
      options.wal.fsync == serve::WalOptions::Fsync::kEvery &&
      options.wal.snapshot_every == spec.snapshot_every &&
      options.reopt_interval_seconds == 0.0;
  if (!ok) throw std::runtime_error("daemon config differs from spec: " + line);
  return line;
}

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    close_read();
    close_write();
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  void close_read() {
    if (read_fd >= 0) ::close(read_fd);
    read_fd = -1;
  }
  void close_write() {
    if (write_fd >= 0) ::close(write_fd);
    write_fd = -1;
  }
};

bool write_all(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// What the client saw of one request.
struct RequestRecord {
  double due = 0.0;   // scheduled (open loop) or actual (closed) send time
  double done = -1.0;
  int decisions = 0;
  bool accepted = false;
  std::string mode;
  std::string error;  // the error record answering this request, if any
  double start = 0.0;
  double end = 0.0;
};

struct StreamLog {
  std::vector<RequestRecord> requests;  // by trace index
  long sent = 0;
  long unknown = 0;  // decisions naming no sent request
  std::vector<std::string> stray_errors;  // error records with no request
  bool bye = false;
  double first_send = 0.0;
  double last_decision = 0.0;
  double late_max_ms = 0.0;
  std::vector<std::string> problems;
};

/// The one generator/reader thread: sends request lines (on a fixed
/// schedule, or each after the previous decision), then a drain, and
/// reads every line the daemon writes until "bye".
class Client {
 public:
  static constexpr double kPollSeconds = 0.05;

  Client(const std::vector<std::string>& lines, const ServeSpec& spec,
         double seconds, int to_daemon, int from_daemon, StreamLog* log)
      : lines_(lines),
        spec_(spec),
        seconds_(seconds),
        to_daemon_(to_daemon),
        from_daemon_(from_daemon),
        log_(log) {
    log_->requests.resize(lines.size());
  }

  void run() {
    const long total = static_cast<long>(lines_.size());
    const bool open_loop = spec_.rate > 0.0;
    bool drained = false;
    while (!log_->bye) {
      const double now = clock_.seconds();
      double wait_s = kPollSeconds;
      if (!drained) {
        const long next = log_->sent;
        bool send = false;
        if (open_loop) {
          const double due = static_cast<double>(next) / spec_.rate;
          send = next < total && now >= due;
          drained = next == total;
          wait_s = std::min(wait_s, std::max(0.0, due - now));
        } else if (next == 0 || log_->requests[next - 1].decisions > 0) {
          send = next < total && now < seconds_;
          drained = !send;
        }
        if (send) {
          RequestRecord& record = log_->requests[next];
          record.due =
              open_loop ? static_cast<double>(next) / spec_.rate : now;
          log_->late_max_ms =
              std::max(log_->late_max_ms, (now - record.due) * 1000.0);
          if (next == 0) log_->first_send = record.due;
          if (!write_all(to_daemon_, lines_[next])) {
            log_->problems.push_back("request write failed");
            return;
          }
          ++log_->sent;
          continue;
        }
        if (drained && !write_all(to_daemon_, "{\"type\":\"drain\"}\n")) {
          log_->problems.push_back("drain write failed");
          return;
        }
      }
      struct pollfd pfd{};
      pfd.fd = from_daemon_;
      pfd.events = POLLIN;
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::ceil(wait_s * 1000.0)));
      if (ready < 0 && errno != EINTR) {
        log_->problems.push_back("poll failed");
        return;
      }
      if (ready > 0 && !read_lines()) return;
    }
  }

 private:
  bool read_lines() {
    char buffer[65536];
    const ssize_t n = ::read(from_daemon_, buffer, sizeof buffer);
    if (n < 0) return errno == EINTR;
    if (n == 0) {
      if (!log_->bye) log_->problems.push_back("daemon closed before bye");
      return false;
    }
    const double now = clock_.seconds();
    pending_.append(buffer, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = pending_.find('\n'); nl != std::string::npos;
         nl = pending_.find('\n', start)) {
      handle_line(pending_.substr(start, nl - start), now);
      start = nl + 1;
    }
    pending_.erase(0, start);
    return true;
  }

  void handle_line(const std::string& line, double now) {
    const serve::JsonValue value = serve::parse_json(line, "<daemon>");
    const serve::JsonValue* type = value.find("type");
    const std::string kind = type != nullptr ? type->as_string() : "";
    if (kind == "bye") {
      log_->bye = true;
      flush_error();
      return;
    }
    if (kind == "error") {
      // The daemon answers an internal failure with an error record and
      // then a decision with mode "error"; pair them so the failed request
      // counts once.
      flush_error();
      pending_error_ = line;
      return;
    }
    if (kind != "decision") return;
    const serve::JsonValue* id = value.find("id");
    const std::string name = id != nullptr ? id->as_string() : "";
    long index = -1;
    if (name.size() > 1 && name[0] == 'R') {
      char* end = nullptr;
      index = std::strtol(name.c_str() + 1, &end, 10);
      if (*end != '\0') index = -1;
    }
    if (index < 0 || index >= log_->sent) {
      ++log_->unknown;
      return;
    }
    RequestRecord& record = log_->requests[index];
    ++record.decisions;
    record.done = now;
    log_->last_decision = now;
    auto text = [&](const char* key) {
      const serve::JsonValue* member = value.find(key);
      return member != nullptr && member->is_string() ? member->as_string()
                                                      : std::string();
    };
    auto number = [&](const char* key) {
      const serve::JsonValue* member = value.find(key);
      return member != nullptr && member->is_number() ? member->as_number()
                                                      : 0.0;
    };
    const serve::JsonValue* accepted = value.find("accepted");
    record.accepted = accepted != nullptr && accepted->as_bool();
    record.mode = text("mode");
    if (record.mode == "error") {
      record.error = pending_error_;
      pending_error_.clear();
    }
    flush_error();
    record.start = number("start");
    record.end = number("end");
  }

  void flush_error() {
    if (!pending_error_.empty()) log_->stray_errors.push_back(pending_error_);
    pending_error_.clear();
  }

  const std::vector<std::string>& lines_;
  const ServeSpec& spec_;
  const double seconds_;
  const int to_daemon_;
  const int from_daemon_;
  StreamLog* log_;
  Stopwatch clock_;
  std::string pending_;
  std::string pending_error_;
};

/// Trace plus its protocol lines: the workload's inputs.
struct ServeInputs {
  workload::ArrivalTrace trace;
  std::vector<std::string> lines;
};

/// The workload's arrival trace. With `segment_requests` set it is a
/// chain of independent busy periods: each segment is its own trace (seed
/// derived from `seed`), shifted in virtual time to start an hour after
/// every earlier window has closed, so the daemon retires all earlier
/// commits when it begins. Within one busy period the overlap components
/// grow and shrink together, so a run of one long period measures few
/// independent situations; several short ones make the per-run figures
/// repeat across seeds.
workload::ArrivalTrace make_trace_for(const ServeSpec& spec,
                                      std::uint64_t seed, long requests) {
  if (spec.segment_requests <= 0)
    return workload::make_trace(trace_params(seed, requests));
  workload::ArrivalTrace trace;
  double offset = 0.0;
  for (long first = 0; first < requests; first += spec.segment_requests) {
    const long count = std::min(spec.segment_requests, requests - first);
    const workload::ArrivalTrace segment = workload::make_trace(
        trace_params(seed * 1000 + static_cast<std::uint64_t>(first), count));
    double latest_end = offset;
    for (workload::TraceRequest request : segment.requests) {
      net::VnetRequest& r = request.request;
      r.set_temporal(r.earliest_start() + offset, r.latest_end() + offset,
                     r.duration());
      latest_end = std::max(latest_end, r.latest_end());
      trace.requests.push_back(std::move(request));
    }
    offset = latest_end + 1.0;
  }
  return trace;
}

ServeInputs make_inputs(const ServeSpec& spec, std::uint64_t seed,
                        long requests) {
  ServeInputs inputs;
  inputs.trace = make_trace_for(spec, seed, requests);
  inputs.lines.reserve(inputs.trace.requests.size());
  for (std::size_t i = 0; i < inputs.trace.requests.size(); ++i) {
    serve::RequestMessage message;
    message.id = "R";
    message.id += std::to_string(i);
    message.request = inputs.trace.requests[i].request;
    message.mapping = inputs.trace.requests[i].mapping;
    inputs.lines.push_back(serve::encode_request(message) + '\n');
  }
  return inputs;
}

/// Everything one stream produced.
struct StreamResult {
  StreamLog log;
  std::vector<double> latency_ms;
  long decided = 0;
  long exact = 0;
  long slo_misses = 0;
  double revenue = 0.0;
  double seconds = 0.0;
  serve::Daemon::LadderCounts ladder;
  double snapshot_ms = 0.0;
  double snapshot_bytes = 0.0;
};

/// The correctness gate for a finished stream; failures go to `result`.
void check_stream(const ServeInputs& inputs, const StreamLog& log,
                  serve::Daemon& daemon, RunResult* result) {
  // Schedules are checked on the ledger's exact doubles; decision lines
  // carry 10 significant digits, so they must match the ledger only to
  // that precision.
  constexpr double kWindowTol = 1e-6;
  constexpr double kWireTol = 1e-9;
  result->attempted += log.sent;
  for (const std::string& problem : log.problems) result->fail(problem);
  for (const std::string& error : log.stray_errors)
    result->fail("error record: " + error);
  if (!log.bye) result->fail("stream ended without bye");
  if (log.unknown > 0)
    result->fail(format("%ld decisions for unknown ids", log.unknown));

  const serve::AdmissionEngine::Snapshot state =
      daemon.engine().snapshot_full();
  const core::ValidationResult ledger = serve::validate_commit_state(
      daemon.engine().substrate(), state.commits, state.retired);
  if (!ledger.ok)
    result->fail("ledger fails validate_commit_state: " +
                 (ledger.errors.empty() ? "?" : ledger.errors.front()));
  std::map<std::string, const serve::Commit*> commits;
  for (const auto* list : {&state.commits, &state.retired})
    for (const serve::Commit& commit : *list) commits[commit.id] = &commit;

  auto close = [&](double wire, double exact) {
    return std::abs(wire - exact) <= kWireTol * std::max(1.0, std::abs(exact));
  };
  long accepted = 0;
  for (long i = 0; i < log.sent; ++i) {
    const RequestRecord& record = log.requests[i];
    std::string id = "R";
    id += std::to_string(i);
    if (record.decisions != 1) {
      result->fail(format("%s: %d decisions", id.c_str(), record.decisions));
      continue;
    }
    if (record.mode == "error")
      result->fail(id + ": internal error: " + record.error);
    const auto it = commits.find(id);
    if (!record.accepted) {
      if (it != commits.end())
        result->fail(id + ": rejected on the wire but in the ledger");
      continue;
    }
    ++accepted;
    if (it == commits.end()) {
      result->fail(id + ": accepted on the wire but not in the ledger");
      continue;
    }
    const serve::Commit& commit = *it->second;
    // The window as the daemon received it: encode_request writes times
    // with 10 significant digits, which past t = 10^4 h rounds them by up
    // to 5e-7 h.
    const net::VnetRequest request =
        serve::parse_message(inputs.lines[i], "<request>").request.request;
    if (!close(record.start, commit.start) || !close(record.end, commit.end))
      result->fail(format("%s: decision [%.17g, %.17g] differs from ledger "
                          "[%.17g, %.17g]",
                          id.c_str(), record.start, record.end, commit.start,
                          commit.end));
    if (commit.start < request.earliest_start() - kWindowTol ||
        commit.end > request.latest_end() + kWindowTol ||
        std::abs(commit.end - commit.start - request.duration()) > kWindowTol)
      result->fail(format("%s: schedule [%.17g, %.17g] outside window "
                          "[%.17g, %.17g] d=%.17g",
                          id.c_str(), commit.start, commit.end,
                          request.earliest_start(), request.latest_end(),
                          request.duration()));
  }
  if (static_cast<long>(commits.size()) != accepted)
    result->fail(format("ledger holds %zu commits, decisions accept %ld",
                        commits.size(), accepted));
}

/// Runs one daemon over `inputs` for `seconds`, in a fresh state dir.
StreamResult run_stream(const ServeSpec& spec, const ServeInputs& inputs,
                        double seconds, const std::string& state_dir,
                        RunResult* result) {
  std::atomic<bool> stop{false};
  const serve::DaemonOptions options = daemon_options(spec, state_dir, &stop);
  serve::Daemon daemon(make_substrate(), options);
  result->note(check_config(spec, options, daemon));

  StreamResult out;
  Pipe to_daemon;
  Pipe from_daemon;
  Client client(inputs.lines, spec, seconds, to_daemon.write_fd,
                from_daemon.read_fd, &out.log);
  std::thread client_thread([&] {
    try {
      client.run();
    } catch (const std::exception& e) {
      out.log.problems.push_back(std::string("client: ") + e.what());
    }
    // EOF on the daemon's input ends its stream even when the client
    // failed before sending the drain.
    to_daemon.close_write();
  });
  try {
    out.decided = daemon.serve(to_daemon.read_fd, from_daemon.write_fd);
  } catch (...) {
    from_daemon.close_write();
    client_thread.join();
    throw;
  }
  from_daemon.close_write();
  client_thread.join();

  const StreamLog& log = out.log;
  out.seconds = log.last_decision - log.first_send;
  for (long i = 0; i < log.sent; ++i) {
    const RequestRecord& record = log.requests[i];
    if (record.decisions == 0) continue;
    const double latency = (record.done - record.due) * 1000.0;
    out.latency_ms.push_back(latency);
    if (record.mode == "exact") ++out.exact;
    if (latency > spec.slo_ms || record.mode == "shed") ++out.slo_misses;
    const bool counted = spec.revenue_prefix == 0 || i < spec.revenue_prefix;
    if (record.accepted && counted) {
      const net::VnetRequest& request = inputs.trace.requests[i].request;
      out.revenue += request.duration() * request.total_node_demand();
    }
  }
  out.ladder = daemon.ladder_counts();
  check_stream(inputs, log, daemon, result);
  if (daemon.wal() != nullptr) {
    const serve::WalStats wal = daemon.wal()->stats();
    if (wal.fsyncs < wal.appends)
      result->fail(format("fsync=every, yet %ld fsyncs for %ld appends",
                          wal.fsyncs, wal.appends));
    // One more snapshot publish, exactly as the worker does it, timed from
    // outside at the final (largest) ledger.
    Stopwatch watch;
    daemon.engine().with_snapshot_full(
        [&](const serve::AdmissionEngine::Snapshot& state) {
          if (!daemon.wal()->write_snapshot(state))
            result->fail("final snapshot write failed");
        });
    out.snapshot_ms = watch.seconds() * 1000.0;
    for (const auto& entry : std::filesystem::directory_iterator(state_dir))
      if (entry.path().filename().string().rfind("snapshot-", 0) == 0)
        out.snapshot_bytes = std::max(
            out.snapshot_bytes, static_cast<double>(entry.file_size()));
  }
  return out;
}

std::string fresh_dir(const std::string& scratch, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(scratch) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

RunResult run_serve(const ServeSpec& spec, const RunOptions& options) {
  RunResult result;
  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  const long requests =
      spec.rate > 0.0 ? static_cast<long>(std::llround(spec.rate * budget))
                      : spec.max_requests;

  // Set-up: trace generation, protocol encoding, daemon construction and
  // WAL open in a fresh directory.
  ServeInputs inputs;
  const double setup_s = median_setup_seconds([&] {
    const std::string dir = fresh_dir(options.scratch_dir, "setup");
    Stopwatch watch;
    inputs = make_inputs(spec, options.seed, requests);
    std::atomic<bool> stop{false};
    serve::Daemon daemon(make_substrate(), daemon_options(spec, dir, &stop));
    return watch.seconds();
  });
  std::filesystem::remove_all(std::filesystem::path(options.scratch_dir) /
                              "setup");

  StreamResult run = run_stream(
      spec, inputs, budget, fresh_dir(options.scratch_dir, "state"), &result);
  const std::size_t samples = run.latency_ms.size();
  result.note(format("%s: %ld sent, %ld decided in %.2f s, %ld exact; ladder "
                     "door=%ld overload=%ld aged=%ld budget=%ld solver=%ld",
                     spec.name, run.log.sent, run.decided, run.seconds,
                     run.exact, run.ladder.door, run.ladder.overload,
                     run.ladder.aged, run.ladder.budget, run.ladder.solver));
  result.note(format("latency from %zu raw samples: mean %.3f ms, p50 %.3f "
                     "ms, p90 %.3f ms (%zu beyond), p95 %.3f ms (%zu beyond), "
                     "p99 %.3f ms (%zu beyond), mean of slowest 5%% %.3f ms",
                     samples, mean(run.latency_ms), median(run.latency_ms),
                     percentile(run.latency_ms, 0.90), samples / 10,
                     percentile(run.latency_ms, 0.95), samples / 20,
                     percentile(run.latency_ms, 0.99), samples / 100,
                     tail_mean(run.latency_ms, 0.05)));

  if (!options.trace) {
    result.set("decide_mean_ms", mean(run.latency_ms), "ms");
    result.set("decide_tail_ms", tail_mean(run.latency_ms, 0.05), "ms");
    result.set("decisions_per_s",
               static_cast<double>(run.decided) / run.seconds, "1/s");
    result.set("exact_share",
               static_cast<double>(run.exact) /
                   static_cast<double>(std::max<long>(1, run.decided)),
               "ratio");
    result.set("revenue", run.revenue, "revenue");
    result.set("setup_s", setup_s, "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced half: same inputs, a fresh daemon and state dir, tracer and
  // registry on.
  declare_layer_metrics(&result);
  StreamResult traced;
  CapturedTrace trace;
  {
    TraceCapture capture;
    traced = run_stream(spec, inputs, budget,
                        fresh_dir(options.scratch_dir, "state-traced"),
                        &result);
    trace = capture.finish();
  }
  report_effort(effort_from_registry(trace.metrics), &result);
  report_registry(trace.metrics, &result);
  report_self_time(trace.events, &result);

  // Root-LP probes on step-sized models cut from a trace of the
  // workload's seed: consecutive windows of kProbeWindow requests, cΣ
  // access control.
  constexpr int kProbeWindow = 6;
  constexpr int kProbes = 16;
  const workload::ArrivalTrace probe_trace =
      workload::make_trace(trace_params(options.seed, kProbes * kProbeWindow));
  ProbeTotals probes;
  for (int p = 0; p < kProbes; ++p) {
    workload::ArrivalTrace window;
    window.requests.assign(
        probe_trace.requests.begin() + p * kProbeWindow,
        probe_trace.requests.begin() + (p + 1) * kProbeWindow);
    probe_model(workload::instance_from_trace(make_substrate(), window),
                core::BuildOptions{}, &probes);
  }
  report_probe(probes, &result);

  const long attempts = traced.exact + traced.ladder.solver;
  result.set("serve.admit.success_ratio",
             attempts > 0 ? static_cast<double>(traced.exact) /
                                static_cast<double>(attempts)
                          : 0.0,
             "ratio");
  result.set("serve.ladder.door", traced.ladder.door, "count");
  result.set("serve.ladder.overload", traced.ladder.overload, "count");
  result.set("serve.ladder.aged", traced.ladder.aged, "count");
  result.set("serve.ladder.budget", traced.ladder.budget, "count");
  result.set("serve.ladder.solver", traced.ladder.solver, "count");
  result.set("serve.wal.snapshot_ms", traced.snapshot_ms, "ms");
  result.set("serve.wal.snapshot_bytes", traced.snapshot_bytes, "bytes");
  result.set("serve.slo_miss_share",
             static_cast<double>(traced.slo_misses) /
                 static_cast<double>(std::max<long>(1, traced.decided)),
             "ratio");
  result.set("serve.generator_late_ms", traced.log.late_max_ms, "ms");
  result.set("workload.setup_ms", setup_s * 1000.0, "ms");

  // Tracing overhead: the traced half against the untraced one on the
  // workload's headline figure (latency in the open loop, throughput in
  // the closed loop).
  double overhead = 0.0;
  if (spec.rate > 0.0) {
    const double base = mean(run.latency_ms);
    overhead = 100.0 * (mean(traced.latency_ms) - base) / base;
    result.note(format("tracing overhead: decide mean %.3f ms untraced, "
                       "%.3f ms traced",
                       base, mean(traced.latency_ms)));
  } else {
    const double base = static_cast<double>(run.decided) / run.seconds;
    const double with = static_cast<double>(traced.decided) / traced.seconds;
    overhead = 100.0 * (base - with) / with;
    result.note(format("tracing overhead: %.1f decisions/s untraced, %.1f "
                       "traced",
                       base, with));
  }
  result.set("trace.overhead_pct", overhead, "%");
  return result;
}

}  // namespace

RunResult run_admit_slo(const RunOptions& options) {
  return run_serve(kAdmitSlo, options);
}

RunResult run_admit_durable(const RunOptions& options) {
  return run_serve(kAdmitDurable, options);
}

}  // namespace perfbench
