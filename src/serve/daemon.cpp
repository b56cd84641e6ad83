#include "serve/daemon.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/net_util.hpp"
#include "support/check.hpp"
#include "support/parse_error.hpp"

namespace tvnep::serve {

namespace {
constexpr int kPollMs = 50;  // stop-flag latency bound for the I/O loops
// Longest request line the reader buffers; a longer one answers one error
// and is dropped up to its newline, so a client cannot grow memory.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

// Pre-rendered `"req":"<id>"` member tagging every span of one request's
// lifecycle — what lets a scraper (or validate_trace.py) reassemble the
// end-to-end latency decomposition of a single request across threads.
std::string req_tag(const std::string& id) {
  return "\"req\":\"" + obs::json_escape(id) + "\"";
}
}  // namespace

Daemon::Daemon(net::SubstrateNetwork substrate, DaemonOptions options)
    : options_(std::move(options)),
      engine_(std::move(substrate), options_.admission),
      reoptimizer_(&engine_, options_.reopt),
      slo_(options_.slo) {
  if (!options_.state_dir.empty()) {
    // Recover before any thread can decide: load the newest snapshot,
    // replay the WAL tail, re-validate the recovered commits against the
    // substrate capacities, and only then attach the sink. A daemon that
    // cannot prove its recovered ledger feasible must not serve on it.
    RecoveredState recovered;
    wal_ = Wal::open(options_.state_dir,
                     serve_state_fingerprint(engine_.substrate(),
                                             options_.admission),
                     options_.wal, &recovered);
    const WalStats wal_stats = wal_->stats();
    recovery_.replayed = wal_stats.replayed;
    recovery_.torn_repaired = wal_stats.torn_repaired;
    if (recovered.had_state) {
      const core::ValidationResult check = validate_commit_state(
          engine_.substrate(), recovered.state.commits,
          recovered.state.retired);
      TVNEP_REQUIRE(check.ok,
                    "recovered state failed capacity validation: " +
                        (check.errors.empty() ? std::string("unknown")
                                              : check.errors.front()));
      engine_.restore(recovered.state);
      recovery_.recovered = true;
      recovery_.validated = true;
      recovery_.active = recovered.state.commits.size();
      recovery_.retired = recovered.state.retired.size();
      recovery_.decisions = recovered.state.decisions;
      obs::log_info(
          "serve.daemon", "state recovered",
          "\"active\":" + std::to_string(recovery_.active) +
              ",\"retired\":" + std::to_string(recovery_.retired) +
              ",\"decisions\":" + std::to_string(recovery_.decisions) +
              ",\"replayed\":" + std::to_string(recovery_.replayed) +
              ",\"torn_repaired\":" +
              std::to_string(recovery_.torn_repaired));
    }
    wal_->attach(&engine_);
  }
  if (options_.reopt_interval_seconds > 0.0)
    reoptimizer_.start_background(options_.reopt_interval_seconds);
}

Daemon::~Daemon() {
  reoptimizer_.stop();
  // The sink captures the WAL, which is destroyed before engine_ (reverse
  // member order); no thread is left to fire it, but detach anyway.
  engine_.set_state_sink({});
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool Daemon::write_line(int fd, const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  std::string out = line;
  out.push_back('\n');
  std::size_t written = 0;
  while (written < out.size()) {
    // MSG_NOSIGNAL: a client that hung up mid-response must surface as
    // EPIPE on this connection, not as a process-wide SIGPIPE (the
    // default disposition of which kills the daemon). Pipes (tests,
    // stdio mode) report ENOTSOCK and fall back to write(2) — main
    // ignores SIGPIPE process-wide for that path.
    ssize_t n =
        ::send(fd, out.data() + written, out.size() - written, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK)
      n = ::write(fd, out.data() + written, out.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET)
        obs::counter_add("serve.client_gone");
      return false;  // peer gone; the stream is ending anyway
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void Daemon::reader_loop(int in_fd, int out_fd) {
  std::string pending;
  bool discarding = false;  // inside an over-long line, up to its newline
  char buffer[65536];
  long line_number = 0;
  bool eof = false;

  auto handle_line = [&](const std::string& line) -> bool {
    ++line_number;
    if (line.empty()) return true;
    const bool tracing = obs::Tracer::active();
    const std::int64_t line_start_us =
        tracing ? obs::Tracer::instance().now_us() : -1;
    InMessage message;
    try {
      message = parse_message(line, "<stdin>", line_number);
    } catch (const ParseError& e) {
      obs::counter_add("serve.protocol.errors");
      obs::log_warn("serve.daemon", "protocol error",
                    "\"line\":" + std::to_string(line_number) +
                        ",\"error\":\"" + obs::json_escape(e.what()) + "\"");
      write_line(out_fd, encode_error(e.what()));
      return true;
    }
    if (tracing && message.kind == MessageKind::kRequest) {
      obs::Tracer::instance().record_complete(
          "serve.request/parse", "serve", line_start_us,
          obs::Tracer::instance().now_us() - line_start_us,
          req_tag(message.request.id));
    }
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (message.kind == MessageKind::kRequest) {
      if (queued_requests_ >= options_.queue_capacity) {
        lock.unlock();
        // Reject at the door: bounded queue, bounded memory, and the
        // client learns immediately instead of waiting out the backlog.
        obs::counter_add("serve.reject.queue_full");
        rung_door_.fetch_add(1, std::memory_order_relaxed);
        slo_.record(clock_.seconds(), /*breached=*/true);
        obs::LogContext log_ctx(message.request.id);
        obs::log_debug("serve.daemon", "door reject: queue full");
        Decision decision;
        decision.id = message.request.id;
        decision.accepted = false;
        decision.reason = "overload";
        decision.mode = "shed";
        std::int64_t write_us = -1;
        if (tracing) write_us = obs::Tracer::instance().now_us();
        write_line(out_fd, encode_decision(decision));
        if (tracing) {
          obs::Tracer& tracer = obs::Tracer::instance();
          const std::int64_t end_us = tracer.now_us();
          const std::string tag = req_tag(decision.id);
          tracer.record_complete("serve.request/write", "serve", write_us,
                                 end_us - write_us, tag);
          tracer.record_complete(
              "serve.request", "serve", line_start_us,
              end_us - line_start_us,
              tag + ",\"path\":\"door\",\"outcome\":\"reject\"");
        }
        refresh_slo_gauges();
        stream_decided_.fetch_add(1, std::memory_order_relaxed);
        decided_total_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      ++queued_requests_;
    }
    const bool drain = message.kind == MessageKind::kDrain;
    Item item{std::move(message), clock_.seconds(), line_start_us, -1};
    if (tracing && item.message.kind == MessageKind::kRequest) {
      obs::Tracer& tracer = obs::Tracer::instance();
      item.enqueue_us = tracer.now_us();
      tracer.record_async_begin("serve.request/queue", "serve",
                                item.message.request.id,
                                req_tag(item.message.request.id));
    }
    queue_.push_back(std::move(item));
    lock.unlock();
    queue_cv_.notify_one();
    return !drain;  // nothing after a drain is read
  };

  while (!eof) {
    if (stopped() || stream_stop_.load(std::memory_order_relaxed)) break;
    struct pollfd pfd{};
    pfd.fd = in_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const ssize_t n = ::read(in_fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    // Scan only the bytes just read; `pending` holds the current line's
    // earlier bytes, at most kMaxLineBytes of them.
    const std::size_t len = static_cast<std::size_t>(n);
    std::size_t pos = 0;
    while (pos < len) {
      const char* nl = static_cast<const char*>(
          std::memchr(buffer + pos, '\n', len - pos));
      const std::size_t end =
          nl != nullptr ? static_cast<std::size_t>(nl - buffer) : len;
      if (!discarding) pending.append(buffer + pos, end - pos);
      pos = end + 1;
      if (!discarding && pending.size() > kMaxLineBytes) {
        ++line_number;
        obs::counter_add("serve.protocol.errors");
        obs::log_warn("serve.daemon", "line too long",
                      "\"line\":" + std::to_string(line_number));
        write_line(out_fd, encode_error("line " + std::to_string(line_number) +
                                        " exceeds " +
                                        std::to_string(kMaxLineBytes) +
                                        " bytes"));
        pending.clear();
        discarding = true;
      }
      if (nl == nullptr) break;
      if (discarding) {
        discarding = false;
        continue;
      }
      const bool more = handle_line(pending);
      pending.clear();
      if (!more) {
        eof = true;
        break;
      }
    }
  }
  if (eof && !pending.empty()) handle_line(pending);

  // EOF and external stop both mean: finish what is queued, then say bye.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    InMessage drain;
    drain.kind = MessageKind::kDrain;
    queue_.push_back(Item{std::move(drain), clock_.seconds()});
  }
  queue_cv_.notify_one();
}

Decision Daemon::decide(const RequestMessage& request,
                        double arrival_seconds) {
  Decision decision;
  decision.id = request.id;
  const double slo_s = options_.slo_ms / 1000.0;
  const double age = clock_.seconds() - arrival_seconds;

  auto fill = [&](const AdmitResult& result, const char* mode) {
    decision.mode = mode;
    switch (result.outcome) {
      case AdmitOutcome::kAccepted:
        decision.accepted = true;
        decision.start = result.start;
        decision.end = result.end;
        break;
      case AdmitOutcome::kWindowClosed:
        decision.reason = "window";
        break;
      case AdmitOutcome::kInvalidMapping:
        decision.reason = "invalid";
        break;
      default:
        decision.reason = "capacity";
        break;
    }
  };

  const bool tracing = obs::Tracer::active();
  const std::string tag = tracing ? req_tag(request.id) : std::string();

  if (age >= slo_s) {
    // SLO already blown while queued: structured reject, no work.
    obs::counter_add("serve.reject.overload");
    rung_overload_.fetch_add(1, std::memory_order_relaxed);
    decision.reason = "overload";
    decision.mode = "shed";
  } else if (age >= options_.shed_fraction * slo_s) {
    obs::counter_add("serve.shed.fastpath");
    rung_aged_.fetch_add(1, std::memory_order_relaxed);
    obs::SpanScope span(tracing, "serve.request/fastpath", "serve", tag);
    fill(engine_.admit_fastpath(request), "fastpath");
  } else if (slo_.exhausted(clock_.seconds())) {
    // The windowed error budget is spent: shed decision quality across
    // the board before individual requests start blowing the SLO.
    obs::counter_add("serve.shed.budget");
    rung_budget_.fetch_add(1, std::memory_order_relaxed);
    obs::log_debug("serve.daemon", "budget shed: SLO error budget spent");
    obs::SpanScope span(tracing, "serve.request/fastpath", "serve", tag);
    fill(engine_.admit_fastpath(request), "fastpath");
  } else {
    AdmitResult exact;
    {
      obs::SpanScope span(tracing, "serve.request/step_mip", "serve", tag);
      exact = engine_.admit(request);
    }
    if (exact.outcome == AdmitOutcome::kComponentTooLarge ||
        exact.outcome == AdmitOutcome::kSolverFailed) {
      // The exact path could not decide in budget — degrade, don't fail.
      obs::counter_add("serve.shed.fastpath");
      rung_solver_.fetch_add(1, std::memory_order_relaxed);
      obs::SpanScope span(tracing, "serve.request/fastpath", "serve", tag);
      fill(engine_.admit_fastpath(request), "fastpath");
    } else {
      fill(exact, "exact");
    }
  }

  decision.latency_ms = (clock_.seconds() - arrival_seconds) * 1000.0;
  obs::histogram_observe("serve.admit.latency_ms", decision.latency_ms);
  obs::counter_add(decision.accepted ? "serve.decision.accepted"
                                     : "serve.decision.rejected");
  slo_.record(clock_.seconds(), decision.latency_ms > options_.slo_ms ||
                                    decision.reason == "overload");
  refresh_slo_gauges();
  return decision;
}

void Daemon::refresh_slo_gauges() {
  if (!obs::Metrics::active()) return;
  const SloBudget::Reading reading = slo_.read(clock_.seconds());
  obs::gauge_set("serve.slo.budget_remaining", reading.budget_remaining);
  obs::gauge_set("serve.slo.burn_rate", reading.burn_rate);
  obs::gauge_set("serve.slo.window_total",
                 static_cast<double>(reading.total));
}

Daemon::LadderCounts Daemon::ladder_counts() const {
  LadderCounts out;
  out.door = rung_door_.load(std::memory_order_relaxed);
  out.overload = rung_overload_.load(std::memory_order_relaxed);
  out.aged = rung_aged_.load(std::memory_order_relaxed);
  out.budget = rung_budget_.load(std::memory_order_relaxed);
  out.solver = rung_solver_.load(std::memory_order_relaxed);
  return out;
}

long Daemon::serve(int in_fd, int out_fd) {
  obs::SpanScope span("serve.stream", "serve");
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
    queued_requests_ = 0;
  }
  stream_decided_.store(0, std::memory_order_relaxed);
  stream_stop_.store(false, std::memory_order_relaxed);
  std::thread reader([this, in_fd, out_fd] { reader_loop(in_fd, out_fd); });
  // Every exit path — including an unwinding exception — must stop the
  // reader and join it, or the joinable std::thread destructor calls
  // std::terminate and one bad request kills the whole daemon.
  struct ReaderGuard {
    Daemon* daemon;
    std::thread& thread;
    ~ReaderGuard() {
      daemon->stream_stop_.store(true, std::memory_order_relaxed);
      if (thread.joinable()) thread.join();
    }
  } guard{this, reader};

  while (true) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return !queue_.empty(); });
      item = std::move(queue_.front());
      queue_.pop_front();
      if (item.message.kind == MessageKind::kRequest) --queued_requests_;
      obs::gauge_set("serve.queue.depth", static_cast<double>(queue_.size()));
    }
    switch (item.message.kind) {
      case MessageKind::kRequest: {
        const std::string& rid = item.message.request.id;
        const bool tracing = obs::Tracer::active() && item.enqueue_us >= 0;
        std::int64_t dequeue_us = -1;
        std::string tag;
        if (tracing) {
          obs::Tracer& tracer = obs::Tracer::instance();
          tag = req_tag(rid);
          // End the queue residency before stamping the root span's start
          // so the queue span always ends at or before the root begins.
          tracer.record_async_end("serve.request/queue", "serve", rid, tag);
          dequeue_us = tracer.now_us();
        }
        obs::LogContext log_ctx(rid);
        Decision decision;
        decision.id = rid;
        try {
          decision = decide(item.message.request, item.arrival_seconds);
        } catch (const std::exception& e) {
          // "Never crashes under load": a solver-side failure on one
          // request answers a structured reject and the stream continues.
          obs::counter_add("serve.decision.errors");
          obs::log_error("serve.daemon", "decision error",
                         "\"error\":\"" + obs::json_escape(e.what()) + "\"");
          decision.accepted = false;
          decision.reason = "internal";
          decision.mode = "error";
          write_line(out_fd, encode_error(e.what()));
        }
        {
          obs::SpanScope span(tracing, "serve.request/write", "serve",
                              std::string(tag));
          write_line(out_fd, encode_decision(decision));
        }
        if (tracing) {
          obs::Tracer& tracer = obs::Tracer::instance();
          tracer.record_complete(
              "serve.request", "serve", dequeue_us,
              tracer.now_us() - dequeue_us,
              tag + ",\"path\":\"worker\",\"mode\":\"" +
                  obs::json_escape(decision.mode) + "\",\"outcome\":\"" +
                  (decision.accepted ? "accept" : "reject") + "\"");
        }
        stream_decided_.fetch_add(1, std::memory_order_relaxed);
        decided_total_.fetch_add(1, std::memory_order_relaxed);
        if (wal_ != nullptr && wal_->wants_snapshot()) {
          // Publish under the engine lock (with_snapshot_full) so no
          // install record can land between reading the state and the
          // log compaction — it would be erased but not captured.
          engine_.with_snapshot_full(
              [this](const AdmissionEngine::Snapshot& state) {
                wal_->write_snapshot(state);
              });
        }
        break;
      }
      case MessageKind::kStats:
        write_line(out_fd, encode_stats(stats_fields()));
        break;
      case MessageKind::kReopt:
        try {
          const ReoptReport report = reoptimizer_.reoptimize_once();
          std::ostringstream fields;
          fields << "\"reopt_attempted\":"
                 << (report.attempted ? "true" : "false")
                 << ",\"reopt_installed\":"
                 << (report.installed ? "true" : "false")
                 << ",\"reopt_rescheduled\":" << report.rescheduled;
          write_line(out_fd, encode_stats(fields.str()));
        } catch (const std::exception& e) {
          obs::counter_add("serve.reopt.errors");
          write_line(out_fd, encode_error(e.what()));
        }
        break;
      case MessageKind::kDrain: {
        const long decided = stream_decided_.load(std::memory_order_relaxed);
        write_line(out_fd, encode_bye(decided));
        obs::log_info("serve.daemon", "stream drained",
                      "\"decided\":" + std::to_string(decided));
        return decided;
      }
    }
  }
}

std::string Daemon::stats_fields() const {
  std::size_t queue_depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_depth = queue_.size();
  }
  const LadderCounts ladder = ladder_counts();
  const SloBudget::Reading slo = slo_.read(clock_.seconds());
  std::ostringstream os;
  os << "\"now\":" << obs::json_number(engine_.virtual_now())
     << ",\"active\":" << engine_.active_commits()
     << ",\"retired\":" << engine_.retired_commits()
     << ",\"accepted\":" << engine_.accepted_total()
     << ",\"decided\":" << decided_total_.load(std::memory_order_relaxed)
     << ",\"queue_depth\":" << queue_depth
     << ",\"shed_door\":" << ladder.door
     << ",\"shed_overload\":" << ladder.overload
     << ",\"shed_aged\":" << ladder.aged
     << ",\"shed_budget\":" << ladder.budget
     << ",\"shed_solver\":" << ladder.solver
     << ",\"slo_budget_remaining\":" << obs::json_number(slo.budget_remaining)
     << ",\"slo_burn_rate\":" << obs::json_number(slo.burn_rate)
     << ",\"reopt_passes\":" << reoptimizer_.passes()
     << ",\"reopt_installs\":" << reoptimizer_.installs()
     << ",\"reopt_stale\":" << reoptimizer_.stale_discards()
     << ",\"reopt_cancelled\":" << reoptimizer_.cancelled();
  const WalStats wal = wal_ != nullptr ? wal_->stats() : WalStats{};
  os << ",\"wal\":" << (wal_ != nullptr ? "true" : "false")
     << ",\"wal_appends\":" << wal.appends
     << ",\"wal_fsyncs\":" << wal.fsyncs
     << ",\"wal_io_errors\":" << wal.io_errors
     << ",\"wal_snapshots\":" << wal.snapshots
     << ",\"wal_replayed\":" << wal.replayed
     << ",\"wal_torn_repaired\":" << wal.torn_repaired;
  return os.str();
}

int Daemon::listen_tcp(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return -1;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 4) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return -1;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    listen_port_ = ntohs(addr.sin_port);
  return listen_port_;
}

long Daemon::serve_tcp() {
  long total = 0;
  AcceptBackoff backoff;
  while (!stopped() && listen_fd_ >= 0) {
    struct pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      const int err = errno;
      obs::counter_add("serve.accept_errors");
      const int delay = backoff.on_error(err);
      if (delay > 0) {
        // Descriptor/table exhaustion: keep the listener alive and retry
        // with bounded backoff instead of spinning (poll reports the
        // pending connection as readable forever).
        obs::log_warn("serve.daemon", "accept failed",
                      "\"errno\":" + std::to_string(err) +
                          ",\"backoff_ms\":" + std::to_string(delay));
        for (int slept = 0; slept < delay && !stopped(); slept += kPollMs)
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min(kPollMs, delay - slept)));
      }
      continue;
    }
    backoff.on_success();
    total += serve(conn, conn);
    ::close(conn);
  }
  return total;
}

}  // namespace tvnep::serve
