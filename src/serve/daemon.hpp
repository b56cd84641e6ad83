// The admission daemon: NDJSON in, decisions out, within a latency SLO.
//
// Threading model (DESIGN.md §13):
//   * a reader thread polls the input fd (poll(2) with a short timeout so
//     SIGINT/SIGTERM and drain requests are noticed promptly), parses each
//     line, answers protocol errors immediately, and feeds a bounded
//     queue;
//   * the serve() caller is the single admission worker: it pops items in
//     order and walks the degradation ladder — exact greedy step while the
//     queued age leaves SLO headroom, the fastpath router once it does
//     not, a structured "overload" reject once the SLO is already blown;
//   * the re-optimizer thread (optional) runs exact max-earliness passes
//     on an interval and swaps improved schedules in atomically between
//     admissions.
//
// Overload therefore degrades decision *quality* before it degrades
// availability, and never crashes: a full queue rejects at the door (the
// reader answers "overload" without enqueueing), an aged item sheds to
// the fastpath, and every request — including every queued one at
// SIGTERM — gets exactly one decision before the final "bye".
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/reoptimizer.hpp"
#include "serve/slo.hpp"
#include "serve/wal.hpp"
#include "support/stopwatch.hpp"

namespace tvnep::serve {

struct DaemonOptions {
  /// Admission latency SLO; also caps the greedy-step budget.
  double slo_ms = 100.0;
  /// Fraction of the SLO a request may age in the queue before the worker
  /// skips the exact path and sheds to the fastpath router.
  double shed_fraction = 0.5;
  /// Bounded admission queue (requests only; control messages always fit).
  std::size_t queue_capacity = 256;
  /// Interval between background re-optimization passes; 0 disables the
  /// thread (the protocol "reopt" message still works).
  double reopt_interval_seconds = 0.0;
  AdmissionOptions admission;
  ReoptOptions reopt;
  /// Rolling SLO error budget the overload ladder consults: when the
  /// windowed breach rate exceeds `slo.budget_fraction`, fresh requests
  /// shed to the fastpath before their individual age forces it.
  SloOptions slo;
  /// Externally owned stop flag (the SIGINT/SIGTERM handler sets it); the
  /// reader and accept loops poll it. nullptr = never externally stopped.
  const std::atomic<bool>* external_stop = nullptr;
  /// Durable admission state (DESIGN §16). Empty disables the WAL; set,
  /// the daemon recovers any prior state from this directory before
  /// serving (refusing to start if the recovered commits fail capacity
  /// validation) and write-ahead-logs every transition afterwards.
  std::string state_dir;
  WalOptions wal;
};

class Daemon {
 public:
  Daemon(net::SubstrateNetwork substrate, DaemonOptions options);
  ~Daemon();

  /// Serves one NDJSON stream: reads from in_fd until EOF, "drain", or the
  /// external stop; every request receives exactly one decision; ends with
  /// a "bye" line. Returns the number of decisions made on this stream.
  long serve(int in_fd, int out_fd);

  /// Binds a loopback listener; `port` 0 picks an ephemeral port. Returns
  /// the bound port, or -1 on error.
  int listen_tcp(int port);
  /// Accepts and serves connections sequentially until the external stop
  /// flag is raised. Returns total decisions across connections.
  long serve_tcp();
  int listening_port() const { return listen_port_; }

  AdmissionEngine& engine() { return engine_; }
  Reoptimizer& reoptimizer() { return reoptimizer_; }
  SloBudget& slo_budget() { return slo_; }
  /// The durability layer; nullptr when state_dir is empty.
  Wal* wal() { return wal_.get(); }

  /// What startup recovery found (all zeros without --state-dir or on a
  /// cold start). `validated` reports the capacity re-check of the
  /// recovered commit set — the constructor throws if it fails, so a
  /// live daemon always shows true when `recovered` is.
  struct RecoveryInfo {
    bool recovered = false;
    std::size_t active = 0;
    std::size_t retired = 0;
    std::uint64_t decisions = 0;
    long replayed = 0;
    long torn_repaired = 0;
    bool validated = false;
  };
  const RecoveryInfo& recovery_info() const { return recovery_; }
  long decided_total() const {
    return decided_total_.load(std::memory_order_relaxed);
  }

  /// Pre-rendered JSON members for the protocol "stats" reply.
  std::string stats_fields() const;

  /// Refreshes the SLO gauges from the current window (the /metrics
  /// listener calls this before each render so idle scrapes stay current).
  void refresh_slo_gauges();

  /// The worker's decision step: one request down the shed ladder —
  /// overload reject once `age_seconds` reaches the SLO, fastpath once it
  /// reaches shed_fraction·SLO or the SLO budget is spent at
  /// `now_seconds`, else the exact step with a fastpath fallback (solver
  /// rung). The worker passes its own clock's readings; a driver with a
  /// virtual queue (bench/serve_load) passes its virtual ones, and the
  /// SLO window then runs on that timebase. The latency is the age plus
  /// the measured service time. Only one thread decides: never call this
  /// while serve() runs.
  Decision decide(const RequestMessage& request, double age_seconds,
                  double now_seconds);

  /// Publishes a WAL snapshot when one is due. Call after a decision,
  /// off its measured latency.
  void snapshot_if_due();

  /// Shed-ladder rung totals, exported in stats_fields(). Readable from
  /// any thread.
  struct LadderCounts {
    long door = 0;      // queue full: rejected by the reader
    long overload = 0;  // queued past the whole SLO: reject, no work
    long aged = 0;      // queued past shed_fraction·SLO: fastpath
    long budget = 0;    // SLO error budget exhausted: fastpath
    long solver = 0;    // exact path bailed (too large / no incumbent)
  };
  LadderCounts ladder_counts() const;

 private:
  struct Item {
    InMessage message;
    double arrival_seconds = 0.0;
    /// Tracer timestamps (tracer timebase) for the request-lifecycle
    /// spans; -1 when the tracer was inactive at read time.
    std::int64_t line_start_us = -1;
    std::int64_t enqueue_us = -1;
  };

  bool stopped() const {
    return options_.external_stop != nullptr &&
           options_.external_stop->load(std::memory_order_relaxed);
  }
  bool write_line(int fd, const std::string& line);
  void reader_loop(int in_fd, int out_fd);
  void refresh_slo_gauges(double now_seconds);

  DaemonOptions options_;
  AdmissionEngine engine_;
  Reoptimizer reoptimizer_;
  SloBudget slo_;
  Stopwatch clock_;
  std::unique_ptr<Wal> wal_;
  RecoveryInfo recovery_;

  std::atomic<long> rung_door_{0};
  std::atomic<long> rung_overload_{0};
  std::atomic<long> rung_aged_{0};
  std::atomic<long> rung_budget_{0};
  std::atomic<long> rung_solver_{0};

  std::mutex write_mutex_;
  // mutable: stats_fields() (const) reports the live queue depth.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Item> queue_;
  std::size_t queued_requests_ = 0;  // kRequest items currently in queue_

  /// Raised by serve() on every exit path so the reader thread winds down
  /// before the stack unwinds past it (a joinable std::thread destructor
  /// is std::terminate).
  std::atomic<bool> stream_stop_{false};
  /// Decisions emitted on the current stream — shared with the reader
  /// thread because queue-full door rejects are written there, and the
  /// final "bye" must count them too.
  std::atomic<long> stream_decided_{0};
  std::atomic<long> decided_total_{0};
  int listen_fd_ = -1;
  int listen_port_ = -1;
};

}  // namespace tvnep::serve
