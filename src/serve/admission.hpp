// Online admission engine: the batch greedy cΣ_A^G (Section V) restated
// as an incremental service.
//
// Equivalence argument (why online pruning is exact, not heuristic):
// committed requests have *pinned* schedules, so capacity constraints only
// couple requests whose active intervals [start, end) intersect. The
// transitive closure of that interval-overlap relation partitions the
// committed set into components that are pairwise temporally disjoint —
// a greedy step restricted to the component(s) a candidate's window touches
// therefore has exactly the same feasible target schedules as the full
// batch step, and the greedy step objective (Eq. 21) is invariant in
// the horizon T, so the restricted solve commits the identical outcome
// (accept decision, start, end). Rejected requests consume nothing
// (Definition 2.1) and are dropped entirely. A component whose *latest*
// end lies at or before the virtual now (max arrival seen) can never
// intersect a future candidate's effective window again and is retired
// wholesale — that garbage collection is what bounds per-admission work
// at 100x-1000x scale. Retirement is per component, never per commit: an
// ended commit that still overlaps a live neighbor keeps constraining the
// neighbor's re-embeddings and must stay in future steps.
//
// Flows: link allocations are never frozen (the paper recomputes them each
// greedy iteration). The engine stores the *latest jointly consistent*
// embedding per commit — refreshed from every step/reopt solution that
// covers it — which is what the fastpath router prices its residual
// capacities against, and what the tests validate with validate_solution.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "greedy/greedy.hpp"
#include "net/instance.hpp"
#include "serve/protocol.hpp"
#include "tvnep/solution.hpp"

namespace tvnep::serve {

struct AdmissionOptions {
  /// Greedy-step options (time limit, solver knobs, cancel seam).
  greedy::GreedyOptions greedy;
  /// Upper bound on requests in one step (component + target); a
  /// larger component reports kComponentTooLarge so the caller can shed
  /// to the fastpath. 0 disables the cap.
  int max_step_requests = 64;
  /// Retire commits whose end has passed the virtual now.
  bool gc = true;
};

/// One accepted request, frozen: the admission decision and schedule never
/// change after commit (the greedy invariant); only `embedding`'s link
/// flows may be rerouted by later step/reopt solves, and `start`/`end`
/// move only through an atomic reoptimizer install before the request
/// starts.
struct Commit {
  std::uint64_t seq = 0;  // admission order, unique across the engine's life
  std::string id;
  /// The request with its *original* window (reopt restores flexibility).
  net::VnetRequest original;
  std::optional<std::vector<net::NodeId>> mapping;
  double start = 0.0;
  double end = 0.0;
  core::RequestEmbedding embedding;
  bool fastpath = false;
};

enum class AdmitOutcome {
  kAccepted,
  kRejected,           // the step proved no feasible start exists
  kWindowClosed,       // t^e - d below the virtual now: can no longer start
  kComponentTooLarge,  // over max_step_requests — shed to fastpath
  kSolverFailed,       // the step hit its time limit or was cancelled
  kInvalidMapping,     // mapping node ids outside the substrate — terminal
};

struct AdmitResult {
  AdmitOutcome outcome = AdmitOutcome::kRejected;
  double start = 0.0;
  double end = 0.0;
  /// Committed requests included in the step (exact path only).
  int component_size = 0;
};

struct StateTransition;
/// Observer for durable logging (serve/wal). Invoked while the engine
/// lock is still held, so the write-ahead append completes before the
/// triggering call returns — hence before any ack reaches the wire. The
/// pointers inside StateTransition are valid only for the duration of
/// the call.
using StateSink = std::function<void(const StateTransition&)>;

class AdmissionEngine {
 public:
  AdmissionEngine(net::SubstrateNetwork substrate, AdmissionOptions options);

  /// Exact admission: the batch-greedy step over the candidate's
  /// overlap-closure component. Thread-safe; solves under the engine lock
  /// (the daemon admits from a single worker).
  AdmitResult admit(const RequestMessage& message);

  /// Shed path: cheapest-feasible single-path routing against the stored
  /// residual capacities; no MIP. Never reroutes existing flows.
  AdmitResult admit_fastpath(const RequestMessage& message);

  /// Virtual now: the maximum earliest start seen so far.
  double virtual_now() const;
  /// Bumped on every state change (accept, fastpath accept, reopt install).
  std::uint64_t version() const;

  std::size_t active_commits() const;
  std::size_t retired_commits() const;
  std::uint64_t accepted_total() const { return accepted_total_; }
  /// Admission calls decided so far (accepts and rejects, both paths).
  /// Persisted in snapshots: after recovery it is the index of the next
  /// request in a replayed trace, which is how the kill-point matrix
  /// resumes at the exact interruption point.
  std::uint64_t decisions_total() const;

  /// Installs the durable-logging observer (serve/wal); pass an empty
  /// function to detach. The sink runs under the engine lock on every
  /// decision and install, before the call returns.
  void set_state_sink(StateSink sink);

  const net::SubstrateNetwork& substrate() const { return substrate_; }
  const AdmissionOptions& options() const { return options_; }

  // ----- reoptimizer interface -----

  struct Snapshot {
    std::uint64_t version = 0;
    double now = 0.0;
    std::vector<Commit> commits;  // all active commits, admission order
    // ----- full-state extension (snapshot_full / restore) -----
    std::vector<Commit> retired;  // GC'd commits, retirement order
    std::uint64_t next_seq = 0;
    std::uint64_t accepted_total = 0;
    std::uint64_t decisions = 0;  // decisions_total()
  };
  Snapshot snapshot() const;

  /// Snapshot including the retired ledger — everything restore() needs
  /// to reconstruct the engine exactly (the reoptimizer uses the lighter
  /// snapshot(), which skips the retired copy).
  Snapshot snapshot_full() const;

  /// Runs `fn` on the full snapshot while still holding the engine lock,
  /// so no decision or install can interleave between reading the state
  /// and `fn` returning. The WAL publishes snapshots through this:
  /// compacting the log outside the lock could race a concurrent install
  /// record into oblivion (appended after the state was read, erased by
  /// the compaction). Lock order stays engine → wal, same as the sink.
  void with_snapshot_full(
      const std::function<void(const Snapshot&)>& fn) const;

  /// Rehydrates a freshly constructed engine from a recovered snapshot.
  /// Requires a pristine engine (no decisions taken): recovery happens
  /// before the daemon starts serving. Subsequent decisions are
  /// byte-identical to an engine that lived through the original calls.
  void restore(const Snapshot& state);

  struct NewSchedule {
    std::uint64_t seq = 0;
    double start = 0.0;
    double end = 0.0;
    core::RequestEmbedding embedding;
  };

  /// All-or-nothing install of a reoptimized schedule: applies only when
  /// the engine's version still equals `expected_version` (no admission
  /// landed since the snapshot was taken — the joint solution would
  /// otherwise be stale) and every rescheduled seq is still active.
  /// `embeddings` must carry one entry per snapshot commit (pinned ones
  /// included) so the stored flows stay jointly consistent. Returns
  /// whether the install happened.
  bool try_install(std::uint64_t expected_version,
                   const std::vector<NewSchedule>& reschedules,
                   const std::vector<NewSchedule>& embeddings);

  // ----- test/export interface -----

  /// Every commit ever accepted (active + retired), in admission order.
  std::vector<Commit> history() const;

 private:
  // All private helpers assume mutex_ is held.
  void advance_now(double t_s, std::vector<std::uint64_t>* retired_out);
  void collect_component(double window_start, double window_end,
                         std::vector<std::size_t>* out) const;
  AdmitResult admit_locked(const RequestMessage& message,
                           StateTransition* txn);
  AdmitResult fastpath_locked(const RequestMessage& message,
                              StateTransition* txn);
  void emit_decision_locked(const RequestMessage& message,
                            const AdmitResult& result, bool fastpath,
                            StateTransition* txn);
  Snapshot snapshot_full_locked() const;

  mutable std::mutex mutex_;
  net::SubstrateNetwork substrate_;
  AdmissionOptions options_;
  StateSink sink_;
  std::vector<Commit> active_;
  std::vector<Commit> retired_;
  double now_ = 0.0;
  std::uint64_t version_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t accepted_total_ = 0;
  std::uint64_t decisions_total_ = 0;
};

/// One engine state change, as seen by the StateSink while the engine
/// lock is held. A kDecision is emitted for *every* admit/fastpath call —
/// rejects included, because a reject can advance the virtual now, retire
/// a component, and refresh the component's stored flows (which the
/// fastpath then prices against); replay must reproduce all of it for
/// byte-identical recovery. A kInstall mirrors a successful try_install.
struct StateTransition {
  enum class Kind { kDecision, kInstall };
  Kind kind = Kind::kDecision;

  // ----- kDecision -----
  std::string request_id;
  AdmitOutcome outcome = AdmitOutcome::kRejected;
  bool fastpath = false;
  /// The freshly accepted commit (nullptr unless outcome == kAccepted).
  const Commit* commit = nullptr;
  /// Seqs garbage-collected by this call's now-advance, retirement order.
  std::vector<std::uint64_t> retired;
  /// Component commits whose stored flows the step solve refreshed
  /// (exact-path accepts; a reject keeps the stored flows, so it is empty).
  std::vector<const Commit*> refreshed;

  // ----- kInstall -----
  const std::vector<AdmissionEngine::NewSchedule>* reschedules = nullptr;
  const std::vector<AdmissionEngine::NewSchedule>* embeddings = nullptr;

  // ----- resulting engine counters (both kinds) -----
  double now = 0.0;
  std::uint64_t version = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t accepted_total = 0;
  std::uint64_t decisions = 0;
};

}  // namespace tvnep::serve
