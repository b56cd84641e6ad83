// Scenario sweeps for the evaluation section: (seed × flexibility) grids
// over a model/objective combination, mirroring the paper's 24 workloads ×
// 11 flexibility steps methodology at a configurable scale.
//
// Every cell of the grid is independent, so the sweeps fan out over
// support/parallel.hpp's work-stealing parallel_for (`--threads N`,
// default = hardware_parallelism()). Determinism guarantee: the outcome
// vector is pre-sized and every worker writes only its own cell slot, so
// ordering and per-cell results are identical to the serial `--threads 1`
// run (timing fields excepted). Progress callbacks are serialized by an
// internal mutex. A cell whose solve throws (or reports a numerical
// failure with no usable result) records a failed outcome instead of
// aborting the sweep; a numerically degraded solve that still holds an
// anytime incumbent keeps its result and only records a failure_reason.
//
// Crash safety (eval/checkpoint.hpp): with `config.journal` set, every
// completed cell is durably appended to a JSONL journal before the sweep
// moves on, and cells already present in the journal are skipped — their
// outcomes are reconstituted from the record instead of re-solved
// (`outcome.resumed`). Per-cell resilience (eval/watchdog.hpp): with
// `cell_timeout` set a watchdog thread soft-cancels cells that exceed it
// (the solver returns its anytime incumbent) and records cells ignoring
// the cancel for another full timeout as abandoned.
//
// Every figure and ablation bench runs its cells through run_model_sweep
// or run_greedy_sweep; per-cell work beyond one model solve (the greedy
// admission before the objectives experiment, a root-only solve) hooks in
// through SweepConfig::solve_override, so the journal, watchdog, failure
// isolation, cell spans and the solver flags apply to every cell alike.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/args.hpp"
#include "eval/checkpoint.hpp"
#include "greedy/greedy.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep::eval {

struct SweepConfig {
  workload::WorkloadParams base;        // flexibility is overridden per cell
  std::vector<double> flexibilities;    // hours
  int seeds = 3;
  double time_limit = 10.0;             // per solve, seconds
  int threads = 0;                      // workers; 0 → hardware_parallelism()
  bool presolve = true;                 // MIP presolve (`--no-presolve`)
  // Root cutting-plane loop (`--no-cuts` zeroes MipOptions::cut_rounds)
  // and reduced-cost fixing (`--no-rc-fixing`). CI's cut-equivalence leg
  // runs the models experiment with and without cuts and diffs the
  // objective/gap columns.
  bool mip_cuts = true;
  bool rc_fixing = true;
  bool lp_scaling = true;               // LP equilibration (`--no-lp-scaling`)
  // Deterministic LP fault injection (`--lp-fault-period N`): every cell
  // gets its own hook that fails `lp_fault_burst` consecutive simplex
  // iterations out of every `lp_fault_period` hook consultations — burst 1
  // exercises the first recovery rung, bursts of 5+ push nodes through the
  // requeue/drop path. 0 disables injection (the default). For every fault
  // to be recoverable the period must exceed the iteration count of the
  // longest single LP attempt (each recovery retry restarts the count-up
  // to the next burst); shorter periods deliberately starve long LPs and
  // drive the sweep into the anytime/drop paths.
  int lp_fault_period = 0;
  int lp_fault_burst = 1;
  // Per-cell watchdog (`--cell-timeout SEC`); <= 0 disables it.
  double cell_timeout = 0.0;
  // Checkpoint journal (`--checkpoint PATH` / `--resume PATH`). When set,
  // completed cells are durably journaled and journaled cells are skipped.
  std::shared_ptr<SweepJournal> journal;
  // Optional override of the label that keys journal records and tags
  // cell spans (default: the swept model's name / "greedy"). Benches that
  // sweep the same model under several variants set this per variant so
  // their journal keys stay distinct.
  std::string cell_label;
  core::BuildOptions build;

  /// Replaces core::solve for every cell of run_model_sweep — the seam
  /// tests use to inject failures and benches use for per-cell work
  /// beyond one solve. The params it receives already carry the sweep's
  /// build options, time limit and solver options (presolve, cuts, rc
  /// fixing, LP scaling, fault hook, watchdog cancel, tree-log context);
  /// forward params.mip to every inner solve. Empty → core::solve.
  std::function<core::TvnepSolveResult(const net::TvnepInstance&,
                                       core::ModelKind,
                                       const core::SolveParams&)>
      solve_override;
};

/// Builds the scaled default configuration used by the figure benches and
/// overrides it from command-line flags:
///   --requests N --grid-rows R --grid-cols C --leaves L --seeds S
///   --time-limit SEC --flex-max HOURS --flex-step HOURS --threads N
///   --no-dependency-cuts --no-pairwise-cuts --no-presolve --paper-scale
///   --no-cuts --no-rc-fixing
///   --no-lp-scaling --lp-fault-period N --lp-fault-burst B
///   --cell-timeout SEC
SweepConfig sweep_from_args(const Args& args, int default_requests,
                            int default_rows, int default_cols,
                            int default_leaves);

/// Worker count a sweep over `config` will actually use (>= 1).
int effective_threads(const SweepConfig& config);

/// Sweep-wide progress handed to announce callbacks alongside each
/// finished cell. `eta_seconds` extrapolates from the mean wall clock of
/// the cells actually *solved* this run — resumed cells finish in
/// microseconds and are excluded from the rate, so a resumed sweep's ETA
/// reflects the remaining solve work (NaN until the first non-resumed
/// cell completes — callers print it only when finite).
struct SweepProgress {
  std::size_t completed = 0;  // cells finished, including this one
  std::size_t total = 0;
  std::size_t resumed = 0;    // of `completed`, reconstituted from journal
  double elapsed_seconds = 0.0;
  double eta_seconds = 0.0;  // estimated remaining wall clock
};

struct ScenarioOutcome {
  double flexibility = 0.0;
  int seed = 0;
  core::TvnepSolveResult result;
  /// Wall clock of the whole cell (workload generation + model build +
  /// solve) on its worker thread — the throughput number for
  /// BENCH_*.json. Resumed cells restore the wall clock of the run that
  /// originally solved them.
  double wall_seconds = 0.0;
  /// The cell's solve threw or ended in MipStatus::kNumericalFailure with
  /// no usable result. Sibling cells are unaffected; `error` carries the
  /// exception text. A solve that degraded numerically but still produced
  /// an anytime incumbent (kNumericalLimit, or numerical_drops > 0) is NOT
  /// failed — its result stays in the sweep and `failure_reason` records
  /// what happened.
  bool failed = false;
  std::string error;
  std::string failure_reason;
  // Resilience trail: the watchdog's verdicts, and whether this cell was
  // reconstituted from a checkpoint journal instead of solved.
  bool timed_out = false;
  bool abandoned = false;
  bool resumed = false;
};

/// Solves every (flexibility, seed) cell with the given model, fanning the
/// cells out over config.threads workers. `announce` (optional) is called
/// with each finished outcome for progress reporting; calls are serialized
/// but may arrive out of grid order. The returned vector is always in grid
/// order (flexibility-major, seed-minor), identical to the serial run.
/// Note resumed cells carry every flat result field but not the extracted
/// solution object — consumers of `result.solution` must use the flat
/// fields (e.g. `result.accepted_requests`) to stay resume-compatible.
std::vector<ScenarioOutcome> run_model_sweep(
    const SweepConfig& config, core::ModelKind kind,
    const std::function<void(const ScenarioOutcome&, const SweepProgress&)>&
        announce = nullptr);

struct GreedyOutcome {
  double flexibility = 0.0;
  int seed = 0;
  greedy::GreedyResult result;
  /// Revenue of the greedy's schedule on the cell's instance. A flat
  /// field like ScenarioOutcome's accepted_requests: it is journaled, so a
  /// resumed cell still yields the greedy's shortfall against an exact
  /// solve without the solution object.
  double revenue = 0.0;
  double wall_seconds = 0.0;
  bool failed = false;
  std::string error;
  // Resilience trail (see ScenarioOutcome).
  bool timed_out = false;
  bool abandoned = false;
  bool resumed = false;
};

/// Runs the greedy cΣ_A^G over the same grid, with the same parallel
/// fan-out, ordering and failure-isolation guarantees as run_model_sweep;
/// the greedy's inner MIPs run under the sweep's solver options.
std::vector<GreedyOutcome> run_greedy_sweep(
    const SweepConfig& config,
    const std::function<void(const GreedyOutcome&, const SweepProgress&)>&
        announce = nullptr);

/// Collects the values of `extract(outcome)` per flexibility level, in
/// seed order — the series the figures plot. Failed cells are included
/// (their result carries default values); filter on `failed` upstream if
/// they should not enter a summary.
std::vector<std::vector<double>> series_by_flexibility(
    const SweepConfig& config, const std::vector<ScenarioOutcome>& outcomes,
    const std::function<double(const ScenarioOutcome&)>& extract);

/// Journal codecs for the sweep outcomes: encode flattens every field a
/// figure consumes into a CellRecord; decode reconstitutes the outcome
/// (minus the solution object) and returns false on a record missing its
/// mandatory fields, in which case the cell is re-solved.
CellRecord encode_outcome(const std::string& label, std::size_t flex_index,
                          const ScenarioOutcome& outcome);
bool decode_outcome(const CellRecord& record, ScenarioOutcome& outcome);
CellRecord encode_outcome(const std::string& label, std::size_t flex_index,
                          const GreedyOutcome& outcome);
bool decode_outcome(const CellRecord& record, GreedyOutcome& outcome);

}  // namespace tvnep::eval
