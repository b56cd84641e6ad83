#include "eval/runner.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "eval/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/tree_log.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"

namespace tvnep::eval {

SweepConfig sweep_from_args(const Args& args, int default_requests,
                            int default_rows, int default_cols,
                            int default_leaves) {
  SweepConfig config;
  if (args.get_bool("paper-scale", false)) {
    // Section VI-A: 4×5 grid, 20 five-node-star requests, 1 h solves,
    // flexibility 0..6 h in 30-minute steps.
    default_requests = 20;
    default_rows = 4;
    default_cols = 5;
    default_leaves = 4;
    config.time_limit = 3600.0;
    config.seeds = 24;
  }
  config.base.num_requests = args.get_int("requests", default_requests);
  config.base.grid_rows = args.get_int("grid-rows", default_rows);
  config.base.grid_cols = args.get_int("grid-cols", default_cols);
  config.base.star_leaves = args.get_int("leaves", default_leaves);
  config.base.node_capacity = args.get_double("node-capacity", 3.5);
  config.base.link_capacity = args.get_double("link-capacity", 5.0);
  config.seeds = args.get_int("seeds", config.seeds);
  config.time_limit = args.get_double("time-limit", config.time_limit);
  config.threads = args.get_int("threads", 0);

  const double flex_max =
      args.get_double("flex-max", args.get_bool("paper-scale", false) ? 6.0 : 6.0);
  const double flex_step =
      args.get_double("flex-step", args.get_bool("paper-scale", false) ? 0.5 : 1.0);
  TVNEP_REQUIRE(flex_step > 0.0, "flex-step must be positive");
  for (double f = 0.0; f <= flex_max + 1e-9; f += flex_step)
    config.flexibilities.push_back(f);

  config.presolve = !args.get_bool("no-presolve", false);
  config.mip_cuts = !args.get_bool("no-cuts", false);
  config.rc_fixing = !args.get_bool("no-rc-fixing", false);
  config.lp_scaling = !args.get_bool("no-lp-scaling", false);
  config.lp_fault_period = args.get_int("lp-fault-period", 0);
  config.lp_fault_burst = args.get_int("lp-fault-burst", 1);
  TVNEP_REQUIRE(config.lp_fault_period >= 0,
                "--lp-fault-period must be non-negative");
  TVNEP_REQUIRE(config.lp_fault_period == 0 ||
                    (config.lp_fault_burst >= 1 &&
                     config.lp_fault_burst < config.lp_fault_period),
                "--lp-fault-burst must be in [1, lp-fault-period)");
  config.cell_timeout = args.get_double("cell-timeout", 0.0);
  config.cell_retries = args.get_int("cell-retries", 0);
  TVNEP_REQUIRE(config.cell_retries >= 0,
                "--cell-retries must be non-negative");
  config.build.dependency_cuts = !args.get_bool("no-dependency-cuts", false);
  config.build.pairwise_cuts = !args.get_bool("no-pairwise-cuts", false);
  config.build.precedence_cuts = !args.get_bool("no-precedence-cuts", false);
  return config;
}

int effective_threads(const SweepConfig& config) {
  if (config.threads > 0) return config.threads;
  return static_cast<int>(hardware_parallelism());
}

void for_each_cell(
    const SweepConfig& config,
    const std::function<void(std::size_t, int, std::size_t)>& body) {
  TVNEP_REQUIRE(config.seeds >= 0, "seeds must be non-negative");
  const std::size_t seeds = static_cast<std::size_t>(config.seeds);
  const std::size_t cells = config.flexibilities.size() * seeds;
  parallel_for(
      cells,
      [&](std::size_t cell) {
        body(cell / seeds, static_cast<int>(cell % seeds), cell);
      },
      static_cast<std::size_t>(effective_threads(config)));
}

namespace {

mip::MipStatus status_from_string(const std::string& name,
                                  bool* recognized) {
  *recognized = true;
  if (name == "optimal") return mip::MipStatus::kOptimal;
  if (name == "infeasible") return mip::MipStatus::kInfeasible;
  if (name == "unbounded") return mip::MipStatus::kUnbounded;
  if (name == "time-limit") return mip::MipStatus::kTimeLimit;
  if (name == "node-limit") return mip::MipStatus::kNodeLimit;
  if (name == "numerical-limit") return mip::MipStatus::kNumericalLimit;
  if (name == "numerical-failure") return mip::MipStatus::kNumericalFailure;
  *recognized = false;
  return mip::MipStatus::kNumericalFailure;
}

void encode_resilience_fields(const char* which, double flexibility,
                              double wall_seconds, bool failed,
                              const std::string& error, int retries,
                              bool timed_out, bool abandoned,
                              CellRecord& record) {
  record.fields["kind"] = JournalValue(which);
  record.fields["flexibility"] = JournalValue(flexibility);
  record.fields["wall_seconds"] = JournalValue(wall_seconds);
  record.fields["failed"] = JournalValue(failed);
  if (!error.empty()) record.fields["error"] = JournalValue(error);
  record.fields["retries"] = JournalValue(static_cast<double>(retries));
  record.fields["timed_out"] = JournalValue(timed_out);
  record.fields["abandoned"] = JournalValue(abandoned);
}

// Pre-rendered JSON args for a cell's trace span; built only when the
// tracer is active.
std::string cell_span_args(const std::string& label, double flexibility,
                           int seed, int attempt) {
  return "\"model\":\"" + obs::json_escape(label) +
         "\",\"flex\":" + obs::json_number(flexibility) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"attempt\":" + std::to_string(attempt);
}

// Shared per-cell harness: fills identity/timing, runs `solve` with
// failure isolation under a per-cell trace span, then hands the finished
// outcome plus sweep-wide progress to the serialized announce callback.
// Outcome slots are pre-sized by the caller so each worker touches only
// its own cell. `label` tags the cell spans, tree-log records and journal
// keys with the model being swept.
//
// With config.journal set, cells found in the journal are reconstituted
// via decode_outcome and skipped; every solved cell is durably appended
// before the sweep counts it complete. With config.cell_timeout set, each
// attempt runs under a watchdog guard whose cancel flag `solve` forwards
// into the solver; transient failures (`transient(outcome)`) retry up to
// config.cell_retries times with deterministic exponential backoff.
template <typename Outcome, typename Solve, typename Transient>
std::vector<Outcome> run_cells(
    const SweepConfig& config, const char* default_label, Solve&& solve,
    Transient&& transient,
    const std::function<void(const Outcome&, const SweepProgress&)>&
        announce) {
  const std::string label =
      config.cell_label.empty() ? default_label : config.cell_label;
  std::vector<Outcome> outcomes(config.flexibilities.size() *
                                static_cast<std::size_t>(config.seeds));
  Stopwatch sweep_watch;
  std::mutex announce_mutex;
  std::size_t completed = 0;
  std::size_t resumed = 0;
  Watchdog watchdog(config.cell_timeout);
  for_each_cell(config, [&](std::size_t f, int seed, std::size_t cell) {
    Stopwatch cell_watch;
    Outcome& outcome = outcomes[cell];
    outcome.flexibility = config.flexibilities[f];
    outcome.seed = seed;

    const CellKey key{label, static_cast<int>(f), seed};
    const CellRecord* journaled =
        config.journal ? config.journal->find(key) : nullptr;
    if (journaled != nullptr && decode_outcome(*journaled, outcome)) {
      outcome.flexibility = config.flexibilities[f];
      outcome.seed = seed;
      outcome.resumed = true;
      obs::counter_add("sweep.resumed_cells");
    } else {
      int attempt = 0;
      for (;;) {
        if (attempt > 0) {
          // Retry: wipe the previous attempt's result but keep identity.
          outcome = Outcome{};
          outcome.flexibility = config.flexibilities[f];
          outcome.seed = seed;
          obs::counter_add("sweep.retries");
        }
        Watchdog::CellGuard guard = watchdog.watch(
            label + "/" + std::to_string(f) + "/" + std::to_string(seed));
        {
          obs::SpanScope cell_span(
              obs::Tracer::active(), "sweep.cell", "sweep",
              obs::Tracer::active()
                  ? cell_span_args(label, outcome.flexibility, seed, attempt)
                  : std::string());
          try {
            workload::WorkloadParams params = config.base;
            params.seed = static_cast<std::uint64_t>(seed) + 1;
            const net::TvnepInstance instance =
                workload::generate_workload_with_flexibility(
                    params, outcome.flexibility);
            solve(instance, outcome, attempt, guard.cancel_flag());
          } catch (const std::exception& e) {
            outcome.failed = true;
            outcome.error = e.what();
          } catch (...) {
            outcome.failed = true;
            outcome.error = "unknown exception";
          }
        }
        outcome.timed_out = guard.timed_out();
        outcome.abandoned = guard.abandoned();
        if (attempt >= config.cell_retries || !transient(outcome)) break;
        ++attempt;
        const double wait = retry_backoff_seconds(
            config.retry_backoff, cell_key_hash(key), attempt);
        if (wait > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      outcome.retries = attempt;
      outcome.wall_seconds = cell_watch.seconds();
      if (config.journal)
        config.journal->append(encode_outcome(label, f, outcome));
    }

    obs::counter_add("sweep.cells");
    if (outcome.failed) obs::counter_add("sweep.failed_cells");
    if (!outcome.resumed)
      obs::histogram_observe("sweep.cell_seconds", outcome.wall_seconds);
    if (announce) {
      std::lock_guard<std::mutex> lock(announce_mutex);
      ++completed;
      if (outcome.resumed) ++resumed;
      SweepProgress progress;
      progress.completed = completed;
      progress.total = outcomes.size();
      progress.resumed = resumed;
      progress.elapsed_seconds = sweep_watch.seconds();
      // Resumed cells replay in microseconds; the rate that predicts the
      // remaining wall clock is solved-cells-per-second.
      const std::size_t solved = completed - resumed;
      if (solved > 0) {
        const double mean =
            progress.elapsed_seconds / static_cast<double>(solved);
        progress.eta_seconds =
            mean * static_cast<double>(progress.total - completed);
      } else {
        progress.eta_seconds = std::numeric_limits<double>::quiet_NaN();
      }
      announce(outcome, progress);
    }
  });
  return outcomes;
}

// Context tag for tree-log records written by this cell's solves, e.g.
// "model=cSigma flex=1.5 seed=2". Only built when a global tree log is
// installed (`--tree-log`); explicit MipOptions::tree_log users set their
// own context.
std::string cell_tree_log_context(const char* label, double flexibility,
                                  int seed) {
  char flex[32];
  std::snprintf(flex, sizeof(flex), "%g", flexibility);
  return std::string("model=") + label + " flex=" + flex +
         " seed=" + std::to_string(seed);
}

// Applies the sweep's LP-resilience knobs to a solver's SimplexOptions:
// scaling on/off plus, when `--lp-fault-period` is set, a deterministic
// per-cell fault hook. The hook owns its own consultation counter, so
// every cell sees the same fault pattern regardless of worker
// interleaving: out of every `period` consultations the first `burst`
// report a failure. Retry attempts double the period per attempt (halving
// the injected fault rate) — the ladder's "perturbed config" rung.
void apply_lp_resilience(const SweepConfig& config, lp::SimplexOptions& lp,
                         int attempt) {
  lp.scaling = config.lp_scaling;
  if (config.lp_fault_period <= 0) return;
  auto counter = std::make_shared<long>(0);
  long period = config.lp_fault_period;
  for (int i = 0; i < attempt && period < (1L << 40); ++i) period *= 2;
  const long burst = config.lp_fault_burst;
  lp.fault_hook = [counter, period, burst](long) {
    return ((*counter)++ % period) < burst;
  };
}

}  // namespace

CellRecord encode_outcome(const std::string& label, std::size_t flex_index,
                          const ScenarioOutcome& outcome) {
  CellRecord record;
  record.key.label = label;
  record.key.flex_index = static_cast<int>(flex_index);
  record.key.seed = outcome.seed;
  const core::TvnepSolveResult& r = outcome.result;
  auto& fields = record.fields;
  encode_resilience_fields("model", outcome.flexibility,
                           outcome.wall_seconds, outcome.failed,
                           outcome.error, outcome.retries, outcome.timed_out,
                           outcome.abandoned, record);
  if (!outcome.failure_reason.empty())
    fields["failure_reason"] = JournalValue(outcome.failure_reason);
  fields["status"] = JournalValue(mip::to_string(r.status));
  fields["has_solution"] = JournalValue(r.has_solution);
  fields["accepted"] = JournalValue(static_cast<double>(r.accepted_requests));
  fields["objective"] = JournalValue(r.objective);
  fields["best_bound"] = JournalValue(r.best_bound);
  fields["gap"] = JournalValue(r.gap);
  fields["seconds"] = JournalValue(r.seconds);
  fields["nodes"] = JournalValue(static_cast<double>(r.nodes));
  fields["lp_pivots"] = JournalValue(static_cast<double>(r.lp_pivots));
  fields["lp_iterations"] =
      JournalValue(static_cast<double>(r.lp_iterations));
  fields["dual_fallbacks"] =
      JournalValue(static_cast<double>(r.dual_fallbacks));
  fields["refactorizations"] =
      JournalValue(static_cast<double>(r.refactorizations));
  fields["basis_updates"] =
      JournalValue(static_cast<double>(r.basis_updates));
  fields["basis_fill"] = JournalValue(r.lp_basis_fill_max);
  fields["lp_recoveries"] =
      JournalValue(static_cast<double>(r.lp_recoveries));
  fields["numerical_drops"] =
      JournalValue(static_cast<double>(r.numerical_drops));
  fields["cuts_added"] = JournalValue(static_cast<double>(r.cuts_added));
  fields["cut_rounds"] = JournalValue(static_cast<double>(r.cut_rounds));
  fields["rc_fixed"] = JournalValue(static_cast<double>(r.rc_fixed));
  fields["model_vars"] = JournalValue(static_cast<double>(r.model_vars));
  fields["model_constraints"] =
      JournalValue(static_cast<double>(r.model_constraints));
  fields["model_integer_vars"] =
      JournalValue(static_cast<double>(r.model_integer_vars));
  fields["presolve_rows_removed"] =
      JournalValue(static_cast<double>(r.presolve_rows_removed));
  fields["presolve_cols_removed"] =
      JournalValue(static_cast<double>(r.presolve_cols_removed));
  fields["presolve_coeffs_tightened"] =
      JournalValue(static_cast<double>(r.presolve_coeffs_tightened));
  fields["presolve_bounds_tightened"] =
      JournalValue(static_cast<double>(r.presolve_bounds_tightened));
  fields["presolve_infeasible"] = JournalValue(r.presolve_infeasible);
  fields["presolve_seconds"] = JournalValue(r.presolve_seconds);
  return record;
}

bool decode_outcome(const CellRecord& record, ScenarioOutcome& outcome) {
  if (record.text("kind") != "model" || !record.has("status")) return false;
  bool recognized = false;
  const mip::MipStatus status =
      status_from_string(record.text("status"), &recognized);
  if (!recognized) return false;
  outcome.seed = record.key.seed;
  outcome.flexibility = record.number("flexibility");
  outcome.wall_seconds = record.number("wall_seconds");
  outcome.failed = record.boolean("failed");
  outcome.error = record.text("error");
  outcome.failure_reason = record.text("failure_reason");
  outcome.retries = static_cast<int>(record.number("retries"));
  outcome.timed_out = record.boolean("timed_out");
  outcome.abandoned = record.boolean("abandoned");
  core::TvnepSolveResult& r = outcome.result;
  r.status = status;
  r.has_solution = record.boolean("has_solution");
  r.accepted_requests = static_cast<int>(record.number("accepted"));
  r.objective = record.number("objective");
  r.best_bound = record.number("best_bound");
  r.gap = record.number("gap");
  r.seconds = record.number("seconds");
  r.nodes = static_cast<long>(record.number("nodes"));
  r.lp_pivots = static_cast<long>(record.number("lp_pivots"));
  r.lp_iterations = static_cast<long>(record.number("lp_iterations"));
  r.dual_fallbacks = static_cast<long>(record.number("dual_fallbacks"));
  r.refactorizations = static_cast<long>(record.number("refactorizations"));
  // Absent in journals written before the basis-factorization telemetry
  // existed; the fallback keeps those records decodable.
  r.basis_updates = static_cast<long>(record.number("basis_updates", 0.0));
  r.lp_basis_fill_max = record.number("basis_fill", 0.0);
  r.lp_recoveries = static_cast<long>(record.number("lp_recoveries"));
  r.numerical_drops = static_cast<long>(record.number("numerical_drops"));
  // Absent in journals written before the cut/rc-fixing telemetry existed;
  // the fallbacks keep those records decodable on --resume.
  r.cuts_added = static_cast<long>(record.number("cuts_added", 0.0));
  r.cut_rounds = static_cast<long>(record.number("cut_rounds", 0.0));
  r.rc_fixed = static_cast<long>(record.number("rc_fixed", 0.0));
  r.model_vars = static_cast<int>(record.number("model_vars"));
  r.model_constraints = static_cast<int>(record.number("model_constraints"));
  r.model_integer_vars =
      static_cast<int>(record.number("model_integer_vars"));
  r.presolve_rows_removed =
      static_cast<long>(record.number("presolve_rows_removed"));
  r.presolve_cols_removed =
      static_cast<long>(record.number("presolve_cols_removed"));
  r.presolve_coeffs_tightened =
      static_cast<long>(record.number("presolve_coeffs_tightened"));
  r.presolve_bounds_tightened =
      static_cast<long>(record.number("presolve_bounds_tightened"));
  r.presolve_infeasible = record.boolean("presolve_infeasible");
  r.presolve_seconds = record.number("presolve_seconds");
  return true;
}

CellRecord encode_outcome(const std::string& label, std::size_t flex_index,
                          const GreedyOutcome& outcome) {
  CellRecord record;
  record.key.label = label;
  record.key.flex_index = static_cast<int>(flex_index);
  record.key.seed = outcome.seed;
  encode_resilience_fields("greedy", outcome.flexibility,
                           outcome.wall_seconds, outcome.failed,
                           outcome.error, outcome.retries, outcome.timed_out,
                           outcome.abandoned, record);
  auto& fields = record.fields;
  fields["accepted"] =
      JournalValue(static_cast<double>(outcome.result.accepted));
  fields["complete"] = JournalValue(outcome.result.complete);
  fields["total_seconds"] = JournalValue(outcome.result.total_seconds);
  // The per-iteration trajectory, flattened to one space-separated string
  // (journal fields are scalars).
  std::ostringstream iterations;
  iterations.precision(17);
  for (std::size_t i = 0; i < outcome.result.iteration_seconds.size(); ++i) {
    if (i > 0) iterations << ' ';
    iterations << outcome.result.iteration_seconds[i];
  }
  fields["iteration_seconds"] = JournalValue(iterations.str());
  return record;
}

bool decode_outcome(const CellRecord& record, GreedyOutcome& outcome) {
  if (record.text("kind") != "greedy" || !record.has("accepted"))
    return false;
  outcome.seed = record.key.seed;
  outcome.flexibility = record.number("flexibility");
  outcome.wall_seconds = record.number("wall_seconds");
  outcome.failed = record.boolean("failed");
  outcome.error = record.text("error");
  outcome.retries = static_cast<int>(record.number("retries"));
  outcome.timed_out = record.boolean("timed_out");
  outcome.abandoned = record.boolean("abandoned");
  outcome.result.accepted = static_cast<int>(record.number("accepted"));
  outcome.result.complete = record.boolean("complete");
  outcome.result.total_seconds = record.number("total_seconds");
  outcome.result.iteration_seconds.clear();
  const std::string iterations = record.text("iteration_seconds");
  std::size_t i = 0;
  while (i < iterations.size()) {
    while (i < iterations.size() && iterations[i] == ' ') ++i;
    if (i >= iterations.size()) break;
    const std::size_t start = i;
    while (i < iterations.size() && iterations[i] != ' ') ++i;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(iterations.data() + start,
                                           iterations.data() + i, value);
    if (ec != std::errc{} || ptr != iterations.data() + i) return false;
    outcome.result.iteration_seconds.push_back(value);
  }
  return true;
}

std::vector<ScenarioOutcome> run_model_sweep(
    const SweepConfig& config, core::ModelKind kind,
    const std::function<void(const ScenarioOutcome&, const SweepProgress&)>&
        announce) {
  return run_cells<ScenarioOutcome>(
      config, core::to_string(kind),
      [&](const net::TvnepInstance& instance, ScenarioOutcome& outcome,
          int attempt, const std::atomic<bool>* cancel) {
        core::SolveParams solve_params;
        solve_params.build = config.build;
        solve_params.time_limit_seconds = config.time_limit;
        // Retry-ladder tightening: the final rung drops presolve so a
        // transform-triggered numerical issue cannot recur.
        solve_params.mip.presolve = config.presolve && attempt < 2;
        if (!config.mip_cuts) solve_params.mip.cut_rounds = 0;
        solve_params.mip.rc_fixing = config.rc_fixing;
        solve_params.mip.cancel = cancel;
        apply_lp_resilience(config, solve_params.mip.lp, attempt);
        if (obs::TreeLog::global() != nullptr)
          solve_params.mip.tree_log_context = cell_tree_log_context(
              core::to_string(kind), outcome.flexibility, outcome.seed);
        outcome.result =
            config.solve_override
                ? config.solve_override(instance, kind, solve_params)
                : core::solve(instance, kind, solve_params);
        if (outcome.result.status == mip::MipStatus::kNumericalFailure) {
          // No incumbent survived the recovery ladder — this cell carries
          // no usable result.
          outcome.failed = true;
          outcome.error = "solver reported a numerical failure";
        } else if (outcome.result.status == mip::MipStatus::kNumericalLimit) {
          outcome.failure_reason =
              "numerical limit: search degraded, anytime incumbent kept";
          obs::counter_add("sweep.degraded_cells");
        } else if (outcome.result.numerical_drops > 0) {
          outcome.failure_reason =
              "numerical drops absorbed without affecting optimality";
          obs::counter_add("sweep.degraded_cells");
        }
      },
      [](const ScenarioOutcome& outcome) {
        // Transient = worth a retry: hard failure, watchdog timeout, or a
        // degraded anytime result. Clean statuses (optimal/infeasible/
        // time-limit from the solver's own budget) are final.
        return outcome.failed || outcome.timed_out ||
               outcome.result.status == mip::MipStatus::kNumericalLimit ||
               outcome.result.numerical_drops > 0;
      },
      announce);
}

std::vector<GreedyOutcome> run_greedy_sweep(
    const SweepConfig& config,
    const std::function<void(const GreedyOutcome&, const SweepProgress&)>&
        announce) {
  return run_cells<GreedyOutcome>(
      config, "greedy",
      [&](const net::TvnepInstance& instance, GreedyOutcome& outcome,
          int attempt, const std::atomic<bool>* cancel) {
        greedy::GreedyOptions options;
        options.per_iteration_time_limit = config.time_limit;
        options.mip.presolve = config.presolve && attempt < 2;
        if (!config.mip_cuts) options.mip.cut_rounds = 0;
        options.mip.rc_fixing = config.rc_fixing;
        options.mip.cancel = cancel;
        apply_lp_resilience(config, options.mip.lp, attempt);
        if (obs::TreeLog::global() != nullptr)
          options.mip.tree_log_context = cell_tree_log_context(
              "greedy", outcome.flexibility, outcome.seed);
        outcome.result = greedy::solve_greedy(instance, options);
      },
      [](const GreedyOutcome& outcome) {
        return outcome.failed || outcome.timed_out;
      },
      announce);
}

std::vector<std::vector<double>> series_by_flexibility(
    const SweepConfig& config, const std::vector<ScenarioOutcome>& outcomes,
    const std::function<double(const ScenarioOutcome&)>& extract) {
  std::vector<std::vector<double>> series(config.flexibilities.size());
  for (const auto& outcome : outcomes) {
    for (std::size_t f = 0; f < config.flexibilities.size(); ++f) {
      if (std::fabs(config.flexibilities[f] - outcome.flexibility) < 1e-9) {
        series[f].push_back(extract(outcome));
        break;
      }
    }
  }
  return series;
}

}  // namespace tvnep::eval
