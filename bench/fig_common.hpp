// Shared glue for the figure-reproduction benches: outcome → table rows,
// summary printing, CSV export.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eval/runner.hpp"
#include "obs/session.hpp"
#include "support/atomic_file.hpp"
#include "support/parse_error.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace tvnep::bench {

/// `--quiet`: suppress per-cell progress output (the sweep announce lines
/// and the bespoke per-cell logs of fig5/6/7). Summary tables and CSVs are
/// unaffected.
inline bool quiet(const eval::Args& args) {
  return args.get_bool("quiet", false);
}

/// Wires the observability flags shared by every bench binary:
///   --trace PATH        Chrome trace_event JSON (chrome://tracing, Perfetto)
///   --trace-jsonl PATH  the same events as a flat JSONL stream
///   --metrics PATH      counters/gauges/histograms JSON snapshot
///   --tree-log PATH     branch-and-bound node records, one JSON per line
/// The session lives in a function-local static, so the output files are
/// written once at process exit (or when a bench calls finish() itself —
/// the returned pointer allows that). Without any of the flags the
/// subsystems stay inactive and instrumentation costs one branch per site.
inline obs::ObsSession* init_observability(const eval::Args& args) {
  static std::unique_ptr<obs::ObsSession> session;
  if (session) return session.get();
  obs::ObsConfig config;
  config.trace_path = args.get_string("trace", "");
  config.trace_jsonl_path = args.get_string("trace-jsonl", "");
  config.metrics_path = args.get_string("metrics", "");
  config.tree_log_path = args.get_string("tree-log", "");
  config.live_flush_seconds = args.get_double("live-flush-ms", 0.0) / 1000.0;
  // A bench exposing /metrics (serve_load --metrics-port) needs the live
  // registry active even without a --metrics output file.
  config.metrics_live = args.has("metrics-port");
  if (!config.any()) return nullptr;
  session = std::make_unique<obs::ObsSession>(std::move(config));
  return session.get();
}

/// Quick-run defaults shared by every figure bench: unless the user passed
/// the flag (or asked for --paper-scale, when `respect_paper_scale`), the
/// sweep is shrunk so a default invocation finishes in minutes, not hours.
/// The ablation benches pass respect_paper_scale = false — their quick
/// defaults apply even under --paper-scale because the ablation axis, not
/// the workload scale, is the point. Also initializes the observability
/// session from `--trace`/`--trace-jsonl`/`--metrics`/`--tree-log`, since
/// every bench funnels through here before its sweeps start.
inline void apply_quick_defaults(const eval::Args& args,
                                 eval::SweepConfig& config, double time_limit,
                                 int seeds,
                                 const std::vector<double>& flexibilities,
                                 bool respect_paper_scale = true) {
  init_observability(args);
  const bool paper =
      respect_paper_scale && args.get_bool("paper-scale", false);
  if (!args.has("time-limit") && !paper) config.time_limit = time_limit;
  if (!args.has("seeds") && !paper) config.seeds = seeds;
  if (!args.has("flex-max") && !paper) config.flexibilities = flexibilities;
}

/// Wires the crash-safety flags shared by every sweep bench:
///   --checkpoint PATH  journal every completed cell to PATH (fresh file)
///   --resume PATH      load PATH, skip journaled cells, keep appending
/// Must run AFTER apply_quick_defaults/flag overrides so the journal
/// fingerprint covers the final sweep configuration — resuming under
/// different flags is refused with a structured error. `bench_id` keys the
/// fingerprint so a fig4 journal cannot be resumed into fig3.
inline void attach_resilience(const eval::Args& args,
                              eval::SweepConfig& config,
                              const std::string& bench_id) {
  const std::string resume = args.get_string("resume", "");
  const std::string checkpoint = args.get_string("checkpoint", "");
  if (resume.empty() && checkpoint.empty()) return;
  const std::uint64_t fingerprint =
      eval::sweep_fingerprint(config, bench_id);
  try {
    config.journal = resume.empty()
                         ? eval::SweepJournal::create(checkpoint, fingerprint)
                         : eval::SweepJournal::resume(resume, fingerprint);
  } catch (const ParseError& e) {
    // A refused resume (wrong fingerprint, corrupt journal) is an operator
    // error with a structured location — report it and stop cleanly.
    std::cerr << "error: " << e.what() << '\n';
    std::exit(2);
  }
  if (config.journal->loaded() > 0)
    std::cerr << "resume: " << config.journal->loaded()
              << " journaled cells will be reconstituted from "
              << config.journal->path() << '\n';
}

/// Serializes progress lines written from parallel sweep cells. The sweep
/// runner already serializes its own announce callback; benches that log
/// from inside eval::for_each_cell bodies must lock this themselves.
inline std::mutex& log_mutex() {
  static std::mutex m;
  return m;
}

/// Announces the sweep fan-out once at the start of a bench run.
inline void announce_threads(const eval::SweepConfig& config) {
  std::cerr << "sweep: " << config.flexibilities.size() << " flexibilities × "
            << config.seeds << " seeds over "
            << eval::effective_threads(config) << " threads\n";
}

/// Prints per-flexibility five-number summaries of `values` (one vector of
/// per-seed values per flexibility level), the way the paper's boxplots
/// aggregate the 24 workloads.
inline void print_series(const std::string& title,
                         const std::vector<double>& flexibilities,
                         const std::vector<std::vector<double>>& values,
                         std::ostream& os, const std::string& csv_path) {
  Table table({"flex_h", "n", "min", "q1", "median", "q3", "max", "mean"});
  for (std::size_t f = 0; f < flexibilities.size(); ++f) {
    const Summary s = summarize(values[f]);
    table.add_row({Table::fmt(flexibilities[f], 1),
                   std::to_string(s.count), Table::fmt(s.min),
                   Table::fmt(s.q1), Table::fmt(s.median), Table::fmt(s.q3),
                   Table::fmt(s.max), Table::fmt(s.mean)});
  }
  os << "== " << title << " ==\n";
  table.print(os);
  os << '\n';
  if (!csv_path.empty()) table.save_csv(csv_path);
}

/// Gap values: timeouts without incumbent are the paper's "∞"; we cap them
/// at this marker value so summaries stay finite and recognizable.
inline double capped_gap(const core::TvnepSolveResult& result,
                         double infinity_marker = 10.0) {
  const double g = result.gap;
  if (!result.has_solution || g > infinity_marker) return infinity_marker;
  return g;
}

/// Restricts an instance to a subset of its requests (keeping substrate,
/// horizon and fixed mappings). The fixed-set objectives (earliness, load
/// balancing, link disabling) require every remaining request to be
/// embeddable; the benches use the greedy's accepted set for that, mirroring
/// how an operator would schedule an admitted batch.
inline net::TvnepInstance restrict_to(const net::TvnepInstance& instance,
                                      const std::vector<int>& keep) {
  net::TvnepInstance out(instance.substrate(), instance.horizon());
  for (const int r : keep) {
    if (instance.has_fixed_mapping(r))
      out.add_request(instance.request(r), instance.fixed_mapping(r));
    else
      out.add_request(instance.request(r));
  }
  return out;
}

/// Renders a sweep progress prefix: "[completed/total eta 42s]"; the ETA
/// extrapolates from the mean wall clock of the cells solved this run
/// (resumed cells are excluded from the rate) and is omitted once the
/// sweep is done or while no cell has been solved yet. Resumed sweeps get
/// a "+k resumed" marker.
inline std::string progress_prefix(const eval::SweepProgress& progress) {
  std::string out = "[";
  out += std::to_string(progress.completed);
  out += "/";
  out += std::to_string(progress.total);
  if (progress.resumed > 0) {
    out += " +";
    out += std::to_string(progress.resumed);
    out += " resumed";
  }
  if (progress.completed < progress.total &&
      std::isfinite(progress.eta_seconds)) {
    char eta[32];
    std::snprintf(eta, sizeof(eta), " eta %.0fs", progress.eta_seconds);
    out += eta;
  }
  out += "]";
  return out;
}

inline void announce_progress(const eval::ScenarioOutcome& outcome,
                              const eval::SweepProgress& progress) {
  std::cerr << "  " << progress_prefix(progress)
            << " flex=" << outcome.flexibility << " seed=" << outcome.seed
            << " status=" << mip::to_string(outcome.result.status)
            << " obj=" << outcome.result.objective
            << " t=" << outcome.result.seconds << "s"
            << " wall=" << outcome.wall_seconds << "s"
            << " nodes=" << outcome.result.nodes
            << " pivots=" << outcome.result.lp_pivots
            << " pre=-" << outcome.result.presolve_rows_removed << "r/-"
            << outcome.result.presolve_cols_removed << "c";
  if (outcome.resumed) std::cerr << " RESUMED";
  if (outcome.retries > 0) std::cerr << " retries=" << outcome.retries;
  if (outcome.timed_out) std::cerr << " TIMED-OUT";
  if (outcome.abandoned) std::cerr << " ABANDONED";
  if (outcome.failed) std::cerr << " FAILED(" << outcome.error << ")";
  if (!outcome.failure_reason.empty())
    std::cerr << " DEGRADED(" << outcome.failure_reason << ")";
  std::cerr << '\n';
}

/// The per-cell announce callback a model sweep should use: the standard
/// progress line, or none at all under `--quiet`.
inline std::function<void(const eval::ScenarioOutcome&,
                          const eval::SweepProgress&)>
progress_announcer(const eval::Args& args) {
  if (quiet(args)) return nullptr;
  return announce_progress;
}

/// Writes one row per sweep cell with the full solver + presolve telemetry
/// plus the resilience trail (accepted/retries/timed_out/abandoned/
/// resumed) — the per-cell companion of print_series' per-flexibility
/// summaries. Appends when `append` so multi-model benches can collect
/// every model's cells in one file. The whole file is rewritten atomically
/// (temp file + rename) on every call from a process-local accumulator, so
/// a crash mid-export never leaves a half-written or stale-mixed CSV.
inline void save_outcomes_csv(const std::string& path,
                              const std::string& model_label,
                              const std::vector<eval::ScenarioOutcome>& outcomes,
                              bool append = false) {
  static std::mutex mutex;
  static std::map<std::string, std::string> accumulated;
  std::lock_guard<std::mutex> lock(mutex);
  std::string& body = accumulated[path];
  if (!append) body.clear();
  std::ostringstream os;
  for (const auto& o : outcomes) {
    const auto& r = o.result;
    os << model_label << ',' << o.flexibility << ',' << o.seed << ','
       << mip::to_string(r.status) << ',' << (o.failed ? 1 : 0) << ','
       << r.objective << ',' << r.best_bound << ',' << r.gap << ','
       << r.seconds << ',' << o.wall_seconds << ',' << r.nodes << ','
       << r.lp_pivots << ',' << r.lp_iterations << ',' << r.dual_fallbacks
       << ',' << r.refactorizations << ',' << r.numerical_drops << ','
       << r.lp_recoveries
       << ',' << r.basis_updates << ',' << r.lp_basis_fill_max
       << ',' << r.cuts_added << ',' << r.cut_rounds << ',' << r.rc_fixed
       << ',' << r.model_vars << ',' << r.model_constraints << ','
       << r.model_integer_vars << ',' << r.presolve_rows_removed << ','
       << r.presolve_cols_removed << ',' << r.presolve_coeffs_tightened << ','
       << r.presolve_bounds_tightened << ',' << (r.presolve_infeasible ? 1 : 0)
       << ',' << r.presolve_seconds << ',' << r.accepted_requests << ','
       << o.retries << ',' << (o.timed_out ? 1 : 0) << ','
       << (o.abandoned ? 1 : 0) << ',' << (o.resumed ? 1 : 0) << '\n';
  }
  body += os.str();
  AtomicFile file(path);
  file.stream()
      << "model,flex_h,seed,status,failed,objective,best_bound,gap,"
         "solve_seconds,wall_seconds,nodes,lp_pivots,lp_iterations,"
         "dual_fallbacks,refactorizations,numerical_drops,lp_recoveries,"
         "basis_updates,basis_fill,"
         "cuts_added,cut_rounds,rc_fixed,"
         "model_vars,model_constraints,model_integer_vars,"
         "presolve_rows_removed,presolve_cols_removed,"
         "presolve_coeffs_tightened,presolve_bounds_tightened,"
         "presolve_infeasible,presolve_seconds,accepted,retries,timed_out,"
         "abandoned,resumed\n"
      << body;
  if (!file.commit()) std::cerr << "warning: cannot write " << path << '\n';
}

}  // namespace tvnep::bench
