// Per-layer figures for a traced run: self time per layer from the
// program's own spans plus the benchmark's spans around each public call,
// counters from the metrics registry, solver effort per MIP solve, and
// root-LP probes that time the LU and simplex from outside.
#pragma once

#include <vector>

#include "common.hpp"
#include "mip/branch_and_bound.hpp"
#include "net/instance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tvnep/types.hpp"

namespace perfbench {

/// Sets every per-layer metric to 0 with its unit, so a traced run of any
/// workload prints the whole catalogue; a layer the workload leaves idle
/// reads 0.
void declare_layer_metrics(RunResult* result);

struct CapturedTrace {
  std::vector<tvnep::obs::TraceEvent> events;
  tvnep::obs::MetricsSnapshot metrics;
};

/// Turns the tracer and the metrics registry on, empty, for its lifetime.
class TraceCapture {
 public:
  TraceCapture();
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  /// Stops both and returns what they recorded.
  CapturedTrace finish();

 private:
  bool active_ = true;
};

/// Solver effort summed over MIP solves.
struct SolverEffort {
  long solves = 0;
  double seconds = 0.0;
  long nodes = 0;
  long pivots = 0;
  long dual_iterations = 0;
  long dual_fallbacks = 0;
  long refactorizations = 0;
  long basis_updates = 0;
  double fill_max = 0.0;
  long cuts_added = 0;
  long rc_fixed = 0;
  long root_timeouts = 0;  // ended at the time limit with 0 nodes
  long presolve_rows_removed = 0;
  double presolve_seconds = 0.0;

  void add(const tvnep::mip::MipResult& result);
};

/// The same effort as the daemon's step MIPs export it to the registry.
/// The registry has no dual-iteration, basis-update or reduced-cost-fixing
/// counters; those fields stay 0.
SolverEffort effort_from_registry(const tvnep::obs::MetricsSnapshot& metrics);

/// Sets the mip.*, lp.*, linalg.* and presolve.* effort metrics as means
/// per MIP solve.
void report_effort(const SolverEffort& effort, RunResult* result);

/// Root-LP probe totals over a set of models.
struct ProbeTotals {
  long models = 0;
  double build_ms = 0.0;
  long rows = 0;
  long cols = 0;
  long factorizations = 0;
  long factorize_failures = 0;  // a valid basis refused: a linalg defect
  double factorize_us = 0.0;
  long root_solves = 0;
  double root_ms = 0.0;
  long root_pivots = 0;
  long root_phase1 = 0;
};

/// Builds the cΣ model of `instance` with `build` through
/// core::build_formulation (timed), lowers it with Model::to_lp, times
/// SparseLuBasis::factorize on the all-slack start basis, solves the root
/// LP cold with lp::Simplex (timed), and times factorize again on the
/// optimal basis read back through Simplex::basic_variable.
void probe_model(const tvnep::net::TvnepInstance& instance,
                 const tvnep::core::BuildOptions& build, ProbeTotals* totals);

/// Sets tvnep.build_ms, tvnep.model_rows/cols, linalg.factorize_us,
/// lp.root_ms, lp.root_pivots, lp.phase1_iters and lp.us_per_pivot (means
/// per model).
void report_probe(const ProbeTotals& probes, RunResult* result);

/// Serve-layer figures from the registry: component size, WAL append and
/// fsync cost, and the WAL's total time (self.wal_ms).
void report_registry(const tvnep::obs::MetricsSnapshot& metrics,
                     RunResult* result);

/// Self time per layer, from complete spans nested per thread: a span's
/// self time is its duration minus its direct children's. Also the mean
/// durations of the serve request stages and queue residency. Prints the
/// spans with the most self time as notes.
void report_self_time(const std::vector<tvnep::obs::TraceEvent>& events,
                      RunResult* result);

}  // namespace perfbench
