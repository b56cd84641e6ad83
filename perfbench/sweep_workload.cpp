// sweep_csigma: serial cΣ access-control solves over a fixed grid of
// (instance seed × flexibility) cells, each proven optimal and checked
// against a recorded reference objective. The opposite LP regime from the
// serve workloads: few, larger models with deep trees, warm-started dual
// simplex and many LU updates, and no serve code at all.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <random>

#include "net/instance.hpp"
#include "obs/trace.hpp"
#include "support/stopwatch.hpp"
#include "sweep_reference.hpp"
#include "trace_report.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tvnep;

// The grid: 6 three-leaf stars on a 3×4 grid, flexibility 1 h and 2 h.
// The time limit is a hang guard only: it is far above the slowest
// reference cell, so a cell that reaches it is a failure, not a result.
constexpr double kCellTimeLimit = 120.0;
constexpr double kObjectiveTol = 1e-6;

workload::WorkloadParams cell_params(int seed, double flexibility) {
  workload::WorkloadParams params;
  params.grid_rows = 3;
  params.grid_cols = 4;
  params.num_requests = 6;
  params.star_leaves = 3;
  params.seed = static_cast<std::uint64_t>(seed);
  params.flexibility = flexibility;
  return params;
}

mip::MipOptions cell_mip_options() {
  mip::MipOptions options;
  options.time_limit_seconds = kCellTimeLimit;
  // Span every node LP while the tracer is on (the default samples every
  // 16th), so that LP time is not left inside mip.solve_tree self time.
  // Spans only: node and pivot counts stay as untraced, which run_pass
  // checks.
  options.trace_node_sample = 1;
  return options;
}

struct Cell {
  const SweepReference* reference;
  net::TvnepInstance instance;
};

struct CellSolve {
  mip::MipResult mip;
  double seconds = 0.0;  // build + solve
  std::unique_ptr<core::Formulation> formulation;
};

CellSolve solve_cell(const net::TvnepInstance& instance) {
  CellSolve out;
  Stopwatch watch;
  obs::SpanScope cell_span("bench.cell", "bench");
  {
    obs::SpanScope span("tvnep.build", "bench");
    out.formulation = core::build_formulation(
        instance, core::ModelKind::kCSigma, core::BuildOptions{});
  }
  {
    obs::SpanScope span("bench.mip_solve", "bench");
    mip::MipSolver solver(cell_mip_options());
    out.mip = solver.solve(out.formulation->model());
  }
  out.seconds = watch.seconds();
  return out;
}

/// The correctness gate for one solved cell: proven optimal, objective
/// equal to the reference, and an extracted schedule the independent
/// continuous-time validator accepts.
bool check_cell(const Cell& cell, const CellSolve& solve, RunResult* result) {
  const SweepReference& ref = *cell.reference;
  const std::string name =
      format("cell seed=%d flex=%g", ref.seed, ref.flexibility);
  if (solve.mip.status != mip::MipStatus::kOptimal ||
      !solve.mip.has_solution) {
    result->fail(name + ": status " + mip::to_string(solve.mip.status));
    return false;
  }
  const double scale = std::max(1.0, std::abs(ref.objective));
  if (std::abs(solve.mip.objective - ref.objective) > kObjectiveTol * scale) {
    result->fail(format("%s: objective %.17g, reference %.17g", name.c_str(),
                        solve.mip.objective, ref.objective));
    return false;
  }
  const core::TvnepSolution solution =
      solve.formulation->extract(solve.mip.solution);
  const core::ValidationResult check =
      core::validate_solution(cell.instance, solution);
  if (!check.ok) {
    result->fail(name + ": invalid solution: " +
                 (check.errors.empty() ? "?" : check.errors.front()));
    return false;
  }
  return true;
}

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  for (const SweepReference& ref : kSweepReference)
    cells.push_back(Cell{&ref, workload::generate_workload(cell_params(
                                   ref.seed, ref.flexibility))});
  return cells;
}

/// Cell solves accumulated over the passes of one half of a run.
struct Passes {
  std::vector<double> cell_ms;
  std::vector<double> pass_seconds;
  double seconds = 0.0;
  long cells = 0;
  long optimal = 0;
  double revenue = 0.0;  // of the last pass
  SolverEffort effort;
};

/// Solves every cell in `order`, pass after pass, while another pass
/// should still end inside `budget` seconds (at least one pass). Checks
/// each cell, and checks that its node and pivot counts equal those of its
/// first solve in this run: the solver is serial and deterministic, so any
/// drift is a defect.
Passes run_passes(const std::vector<Cell>& cells,
                  const std::vector<std::size_t>& order, double budget,
                  std::map<std::size_t, std::pair<long, long>>* first_effort,
                  RunResult* result) {
  Passes out;
  Stopwatch clock;
  do {
    double pass_seconds = 0.0;
    out.revenue = 0.0;
    for (const std::size_t index : order) {
      const Cell& cell = cells[index];
      const CellSolve solve = solve_cell(cell.instance);
      ++result->attempted;
      ++out.cells;
      pass_seconds += solve.seconds;
      out.cell_ms.push_back(solve.seconds * 1000.0);
      out.effort.add(solve.mip);
      if (!check_cell(cell, solve, result)) continue;
      const std::pair<long, long> effort{solve.mip.nodes, solve.mip.lp_pivots};
      const auto [it, inserted] = first_effort->emplace(index, effort);
      if (!inserted && it->second != effort) {
        result->fail(format("cell seed=%d flex=%g: nodes/pivots %ld/%ld, "
                            "earlier pass %ld/%ld",
                            cell.reference->seed, cell.reference->flexibility,
                            effort.first, effort.second, it->second.first,
                            it->second.second));
        continue;
      }
      ++out.optimal;
      out.revenue += solve.mip.objective;
    }
    out.pass_seconds.push_back(pass_seconds);
    out.seconds += pass_seconds;
  } while (clock.seconds() + out.pass_seconds.back() <= budget);
  return out;
}

}  // namespace

RunResult run_sweep_csigma(const RunOptions& options) {
  RunResult result;

  // Set-up: materialize every cell's instance; the last copy is used.
  std::vector<Cell> cells;
  const double setup_s = median_setup_seconds([&] {
    Stopwatch watch;
    cells = make_cells();
    return watch.seconds();
  });

  // The seed permutes the solve order; the cell set is fixed so that the
  // recorded references hold.
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(options.seed);
  std::shuffle(order.begin(), order.end(), rng);

  std::map<std::size_t, std::pair<long, long>> first_effort;
  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  const Passes untraced =
      run_passes(cells, order, budget, &first_effort, &result);
  result.note(format("sweep_csigma: %zu cells x %zu passes, pass median "
                     "%.3f s, %ld/%ld optimal",
                     cells.size(), untraced.pass_seconds.size(),
                     median(untraced.pass_seconds), untraced.optimal,
                     untraced.cells));

  if (!options.trace) {
    result.set("decide_mean_ms", mean(untraced.cell_ms), "ms");
    result.set("decide_tail_ms", tail_mean(untraced.cell_ms, 0.05), "ms");
    result.set("decisions_per_s",
               static_cast<double>(untraced.cells) / untraced.seconds, "1/s");
    result.set("exact_share",
               static_cast<double>(untraced.optimal) /
                   static_cast<double>(untraced.cells),
               "ratio");
    result.set("revenue", untraced.revenue, "revenue");
    result.set("setup_s", setup_s, "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.note(format("cell times from %zu raw samples: mean %.3f ms, p50 "
                       "%.3f ms, p95 %.3f ms, mean of slowest 5%% %.3f ms",
                       untraced.cell_ms.size(), mean(untraced.cell_ms),
                       median(untraced.cell_ms),
                       percentile(untraced.cell_ms, 0.95),
                       tail_mean(untraced.cell_ms, 0.05)));
    return result;
  }

  declare_layer_metrics(&result);
  ProbeTotals probes;
  for (const Cell& cell : cells)
    probe_model(cell.instance, core::BuildOptions{}, &probes);
  TraceCapture capture;
  const Passes traced =
      run_passes(cells, order, budget, &first_effort, &result);
  const CapturedTrace trace = capture.finish();

  report_probe(probes, &result);
  report_effort(traced.effort, &result);
  report_registry(trace.metrics, &result);
  report_self_time(trace.events, &result);
  result.set("workload.setup_ms", setup_s * 1000.0, "ms");
  const double untraced_pass = median(untraced.pass_seconds);
  const double traced_pass = median(traced.pass_seconds);
  result.set("trace.overhead_pct",
             100.0 * (traced_pass - untraced_pass) / untraced_pass, "%");
  result.note(format("tracing overhead: pass median %.3f s untraced, %.3f s "
                     "traced",
                     untraced_pass, traced_pass));
  return result;
}

int record_sweep_reference(int first_seed, int last_seed) {
  std::printf("// seed, flexibility, objective   (nodes pivots seconds)\n");
  for (int seed = first_seed; seed <= last_seed; ++seed) {
    for (const double flexibility : {1.0, 2.0}) {
      const net::TvnepInstance instance =
          workload::generate_workload(cell_params(seed, flexibility));
      const CellSolve solve = solve_cell(instance);
      std::printf("    {%d, %.1f, %.17g},  // %s nodes=%ld pivots=%ld %.3fs\n",
                  seed, flexibility, solve.mip.objective,
                  mip::to_string(solve.mip.status), solve.mip.nodes,
                  solve.mip.lp_pivots, solve.seconds);
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace perfbench
