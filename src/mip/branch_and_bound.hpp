// LP-based branch and bound for mixed-integer programs.
//
// Strategy:
//  * best-first node selection on the parent LP bound, with a depth
//    tie-break that makes the search dive (cheap incumbents, good warm
//    starts for the dual simplex);
//  * pseudocost branching, bootstrapped by most-fractional selection until
//    a variable has been observed in both directions;
//  * optional caller-supplied initial incumbent (`solve`'s
//    `initial_solution`, mirroring how MIP solvers accept warm starts;
//    only the solver's own tests pass one today);
//  * wall-clock limit with best-incumbent / best-bound gap reporting, the
//    quantity the paper plots in Figures 4 and 6.
#pragma once

#include <atomic>
#include <optional>
#include <vector>

#include <functional>

#include "mip/cuts.hpp"
#include "mip/model.hpp"
#include "lp/simplex.hpp"
#include "presolve/presolve.hpp"

namespace tvnep::obs {
class TreeLog;
}

namespace tvnep::mip {

enum class MipStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kTimeLimit,
  kNodeLimit,
  // Anytime result under numerical degradation: one or more node LPs kept
  // failing after the in-LP recovery ladder and a requeue, and their
  // subtrees were dropped with their parent bounds folded into
  // `best_bound`. The incumbent/bound/gap are valid, exactly as after a
  // time or node limit; `numerical_drops` counts the dropped subtrees.
  kNumericalLimit,
  // No usable result at all: the search could neither finish cleanly nor
  // produce an incumbent (e.g. the root LP failed beyond recovery).
  kNumericalFailure,
};

const char* to_string(MipStatus status);

struct MipOptions {
  double time_limit_seconds = 0.0;  // <= 0 → unlimited
  double gap_tolerance = 1e-6;      // relative incumbent/bound gap
  double integrality_tol = 1e-6;
  long max_nodes = 0;               // 0 → unlimited
  lp::SimplexOptions lp;
  bool root_rounding_heuristic = true;
  // Dive-based rounding heuristic frequency (every N processed nodes);
  // 0 disables.
  long heuristic_frequency = 200;
  // Run the presolve/postsolve pipeline (src/presolve) before the tree
  // starts. Solutions, bounds and objectives are always reported in the
  // original variable space.
  bool presolve = true;
  presolve::PresolveOptions presolve_options;
  // Root cutting-plane loop (src/mip/cuts.hpp): up to `cut_rounds`
  // separation rounds at the root, each admitting at most
  // `max_cuts_per_round` Gomory mixed-integer + cover cuts into the LP;
  // 0 rounds disables separation entirely. Fine-grained filter and pool
  // knobs live in `cut_options`.
  int cut_rounds = 8;
  int max_cuts_per_round = 50;
  cuts::CutOptions cut_options;
  // Test/debug seam: observes every cut admitted into the root LP, in the
  // (possibly presolved) space the tree solves. The cut-validity harness
  // checks each observed cut against a known optimal integer solution.
  std::function<void(const cuts::Cut&)> cut_observer;
  // Reduced-cost variable fixing: after every optimal node LP with an
  // incumbent available, nonbasic integer variables whose reduced cost
  // proves them out of any improving solution are fixed (or their domain
  // tightened) for the whole subtree.
  bool rc_fixing = true;
  // Observability. `tree_log` receives one record per processed node (see
  // obs/tree_log.hpp for the schema); when null the solver falls back to
  // obs::TreeLog::global() — the log the `--tree-log` flag installs — so
  // no plumbing is needed for the common case. `tree_log_context` tags
  // every record (the sweep runner stamps model/flexibility/seed).
  obs::TreeLog* tree_log = nullptr;
  std::string tree_log_context;
  // When the span tracer is active, emit a trace span (plus the underlying
  // LP phase spans) for every Nth processed node; <= 0 disables node-LP
  // spans. The root LP is always node 0 and therefore always sampled.
  long trace_node_sample = 16;
  // Cooperative soft-cancel: polled at the top of the branch-and-bound
  // loop and propagated into every node LP (lp.cancel, unless the caller
  // set that seam itself). A set flag aborts with anytime time-limit
  // semantics — incumbent, bound and gap stay valid exactly as when the
  // wall-clock budget runs out. The pointee must outlive the solve. The
  // sweep watchdog fires this flag when a cell overruns `--cell-timeout`.
  const std::atomic<bool>* cancel = nullptr;
};

struct MipResult {
  MipStatus status = MipStatus::kNumericalFailure;
  bool has_solution = false;
  double objective = 0.0;      // model-space incumbent objective
  double best_bound = 0.0;     // model-space proven bound
  std::vector<double> solution;  // by variable id (when has_solution)
  long nodes = 0;
  long lp_pivots = 0;
  double seconds = 0.0;
  // LP effort breakdown (accumulated over all node solves).
  long phase1_iterations = 0;
  long phase2_iterations = 0;
  long dual_iterations = 0;
  long dual_fallbacks = 0;  // warm dual solves that hit their iteration guard
  long refactorizations = 0;  // basis refactorizations across node LPs
  long basis_updates = 0;   // incremental basis updates across node LPs
  // Worst nnz(factors)/nnz(B) fill ratio any node LP factorization hit
  // (dense backend: m^2/nnz(B)); 0 when no factorization happened.
  double lp_basis_fill_max = 0.0;
  // Numerical-resilience telemetry. `lp_recoveries` totals the recovery
  // ladder rungs taken across all node LPs (per-rung counts are on the
  // lp.recovery.* metrics); `numerical_drops` counts subtrees abandoned
  // after the ladder and one requeue both failed — any drop makes the
  // final status an anytime one (kNumericalLimit at best), never optimal,
  // unless the dropped bounds were already dominated by the incumbent.
  long lp_recoveries = 0;
  long numerical_drops = 0;
  // Presolve telemetry (all zero when MipOptions::presolve is off).
  long presolve_rows_removed = 0;
  long presolve_cols_removed = 0;
  long presolve_coeffs_tightened = 0;
  long presolve_bounds_tightened = 0;
  bool presolve_infeasible = false;  // presolve alone proved infeasibility
  double presolve_seconds = 0.0;
  // Root cutting-plane telemetry (zero when MipOptions::cut_rounds is 0).
  long cuts_added = 0;   // cuts admitted into the root LP
  long cut_rounds = 0;   // separation rounds executed
  // Integer variables fixed (domain collapsed to a point) by reduced-cost
  // fixing across all nodes; zero when MipOptions::rc_fixing is off.
  long rc_fixed = 0;

  /// Relative gap as the paper reports it: |incumbent - bound| over
  /// max(|incumbent|, |bound|, 1e-9) — the max keeps gaps finite and
  /// meaningful when the incumbent objective is ~0 (e.g. all requests
  /// rejected under acceptance); +infinity when no incumbent exists.
  double gap() const;
};

class MipSolver {
 public:
  explicit MipSolver(MipOptions options = {}) : options_(options) {}

  /// Solves `model`. `initial_solution` (by var id) is used as the starting
  /// incumbent if it is feasible; an infeasible warm solution is ignored.
  MipResult solve(const Model& model,
                  const std::optional<std::vector<double>>& initial_solution =
                      std::nullopt);

  /// Checks a full assignment against bounds, integrality and rows.
  static bool is_feasible(const Model& model,
                          const std::vector<double>& values,
                          double tol = 1e-6);

 private:
  /// The branch-and-bound tree itself, on an (optionally presolved) model.
  /// `time_limit_seconds` overrides options_.time_limit_seconds so the
  /// presolve wrapper can charge its own runtime against the budget.
  MipResult solve_tree(const Model& model,
                       const std::optional<std::vector<double>>& initial,
                       double time_limit_seconds);

  MipOptions options_;
};

}  // namespace tvnep::mip
