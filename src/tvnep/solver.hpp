// High-level entry point: build a formulation, hand it to the MIP solver,
// validate and return the schedule. This is the API the examples, benches
// and the greedy algorithm drive.
#pragma once

#include <memory>

#include "mip/branch_and_bound.hpp"
#include "tvnep/fixed_schedule_model.hpp"
#include "tvnep/formulation.hpp"
#include "tvnep/types.hpp"

namespace tvnep::core {

struct SolveParams {
  BuildOptions build;
  double time_limit_seconds = 60.0;
  long max_nodes = 0;
  mip::MipOptions mip;  // fine-grained solver control (gap, lp options)
};

struct TvnepSolveResult {
  mip::MipStatus status = mip::MipStatus::kNumericalFailure;
  bool has_solution = false;
  TvnepSolution solution;
  /// Accepted-request count of `solution` (0 when no solution) as a flat
  /// field: sweep checkpoints journal it and figure 8 plots it without
  /// needing the full solution object reconstituted on resume.
  int accepted_requests = 0;
  double objective = 0.0;
  double best_bound = 0.0;
  double gap = 0.0;  // +inf when no incumbent (paper's "∞" marker)
  double seconds = 0.0;
  long nodes = 0;
  // Solver-effort telemetry (exported per sweep cell by src/eval so the
  // bench trajectories can track throughput, not just wall clock).
  long lp_pivots = 0;
  long lp_iterations = 0;   // primal phase 1 + phase 2 + dual, summed
  long dual_fallbacks = 0;  // warm dual solves that hit their iteration guard
  long refactorizations = 0;  // basis refactorizations across node LPs
  long basis_updates = 0;   // incremental basis updates across node LPs
  double lp_basis_fill_max = 0.0;  // worst factorization fill ratio seen
  long lp_recoveries = 0;   // recovery-ladder rungs taken across node LPs
  long numerical_drops = 0;  // subtrees dropped after recovery + requeue
  long cuts_added = 0;      // root cuts admitted into the LP
  long cut_rounds = 0;      // root separation rounds executed
  long rc_fixed = 0;        // integer vars fixed by reduced-cost fixing
  int model_vars = 0;
  int model_constraints = 0;
  int model_integer_vars = 0;
  // Presolve telemetry (all zero when presolve is disabled).
  long presolve_rows_removed = 0;
  long presolve_cols_removed = 0;
  long presolve_coeffs_tightened = 0;
  long presolve_bounds_tightened = 0;
  bool presolve_infeasible = false;  // presolve alone proved infeasibility
  double presolve_seconds = 0.0;
};

/// Builds the requested formulation.
std::unique_ptr<Formulation> build_formulation(
    const net::TvnepInstance& instance, ModelKind kind, BuildOptions options);

/// Builds and solves; the returned solution (when any) has been extracted
/// from the best incumbent.
TvnepSolveResult solve(const net::TvnepInstance& instance, ModelKind kind,
                       const SolveParams& params);

/// Solves an already built model with the given solver options.
TvnepSolveResult solve(const Formulation& formulation,
                       const mip::MipOptions& options);
TvnepSolveResult solve(const FixedScheduleModel& model,
                       const mip::MipOptions& options);

}  // namespace tvnep::core
