#include "tvnep/solver.hpp"

#include "support/check.hpp"
#include "tvnep/csigma_model.hpp"
#include "tvnep/delta_model.hpp"
#include "tvnep/sigma_model.hpp"

namespace tvnep::core {

std::unique_ptr<Formulation> build_formulation(
    const net::TvnepInstance& instance, ModelKind kind, BuildOptions options) {
  switch (kind) {
    case ModelKind::kDelta:
      return std::make_unique<DeltaModel>(instance, std::move(options));
    case ModelKind::kSigma:
      return std::make_unique<SigmaModel>(instance, std::move(options));
    case ModelKind::kCSigma:
      return std::make_unique<CSigmaModel>(instance, std::move(options));
  }
  TVNEP_CHECK_MSG(false, "unknown model kind");
  return nullptr;
}

TvnepSolveResult solve(const net::TvnepInstance& instance, ModelKind kind,
                       const SolveParams& params) {
  const std::unique_ptr<Formulation> formulation =
      build_formulation(instance, kind, params.build);
  mip::MipOptions mip_options = params.mip;
  mip_options.time_limit_seconds = params.time_limit_seconds;
  if (params.max_nodes > 0) mip_options.max_nodes = params.max_nodes;
  return solve(*formulation, mip_options);
}

namespace {

/// Runs the MIP solver on `built.model()` and reads the incumbent back
/// through `built.extract`.
template <class Built>
TvnepSolveResult solve_built(const Built& built,
                             const mip::MipOptions& options) {
  mip::MipSolver solver(options);
  const mip::MipResult mip_result = solver.solve(built.model());

  TvnepSolveResult result;
  result.status = mip_result.status;
  result.has_solution = mip_result.has_solution;
  result.objective = mip_result.objective;
  result.best_bound = mip_result.best_bound;
  result.gap = mip_result.gap();
  result.seconds = mip_result.seconds;
  result.nodes = mip_result.nodes;
  result.lp_pivots = mip_result.lp_pivots;
  result.lp_iterations = mip_result.phase1_iterations +
                         mip_result.phase2_iterations +
                         mip_result.dual_iterations;
  result.dual_fallbacks = mip_result.dual_fallbacks;
  result.refactorizations = mip_result.refactorizations;
  result.basis_updates = mip_result.basis_updates;
  result.lp_basis_fill_max = mip_result.lp_basis_fill_max;
  result.lp_recoveries = mip_result.lp_recoveries;
  result.numerical_drops = mip_result.numerical_drops;
  result.cuts_added = mip_result.cuts_added;
  result.cut_rounds = mip_result.cut_rounds;
  result.rc_fixed = mip_result.rc_fixed;
  result.model_vars = built.model().num_vars();
  result.model_constraints = built.model().num_constraints();
  result.model_integer_vars = built.model().num_integer_vars();
  result.presolve_rows_removed = mip_result.presolve_rows_removed;
  result.presolve_cols_removed = mip_result.presolve_cols_removed;
  result.presolve_coeffs_tightened = mip_result.presolve_coeffs_tightened;
  result.presolve_bounds_tightened = mip_result.presolve_bounds_tightened;
  result.presolve_infeasible = mip_result.presolve_infeasible;
  result.presolve_seconds = mip_result.presolve_seconds;
  if (mip_result.has_solution) {
    result.solution = built.extract(mip_result.solution);
    result.accepted_requests = result.solution.num_accepted();
  }
  return result;
}

}  // namespace

TvnepSolveResult solve(const Formulation& formulation,
                       const mip::MipOptions& options) {
  return solve_built(formulation, options);
}

TvnepSolveResult solve(const FixedScheduleModel& model,
                       const mip::MipOptions& options) {
  return solve_built(model, options);
}

}  // namespace tvnep::core
