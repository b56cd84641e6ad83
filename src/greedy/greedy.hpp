// Greedy algorithm cΣ_A^G (Section V).
//
// Requests are processed in order of their earliest start t^s. Each
// iteration inserts one request into the schedule of the requests seen so
// far, in which all previous admission decisions and schedules are fixed,
// under the step objective (Eq. 21): max T·x_R(L[i]) + (T - t^-_{L[i]}) —
// embed the new request if at all possible, and then finish it as early
// as possible. Accepted requests have their windows pinned to the
// returned schedule (flexibility collapses to zero); link allocations are
// *not* fixed and are recomputed in every iteration, exactly as the paper
// prescribes.
//
// With every other schedule pinned, only the target's start s is free, and
// the step needs no event variables (the paper calls it polynomial
// "because the event order is almost fixed"). Feasibility at s depends
// only on which pinned states [s, s + d) meets, and that set is constant
// between consecutive *anchors*: t^s, t^e - d, every pinned boundary b and
// every b - d inside the window. At an anchor the set met is a subset of
// the set met just to its right, so the earliest feasible start is an
// anchor. The step walks the anchors in ascending order; each one costs an
// arithmetic node-capacity check and, if that passes, one embedding model
// at the fixed schedule (core::FixedScheduleModel: a multi-commodity flow
// LP when node mappings are fixed). The first feasible anchor is the
// Eq. 21 optimum; the cΣ step MIP (ObjectiveKind::kGreedyStep) remains as
// the test oracle.
#pragma once

#include <vector>

#include "mip/branch_and_bound.hpp"
#include "net/instance.hpp"
#include "tvnep/solver.hpp"

namespace tvnep::greedy {

struct GreedyOptions {
  /// Wall-clock budget per insertion step, shared by all its anchors
  /// (<= 0: unlimited). Steps normally finish far below it.
  double per_iteration_time_limit = 10.0;
  /// Solver options for the per-anchor embedding models.
  mip::MipOptions mip;
};

struct GreedyResult {
  core::TvnepSolution solution;
  int accepted = 0;
  /// True when every insertion step finished (no time limit or cancel).
  bool complete = true;
  std::vector<double> iteration_seconds;
  double total_seconds = 0.0;

  double max_iteration_seconds() const;
};

/// Runs cΣ_A^G on the instance (requests keep their identity/order in the
/// returned solution).
GreedyResult solve_greedy(const net::TvnepInstance& instance,
                          const GreedyOptions& options = {});

/// Outcome of one insertion step (one iteration of the loop above).
struct GreedyStepResult {
  /// Status kOptimal when the step was decided. An accept carries the
  /// joint embedding of every request in `working` (rejected ones
  /// unembedded); a reject carries no solution, because it may be proven
  /// without solving anything. Any other status (time limit, cancel,
  /// numerical failure) leaves the step undecided.
  core::TvnepSolveResult step;
  bool accepted = false;
  /// Target's schedule when accepted: the earliest feasible start under
  /// the step objective (Eq. 21), an exact anchor; end = start + duration.
  double start = 0.0;
  double end = 0.0;
};

/// Solves one cΣ_A^G insertion step on `working` for `target` by anchor
/// enumeration (see the header comment). Every other request must be in
/// `force_accept` (pinned: consumes capacity over [t^s, t^e)) or in
/// `force_reject` (consumes nothing). Shared by the batch loop and the
/// online admission engine (src/serve), so an online insertion is the
/// batch iteration by construction.
GreedyStepResult solve_greedy_step(const net::TvnepInstance& working,
                                   int target,
                                   const std::vector<int>& force_accept,
                                   const std::vector<int>& force_reject,
                                   const GreedyOptions& options);

}  // namespace tvnep::greedy
