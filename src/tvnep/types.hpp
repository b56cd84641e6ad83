// Shared enums and option structs for the TVNEP formulations.
#pragma once

#include <optional>
#include <vector>

namespace tvnep::core {

/// Which continuous-time MIP formulation to build (Sections III-IV).
enum class ModelKind {
  kDelta,   // state *changes* at 2|R| events, big-M selection (Sec. III-B)
  kSigma,   // explicit states at 2|R| events (Sec. III-C)
  kCSigma,  // compact model, |R|+1 events + cuts (Sec. IV)
};

const char* to_string(ModelKind kind);

/// Objective functions of Section IV-E plus the greedy's step objective
/// (Section V, Eq. 21).
enum class ObjectiveKind {
  kAccessControl,     // max Σ x_R(R)·d_R·Σ c_R(N_v)
  kMaxEarliness,      // max Σ d_R·(1 - (t+_R - t^s)/(t^e - d - t^s))
  kBalanceNodeLoad,   // max #nodes never loaded above f·capacity
  kDisableLinks,      // max #links with zero allocation over [0, T]
  kGreedyStep,        // max T·x_R(target) + (T - t^-_target)
};

const char* to_string(ObjectiveKind kind);

struct BuildOptions {
  ObjectiveKind objective = ObjectiveKind::kAccessControl;

  /// Temporal dependency graph cuts (Section IV-C): event-range presolve
  /// from Constraint (19) — also drives the state-space reduction — and
  /// the pairwise ordering cuts of Constraint (20).
  bool dependency_cuts = true;
  bool pairwise_cuts = true;

  /// Valid precedence inequalities ensuring a request's end event follows
  /// its start event in the LP relaxation (implied for integral solutions
  /// by constraints (13)-(18); strengthens the relaxation).
  bool precedence_cuts = true;

  /// Load threshold f for kBalanceNodeLoad.
  double load_balance_fraction = 0.5;

  /// Requests whose admission decision is fixed (x_R = 1 / x_R = 0).
  std::vector<int> force_accept;
  std::vector<int> force_reject;

  /// For kGreedyStep: the request being inserted.
  std::optional<int> greedy_target;
};

}  // namespace tvnep::core
