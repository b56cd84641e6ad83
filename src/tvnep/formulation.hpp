// Base class shared by the Δ-, Σ- and cΣ-Model formulations.
//
// Owns the embedding layer common to all models (Tables III-V):
//   x_R : R → B              admission decision
//   x_V : V_R × V_S → B      node mapping (or a-priori fixed; then x_V is
//                            the constant indicator scaled by x_R)
//   x_E : E_R × E_S → [0,1]  splittable unit flows per virtual link
// with Constraint (1) (node mapping ⇔ admission) and Constraint (2)
// (flow conservation), plus the alloc_V / alloc_E macros (Table V).
//
// Also implements the objective functions of Section IV-E and the greedy
// step objective (Eq. 21); the per-state resource usage expressions needed
// by the load-balancing objective are populated by subclasses.
#pragma once

#include <memory>
#include <vector>

#include "mip/model.hpp"
#include "net/instance.hpp"
#include "tvnep/solution.hpp"
#include "tvnep/types.hpp"

namespace tvnep::core {

class Formulation {
 public:
  virtual ~Formulation() = default;

  Formulation(const Formulation&) = delete;
  Formulation& operator=(const Formulation&) = delete;

  const net::TvnepInstance& instance() const { return *instance_; }
  const BuildOptions& options() const { return options_; }
  const mip::Model& model() const { return model_; }
  mip::Model& mutable_model() { return model_; }

  /// x_R as an expression: the admission variable, or the constant the
  /// build options fixed it to.
  mip::LinExpr x_request_expr(int r) const;

  /// The admission variable for request r; invalid Var if x_R is fixed.
  mip::Var x_request_var(int r) const;

  mip::Var x_edge_var(int r, int lv, int ls) const;
  mip::Var t_start_var(int r) const;
  mip::Var t_end_var(int r) const;

  /// Reads a full MIP assignment back into a TvnepSolution.
  TvnepSolution extract(const std::vector<double>& values) const;

 protected:
  Formulation(const net::TvnepInstance& instance, BuildOptions options);

  /// Creates x_R / x_V / x_E and constraints (1)-(2).
  void build_embedding();

  /// x_V(nv → ns) as an expression: a binary when placement is free, or
  /// x_R(r) * [fixed mapping == ns] when fixed a priori.
  mip::LinExpr node_mapping_expr(int r, int nv, int ns) const;

  /// alloc_V(R, N_s) / alloc_E(R, L_s) of Table V as expressions.
  mip::LinExpr alloc_node(int r, int ns) const;
  mip::LinExpr alloc_link(int r, int ls) const;
  /// Uniform resource view (resource < |V_S| → node, else link).
  mip::LinExpr alloc_resource(int r, int rsc) const;

  /// A finite upper bound on alloc_resource(r, rsc) over all assignments;
  /// used to size big-M coefficients safely (the paper assumes
  /// alloc <= c_S(r); demands here may exceed that, so we take the max).
  double alloc_upper_bound(int r, int rsc) const;

  /// Subclasses register their t^+/t^- variables before apply_objective().
  void set_time_vars(std::vector<mip::Var> t_start, std::vector<mip::Var> t_end);

  /// Per-state per-resource total usage, filled by subclasses while they
  /// build their state representation; indexed [state][resource].
  std::vector<std::vector<mip::LinExpr>>& state_usage() { return state_usage_; }

  /// Builds the objective selected in the options. Must run after the
  /// embedding, time variables and state usage are in place.
  void apply_objective();

  bool admission_fixed(int r, double* value = nullptr) const;

 private:
  const net::TvnepInstance* instance_;
  BuildOptions options_;
  // x_R = 1 for every request: the fixed-set objectives 2-4.
  bool all_admitted_ = false;
  mip::Model model_;

  std::vector<mip::Var> x_request_;            // invalid when fixed
  std::vector<double> x_request_fixed_value_;  // meaningful when fixed
  std::vector<char> x_request_is_fixed_;
  // x_V binaries: [r][nv * num_substrate_nodes + ns]; empty when fixed.
  std::vector<std::vector<mip::Var>> x_node_;
  // x_E: [r][lv * num_links + ls].
  std::vector<std::vector<mip::Var>> x_edge_;
  std::vector<mip::Var> t_start_;
  std::vector<mip::Var> t_end_;
  std::vector<std::vector<mip::LinExpr>> state_usage_;
};

}  // namespace tvnep::core
