// Embedding at a known schedule: every request is admitted and runs over
// its whole window [t^s, t^e), so no time or event variables exist. With
// the schedule fixed the greedy step objective (Eq. 21) is a constant, so
// the model is a pure feasibility problem with a zero objective.
//
// Flows travel as aggregated commodities (tvnep/commodity): the links of a
// request that share an endpoint are one flow in bandwidth units, with one
// column per substrate link and one conservation row per substrate node.
// Capacity rows sum those columns, one row per resource and *maximal*
// state — a state whose active set is not contained in another state's;
// every other state's row is implied by one of those. extract() splits
// each commodity back into per-link unit flows by flow decomposition.
//
// With node mappings fixed this is a splittable multi-commodity flow LP,
// the polynomial case of the embedding problem. Requests without a fixed
// mapping get x_V placement binaries, which enter the conservation
// right-hand sides linearly (exact for integral x_V) and make it a small
// MIP. The greedy step (src/greedy) solves one such model per start anchor.
#pragma once

#include <vector>

#include "mip/model.hpp"
#include "net/instance.hpp"
#include "tvnep/commodity.hpp"
#include "tvnep/solution.hpp"

namespace tvnep::core {

class FixedScheduleModel {
 public:
  /// `instance` must outlive the model.
  explicit FixedScheduleModel(const net::TvnepInstance& instance);

  const mip::Model& model() const { return model_; }

  /// Request r's commodities, in the order of their column blocks.
  const std::vector<Commodity>& commodities(int r) const;

  /// Flow column of request r's commodity k on substrate link ls.
  mip::Var flow_var(int r, int k, int ls) const;

  /// Reads an assignment back: every request accepted over its window,
  /// node mappings fixed or read from x_V, and per-link unit flows by
  /// decomposing each commodity.
  TvnepSolution extract(const std::vector<double>& values) const;

 private:
  const net::TvnepInstance* instance_;
  mip::Model model_;
  std::vector<std::vector<Commodity>> commodities_;
  std::vector<int> first_flow_;  // per request: its first flow column
  std::vector<int> first_node_;  // per request: first x_V column, or -1
};

}  // namespace tvnep::core
