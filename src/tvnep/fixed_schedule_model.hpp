// Embedding at a known schedule: every request is admitted (x_R = 1) and
// runs over its whole window [t^s, t^e), so the time columns are fixed and
// no event variables exist. What remains is the embedding layer of the
// base class plus one capacity row per resource and *maximal* state — a
// state whose active set is not contained in another state's; every other
// state's row is implied by one of those.
//
// With node mappings fixed this is a splittable multi-commodity flow LP,
// the polynomial case of the embedding problem. Requests without a fixed
// mapping keep their x_V placement binaries, which makes it a small MIP.
// The greedy step (src/greedy) solves one such model per start anchor.
#pragma once

#include "tvnep/formulation.hpp"

namespace tvnep::core {

class FixedScheduleModel : public Formulation {
 public:
  /// `options.fix_all_requests` is forced on; the objective is built as
  /// usual over the fixed times (kGreedyStep then evaluates Eq. 21 at the
  /// given schedule).
  FixedScheduleModel(const net::TvnepInstance& instance, BuildOptions options);
};

}  // namespace tvnep::core
