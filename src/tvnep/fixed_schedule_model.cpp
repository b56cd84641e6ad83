#include "tvnep/fixed_schedule_model.hpp"

#include <algorithm>
#include <string>

namespace tvnep::core {

namespace {

BuildOptions all_admitted(BuildOptions options) {
  options.fix_all_requests = true;
  return options;
}

}  // namespace

FixedScheduleModel::FixedScheduleModel(const net::TvnepInstance& instance,
                                       BuildOptions options)
    : Formulation(instance, all_admitted(std::move(options))) {
  build_embedding();

  const int num_r = instance.num_requests();
  std::vector<mip::Var> t_start, t_end;
  std::vector<double> points;
  for (int r = 0; r < num_r; ++r) {
    const auto& req = instance.request(r);
    t_start.push_back(mutable_model().add_continuous(
        req.earliest_start(), req.earliest_start(), "t+[" + req.name() + "]"));
    t_end.push_back(mutable_model().add_continuous(
        req.latest_end(), req.latest_end(), "t-[" + req.name() + "]"));
    points.push_back(req.earliest_start());
    points.push_back(req.latest_end());
  }
  set_time_vars(std::move(t_start), std::move(t_end));

  // Active set of every elementary interval [p_k, p_{k+1}) between
  // consecutive boundaries; requests are listed in ascending order.
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::vector<std::vector<int>> states;
  for (std::size_t k = 0; k + 1 < points.size(); ++k) {
    std::vector<int> active;
    for (int r = 0; r < num_r; ++r) {
      const auto& req = instance.request(r);
      if (req.earliest_start() <= points[k] && points[k] < req.latest_end())
        active.push_back(r);
    }
    if (!active.empty()) states.push_back(std::move(active));
  }
  // Drop every state contained in another one (of two equal states, the
  // later): usage is nonnegative, so the container's rows imply its rows.
  std::vector<char> maximal(states.size(), 1);
  for (std::size_t i = 0; i < states.size(); ++i)
    for (std::size_t j = 0; j < states.size() && maximal[i]; ++j) {
      if (j == i || states[j].size() < states[i].size()) continue;
      const bool contains = std::includes(states[j].begin(), states[j].end(),
                                          states[i].begin(), states[i].end());
      if (contains && (states[j].size() > states[i].size() || j < i))
        maximal[i] = 0;
    }

  const auto& substrate = instance.substrate();
  for (std::size_t s = 0; s < states.size(); ++s) {
    if (!maximal[s]) continue;
    for (int rsc = 0; rsc < substrate.num_resources(); ++rsc) {
      mip::LinExpr usage;
      bool any = false;
      for (const int r : states[s]) {
        if (alloc_upper_bound(r, rsc) <= 0.0) continue;
        usage += alloc_resource(r, rsc);
        any = true;
      }
      const double cap = substrate.resource_capacity(rsc);
      // A row without variables (node usage of mapped requests) only
      // matters when it is violated.
      if (!any || (usage.terms().empty() && usage.constant() <= cap)) continue;
      mutable_model().add_constr(
          usage <= cap, "cap[" + std::to_string(s) + "," +
                            std::to_string(rsc) + "]");
    }
  }
  apply_objective();
}

}  // namespace tvnep::core
