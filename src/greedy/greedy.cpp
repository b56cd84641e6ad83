#include "greedy/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"
#include "tvnep/fixed_schedule_model.hpp"
#include "tvnep/solver.hpp"

namespace tvnep::greedy {

namespace {

constexpr double kCapacityTol = 1e-9;
constexpr double kPinnedTol = 1e-6;

/// The start that ends a duration-d run at b: fl(b - d), stepped down
/// while a + d > b in floating point. Without the step a start there could
/// end an ulp past b and overlap a request that starts at b.
double end_at(double b, double d) {
  double a = b - d;
  while (a + d > b)
    a = std::nextafter(a, -std::numeric_limits<double>::infinity());
  return a;
}

/// Node usage of the pinned requests over the elementary intervals
/// [p_k, p_{k+1}) their schedules cut time into.
class PinnedStates {
 public:
  PinnedStates(const net::TvnepInstance& working,
               const std::vector<int>& pinned) {
    for (const int r : pinned) {
      points_.push_back(working.request(r).earliest_start());
      points_.push_back(working.request(r).latest_end());
    }
    std::sort(points_.begin(), points_.end());
    points_.erase(std::unique(points_.begin(), points_.end()), points_.end());
    const int num_nodes = working.substrate().num_nodes();
    const std::size_t intervals = points_.empty() ? 0 : points_.size() - 1;
    node_usage_.assign(intervals,
                       std::vector<double>(static_cast<std::size_t>(num_nodes)));
    for (const int r : pinned) {
      if (!working.has_fixed_mapping(r)) continue;  // placement still open
      const net::VnetRequest& req = working.request(r);
      for (std::size_t k = 0; k < intervals; ++k) {
        if (points_[k] < req.earliest_start() ||
            points_[k] >= req.latest_end())
          continue;
        for (int nv = 0; nv < req.num_nodes(); ++nv)
          node_usage_[k][static_cast<std::size_t>(
              working.fixed_mapping(r)[static_cast<std::size_t>(nv)])] +=
              req.node_demand(nv);
      }
    }
  }

  const std::vector<double>& boundaries() const { return points_; }

  /// Whether `demand` (per substrate node) fits on its own and on top of
  /// the pinned usage of every interval [start, end) meets, i.e. every k
  /// with p_k < end and start < p_{k+1}.
  bool nodes_fit(const net::SubstrateNetwork& substrate,
                 const std::vector<double>& demand, double start,
                 double end) const {
    const auto first = std::upper_bound(points_.begin(), points_.end(), start);
    const auto last = std::lower_bound(points_.begin(), points_.end(), end);
    const int lo = std::max(0, static_cast<int>(first - points_.begin()) - 1);
    const int hi = std::min(static_cast<int>(node_usage_.size()),
                            static_cast<int>(last - points_.begin()));
    for (int ns = 0; ns < substrate.num_nodes(); ++ns) {
      const double extra = demand[static_cast<std::size_t>(ns)];
      if (extra <= 0.0) continue;
      const double cap = substrate.node_capacity(ns) *
                         (1.0 + kCapacityTol);
      if (extra > cap) return false;
      for (int k = lo; k < hi; ++k)
        if (node_usage_[static_cast<std::size_t>(k)]
                       [static_cast<std::size_t>(ns)] + extra > cap)
          return false;
    }
    return true;
  }

 private:
  std::vector<double> points_;
  std::vector<std::vector<double>> node_usage_;  // [interval][node]
};

}  // namespace

double GreedyResult::max_iteration_seconds() const {
  double worst = 0.0;
  for (double s : iteration_seconds) worst = std::max(worst, s);
  return worst;
}

GreedyStepResult solve_greedy_step(const net::TvnepInstance& working,
                                   int target,
                                   const std::vector<int>& force_accept,
                                   const std::vector<int>& force_reject,
                                   const GreedyOptions& options) {
  Stopwatch watch;
  const int num_r = working.num_requests();
  TVNEP_REQUIRE(target >= 0 && target < num_r, "bad greedy target");
  std::vector<char> role(static_cast<std::size_t>(num_r), 0);
  const auto mark = [&](const std::vector<int>& requests, char kind) {
    for (const int r : requests) {
      TVNEP_REQUIRE(r >= 0 && r < num_r, "greedy step: bad request index");
      role[static_cast<std::size_t>(r)] = kind;
    }
  };
  mark(force_accept, 'a');
  mark(force_reject, 'r');
  for (int r = 0; r < num_r; ++r) {
    if (r == target) continue;
    const char kind = role[static_cast<std::size_t>(r)];
    TVNEP_REQUIRE(kind != 0, "greedy step: every non-target request must be "
                             "force-accepted or force-rejected");
    TVNEP_REQUIRE(kind == 'r' ||
                      std::abs(working.request(r).flexibility()) <= kPinnedTol,
                  "greedy step: a force-accepted request must be pinned");
  }
  TVNEP_REQUIRE(role[static_cast<std::size_t>(target)] == 0,
                "greedy step: the target cannot have a fixed admission");

  // The embedding instance: the pinned requests in `working` order, then
  // the target, whose window is set to each candidate schedule in turn.
  std::vector<int> pinned;
  net::TvnepInstance fixed(working.substrate(), working.horizon());
  for (int r = 0; r < num_r; ++r) {
    if (role[static_cast<std::size_t>(r)] != 'a') continue;
    pinned.push_back(r);
    if (working.has_fixed_mapping(r))
      fixed.add_request(working.request(r), working.fixed_mapping(r));
    else
      fixed.add_request(working.request(r));
  }
  const net::VnetRequest& req = working.request(target);
  const int fixed_target =
      working.has_fixed_mapping(target)
          ? fixed.add_request(req, working.fixed_mapping(target))
          : fixed.add_request(req);

  const double t_s = req.earliest_start();
  const double d = req.duration();
  const double latest = std::max(t_s, req.latest_start());
  std::vector<double> anchors{t_s, std::max(t_s, end_at(req.latest_end(), d))};
  const PinnedStates states(working, pinned);
  for (const double b : states.boundaries())
    for (const double a : {b, end_at(b, d)})
      if (a >= t_s && a <= latest) anchors.push_back(a);
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());

  std::vector<double> demand(
      static_cast<std::size_t>(working.substrate().num_nodes()), 0.0);
  if (working.has_fixed_mapping(target))
    for (int nv = 0; nv < req.num_nodes(); ++nv)
      demand[static_cast<std::size_t>(
          working.fixed_mapping(target)[static_cast<std::size_t>(nv)])] +=
          req.node_demand(nv);

  GreedyStepResult result;
  result.step.status = mip::MipStatus::kOptimal;
  int evaluated = 0;
  int node_pruned = 0;
  for (const double s : anchors) {
    ++evaluated;
    if (!states.nodes_fit(working.substrate(), demand, s, s + d)) {
      ++node_pruned;
      continue;
    }

    mip::MipOptions mip = options.mip;
    if (options.per_iteration_time_limit > 0.0) {
      mip.time_limit_seconds =
          options.per_iteration_time_limit - watch.seconds();
      if (mip.time_limit_seconds <= 0.0) {
        result.step.status = mip::MipStatus::kTimeLimit;
        break;
      }
    }
    if (mip.cancel != nullptr && mip.cancel->load(std::memory_order_relaxed)) {
      result.step.status = mip::MipStatus::kTimeLimit;
      break;
    }
    fixed.mutable_request(fixed_target).set_temporal(s, s + d, d);
    const core::FixedScheduleModel model(fixed);
    // With every mapping fixed the model is a pure flow LP; presolve
    // almost never removes a row from it and costs more than it saves.
    if (model.model().num_integer_vars() == 0) mip.presolve = false;
    core::TvnepSolveResult solved = core::solve(model, mip);
    if (!solved.has_solution) {
      if (solved.status == mip::MipStatus::kInfeasible) continue;
      result.step.status = solved.status;  // time limit, cancel, numerics
      break;
    }

    // Any solution proves the anchor feasible, and the earlier anchors are
    // proven infeasible: the step is decided. Spread the joint embedding
    // back over `working`.
    solved.status = mip::MipStatus::kOptimal;
    std::vector<core::RequestEmbedding> embedded =
        std::move(solved.solution.requests);
    solved.solution.requests.assign(static_cast<std::size_t>(num_r), {});
    for (int r = 0; r < num_r; ++r) {
      auto& emb = solved.solution.requests[static_cast<std::size_t>(r)];
      emb.start = working.request(r).earliest_start();
      emb.end = emb.start + working.request(r).duration();
    }
    for (std::size_t i = 0; i < pinned.size(); ++i)
      solved.solution.requests[static_cast<std::size_t>(pinned[i])] =
          std::move(embedded[i]);
    auto& emb = solved.solution.requests[static_cast<std::size_t>(target)];
    emb = std::move(embedded[static_cast<std::size_t>(fixed_target)]);
    emb.start = s;
    emb.end = s + d;
    result.step = std::move(solved);
    result.accepted = true;
    result.start = s;
    result.end = s + d;
    break;
  }
  obs::histogram_observe("greedy.step.anchors", static_cast<double>(evaluated));
  obs::counter_add("greedy.step.node_pruned", static_cast<double>(node_pruned));
  return result;
}

GreedyResult solve_greedy(const net::TvnepInstance& instance,
                          const GreedyOptions& options) {
  Stopwatch watch;
  GreedyResult result;
  const int num_r = instance.num_requests();

  // L ← R ordered by earliest start t^s.
  std::vector<int> order(static_cast<std::size_t>(num_r));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return instance.request(a).earliest_start() <
           instance.request(b).earliest_start();
  });

  // Working copy: windows of decided requests get pinned as we go.
  // The sub-instance of iteration i holds order[0..i] in processing order.
  net::TvnepInstance working(instance.substrate(), instance.horizon());
  std::vector<int> sub_to_original;  // sub index → original request index

  std::vector<int> accepted_subs, rejected_subs;
  core::TvnepSolution last_good;       // covers sub_to_original.size() - ? requests
  std::vector<int> last_good_mapping;  // sub→original for last_good

  for (std::size_t i = 0; i < order.size(); ++i) {
    // Honor the soft-cancel seam between iterations too: a watchdog-fired
    // flag would otherwise keep launching steps that each return
    // kTimeLimit immediately, one per remaining request.
    if (options.mip.cancel != nullptr &&
        options.mip.cancel->load(std::memory_order_relaxed)) {
      result.complete = false;
      break;
    }
    const int original = order[i];
    const auto& req = instance.request(original);
    if (instance.has_fixed_mapping(original))
      working.add_request(req, instance.fixed_mapping(original));
    else
      working.add_request(req);
    sub_to_original.push_back(original);
    const int target = static_cast<int>(i);

    Stopwatch iteration_watch;
    const GreedyStepResult step = solve_greedy_step(
        working, target, accepted_subs, rejected_subs, options);
    result.iteration_seconds.push_back(iteration_watch.seconds());

    const bool accepted = step.accepted;
    if (step.step.has_solution) {
      if (accepted) {
        // Pin the schedule: the request must run at exactly these times in
        // all later iterations (its flexibility collapses).
        working.mutable_request(target).set_temporal(step.start, step.end,
                                                     req.duration());
        accepted_subs.push_back(target);
      }
      last_good = step.step.solution;
      last_good_mapping = sub_to_original;
    }
    if (!accepted) {
      // Rejected requests still receive fixed times (Definition 2.1):
      // t^+ = t^s, t^- = t^s + d.
      working.mutable_request(target).set_temporal(
          req.earliest_start(), req.earliest_start() + req.duration(),
          req.duration());
      rejected_subs.push_back(target);
    }
    if (step.step.status != mip::MipStatus::kOptimal) result.complete = false;
  }

  // Assemble the final solution in original request order from the last
  // successful step (it re-embeds every accepted request consistently).
  result.solution.requests.resize(static_cast<std::size_t>(num_r));
  for (int r = 0; r < num_r; ++r) {
    auto& emb = result.solution.requests[static_cast<std::size_t>(r)];
    emb.accepted = false;
    emb.start = instance.request(r).earliest_start();
    emb.end = emb.start + instance.request(r).duration();
  }
  for (std::size_t sub = 0; sub < last_good_mapping.size(); ++sub) {
    const int original = last_good_mapping[sub];
    result.solution.requests[static_cast<std::size_t>(original)] =
        last_good.requests[sub];
  }
  result.accepted = result.solution.num_accepted();
  result.solution.objective = result.solution.revenue(instance);
  result.total_seconds = watch.seconds();
  return result;
}

}  // namespace tvnep::greedy
