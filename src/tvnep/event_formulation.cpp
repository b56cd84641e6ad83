#include "tvnep/event_formulation.hpp"

#include <algorithm>
#include <string>

#include "support/check.hpp"

namespace tvnep::core {

EventFormulation::EventFormulation(const net::TvnepInstance& instance,
                                   BuildOptions options, EventScheme scheme)
    : Formulation(instance, std::move(options)),
      scheme_(scheme),
      dep_(instance),
      num_events_(scheme == EventScheme::kCompact
                      ? instance.num_requests() + 1
                      : 2 * instance.num_requests()) {}

EventRange EventFormulation::start_range(int r) const {
  return start_range_[static_cast<std::size_t>(r)];
}

EventRange EventFormulation::end_range(int r) const {
  return end_range_[static_cast<std::size_t>(r)];
}

mip::Var EventFormulation::chi_start(int r, int event) const {
  const EventRange range = start_range(r);
  TVNEP_REQUIRE(event >= range.min && event <= range.max,
                "chi_start outside allowed range");
  return chi_start_[static_cast<std::size_t>(r)]
                   [static_cast<std::size_t>(event - 1)];
}

mip::Var EventFormulation::chi_end(int r, int event) const {
  const EventRange range = end_range(r);
  TVNEP_REQUIRE(event >= range.min && event <= range.max,
                "chi_end outside allowed range");
  return chi_end_[static_cast<std::size_t>(r)]
                 [static_cast<std::size_t>(event - 1)];
}

mip::Var EventFormulation::event_time(int event) const {
  TVNEP_REQUIRE(event >= 1 && event <= num_events_, "event out of range");
  return event_time_[static_cast<std::size_t>(event - 1)];
}

void EventFormulation::build_events() {
  const auto& inst = instance();
  const int num_r = inst.num_requests();
  const bool cuts = options().dependency_cuts;

  start_range_.resize(static_cast<std::size_t>(num_r));
  end_range_.resize(static_cast<std::size_t>(num_r));
  chi_start_.assign(static_cast<std::size_t>(num_r), {});
  chi_end_.assign(static_cast<std::size_t>(num_r), {});

  for (int r = 0; r < num_r; ++r) {
    EventRange sr, er;
    if (scheme_ == EventScheme::kCompact) {
      sr = csigma_start_range(dep_, r, cuts);
      er = csigma_end_range(dep_, r, cuts);
    } else {
      sr = sigma_range(dep_, DependencyGraph::start_node(r), cuts);
      er = sigma_range(dep_, DependencyGraph::end_node(r), cuts);
    }
    TVNEP_CHECK_MSG(!sr.empty() && !er.empty(),
                    "dependency presolve produced an empty event range");
    start_range_[static_cast<std::size_t>(r)] = sr;
    end_range_[static_cast<std::size_t>(r)] = er;

    auto& cs = chi_start_[static_cast<std::size_t>(r)];
    auto& ce = chi_end_[static_cast<std::size_t>(r)];
    cs.assign(static_cast<std::size_t>(num_events_), mip::Var{});
    ce.assign(static_cast<std::size_t>(num_events_), mip::Var{});
    const std::string& name = inst.request(r).name();

    mip::LinExpr start_sum, end_sum;
    for (int i = sr.min; i <= sr.max; ++i) {
      const mip::Var v = mutable_model().add_binary(
          "chi+[" + name + "," + std::to_string(i) + "]");
      mutable_model().set_branch_priority(v, 2);  // starts before ends
      cs[static_cast<std::size_t>(i - 1)] = v;
      start_sum += v;
    }
    for (int i = er.min; i <= er.max; ++i) {
      const mip::Var v = mutable_model().add_binary(
          "chi-[" + name + "," + std::to_string(i) + "]");
      mutable_model().set_branch_priority(v, 1);
      ce[static_cast<std::size_t>(i - 1)] = v;
      end_sum += v;
    }
    // Constraint (10)/(11) resp. Table VII: exactly one start / end event.
    mutable_model().add_constr(start_sum == 1.0, "one-start[" + name + "]");
    mutable_model().add_constr(end_sum == 1.0, "one-end[" + name + "]");
  }

  // Per-event occupancy.
  if (scheme_ == EventScheme::kCompact) {
    // Constraint (12): each of e_1..e_|R| carries exactly one start; the
    // ends share events freely.
    for (int i = 1; i <= num_r; ++i) {
      mip::LinExpr occupancy;
      bool any = false;
      for (int r = 0; r < num_r; ++r) {
        const EventRange sr = start_range(r);
        if (i < sr.min || i > sr.max) continue;
        occupancy += chi_start(r, i);
        any = true;
      }
      TVNEP_CHECK_MSG(any, "event without any admissible start");
      mutable_model().add_constr(occupancy == 1.0,
                                 "event-start[" + std::to_string(i) + "]");
    }
  } else {
    // Table VII: every event carries exactly one start-or-end.
    for (int i = 1; i <= num_events_; ++i) {
      mip::LinExpr occupancy;
      bool any = false;
      for (int r = 0; r < num_r; ++r) {
        const EventRange sr = start_range(r);
        const EventRange er = end_range(r);
        if (i >= sr.min && i <= sr.max) {
          occupancy += chi_start(r, i);
          any = true;
        }
        if (i >= er.min && i <= er.max) {
          occupancy += chi_end(r, i);
          any = true;
        }
      }
      TVNEP_CHECK_MSG(any, "event without any admissible mapping");
      mutable_model().add_constr(occupancy == 1.0,
                                 "event-occ[" + std::to_string(i) + "]");
    }
  }
}

mip::LinExpr EventFormulation::started_by(int r, int event) const {
  const EventRange range = start_range(r);
  if (event >= range.max) return mip::LinExpr(1.0);
  if (event < range.min) return mip::LinExpr(0.0);
  mip::LinExpr prefix;
  for (int j = range.min; j <= event; ++j) prefix += chi_start(r, j);
  return prefix;
}

mip::LinExpr EventFormulation::ended_by(int r, int event) const {
  const EventRange range = end_range(r);
  if (event >= range.max) return mip::LinExpr(1.0);
  if (event < range.min) return mip::LinExpr(0.0);
  mip::LinExpr prefix;
  for (int j = range.min; j <= event; ++j) prefix += chi_end(r, j);
  return prefix;
}

bool EventFormulation::surely_started_by(int r, int event) const {
  return event >= start_range(r).max;
}
bool EventFormulation::surely_not_started_by(int r, int event) const {
  return event < start_range(r).min;
}
bool EventFormulation::surely_ended_by(int r, int event) const {
  return event >= end_range(r).max;
}
bool EventFormulation::surely_not_ended_by(int r, int event) const {
  return event < end_range(r).min;
}

void EventFormulation::build_temporal() {
  const auto& inst = instance();
  const int num_r = inst.num_requests();
  const double horizon = inst.horizon();

  event_time_.clear();
  for (int i = 1; i <= num_events_; ++i)
    event_time_.push_back(mutable_model().add_continuous(
        0.0, horizon, "t_e[" + std::to_string(i) + "]"));
  // Constraint (13): weak monotonic order of event times.
  for (int i = 1; i < num_events_; ++i)
    mutable_model().add_constr(
        mip::LinExpr(event_time(i)) <= mip::LinExpr(event_time(i + 1)),
        "order[" + std::to_string(i) + "]");

  std::vector<mip::Var> t_start, t_end;
  for (int r = 0; r < num_r; ++r) {
    const auto& req = inst.request(r);
    // Window bounds double as Definition 2.1 condition 2. The max/min
    // clamps absorb floating-point noise when the window is exactly as
    // long as the duration (t^e - d may round below t^s).
    t_start.push_back(mutable_model().add_continuous(
        req.earliest_start(),
        std::max(req.earliest_start(), req.latest_start()),
        "t+[" + req.name() + "]"));
    t_end.push_back(mutable_model().add_continuous(
        std::min(req.earliest_start() + req.duration(), req.latest_end()),
        req.latest_end(), "t-[" + req.name() + "]"));
    // Constraint (18): embedded exactly for the duration.
    mutable_model().add_constr(
        mip::LinExpr(t_end.back()) - mip::LinExpr(t_start.back()) ==
            req.duration(),
        "duration[" + req.name() + "]");
  }

  const double big_m = horizon;
  for (int r = 0; r < num_r; ++r) {
    const auto& req = inst.request(r);
    const EventRange sr = start_range(r);
    const EventRange er = end_range(r);

    // Constraints (14)/(15): pin t+_R to the time of its start event.
    for (int i = sr.min; i <= sr.max; ++i) {
      const mip::LinExpr prefix = started_by(r, i);       // Σ_{j<=i} χ+
      mip::LinExpr suffix = mip::LinExpr(1.0) - started_by(r, i - 1);
      {
        mip::LinExpr rhs = mip::LinExpr(event_time(i));
        rhs += big_m * (mip::LinExpr(1.0) - prefix);
        mutable_model().add_constr(mip::LinExpr(t_start[static_cast<std::size_t>(r)]) <= rhs,
                                   "t+ub[" + req.name() + "," + std::to_string(i) + "]");
      }
      {
        mip::LinExpr rhs = mip::LinExpr(event_time(i));
        rhs -= big_m * (mip::LinExpr(1.0) - suffix);
        mutable_model().add_constr(mip::LinExpr(t_start[static_cast<std::size_t>(r)]) >= rhs,
                                   "t+lb[" + req.name() + "," + std::to_string(i) + "]");
      }
    }

    // Constraints (16)/(17): link t-_R to its end event. In the compact
    // scheme the end lies within (t_{e_{i-1}}, t_{e_i}]; in the
    // two-per-request scheme it coincides with t_{e_i}.
    for (int i = er.min; i <= er.max; ++i) {
      const mip::LinExpr prefix = ended_by(r, i);
      mip::LinExpr suffix = mip::LinExpr(1.0) - ended_by(r, i - 1);
      {
        mip::LinExpr rhs = mip::LinExpr(event_time(i));
        rhs += big_m * (mip::LinExpr(1.0) - prefix);
        mutable_model().add_constr(mip::LinExpr(t_end[static_cast<std::size_t>(r)]) <= rhs,
                                   "t-ub[" + req.name() + "," + std::to_string(i) + "]");
      }
      {
        const int anchor =
            scheme_ == EventScheme::kCompact ? i - 1 : i;  // (17) vs Σ-form
        if (anchor >= 1) {
          mip::LinExpr rhs = mip::LinExpr(event_time(anchor));
          rhs -= big_m * (mip::LinExpr(1.0) - suffix);
          mutable_model().add_constr(mip::LinExpr(t_end[static_cast<std::size_t>(r)]) >= rhs,
                                     "t-lb[" + req.name() + "," + std::to_string(i) + "]");
        }
      }
    }
  }
  set_time_vars(std::move(t_start), std::move(t_end));
}

void EventFormulation::build_precedence_cuts() {
  if (!options().precedence_cuts) return;
  const int num_r = instance().num_requests();
  for (int r = 0; r < num_r; ++r) {
    const EventRange er = end_range(r);
    for (int i = er.min; i <= er.max; ++i) {
      // A request can only have ended by e_i if it started by e_{i-1}.
      if (surely_started_by(r, i - 1)) continue;  // RHS constant 1
      const mip::LinExpr lhs = ended_by(r, i);
      const mip::LinExpr rhs = started_by(r, i - 1);
      mutable_model().add_constr(lhs <= rhs,
                                 "prec[" + instance().request(r).name() + "," +
                                     std::to_string(i) + "]");
    }
  }
}

void EventFormulation::build_pairwise_cuts() {
  if (!options().dependency_cuts || !options().pairwise_cuts) return;
  const int n = dep_.num_nodes();

  auto prefix_of = [&](int dep_node, int event) {
    const DepNode node = dep_.node(dep_node);
    return node.is_start ? started_by(node.request, event)
                         : ended_by(node.request, event);
  };
  auto is_const = [](const mip::LinExpr& e, double value) {
    return e.merged_terms().empty() && std::abs(e.constant() - value) < 1e-12;
  };

  for (int v = 0; v < n; ++v) {
    for (int w = 0; w < n; ++w) {
      if (v == w) continue;
      const int d = scheme_ == EventScheme::kCompact
                        ? dep_.dist_start_weighted(v, w)
                        : dep_.dist_unit(v, w);
      if (d <= 0) continue;
      // Constraint (20): if w is mapped by event e_i then v must be mapped
      // by event e_{i-d}.
      for (int i = d + 1; i <= num_events_; ++i) {
        const mip::LinExpr lhs = prefix_of(w, i);
        const mip::LinExpr rhs = prefix_of(v, i - d);
        if (is_const(lhs, 0.0) || is_const(rhs, 1.0)) continue;
        TVNEP_CHECK_MSG(!(is_const(lhs, 1.0) && is_const(rhs, 0.0)),
                        "contradictory dependency ranges");
        mutable_model().add_constr(lhs <= rhs,
                                   "depcut[" + std::to_string(v) + "," +
                                       std::to_string(w) + "," +
                                       std::to_string(i) + "]");
      }
    }
  }
}

void EventFormulation::build_state_allocations() {
  const auto& inst = instance();
  const auto& substrate = inst.substrate();
  const int num_r = inst.num_requests();
  const int num_rsc = substrate.num_resources();

  state_usage().assign(
      static_cast<std::size_t>(num_states()),
      std::vector<mip::LinExpr>(static_cast<std::size_t>(num_rsc)));

  for (int s = 1; s <= num_states(); ++s) {
    // State s lies between events e_s and e_{s+1}; a request contributes
    // iff it started by e_s and has not ended by e_s (an end mapped to
    // e_{s+1} in the compact scheme still overlaps this state).
    for (int rsc = 0; rsc < num_rsc; ++rsc) {
      mip::LinExpr usage;
      bool nontrivial = false;
      for (int r = 0; r < num_r; ++r) {
        if (alloc_upper_bound(r, rsc) <= 0.0) continue;
        const bool inactive =
            surely_not_started_by(r, s) || surely_ended_by(r, s);
        if (inactive) continue;
        const bool active =
            surely_started_by(r, s) && surely_not_ended_by(r, s);
        if (active) {
          // Σ-fixing state-space reduction (Section IV-C): the request is
          // provably embedded throughout this state; charge it directly.
          usage += alloc_resource(r, rsc);
          ++num_reduced_states_;
          nontrivial = true;
          continue;
        }
        // General case: local state allocation a_R with Constraint (7)/(8).
        const double cap = substrate.resource_capacity(rsc);
        const double big_m = std::max(cap, alloc_upper_bound(r, rsc));
        const mip::Var a = mutable_model().add_continuous(
            0.0, cap,
            "a[" + inst.request(r).name() + "," + std::to_string(s) + "," +
                std::to_string(rsc) + "]");
        ++num_state_alloc_vars_;
        mip::LinExpr active_expr = started_by(r, s) - ended_by(r, s);
        mip::LinExpr lower = alloc_resource(r, rsc);
        lower -= big_m * (mip::LinExpr(1.0) - active_expr);
        mutable_model().add_constr(mip::LinExpr(a) >= lower,
                                   "alloc[" + inst.request(r).name() + "," +
                                       std::to_string(s) + "," +
                                       std::to_string(rsc) + "]");
        usage += a;
        nontrivial = true;
      }
      state_usage()[static_cast<std::size_t>(s - 1)]
                   [static_cast<std::size_t>(rsc)] = usage;
      if (nontrivial) {
        // Constraint (9): total state allocation within capacity.
        mutable_model().add_constr(
            usage <= substrate.resource_capacity(rsc),
            "cap[" + std::to_string(s) + "," + std::to_string(rsc) + "]");
      }
    }
  }
}

}  // namespace tvnep::core
