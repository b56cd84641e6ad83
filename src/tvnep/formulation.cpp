#include "tvnep/formulation.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "support/check.hpp"

namespace tvnep::core {

const char* to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kDelta: return "delta";
    case ModelKind::kSigma: return "sigma";
    case ModelKind::kCSigma: return "csigma";
  }
  return "unknown";
}

const char* to_string(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kAccessControl: return "access-control";
    case ObjectiveKind::kMaxEarliness: return "max-earliness";
    case ObjectiveKind::kBalanceNodeLoad: return "balance-node-load";
    case ObjectiveKind::kDisableLinks: return "disable-links";
    case ObjectiveKind::kGreedyStep: return "greedy-step";
  }
  return "unknown";
}

Formulation::Formulation(const net::TvnepInstance& instance,
                         BuildOptions options)
    : instance_(&instance), options_(std::move(options)) {
  instance.validate();
  const auto fixed_objectives = {ObjectiveKind::kMaxEarliness,
                                 ObjectiveKind::kBalanceNodeLoad,
                                 ObjectiveKind::kDisableLinks};
  for (const ObjectiveKind k : fixed_objectives)
    if (options_.objective == k) all_admitted_ = true;
  if (options_.objective == ObjectiveKind::kGreedyStep)
    TVNEP_REQUIRE(options_.greedy_target.has_value(),
                  "greedy-step objective requires a target request");
}

bool Formulation::admission_fixed(int r, double* value) const {
  const bool fixed = x_request_is_fixed_[static_cast<std::size_t>(r)] != 0;
  if (fixed && value)
    *value = x_request_fixed_value_[static_cast<std::size_t>(r)];
  return fixed;
}

void Formulation::build_embedding() {
  const auto& inst = *instance_;
  const auto& substrate = inst.substrate();
  const int num_r = inst.num_requests();
  const int num_links = substrate.num_links();
  const int num_nodes = substrate.num_nodes();

  x_request_.assign(static_cast<std::size_t>(num_r), mip::Var{});
  x_request_fixed_value_.assign(static_cast<std::size_t>(num_r), 0.0);
  x_request_is_fixed_.assign(static_cast<std::size_t>(num_r), 0);
  x_node_.assign(static_cast<std::size_t>(num_r), {});
  x_edge_.assign(static_cast<std::size_t>(num_r), {});

  auto fixed_to = [&](int r, double* value) {
    if (all_admitted_) { *value = 1.0; return true; }
    for (const int a : options_.force_accept)
      if (a == r) { *value = 1.0; return true; }
    for (const int b : options_.force_reject)
      if (b == r) { *value = 0.0; return true; }
    return false;
  };

  for (int r = 0; r < num_r; ++r) {
    const auto& req = inst.request(r);
    double fixed_value = 0.0;
    if (fixed_to(r, &fixed_value)) {
      x_request_is_fixed_[static_cast<std::size_t>(r)] = 1;
      x_request_fixed_value_[static_cast<std::size_t>(r)] = fixed_value;
    } else {
      const mip::Var xr = model_.add_binary("xR[" + req.name() + "]");
      // Decide admissions before event orderings in the search tree.
      model_.set_branch_priority(xr, 3);
      x_request_[static_cast<std::size_t>(r)] = xr;
    }

    // Node mapping variables + Constraint (1), only when placement is free.
    if (!inst.has_fixed_mapping(r)) {
      auto& xv = x_node_[static_cast<std::size_t>(r)];
      xv.resize(static_cast<std::size_t>(req.num_nodes() * num_nodes));
      for (int nv = 0; nv < req.num_nodes(); ++nv) {
        mip::LinExpr sum;
        for (int ns = 0; ns < num_nodes; ++ns) {
          const mip::Var v = model_.add_binary(
              "xV[" + req.name() + "," + std::to_string(nv) + "," +
              std::to_string(ns) + "]");
          xv[static_cast<std::size_t>(nv * num_nodes + ns)] = v;
          sum += v;
        }
        model_.add_constr(sum == x_request_expr(r),
                          "map[" + req.name() + "," + std::to_string(nv) + "]");
      }
    }

    // Splittable flow variables + Constraint (2).
    auto& xe = x_edge_[static_cast<std::size_t>(r)];
    xe.resize(static_cast<std::size_t>(req.num_links() * num_links));
    for (int lv = 0; lv < req.num_links(); ++lv)
      for (int ls = 0; ls < num_links; ++ls)
        xe[static_cast<std::size_t>(lv * num_links + ls)] =
            model_.add_continuous(0.0, 1.0,
                                  "xE[" + req.name() + "," +
                                      std::to_string(lv) + "," +
                                      std::to_string(ls) + "]");

    for (int lv = 0; lv < req.num_links(); ++lv) {
      const auto& vlink = req.link(lv);
      for (int ns = 0; ns < num_nodes; ++ns) {
        mip::LinExpr balance;  // outflow - inflow at ns
        for (const int ls : substrate.out_links(ns))
          balance += xe[static_cast<std::size_t>(lv * num_links + ls)];
        for (const int ls : substrate.in_links(ns))
          balance -= xe[static_cast<std::size_t>(lv * num_links + ls)];
        // Unit flow from the tail's host to the head's host.
        const mip::LinExpr rhs = node_mapping_expr(r, vlink.from, ns) -
                                 node_mapping_expr(r, vlink.to, ns);
        model_.add_constr(balance == rhs,
                          "flow[" + req.name() + "," + std::to_string(lv) +
                              "," + std::to_string(ns) + "]");
      }
    }
  }
}

mip::LinExpr Formulation::x_request_expr(int r) const {
  TVNEP_REQUIRE(r >= 0 && r < instance_->num_requests(), "bad request index");
  if (x_request_is_fixed_[static_cast<std::size_t>(r)])
    return mip::LinExpr(x_request_fixed_value_[static_cast<std::size_t>(r)]);
  return mip::LinExpr(x_request_[static_cast<std::size_t>(r)]);
}

mip::Var Formulation::x_request_var(int r) const {
  TVNEP_REQUIRE(r >= 0 && r < instance_->num_requests(), "bad request index");
  return x_request_[static_cast<std::size_t>(r)];
}

mip::Var Formulation::x_edge_var(int r, int lv, int ls) const {
  const auto& req = instance_->request(r);
  TVNEP_REQUIRE(lv >= 0 && lv < req.num_links(), "bad virtual link");
  const int num_links = instance_->substrate().num_links();
  TVNEP_REQUIRE(ls >= 0 && ls < num_links, "bad substrate link");
  return x_edge_[static_cast<std::size_t>(r)]
                [static_cast<std::size_t>(lv * num_links + ls)];
}

mip::Var Formulation::t_start_var(int r) const {
  TVNEP_REQUIRE(!t_start_.empty(), "time variables not built yet");
  return t_start_[static_cast<std::size_t>(r)];
}

mip::Var Formulation::t_end_var(int r) const {
  TVNEP_REQUIRE(!t_end_.empty(), "time variables not built yet");
  return t_end_[static_cast<std::size_t>(r)];
}

mip::LinExpr Formulation::node_mapping_expr(int r, int nv, int ns) const {
  const auto& inst = *instance_;
  if (inst.has_fixed_mapping(r)) {
    const bool here = inst.fixed_mapping(r)[static_cast<std::size_t>(nv)] == ns;
    return here ? x_request_expr(r) : mip::LinExpr(0.0);
  }
  const int num_nodes = inst.substrate().num_nodes();
  return mip::LinExpr(
      x_node_[static_cast<std::size_t>(r)]
             [static_cast<std::size_t>(nv * num_nodes + ns)]);
}

mip::LinExpr Formulation::alloc_node(int r, int ns) const {
  const auto& req = instance_->request(r);
  mip::LinExpr total;
  for (int nv = 0; nv < req.num_nodes(); ++nv) {
    mip::LinExpr indicator = node_mapping_expr(r, nv, ns);
    indicator *= req.node_demand(nv);
    total += indicator;
  }
  return total;
}

mip::LinExpr Formulation::alloc_link(int r, int ls) const {
  const auto& req = instance_->request(r);
  const int num_links = instance_->substrate().num_links();
  mip::LinExpr total;
  for (int lv = 0; lv < req.num_links(); ++lv)
    total.add_term(x_edge_[static_cast<std::size_t>(r)]
                          [static_cast<std::size_t>(lv * num_links + ls)],
                   req.link(lv).demand);
  return total;
}

mip::LinExpr Formulation::alloc_resource(int r, int rsc) const {
  const auto& substrate = instance_->substrate();
  if (substrate.resource_is_node(rsc)) return alloc_node(r, rsc);
  return alloc_link(r, rsc - substrate.num_nodes());
}

double Formulation::alloc_upper_bound(int r, int rsc) const {
  const auto& inst = *instance_;
  const auto& req = inst.request(r);
  const auto& substrate = inst.substrate();
  if (substrate.resource_is_node(rsc)) {
    if (inst.has_fixed_mapping(r)) {
      double total = 0.0;
      for (int nv = 0; nv < req.num_nodes(); ++nv)
        if (inst.fixed_mapping(r)[static_cast<std::size_t>(nv)] == rsc)
          total += req.node_demand(nv);
      return total;
    }
    return req.total_node_demand();
  }
  double total = 0.0;
  for (int lv = 0; lv < req.num_links(); ++lv) total += req.link(lv).demand;
  return total;
}

void Formulation::set_time_vars(std::vector<mip::Var> t_start,
                                std::vector<mip::Var> t_end) {
  TVNEP_REQUIRE(static_cast<int>(t_start.size()) == instance_->num_requests() &&
                    static_cast<int>(t_end.size()) == instance_->num_requests(),
                "time variable arity mismatch");
  t_start_ = std::move(t_start);
  t_end_ = std::move(t_end);
}

void Formulation::apply_objective() {
  const auto& inst = *instance_;
  const auto& substrate = inst.substrate();
  const int num_r = inst.num_requests();
  mip::LinExpr objective;

  switch (options_.objective) {
    case ObjectiveKind::kAccessControl: {
      // Section IV-E.1: revenue = Σ x_R(R) · d_R · Σ_{N_v} c_R(N_v).
      for (int r = 0; r < num_r; ++r) {
        const auto& req = inst.request(r);
        mip::LinExpr term = x_request_expr(r);
        term *= req.duration() * req.total_node_demand();
        objective += term;
      }
      break;
    }
    case ObjectiveKind::kMaxEarliness: {
      // Section IV-E.2: fee d_R · (1 - (t+_R - t^s)/(t^e - d - t^s)).
      for (int r = 0; r < num_r; ++r) {
        const auto& req = inst.request(r);
        const double flex = req.latest_start() - req.earliest_start();
        if (flex <= 1e-12) {
          // No flexibility: the start is pinned, the fee is the full d_R.
          objective += mip::LinExpr(req.duration());
          continue;
        }
        const double slope = req.duration() / flex;
        objective += mip::LinExpr(
            req.duration() + slope * req.earliest_start());
        objective.add_term(t_start_var(r), -slope);
      }
      break;
    }
    case ObjectiveKind::kBalanceNodeLoad: {
      // Section IV-E.3: maximize the number of nodes never loaded above
      // f·capacity: (1 - F(N_s)) · (1-f) · c >= usage - f·c for all states.
      TVNEP_REQUIRE(!state_usage_.empty(),
                    "load balancing requires state usage expressions");
      const double f = options_.load_balance_fraction;
      TVNEP_REQUIRE(f >= 0.0 && f < 1.0, "load fraction must be in [0,1)");
      for (int ns = 0; ns < substrate.num_nodes(); ++ns) {
        const mip::Var free_node =
            model_.add_binary("F[" + std::to_string(ns) + "]");
        const double cap = substrate.node_capacity(ns);
        for (std::size_t s = 0; s < state_usage_.size(); ++s) {
          mip::LinExpr usage = state_usage_[s][static_cast<std::size_t>(ns)];
          usage += (1.0 - f) * cap * mip::LinExpr(free_node);
          model_.add_constr(usage <= cap, "balance[" + std::to_string(ns) +
                                              "," + std::to_string(s) + "]");
        }
        objective += free_node;
      }
      break;
    }
    case ObjectiveKind::kDisableLinks: {
      // Section IV-E.4: D(L_s) = 1 iff link L_s carries no flow in [0,T].
      for (int ls = 0; ls < substrate.num_links(); ++ls) {
        const mip::Var disabled =
            model_.add_binary("D[" + std::to_string(ls) + "]");
        mip::LinExpr flow_total;
        int flow_terms = 0;
        for (int r = 0; r < num_r; ++r) {
          const auto& req = inst.request(r);
          for (int lv = 0; lv < req.num_links(); ++lv) {
            flow_total += x_edge_var(r, lv, ls);
            ++flow_terms;
          }
        }
        flow_total += static_cast<double>(std::max(flow_terms, 1)) *
                      mip::LinExpr(disabled);
        model_.add_constr(flow_total <=
                              static_cast<double>(std::max(flow_terms, 1)),
                          "disable[" + std::to_string(ls) + "]");
        objective += disabled;
      }
      break;
    }
    case ObjectiveKind::kGreedyStep: {
      // Section V, Eq. (21): max T·x_R(target) + (T - t^-_target).
      const int target = *options_.greedy_target;
      const double horizon = inst.horizon();
      mip::LinExpr term = x_request_expr(target);
      term *= horizon;
      objective += term;
      objective += mip::LinExpr(horizon);
      objective.add_term(t_end_var(target), -1.0);
      break;
    }
  }
  model_.set_objective(mip::Sense::kMaximize, objective);
}

TvnepSolution Formulation::extract(const std::vector<double>& values) const {
  const auto& inst = *instance_;
  const auto& substrate = inst.substrate();
  const int num_links = substrate.num_links();
  TvnepSolution solution;
  solution.objective = model_.eval_objective(values);
  solution.requests.resize(static_cast<std::size_t>(inst.num_requests()));

  auto value_of = [&](mip::Var v) {
    return values[static_cast<std::size_t>(v.id)];
  };

  for (int r = 0; r < inst.num_requests(); ++r) {
    auto& emb = solution.requests[static_cast<std::size_t>(r)];
    const auto& req = inst.request(r);

    double accepted_value = 0.0;
    if (admission_fixed(r, &accepted_value)) emb.accepted = accepted_value > 0.5;
    else emb.accepted = value_of(x_request_var(r)) > 0.5;

    emb.start = value_of(t_start_var(r));
    emb.end = value_of(t_end_var(r));
    // Snap numerically exact: the models guarantee end - start = d.
    emb.end = emb.start + req.duration();

    if (!emb.accepted) continue;

    emb.node_mapping.resize(static_cast<std::size_t>(req.num_nodes()));
    if (inst.has_fixed_mapping(r)) {
      emb.node_mapping = inst.fixed_mapping(r);
    } else {
      const int num_nodes = substrate.num_nodes();
      for (int nv = 0; nv < req.num_nodes(); ++nv) {
        int host = -1;
        double best = 0.5;
        for (int ns = 0; ns < num_nodes; ++ns) {
          const double x = value_of(
              x_node_[static_cast<std::size_t>(r)]
                     [static_cast<std::size_t>(nv * num_nodes + ns)]);
          if (x > best) {
            best = x;
            host = ns;
          }
        }
        emb.node_mapping[static_cast<std::size_t>(nv)] = host;
      }
    }

    emb.link_flow.resize(static_cast<std::size_t>(req.num_links() * num_links));
    for (int lv = 0; lv < req.num_links(); ++lv)
      for (int ls = 0; ls < num_links; ++ls)
        emb.link_flow[static_cast<std::size_t>(lv * num_links + ls)] =
            std::clamp(value_of(x_edge_var(r, lv, ls)), 0.0, 1.0);
  }
  return solution;
}

}  // namespace tvnep::core
