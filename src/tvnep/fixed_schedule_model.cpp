#include "tvnep/fixed_schedule_model.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace tvnep::core {

namespace {

using Terms = std::vector<std::pair<int, double>>;

}  // namespace

FixedScheduleModel::FixedScheduleModel(const net::TvnepInstance& instance)
    : instance_(&instance) {
  instance.validate();
  const auto& substrate = instance.substrate();
  const int num_r = instance.num_requests();
  const int num_nodes = substrate.num_nodes();
  const int num_links = substrate.num_links();

  commodities_.resize(static_cast<std::size_t>(num_r));
  first_flow_.assign(static_cast<std::size_t>(num_r), 0);
  first_node_.assign(static_cast<std::size_t>(num_r), -1);
  const auto x_node = [&](int r, int nv, int ns) {
    return first_node_[static_cast<std::size_t>(r)] + nv * num_nodes + ns;
  };

  for (int r = 0; r < num_r; ++r) {
    const auto& req = instance.request(r);
    const bool mapped = instance.has_fixed_mapping(r);
    // Placement binaries and Constraint (1) when no mapping is fixed.
    if (!mapped) {
      first_node_[static_cast<std::size_t>(r)] = model_.num_vars();
      for (int nv = 0; nv < req.num_nodes(); ++nv) {
        Terms one_host;
        for (int ns = 0; ns < num_nodes; ++ns)
          one_host.emplace_back(model_.add_binary().id, 1.0);
        model_.add_row(1.0, 1.0, std::move(one_host));
      }
    }

    auto& commodities = commodities_[static_cast<std::size_t>(r)];
    commodities = group_commodities(req);
    const int first = model_.num_vars();
    first_flow_[static_cast<std::size_t>(r)] = first;
    for (const Commodity& c : commodities) {
      const double total = c.total(req);
      for (int ls = 0; ls < num_links; ++ls) model_.add_continuous(0.0, total);
    }

    // Conservation: outflow - inflow at ns is the commodity's supply
    // there, σ·(Σ a_l·[host(shared) = ns] - Σ a_l·[host(other_l) = ns])
    // with σ = +1 when the flow leaves the shared endpoint.
    for (std::size_t k = 0; k < commodities.size(); ++k) {
      const Commodity& c = commodities[k];
      const int column = first + static_cast<int>(k) * num_links;
      const double sigma = c.out ? 1.0 : -1.0;
      for (int ns = 0; ns < num_nodes; ++ns) {
        Terms terms;
        for (const int ls : substrate.out_links(ns))
          terms.emplace_back(column + ls, 1.0);
        for (const int ls : substrate.in_links(ns))
          terms.emplace_back(column + ls, -1.0);
        double supply = 0.0;
        for (const int lv : c.links) {
          const double a = sigma * c.amount(req, lv);
          const int other = c.other(req, lv);
          if (mapped) {
            const auto& hosts = instance.fixed_mapping(r);
            if (hosts[static_cast<std::size_t>(c.shared)] == ns) supply += a;
            if (hosts[static_cast<std::size_t>(other)] == ns) supply -= a;
          } else {
            terms.emplace_back(x_node(r, c.shared, ns), -a);
            terms.emplace_back(x_node(r, other, ns), a);
          }
        }
        model_.add_row(supply, supply, std::move(terms));
      }
    }
  }

  // Active set of every elementary interval [p_k, p_{k+1}) between
  // consecutive boundaries; requests are listed in ascending order.
  std::vector<double> points;
  for (int r = 0; r < num_r; ++r) {
    points.push_back(instance.request(r).earliest_start());
    points.push_back(instance.request(r).latest_end());
  }
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

  for (std::size_t s = 0; s < states.size(); ++s) {
    if (!maximal[s]) continue;
    for (int ns = 0; ns < num_nodes; ++ns) {
      Terms terms;
      double fixed_usage = 0.0;
      for (const int r : states[s]) {
        const auto& req = instance.request(r);
        for (int nv = 0; nv < req.num_nodes(); ++nv) {
          const double demand = req.node_demand(nv);
          if (demand <= 0.0) continue;
          if (instance.has_fixed_mapping(r)) {
            if (instance.fixed_mapping(r)[static_cast<std::size_t>(nv)] == ns)
              fixed_usage += demand;
          } else {
            terms.emplace_back(x_node(r, nv, ns), demand);
          }
        }
      }
      const double cap = substrate.node_capacity(ns);
      // A row without variables (node usage of mapped requests) only
      // matters when it is violated.
      if (terms.empty() && fixed_usage <= cap) continue;
      model_.add_row(-lp::kInfinity, cap - fixed_usage, std::move(terms));
    }
    for (int ls = 0; ls < num_links; ++ls) {
      Terms terms;
      for (const int r : states[s]) {
        const auto& commodities = commodities_[static_cast<std::size_t>(r)];
        for (std::size_t k = 0; k < commodities.size(); ++k) {
          const double usage = commodities[k].usage(instance.request(r));
          if (usage > 0.0)
            terms.emplace_back(flow_var(r, static_cast<int>(k), ls).id, usage);
        }
      }
      if (terms.empty()) continue;
      model_.add_row(-lp::kInfinity, substrate.link(ls).capacity,
                     std::move(terms));
    }
  }
}

const std::vector<Commodity>& FixedScheduleModel::commodities(int r) const {
  TVNEP_REQUIRE(r >= 0 && r < instance_->num_requests(), "bad request index");
  return commodities_[static_cast<std::size_t>(r)];
}

mip::Var FixedScheduleModel::flow_var(int r, int k, int ls) const {
  const int num_links = instance_->substrate().num_links();
  TVNEP_REQUIRE(k >= 0 && k < static_cast<int>(commodities(r).size()),
                "bad commodity");
  TVNEP_REQUIRE(ls >= 0 && ls < num_links, "bad substrate link");
  return mip::Var{first_flow_[static_cast<std::size_t>(r)] + k * num_links +
                  ls};
}

TvnepSolution FixedScheduleModel::extract(
    const std::vector<double>& values) const {
  const auto& inst = *instance_;
  const auto& substrate = inst.substrate();
  const int num_nodes = substrate.num_nodes();
  const int num_links = substrate.num_links();
  TvnepSolution solution;
  solution.objective = model_.eval_objective(values);
  solution.requests.resize(static_cast<std::size_t>(inst.num_requests()));

  for (int r = 0; r < inst.num_requests(); ++r) {
    auto& emb = solution.requests[static_cast<std::size_t>(r)];
    const auto& req = inst.request(r);
    emb.accepted = true;
    emb.start = req.earliest_start();
    emb.end = emb.start + req.duration();

    bool placed = true;
    if (inst.has_fixed_mapping(r)) {
      emb.node_mapping = inst.fixed_mapping(r);
    } else {
      emb.node_mapping.assign(static_cast<std::size_t>(req.num_nodes()), -1);
      const int first = first_node_[static_cast<std::size_t>(r)];
      for (int nv = 0; nv < req.num_nodes(); ++nv) {
        double best = 0.5;
        for (int ns = 0; ns < num_nodes; ++ns) {
          const double x =
              values[static_cast<std::size_t>(first + nv * num_nodes + ns)];
          if (x > best) {
            best = x;
            emb.node_mapping[static_cast<std::size_t>(nv)] = ns;
          }
        }
        placed = placed && emb.node_mapping[static_cast<std::size_t>(nv)] >= 0;
      }
    }

    emb.link_flow.assign(static_cast<std::size_t>(req.num_links() * num_links),
                         0.0);
    if (!placed) continue;
    const auto& commodities = commodities_[static_cast<std::size_t>(r)];
    for (std::size_t k = 0; k < commodities.size(); ++k) {
      const auto column = values.begin() + flow_var(r, static_cast<int>(k), 0).id;
      decompose_commodity(substrate, req, commodities[k], emb.node_mapping,
                          std::vector<double>(column, column + num_links),
                          &emb.link_flow);
    }
  }
  return solution;
}

}  // namespace tvnep::core
