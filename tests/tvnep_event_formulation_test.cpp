// White-box tests of the event-point machinery: event ranges driven by the
// dependency presolve, the Σ-fixing state-space reduction, and model-size
// relations between the formulations.
#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "tvnep/csigma_model.hpp"
#include "tvnep/delta_model.hpp"
#include "tvnep/sigma_model.hpp"

namespace tvnep::core {
namespace {

net::TvnepInstance chain_instance(int n, double gap) {
  // n requests with strictly ordered, non-overlapping windows.
  net::SubstrateNetwork s;
  s.add_node(5.0);
  s.add_node(5.0);
  s.add_link(0, 1, 5.0);
  s.add_link(1, 0, 5.0);
  net::TvnepInstance inst(std::move(s), 1.0);
  for (int i = 0; i < n; ++i) {
    net::VnetRequest r("r" + std::to_string(i));
    r.add_node(1.0);
    const double start = static_cast<double>(i) * gap;
    r.set_temporal(start, start + 1.0, 1.0);
    inst.add_request(r, std::vector<net::NodeId>{0});
  }
  inst.fit_horizon();
  return inst;
}

net::TvnepInstance overlapping_instance(int n) {
  net::SubstrateNetwork s;
  s.add_node(10.0);
  s.add_node(10.0);
  s.add_link(0, 1, 5.0);
  s.add_link(1, 0, 5.0);
  net::TvnepInstance inst(std::move(s), 20.0);
  for (int i = 0; i < n; ++i) {
    net::VnetRequest r("r" + std::to_string(i));
    r.add_node(1.0);
    r.set_temporal(0.0, 20.0, 2.0);
    inst.add_request(r, std::vector<net::NodeId>{0});
  }
  return inst;
}

TEST(EventFormulation, ChainPinsAllEventRanges) {
  const auto inst = chain_instance(4, 3.0);
  CSigmaModel model(inst, {});
  EXPECT_EQ(model.num_events(), 5);
  EXPECT_EQ(model.num_states(), 4);
  for (int r = 0; r < 4; ++r) {
    // Fully ordered chain: start of request r only on event r+1.
    EXPECT_EQ(model.start_range(r).min, r + 1);
    EXPECT_EQ(model.start_range(r).max, r + 1);
    // Its end must land on the following event.
    EXPECT_EQ(model.end_range(r).min, r + 2);
    EXPECT_EQ(model.end_range(r).max, r + 2);
  }
}

TEST(EventFormulation, ChainFullyReducesStateSpace) {
  const auto inst = chain_instance(4, 3.0);
  CSigmaModel model(inst, {});
  // Every request's activity pattern is fixed → no a_R variables at all.
  EXPECT_EQ(model.num_state_alloc_vars(), 0);
  EXPECT_GT(model.num_reduced_states(), 0);
}

TEST(EventFormulation, OverlapKeepsFullRanges) {
  const auto inst = overlapping_instance(3);
  CSigmaModel model(inst, {});
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(model.start_range(r).min, 1);
    EXPECT_EQ(model.start_range(r).max, 3);
    EXPECT_EQ(model.end_range(r).min, 2);
    EXPECT_EQ(model.end_range(r).max, 4);
  }
  EXPECT_GT(model.num_state_alloc_vars(), 0);
}

TEST(EventFormulation, CutsShrinkTheModel) {
  const auto inst = chain_instance(5, 3.0);
  BuildOptions with;
  BuildOptions without;
  without.dependency_cuts = false;
  without.pairwise_cuts = false;
  CSigmaModel cut_model(inst, with);
  CSigmaModel raw_model(inst, without);
  EXPECT_LT(cut_model.model().num_vars(), raw_model.model().num_vars());
  EXPECT_LT(cut_model.model().num_integer_vars(),
            raw_model.model().num_integer_vars());
}

TEST(EventFormulation, SigmaHasTwiceTheEvents) {
  const auto inst = overlapping_instance(3);
  SigmaModel sigma(inst, {});
  CSigmaModel csigma(inst, {});
  EXPECT_EQ(sigma.num_events(), 6);
  EXPECT_EQ(csigma.num_events(), 4);
  EXPECT_EQ(sigma.num_states(), 5);
  EXPECT_EQ(csigma.num_states(), 3);
}

TEST(EventFormulation, DeltaUsesChangeVariables) {
  const auto inst = overlapping_instance(2);
  DeltaModel delta(inst, {});
  // One Δ per (event, resource): 4 events × 4 resources.
  EXPECT_EQ(delta.num_delta_vars(),
            delta.num_events() * inst.substrate().num_resources());
}

TEST(EventFormulation, CompactHasOneStartPerEvent) {
  // |R| start events for |R| requests: the model must always be able to
  // place one start on each of e_1..e_|R| (Constraint (12)).
  const auto inst = chain_instance(3, 3.0);
  CSigmaModel model(inst, {});
  for (int r = 0; r < 3; ++r) {
    const EventRange sr = model.start_range(r);
    EXPECT_TRUE(model.chi_start(r, sr.min).valid());
  }
}

TEST(EventFormulation, RoundedPinnedWindowsBuild) {
  // Two requests pinned to one start time whose latest_end - duration
  // rounds one ulp below it (as the serve step instance pins commits).
  // Building these models used to fail the "dependency presolve produced
  // an empty event range" check.
  net::TvnepInstance inst = overlapping_instance(0);
  for (int i = 0; i < 2; ++i) {
    net::VnetRequest r("pinned" + std::to_string(i));
    r.add_node(1.0);
    r.set_temporal(124.720933862, 128.22093386199998, 3.5);
    inst.add_request(r, std::vector<net::NodeId>{0});
  }
  inst.fit_horizon();
  CSigmaModel csigma(inst, {});
  SigmaModel sigma(inst, {});
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(csigma.start_range(r).min, 1);
    EXPECT_EQ(csigma.start_range(r).max, 2);
    EXPECT_FALSE(sigma.start_range(r).empty());
  }
}

}  // namespace
}  // namespace tvnep::core
