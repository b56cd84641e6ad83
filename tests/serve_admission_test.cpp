// Admission engine invariants:
//  * the online exact path is the batch greedy cΣ_A^G by construction —
//    identical accept decisions and schedules on generator traces;
//  * frozen requests: once committed, a schedule never changes from later
//    insertions (and only moves through a reopt install before start);
//  * component GC does not change outcomes (the retirement argument);
//  * fastpath and mixed-mode commit states pass the independent
//    continuous-time validator;
//  * the reoptimizer strictly improves a crafted scenario and refuses to
//    install stale schedules.
#include "serve/admission.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "greedy/greedy.hpp"
#include "net/topology.hpp"
#include "serve/reoptimizer.hpp"
#include "tvnep/solution.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace tvnep::serve {
namespace {

constexpr double kTol = 1e-6;

workload::WorkloadParams trace_params() {
  workload::WorkloadParams p;
  p.num_requests = 12;
  p.flexibility = 1.5;
  p.seed = 3;
  return p;
}

RequestMessage to_message(const workload::TraceRequest& tr, std::size_t i) {
  RequestMessage message;
  message.id = tr.request.name().empty() ? "R" + std::to_string(i)
                                         : tr.request.name();
  message.request = tr.request;
  message.mapping = tr.mapping;
  return message;
}

net::SubstrateNetwork paper_grid(const workload::WorkloadParams& p) {
  return net::make_grid(p.grid_rows, p.grid_cols, p.node_capacity,
                        p.link_capacity);
}

// Runs the online engine over the trace of `p`, checking the frozen-request
// invariant and exact agreement with batch greedy; returns the number of
// retired commits for follow-up assertions.
std::size_t run_against_batch(const workload::WorkloadParams& p) {
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const greedy::GreedyResult batch =
      greedy::solve_greedy(workload::instance_from_trace(p, trace), {});

  AdmissionEngine engine(paper_grid(p), {});
  std::vector<AdmitResult> online;
  std::map<std::uint64_t, std::pair<double, double>> frozen;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    online.push_back(engine.admit(to_message(trace.requests[i], i)));
    // Frozen-request invariant: no previously committed schedule moved.
    for (const Commit& c : engine.history()) {
      const auto it = frozen.find(c.seq);
      if (it == frozen.end()) {
        frozen.emplace(c.seq, std::make_pair(c.start, c.end));
      } else {
        EXPECT_DOUBLE_EQ(it->second.first, c.start);
        EXPECT_DOUBLE_EQ(it->second.second, c.end);
      }
    }
  }

  int accepted = 0;
  for (std::size_t i = 0; i < online.size(); ++i) {
    const core::RequestEmbedding& expect =
        batch.solution.requests[i];
    const bool got_accepted = online[i].outcome == AdmitOutcome::kAccepted;
    EXPECT_EQ(got_accepted, expect.accepted) << "request " << i;
    if (got_accepted && expect.accepted) {
      EXPECT_NEAR(online[i].start, expect.start, kTol) << "request " << i;
      EXPECT_NEAR(online[i].end, expect.end, kTol) << "request " << i;
      ++accepted;
    }
  }
  EXPECT_EQ(static_cast<std::uint64_t>(accepted), engine.accepted_total());
  return engine.retired_commits();
}

TEST(ServeAdmission, MatchesBatchGreedyAndNeverRevisesCommits) {
  run_against_batch(trace_params());
}

TEST(ServeAdmission, RetiresWholeComponentsOnSpreadOutTraces) {
  // Arrivals much sparser than durations: whole components end between
  // arrivals, so the GC actually retires — and the outcomes still match
  // batch greedy exactly across the retirement boundary.
  workload::WorkloadParams p = trace_params();
  p.interarrival_mean = 12.0;
  EXPECT_GT(run_against_batch(p), 0u);
}

TEST(ServeAdmission, GcOnAndOffProduceIdenticalOutcomes) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);

  AdmissionOptions keep_all;
  keep_all.gc = false;
  AdmissionEngine with_gc(paper_grid(p), {});
  AdmissionEngine without_gc(paper_grid(p), keep_all);
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const RequestMessage message = to_message(trace.requests[i], i);
    const AdmitResult a = with_gc.admit(message);
    const AdmitResult b = without_gc.admit(message);
    EXPECT_EQ(a.outcome, b.outcome) << "request " << i;
    if (a.outcome == AdmitOutcome::kAccepted) {
      EXPECT_NEAR(a.start, b.start, kTol);
      EXPECT_NEAR(a.end, b.end, kTol);
      // GC keeps the step no larger than the full history would be.
      EXPECT_LE(a.component_size, b.component_size);
    }
  }
  EXPECT_EQ(without_gc.retired_commits(), 0u);
}

core::TvnepSolution state_as_solution(const AdmissionEngine& engine,
                                      net::TvnepInstance* instance_out) {
  core::TvnepSolution solution;
  for (const Commit& c : engine.history()) {
    instance_out->add_request(c.original, c.mapping);
    solution.requests.push_back(c.embedding);
  }
  instance_out->fit_horizon();
  return solution;
}

TEST(ServeAdmission, FastpathCommitsPassTheIndependentValidator) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  AdmissionEngine engine(paper_grid(p), {});
  int accepted = 0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i)
    if (engine.admit_fastpath(to_message(trace.requests[i], i)).outcome ==
        AdmitOutcome::kAccepted)
      ++accepted;
  ASSERT_GT(accepted, 0);

  net::TvnepInstance instance(paper_grid(p), 0.0);
  const core::TvnepSolution solution = state_as_solution(engine, &instance);
  const core::ValidationResult check =
      core::validate_solution(instance, solution);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
}

TEST(ServeAdmission, MixedExactAndFastpathStateValidates) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  AdmissionOptions tight;
  tight.max_step_requests = 3;  // force frequent fastpath shedding
  AdmissionEngine engine(paper_grid(p), tight);
  int shed = 0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const RequestMessage message = to_message(trace.requests[i], i);
    const AdmitResult exact = engine.admit(message);
    if (exact.outcome == AdmitOutcome::kComponentTooLarge ||
        exact.outcome == AdmitOutcome::kSolverFailed) {
      ++shed;
      engine.admit_fastpath(message);
    }
  }
  EXPECT_GT(shed, 0) << "cap of 3 should have shed at least one request";
  ASSERT_GT(engine.accepted_total(), 0u);

  net::TvnepInstance instance(paper_grid(p), 0.0);
  const core::TvnepSolution solution = state_as_solution(engine, &instance);
  const core::ValidationResult check =
      core::validate_solution(instance, solution);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
}

TEST(ServeAdmission, ClosesWindowsBehindTheVirtualNow) {
  AdmissionEngine engine(net::make_grid(2, 2, 10.0, 10.0), {});
  RequestMessage first;
  first.id = "early";
  net::VnetRequest a("early");
  a.add_node(1.0);
  a.set_temporal(5.0, 7.0, 1.0);
  first.request = a;
  ASSERT_EQ(engine.admit(first).outcome, AdmitOutcome::kAccepted);

  // Arrives "late": its window can no longer fit after now = 5.
  RequestMessage stale;
  stale.id = "stale";
  net::VnetRequest b("stale");
  b.add_node(1.0);
  b.set_temporal(1.0, 4.0, 2.0);
  stale.request = b;
  EXPECT_EQ(engine.admit(stale).outcome, AdmitOutcome::kWindowClosed);
  EXPECT_EQ(engine.admit_fastpath(stale).outcome,
            AdmitOutcome::kWindowClosed);
}

TEST(ServeAdmission, ProvenRejectKeepsTheStoredFlows) {
  // Two links 0->1 and 1->0; "first" holds node 0 over [0, 2). "second"
  // needs node 0 over the same window, so the node check proves the
  // reject: no allocation is refreshed, and the WAL record carries an
  // empty refresh list.
  AdmissionEngine engine(net::make_grid(1, 2, 1.0, 10.0), {});
  std::vector<std::size_t> refreshed;
  std::vector<AdmitOutcome> outcomes;
  engine.set_state_sink([&](const StateTransition& txn) {
    refreshed.push_back(txn.refreshed.size());
    outcomes.push_back(txn.outcome);
  });
  auto message = [](const std::string& id) {
    RequestMessage m;
    m.id = id;
    m.request = net::VnetRequest(id);
    m.request.add_node(1.0);
    m.request.add_node(0.0);
    m.request.add_link(0, 1, 1.0);
    m.request.set_temporal(0.0, 2.0, 2.0);
    m.mapping = std::vector<net::NodeId>{0, 1};
    return m;
  };
  ASSERT_EQ(engine.admit(message("first")).outcome, AdmitOutcome::kAccepted);
  const core::RequestEmbedding stored = engine.history()[0].embedding;
  EXPECT_EQ(engine.admit(message("second")).outcome, AdmitOutcome::kRejected);
  EXPECT_EQ(engine.history()[0].embedding.link_flow, stored.link_flow);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[1], AdmitOutcome::kRejected);
  EXPECT_EQ(refreshed[1], 0u);
  engine.set_state_sink({});
}

TEST(ServeAdmission, RejectsMappingsOutsideTheSubstrate) {
  // A 2x2 grid has nodes 0..3; a client-supplied mapping naming node 7
  // must answer kInvalidMapping on both paths — the untrusted id would
  // otherwise index the fastpath residual arrays out of bounds (heap
  // write) or throw from TvnepInstance::add_request on the exact path.
  AdmissionEngine engine(net::make_grid(2, 2, 10.0, 10.0), {});
  RequestMessage bad;
  bad.id = "bad";
  net::VnetRequest r("bad");
  r.add_node(1.0);
  r.set_temporal(0.0, 4.0, 1.0);
  bad.request = r;
  bad.mapping = std::vector<net::NodeId>{7};
  EXPECT_EQ(engine.admit(bad).outcome, AdmitOutcome::kInvalidMapping);
  EXPECT_EQ(engine.admit_fastpath(bad).outcome,
            AdmitOutcome::kInvalidMapping);

  bad.mapping = std::vector<net::NodeId>{-1};
  EXPECT_EQ(engine.admit_fastpath(bad).outcome,
            AdmitOutcome::kInvalidMapping);

  // Wrong arity (one entry per virtual node) is invalid too.
  bad.mapping = std::vector<net::NodeId>{0, 1};
  EXPECT_EQ(engine.admit(bad).outcome, AdmitOutcome::kInvalidMapping);

  // The invalid request consumed nothing and the engine still works.
  bad.mapping = std::vector<net::NodeId>{0};
  EXPECT_EQ(engine.admit(bad).outcome, AdmitOutcome::kAccepted);
}

// ----- reoptimizer: crafted strict-improvement scenario -----
//
// Substrate: A --L1(cap 1)--> B --L2(cap 1)--> C.
//  * C1 occupies L1 on [0, 6] (zero flexibility; it is "running").
//  * R1 (needs L1 and L2, window [0.2, 20], d = 2) → greedy [6, 8].
//  * R2 (needs L1 only, window [0.4, 11], d = 3) → greedy [8, 11].
// Max-earliness prefers the swap R2@[6,9], R1@[9,11] (joint earliness
// 1.81 vs 1.36). That frees L2 over [6.5, 9), so
//  * R3 (needs L2 only, window [6.5, 9], d = 2) is admissible only after
//    the reoptimizer ran — the strict revenue improvement.

net::SubstrateNetwork two_hop_line() {
  net::SubstrateNetwork s;
  s.add_node(10.0, "A");
  s.add_node(10.0, "B");
  s.add_node(10.0, "C");
  s.add_link(0, 1, 1.0);  // L1
  s.add_link(1, 2, 1.0);  // L2
  return s;
}

RequestMessage line_request(const std::string& id, double t_s, double t_e,
                            double d, std::vector<net::NodeId> mapping,
                            std::vector<std::pair<int, int>> links) {
  RequestMessage message;
  message.id = id;
  net::VnetRequest request(id);
  for (std::size_t v = 0; v < mapping.size(); ++v) request.add_node(1.0);
  for (const auto& [from, to] : links) request.add_link(from, to, 1.0);
  request.set_temporal(t_s, t_e, d);
  message.request = std::move(request);
  message.mapping = std::move(mapping);
  return message;
}

struct Scenario {
  RequestMessage c1 = line_request("C1", 0.0, 6.0, 6.0, {0, 1}, {{0, 1}});
  RequestMessage r1 =
      line_request("R1", 0.2, 20.0, 2.0, {0, 1, 2}, {{0, 1}, {1, 2}});
  RequestMessage r2 = line_request("R2", 0.4, 11.0, 3.0, {0, 1}, {{0, 1}});
  RequestMessage r3 = line_request("R3", 6.5, 9.0, 2.0, {1, 2}, {{0, 1}});
};

void admit_prefix(AdmissionEngine& engine, const Scenario& s) {
  ASSERT_EQ(engine.admit(s.c1).outcome, AdmitOutcome::kAccepted);
  const AdmitResult r1 = engine.admit(s.r1);
  ASSERT_EQ(r1.outcome, AdmitOutcome::kAccepted);
  EXPECT_NEAR(r1.start, 6.0, kTol);
  EXPECT_NEAR(r1.end, 8.0, kTol);
  const AdmitResult r2 = engine.admit(s.r2);
  ASSERT_EQ(r2.outcome, AdmitOutcome::kAccepted);
  EXPECT_NEAR(r2.start, 8.0, kTol);
  EXPECT_NEAR(r2.end, 11.0, kTol);
}

TEST(ServeReopt, BackgroundReoptStrictlyImprovesAdmission) {
  const Scenario s;

  // Greedy-only: R3 cannot be admitted (L2 busy on [6, 8], window ends 9).
  AdmissionEngine greedy_only(two_hop_line(), {});
  admit_prefix(greedy_only, s);
  EXPECT_EQ(greedy_only.admit(s.r3).outcome, AdmitOutcome::kRejected);

  // With one reopt pass between arrivals, the swap frees L2 in time.
  AdmissionEngine engine(two_hop_line(), {});
  admit_prefix(engine, s);
  Reoptimizer reoptimizer(&engine, {});
  const ReoptReport report = reoptimizer.reoptimize_once();
  EXPECT_TRUE(report.attempted);
  EXPECT_TRUE(report.solved);
  ASSERT_TRUE(report.installed);
  EXPECT_EQ(report.rescheduled, 2);

  std::map<std::string, const Commit*> by_id;
  const std::vector<Commit> history = engine.history();
  for (const Commit& c : history) by_id[c.id] = &c;
  EXPECT_NEAR(by_id.at("C1")->start, 0.0, kTol);  // running: pinned
  EXPECT_NEAR(by_id.at("C1")->end, 6.0, kTol);
  EXPECT_NEAR(by_id.at("R2")->start, 6.0, kTol);  // swapped earlier
  EXPECT_NEAR(by_id.at("R2")->end, 9.0, kTol);
  EXPECT_NEAR(by_id.at("R1")->start, 9.0, kTol);
  EXPECT_NEAR(by_id.at("R1")->end, 11.0, kTol);

  const AdmitResult r3 = engine.admit(s.r3);
  EXPECT_EQ(r3.outcome, AdmitOutcome::kAccepted);
  EXPECT_NEAR(r3.start, 6.5, kTol);
  EXPECT_NEAR(r3.end, 8.5, kTol);
  EXPECT_GT(engine.accepted_total(), greedy_only.accepted_total());
}

TEST(ServeReopt, StaleInstallIsRefusedAfterAnAdmission) {
  const Scenario s;
  AdmissionEngine engine(two_hop_line(), {});
  admit_prefix(engine, s);

  const AdmissionEngine::Snapshot snap = engine.snapshot();
  ASSERT_FALSE(snap.commits.empty());
  // An admission lands while the (hypothetical) reopt solve is running:
  // L1 is free from 11 on, so this one is accepted and bumps the version.
  const RequestMessage late =
      line_request("R4", 11.0, 20.0, 2.0, {0, 1}, {{0, 1}});
  ASSERT_EQ(engine.admit(late).outcome, AdmitOutcome::kAccepted);

  AdmissionEngine::NewSchedule move;
  move.seq = snap.commits.back().seq;
  move.start = snap.commits.back().start + 0.5;
  move.end = snap.commits.back().end + 0.5;
  move.embedding = snap.commits.back().embedding;
  EXPECT_FALSE(engine.try_install(snap.version, {move}, {}));
  // And a matching version installs fine.
  const AdmissionEngine::Snapshot fresh = engine.snapshot();
  EXPECT_TRUE(engine.try_install(fresh.version, {}, {}));
}

TEST(ServeReopt, NothingToMoveReportsIdle) {
  AdmissionEngine engine(two_hop_line(), {});
  Scenario s;
  ASSERT_EQ(engine.admit(s.c1).outcome, AdmitOutcome::kAccepted);
  Reoptimizer reoptimizer(&engine, {});
  const ReoptReport report = reoptimizer.reoptimize_once();
  EXPECT_FALSE(report.attempted);  // the only commit is running and pinned
  EXPECT_FALSE(report.installed);
}

}  // namespace
}  // namespace tvnep::serve
