// Replayable arrival traces: generator equivalence (the trace is the same
// RNG stream generate_workload consumes), byte-for-byte stable
// serialization, strict structured parse errors, and arrival-order
// enforcement.
#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "support/parse_error.hpp"
#include "temp_dir.hpp"
#include "workload/generator.hpp"

namespace tvnep::workload {
namespace {

WorkloadParams small_params() {
  WorkloadParams p;
  p.grid_rows = 3;
  p.grid_cols = 3;
  p.num_requests = 8;
  p.star_leaves = 2;
  p.flexibility = 1.5;
  p.seed = 7;
  return p;
}

void expect_same_instance(const net::TvnepInstance& a,
                          const net::TvnepInstance& b) {
  ASSERT_EQ(a.num_requests(), b.num_requests());
  EXPECT_DOUBLE_EQ(a.horizon(), b.horizon());
  for (int r = 0; r < a.num_requests(); ++r) {
    const auto& ra = a.request(r);
    const auto& rb = b.request(r);
    EXPECT_EQ(ra.name(), rb.name());
    EXPECT_DOUBLE_EQ(ra.earliest_start(), rb.earliest_start());
    EXPECT_DOUBLE_EQ(ra.latest_end(), rb.latest_end());
    EXPECT_DOUBLE_EQ(ra.duration(), rb.duration());
    ASSERT_EQ(ra.num_nodes(), rb.num_nodes());
    ASSERT_EQ(ra.num_links(), rb.num_links());
    for (int v = 0; v < ra.num_nodes(); ++v)
      EXPECT_DOUBLE_EQ(ra.node_demand(v), rb.node_demand(v));
    for (int e = 0; e < ra.num_links(); ++e) {
      EXPECT_EQ(ra.link(e).from, rb.link(e).from);
      EXPECT_EQ(ra.link(e).to, rb.link(e).to);
      EXPECT_DOUBLE_EQ(ra.link(e).demand, rb.link(e).demand);
    }
    ASSERT_EQ(a.has_fixed_mapping(r), b.has_fixed_mapping(r));
    if (a.has_fixed_mapping(r)) {
      EXPECT_EQ(a.fixed_mapping(r), b.fixed_mapping(r));
    }
  }
}

TEST(WorkloadTrace, MatchesGenerateWorkloadExactly) {
  const WorkloadParams p = small_params();
  const ArrivalTrace trace = make_trace(p);
  ASSERT_EQ(trace.requests.size(), 8u);
  EXPECT_EQ(trace.seed, p.seed);
  EXPECT_DOUBLE_EQ(trace.flexibility, p.flexibility);
  expect_same_instance(instance_from_trace(p, trace), generate_workload(p));
}

TEST(WorkloadTrace, ArrivalsAreSortedAndAbsolute) {
  const ArrivalTrace trace = make_trace(small_params());
  double prev = 0.0;
  for (const TraceRequest& tr : trace.requests) {
    EXPECT_GT(tr.arrival(), prev);
    EXPECT_DOUBLE_EQ(tr.request.latest_end(),
                     tr.arrival() + tr.request.duration() + 1.5);
    prev = tr.arrival();
  }
}

TEST(WorkloadTrace, RoundTripsByteForByte) {
  const ArrivalTrace trace = make_trace(small_params());
  std::ostringstream first;
  write_trace(trace, first);

  std::istringstream in(first.str());
  const ArrivalTrace reread = read_trace(in, "roundtrip");
  std::ostringstream second;
  write_trace(reread, second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(reread.seed, trace.seed);
  EXPECT_DOUBLE_EQ(reread.flexibility, trace.flexibility);

  const WorkloadParams p = small_params();
  expect_same_instance(instance_from_trace(p, reread),
                       instance_from_trace(p, trace));
}

TEST(WorkloadTrace, WriteIsDeterministicAcrossCalls) {
  std::ostringstream a, b;
  write_trace(make_trace(small_params()), a);
  write_trace(make_trace(small_params()), b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(WorkloadTrace, FileRoundTripViaSaveAndLoad) {
  const TempDir dir;
  const std::string path = dir.file("workload_trace_test_roundtrip.trace");
  const ArrivalTrace trace = make_trace(small_params());
  save_trace(trace, path);
  const ArrivalTrace loaded = load_trace(path);
  std::ostringstream a, b;
  write_trace(trace, a);
  write_trace(loaded, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(WorkloadTrace, RejectsMissingHeader) {
  std::istringstream in("request R0 1 2 1\n");
  EXPECT_THROW(read_trace(in, "bad"), ParseError);
}

TEST(WorkloadTrace, RejectsMalformedNumberWithLocation) {
  std::istringstream in(
      "tvnep-trace 1\nseed 1\nrequest R0 1.0 2.0 0.5x\n");
  try {
    read_trace(in, "bad");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("duration"), std::string::npos);
  }
}

TEST(WorkloadTrace, RejectsOutOfOrderArrivals) {
  std::istringstream in(
      "tvnep-trace 1\n"
      "request R0 5.0 7.0 1.0\n"
      "vnode 1.0\n"
      "request R1 4.0 6.0 1.0\n"
      "vnode 1.0\n");
  EXPECT_THROW(read_trace(in, "bad"), ParseError);
}

TEST(WorkloadTrace, UnmappedWorkloadsStayUnmapped) {
  WorkloadParams p = small_params();
  p.fix_node_mappings = false;
  const ArrivalTrace trace = make_trace(p);
  for (const TraceRequest& tr : trace.requests)
    EXPECT_FALSE(tr.mapping.has_value());
  expect_same_instance(instance_from_trace(p, trace), generate_workload(p));
}

}  // namespace
}  // namespace tvnep::workload
