#include <gtest/gtest.h>

#include <sstream>

#include "io/instance_io.hpp"
#include "net/topology.hpp"
#include "support/check.hpp"
#include "support/parse_error.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep::io {
namespace {

net::TvnepInstance sample_instance() {
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.num_requests = 3;
  params.star_leaves = 2;
  params.seed = 5;
  params.flexibility = 1.5;
  return workload::generate_workload(params);
}

TEST(InstanceIo, RoundTripsExactly) {
  const net::TvnepInstance original = sample_instance();
  std::stringstream buffer;
  write_instance(original, buffer);
  const net::TvnepInstance loaded = read_instance(buffer);

  EXPECT_EQ(loaded.substrate().num_nodes(), original.substrate().num_nodes());
  EXPECT_EQ(loaded.substrate().num_links(), original.substrate().num_links());
  EXPECT_DOUBLE_EQ(loaded.horizon(), original.horizon());
  ASSERT_EQ(loaded.num_requests(), original.num_requests());
  for (int r = 0; r < original.num_requests(); ++r) {
    const auto& a = original.request(r);
    const auto& b = loaded.request(r);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_DOUBLE_EQ(a.earliest_start(), b.earliest_start());
    EXPECT_DOUBLE_EQ(a.latest_end(), b.latest_end());
    EXPECT_DOUBLE_EQ(a.duration(), b.duration());
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    for (int v = 0; v < a.num_nodes(); ++v)
      EXPECT_DOUBLE_EQ(a.node_demand(v), b.node_demand(v));
    ASSERT_EQ(a.num_links(), b.num_links());
    for (int e = 0; e < a.num_links(); ++e) {
      EXPECT_EQ(a.link(e).from, b.link(e).from);
      EXPECT_EQ(a.link(e).to, b.link(e).to);
      EXPECT_DOUBLE_EQ(a.link(e).demand, b.link(e).demand);
    }
    ASSERT_EQ(original.has_fixed_mapping(r), loaded.has_fixed_mapping(r));
    if (original.has_fixed_mapping(r)) {
      EXPECT_EQ(original.fixed_mapping(r), loaded.fixed_mapping(r));
    }
  }
}

TEST(InstanceIo, RoundTripPreservesOptimum) {
  const net::TvnepInstance original = sample_instance();
  std::stringstream buffer;
  write_instance(original, buffer);
  const net::TvnepInstance loaded = read_instance(buffer);

  core::SolveParams params;
  params.time_limit_seconds = 60.0;
  const auto a = core::solve(original, core::ModelKind::kCSigma, params);
  const auto b = core::solve(loaded, core::ModelKind::kCSigma, params);
  ASSERT_EQ(a.status, mip::MipStatus::kOptimal);
  ASSERT_EQ(b.status, mip::MipStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-7);
}

TEST(InstanceIo, FreePlacementRoundTrips) {
  net::TvnepInstance inst(net::make_grid(2, 2, 1.0, 1.0), 5.0);
  net::VnetRequest r("free");
  r.add_node(0.5);
  r.set_temporal(0.0, 4.0, 2.0);
  inst.add_request(r);  // no mapping line expected
  std::stringstream buffer;
  write_instance(inst, buffer);
  EXPECT_EQ(buffer.str().find("mapping"), std::string::npos);
  const net::TvnepInstance loaded = read_instance(buffer);
  EXPECT_FALSE(loaded.has_fixed_mapping(0));
}

// Parses `text` expecting a structured failure; returns the ParseError so
// callers can assert on its source/line/column annotations.
ParseError expect_parse_error(const std::string& text,
                              const std::string& source = "<instance>") {
  std::stringstream buffer(text);
  try {
    read_instance(buffer, source);
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError for: " << text;
  return ParseError("", 0, 0, "");
}

TEST(InstanceIo, RejectsBadHeader) {
  const ParseError e = expect_parse_error("not-a-tvnep-file\n");
  EXPECT_EQ(e.line(), 1);
  EXPECT_NE(e.message().find("tvnep 1"), std::string::npos);
}

TEST(InstanceIo, RejectsUnknownKeyword) {
  const ParseError e = expect_parse_error("tvnep 1\nbogus 1 2 3\n");
  EXPECT_EQ(e.line(), 2);
  EXPECT_EQ(e.column(), 1);
  EXPECT_NE(e.message().find("bogus"), std::string::npos);
}

TEST(InstanceIo, RejectsDanglingVnode) {
  const ParseError e = expect_parse_error("tvnep 1\nhorizon 5\nvnode 1.0\n");
  EXPECT_EQ(e.line(), 3);
  EXPECT_NE(e.message().find("vnode before any request"), std::string::npos);
}

TEST(InstanceIo, MalformedNumberPointsAtItsColumn) {
  // "3.5x" is a strict-parse failure, not a silent 3.5: the previous
  // operator>> reader accepted the prefix and dropped the garbage.
  const ParseError e =
      expect_parse_error("tvnep 1\nhorizon 5\nsubstrate-node 3.5x\n");
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.column(), 16);  // first char of the offending token
  EXPECT_NE(e.message().find("'3.5x'"), std::string::npos);
  // The formatted what() carries the full source:line:column prefix.
  EXPECT_NE(std::string(e.what()).find("<instance>:3:16"), std::string::npos);
}

TEST(InstanceIo, MissingFieldIsReported) {
  const ParseError e =
      expect_parse_error("tvnep 1\nhorizon 5\nsubstrate-link 0 1\n");
  EXPECT_EQ(e.line(), 3);
  EXPECT_NE(e.message().find("missing capacity field"), std::string::npos);
}

TEST(InstanceIo, TrailingFieldIsReported) {
  const ParseError e = expect_parse_error("tvnep 1\nhorizon 5 extra\n");
  EXPECT_EQ(e.line(), 2);
  EXPECT_EQ(e.column(), 11);
  EXPECT_NE(e.message().find("unexpected trailing field 'extra'"),
            std::string::npos);
}

TEST(InstanceIo, SourceLabelPropagatesIntoErrors) {
  const ParseError e =
      expect_parse_error("tvnep 1\nhorizon oops\n", "workload.tvnep");
  EXPECT_EQ(e.source(), "workload.tvnep");
  EXPECT_EQ(e.line(), 2);
  EXPECT_EQ(std::string(e.what()).rfind("workload.tvnep:2", 0), 0u);
}

TEST(InstanceIo, CommentsAndBlankLinesKeepLineNumbersHonest) {
  const ParseError e = expect_parse_error(
      "tvnep 1\n# a comment\n\nhorizon 5\nvlink 0 1 2.0\n");
  EXPECT_EQ(e.line(), 5);
  EXPECT_NE(e.message().find("vlink before any request"), std::string::npos);
}

}  // namespace
}  // namespace tvnep::io
