// Golden-file checks of the observability exports on a real solve: the
// Chrome trace_event JSON must parse, carry monotone non-negative
// timestamps and well-nested spans per thread, and the tree log must hold
// exactly one schema-conforming record per processed branch-and-bound
// node with a monotone global bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mip/branch_and_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/tree_log.hpp"
#include "support/json.hpp"
#include "temp_dir.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Runs a small cΣ solve with the tracer, metrics and a private tree log
// active; used by every test below.
struct SolvedFixture {
  mip::MipResult result;
  std::vector<std::string> tree_lines;
  std::string chrome_json;
  std::string jsonl;

  static SolvedFixture run() {
    SolvedFixture out;
    const TempDir dir;
    const std::string tree_path = dir.file("obs_golden_tree.jsonl");
    const std::string trace_path = dir.file("obs_golden_trace.json");
    const std::string trace_jsonl_path = dir.file("obs_golden_trace.jsonl");

    workload::WorkloadParams params;
    params.grid_rows = 2;
    params.grid_cols = 2;
    params.star_leaves = 2;
    params.num_requests = 3;
    params.seed = 1;
    params.flexibility = 2.0;
    const net::TvnepInstance instance = workload::generate_workload(params);
    const auto formulation =
        core::build_formulation(instance, core::ModelKind::kCSigma, {});

    obs::Tracer::instance().reset();
    obs::Tracer::instance().start();
    {
      obs::TreeLog tree_log(tree_path);
      mip::MipOptions options;
      options.tree_log = &tree_log;
      options.tree_log_context = "golden";
      options.trace_node_sample = 4;
      mip::MipSolver solver(options);
      out.result = solver.solve(formulation->model());
      tree_log.flush();
    }
    obs::Tracer::instance().stop();
    obs::Tracer::instance().write_chrome_trace(trace_path);
    obs::Tracer::instance().write_jsonl(trace_jsonl_path);
    obs::Tracer::instance().reset();

    out.chrome_json = read_file(trace_path);
    out.jsonl = read_file(trace_jsonl_path);
    std::ifstream tree(tree_path);
    std::string line;
    while (std::getline(tree, line)) out.tree_lines.push_back(line);
    return out;
  }
};

const SolvedFixture& fixture() {
  static const SolvedFixture f = SolvedFixture::run();
  return f;
}

TEST(ObsTraceGolden, ChromeTraceIsValidJsonWithSaneTimestamps) {
  const JsonValue root = parse_json(fixture().chrome_json, "<chrome trace>");
  ASSERT_TRUE(root.is_object());
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->as_array().empty());

  for (const JsonValue& e : events->as_array()) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* name = e.find("name");
    const JsonValue* ph = e.find("ph");
    const JsonValue* ts = e.find("ts");
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    EXPECT_TRUE(ts->is_number());
    EXPECT_GE(ts->as_number(), 0.0);
    if (ph->as_string() == "X") {
      const JsonValue* dur = e.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->as_number(), 0.0);
    } else {
      EXPECT_EQ(ph->as_string(), "i");
    }
  }
}

TEST(ObsTraceGolden, SpansAreWellNestedPerThread) {
  const JsonValue root = parse_json(fixture().chrome_json, "<chrome trace>");
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);

  struct Span { double ts; double end; };
  std::map<double, std::vector<Span>> by_tid;
  for (const JsonValue& e : events->as_array()) {
    if (e.find("ph")->as_string() != "X") continue;
    by_tid[e.find("tid")->as_number()].push_back(
        {e.find("ts")->as_number(),
         e.find("ts")->as_number() + e.find("dur")->as_number()});
  }
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      return a.end > b.end;  // enclosing span first at equal starts
    });
    std::vector<double> stack;  // end times of currently-open spans
    for (const Span& s : spans) {
      while (!stack.empty() && stack.back() <= s.ts) stack.pop_back();
      if (!stack.empty()) {
        // Same-thread spans must nest: a span either starts after the
        // enclosing span ends (popped above) or finishes within it.
        EXPECT_LE(s.end, stack.back()) << "overlapping spans on tid " << tid;
      }
      stack.push_back(s.end);
    }
  }
}

TEST(ObsTraceGolden, ExpectedSpanNamesAppear) {
  for (const char* name :
       {"mip.solve_tree", "mip.root_lp", "presolve.run", "presolve.round"}) {
    EXPECT_NE(fixture().chrome_json.find(std::string("\"name\":\"") + name),
              std::string::npos)
        << "missing span " << name;
  }
  // The JSONL stream carries the same events, one object per line.
  std::istringstream jsonl(fixture().jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jsonl, line)) {
    EXPECT_NO_THROW(parse_json(line, "<trace jsonl>")) << line;
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

TEST(ObsTraceGolden, TreeLogHasOneRecordPerProcessedNode) {
  ASSERT_GT(fixture().result.nodes, 0);
  EXPECT_EQ(fixture().tree_lines.size(),
            static_cast<std::size_t>(fixture().result.nodes));
}

TEST(ObsTraceGolden, TreeLogRecordsMatchSchemaAndBoundIsMonotone) {
  std::vector<long> seen_nodes;
  bool have_prev_bound = false;
  double prev_bound = 0.0;
  for (const std::string& line : fixture().tree_lines) {
    const JsonValue record = parse_json(line, "<tree log>");
    ASSERT_TRUE(record.is_object()) << line;
    for (const char* key :
         {"node", "depth", "lp_status", "lp_pivots", "branch_var",
          "incumbent_updated", "incumbent", "global_bound", "open_nodes",
          "seconds", "sense", "ctx"}) {
      EXPECT_NE(record.find(key), nullptr) << "missing " << key << ": " << line;
    }
    EXPECT_EQ(record.find("ctx")->as_string(), "golden");
    const std::string sense = record.find("sense")->as_string();
    // The cΣ access-control objective maximizes.
    EXPECT_EQ(sense, "max");
    seen_nodes.push_back(static_cast<long>(record.find("node")->as_number()));
    EXPECT_GE(record.find("seconds")->as_number(), 0.0);
    EXPECT_GE(record.find("open_nodes")->as_number(), 0.0);

    const JsonValue* bound = record.find("global_bound");
    if (bound->is_number()) {
      if (have_prev_bound) {
        // Maximization: the proven bound never increases.
        EXPECT_LE(bound->as_number(), prev_bound + 1e-9) << line;
      }
      have_prev_bound = true;
      prev_bound = bound->as_number();
    }
    // The bound must dominate the incumbent (maximization: bound >= inc).
    const JsonValue* inc = record.find("incumbent");
    if (bound->is_number() &&
        inc->is_number()) {
      EXPECT_GE(bound->as_number(), inc->as_number() - 1e-6) << line;
    }
  }
  // Node ids are unique per solve.
  std::sort(seen_nodes.begin(), seen_nodes.end());
  EXPECT_EQ(std::adjacent_find(seen_nodes.begin(), seen_nodes.end()),
            seen_nodes.end());
  ASSERT_TRUE(have_prev_bound);
  // The logged bound is valid at every point, so the last one can only be
  // at or above (maximization) the solver's final proven bound — nodes
  // pruned at the loop top close the frontier without emitting a record.
  EXPECT_GE(prev_bound, fixture().result.best_bound - 1e-6);
}

TEST(ObsTraceGolden, MinimizationBoundIsNonDecreasing) {
  // A small minimization MIP (covering the other sense direction).
  mip::Model model;
  mip::LinExpr cost;
  std::vector<mip::Var> vars;
  for (int i = 0; i < 6; ++i) {
    const mip::Var x = model.add_binary();
    vars.push_back(x);
    cost += static_cast<double>(3 + (i * 7) % 5) * x;
  }
  mip::LinExpr cover;
  for (const mip::Var x : vars) cover += x;
  model.add_constr(cover >= 3.0);
  model.set_objective(mip::Sense::kMinimize, cost);

  const TempDir dir;
  const std::string path = dir.file("obs_golden_min_tree.jsonl");
  {
    obs::TreeLog log(path);
    mip::MipOptions options;
    options.tree_log = &log;
    mip::MipSolver solver(options);
    const mip::MipResult result = solver.solve(model);
    EXPECT_EQ(result.status, mip::MipStatus::kOptimal);
    log.flush();
  }
  std::ifstream in(path);
  std::string line;
  bool have_prev = false;
  double prev = 0.0;
  std::size_t records = 0;
  while (std::getline(in, line)) {
    ++records;
    const JsonValue record = parse_json(line, "<tree log>");
    EXPECT_EQ(record.find("sense")->as_string(), "min");
    const JsonValue* bound = record.find("global_bound");
    if (bound->is_number()) {
      if (have_prev) {
        EXPECT_GE(bound->as_number(), prev - 1e-9) << line;
      }
      have_prev = true;
      prev = bound->as_number();
    }
  }
  EXPECT_GT(records, 0u);
}

}  // namespace
}  // namespace tvnep
