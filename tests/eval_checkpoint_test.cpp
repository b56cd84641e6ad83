// The crash-safe sweep journal: durable append + resume round-trips, torn
// final-line tolerance, fingerprint refusal across incompatible configs,
// end-to-end sweep resume that re-solves only the unjournaled cells with
// outcomes identical to an uninterrupted run, and on-disk compatibility
// with a committed journal written by the pre-support/journal format.
#include "eval/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "eval/runner.hpp"
#include "support/parse_error.hpp"
#include "temp_dir.hpp"

namespace tvnep::eval {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  TempDir dir_;
  const std::string path_ = dir_.file("journal.jsonl");
};

SweepConfig tiny_config() {
  SweepConfig config;
  config.base.num_requests = 2;
  config.base.grid_rows = 2;
  config.base.grid_cols = 2;
  config.base.star_leaves = 1;
  config.flexibilities = {0.0, 1.0};
  config.seeds = 2;
  config.time_limit = 60.0;
  config.threads = 2;
  return config;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(CheckpointTest, ValuesSerializeRoundTripExact) {
  // %.17g must reproduce the identical double on reload — including the
  // classic non-representable decimals and extreme magnitudes.
  const double values[] = {0.1, 1.0 / 3.0, 1e-300, 1.7976931348623157e308,
                           -0.0, 123456789.123456789};
  CellRecord record;
  record.key = {"codec", 0, 0};
  for (std::size_t i = 0; i < std::size(values); ++i)
    record.fields["v" + std::to_string(i)] = JournalValue(values[i]);
  record.fields["pinf"] =
      JournalValue(std::numeric_limits<double>::infinity());
  record.fields["ninf"] =
      JournalValue(-std::numeric_limits<double>::infinity());
  record.fields["nan"] =
      JournalValue(std::numeric_limits<double>::quiet_NaN());
  record.fields["text"] = JournalValue("quotes \" slashes \\ tabs\t");
  record.fields["flag"] = JournalValue(true);

  auto journal = SweepJournal::create(path_, 7);
  ASSERT_TRUE(journal->append(record));
  auto reloaded = SweepJournal::resume(path_, 7);
  ASSERT_EQ(reloaded->loaded(), 1u);
  const CellRecord* got = reloaded->find(record.key);
  ASSERT_NE(got, nullptr);
  for (std::size_t i = 0; i < std::size(values); ++i)
    EXPECT_EQ(got->number("v" + std::to_string(i)), values[i]) << i;
  EXPECT_TRUE(std::isinf(got->number("pinf")));
  EXPECT_GT(got->number("pinf"), 0.0);
  EXPECT_TRUE(std::isinf(got->number("ninf")));
  EXPECT_LT(got->number("ninf"), 0.0);
  EXPECT_TRUE(std::isnan(got->number("nan")));
  EXPECT_EQ(got->text("text"), "quotes \" slashes \\ tabs\t");
  EXPECT_TRUE(got->boolean("flag"));
}

TEST_F(CheckpointTest, ResumeRefusesDifferentFingerprint) {
  { auto journal = SweepJournal::create(path_, 1); }
  try {
    SweepJournal::resume(path_, 2);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("refusing to resume"),
              std::string::npos);
  }
}

TEST_F(CheckpointTest, TornFinalLineIsDroppedNotFatal) {
  auto journal = SweepJournal::create(path_, 3);
  CellRecord a;
  a.key = {"m", 0, 0};
  a.fields["x"] = JournalValue(1.0);
  CellRecord b = a;
  b.key.seed = 1;
  ASSERT_TRUE(journal->append(a));
  ASSERT_TRUE(journal->append(b));

  // Simulate a crash mid-append: chop the final record in half.
  std::string content = read_all(path_);
  content.resize(content.size() - 12);
  {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }

  auto resumed = SweepJournal::resume(path_, 3);
  EXPECT_EQ(resumed->loaded(), 1u);
  EXPECT_NE(resumed->find(a.key), nullptr);
  EXPECT_EQ(resumed->find(b.key), nullptr);
}

TEST_F(CheckpointTest, TornFinalLineIsRepairedOnDisk) {
  // A torn final line has no trailing newline; if resume only dropped it
  // in memory, the next append would concatenate onto the torn bytes and
  // corrupt the journal for every later resume.
  auto journal = SweepJournal::create(path_, 3);
  CellRecord a;
  a.key = {"m", 0, 0};
  a.fields["x"] = JournalValue(1.0);
  ASSERT_TRUE(journal->append(a));
  CellRecord b = a;
  b.key.seed = 1;
  ASSERT_TRUE(journal->append(b));
  std::string content = read_all(path_);
  while (!content.empty() && content.back() == '\n') content.pop_back();
  content.resize(content.size() - 5);  // torn mid-record, no newline
  {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }

  auto resumed = SweepJournal::resume(path_, 3);
  ASSERT_EQ(resumed->loaded(), 1u);
  ASSERT_TRUE(resumed->append(b));  // re-solve lands after the repair
  auto again = SweepJournal::resume(path_, 3);
  EXPECT_EQ(again->loaded(), 2u);
  EXPECT_NE(again->find(a.key), nullptr);
  EXPECT_NE(again->find(b.key), nullptr);
}

TEST_F(CheckpointTest, UnterminatedFinalRecordIsDroppedAndRepaired) {
  // A final record that parses but lacks its newline is an append whose
  // write never completed. Keeping it in place let the next append
  // concatenate onto it, and the following resume then dropped the merged
  // line — losing both completed cells.
  CellRecord a;
  a.key = {"m", 0, 1};
  a.fields["x"] = JournalValue(1.0);
  CellRecord b = a;
  b.key.seed = 2;
  {
    auto journal = SweepJournal::create(path_, 3);
    ASSERT_TRUE(journal->append(a));
  }
  std::string content = read_all(path_);
  ASSERT_EQ(content.back(), '\n');
  content.pop_back();
  {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }

  auto resumed = SweepJournal::resume(path_, 3);
  EXPECT_EQ(resumed->loaded(), 0u);  // never acknowledged: re-solved
  ASSERT_TRUE(resumed->append(a));
  ASSERT_TRUE(resumed->append(b));
  auto again = SweepJournal::resume(path_, 3);
  EXPECT_EQ(again->loaded(), 2u);
  EXPECT_NE(again->find(a.key), nullptr);
  EXPECT_NE(again->find(b.key), nullptr);
  EXPECT_EQ(read_all(path_).back(), '\n');
}

TEST_F(CheckpointTest, MalformedMiddleLineIsFatal) {
  auto journal = SweepJournal::create(path_, 3);
  CellRecord a;
  a.key = {"m", 0, 0};
  ASSERT_TRUE(journal->append(a));
  {
    std::ofstream out(path_, std::ios::app);
    out << "{corrupted\n";
  }
  CellRecord b = a;
  b.key.seed = 1;
  ASSERT_TRUE(journal->append(b));
  EXPECT_THROW(SweepJournal::resume(path_, 3), ParseError);
}

TEST_F(CheckpointTest, OutOfRangeCellKeyIsAParseError) {
  // A cell key that is no int (too large, negative, a fraction) must be a
  // located ParseError, never an undefined int cast.
  for (const std::string key : {"\"flex_index\":1e20,\"seed\":0",
                                "\"flex_index\":0,\"seed\":1e20",
                                "\"flex_index\":-1,\"seed\":0",
                                "\"flex_index\":0,\"seed\":-1",
                                "\"flex_index\":2.5,\"seed\":0",
                                "\"flex_index\":0,\"seed\":2.5"}) {
    auto journal = SweepJournal::create(path_, 3);
    CellRecord a;
    a.key = {"m", 0, 0};
    ASSERT_TRUE(journal->append(a));
    {
      std::ofstream out(path_, std::ios::app);
      out << "{\"label\":\"m\"," << key << ",\"fields\":{}}\n";
    }
    CellRecord b = a;
    b.key.seed = 1;
    ASSERT_TRUE(journal->append(b));
    journal.reset();
    EXPECT_THROW(SweepJournal::resume(path_, 3), ParseError) << key;
  }
}

TEST_F(CheckpointTest, ResumeOfMissingFileDegradesToCreate) {
  auto journal = SweepJournal::resume(path_, 9);
  EXPECT_EQ(journal->loaded(), 0u);
  CellRecord a;
  a.key = {"m", 0, 0};
  EXPECT_TRUE(journal->append(a));
  EXPECT_EQ(SweepJournal::resume(path_, 9)->loaded(), 1u);
}

TEST_F(CheckpointTest, CellKeyHashIsStableAndDiscriminates) {
  const CellKey a{"cSigma", 1, 2};
  EXPECT_EQ(cell_key_hash(a), cell_key_hash(a));
  EXPECT_NE(cell_key_hash(a), cell_key_hash({"cSigma", 1, 3}));
  EXPECT_NE(cell_key_hash(a), cell_key_hash({"cSigma", 2, 2}));
  EXPECT_NE(cell_key_hash(a), cell_key_hash({"sigma", 1, 2}));
}

TEST_F(CheckpointTest, FingerprintCoversSweepIdentityNotThreads) {
  const SweepConfig base = tiny_config();
  SweepConfig threads = base;
  threads.threads = 7;  // fan-out does not change what a cell computes
  EXPECT_EQ(sweep_fingerprint(base, "fig3"), sweep_fingerprint(threads, "fig3"));

  SweepConfig limit = base;
  limit.time_limit = 1.0;
  EXPECT_NE(sweep_fingerprint(base, "fig3"), sweep_fingerprint(limit, "fig3"));
  SweepConfig faults = base;
  faults.lp_fault_period = 40;
  EXPECT_NE(sweep_fingerprint(base, "fig3"),
            sweep_fingerprint(faults, "fig3"));
  EXPECT_NE(sweep_fingerprint(base, "fig3"), sweep_fingerprint(base, "fig4"));
}

TEST_F(CheckpointTest, ScenarioOutcomeCodecRoundTrips) {
  ScenarioOutcome outcome;
  outcome.flexibility = 1.5;
  outcome.seed = 3;
  outcome.wall_seconds = 0.125;
  outcome.failure_reason = "numerical limit: degraded";
  outcome.retries = 2;
  outcome.timed_out = true;
  auto& r = outcome.result;
  r.status = mip::MipStatus::kNumericalLimit;
  r.has_solution = true;
  r.accepted_requests = 4;
  r.objective = 17.25;
  r.best_bound = 18.0 + 1.0 / 3.0;
  r.gap = std::numeric_limits<double>::infinity();
  r.seconds = 0.0625;
  r.nodes = 123;
  r.lp_pivots = 4567;
  r.lp_iterations = 890;
  r.dual_fallbacks = 1;
  r.refactorizations = 2;
  r.basis_updates = 4321;
  r.lp_basis_fill_max = 2.75;
  r.lp_recoveries = 3;
  r.numerical_drops = 4;
  r.model_vars = 55;
  r.model_constraints = 66;
  r.model_integer_vars = 44;
  r.presolve_rows_removed = 7;
  r.presolve_cols_removed = 8;
  r.presolve_coeffs_tightened = 9;
  r.presolve_bounds_tightened = 10;
  r.presolve_infeasible = false;
  r.presolve_seconds = 0.001;

  const CellRecord record = encode_outcome("cSigma", 2, outcome);
  EXPECT_EQ(record.key.label, "cSigma");
  EXPECT_EQ(record.key.flex_index, 2);
  EXPECT_EQ(record.key.seed, 3);

  // Through the full serialize/parse cycle, not just the in-memory maps.
  auto journal = SweepJournal::create(path_, 1);
  ASSERT_TRUE(journal->append(record));
  auto reloaded = SweepJournal::resume(path_, 1);
  const CellRecord* got = reloaded->find(record.key);
  ASSERT_NE(got, nullptr);

  ScenarioOutcome decoded;
  ASSERT_TRUE(decode_outcome(*got, decoded));
  EXPECT_EQ(decoded.flexibility, outcome.flexibility);
  EXPECT_EQ(decoded.seed, outcome.seed);
  EXPECT_EQ(decoded.wall_seconds, outcome.wall_seconds);
  EXPECT_EQ(decoded.failed, outcome.failed);
  EXPECT_EQ(decoded.failure_reason, outcome.failure_reason);
  EXPECT_EQ(decoded.retries, outcome.retries);
  EXPECT_EQ(decoded.timed_out, outcome.timed_out);
  EXPECT_EQ(decoded.result.status, r.status);
  EXPECT_EQ(decoded.result.has_solution, r.has_solution);
  EXPECT_EQ(decoded.result.accepted_requests, r.accepted_requests);
  EXPECT_EQ(decoded.result.objective, r.objective);
  EXPECT_EQ(decoded.result.best_bound, r.best_bound);
  EXPECT_TRUE(std::isinf(decoded.result.gap));
  EXPECT_EQ(decoded.result.seconds, r.seconds);
  EXPECT_EQ(decoded.result.nodes, r.nodes);
  EXPECT_EQ(decoded.result.lp_pivots, r.lp_pivots);
  EXPECT_EQ(decoded.result.lp_iterations, r.lp_iterations);
  EXPECT_EQ(decoded.result.dual_fallbacks, r.dual_fallbacks);
  EXPECT_EQ(decoded.result.refactorizations, r.refactorizations);
  EXPECT_EQ(decoded.result.basis_updates, r.basis_updates);
  EXPECT_EQ(decoded.result.lp_basis_fill_max, r.lp_basis_fill_max);
  EXPECT_EQ(decoded.result.lp_recoveries, r.lp_recoveries);
  EXPECT_EQ(decoded.result.numerical_drops, r.numerical_drops);
  EXPECT_EQ(decoded.result.model_vars, r.model_vars);
  EXPECT_EQ(decoded.result.model_constraints, r.model_constraints);
  EXPECT_EQ(decoded.result.model_integer_vars, r.model_integer_vars);
  EXPECT_EQ(decoded.result.presolve_rows_removed, r.presolve_rows_removed);
  EXPECT_EQ(decoded.result.presolve_cols_removed, r.presolve_cols_removed);
  EXPECT_EQ(decoded.result.presolve_coeffs_tightened,
            r.presolve_coeffs_tightened);
  EXPECT_EQ(decoded.result.presolve_bounds_tightened,
            r.presolve_bounds_tightened);
  EXPECT_EQ(decoded.result.presolve_infeasible, r.presolve_infeasible);
  EXPECT_EQ(decoded.result.presolve_seconds, r.presolve_seconds);
}

TEST_F(CheckpointTest, DecodesRecordsFromJournalsWithoutBasisFields) {
  // Journals written before the basis telemetry existed carry no
  // basis_updates/basis_fill fields; resuming them must still decode the
  // cell (with the new counters zeroed) instead of re-solving it.
  ScenarioOutcome outcome;
  outcome.flexibility = 1.0;
  outcome.seed = 2;
  outcome.result.status = mip::MipStatus::kOptimal;
  outcome.result.basis_updates = 99;
  outcome.result.lp_basis_fill_max = 3.5;
  CellRecord record = encode_outcome("cSigma", 0, outcome);
  record.fields.erase("basis_updates");
  record.fields.erase("basis_fill");

  ScenarioOutcome decoded;
  ASSERT_TRUE(decode_outcome(record, decoded));
  EXPECT_EQ(decoded.result.basis_updates, 0);
  EXPECT_EQ(decoded.result.lp_basis_fill_max, 0.0);
}

TEST_F(CheckpointTest, GreedyOutcomeCodecRoundTrips) {
  GreedyOutcome outcome;
  outcome.flexibility = 2.0;
  outcome.seed = 1;
  outcome.wall_seconds = 0.5;
  outcome.result.accepted = 3;
  outcome.result.complete = true;
  outcome.result.total_seconds = 0.25;
  outcome.result.iteration_seconds = {0.1, 1.0 / 7.0, 0.0009765625};

  auto journal = SweepJournal::create(path_, 1);
  ASSERT_TRUE(journal->append(encode_outcome("greedy", 1, outcome)));
  auto reloaded = SweepJournal::resume(path_, 1);
  const CellRecord* got = reloaded->find({"greedy", 1, 1});
  ASSERT_NE(got, nullptr);
  GreedyOutcome decoded;
  ASSERT_TRUE(decode_outcome(*got, decoded));
  EXPECT_EQ(decoded.result.accepted, 3);
  EXPECT_TRUE(decoded.result.complete);
  EXPECT_EQ(decoded.result.total_seconds, 0.25);
  ASSERT_EQ(decoded.result.iteration_seconds.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(decoded.result.iteration_seconds[i],
              outcome.result.iteration_seconds[i])
        << i;
}

TEST_F(CheckpointTest, CrossKindDecodeIsRejected) {
  GreedyOutcome greedy_outcome;
  greedy_outcome.seed = 0;
  const CellRecord record = encode_outcome("greedy", 0, greedy_outcome);
  ScenarioOutcome scenario;
  EXPECT_FALSE(decode_outcome(record, scenario));
}

// End-to-end: a sweep journals every cell; after a simulated crash that
// tears the last record, the resumed sweep re-solves ONLY the torn cell
// and reproduces the uninterrupted outcomes field for field.
TEST_F(CheckpointTest, ResumedSweepSkipsJournaledCellsAndMatches) {
  SweepConfig config = tiny_config();
  std::atomic<int> solves{0};
  config.solve_override = [&](const net::TvnepInstance& instance,
                              core::ModelKind kind,
                              const core::SolveParams& params) {
    ++solves;
    return core::solve(instance, kind, params);
  };
  const std::uint64_t fingerprint = sweep_fingerprint(config, "test");
  config.journal = SweepJournal::create(path_, fingerprint);
  const auto uninterrupted = run_model_sweep(config, core::ModelKind::kCSigma);
  EXPECT_EQ(solves.load(), 4);

  // Crash simulation: the record being appended when the process died.
  std::string content = read_all(path_);
  content.resize(content.size() - 30);
  {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }

  solves = 0;
  config.journal = SweepJournal::resume(path_, fingerprint);
  EXPECT_EQ(config.journal->loaded(), 3u);
  std::size_t resumed_in_progress = 0;
  const auto resumed = run_model_sweep(
      config, core::ModelKind::kCSigma,
      [&](const ScenarioOutcome&, const SweepProgress& progress) {
        resumed_in_progress = progress.resumed;
      });
  EXPECT_EQ(solves.load(), 1);  // only the torn cell is re-solved
  EXPECT_EQ(resumed_in_progress, 3u);
  ASSERT_EQ(resumed.size(), uninterrupted.size());
  int resumed_cells = 0;
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    SCOPED_TRACE(i);
    if (resumed[i].resumed) ++resumed_cells;
    EXPECT_EQ(resumed[i].flexibility, uninterrupted[i].flexibility);
    EXPECT_EQ(resumed[i].seed, uninterrupted[i].seed);
    EXPECT_EQ(resumed[i].failed, uninterrupted[i].failed);
    EXPECT_EQ(resumed[i].result.status, uninterrupted[i].result.status);
    EXPECT_EQ(resumed[i].result.objective, uninterrupted[i].result.objective);
    EXPECT_EQ(resumed[i].result.best_bound,
              uninterrupted[i].result.best_bound);
    EXPECT_EQ(resumed[i].result.nodes, uninterrupted[i].result.nodes);
    EXPECT_EQ(resumed[i].result.lp_pivots,
              uninterrupted[i].result.lp_pivots);
    EXPECT_EQ(resumed[i].result.accepted_requests,
              uninterrupted[i].result.accepted_requests);
    // Resumed cells restore even the original run's timing fields.
    if (resumed[i].resumed) {
      EXPECT_EQ(resumed[i].wall_seconds, uninterrupted[i].wall_seconds);
      EXPECT_EQ(resumed[i].result.seconds, uninterrupted[i].result.seconds);
    }
  }
  EXPECT_EQ(resumed_cells, 3);
}

// A journal written under one config must not silently feed a sweep run
// under another — the sweep-level guard behind the CSV-consistency
// acceptance criterion.
TEST_F(CheckpointTest, ResumingIncompatibleSweepConfigThrows) {
  SweepConfig config = tiny_config();
  { auto journal = SweepJournal::create(path_, sweep_fingerprint(config, "t")); }
  SweepConfig changed = config;
  changed.lp_fault_period = 40;
  EXPECT_THROW(SweepJournal::resume(path_, sweep_fingerprint(changed, "t")),
               ParseError);
}

// The hashes a journal's identity rests on, pinned to the values the
// pre-support/journal code computed: a change here orphans every journal
// on disk.
TEST_F(CheckpointTest, HashesArePinnedAcrossVersions) {
  EXPECT_EQ(cell_key_hash({"cSigma", 1, 2}), 0x259768d64b0d5e70ull);
  EXPECT_EQ(sweep_fingerprint(tiny_config(), "fixture"),
            0x409d24d921e47467ull);
}

// tests/fixtures/sweep_journal_v1.jsonl was written by the pre-
// support/journal code: a tiny_config() cSigma sweep under bench id
// "fixture". It must resume with every record intact and re-serialize
// byte-identically, and a sweep over it must solve nothing.
TEST_F(CheckpointTest, ResumesCommittedV1JournalFixture) {
  const std::string fixture =
      std::string(TVNEP_FIXTURE_DIR) + "/sweep_journal_v1.jsonl";
  std::filesystem::copy_file(fixture, path_);
  SweepConfig config = tiny_config();
  const std::uint64_t fingerprint = sweep_fingerprint(config, "fixture");
  config.journal = SweepJournal::resume(path_, fingerprint);
  ASSERT_EQ(config.journal->loaded(), 4u);

  std::istringstream lines(read_all(fixture));
  std::string line;
  std::getline(lines, line);  // header
  std::vector<std::string> records;
  while (std::getline(lines, line)) records.push_back(line);
  ASSERT_EQ(records.size(), 4u);
  for (const std::string& record : records) {
    const std::size_t flex = record.find("\"flex_index\":") + 13;
    const std::size_t seed = record.find("\"seed\":") + 7;
    const CellKey key{"csigma", std::stoi(record.substr(flex)),
                      std::stoi(record.substr(seed))};
    const CellRecord* got = config.journal->find(key);
    ASSERT_NE(got, nullptr) << record;
    EXPECT_EQ(journal_record_json(*got), record);
  }

  std::atomic<int> solves{0};
  config.solve_override = [&](const net::TvnepInstance& instance,
                              core::ModelKind kind,
                              const core::SolveParams& params) {
    ++solves;
    return core::solve(instance, kind, params);
  };
  const auto outcomes = run_model_sweep(config, core::ModelKind::kCSigma);
  EXPECT_EQ(solves.load(), 0);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const ScenarioOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.resumed);
    EXPECT_EQ(outcome.result.status, mip::MipStatus::kOptimal);
  }
  EXPECT_EQ(outcomes[0].result.objective, 20.023139768120831);
  EXPECT_EQ(outcomes[1].result.objective, 13.932022051251732);
}

}  // namespace
}  // namespace tvnep::eval
