// Tests for the observability subsystem: metrics shard merging under
// concurrency, span recording, tree-log writing, and the inactive no-op
// guarantees. The ObsConcurrent* tests run in the TSan tier-1 subset
// (scripts/tier1.sh) — they hammer the thread-local shards from
// parallel_for workers and assert the merged totals are exact.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/tree_log.hpp"
#include "support/parallel.hpp"
#include "temp_dir.hpp"

namespace tvnep {
namespace {

// Every test restores the subsystems to the inactive, empty state so tests
// can run in any order (and alongside the solver tests in one binary).
class ObsFixture : public ::testing::Test {
 protected:
  void SetUp() override { reset_all(); }
  void TearDown() override { reset_all(); }

  static void reset_all() {
    obs::Tracer::instance().stop();
    obs::Tracer::instance().reset();
    obs::Metrics::instance().stop();
    obs::Metrics::instance().reset();
  }
};

using ObsConcurrentTest = ObsFixture;
using ObsTest = ObsFixture;

TEST_F(ObsConcurrentTest, CountersMergeExactlyAcrossWorkers) {
  obs::Metrics::instance().start();
  constexpr std::size_t kItems = 2000;
  parallel_for(
      kItems,
      [&](std::size_t i) {
        obs::counter_add("test.items");
        obs::counter_add("test.weighted", static_cast<double>(i % 7));
      },
      /*threads=*/8);
  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  ASSERT_EQ(snap.counters.count("test.items"), 1u);
  EXPECT_DOUBLE_EQ(snap.counters.at("test.items"),
                   static_cast<double>(kItems));
  double expected_weight = 0.0;
  for (std::size_t i = 0; i < kItems; ++i)
    expected_weight += static_cast<double>(i % 7);
  EXPECT_DOUBLE_EQ(snap.counters.at("test.weighted"), expected_weight);
}

TEST_F(ObsConcurrentTest, HistogramsMergeCountSumAndExtremes) {
  obs::Metrics::instance().start();
  constexpr std::size_t kItems = 1000;
  parallel_for(
      kItems,
      [&](std::size_t i) {
        obs::histogram_observe("test.hist", static_cast<double>(i + 1));
      },
      /*threads=*/8);
  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  ASSERT_EQ(snap.histograms.count("test.hist"), 1u);
  const obs::HistogramSnapshot& h = snap.histograms.at("test.hist");
  EXPECT_EQ(h.count, static_cast<long>(kItems));
  EXPECT_DOUBLE_EQ(h.sum, kItems * (kItems + 1) / 2.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, static_cast<double>(kItems));
  long bucket_total = 0;
  for (const long b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count);
}

TEST_F(ObsConcurrentTest, GaugesKeepLastWriteAcrossShards) {
  obs::Metrics::instance().start();
  parallel_for(
      64, [&](std::size_t i) { obs::gauge_set("test.gauge", double(i)); },
      /*threads=*/8);
  // Exactly one of the 64 writes survives; any of them is a valid winner.
  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  ASSERT_EQ(snap.gauges.count("test.gauge"), 1u);
  EXPECT_GE(snap.gauges.at("test.gauge"), 0.0);
  EXPECT_LT(snap.gauges.at("test.gauge"), 64.0);
}

TEST_F(ObsConcurrentTest, SpansRecordOncePerWorkerItem) {
  obs::Tracer::instance().start();
  constexpr std::size_t kItems = 500;
  parallel_for(
      kItems,
      [&](std::size_t) {
        obs::SpanScope span("test.work", "test");
        obs::instant("test.tick", "test");
      },
      /*threads=*/8);
  obs::Tracer::instance().stop();
  const std::vector<obs::TraceEvent> events =
      obs::Tracer::instance().snapshot();
  std::size_t spans = 0;
  std::size_t instants = 0;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "test.work") {
      EXPECT_EQ(e.phase, 'X');
      EXPECT_GE(e.ts_us, 0);
      EXPECT_GE(e.dur_us, 0);
      ++spans;
    } else if (std::string(e.name) == "test.tick") {
      EXPECT_EQ(e.phase, 'i');
      ++instants;
    }
  }
  EXPECT_EQ(spans, kItems);
  EXPECT_EQ(instants, kItems);
}

TEST_F(ObsConcurrentTest, TreeLogSerializesConcurrentWriters) {
  const TempDir dir;
  const std::string path = dir.file("obs_test_tree_log.jsonl");
  {
    obs::TreeLog log(path);
    ASSERT_TRUE(log.ok());
    constexpr std::size_t kRecords = 400;
    parallel_for(
        kRecords,
        [&](std::size_t i) {
          obs::NodeRecord record;
          record.node = static_cast<long>(i);
          record.lp_status = "branched";
          log.write(record, "ctx " + std::to_string(i % 4));
        },
        /*threads=*/8);
    EXPECT_EQ(log.records(), static_cast<long>(kRecords));
    // The log streams to `<path>.partial` until close() renames it into
    // place (atomic publication) — close before reading the final path.
    EXPECT_TRUE(log.close());
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      ++lines;
      // Interleaved writes must never shear: every line is one record.
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
    }
    EXPECT_EQ(lines, kRecords);
  }
}

TEST_F(ObsTest, InactiveSubsystemsRecordNothing) {
  {
    obs::SpanScope span("test.noop", "test");
    obs::instant("test.noop_instant", "test");
  }
  obs::counter_add("test.noop_counter");
  obs::gauge_set("test.noop_gauge", 1.0);
  obs::histogram_observe("test.noop_hist", 1.0);
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST_F(ObsTest, NestedSpansAreWellFormed) {
  obs::Tracer::instance().start();
  {
    obs::SpanScope outer("test.outer", "test");
    {
      obs::SpanScope inner("test.inner", "test");
    }
  }
  obs::Tracer::instance().stop();
  const std::vector<obs::TraceEvent> events =
      obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Both spans can carry the same microsecond timestamp, so find them by
  // name instead of relying on sort order; containment must hold.
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "test.outer") outer = &e;
    if (std::string(e.name) == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
}

TEST_F(ObsTest, ConditionalSpanRespectsEnableFlag) {
  obs::Tracer::instance().start();
  {
    obs::SpanScope skipped(false, "test.skipped", "test");
    obs::SpanScope kept(true, "test.kept", "test", "\"k\":1");
  }
  obs::Tracer::instance().stop();
  const std::vector<obs::TraceEvent> events =
      obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.kept");
  EXPECT_EQ(events[0].args, "\"k\":1");
}

TEST_F(ObsTest, HistogramBucketsCoverTheRange) {
  EXPECT_EQ(obs::histogram_bucket(0.0), 0);
  EXPECT_EQ(obs::histogram_bucket(-5.0), 0);
  const int b_one = obs::histogram_bucket(1.0);
  EXPECT_GT(b_one, 0);
  EXPECT_LT(b_one, obs::kHistogramBuckets);
  EXPECT_GT(obs::histogram_bucket(2.0), obs::histogram_bucket(0.5));
  EXPECT_EQ(obs::histogram_bucket(1e300), obs::kHistogramBuckets - 1);
  // Every finite positive sample lands at or below its bucket's upper edge.
  for (const double v : {1e-9, 0.25, 1.0, 3.5, 1024.0}) {
    const int b = obs::histogram_bucket(v);
    EXPECT_LE(v, obs::histogram_bucket_upper(b)) << "value " << v;
  }
}

TEST_F(ObsTest, MetricsJsonRoundTripsThroughFile) {
  obs::Metrics::instance().start();
  obs::counter_add("test.count", 3.0);
  obs::gauge_set("test.level", 0.5);
  obs::histogram_observe("test.h", 2.0);
  obs::Metrics::instance().stop();
  const TempDir dir;
  const std::string path = dir.file("obs_test_metrics.json");
  ASSERT_TRUE(obs::Metrics::instance().write_json(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"test.count\""), std::string::npos);
  EXPECT_NE(text.find("\"test.level\""), std::string::npos);
  EXPECT_NE(text.find("\"test.h\""), std::string::npos);
}

}  // namespace
}  // namespace tvnep
