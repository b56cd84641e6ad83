// The kill-point matrix (DESIGN.md §16): crash the durability layer at
// every named fault point, at several occurrences of each, then recover
// from the state dir and resume the trace at the recovered decision
// index. The recovered run's decision stream — outcome, start, end, down
// to the last bit of every double — must equal the uninterrupted run's,
// and so must the final engine state. This is the end-to-end statement
// that a crash never forfeits admitted revenue and never double-admits:
// every acknowledged decision survives, every unacknowledged one is
// cleanly dropped.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "serve/admission.hpp"
#include "serve/wal.hpp"
#include "temp_dir.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace tvnep::serve {
namespace {

workload::WorkloadParams matrix_params() {
  workload::WorkloadParams p;
  p.num_requests = 8;
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

/// Byte-exact key of one decision: equality means the recovered engine
/// made the identical call, not merely a similar one.
std::string decision_key(const AdmitResult& r) {
  return std::to_string(static_cast<int>(r.outcome)) + "/" +
         exact_number(r.start) + "/" + exact_number(r.end) + "/" +
         std::to_string(r.component_size);
}

std::string encode_state(const AdmissionEngine::Snapshot& s) {
  std::string out = "v=" + std::to_string(s.version) +
                    ";now=" + exact_number(s.now) +
                    ";next_seq=" + std::to_string(s.next_seq) +
                    ";accepted=" + std::to_string(s.accepted_total) +
                    ";decisions=" + std::to_string(s.decisions) + "\n";
  for (const Commit& c : s.commits) out += "A" + encode_commit(c) + "\n";
  for (const Commit& c : s.retired) out += "R" + encode_commit(c) + "\n";
  return out;
}

struct Reference {
  std::vector<std::string> decisions;  // one key per trace request
  std::string final_state;
};

Reference run_uninterrupted(const workload::WorkloadParams& p,
                            const workload::ArrivalTrace& trace) {
  AdmissionEngine engine(paper_grid(p), {});
  Reference out;
  for (std::size_t i = 0; i < trace.requests.size(); ++i)
    out.decisions.push_back(
        decision_key(engine.admit(to_message(trace.requests[i], i))));
  out.final_state = encode_state(engine.snapshot_full());
  return out;
}

constexpr int kSnapshotEvery = 3;

/// Drives the trace from `begin` the way the daemon worker does: admit,
/// then publish a snapshot under the engine lock when the WAL asks.
void drive(AdmissionEngine* engine, Wal* wal,
           const workload::ArrivalTrace& trace, std::size_t begin,
           std::vector<std::string>* decisions) {
  for (std::size_t i = begin; i < trace.requests.size(); ++i) {
    const AdmitResult result = engine->admit(to_message(trace.requests[i], i));
    if (decisions != nullptr) decisions->push_back(decision_key(result));
    if (!wal->crashed() && wal->wants_snapshot())
      engine->with_snapshot_full(
          [&](const AdmissionEngine::Snapshot& s) { wal->write_snapshot(s); });
  }
}

/// One matrix cell: crash at occurrence `occurrence` of `point`, restart
/// from the state dir, resume at the recovered decision index, and demand
/// a byte-identical stream and final state.
void run_matrix_case(const workload::WorkloadParams& p,
                     const workload::ArrivalTrace& trace,
                     const Reference& reference, const char* point,
                     int occurrence) {
  SCOPED_TRACE(std::string(point) + " occurrence " +
               std::to_string(occurrence));
  TempDir dir;
  const net::SubstrateNetwork substrate = paper_grid(p);
  const AdmissionOptions admission;
  const std::uint64_t fp = serve_state_fingerprint(substrate, admission);

  WalOptions faulty;
  faulty.snapshot_every = kSnapshotEvery;
  int hits = 0;
  faulty.fault_hook = [&](const char* at) {
    if (std::strcmp(at, point) == 0 && ++hits == occurrence)
      return WalFault::kCrash;
    return WalFault::kNone;
  };

  // Phase 1: serve until the injected crash freezes the log. The engine
  // keeps going for the rest of the loop iteration (as a dying process
  // might), but nothing past the crash point reaches disk.
  {
    AdmissionEngine engine(substrate, admission);
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, faulty, &recovered);
    wal->attach(&engine);
    for (std::size_t i = 0;
         i < trace.requests.size() && !wal->crashed(); ++i) {
      engine.admit(to_message(trace.requests[i], i));
      if (!wal->crashed() && wal->wants_snapshot())
        engine.with_snapshot_full([&](const AdmissionEngine::Snapshot& s) {
          wal->write_snapshot(s);
        });
    }
    ASSERT_TRUE(wal->crashed());  // the dry run said this point fires
    engine.set_state_sink({});
  }

  // Phase 2: restart. Recovery must hand back a capacity-feasible state
  // and a resume index no further than the crash (never a decision the
  // log did not durably record).
  RecoveredState recovered;
  WalOptions clean;
  clean.snapshot_every = kSnapshotEvery;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, clean, &recovered);
  const std::uint64_t resume = recovered.state.decisions;
  ASSERT_LE(resume, trace.requests.size());
  const core::ValidationResult check = validate_commit_state(
      substrate, recovered.state.commits, recovered.state.retired);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);

  AdmissionEngine engine(substrate, admission);
  engine.restore(recovered.state);
  wal->attach(&engine);

  // Phase 3: resume. Every re-made decision must be byte-identical to the
  // uninterrupted run's, and so must the final state.
  std::vector<std::string> resumed;
  drive(&engine, wal.get(), trace, resume, &resumed);
  for (std::size_t i = 0; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i], reference.decisions[resume + i])
        << "request " << (resume + i);
  EXPECT_EQ(encode_state(engine.snapshot_full()), reference.final_state);
  engine.set_state_sink({});
}

TEST(ServeRecovery, KillPointMatrixRecoversByteIdentically) {
  const workload::WorkloadParams p = matrix_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const Reference reference = run_uninterrupted(p, trace);

  // Dry run: count how often each fault point actually fires on this
  // trace, so the matrix covers first/middle/last occurrences without
  // guessing.
  std::map<std::string, int> fired;
  {
    TempDir dir;
    const net::SubstrateNetwork substrate = paper_grid(p);
    const std::uint64_t fp = serve_state_fingerprint(substrate, {});
    WalOptions counting;
    counting.snapshot_every = kSnapshotEvery;
    counting.fault_hook = [&](const char* at) {
      ++fired[at];
      return WalFault::kNone;
    };
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, counting, &recovered);
    wal->attach(&engine);
    drive(&engine, wal.get(), trace, 0, nullptr);
    engine.set_state_sink({});
  }
  ASSERT_GE(fired["append.before_write"],
            static_cast<int>(trace.requests.size()));
  ASSERT_GE(fired["snapshot.before_write"], 2);

  for (const char* point :
       {"append.before_write", "append.write", "append.after_write",
        "append.fsync", "append.after_fsync", "snapshot.before_write",
        "snapshot.after_write", "snapshot.after_compact"}) {
    const int count = fired[point];
    ASSERT_GT(count, 0) << point;
    std::vector<int> occurrences = {1};
    if (count >= 3) occurrences.push_back((count + 1) / 2);
    if (count >= 2) occurrences.push_back(count);
    for (const int occurrence : occurrences)
      run_matrix_case(p, trace, reference, point, occurrence);
  }
}

TEST(ServeRecovery, ShortWriteMatrixDropsOnlyTheTornDecision) {
  // The torn-tail variant of the matrix: crash mid-write at each record,
  // so recovery must also repair the log before resuming.
  const workload::WorkloadParams p = matrix_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const Reference reference = run_uninterrupted(p, trace);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});

  for (const int occurrence : {1, 4, 8}) {
    SCOPED_TRACE("short write at record " + std::to_string(occurrence));
    TempDir dir;
    WalOptions faulty;
    faulty.snapshot_every = 0;
    int hits = 0;
    faulty.fault_hook = [&](const char* at) {
      if (std::strcmp(at, "append.write") == 0 && ++hits == occurrence)
        return WalFault::kShortWrite;
      return WalFault::kNone;
    };
    {
      AdmissionEngine engine(substrate, {});
      RecoveredState recovered;
      std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, faulty, &recovered);
      wal->attach(&engine);
      for (std::size_t i = 0;
           i < trace.requests.size() && !wal->crashed(); ++i)
        engine.admit(to_message(trace.requests[i], i));
      ASSERT_TRUE(wal->crashed());
      engine.set_state_sink({});
    }
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
    EXPECT_EQ(wal->stats().torn_repaired, 1);
    EXPECT_EQ(recovered.state.decisions,
              static_cast<std::uint64_t>(occurrence - 1));
    AdmissionEngine engine(substrate, {});
    engine.restore(recovered.state);
    wal->attach(&engine);
    std::vector<std::string> resumed;
    drive(&engine, wal.get(), trace, recovered.state.decisions, &resumed);
    for (std::size_t i = 0; i < resumed.size(); ++i)
      EXPECT_EQ(resumed[i],
                reference.decisions[recovered.state.decisions + i]);
    EXPECT_EQ(encode_state(engine.snapshot_full()), reference.final_state);
    engine.set_state_sink({});
  }
}

TEST(ServeRecovery, RecoversAcrossComponentRetirement) {
  // Sparse arrivals retire whole components mid-trace; the retirement
  // records must replay so the recovered GC state (and the retired
  // ledger the validator re-checks) matches the live engine's.
  workload::WorkloadParams p = matrix_params();
  p.num_requests = 12;
  p.interarrival_mean = 12.0;
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const Reference reference = run_uninterrupted(p, trace);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;

  std::size_t live_retired = 0;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    WalOptions faulty;
    faulty.snapshot_every = kSnapshotEvery;
    int hits = 0;
    faulty.fault_hook = [&](const char* at) {
      if (std::strcmp(at, "append.after_fsync") == 0 && ++hits == 7)
        return WalFault::kCrash;
      return WalFault::kNone;
    };
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, faulty, &recovered);
    wal->attach(&engine);
    for (std::size_t i = 0;
         i < trace.requests.size() && !wal->crashed(); ++i) {
      engine.admit(to_message(trace.requests[i], i));
      if (!wal->crashed() && wal->wants_snapshot())
        engine.with_snapshot_full([&](const AdmissionEngine::Snapshot& s) {
          wal->write_snapshot(s);
        });
    }
    ASSERT_TRUE(wal->crashed());
    live_retired = engine.retired_commits();
    engine.set_state_sink({});
  }
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
  // The crash fired after the 7th durable record, so all 7 decisions —
  // including any retirement they carried — recovered.
  EXPECT_EQ(recovered.state.decisions, 7u);
  EXPECT_GT(live_retired, 0u);
  EXPECT_EQ(recovered.state.retired.size(), live_retired);
  AdmissionEngine engine(substrate, {});
  engine.restore(recovered.state);
  wal->attach(&engine);
  std::vector<std::string> resumed;
  drive(&engine, wal.get(), trace, 7, &resumed);
  for (std::size_t i = 0; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i], reference.decisions[7 + i]) << "request " << (7 + i);
  EXPECT_EQ(encode_state(engine.snapshot_full()), reference.final_state);
  engine.set_state_sink({});
}

TEST(ServeRecovery, ReplaysReoptimizerInstallRecords) {
  // A version-checked install is a state transition like any other: it
  // must be logged and must replay, or recovery would resurrect the
  // pre-install schedules the reoptimizer already moved.
  const workload::WorkloadParams p = matrix_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;

  std::string live_state;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    WalOptions options;
    options.snapshot_every = 0;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
    wal->attach(&engine);
    drive(&engine, wal.get(), trace, 0, nullptr);
    // Identity install: reschedule one not-yet-started commit onto its
    // current window (try_install refuses to move one that already
    // started) and re-assert every stored embedding — exercises both
    // record arrays.
    const AdmissionEngine::Snapshot snap = engine.snapshot();
    ASSERT_FALSE(snap.commits.empty());
    std::vector<AdmissionEngine::NewSchedule> reschedules;
    std::vector<AdmissionEngine::NewSchedule> embeddings;
    for (const Commit& c : snap.commits) {
      AdmissionEngine::NewSchedule schedule;
      schedule.seq = c.seq;
      schedule.start = c.start;
      schedule.end = c.end;
      schedule.embedding = c.embedding;
      if (reschedules.empty() && c.start > snap.now + 1e-6)
        reschedules.push_back(schedule);
      embeddings.push_back(std::move(schedule));
    }
    ASSERT_TRUE(engine.try_install(snap.version, reschedules, embeddings));
    live_state = encode_state(engine.snapshot_full());
    engine.set_state_sink({});
  }
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
  EXPECT_EQ(encode_state(recovered.state), live_state);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// tests/fixtures/serve_state_v1 is a --state-dir written by the
// pre-support/journal WAL: matrix_params() with snapshot_every 3, copied
// after five decisions (a snapshot at decision 3 plus a two-record log
// tail). The fingerprint must still match, recovery must rebuild those
// five decisions, and the rest of the trace must re-decide exactly as the
// run that wrote the fixture did (serve_state_v1_decisions.txt and
// serve_state_v1_final.txt hold its decision keys and final state).
TEST(ServeRecovery, ResumesCommittedV1StateDirFixture) {
  const workload::WorkloadParams p = matrix_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  EXPECT_EQ(fp, 0x9bd9f9f93cebab23ull);

  const std::string fixtures = TVNEP_FIXTURE_DIR;
  TempDir dir;
  std::filesystem::copy(fixtures + "/serve_state_v1", dir.path);
  const std::vector<std::string> reference =
      read_lines(fixtures + "/serve_state_v1_decisions.txt");
  ASSERT_EQ(reference.size(), trace.requests.size());

  WalOptions options;
  options.snapshot_every = kSnapshotEvery;
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
  EXPECT_TRUE(recovered.had_state);
  EXPECT_TRUE(wal->stats().recovered_snapshot);
  EXPECT_EQ(wal->stats().replayed, 2);
  EXPECT_EQ(wal->stats().torn_repaired, 0);
  ASSERT_EQ(recovered.state.decisions, 5u);
  const core::ValidationResult check = validate_commit_state(
      substrate, recovered.state.commits, recovered.state.retired);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);

  AdmissionEngine engine(substrate, {});
  engine.restore(recovered.state);
  wal->attach(&engine);
  std::vector<std::string> resumed;
  drive(&engine, wal.get(), trace, 5, &resumed);
  ASSERT_EQ(resumed.size(), trace.requests.size() - 5);
  for (std::size_t i = 0; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i], reference[5 + i]) << "request " << (5 + i);
  std::ifstream final_state(fixtures + "/serve_state_v1_final.txt");
  std::ostringstream expected;
  expected << final_state.rdbuf();
  EXPECT_EQ(encode_state(engine.snapshot_full()), expected.str());
  engine.set_state_sink({});
}

}  // namespace
}  // namespace tvnep::serve
