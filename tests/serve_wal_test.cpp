// Durability-layer invariants (DESIGN.md §16):
//  * the %.17g codec round-trips commits byte-exactly through the WAL and
//    the snapshot files;
//  * a full run recovers to a state byte-identical to the live engine's
//    snapshot_full();
//  * a torn final record (crash mid-append) is dropped and repaired on
//    disk; corruption anywhere *else* in the log refuses via ParseError,
//    as does a config-fingerprint mismatch;
//  * snapshot compaction bounds the log and prunes old generations while
//    preserving byte-identical recovery;
//  * the fault seam behaves: kShortWrite tears exactly the unacknowledged
//    record, kEio degrades durability without taking the service down;
//  * AcceptBackoff escalates on descriptor exhaustion and resets.
#include "serve/wal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "serve/admission.hpp"
#include "serve/net_util.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"
#include "temp_dir.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace tvnep::serve {
namespace {

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

/// Canonical byte encoding of a full engine state — two states compare
/// equal iff the recovered engine would behave identically.
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

/// Runs the trace of `p` through `engine` starting at request `begin`,
/// driving the snapshot cadence the way the daemon worker does.
void run_trace(AdmissionEngine* engine, Wal* wal,
               const workload::ArrivalTrace& trace, std::size_t begin = 0) {
  for (std::size_t i = begin; i < trace.requests.size(); ++i) {
    engine->admit(to_message(trace.requests[i], i));
    if (wal != nullptr && !wal->crashed() && wal->wants_snapshot())
      engine->with_snapshot_full(
          [&](const AdmissionEngine::Snapshot& s) { wal->write_snapshot(s); });
  }
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

long count_snapshots(const std::string& dir) {
  long count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0) ++count;
  }
  return count;
}

TEST(ServeWal, NumberCodecRoundTripsBitExactly) {
  const double values[] = {0.0,        -0.0,       0.1,
                           1.0 / 3.0,  2.0 / 7.0,  1e-300,
                           1e300,      3.141592653589793,
                           1234567.8901234567, -42.125};
  for (const double v : values) {
    const std::string text = exact_number(v);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << text;
  }
}

TEST(ServeWal, CommitCodecRoundTripsByteExactly) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  AdmissionEngine engine(paper_grid(p), {});
  run_trace(&engine, nullptr, trace);
  const std::vector<Commit> history = engine.history();
  ASSERT_FALSE(history.empty());
  for (const Commit& commit : history) {
    const std::string encoded = encode_commit(commit);
    const Commit decoded =
        decode_commit(parse_json(encoded, "<test>"), "<test>", 1);
    EXPECT_EQ(encode_commit(decoded), encoded) << commit.id;
    EXPECT_EQ(decoded.seq, commit.seq);
    EXPECT_EQ(decoded.mapping.has_value(), commit.mapping.has_value());
  }
}

TEST(ServeWal, OutOfRangeIndicesAreParseErrors) {
  // Node-mapping entries, virtual-link endpoints and sequence numbers
  // that are no index (too large, negative, a fraction) must be located
  // ParseErrors, never an undefined integer cast.
  const auto commit = [](const std::string& link_from, const std::string& map,
                         const std::string& nm, const std::string& seq) {
    return "{\"seq\":" + seq +
           ",\"id\":\"a\",\"fp\":false,\"start\":0,\"end\":1,"
           "\"req\":{\"name\":\"a\",\"ts\":0,\"te\":1,\"d\":1,"
           "\"nodes\":[1,1],\"links\":[[" +
           link_from + ",1,1]]},\"map\":[" + map +
           ",1],\"embed\":{\"start\":0,\"end\":1,\"nm\":[" + nm +
           ",1],\"flow\":[]}}";
  };
  const auto decode = [](const std::string& text) {
    return decode_commit(parse_json(text, "<test>"), "<test>", 1);
  };
  EXPECT_EQ(decode(commit("0", "0", "0", "0")).original.num_links(), 1);
  for (const std::string bad : {"1e20", "-1", "2.5"}) {
    EXPECT_THROW(decode(commit(bad, "0", "0", "0")), ParseError) << bad;
    EXPECT_THROW(decode(commit("0", bad, "0", "0")), ParseError) << bad;
    EXPECT_THROW(decode(commit("0", "0", bad, "0")), ParseError) << bad;
    EXPECT_THROW(decode(commit("0", "0", "0", bad)), ParseError) << bad;
  }
  // An endpoint must also name one of the request's own nodes.
  EXPECT_THROW(decode(commit("2", "0", "0", "0")), ParseError);
}

TEST(ServeWal, FullRunRecoversByteIdenticalState) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const AdmissionOptions admission;
  const std::uint64_t fp = serve_state_fingerprint(substrate, admission);
  TempDir dir;

  std::string live_state;
  {
    AdmissionEngine engine(substrate, admission);
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
    EXPECT_FALSE(recovered.had_state);
    wal->attach(&engine);
    run_trace(&engine, wal.get(), trace);
    EXPECT_FALSE(wal->crashed());
    EXPECT_EQ(wal->stats().appends,
              static_cast<long>(engine.decisions_total()));
    // fsync=every: one barrier per record, durable before each ack.
    EXPECT_EQ(wal->stats().fsyncs, wal->stats().appends);
    live_state = encode_state(engine.snapshot_full());
    engine.set_state_sink({});
  }

  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
  EXPECT_TRUE(recovered.had_state);
  EXPECT_EQ(wal->stats().replayed,
            static_cast<long>(recovered.state.decisions));
  EXPECT_EQ(encode_state(recovered.state), live_state);
  // The recovered commit set passes the independent capacity validator.
  const core::ValidationResult check = validate_commit_state(
      substrate, recovered.state.commits, recovered.state.retired);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
  // restore() rehydrates an engine whose own full snapshot matches too.
  AdmissionEngine engine(substrate, admission);
  engine.restore(recovered.state);
  EXPECT_EQ(encode_state(engine.snapshot_full()), live_state);
}

TEST(ServeWal, BatchFsyncLosesNothingAcrossReopen) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;
  WalOptions options;
  options.fsync = WalOptions::Fsync::kBatch;
  options.batch_records = 4;

  std::string live_state;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
    wal->attach(&engine);
    run_trace(&engine, wal.get(), trace);
    // Far fewer barriers than records — that is the whole point of batch.
    EXPECT_LT(wal->stats().fsyncs, wal->stats().appends);
    live_state = encode_state(engine.snapshot_full());
    engine.set_state_sink({});
  }
  // A SIGKILL (process death, not power loss) keeps every written byte:
  // recovery sees all records even though most were never fsync'd.
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
  EXPECT_EQ(encode_state(recovered.state), live_state);
}

TEST(ServeWal, TornFinalRecordIsDroppedAndRepairedOnDisk) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;

  std::uint64_t decisions = 0;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    WalOptions options;
    options.snapshot_every = 0;  // keep everything in the log
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
    wal->attach(&engine);
    run_trace(&engine, wal.get(), trace);
    decisions = engine.decisions_total();
    engine.set_state_sink({});
  }
  const std::string log_path = dir.path + "/wal.jsonl";
  // Crash mid-append: a torn, unterminated fragment as the final record.
  {
    std::ofstream out(log_path, std::ios::app | std::ios::binary);
    out << "{\"txid\":999,\"t\":\"d\",\"id\":\"torn";
  }
  {
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
    EXPECT_EQ(wal->stats().torn_repaired, 1);
    EXPECT_EQ(recovered.state.decisions, decisions);  // fragment dropped
  }
  // The repair is durable: a second recovery finds a clean log.
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
  EXPECT_EQ(wal->stats().torn_repaired, 0);
  EXPECT_EQ(recovered.state.decisions, decisions);
}

TEST(ServeWal, MidLogCorruptionRefusesToResume) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    WalOptions options;
    options.snapshot_every = 0;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
    wal->attach(&engine);
    run_trace(&engine, wal.get(), trace);
    engine.set_state_sink({});
  }
  // Mangle a record in the *middle* of the log. Unlike a torn tail this
  // is real damage — silently skipping it would resurrect capacity that
  // later records already spent.
  const std::string log_path = dir.path + "/wal.jsonl";
  std::vector<std::string> lines = file_lines(log_path);
  ASSERT_GT(lines.size(), 4u);
  lines[2] = "{\"txid\":2,\"t\":\"d\",\"id\":truncated";
  {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
  }
  RecoveredState recovered;
  EXPECT_THROW(Wal::open(dir.path, fp, {}, &recovered), ParseError);
}

TEST(ServeWal, FingerprintMismatchRefusesToResume) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
    wal->attach(&engine);
    run_trace(&engine, wal.get(), trace);
    engine.set_state_sink({});
  }
  RecoveredState recovered;
  EXPECT_THROW(Wal::open(dir.path, fp ^ 1, {}, &recovered), ParseError);
  // And the fingerprint itself tracks everything that defines decision
  // identity: capacities and admission semantics, not latency knobs.
  EXPECT_EQ(serve_state_fingerprint(substrate, {}), fp);
  const net::SubstrateNetwork bigger =
      net::make_grid(p.grid_rows, p.grid_cols, p.node_capacity + 1.0,
                     p.link_capacity);
  EXPECT_NE(serve_state_fingerprint(bigger, {}), fp);
  AdmissionOptions no_gc;
  no_gc.gc = false;
  EXPECT_NE(serve_state_fingerprint(substrate, no_gc), fp);
  AdmissionOptions smaller_step;
  smaller_step.max_step_requests = 8;
  EXPECT_NE(serve_state_fingerprint(substrate, smaller_step), fp);
}

TEST(ServeWal, SnapshotCompactionBoundsTheLogAndPrunesGenerations) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;
  WalOptions options;
  options.snapshot_every = 4;
  options.snapshots_kept = 2;

  std::string live_state;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
    wal->attach(&engine);
    run_trace(&engine, wal.get(), trace);
    EXPECT_EQ(wal->stats().snapshots, 3);  // 12 decisions / every 4
    live_state = encode_state(engine.snapshot_full());
    engine.set_state_sink({});
  }
  // Compaction kept the log to a tail shorter than one snapshot interval
  // (header + records since the last snapshot) and pruned to 2 generations.
  EXPECT_LE(file_lines(dir.path + "/wal.jsonl").size(),
            1u + static_cast<std::size_t>(options.snapshot_every));
  EXPECT_EQ(count_snapshots(dir.path), 2);

  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
  EXPECT_TRUE(wal->stats().recovered_snapshot);
  EXPECT_EQ(encode_state(recovered.state), live_state);
}

TEST(ServeWal, ShortWriteTearsOnlyTheUnacknowledgedRecord) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;
  WalOptions options;
  options.snapshot_every = 0;
  int writes = 0;
  options.fault_hook = [&](const char* point) {
    if (std::strcmp(point, "append.write") == 0 && ++writes == 6)
      return WalFault::kShortWrite;
    return WalFault::kNone;
  };
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
    wal->attach(&engine);
    run_trace(&engine, wal.get(), trace);
    EXPECT_TRUE(wal->crashed());
    EXPECT_EQ(wal->stats().appends, 5);  // records past the tear never land
    engine.set_state_sink({});
  }
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
  EXPECT_EQ(wal->stats().torn_repaired, 1);
  // Exactly the five acknowledged decisions survive — the torn sixth was
  // never acked, so dropping it forfeits nothing.
  EXPECT_EQ(recovered.state.decisions, 5u);
}

TEST(ServeWal, EioDegradesDurabilityWithoutTakingServiceDown) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;
  WalOptions options;
  options.snapshot_every = 0;
  int syncs = 0;
  options.fault_hook = [&](const char* point) {
    if (std::strcmp(point, "append.fsync") == 0 && ++syncs == 3)
      return WalFault::kEio;
    return WalFault::kNone;
  };
  std::uint64_t decisions = 0;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
    wal->attach(&engine);
    run_trace(&engine, wal.get(), trace);
    decisions = engine.decisions_total();
    EXPECT_FALSE(wal->crashed());  // an I/O error is not a crash
    EXPECT_EQ(wal->stats().io_errors, 1);
    EXPECT_EQ(wal->stats().appends, static_cast<long>(decisions) - 1);
    engine.set_state_sink({});
  }
  // The failed fsync only weakened the power-loss barrier; the bytes
  // landed, so recovery still sees every decision.
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
  EXPECT_EQ(recovered.state.decisions, decisions);
}

TEST(ServeWal, ValidatorFlagsAnOverbookedRecoveredState) {
  const workload::WorkloadParams p = trace_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  AdmissionEngine engine(substrate, {});
  run_trace(&engine, nullptr, trace);
  const AdmissionEngine::Snapshot state = engine.snapshot_full();
  ASSERT_FALSE(state.commits.empty());
  EXPECT_TRUE(
      validate_commit_state(substrate, state.commits, state.retired).ok);
  // Doubling every active commit overbooks node capacity somewhere — the
  // recovery validator must notice (this is the check that refuses to
  // serve from a state dir whose substrate no longer fits its commits).
  std::vector<Commit> doubled = state.commits;
  doubled.insert(doubled.end(), state.commits.begin(), state.commits.end());
  EXPECT_FALSE(validate_commit_state(substrate, doubled, state.retired).ok);
}

TEST(ServeWal, AcceptBackoffEscalatesOnExhaustionAndResets) {
  AcceptBackoff backoff;
  // Per-connection noise retries immediately and does not escalate.
  EXPECT_EQ(backoff.on_error(EINTR), 0);
  EXPECT_EQ(backoff.on_error(ECONNABORTED), 0);
  EXPECT_EQ(backoff.on_error(EPROTO), 0);
  EXPECT_EQ(backoff.current_delay_ms(), 0);
  // Descriptor exhaustion doubles from 10 ms to the 500 ms cap.
  EXPECT_EQ(backoff.on_error(EMFILE), 10);
  EXPECT_EQ(backoff.on_error(ENFILE), 20);
  EXPECT_EQ(backoff.on_error(ENOBUFS), 40);
  int delay = 40;
  for (int i = 0; i < 10; ++i) delay = backoff.on_error(EMFILE);
  EXPECT_EQ(delay, AcceptBackoff::kMaxMs);
  // A successful accept resets the ladder.
  backoff.on_success();
  EXPECT_EQ(backoff.current_delay_ms(), 0);
  EXPECT_EQ(backoff.on_error(EMFILE), 10);
}

}  // namespace
}  // namespace tvnep::serve
