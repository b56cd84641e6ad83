#include "serve/wal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "net/instance.hpp"
#include "obs/metrics.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/parse_error.hpp"

namespace tvnep::serve {

namespace {

constexpr int kWalVersion = 1;
constexpr const char* kLogName = "wal.jsonl";
constexpr JournalFormat kLogFormat{"wal", "tvnep-serve", kWalVersion};
constexpr JournalFormat kSnapshotFormat{"snapshot", "tvnep-serve",
                                        kWalVersion};

std::string snapshot_name(std::uint64_t tag) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "snapshot-%016llx.state",
                static_cast<unsigned long long>(tag));
  return buffer;
}

const char* outcome_name(AdmitOutcome outcome) {
  switch (outcome) {
    case AdmitOutcome::kAccepted: return "accepted";
    case AdmitOutcome::kRejected: return "rejected";
    case AdmitOutcome::kWindowClosed: return "window_closed";
    case AdmitOutcome::kComponentTooLarge: return "component_too_large";
    case AdmitOutcome::kSolverFailed: return "solver_failed";
    case AdmitOutcome::kInvalidMapping: return "invalid_mapping";
  }
  return "rejected";
}

// ----- embedding codec -----

std::string encode_embedding(const core::RequestEmbedding& embedding) {
  std::string out = "{\"start\":" + exact_number(embedding.start) +
                    ",\"end\":" + exact_number(embedding.end) + ",\"nm\":[";
  for (std::size_t i = 0; i < embedding.node_mapping.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(embedding.node_mapping[i]);
  }
  out += "],\"flow\":[";
  for (std::size_t i = 0; i < embedding.link_flow.size(); ++i) {
    if (i != 0) out += ',';
    out += exact_number(embedding.link_flow[i]);
  }
  out += "]}";
  return out;
}

core::RequestEmbedding decode_embedding(const JsonValue& value,
                                        const std::string& source, long line) {
  core::RequestEmbedding embedding;
  embedding.accepted = true;  // only accepted commits are ever persisted
  embedding.start = number_member(value, "start", source, line);
  embedding.end = number_member(value, "end", source, line);
  for (const JsonValue& node : array_member(value, "nm", source, line))
    embedding.node_mapping.push_back(require_index(
        node, "node mapping entry", kAnyIntIndex, source, line));
  for (const JsonValue& flow : array_member(value, "flow", source, line)) {
    if (!flow.is_number())
      throw ParseError(source, line, 0, "flow entry is not a number");
    embedding.link_flow.push_back(flow.as_number());
  }
  return embedding;
}

std::string encode_seq_embedding(std::uint64_t seq,
                                 const core::RequestEmbedding& embedding) {
  return "{\"seq\":" + std::to_string(seq) +
         ",\"embed\":" + encode_embedding(embedding) + "}";
}

// ----- record codec -----

std::string encode_decision(const StateTransition& txn, std::uint64_t txid) {
  std::string out = "{\"txid\":" + std::to_string(txid) +
                    ",\"t\":\"d\",\"id\":" + json_quote(txn.request_id) +
                    ",\"outcome\":\"" + outcome_name(txn.outcome) +
                    "\",\"fp\":" + (txn.fastpath ? "true" : "false") +
                    ",\"now\":" + exact_number(txn.now) +
                    ",\"version\":" + std::to_string(txn.version) +
                    ",\"next_seq\":" + std::to_string(txn.next_seq) +
                    ",\"accepted\":" + std::to_string(txn.accepted_total) +
                    ",\"decisions\":" + std::to_string(txn.decisions) +
                    ",\"retired\":[";
  for (std::size_t i = 0; i < txn.retired.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(txn.retired[i]);
  }
  out += "],\"embeds\":[";
  for (std::size_t i = 0; i < txn.refreshed.size(); ++i) {
    if (i != 0) out += ',';
    out += encode_seq_embedding(txn.refreshed[i]->seq,
                                txn.refreshed[i]->embedding);
  }
  out += "]";
  if (txn.commit != nullptr) out += ",\"commit\":" + encode_commit(*txn.commit);
  out += "}";
  return out;
}

std::string encode_install(const StateTransition& txn, std::uint64_t txid) {
  std::string out = "{\"txid\":" + std::to_string(txid) +
                    ",\"t\":\"i\",\"now\":" + exact_number(txn.now) +
                    ",\"version\":" + std::to_string(txn.version) +
                    ",\"next_seq\":" + std::to_string(txn.next_seq) +
                    ",\"accepted\":" + std::to_string(txn.accepted_total) +
                    ",\"decisions\":" + std::to_string(txn.decisions) +
                    ",\"resched\":[";
  const auto& reschedules = *txn.reschedules;
  for (std::size_t i = 0; i < reschedules.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"seq\":" + std::to_string(reschedules[i].seq) +
           ",\"start\":" + exact_number(reschedules[i].start) +
           ",\"end\":" + exact_number(reschedules[i].end) +
           ",\"embed\":" + encode_embedding(reschedules[i].embedding) + "}";
  }
  out += "],\"embeds\":[";
  const auto& embeddings = *txn.embeddings;
  for (std::size_t i = 0; i < embeddings.size(); ++i) {
    if (i != 0) out += ',';
    out += encode_seq_embedding(embeddings[i].seq, embeddings[i].embedding);
  }
  out += "]}";
  return out;
}

Commit* find_commit(std::vector<Commit>* commits, std::uint64_t seq) {
  for (Commit& c : *commits)
    if (c.seq == seq) return &c;
  return nullptr;
}

// Replays one record onto the recovered state, in the same order the
// engine mutated itself: retire (the call's now-advance), refresh the
// component flows, then append the accepted commit; installs apply
// reschedules before the joint flow refresh.
void apply_record(AdmissionEngine::Snapshot* state, const JsonValue& record,
                  const std::string& source, long line) {
  state->now = number_member(record, "now", source, line);
  state->version = uint_member(record, "version", source, line);
  state->next_seq = uint_member(record, "next_seq", source, line);
  state->accepted_total = uint_member(record, "accepted", source, line);
  state->decisions = uint_member(record, "decisions", source, line);
  const std::string& type = string_member(record, "t", source, line);
  if (type == "d") {
    for (const JsonValue& seq : array_member(record, "retired", source, line)) {
      const std::uint64_t target =
          require_uint(seq, "retired entry", source, line);
      for (std::size_t i = 0; i < state->commits.size(); ++i) {
        if (state->commits[i].seq != target) continue;
        state->retired.push_back(std::move(state->commits[i]));
        state->commits.erase(state->commits.begin() +
                             static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    for (const JsonValue& entry : array_member(record, "embeds", source, line)) {
      Commit* commit = find_commit(
          &state->commits, uint_member(entry, "seq", source, line));
      if (commit != nullptr)
        commit->embedding = decode_embedding(
            member(entry, "embed", source, line), source, line);
    }
    if (const JsonValue* commit = record.find("commit"))
      state->commits.push_back(decode_commit(*commit, source, line));
  } else if (type == "i") {
    for (const JsonValue& entry :
         array_member(record, "resched", source, line)) {
      Commit* commit = find_commit(
          &state->commits, uint_member(entry, "seq", source, line));
      if (commit == nullptr) continue;
      commit->start = number_member(entry, "start", source, line);
      commit->end = number_member(entry, "end", source, line);
      commit->embedding =
          decode_embedding(member(entry, "embed", source, line), source, line);
    }
    for (const JsonValue& entry : array_member(record, "embeds", source, line)) {
      Commit* commit = find_commit(
          &state->commits, uint_member(entry, "seq", source, line));
      if (commit != nullptr)
        commit->embedding = decode_embedding(
            member(entry, "embed", source, line), source, line);
    }
  } else {
    throw ParseError(source, line, 0, "unknown record type \"" + type + "\"");
  }
}

/// (decisions, version) orders every transition strictly: a decision
/// bumps the first component, an install the second. A replayed record is
/// already reflected in the snapshot iff its pair is not greater — the
/// race-free skip rule for records appended while the snapshot was taken.
bool record_after_state(const AdmissionEngine::Snapshot& state,
                        std::uint64_t decisions, std::uint64_t version) {
  if (decisions != state.decisions) return decisions > state.decisions;
  return version > state.version;
}

/// Loads one snapshot generation. Returns false on damage (caller falls
/// back to an older generation); throws ParseError on a fingerprint or
/// format-version mismatch (an incompatible resume must be refused, not
/// silently ignored).
bool load_snapshot(const std::string& path, std::uint64_t fingerprint,
                   AdmissionEngine::Snapshot* out) {
  std::vector<std::string> lines;
  bool terminated = true;
  if (!read_lines(path, &lines, &terminated) || lines.empty()) return false;
  JsonValue header;
  try {
    header = parse_json(lines[0], path, 1);
  } catch (const ParseError&) {
    return false;  // damaged header: try an older generation
  }
  check_journal_header(header, kSnapshotFormat, fingerprint, path);
  try {
    AdmissionEngine::Snapshot state;
    state.version = uint_member(header, "engine_version", path, 1);
    state.now = number_member(header, "now", path, 1);
    state.next_seq = uint_member(header, "next_seq", path, 1);
    state.accepted_total = uint_member(header, "accepted", path, 1);
    state.decisions = uint_member(header, "decisions", path, 1);
    const auto active = uint_member(header, "active", path, 1);
    const auto retired = uint_member(header, "retired", path, 1);
    if (!terminated || lines.size() != 1 + active + retired)
      return false;  // truncated: AtomicFile should prevent this, but trust
                     // nothing at recovery time
    for (std::uint64_t i = 0; i < active + retired; ++i) {
      const long line = static_cast<long>(i) + 2;
      Commit commit = decode_commit(
          parse_json(lines[static_cast<std::size_t>(line - 1)], path, line),
          path, line);
      (i < active ? state.commits : state.retired)
          .push_back(std::move(commit));
    }
    *out = std::move(state);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

}  // namespace

std::string encode_commit(const Commit& commit) {
  const net::VnetRequest& request = commit.original;
  std::string out = "{\"seq\":" + std::to_string(commit.seq) +
                    ",\"id\":" + json_quote(commit.id) +
                    ",\"fp\":" + (commit.fastpath ? "true" : "false") +
                    ",\"start\":" + exact_number(commit.start) +
                    ",\"end\":" + exact_number(commit.end) +
                    ",\"req\":{\"name\":" + json_quote(request.name()) +
                    ",\"ts\":" + exact_number(request.earliest_start()) +
                    ",\"te\":" + exact_number(request.latest_end()) +
                    ",\"d\":" + exact_number(request.duration()) + ",\"nodes\":[";
  for (int v = 0; v < request.num_nodes(); ++v) {
    if (v != 0) out += ',';
    out += exact_number(request.node_demand(v));
  }
  out += "],\"links\":[";
  for (int e = 0; e < request.num_links(); ++e) {
    if (e != 0) out += ',';
    const net::VirtualLink& link = request.link(e);
    out += "[" + std::to_string(link.from) + "," + std::to_string(link.to) +
           "," + exact_number(link.demand) + "]";
  }
  out += "]}";
  if (commit.mapping.has_value()) {
    out += ",\"map\":[";
    for (std::size_t i = 0; i < commit.mapping->size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string((*commit.mapping)[i]);
    }
    out += "]";
  }
  out += ",\"embed\":" + encode_embedding(commit.embedding) + "}";
  return out;
}

Commit decode_commit(const JsonValue& value, const std::string& source,
                     long line) {
  Commit commit;
  commit.seq = uint_member(value, "seq", source, line);
  commit.id = string_member(value, "id", source, line);
  commit.fastpath = bool_member(value, "fp", source, line);
  commit.start = number_member(value, "start", source, line);
  commit.end = number_member(value, "end", source, line);
  const JsonValue& req = member(value, "req", source, line);
  net::VnetRequest request(string_member(req, "name", source, line));
  for (const JsonValue& demand : array_member(req, "nodes", source, line)) {
    if (!demand.is_number())
      throw ParseError(source, line, 0, "node demand is not a number");
    request.add_node(demand.as_number());
  }
  for (const JsonValue& link : array_member(req, "links", source, line)) {
    if (!link.is_array() || link.as_array().size() != 3 ||
        !link.as_array()[0].is_number() || !link.as_array()[1].is_number() ||
        !link.as_array()[2].is_number())
      throw ParseError(source, line, 0, "virtual link is not [from,to,demand]");
    request.add_link(require_index(link.as_array()[0], "virtual link endpoint",
                                   request.num_nodes(), source, line),
                     require_index(link.as_array()[1], "virtual link endpoint",
                                   request.num_nodes(), source, line),
                     link.as_array()[2].as_number());
  }
  request.set_temporal(number_member(req, "ts", source, line),
                       number_member(req, "te", source, line),
                       number_member(req, "d", source, line));
  commit.original = std::move(request);
  if (value.find("map") != nullptr) {
    std::vector<net::NodeId> mapping;
    for (const JsonValue& node : array_member(value, "map", source, line))
      mapping.push_back(
          require_index(node, "mapping entry", kAnyIntIndex, source, line));
    commit.mapping = std::move(mapping);
  }
  commit.embedding =
      decode_embedding(member(value, "embed", source, line), source, line);
  return commit;
}

std::uint64_t serve_state_fingerprint(const net::SubstrateNetwork& substrate,
                                      const AdmissionOptions& options) {
  std::string spec = "wal=" + std::to_string(kWalVersion) +
                     ";nodes=" + std::to_string(substrate.num_nodes()) + ";";
  for (int v = 0; v < substrate.num_nodes(); ++v)
    spec += exact_number(substrate.node_capacity(v)) + ",";
  spec += ";links=" + std::to_string(substrate.num_links()) + ";";
  for (int e = 0; e < substrate.num_links(); ++e) {
    const net::SubstrateLink& link = substrate.link(e);
    spec += std::to_string(link.from) + ">" + std::to_string(link.to) + "=" +
            exact_number(link.capacity) + ",";
  }
  spec += ";max_step=" + std::to_string(options.max_step_requests) +
          ";gc=" + std::to_string(options.gc ? 1 : 0);
  return fnv1a(spec);
}

core::ValidationResult validate_commit_state(
    const net::SubstrateNetwork& substrate, const std::vector<Commit>& active,
    const std::vector<Commit>& retired) {
  net::TvnepInstance instance(substrate, 0.0);
  core::TvnepSolution solution;
  const auto add = [&](const Commit& commit) {
    instance.add_request(commit.original, commit.mapping);
    core::RequestEmbedding embedding = commit.embedding;
    embedding.accepted = true;
    embedding.start = commit.start;
    embedding.end = commit.end;
    solution.requests.push_back(std::move(embedding));
  };
  for (const Commit& commit : active) add(commit);
  for (const Commit& commit : retired) add(commit);
  instance.fit_horizon();
  return core::validate_solution(instance, solution);
}

// ----- Wal -----

std::unique_ptr<Wal> Wal::open(const std::string& dir,
                               std::uint64_t fingerprint, WalOptions options,
                               RecoveredState* recovered) {
  namespace fs = std::filesystem;
  std::unique_ptr<Wal> wal(new Wal);
  wal->dir_ = dir;
  wal->fingerprint_ = fingerprint;
  wal->options_ = std::move(options);

  std::error_code ec;
  fs::create_directories(dir, ec);
  TVNEP_REQUIRE(!ec, "cannot create state dir " + dir);

  RecoveredState result;

  // 1. Newest valid snapshot. Fixed-width hex tags make the lexicographic
  // sort the txid sort; a damaged generation falls back to the previous
  // one, an incompatible one (fingerprint/format) refuses via ParseError.
  std::vector<std::string> snapshots;
  std::uint64_t max_snapshot_tag = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 &&
        name.size() > std::string("snapshot-.state").size() &&
        name.substr(name.size() - 6) == ".state") {
      snapshots.push_back(name);
      max_snapshot_tag = std::max<std::uint64_t>(
          max_snapshot_tag, std::strtoull(name.c_str() + 9, nullptr, 16));
    }
  }
  std::sort(snapshots.rbegin(), snapshots.rend());
  for (const std::string& name : snapshots) {
    result.had_state = true;
    if (load_snapshot(dir + "/" + name, fingerprint, &result.state)) {
      wal->stats_.recovered_snapshot = true;
      break;
    }
  }

  // 2. Replay the log tail. The journal has already dropped (and repaired
  // on disk) a torn final record; a record is applied iff its
  // (decisions, version) pair postdates the state built so far.
  JournalOptions journal_options;
  journal_options.sync_every = wal->options_.fsync == WalOptions::Fsync::kEvery
                                   ? 1
                                   : wal->options_.batch_records;
  journal_options.fault_hook = wal->options_.fault_hook;
  const std::string log_path = dir + "/" + kLogName;
  std::vector<JournalRecord> records;
  wal->journal_ = Journal::open(log_path, kLogFormat, fingerprint,
                                std::move(journal_options), &records);
  if (wal->journal_->existed()) result.had_state = true;
  std::uint64_t last_txid = 0;
  for (const JournalRecord& record : records) {
    const std::uint64_t txid =
        uint_member(record.value, "txid", log_path, record.line);
    if (txid <= last_txid && last_txid != 0)
      throw ParseError(log_path, record.line, 0, "txid not increasing");
    last_txid = txid;
    const std::uint64_t decisions =
        uint_member(record.value, "decisions", log_path, record.line);
    const std::uint64_t version =
        uint_member(record.value, "version", log_path, record.line);
    if (record_after_state(result.state, decisions, version)) {
      apply_record(&result.state, record.value, log_path, record.line);
      ++wal->stats_.replayed;
    }
  }
  const bool torn = wal->journal_->torn_repaired();
  if (torn) {
    ++wal->stats_.torn_repaired;
    obs::counter_add("serve.wal.torn_repaired");
  }
  if (wal->stats_.replayed > 0)
    obs::counter_add("serve.wal.replayed",
                     static_cast<double>(wal->stats_.replayed));

  // Strictly past everything on disk: the last record, the decision
  // counter, and the newest snapshot tag — a fresh snapshot must always
  // sort as the newest generation.
  wal->next_txid_ = std::max({last_txid + 1, result.state.decisions + 1,
                              max_snapshot_tag + 1});

  // 3. Compact what was replayed into a fresh snapshot, so a crash loop
  // replays a bounded tail instead of an ever-growing one.
  if (wal->stats_.replayed > 0 || torn)
    (void)wal->write_snapshot_locked(result.state);

  if (recovered != nullptr) *recovered = std::move(result);
  return wal;
}

Wal::~Wal() = default;

void Wal::attach(AdmissionEngine* engine) {
  engine->set_state_sink(
      [this](const StateTransition& txn) { (void)on_transition(txn); });
}

bool Wal::on_transition(const StateTransition& txn) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (journal_->dead()) return false;
  const std::string line = txn.kind == StateTransition::Kind::kDecision
                               ? encode_decision(txn, next_txid_)
                               : encode_install(txn, next_txid_);
  const AppendResult append = journal_->append(line);
  if (append.written)
    obs::histogram_observe("serve.wal.append_ms", append.write_seconds * 1e3);
  if (append.synced) {
    obs::histogram_observe("serve.wal.fsync_ms", append.fsync_seconds * 1e3);
    ++stats_.fsyncs;
    obs::counter_add("serve.wal.fsyncs");
  }
  if (append.io_error) count_io_error();
  if (append.durable) {
    ++stats_.appends;
    obs::counter_add("serve.wal.appends");
  }
  // The txid advances whenever bytes reached the log — a record whose
  // fsync failed is on disk (and will replay) even though it is not
  // durable; reusing its txid would make the next record violate the
  // strictly-increasing invariant recovery enforces.
  if (append.bytes_on_disk) {
    ++next_txid_;
    if (txn.kind == StateTransition::Kind::kDecision)
      ++decisions_since_snapshot_;
  }
  return append.durable;
}

WalFault Wal::fault_at(const char* point) {
  return options_.fault_hook ? options_.fault_hook(point) : WalFault::kNone;
}

void Wal::count_io_error() {
  ++stats_.io_errors;
  obs::counter_add("serve.wal.io_errors");
}

bool Wal::wants_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !journal_->dead() && options_.snapshot_every > 0 &&
         decisions_since_snapshot_ >= options_.snapshot_every;
}

bool Wal::write_snapshot(const AdmissionEngine::Snapshot& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_snapshot_locked(state);
}

bool Wal::write_snapshot_locked(const AdmissionEngine::Snapshot& state) {
  if (journal_->dead()) return false;
  switch (fault_at("snapshot.before_write")) {
    case WalFault::kCrash: journal_->kill(); return false;
    case WalFault::kEio: count_io_error(); return false;
    default: break;
  }
  const std::uint64_t tag = next_txid_;
  AtomicFile file(dir_ + "/" + snapshot_name(tag));
  file.stream() << "{\"snapshot\":\"tvnep-serve\",\"version\":" << kWalVersion
                << ",\"fingerprint\":\"" << fingerprint_hex(fingerprint_)
                << "\",\"txid\":" << tag
                << ",\"engine_version\":" << state.version
                << ",\"now\":" << exact_number(state.now)
                << ",\"next_seq\":" << state.next_seq
                << ",\"accepted\":" << state.accepted_total
                << ",\"decisions\":" << state.decisions
                << ",\"active\":" << state.commits.size()
                << ",\"retired\":" << state.retired.size() << "}\n";
  for (const Commit& commit : state.commits)
    file.stream() << encode_commit(commit) << "\n";
  for (const Commit& commit : state.retired)
    file.stream() << encode_commit(commit) << "\n";
  if (!file.commit()) {
    count_io_error();
    return false;
  }
  ++stats_.snapshots;
  obs::counter_add("serve.wal.snapshots");
  decisions_since_snapshot_ = 0;
  if (fault_at("snapshot.after_write") == WalFault::kCrash) {
    // The snapshot is durable; the stale log is harmless — replay skips
    // records the snapshot already reflects.
    journal_->kill();
    return false;
  }
  // Compact: reset the log to a bare header.
  if (!journal_->reset()) {
    count_io_error();
    return true;  // snapshot still landed
  }
  // Prune old generations, newest options_.snapshots_kept survive.
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 &&
        name.substr(std::max<std::size_t>(name.size(), 6) - 6) == ".state")
      names.push_back(name);
  }
  std::sort(names.rbegin(), names.rend());
  for (std::size_t i = static_cast<std::size_t>(
           std::max(options_.snapshots_kept, 1));
       i < names.size(); ++i)
    fs::remove(dir_ + "/" + names[i], ec);
  if (fault_at("snapshot.after_compact") == WalFault::kCrash) journal_->kill();
  return true;
}

bool Wal::crashed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return journal_->dead();
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace tvnep::serve
