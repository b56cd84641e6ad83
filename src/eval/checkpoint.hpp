// Crash-safe sweep checkpointing: a JSONL journal (support/journal) with
// one durably appended (write + fsync) record per completed sweep cell, so a
// sweep killed at hour three restarts in seconds — `--resume <journal>`
// skips every journaled cell and reconstitutes its row into the final
// CSVs instead of re-solving it.
//
// Journal format (one JSON object per line):
//
//   {"journal":"tvnep-sweep","version":1,"fingerprint":"<16 hex>"}
//   {"label":"cSigma","flex_index":0,"seed":1,"fields":{...}}
//   ...
//
// The first line is the header; `fingerprint` hashes the sweep-identity
// configuration (workload shape, grid, time limit, cuts, fault injection,
// bench id). Resuming refuses a journal whose fingerprint differs — a
// journal written under other flags would silently mix incompatible rows
// into one CSV. `fields` is a flat object of the cell's result row
// (numbers, strings, bools; non-finite numbers are stored as the strings
// "inf"/"-inf"/"nan" to stay valid JSON).
//
// Crash tolerance (shared with the serve WAL through support/journal): a
// torn final line — unparseable, or parseable but missing its newline —
// is the record being appended when the process died; it is dropped on
// load and repaired on disk. A malformed line anywhere else is a real
// corruption and raises a ParseError annotated with the journal path,
// line and column.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tvnep {
class Journal;
}

namespace tvnep::eval {

struct SweepConfig;

/// One field value of a journal record.
struct JournalValue {
  enum class Kind { kNumber, kString, kBool };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string string;
  bool boolean = false;

  JournalValue() = default;
  JournalValue(double v) : kind(Kind::kNumber), number(v) {}
  JournalValue(std::string v) : kind(Kind::kString), string(std::move(v)) {}
  JournalValue(const char* v) : kind(Kind::kString), string(v) {}
  JournalValue(bool v) : kind(Kind::kBool), boolean(v) {}

  /// Numeric view: numbers as-is, bools as 0/1, and the sentinel strings
  /// "inf"/"-inf"/"nan" (how encode_number stores non-finite values) back
  /// to their doubles. Anything else returns `fallback`.
  double as_number(double fallback = 0.0) const;
  bool as_bool(bool fallback = false) const;
  const std::string& as_string() const { return string; }
};

/// Identity of one sweep cell inside a journal. `label` carries the model
/// / variant / objective the bench is iterating over; flex_index and seed
/// address the grid cell.
struct CellKey {
  std::string label;
  int flex_index = 0;
  int seed = 0;

  friend bool operator<(const CellKey& a, const CellKey& b) {
    if (a.label != b.label) return a.label < b.label;
    if (a.flex_index != b.flex_index) return a.flex_index < b.flex_index;
    return a.seed < b.seed;
  }
  friend bool operator==(const CellKey& a, const CellKey& b) {
    return a.label == b.label && a.flex_index == b.flex_index &&
           a.seed == b.seed;
  }
};

/// Stable hash of a cell key — the seed for deterministic per-cell retry
/// jitter and the tie-breaker tests rely on.
std::uint64_t cell_key_hash(const CellKey& key);

struct CellRecord {
  CellKey key;
  std::map<std::string, JournalValue> fields;

  double number(const std::string& name, double fallback = 0.0) const;
  bool boolean(const std::string& name, bool fallback = false) const;
  std::string text(const std::string& name,
                   const std::string& fallback = {}) const;
  bool has(const std::string& name) const {
    return fields.find(name) != fields.end();
  }
};

class SweepJournal {
 public:
  /// Starts a fresh journal at `path` (atomic header write: the header
  /// goes to a temp file that is fsync'd and renamed into place, so a
  /// journal either exists with a valid header or not at all).
  static std::unique_ptr<SweepJournal> create(const std::string& path,
                                              std::uint64_t fingerprint);

  /// Loads an existing journal and continues appending to it. Verifies
  /// the header fingerprint against `fingerprint` and throws ParseError
  /// when they differ (refusing to resume across incompatible configs) or
  /// when a non-final line is malformed. A torn final line is dropped and
  /// repaired on disk.
  /// A missing file degrades to create() — resuming before the first
  /// record was ever written is not an error.
  static std::unique_ptr<SweepJournal> resume(const std::string& path,
                                              std::uint64_t fingerprint);

  /// The journaled record for `key`, or nullptr. Safe to call concurrently
  /// with append() — loaded records are immutable after construction and
  /// append() never inserts into the lookup map.
  const CellRecord* find(const CellKey& key) const;

  /// Number of records reloaded from disk by resume().
  std::size_t loaded() const { return loaded_; }

  /// Durably appends one record: the line is written and fsync'd
  /// before this returns, so a record implies the cell survives a SIGKILL
  /// immediately after. Thread-safe. Returns false on I/O failure (the
  /// sweep carries on — a dead journal degrades resumability, not
  /// results).
  bool append(const CellRecord& record);

  const std::string& path() const;

  ~SweepJournal();

 private:
  SweepJournal() = default;

  std::unique_ptr<Journal> journal_;
  std::map<CellKey, CellRecord> records_;  // loaded (resume) records only
  std::size_t loaded_ = 0;
  std::mutex append_mutex_;
};

/// Fingerprint of everything that defines cell identity/outcomes for a
/// sweep (bench id, workload shape, grid, limits, cut set, fault
/// injection). Threads, progress and observability knobs are excluded —
/// they do not change what a cell computes.
std::uint64_t sweep_fingerprint(const SweepConfig& config,
                                const std::string& bench_id);

/// Renders a journal value for embedding in a JSON object (quotes and
/// escapes strings, maps non-finite numbers to their sentinel strings).
std::string journal_value_json(const JournalValue& value);

/// Serializes a full record as one JSONL line (no trailing newline).
std::string journal_record_json(const CellRecord& record);

}  // namespace tvnep::eval
