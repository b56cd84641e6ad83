// The fsync'd JSONL journal under both durable logs: the sweep checkpoint
// (eval/checkpoint) and the serve WAL (serve/wal). A journal is one file:
//
//   {"<magic key>":"<magic>","version":N,"fingerprint":"<16 hex>"}
//   <record>
//   ...
//
// one JSON object per line after a header naming the format, its version
// and an FNV-1a fingerprint of the configuration that wrote it. Opening
// refuses (ParseError) a header of another format, version or
// fingerprint, so records written under other settings never mix in.
//
// Durability. Records are appended with one write() on a persistent
// O_APPEND descriptor and fsync'd per record or per batch. A record is
// durable iff it is newline-terminated and parseable: on open, a final
// line that does not parse, or parses but has no terminating newline, is
// the append that was in flight when the writer died — it is dropped and
// the file is atomically rewritten without it, so the next append cannot
// splice onto the torn bytes. A bad line anywhere else is corruption and
// throws ParseError.
//
// Fault seam. JournalOptions::fault_hook is called at the named kill
// points "append.before_write", "append.write", "append.after_write",
// "append.fsync" and "append.after_fsync"; it can freeze the file as a
// dying process would (kCrash), tear the record (kShortWrite: half the
// bytes, no newline, then crash) or fail the I/O (kEio, survivable).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace tvnep {

/// FNV-1a, the one stable hash behind journal fingerprints and cell keys.
std::uint64_t fnv1a(const std::string& data,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

/// Reads `path` split at '\n' into `lines`; `*terminated` reports whether
/// the last line ended in a newline. False when the file cannot be opened.
bool read_lines(const std::string& path, std::vector<std::string>* lines,
                bool* terminated);

/// Fixed-width (16 digit) lowercase hex, as written in journal headers.
std::string fingerprint_hex(std::uint64_t fingerprint);

/// Names a journal format: the header is
/// {"<magic_key>":"<magic>","version":<version>,"fingerprint":"..."}.
struct JournalFormat {
  const char* magic_key;
  const char* magic;
  int version;
};

/// Throws ParseError (line 1 of `source`) unless `header` names `format`
/// at its version and carries `fingerprint`.
void check_journal_header(const JsonValue& header, const JournalFormat& format,
                          std::uint64_t fingerprint, const std::string& source);

enum class JournalFault { kNone, kCrash, kShortWrite, kEio };

struct JournalOptions {
  /// fsync after every `sync_every` appended records (1 = per record).
  int sync_every = 1;
  std::function<JournalFault(const char* point)> fault_hook;
};

/// What one append did, for the caller's stats and timings.
struct AppendResult {
  bool durable = false;        // written and, per the sync policy, synced
  bool written = false;        // the whole record reached the file
  bool bytes_on_disk = false;  // some of the record's bytes are in the file
  bool io_error = false;       // an injected or real I/O failure
  bool synced = false;         // an fsync ran and succeeded
  double write_seconds = 0.0;  // the completed write() call
  double fsync_seconds = 0.0;  // the successful fsync() call
};

struct JournalRecord {
  long line = 0;  // 1-based line in the file
  JsonValue value;
};

/// Not synchronized: callers serialize appends themselves.
class Journal {
 public:
  /// Starts a fresh journal at `path` holding only the header, written
  /// atomically (temp file + fsync + rename). Throws ParseError on failure.
  static std::unique_ptr<Journal> create(const std::string& path,
                                         const JournalFormat& format,
                                         std::uint64_t fingerprint,
                                         JournalOptions options = {});

  /// Opens the journal at `path` and hands back its durable records in
  /// file order; a missing or empty file degrades to create(). Repairs a
  /// torn final record on disk; throws ParseError on a foreign header or
  /// a bad line before the last.
  static std::unique_ptr<Journal> open(const std::string& path,
                                       const JournalFormat& format,
                                       std::uint64_t fingerprint,
                                       JournalOptions options,
                                       std::vector<JournalRecord>* records);

  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends `line` plus a newline and syncs per the policy.
  AppendResult append(const std::string& line);

  /// Truncates the journal to a bare header (atomic rewrite) and reopens
  /// the appender — log compaction once the records live elsewhere.
  /// Returns false when the rewrite or the reopen failed; after a failed
  /// reopen the journal is dead.
  bool reset();

  /// Freezes the journal: no further bytes reach the file.
  void kill() { dead_ = true; }
  bool dead() const { return dead_; }

  /// open() found an existing journal (header present).
  bool existed() const { return existed_; }
  /// open() dropped a torn final record and repaired the file.
  bool torn_repaired() const { return torn_repaired_; }

  const std::string& path() const { return path_; }

 private:
  Journal() = default;

  JournalFault fault_at(const char* point) const;
  bool reopen();

  std::string path_;
  std::string header_;  // header line, newline-terminated
  JournalOptions options_;
  int fd_ = -1;
  bool dead_ = false;
  bool existed_ = false;
  bool torn_repaired_ = false;
  int unsynced_records_ = 0;
};

}  // namespace tvnep
