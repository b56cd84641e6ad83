// Atomic file replacement: write the full contents to a sibling temp file,
// fsync it, then rename() it over the destination. A crash at any point
// leaves either the complete old file or the complete new file on disk —
// never a half-written export. The sweep CSVs, the obs trace/metrics
// exports, WAL snapshots and journal headers all go through this helper
// so an interrupted run can always trust what it finds on restart.
#pragma once

#include <sstream>
#include <string>

namespace tvnep {

/// Collects content in memory and commits it atomically. Destruction
/// without commit() discards the content and leaves the destination
/// untouched.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// The buffer to write into (plain ostream formatting applies).
  std::ostream& stream() { return buffer_; }

  /// Writes the buffer to "<path>.tmp.<pid>", fsyncs, and renames it over
  /// the destination. Returns false (and removes the temp file) when any
  /// step fails; the destination is then untouched. Idempotent: a second
  /// call after success is a no-op returning true.
  bool commit();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ostringstream buffer_;
  bool committed_ = false;
};

/// One-shot convenience: atomically replaces `path` with `content`.
bool atomic_write_file(const std::string& path, const std::string& content);

}  // namespace tvnep
