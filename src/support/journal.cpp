#include "support/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/atomic_file.hpp"
#include "support/parse_error.hpp"
#include "support/stopwatch.hpp"

namespace tvnep {

namespace {

std::string header_line(const JournalFormat& format,
                        std::uint64_t fingerprint) {
  return std::string("{\"") + format.magic_key + "\":\"" + format.magic +
         "\",\"version\":" + std::to_string(format.version) +
         ",\"fingerprint\":\"" + fingerprint_hex(fingerprint) + "\"}\n";
}

}  // namespace

std::uint64_t fnv1a(const std::string& data, std::uint64_t hash) {
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

bool read_lines(const std::string& path, std::vector<std::string>* lines,
                bool* terminated) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  lines->clear();
  *terminated = content.empty() || content.back() == '\n';
  for (std::size_t begin = 0; begin < content.size();) {
    const std::size_t end = std::min(content.find('\n', begin), content.size());
    lines->push_back(content.substr(begin, end - begin));
    begin = end + 1;
  }
  return true;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

void check_journal_header(const JsonValue& header, const JournalFormat& format,
                          std::uint64_t fingerprint,
                          const std::string& source) {
  const JsonValue* magic = header.find(format.magic_key);
  if (magic == nullptr || !magic->is_string() ||
      magic->as_string() != format.magic)
    throw ParseError(source, 1, 0,
                     std::string("not a ") + format.magic + " file (bad \"" +
                         format.magic_key + "\" header)");
  const JsonValue* version = header.find("version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != format.version)
    throw ParseError(
        source, 1, 0,
        "format version " +
            (version != nullptr && version->is_number()
                 ? std::to_string(static_cast<long>(version->as_number()))
                 : std::string("?")) +
            " (this build reads " + std::to_string(format.version) + ")");
  const JsonValue* have = header.find("fingerprint");
  const std::string want = fingerprint_hex(fingerprint);
  if (have == nullptr || !have->is_string() || have->as_string() != want)
    throw ParseError(
        source, 1, 0,
        "refusing to resume: written under a different configuration "
        "(fingerprint " +
            (have != nullptr && have->is_string() ? have->as_string()
                                                  : std::string("?")) +
            ", current config " + want + ")");
}

std::unique_ptr<Journal> Journal::create(const std::string& path,
                                         const JournalFormat& format,
                                         std::uint64_t fingerprint,
                                         JournalOptions options) {
  std::unique_ptr<Journal> journal(new Journal);
  journal->path_ = path;
  journal->header_ = header_line(format, fingerprint);
  journal->options_ = std::move(options);
  if (!atomic_write_file(path, journal->header_) || !journal->reopen())
    throw ParseError(path, 1, 0, "cannot create journal");
  return journal;
}

std::unique_ptr<Journal> Journal::open(const std::string& path,
                                       const JournalFormat& format,
                                       std::uint64_t fingerprint,
                                       JournalOptions options,
                                       std::vector<JournalRecord>* records) {
  records->clear();
  std::vector<std::string> lines;
  bool terminated = true;
  if (!read_lines(path, &lines, &terminated) || lines.empty())
    return create(path, format, fingerprint, std::move(options));

  std::unique_ptr<Journal> journal(new Journal);
  journal->path_ = path;
  journal->header_ = header_line(format, fingerprint);
  journal->options_ = std::move(options);
  journal->existed_ = true;
  check_journal_header(parse_json(lines[0], path, 1), format, fingerprint,
                       path);

  // Only the final line may be torn (the append in flight when the writer
  // died); corruption anywhere else must surface.
  std::string surviving = lines[0] + '\n';
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const long line = static_cast<long>(i) + 1;
    const bool last = i + 1 == lines.size();
    JsonValue value;
    try {
      value = parse_json(lines[i], path, line);
    } catch (const ParseError&) {
      if (!last) throw;
      journal->torn_repaired_ = true;
      break;
    }
    if (last && !terminated) {
      // Parseable but unterminated: the write never completed, so the
      // record was never acknowledged.
      journal->torn_repaired_ = true;
      break;
    }
    records->push_back({line, std::move(value)});
    surviving += lines[i] + '\n';
  }
  // Rewrite without the torn bytes: they carry no newline, so the next
  // append would otherwise concatenate onto them.
  if ((journal->torn_repaired_ || !terminated) &&
      !atomic_write_file(path, surviving))
    throw ParseError(path, 0, 0, "cannot rewrite journal to drop its torn tail");
  if (!journal->reopen())
    throw ParseError(path, 0, 0, "cannot open journal for appending");
  return journal;
}

Journal::~Journal() {
  if (fd_ < 0) return;
  if (!dead_ && unsynced_records_ > 0) ::fsync(fd_);
  ::close(fd_);
}

bool Journal::reopen() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  unsynced_records_ = 0;
  return fd_ >= 0;
}

JournalFault Journal::fault_at(const char* point) const {
  return options_.fault_hook ? options_.fault_hook(point) : JournalFault::kNone;
}

AppendResult Journal::append(const std::string& line) {
  AppendResult result;
  if (dead_ || fd_ < 0) return result;
  switch (fault_at("append.before_write")) {
    case JournalFault::kCrash: dead_ = true; return result;
    case JournalFault::kEio: result.io_error = true; return result;
    default: break;
  }
  std::string payload = line;
  payload += '\n';
  const JournalFault write_fault = fault_at("append.write");
  if (write_fault == JournalFault::kCrash) {
    dead_ = true;
    return result;
  }
  if (write_fault == JournalFault::kShortWrite) {
    // Crash mid-write: half the record lands, no newline — exactly the
    // torn tail that open() must drop and repair.
    (void)!::write(fd_, payload.data(), payload.size() / 2);
    result.bytes_on_disk = true;
    dead_ = true;
    return result;
  }
  if (write_fault == JournalFault::kEio) {
    result.io_error = true;
    return result;
  }
  Stopwatch write_watch;
  const ssize_t written = ::write(fd_, payload.data(), payload.size());
  if (written != static_cast<ssize_t>(payload.size())) {
    // Roll a real partial append back so the next record cannot splice
    // into it; if even that fails, take the journal out of service (open
    // will repair the torn tail) rather than corrupt it further.
    bool rolled_back = written == 0;
    if (written > 0) {
      struct stat st;
      rolled_back = ::fstat(fd_, &st) == 0 &&
                    ::ftruncate(fd_, st.st_size - written) == 0;
    }
    if (!rolled_back) {
      dead_ = true;
      result.bytes_on_disk = true;
    }
    result.io_error = true;
    return result;
  }
  result.write_seconds = write_watch.seconds();
  result.written = true;
  result.bytes_on_disk = true;
  if (fault_at("append.after_write") == JournalFault::kCrash) {
    dead_ = true;
    return result;
  }
  if (++unsynced_records_ >= std::max(options_.sync_every, 1)) {
    switch (fault_at("append.fsync")) {
      case JournalFault::kCrash: dead_ = true; return result;
      case JournalFault::kEio: result.io_error = true; return result;
      default: break;
    }
    Stopwatch fsync_watch;
    if (::fsync(fd_) != 0) {
      result.io_error = true;
      return result;
    }
    result.fsync_seconds = fsync_watch.seconds();
    result.synced = true;
    unsynced_records_ = 0;
  }
  if (fault_at("append.after_fsync") == JournalFault::kCrash) {
    dead_ = true;
    return result;
  }
  result.durable = true;
  return result;
}

bool Journal::reset() {
  if (!atomic_write_file(path_, header_)) return false;
  // The rename left fd_ pointing at the replaced inode.
  if (reopen()) return true;
  dead_ = true;
  return false;
}

}  // namespace tvnep
