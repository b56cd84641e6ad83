// The fsync'd JSONL journal under the sweep checkpoint and the serve WAL:
// header checks, record round-trips, torn-tail repair, the sync policy,
// and the kill-point matrix — a crash at every append.* point on the
// first, middle and last record must reopen to exactly the records whose
// bytes fully reached the file (every acknowledged one among them, no
// torn one), after which the next append reads back cleanly.
#include "support/journal.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/parse_error.hpp"
#include "temp_dir.hpp"

namespace tvnep {
namespace {

constexpr JournalFormat kFormat{"journal", "tvnep-test", 1};
constexpr std::uint64_t kFingerprint = 0x1234;

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_all(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string record(int i) { return "{\"i\":" + std::to_string(i) + "}"; }

/// The "i" members of the records `path` reopens to.
std::vector<int> reopen_ids(const std::string& path,
                            JournalOptions options = {}) {
  std::vector<JournalRecord> records;
  Journal::open(path, kFormat, kFingerprint, std::move(options), &records);
  std::vector<int> ids;
  for (const JournalRecord& r : records)
    ids.push_back(static_cast<int>(r.value.find("i")->as_number()));
  return ids;
}

TEST(SupportJournal, HashAndHexArePinned) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fingerprint_hex(0x1234), "0000000000001234");
}

TEST(SupportJournal, CreateWritesTheHeaderAndOpenRoundTripsRecords) {
  const TempDir dir;
  const std::string path = dir.file("j.jsonl");
  {
    auto journal = Journal::create(path, kFormat, kFingerprint);
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(journal->append(record(i)).durable);
  }
  EXPECT_EQ(read_all(path),
            "{\"journal\":\"tvnep-test\",\"version\":1,"
            "\"fingerprint\":\"0000000000001234\"}\n"
            "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n");
  std::vector<JournalRecord> records;
  auto journal = Journal::open(path, kFormat, kFingerprint, {}, &records);
  EXPECT_TRUE(journal->existed());
  EXPECT_FALSE(journal->torn_repaired());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].line, 4);
  EXPECT_EQ(records[2].value.find("i")->as_number(), 2.0);
}

TEST(SupportJournal, AppendedRecordsAccumulateAcrossReopen) {
  const TempDir dir;
  const std::string path = dir.file("j.jsonl");
  for (int i = 0; i < 3; ++i) {
    std::vector<JournalRecord> records;
    auto journal = Journal::open(path, kFormat, kFingerprint, {}, &records);
    EXPECT_EQ(records.size(), static_cast<std::size_t>(i));
    EXPECT_TRUE(journal->append(record(i)).durable);
  }
  EXPECT_EQ(reopen_ids(path), (std::vector<int>{0, 1, 2}));
}

TEST(SupportJournal, MissingOrEmptyFileDegradesToCreate) {
  const TempDir dir;
  const std::string path = dir.file("j.jsonl");
  std::vector<JournalRecord> records;
  EXPECT_FALSE(Journal::open(path, kFormat, kFingerprint, {}, &records)
                   ->existed());
  write_all(path, "");
  EXPECT_FALSE(Journal::open(path, kFormat, kFingerprint, {}, &records)
                   ->existed());
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(read_all(path).find("{\"journal\":\"tvnep-test\""), 0u);
}

TEST(SupportJournal, ForeignHeaderIsRefused) {
  const TempDir dir;
  const std::string path = dir.file("j.jsonl");
  { Journal::create(path, kFormat, kFingerprint); }
  std::vector<JournalRecord> records;
  const JournalFormat other_magic{"journal", "tvnep-other", 1};
  const JournalFormat other_key{"wal", "tvnep-test", 1};
  const JournalFormat other_version{"journal", "tvnep-test", 2};
  EXPECT_THROW(Journal::open(path, other_magic, kFingerprint, {}, &records),
               ParseError);
  EXPECT_THROW(Journal::open(path, other_key, kFingerprint, {}, &records),
               ParseError);
  EXPECT_THROW(Journal::open(path, other_version, kFingerprint, {}, &records),
               ParseError);
  try {
    Journal::open(path, kFormat, kFingerprint + 1, {}, &records);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("refusing to resume"),
              std::string::npos);
  }
}

TEST(SupportJournal, UnterminatedFinalRecordIsDroppedAndRepaired) {
  const TempDir dir;
  const std::string path = dir.file("j.jsonl");
  { Journal::create(path, kFormat, kFingerprint)->append(record(0)); }
  const std::string intact = read_all(path);
  write_all(path, intact + record(1));  // parses, but no newline

  std::vector<JournalRecord> records;
  auto journal = Journal::open(path, kFormat, kFingerprint, {}, &records);
  EXPECT_TRUE(journal->torn_repaired());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(read_all(path), intact);
  EXPECT_TRUE(journal->append(record(2)).durable);
  EXPECT_EQ(reopen_ids(path), (std::vector<int>{0, 2}));
}

TEST(SupportJournal, UnparseableFinalRecordIsDroppedAndRepaired) {
  const TempDir dir;
  const std::string path = dir.file("j.jsonl");
  { Journal::create(path, kFormat, kFingerprint)->append(record(0)); }
  const std::string intact = read_all(path);
  for (const std::string& torn : {std::string("{\"i\":"), std::string("{\n")}) {
    SCOPED_TRACE(torn);
    write_all(path, intact + torn);
    std::vector<JournalRecord> records;
    auto journal = Journal::open(path, kFormat, kFingerprint, {}, &records);
    EXPECT_TRUE(journal->torn_repaired());
    EXPECT_EQ(records.size(), 1u);
    EXPECT_EQ(read_all(path), intact);
  }
}

TEST(SupportJournal, BadLineBeforeTheLastIsFatal) {
  const TempDir dir;
  const std::string path = dir.file("j.jsonl");
  {
    auto journal = Journal::create(path, kFormat, kFingerprint);
    journal->append(record(0));
    journal->append("{corrupted");
    journal->append(record(2));
  }
  const std::string before = read_all(path);
  try {
    reopen_ids(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
  EXPECT_EQ(read_all(path), before);  // corruption is reported, not repaired
}

TEST(SupportJournal, BatchPolicySyncsEveryNthRecord) {
  const TempDir dir;
  JournalOptions options;
  options.sync_every = 3;
  auto journal = Journal::create(dir.file("j.jsonl"), kFormat, kFingerprint,
                                 options);
  std::vector<bool> synced;
  for (int i = 0; i < 6; ++i) {
    const AppendResult result = journal->append(record(i));
    EXPECT_TRUE(result.durable);
    synced.push_back(result.synced);
  }
  EXPECT_EQ(synced, (std::vector<bool>{false, false, true, false, false, true}));
}

TEST(SupportJournal, EioIsSurvivable) {
  const TempDir dir;
  const std::string path = dir.file("j.jsonl");
  JournalOptions options;
  options.fault_hook = [](const char* point) {
    return std::strcmp(point, "append.fsync") == 0 ? JournalFault::kEio
                                                   : JournalFault::kNone;
  };
  auto journal = Journal::create(path, kFormat, kFingerprint, options);
  const AppendResult result = journal->append(record(0));
  EXPECT_TRUE(result.io_error);
  EXPECT_FALSE(result.durable);
  EXPECT_TRUE(result.bytes_on_disk);  // the bytes landed; only the barrier failed
  EXPECT_FALSE(journal->dead());
  EXPECT_EQ(reopen_ids(path), (std::vector<int>{0}));
}

TEST(SupportJournal, ResetTruncatesToTheHeader) {
  const TempDir dir;
  const std::string path = dir.file("j.jsonl");
  auto journal = Journal::create(path, kFormat, kFingerprint);
  const std::string header = read_all(path);
  journal->append(record(0));
  ASSERT_TRUE(journal->reset());
  EXPECT_EQ(read_all(path), header);
  EXPECT_TRUE(journal->append(record(1)).durable);
  EXPECT_EQ(reopen_ids(path), (std::vector<int>{1}));
}

TEST(SupportJournal, KillPointMatrixReopensToTheWrittenRecords) {
  constexpr int kRecords = 5;
  struct Fault {
    const char* point;
    JournalFault fault;
  };
  const Fault faults[] = {
      {"append.before_write", JournalFault::kCrash},
      {"append.write", JournalFault::kCrash},
      {"append.write", JournalFault::kShortWrite},
      {"append.after_write", JournalFault::kCrash},
      {"append.fsync", JournalFault::kCrash},
      {"append.after_fsync", JournalFault::kCrash},
  };
  for (const Fault& fault : faults) {
    for (const int occurrence : {1, (kRecords + 1) / 2, kRecords}) {
      SCOPED_TRACE(std::string(fault.point) + " fault " +
                   std::to_string(static_cast<int>(fault.fault)) +
                   " on record " + std::to_string(occurrence));
      const TempDir dir;
      const std::string path = dir.file("j.jsonl");
      JournalOptions options;
      int hits = 0;
      options.fault_hook = [&](const char* point) {
        return std::strcmp(point, fault.point) == 0 && ++hits == occurrence
                   ? fault.fault
                   : JournalFault::kNone;
      };
      std::vector<int> acknowledged;
      std::vector<int> written;
      {
        auto journal = Journal::create(path, kFormat, kFingerprint, options);
        for (int i = 0; i < kRecords; ++i) {
          const AppendResult result = journal->append(record(i));
          if (result.durable) acknowledged.push_back(i);
          if (result.written) written.push_back(i);
        }
        EXPECT_TRUE(journal->dead());
      }
      // Everything before the crash was acknowledged; nothing after it
      // reached the file.
      EXPECT_EQ(acknowledged.size(), static_cast<std::size_t>(occurrence - 1));
      const std::vector<int> reopened = reopen_ids(path);
      EXPECT_EQ(reopened, written);
      for (std::size_t i = 0; i < acknowledged.size(); ++i)
        EXPECT_EQ(reopened[i], acknowledged[i]);

      // The next append lands cleanly after the repaired tail.
      {
        std::vector<JournalRecord> records;
        auto journal =
            Journal::open(path, kFormat, kFingerprint, {}, &records);
        EXPECT_TRUE(journal->append(record(99)).durable);
      }
      std::vector<int> expected = written;
      expected.push_back(99);
      EXPECT_EQ(reopen_ids(path), expected);
      EXPECT_EQ(read_all(path).back(), '\n');
    }
  }
}

}  // namespace
}  // namespace tvnep
