// Atomic write-temp-then-rename semantics: a committed file is complete,
// and an uncommitted one never appears.
#include "support/atomic_file.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "temp_dir.hpp"

namespace tvnep {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class AtomicFileTest : public ::testing::Test {
 protected:
  TempDir dir_;
  const std::string path_ = dir_.file("atomic_file_test.txt");
};

TEST_F(AtomicFileTest, CommitPublishesBufferedContent) {
  AtomicFile file(path_);
  file.stream() << "line one\n" << 42 << '\n';
  ASSERT_TRUE(file.commit());
  EXPECT_EQ(read_all(path_), "line one\n42\n");
}

TEST_F(AtomicFileTest, NoCommitLeavesNoFile) {
  {
    AtomicFile file(path_);
    file.stream() << "never published";
  }
  std::ifstream probe(path_);
  EXPECT_FALSE(probe.good());
}

TEST_F(AtomicFileTest, CommitReplacesExistingFileWhole) {
  {
    std::ofstream old(path_);
    old << "old content that is much longer than the replacement\n";
  }
  AtomicFile file(path_);
  file.stream() << "new\n";
  ASSERT_TRUE(file.commit());
  EXPECT_EQ(read_all(path_), "new\n");
}

TEST_F(AtomicFileTest, CommitIntoMissingDirectoryFails) {
  AtomicFile file(dir_.file("no_such_dir_xyz/out.txt"));
  file.stream() << "content";
  EXPECT_FALSE(file.commit());
}

TEST_F(AtomicFileTest, AtomicWriteFileRoundTrips) {
  ASSERT_TRUE(atomic_write_file(path_, "payload\n"));
  EXPECT_EQ(read_all(path_), "payload\n");
}

}  // namespace
}  // namespace tvnep
