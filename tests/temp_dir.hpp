// A per-test scratch directory: created with mkdtemp under the system
// temp dir and removed recursively on destruction. ctest runs every gtest
// case as its own process in one shared working directory, so a test that
// writes files writes them here, never under a fixed name in the cwd.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace tvnep {

struct TempDir {
  std::string path;

  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "tvnep_test_XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) == nullptr)
      ADD_FAILURE() << "mkdtemp failed for " << pattern;
    path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Path of `name` inside the directory.
  std::string file(const std::string& name) const { return path + "/" + name; }
};

}  // namespace tvnep
