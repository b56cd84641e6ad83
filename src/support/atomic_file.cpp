#include "support/atomic_file.hpp"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define TVNEP_HAVE_FSYNC 1
#endif

namespace tvnep {

namespace {

std::string temp_path_for(const std::string& path) {
#if defined(TVNEP_HAVE_FSYNC)
  return path + ".tmp." + std::to_string(::getpid());
#else
  return path + ".tmp";
#endif
}

// Best-effort durability: flush libc buffers, then ask the kernel to reach
// stable storage. On platforms without fsync the flush alone has to do.
bool flush_and_sync(std::FILE* file) {
  if (std::fflush(file) != 0) return false;
#if defined(TVNEP_HAVE_FSYNC)
  if (::fsync(::fileno(file)) != 0) return false;
#endif
  return true;
}

}  // namespace

AtomicFile::AtomicFile(std::string path) : path_(std::move(path)) {}

AtomicFile::~AtomicFile() = default;

bool AtomicFile::commit() {
  if (committed_) return true;
  const std::string tmp = temp_path_for(path_);
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return false;
  const std::string content = buffer_.str();
  bool ok = content.empty() ||
            std::fwrite(content.data(), 1, content.size(), file) ==
                content.size();
  ok = flush_and_sync(file) && ok;
  ok = (std::fclose(file) == 0) && ok;
  if (ok) ok = std::rename(tmp.c_str(), path_.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  committed_ = true;
  return true;
}

bool atomic_write_file(const std::string& path, const std::string& content) {
  AtomicFile file(path);
  file.stream() << content;
  return file.commit();
}

}  // namespace tvnep
