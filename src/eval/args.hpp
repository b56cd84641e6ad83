// Minimal command-line flag parser for the bench, example and serve
// binaries.
// Accepted syntax: --name value | --name=value | --flag (boolean true).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tvnep::eval {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Strict numeric accessors: the whole value must parse
  /// (std::from_chars), so `--time-limit=8s` throws CheckError with the
  /// offending flag and text instead of silently truncating to 8.
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Names that were provided but never queried — typo detection.
  std::vector<std::string> unused() const;

  /// Strict flags: exits 2 naming every flag the program was given but
  /// never read, so a misspelt or removed flag (`--thread 2`, `--basis
  /// dense`) fails loudly instead of running as if it were absent. Call
  /// it after the program's last flag read.
  void reject_unused_flags() const;

 private:
  std::optional<std::string> raw(const std::string& name) const;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace tvnep::eval
