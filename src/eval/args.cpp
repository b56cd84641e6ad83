#include "eval/args.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>

#include "support/check.hpp"

namespace tvnep::eval {

namespace {

// Parses the full token as a T, rejecting trailing garbage so a typo like
// `--time-limit=8s` fails loudly instead of silently truncating to 8.
template <typename T>
T parse_or_die(const std::string& name, const std::string& text) {
  T value{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  TVNEP_REQUIRE(ec == std::errc() && ptr == last && !text.empty(),
                "--" + name + " expects a number, got '" + text + "'");
  return value;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    TVNEP_REQUIRE(token.rfind("--", 0) == 0, "unexpected argument: " + token);
    token = token.substr(2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is another flag / end of line.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[token] = argv[++i];
    } else {
      values_[token] = "true";
    }
  }
}

std::optional<std::string> Args::raw(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool Args::has(const std::string& name) const { return raw(name).has_value(); }

int Args::get_int(const std::string& name, int fallback) const {
  const auto v = raw(name);
  return v ? parse_or_die<int>(name, *v) : fallback;
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  return v ? parse_or_die<double>(name, *v) : fallback;
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  const auto v = raw(name);
  return v ? *v : fallback;
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes";
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

void Args::reject_unused_flags() const {
  const std::vector<std::string> names = unused();
  if (names.empty()) return;
  std::cerr << "error: unknown flag" << (names.size() > 1 ? "s" : "") << ':';
  for (const std::string& name : names) std::cerr << " --" << name;
  std::cerr << '\n';
  std::exit(2);
}

}  // namespace tvnep::eval
