#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <iostream>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

double tail_mean(std::vector<double> samples, double share) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end(), std::greater<>());
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(samples.size())));
  samples.resize(count);
  return mean(samples);
}

double median_setup_seconds(const std::function<double()>& once) {
  std::vector<double> seconds;
  double total = 0.0;
  while (static_cast<int>(seconds.size()) < kSetupRepeats ||
         total < kSetupMinSeconds) {
    seconds.push_back(once());
    total += seconds.back();
  }
  return median(seconds);
}

double peak_rss_mb() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string format(const char* fmt, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  return buffer;
}

void print_result(const RunResult& result) {
  for (const std::string& line : result.notes) std::cout << line << '\n';
  std::cout << "{\"correct\":" << (result.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) std::cout << ',';
    first = false;
    std::cout << '"' << name << "\":{\"value\":"
              << format("%.17g", metric.value) << ",\"unit\":\""
              << metric.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
