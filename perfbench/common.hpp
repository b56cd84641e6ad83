// Shared pieces of the benchmark harness: run options, the result record
// every workload fills, raw-sample percentiles and the final JSON line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A run repeats its set-up at least kSetupRepeats times and until the
/// timed set-ups add up to kSetupMinSeconds, and reports the median, so a
/// set-up of a few milliseconds is read over many repetitions.
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupMinSeconds = 0.25;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fresh scratch directory for durable state; removed by the caller.
  std::string scratch_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// on an untraced run and the per-layer metrics on a traced one.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the JSON result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records one failed correctness check with its reason.
  void fail(const std::string& why) {
    ++failed;
    note("FAIL " + why);
  }
};

/// Nearest-rank percentile (q in [0, 1]) of raw samples; 0 when empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// Mean of the slowest `share` of the samples (at least one): the tail a
/// percentile points at, averaged, so it does not jump when the
/// percentile's rank falls between two latency modes.
double tail_mean(std::vector<double> samples, double share);

/// Repeats `once` (one set-up, returning its timed seconds) as described
/// at kSetupRepeats; returns the median.
double median_setup_seconds(const std::function<double()>& once);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// printf-style std::string formatting for the note lines.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Writes the notes, then the single-line JSON result.
void print_result(const RunResult& result);

}  // namespace perfbench
