// Span tracer: named, nested, timed spans and instant events, recorded
// into thread-local shards and exported as Chrome trace_event JSON (load
// the file in chrome://tracing or https://ui.perfetto.dev) plus a flat
// JSONL stream for ad-hoc scripting.
//
// Cost model (the contract the micro_solver overhead pair verifies):
//  * inactive tracer — every instrumentation site is one relaxed atomic
//    load plus one predictable branch; no allocation, no clock read;
//  * active tracer — two monotonic-clock reads per span plus an append to the
//    calling thread's shard. Shard mutexes are uncontended on the hot path
//    (only the flush/snapshot walker ever takes a foreign shard's lock),
//    so `--threads N` sweeps trace without cross-thread contention.
//
// Span names and categories must be string literals (or otherwise outlive
// the tracer): events store the pointers, not copies. `args` payloads are
// pre-rendered JSON object members (e.g. "\"flex\":1.5,\"seed\":2") built
// by the call site only when the tracer is active.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/stopwatch.hpp"

namespace tvnep::obs {

struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  char phase = 'X';         // 'X' complete, 'i' instant, 'b'/'e' async
  std::uint32_t tid = 0;    // shard id (one per recording thread)
  std::int64_t ts_us = 0;   // microseconds since the tracer epoch
  std::int64_t dur_us = 0;  // 'X' only
  std::string args;         // pre-rendered JSON members, may be empty
  std::string id;           // async ('b'/'e') correlation id, else empty
};

/// Renders one event as a trace_event JSON object (no newline) — shared by
/// the batch exporters and the live JSONL rotation sink.
std::string render_trace_event(const TraceEvent& event);

/// Formats a double as a JSON number ("null" for NaN/Inf) — the helper
/// call sites use to build span args and that the JSON writers reuse.
std::string json_number(double value);

/// Escapes a string for embedding between JSON quotes (support/json).
using tvnep::json_escape;

class Tracer {
 public:
  /// The process-wide tracer instance.
  static Tracer& instance();

  /// True between start() and stop(). Relaxed load: instrumentation sites
  /// branch on this and do nothing else when the tracer is inactive.
  static bool active() { return active_.load(std::memory_order_relaxed); }

  void start();
  void stop();
  /// Discards all recorded events (shards stay registered — live threads
  /// hold pointers into them).
  void reset();

  /// Microseconds since the tracer's construction (the event timebase).
  std::int64_t now_us() const;

  void record_complete(const char* name, const char* cat, std::int64_t ts_us,
                       std::int64_t dur_us, std::string args = {});
  void record_instant(const char* name, const char* cat,
                      std::string args = {});
  /// Async span pair: 'b' at begin, 'e' at end, correlated by `id` (and
  /// name/cat). Unlike complete spans these may overlap freely on one
  /// track — the daemon uses them for per-request queue residency, where
  /// many requests wait concurrently.
  void record_async_begin(const char* name, const char* cat, std::string id,
                          std::string args = {});
  void record_async_end(const char* name, const char* cat, std::string id,
                        std::string args = {});

  /// All events merged across shards, sorted by (tid, ts, -dur) so spans
  /// precede the spans they enclose.
  std::vector<TraceEvent> snapshot() const;

  /// Moves all recorded events out of the shards (same order as
  /// snapshot()) and clears them — the live exporter's rotation primitive:
  /// a long-running daemon drains periodically so tracer memory stays
  /// bounded by the drain interval, not the process lifetime.
  std::vector<TraceEvent> drain();

  /// Writes {"traceEvents":[...]} Chrome trace JSON. Returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

  /// Writes one JSON object per line (the flat stream export).
  bool write_jsonl(const std::string& path) const;

 private:
  struct Shard {
    std::mutex mutex;
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
  };

  Tracer();
  Shard& local_shard();

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  MonotonicClock::time_point epoch_;
  static std::atomic<bool> active_;
};

/// RAII complete-span guard. When the tracer is inactive, construction and
/// destruction cost one branch each.
class SpanScope {
 public:
  SpanScope(const char* name, const char* cat) {
    if (Tracer::active()) begin(name, cat, {});
  }
  SpanScope(const char* name, const char* cat, std::string args) {
    if (Tracer::active()) begin(name, cat, std::move(args));
  }
  /// Conditional span: records only when `enabled` (and the tracer is
  /// active). Branch-and-bound uses this to sample node-LP spans.
  SpanScope(bool enabled, const char* name, const char* cat,
            std::string args = {}) {
    if (enabled && Tracer::active()) begin(name, cat, std::move(args));
  }
  ~SpanScope() {
    if (name_ != nullptr) end();
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void begin(const char* name, const char* cat, std::string args);
  void end();

  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t start_us_ = 0;
  std::string args_;
};

/// Records an instant event when the tracer is active; one branch when not.
inline void instant(const char* name, const char* cat,
                    std::string args = {}) {
  if (Tracer::active())
    Tracer::instance().record_instant(name, cat, std::move(args));
}

}  // namespace tvnep::obs
