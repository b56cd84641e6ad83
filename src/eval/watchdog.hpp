// Per-cell watchdog for sweep execution: a single monitor thread with a
// monotonic-clock deadline per registered cell. When a cell exceeds its
// soft timeout the watchdog flips the cell's cancel flag — the MIP core
// polls that flag at its deadline-check sites (B&B loop top, every 64
// simplex iterations) and returns its anytime incumbent with
// MipStatus::kTimeLimit, so cancellation is cooperative, not destructive.
// A cell that still has not returned at twice the timeout (a solve stuck
// outside the poll sites) is escalated to *recorded abandonment*: the
// watchdog cannot safely kill the thread, so it records the cell as
// abandoned (counter + flag) and the sweep reports it instead of hanging
// silently.
#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "support/stopwatch.hpp"

namespace tvnep::eval {

class Watchdog {
 public:
  /// State of one watched cell. The watchdog holds a shared_ptr,
  /// so the entry outlives guard destruction while the monitor inspects
  /// it.
  struct Entry {
    std::string label;
    MonotonicClock::time_point soft_deadline;
    MonotonicClock::time_point hard_deadline;
    std::atomic<bool> cancel{false};     // soft-cancel flag the solver polls
    std::atomic<bool> timed_out{false};  // soft deadline passed
    std::atomic<bool> abandoned{false};  // hard deadline passed, recorded
    bool active = true;                  // still registered (guard alive)
  };

  /// RAII registration of one cell. Construct before the solve, pass
  /// `cancel_flag()` into MipOptions::cancel, destroy when the solve
  /// returns.
  class CellGuard {
   public:
    CellGuard(Watchdog* watchdog, std::shared_ptr<Entry> entry)
        : watchdog_(watchdog), entry_(std::move(entry)) {}
    CellGuard(const CellGuard&) = delete;
    CellGuard& operator=(const CellGuard&) = delete;
    ~CellGuard() {
      if (watchdog_ != nullptr) watchdog_->release(entry_);
    }

    /// Null when the watchdog is disabled — MipOptions::cancel accepts
    /// nullptr, so callers can forward unconditionally.
    const std::atomic<bool>* cancel_flag() const {
      return entry_ ? &entry_->cancel : nullptr;
    }
    bool timed_out() const { return entry_ && entry_->timed_out.load(); }
    bool abandoned() const { return entry_ && entry_->abandoned.load(); }

   private:
    Watchdog* watchdog_;
    std::shared_ptr<Entry> entry_;
  };

  /// A non-positive timeout disables the watchdog entirely: watch()
  /// returns inert guards and no monitor thread is started.
  explicit Watchdog(double timeout_seconds);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  bool enabled() const { return timeout_seconds_ > 0.0; }
  double timeout_seconds() const { return timeout_seconds_; }

  /// Registers one cell under the configured timeout. Thread-safe.
  CellGuard watch(std::string label);

  /// Lifetime counters over every registered cell.
  long timeouts() const { return timeouts_.load(); }
  long abandonments() const { return abandonments_.load(); }

 private:
  void release(const std::shared_ptr<Entry>& entry);
  void monitor();

  double timeout_seconds_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::list<std::shared_ptr<Entry>> entries_;
  bool stop_ = false;
  std::atomic<long> timeouts_{0};
  std::atomic<long> abandonments_{0};
  std::thread thread_;
};

}  // namespace tvnep::eval
