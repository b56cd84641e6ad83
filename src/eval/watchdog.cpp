#include "eval/watchdog.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace tvnep::eval {

Watchdog::Watchdog(double timeout_seconds)
    : timeout_seconds_(timeout_seconds) {
  if (enabled()) thread_ = std::thread([this] { monitor(); });
}

Watchdog::~Watchdog() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

Watchdog::CellGuard Watchdog::watch(std::string label) {
  if (!enabled()) return CellGuard(nullptr, nullptr);
  auto entry = std::make_shared<Entry>();
  entry->label = std::move(label);
  const auto now = MonotonicClock::now();
  const auto timeout = std::chrono::duration_cast<
      MonotonicClock::duration>(
      std::chrono::duration<double>(timeout_seconds_));
  entry->soft_deadline = now + timeout;
  entry->hard_deadline = now + 2 * timeout;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.push_back(entry);
  }
  cv_.notify_all();
  return CellGuard(this, std::move(entry));
}

void Watchdog::release(const std::shared_ptr<Entry>& entry) {
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  entry->active = false;
  entries_.remove(entry);
}

void Watchdog::monitor() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    // Sleep until the earliest pending deadline (or indefinitely when
    // nothing is registered); watch()/the destructor notify to re-arm.
    auto wake = MonotonicClock::time_point::max();
    for (const auto& entry : entries_) {
      if (!entry->timed_out.load())
        wake = std::min(wake, entry->soft_deadline);
      else if (!entry->abandoned.load())
        wake = std::min(wake, entry->hard_deadline);
    }
    if (wake == MonotonicClock::time_point::max())
      cv_.wait(lock);
    else
      cv_.wait_until(lock, wake);
    if (stop_) break;

    const auto now = MonotonicClock::now();
    for (const auto& entry : entries_) {
      if (!entry->timed_out.load() && now >= entry->soft_deadline) {
        entry->timed_out.store(true);
        entry->cancel.store(true, std::memory_order_relaxed);
        timeouts_.fetch_add(1);
        obs::counter_add("sweep.timeouts");
      }
      if (entry->timed_out.load() && !entry->abandoned.load() &&
          now >= entry->hard_deadline) {
        // The solve ignored the soft cancel for a full extra timeout —
        // it is stuck outside the poll sites. Killing its thread is not
        // safe, so record the abandonment; the sweep reports the cell
        // instead of hanging without a trace.
        entry->abandoned.store(true);
        abandonments_.fetch_add(1);
        obs::counter_add("sweep.abandoned_cells");
      }
    }
  }
}

}  // namespace tvnep::eval
