// Per-cell resilience: the watchdog's cooperative soft-cancel and
// recorded-abandonment escalation, standalone and end-to-end through the
// sweep harness.
#include "eval/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "eval/runner.hpp"

namespace tvnep::eval {
namespace {

// One-cell sweep: everything the watchdog does is observable on
// outcome[0].
SweepConfig one_cell_config() {
  SweepConfig config;
  config.base.num_requests = 2;
  config.base.grid_rows = 2;
  config.base.grid_cols = 2;
  config.base.star_leaves = 1;
  config.flexibilities = {0.0};
  config.seeds = 1;
  config.time_limit = 60.0;
  config.threads = 1;
  return config;
}

// Polls `flag` until it flips or `seconds` elapse; true when it flipped.
template <typename Flag>
bool wait_for(const Flag& flag, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (flag()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return flag();
}

TEST(WatchdogTest, DisabledWatchdogHandsOutInertGuards) {
  Watchdog watchdog(0.0);
  EXPECT_FALSE(watchdog.enabled());
  Watchdog::CellGuard guard = watchdog.watch("cell");
  EXPECT_EQ(guard.cancel_flag(), nullptr);
  EXPECT_FALSE(guard.timed_out());
  EXPECT_FALSE(guard.abandoned());
  EXPECT_EQ(watchdog.timeouts(), 0);
}

TEST(WatchdogTest, SoftTimeoutFlipsCancelFlag) {
  Watchdog watchdog(0.05);
  Watchdog::CellGuard guard = watchdog.watch("slow-cell");
  const std::atomic<bool>* cancel = guard.cancel_flag();
  ASSERT_NE(cancel, nullptr);
  EXPECT_FALSE(cancel->load());
  ASSERT_TRUE(wait_for([&] { return cancel->load(); }, 5.0));
  EXPECT_TRUE(guard.timed_out());
  EXPECT_EQ(watchdog.timeouts(), 1);
}

TEST(WatchdogTest, HardTimeoutRecordsAbandonmentWithoutKillingAnything) {
  Watchdog watchdog(0.05);
  Watchdog::CellGuard guard = watchdog.watch("stuck-cell");
  // A cell ignoring the cancel flag is escalated at 2x the timeout.
  ASSERT_TRUE(wait_for([&] { return guard.abandoned(); }, 5.0));
  EXPECT_TRUE(guard.timed_out());
  EXPECT_EQ(watchdog.timeouts(), 1);
  EXPECT_EQ(watchdog.abandonments(), 1);
}

TEST(WatchdogTest, ReleasedGuardNeverFires) {
  Watchdog watchdog(0.05);
  { Watchdog::CellGuard guard = watchdog.watch("fast-cell"); }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(watchdog.timeouts(), 0);
  EXPECT_EQ(watchdog.abandonments(), 0);
}

TEST(WatchdogTest, ConcurrentGuardsTimeOutIndependently) {
  Watchdog watchdog(0.05);
  Watchdog::CellGuard slow = watchdog.watch("slow");
  // The fast cell registers later and releases before its deadline; the
  // slow one must still fire even though the monitor re-sorted deadlines.
  {
    Watchdog::CellGuard fast = watchdog.watch("fast");
  }
  ASSERT_NE(slow.cancel_flag(), nullptr);
  ASSERT_TRUE(wait_for([&] { return slow.cancel_flag()->load(); }, 5.0));
  EXPECT_EQ(watchdog.timeouts(), 1);
}

// End-to-end soft-cancel: the cell stalls until the watchdog flips the
// cancel flag the harness forwarded, then returns its anytime incumbent.
TEST(WatchdogTest, SweepCancelsAStalledCell) {
  SweepConfig config = one_cell_config();
  config.cell_timeout = 0.05;
  config.solve_override = [&](const net::TvnepInstance&, core::ModelKind,
                              const core::SolveParams& params)
      -> core::TvnepSolveResult {
    EXPECT_NE(params.mip.cancel, nullptr);
    // Cooperative stall: spin on the flag like the solver's poll sites,
    // with a hard cap so a watchdog bug fails the test instead of hanging.
    const bool cancelled =
        wait_for([&] { return params.mip.cancel->load(); }, 10.0);
    EXPECT_TRUE(cancelled);
    core::TvnepSolveResult r;
    r.status = mip::MipStatus::kTimeLimit;
    r.has_solution = true;
    return r;
  };
  const auto outcomes = run_model_sweep(config, core::ModelKind::kCSigma);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].timed_out);
  EXPECT_FALSE(outcomes[0].abandoned);
  EXPECT_FALSE(outcomes[0].failed);
  EXPECT_EQ(outcomes[0].result.status, mip::MipStatus::kTimeLimit);
}

}  // namespace
}  // namespace tvnep::eval
