#!/usr/bin/env sh
# Tier-1 verification: full build + test suite, then the concurrency-bearing
# pieces (the parallel sweep engine, support/parallel, and the serve
# daemon's reader/worker/reoptimizer threads) again under ThreadSanitizer
# (-DTVNEP_SANITIZE=thread, preset "tsan").
set -eu

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S .
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

# The resilience suites once more in isolation: `faultinject` labels the
# tests that drive the LP recovery ladder and the B&B degradation paths
# through SimplexOptions::fault_hook, plus the sweep-level crash-safety
# suites (checkpoint journal resume, watchdog soft-cancel).
(cd build && ctest --output-on-failure -j "$jobs" -L faultinject)

cmake -B build-tsan -S . -DTVNEP_SANITIZE=thread
cmake --build build-tsan -j "$jobs"
(cd build-tsan && TSAN_OPTIONS=halt_on_error=1 \
   ctest --output-on-failure -j "$jobs" \
   -R 'ParallelFor|HardwareParallelism|RunModelSweep|RunGreedySweep|ObsConcurrent|WatchdogTest|CheckpointTest|SimplexCertificate|ServeDaemon|ServeReopt|ServeAdmission|ServeSlo|ServeTelemetry|ServeWal|ServeRecovery|ObsLog|ObsExposition')
