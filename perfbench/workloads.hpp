// The three benchmark workloads. Each fills a RunResult: end-to-end metrics
// on an untraced run, per-layer metrics (see trace_report.hpp) on a traced
// one. See perfbench/README.md for why each workload exists.
#pragma once

#include "common.hpp"

namespace perfbench {

RunResult run_admit_slo(const RunOptions& options);
RunResult run_admit_durable(const RunOptions& options);
RunResult run_sweep_csigma(const RunOptions& options);

/// Solves instance seeds [first, last] of the sweep grid once each and
/// prints one line per cell (seed, flexibility, status, objective, nodes,
/// pivots, seconds) — how sweep_reference.hpp is produced.
int record_sweep_reference(int first_seed, int last_seed);

}  // namespace perfbench
