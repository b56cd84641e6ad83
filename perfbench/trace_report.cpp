#include "trace_report.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "lp/simplex.hpp"
#include "support/stopwatch.hpp"
#include "tvnep/solver.hpp"

namespace perfbench {
namespace {

using namespace tvnep;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer catalogue; BENCHMARK.json lists the same names.
constexpr LayerMetric kLayerMetrics[] = {
    {"linalg.factorize_us", "us"},
    {"linalg.refactorizations", "count"},
    {"linalg.basis_updates", "count"},
    {"linalg.updates_per_refactor", "ratio"},
    {"linalg.fill_max", "ratio"},
    {"lp.root_ms", "ms"},
    {"lp.root_pivots", "count"},
    {"lp.us_per_pivot", "us"},
    {"lp.pivots", "count"},
    {"lp.phase1_iters", "count"},
    {"lp.dual_iters", "count"},
    {"lp.dual_fallbacks", "count"},
    {"mip.solve_ms", "ms"},
    {"mip.nodes", "count"},
    {"mip.cuts_added", "count"},
    {"mip.rc_fixed", "count"},
    {"mip.root_timeouts", "count"},
    {"presolve.ms", "ms"},
    {"presolve.rows_removed", "count"},
    {"tvnep.build_ms", "ms"},
    {"tvnep.model_rows", "count"},
    {"tvnep.model_cols", "count"},
    {"serve.admit.ms", "ms"},
    {"serve.admit.success_ratio", "ratio"},
    {"serve.step.component_size", "count"},
    {"serve.ladder.door", "count"},
    {"serve.ladder.overload", "count"},
    {"serve.ladder.aged", "count"},
    {"serve.ladder.budget", "count"},
    {"serve.ladder.solver", "count"},
    {"serve.fastpath.us", "us"},
    {"serve.protocol.parse_us", "us"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.wal.append_us", "us"},
    {"serve.wal.fsync_us", "us"},
    {"serve.wal.fsyncs", "count"},
    {"serve.wal.snapshot_ms", "ms"},
    {"serve.wal.snapshot_bytes", "bytes"},
    {"serve.slo_miss_share", "ratio"},
    {"serve.generator_late_ms", "ms"},
    {"workload.setup_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.tvnep_ms", "ms"},
    {"self.presolve_ms", "ms"},
    {"self.mip_ms", "ms"},
    {"self.lp_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"self.unattributed_ms", "ms"},
    {"self.stream_ms", "ms"},
    {"self.wal_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double histogram_mean(const obs::MetricsSnapshot& metrics, const char* name) {
  const auto it = metrics.histograms.find(name);
  if (it == metrics.histograms.end() || it->second.count == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count);
}

double counter(const obs::MetricsSnapshot& metrics, const char* name) {
  const auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0.0 : it->second;
}

// Spans whose self time holds work no child span covers: model build,
// component collection and solution extraction inside serve.step; model
// lowering and postsolve inside MipSolver::solve (bench.mip_solve).
bool unattributed(const std::string& name) {
  return name == "serve.step" || name == "bench.mip_solve";
}

std::string layer_of(const std::string& name) {
  if (name == "serve.stream") return "stream";
  if (unattributed(name)) return "unattributed";
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

void declare_layer_metrics(RunResult* result) {
  for (const LayerMetric& metric : kLayerMetrics)
    result->set(metric.name, 0.0, metric.unit);
}

TraceCapture::TraceCapture() {
  obs::Tracer::instance().reset();
  obs::Metrics::instance().reset();
  obs::Metrics::instance().start();
  obs::Tracer::instance().start();
}

TraceCapture::~TraceCapture() {
  if (active_) finish();
}

CapturedTrace TraceCapture::finish() {
  active_ = false;
  obs::Tracer::instance().stop();
  obs::Metrics::instance().stop();
  CapturedTrace out;
  out.events = obs::Tracer::instance().drain();
  out.metrics = obs::Metrics::instance().snapshot();
  obs::Metrics::instance().reset();
  return out;
}

void SolverEffort::add(const mip::MipResult& result) {
  ++solves;
  seconds += result.seconds;
  nodes += result.nodes;
  pivots += result.lp_pivots;
  dual_iterations += result.dual_iterations;
  dual_fallbacks += result.dual_fallbacks;
  refactorizations += result.refactorizations;
  basis_updates += result.basis_updates;
  fill_max = std::max(fill_max, result.lp_basis_fill_max);
  cuts_added += result.cuts_added;
  rc_fixed += result.rc_fixed;
  if (result.status == mip::MipStatus::kTimeLimit && result.nodes == 0)
    ++root_timeouts;
  presolve_rows_removed += result.presolve_rows_removed;
  presolve_seconds += result.presolve_seconds;
}

SolverEffort effort_from_registry(const obs::MetricsSnapshot& metrics) {
  SolverEffort effort;
  effort.solves = static_cast<long>(counter(metrics, "mip.solves"));
  effort.nodes = static_cast<long>(counter(metrics, "mip.nodes"));
  effort.pivots = static_cast<long>(counter(metrics, "mip.lp_pivots"));
  effort.dual_fallbacks =
      static_cast<long>(counter(metrics, "lp.dual_fallbacks"));
  effort.refactorizations =
      static_cast<long>(counter(metrics, "lp.refactorizations"));
  effort.cuts_added = static_cast<long>(counter(metrics, "mip.cuts.added"));
  effort.presolve_rows_removed =
      static_cast<long>(counter(metrics, "presolve.rows_removed"));
  if (const auto it = metrics.histograms.find("mip.solve_seconds");
      it != metrics.histograms.end())
    effort.seconds = it->second.sum;
  if (const auto it = metrics.histograms.find("presolve.seconds");
      it != metrics.histograms.end())
    effort.presolve_seconds = it->second.sum;
  if (const auto it = metrics.histograms.find("lp.basis.fill");
      it != metrics.histograms.end() && it->second.count > 0)
    effort.fill_max = it->second.max;
  // Bucket 0 of the node histogram holds the solves that processed no
  // node at all: on the serve path, step MIPs whose first root LP ran
  // out of budget.
  if (const auto it = metrics.histograms.find("mip.nodes_per_solve");
      it != metrics.histograms.end())
    effort.root_timeouts = it->second.buckets[0];
  return effort;
}

void report_effort(const SolverEffort& effort, RunResult* result) {
  const double solves = static_cast<double>(effort.solves);
  result->set("mip.solve_ms", ratio(effort.seconds * 1000.0, solves), "ms");
  result->set("mip.nodes", ratio(static_cast<double>(effort.nodes), solves),
              "count");
  result->set("mip.cuts_added",
              ratio(static_cast<double>(effort.cuts_added), solves), "count");
  result->set("mip.rc_fixed",
              ratio(static_cast<double>(effort.rc_fixed), solves), "count");
  result->set("mip.root_timeouts", static_cast<double>(effort.root_timeouts),
              "count");
  result->set("lp.pivots", ratio(static_cast<double>(effort.pivots), solves),
              "count");
  result->set("lp.dual_iters",
              ratio(static_cast<double>(effort.dual_iterations), solves),
              "count");
  result->set("lp.dual_fallbacks",
              ratio(static_cast<double>(effort.dual_fallbacks), solves),
              "count");
  result->set("linalg.refactorizations",
              ratio(static_cast<double>(effort.refactorizations), solves),
              "count");
  result->set("linalg.basis_updates",
              ratio(static_cast<double>(effort.basis_updates), solves),
              "count");
  result->set("linalg.updates_per_refactor",
              ratio(static_cast<double>(effort.basis_updates),
                    static_cast<double>(effort.refactorizations)),
              "ratio");
  result->set("linalg.fill_max", effort.fill_max, "ratio");
  result->set("presolve.ms", ratio(effort.presolve_seconds * 1000.0, solves),
              "ms");
  result->set("presolve.rows_removed",
              ratio(static_cast<double>(effort.presolve_rows_removed), solves),
              "count");
  result->note(format("mip effort: %ld solves, %ld nodes, %ld pivots, %ld "
                      "refactorizations, %ld root timeouts",
                      effort.solves, effort.nodes, effort.pivots,
                      effort.refactorizations, effort.root_timeouts));
}

namespace {

/// Times SparseLuBasis::factorize (default configuration) on `basis`.
void time_factorize(const linalg::BasisColumns& basis, ProbeTotals* totals) {
  linalg::SparseLuBasis lu;
  Stopwatch watch;
  if (!lu.factorize(basis)) ++totals->factorize_failures;
  totals->factorize_us += watch.seconds() * 1e6;
  ++totals->factorizations;
}

}  // namespace

void probe_model(const net::TvnepInstance& instance,
                 const core::BuildOptions& build, ProbeTotals* totals) {
  Stopwatch build_watch;
  const std::unique_ptr<core::Formulation> formulation =
      core::build_formulation(instance, core::ModelKind::kCSigma, build);
  totals->build_ms += build_watch.seconds() * 1000.0;
  ++totals->models;
  const mip::Model& model = formulation->model();
  totals->rows += model.num_constraints();
  totals->cols += model.num_vars();

  std::vector<bool> is_integer;
  const lp::Problem problem = model.to_lp(&is_integer);
  const int m = problem.num_rows();
  const int n = problem.num_columns();
  if (m == 0) return;

  // The simplex appends one logical per row with A x - s = 0, so the
  // all-slack start basis is -I.
  linalg::BasisColumns slack_basis(m);
  for (int i = 0; i < m; ++i) {
    slack_basis.begin_column();
    slack_basis.add(i, -1.0);
  }
  time_factorize(slack_basis, totals);

  lp::Simplex simplex(problem);
  Stopwatch root_watch;
  const lp::SolveStatus status = simplex.solve();
  totals->root_ms += root_watch.seconds() * 1000.0;
  ++totals->root_solves;
  totals->root_pivots += simplex.total_pivots();
  totals->root_phase1 += simplex.stats().phase1_iterations;
  if (status != lp::SolveStatus::kOptimal) return;

  linalg::BasisColumns optimal_basis(m);
  const linalg::SparseMatrix& matrix = problem.matrix();
  for (int i = 0; i < m; ++i) {
    optimal_basis.begin_column();
    const int v = simplex.basic_variable(i);
    if (v < n) {
      for (const linalg::SparseEntry& entry : matrix.column(v))
        optimal_basis.add(entry.index, entry.value);
    } else {
      optimal_basis.add(v - n, -1.0);
    }
  }
  time_factorize(optimal_basis, totals);
}

void report_probe(const ProbeTotals& probes, RunResult* result) {
  if (probes.factorize_failures > 0)
    result->fail(format("SparseLuBasis::factorize refused %ld of %ld probe "
                        "bases",
                        probes.factorize_failures, probes.factorizations));
  const double models = static_cast<double>(probes.models);
  const double rows = ratio(static_cast<double>(probes.rows), models);
  const double cols = ratio(static_cast<double>(probes.cols), models);
  result->set("tvnep.build_ms", ratio(probes.build_ms, models), "ms");
  result->set("tvnep.model_rows", rows, "count");
  result->set("tvnep.model_cols", cols, "count");
  result->set("linalg.factorize_us",
              ratio(probes.factorize_us,
                    static_cast<double>(probes.factorizations)),
              "us");
  const double solves = static_cast<double>(probes.root_solves);
  result->set("lp.root_ms", ratio(probes.root_ms, solves), "ms");
  result->set("lp.root_pivots",
              ratio(static_cast<double>(probes.root_pivots), solves), "count");
  result->set("lp.phase1_iters",
              ratio(static_cast<double>(probes.root_phase1), solves), "count");
  result->set("lp.us_per_pivot",
              ratio(probes.root_ms * 1000.0,
                    static_cast<double>(probes.root_pivots)),
              "us");
  result->note(format("root-LP probes: %ld models, %.1f rows x %.1f cols, "
                      "factorize %.1f us, root LP %.3f ms / %.1f pivots "
                      "(%.1f phase 1)",
                      probes.models, rows, cols,
                      ratio(probes.factorize_us,
                            static_cast<double>(probes.factorizations)),
                      ratio(probes.root_ms, solves),
                      ratio(static_cast<double>(probes.root_pivots), solves),
                      ratio(static_cast<double>(probes.root_phase1), solves)));
}

void report_registry(const obs::MetricsSnapshot& metrics, RunResult* result) {
  result->set("serve.step.component_size",
              histogram_mean(metrics, "serve.step.component_size"), "count");
  result->set("serve.wal.append_us",
              histogram_mean(metrics, "serve.wal.append_ms") * 1000.0, "us");
  result->set("serve.wal.fsync_us",
              histogram_mean(metrics, "serve.wal.fsync_ms") * 1000.0, "us");
  result->set("serve.wal.fsyncs", counter(metrics, "serve.wal.fsyncs"),
              "count");
  // WAL writes and fsyncs run inside the engine call that made the
  // transition, so this time is part of serve.step and serve.fastpath
  // self time, not an extra layer.
  double wal_ms = 0.0;
  for (const char* name : {"serve.wal.append_ms", "serve.wal.fsync_ms"})
    if (const auto it = metrics.histograms.find(name);
        it != metrics.histograms.end())
      wal_ms += it->second.sum;
  result->set("self.wal_ms", wal_ms, "ms");
}

void report_self_time(const std::vector<obs::TraceEvent>& events,
                      RunResult* result) {
  struct Totals {
    double self_us = 0.0;
    double total_us = 0.0;
    long count = 0;
  };
  std::map<std::string, Totals> by_name;

  // drain() orders events by (tid, ts, -dur): a parent precedes the spans
  // it encloses, so one stack per thread recovers the nesting.
  struct Open {
    std::string name;
    std::int64_t end = 0;
    std::int64_t dur = 0;
    std::int64_t children = 0;
  };
  std::vector<Open> stack;
  std::uint32_t tid = 0;
  auto close_until = [&](std::int64_t ts) {
    while (!stack.empty() && (ts < 0 || stack.back().end <= ts)) {
      const Open& open = stack.back();
      by_name[open.name].self_us += static_cast<double>(
          std::max<std::int64_t>(0, open.dur - open.children));
      stack.pop_back();
    }
  };
  // Queue residency: async begin/end pairs written by different threads,
  // so match them across the whole event list.
  std::map<std::string, std::int64_t> queue_begin;
  for (const obs::TraceEvent& event : events)
    if (event.phase == 'b') queue_begin[event.id] = event.ts_us;
  double queue_us = 0.0;
  long queue_count = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.phase != 'e') continue;
    const auto it = queue_begin.find(event.id);
    if (it == queue_begin.end()) continue;
    queue_us += static_cast<double>(event.ts_us - it->second);
    ++queue_count;
  }

  for (const obs::TraceEvent& event : events) {
    if (event.phase != 'X') continue;
    if (event.tid != tid) {
      close_until(-1);
      tid = event.tid;
    }
    close_until(event.ts_us);
    if (!stack.empty()) stack.back().children += event.dur_us;
    Totals& totals = by_name[event.name];
    totals.total_us += static_cast<double>(event.dur_us);
    ++totals.count;
    stack.push_back(
        Open{event.name, event.ts_us + event.dur_us, event.dur_us, 0});
  }
  close_until(-1);

  std::map<std::string, double> by_layer;
  for (const auto& [name, totals] : by_name)
    by_layer[layer_of(name)] += totals.self_us / 1000.0;
  for (const char* layer : {"serve", "tvnep", "presolve", "mip", "lp",
                            "bench", "unattributed", "stream"})
    result->set(std::string("self.") + layer + "_ms", by_layer[layer], "ms");

  auto mean_us = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  result->set("serve.admit.ms", mean_us("serve.step") / 1000.0, "ms");
  result->set("serve.fastpath.us", mean_us("serve.fastpath"), "us");
  result->set("serve.protocol.parse_us", mean_us("serve.request/parse"), "us");
  result->set("serve.queue_wait_ms",
              ratio(queue_us / 1000.0, static_cast<double>(queue_count)),
              "ms");

  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, totals] : by_name)
    ranked.emplace_back(totals.self_us, name);
  std::sort(ranked.rbegin(), ranked.rend());
  result->note("self time by span (layer: span  self ms  total ms  count):");
  for (std::size_t i = 0; i < ranked.size() && i < 14; ++i) {
    const Totals& totals = by_name[ranked[i].second];
    result->note(format("  %-12s %-26s %10.1f %10.1f %8ld",
                        layer_of(ranked[i].second).c_str(),
                        ranked[i].second.c_str(), totals.self_us / 1000.0,
                        totals.total_us / 1000.0, totals.count));
  }
  result->note(
      "unattributed = self time of serve.step (model build, component "
      "collection, extraction, and its WAL append) and bench.mip_solve "
      "(to_lp, postsolve); stream = serve.stream self time (worker waiting "
      "for input, WAL snapshot publishing); self.wal_ms = WAL write+fsync "
      "time inside serve.step and serve.fastpath self time");
}

}  // namespace perfbench
