// Micro-benchmarks of the substrate: simplex solves, warm restarts, basis
// factorization, MIP knapsacks, dependency-graph construction and model
// building.
#include <benchmark/benchmark.h>

#include "linalg/lu.hpp"
#include "lp/simplex.hpp"
#include "mip/branch_and_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "presolve/presolve.hpp"
#include "support/rng.hpp"
#include "tvnep/dependency.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep {
namespace {

lp::Problem random_lp(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  lp::Problem p;
  for (int j = 0; j < n; ++j)
    p.add_column(0.0, static_cast<double>(rng.uniform_int(1, 5)),
                 static_cast<double>(rng.uniform_int(-5, 5)));
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int j = 0; j < n; ++j)
      if (rng.uniform01() < 0.3)
        coeffs.emplace_back(j, static_cast<double>(rng.uniform_int(-3, 3)));
    p.add_row(-lp::kInfinity, static_cast<double>(rng.uniform_int(1, 10)),
              coeffs);
  }
  p.finalize();
  return p;
}

void BM_SimplexColdSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const lp::Problem p = random_lp(n, n / 2, 42);
  for (auto _ : state) {
    lp::Simplex s(p);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SimplexColdSolve)->Arg(50)->Arg(100)->Arg(200);

void BM_SimplexWarmRestart(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const lp::Problem p = random_lp(n, n / 2, 42);
  lp::Simplex s(p);
  s.solve();
  bool tighten = true;
  for (auto _ : state) {
    s.set_bounds(0, 0.0, tighten ? 0.0 : p.column(0).upper);
    tighten = !tighten;
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SimplexWarmRestart)->Arg(50)->Arg(100)->Arg(200);

// A simplex-shaped basis for the factorize pair: every column is the -1
// slack of its own row except a `structural_pct` share of structural
// columns, each a diagonal entry plus three off-diagonal entries at
// seeded rows (the mix a basis has part-way through phase 1).
linalg::BasisColumns lu_basis(int m, int structural_pct, std::uint64_t seed) {
  Rng rng(seed);
  linalg::BasisColumns b(m);
  for (int c = 0; c < m; ++c) {
    b.begin_column();
    if (rng.uniform_int(0, 99) >= structural_pct) {
      b.add(c, -1.0);
      continue;
    }
    b.add(c, rng.uniform(1.0, 3.0));
    for (int t = 0; t < 3; ++t) {
      const int r = static_cast<int>(rng.uniform_int(0, m - 1));
      if (r != c) b.add(r, rng.uniform(-1.0, 1.0));
    }
  }
  return b;
}

// The factorize pair: time per SparseLuBasis::factorize at m in {500,
// 2000, 8000} on the all-slack start basis and on a 30%-structural one.
// One instance is refactorized across iterations, as the simplex does.
void BM_SparseLuFactorize(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const linalg::BasisColumns basis =
      lu_basis(m, static_cast<int>(state.range(1)), 42);
  linalg::SparseLuBasis factor;
  for (auto _ : state) {
    if (!factor.factorize(basis)) {
      state.SkipWithError("basis is singular");
      break;
    }
  }
  state.counters["fill"] = factor.fill_ratio();
}
BENCHMARK(BM_SparseLuFactorize)
    ->ArgNames({"m", "structural_pct"})
    ->Args({500, 0})
    ->Args({500, 30})
    ->Args({2000, 0})
    ->Args({2000, 30})
    ->Args({8000, 0})
    ->Args({8000, 30})
    ->Unit(benchmark::kMicrosecond);

void BM_MipKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  mip::Model m;
  mip::LinExpr weight, value;
  for (int i = 0; i < n; ++i) {
    const mip::Var x = m.add_binary();
    weight += static_cast<double>(rng.uniform_int(1, 20)) * x;
    value += static_cast<double>(rng.uniform_int(1, 30)) * x;
  }
  m.add_constr(weight <= 5.0 * n);
  m.set_objective(mip::Sense::kMaximize, value);
  for (auto _ : state) {
    mip::MipSolver solver;
    benchmark::DoNotOptimize(solver.solve(m));
  }
}
BENCHMARK(BM_MipKnapsack)->Arg(10)->Arg(20)->Arg(30);

// The presolve ablation pair: the full cΣ solve on a small grid workload
// with presolve on (Args {requests, 1}) vs off (Args {requests, 0}).
// Counters expose the B&B node count and the presolve reductions so the
// two variants can be compared side by side in one report.
void BM_CSigmaSolve(benchmark::State& state) {
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.star_leaves = 2;
  params.num_requests = static_cast<int>(state.range(0));
  params.seed = 1;
  params.flexibility = 1.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  const auto formulation =
      core::build_formulation(instance, core::ModelKind::kCSigma, {});

  mip::MipOptions options;
  options.presolve = state.range(1) != 0;
  long nodes = 0, rows_removed = 0, cols_removed = 0;
  for (auto _ : state) {
    mip::MipSolver solver(options);
    const mip::MipResult r = solver.solve(formulation->model());
    benchmark::DoNotOptimize(r.objective);
    nodes = r.nodes;
    rows_removed = r.presolve_rows_removed;
    cols_removed = r.presolve_cols_removed;
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["pre_rows"] = static_cast<double>(rows_removed);
  state.counters["pre_cols"] = static_cast<double>(cols_removed);
}
BENCHMARK(BM_CSigmaSolve)
    ->ArgNames({"requests", "presolve"})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Unit(benchmark::kMillisecond);

// The root-cut + reduced-cost-fixing ablation pair on the fig3 hard cell
// (cΣ, 2×3 grid, 4 requests, 3 h flexibility): Args {seed, 0} strips the
// cutting-plane loop and rc fixing, Args {seed, 1} is the default
// configuration. Counters expose nodes/cuts/rc-fixed so the node-count
// reduction the cuts buy is visible next to the wall-clock delta; the
// objectives of both variants must match (the cut-validity tests pin
// that invariant).
void BM_CSigmaSolveCuts(benchmark::State& state) {
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 3;
  params.star_leaves = 2;
  params.num_requests = 4;
  params.seed = static_cast<unsigned>(state.range(0));
  params.flexibility = 3.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  const auto formulation =
      core::build_formulation(instance, core::ModelKind::kCSigma, {});

  mip::MipOptions options;
  const bool cuts = state.range(1) != 0;
  if (!cuts) options.cut_rounds = 0;
  options.rc_fixing = cuts;
  long nodes = 0, cuts_added = 0, rc_fixed = 0;
  double objective = 0.0;
  for (auto _ : state) {
    mip::MipSolver solver(options);
    const mip::MipResult r = solver.solve(formulation->model());
    benchmark::DoNotOptimize(r.objective);
    nodes = r.nodes;
    cuts_added = r.cuts_added;
    rc_fixed = r.rc_fixed;
    objective = r.objective;
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["cuts"] = static_cast<double>(cuts_added);
  state.counters["rc_fixed"] = static_cast<double>(rc_fixed);
  state.counters["objective"] = objective;
}
BENCHMARK(BM_CSigmaSolveCuts)
    ->ArgNames({"seed", "cuts"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

// The numerical-resilience overhead pair (ISSUE acceptance: scaling +
// recovery ladder <= 5% on clean instances). Arg 0 strips the resilience
// layer (no equilibration, no recovery ladder), arg 1 is the default
// configuration; no faults are injected, so the delta is pure bookkeeping:
// the one-off scaling pass plus unit-factor conversions on extraction.
void BM_CSigmaSolveResilience(benchmark::State& state) {
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.star_leaves = 2;
  params.num_requests = static_cast<int>(state.range(0));
  params.seed = 1;
  params.flexibility = 1.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  const auto formulation =
      core::build_formulation(instance, core::ModelKind::kCSigma, {});

  mip::MipOptions options;
  const bool resilience = state.range(1) != 0;
  options.lp.scaling = resilience;
  options.lp.recovery = resilience;
  long nodes = 0, recoveries = 0;
  for (auto _ : state) {
    mip::MipSolver solver(options);
    const mip::MipResult r = solver.solve(formulation->model());
    benchmark::DoNotOptimize(r.objective);
    nodes = r.nodes;
    recoveries = r.lp_recoveries;
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["recoveries"] = static_cast<double>(recoveries);
}
BENCHMARK(BM_CSigmaSolveResilience)
    ->ArgNames({"requests", "resilience"})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Unit(benchmark::kMillisecond);

// The reduction loop alone on the cΣ grid model (no tree search).
void BM_PresolveCSigma(benchmark::State& state) {
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 3;
  params.star_leaves = 2;
  params.num_requests = static_cast<int>(state.range(0));
  params.seed = 1;
  params.flexibility = 2.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  const auto formulation =
      core::build_formulation(instance, core::ModelKind::kCSigma, {});
  presolve::PresolveStats stats;
  for (auto _ : state) {
    auto result = presolve::run(formulation->model());
    benchmark::DoNotOptimize(result.reduced.num_vars());
    stats = result.stats;
  }
  state.counters["rows_removed"] = static_cast<double>(stats.rows_removed);
  state.counters["cols_removed"] = static_cast<double>(stats.cols_removed);
  state.counters["coeffs"] = static_cast<double>(stats.coeffs_tightened);
}
BENCHMARK(BM_PresolveCSigma)->Arg(4)->Arg(8)->Arg(12);

// The observability overhead pair (ISSUE acceptance: <= 2% with tracing
// compiled in but inactive). Arg 0 = subsystems off (every instrumentation
// site is one relaxed atomic load + branch), arg 1 = tracer + metrics
// recording (events are discarded between iterations so the shards do not
// grow unboundedly).
void BM_CSigmaSolveObs(benchmark::State& state) {
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.star_leaves = 2;
  params.num_requests = 2;
  params.seed = 1;
  params.flexibility = 1.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  const auto formulation =
      core::build_formulation(instance, core::ModelKind::kCSigma, {});

  const bool obs_on = state.range(0) != 0;
  if (obs_on) {
    obs::Tracer::instance().reset();
    obs::Tracer::instance().start();
    obs::Metrics::instance().reset();
    obs::Metrics::instance().start();
  }
  long nodes = 0;
  for (auto _ : state) {
    mip::MipSolver solver;
    const mip::MipResult r = solver.solve(formulation->model());
    benchmark::DoNotOptimize(r.objective);
    nodes = r.nodes;
    if (obs_on) {
      state.PauseTiming();
      obs::Tracer::instance().reset();
      state.ResumeTiming();
    }
  }
  if (obs_on) {
    obs::Tracer::instance().stop();
    obs::Tracer::instance().reset();
    obs::Metrics::instance().stop();
    obs::Metrics::instance().reset();
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_CSigmaSolveObs)
    ->ArgNames({"obs"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The raw cost of one instrumentation site: a span constructor/destructor
// plus a counter bump, with the subsystems inactive (arg 0, the cost every
// un-instrumented run pays) vs active (arg 1).
void BM_SpanEvent(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  if (obs_on) {
    obs::Tracer::instance().reset();
    obs::Tracer::instance().start();
    obs::Metrics::instance().reset();
    obs::Metrics::instance().start();
  }
  long spins = 0;
  for (auto _ : state) {
    obs::SpanScope span("bench.span", "bench");
    obs::counter_add("bench.events");
    benchmark::DoNotOptimize(++spins);
    if (obs_on && spins % 65536 == 0) {
      state.PauseTiming();
      obs::Tracer::instance().reset();
      state.ResumeTiming();
    }
  }
  if (obs_on) {
    obs::Tracer::instance().stop();
    obs::Tracer::instance().reset();
    obs::Metrics::instance().stop();
    obs::Metrics::instance().reset();
  }
}
BENCHMARK(BM_SpanEvent)->ArgNames({"obs"})->Arg(0)->Arg(1);

void BM_DependencyGraph(benchmark::State& state) {
  workload::WorkloadParams params;
  params.num_requests = static_cast<int>(state.range(0));
  params.seed = 1;
  params.flexibility = 1.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  for (auto _ : state) {
    core::DependencyGraph graph(instance);
    benchmark::DoNotOptimize(graph.num_edges());
  }
}
BENCHMARK(BM_DependencyGraph)->Arg(10)->Arg(20)->Arg(40);

void BM_BuildCSigmaModel(benchmark::State& state) {
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 3;
  params.star_leaves = 2;
  params.num_requests = static_cast<int>(state.range(0));
  params.seed = 1;
  params.flexibility = 2.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  for (auto _ : state) {
    auto f = core::build_formulation(instance, core::ModelKind::kCSigma, {});
    benchmark::DoNotOptimize(f->model().num_constraints());
  }
}
BENCHMARK(BM_BuildCSigmaModel)->Arg(4)->Arg(8)->Arg(12);

void BM_GenerateWorkload(benchmark::State& state) {
  workload::WorkloadParams params;
  params.num_requests = static_cast<int>(state.range(0));
  params.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::generate_workload(params));
  }
}
BENCHMARK(BM_GenerateWorkload)->Arg(20)->Arg(100);

}  // namespace
}  // namespace tvnep

BENCHMARK_MAIN();
