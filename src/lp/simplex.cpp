#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "linalg/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace tvnep::lp {

namespace {
constexpr double kInf = kInfinity;
// Base of the dual cost perturbation and the floor of a dual steepest-edge
// weight.
constexpr double kDualPerturbation = 5e-7;
constexpr double kMinDseWeight = 1e-4;

bool finite(double v) { return std::isfinite(v); }

// A value in [0, 1) that depends only on v (the splitmix64 finalizer), so
// the cost perturbation is the same on every run and every thread.
double unit_hash(int v) {
  std::uint64_t z = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}
}  // namespace

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
    case SolveStatus::kTimeLimit: return "time-limit";
    case SolveStatus::kNumericalFailure: return "numerical-failure";
  }
  return "unknown";
}

Simplex::Simplex(const Problem& problem, SimplexOptions options)
    : problem_(&problem),
      options_(std::move(options)),
      factor_(std::max(1, options_.refactor_interval)) {
  TVNEP_REQUIRE(problem.finalized(), "Simplex requires a finalized problem");
  if (options_.scaling) build_scaling(problem);
  num_structural_ = problem.num_columns();
  num_rows_ = problem.matrix().rows();
  mat_ = scaled_ ? &scaled_matrix_ : &problem.matrix();
  const int n = num_structural();
  const int m = num_rows();
  lower_.resize(static_cast<std::size_t>(n + m));
  upper_.resize(static_cast<std::size_t>(n + m));
  reset_bounds();
  x_.assign(static_cast<std::size_t>(n + m), 0.0);
  status_.assign(static_cast<std::size_t>(n + m), VarStatus::kAtLower);
  duals_.assign(static_cast<std::size_t>(m), 0.0);
  if (options_.max_iterations <= 0)
    options_.max_iterations = std::max(20000, 60 * (n + m));
}

// Geometric-mean equilibration of the constraint matrix. Two sweeps of
// row-then-column scale refinement, then every factor is rounded to the
// nearest power of two so applying (and inverting) the scaling is exact in
// floating point. When every rounded factor is 1 the matrix was already
// well scaled and the copy is skipped entirely — clean instances pay only
// the analysis sweep, once per Simplex lifetime.
void Simplex::build_scaling(const Problem& problem) {
  const int m = problem.num_rows();
  const int n = problem.num_columns();
  if (m == 0 || n == 0) return;
  const auto& matrix = problem.matrix();
  std::vector<double> rs(static_cast<std::size_t>(m), 1.0);
  std::vector<double> cs(static_cast<std::size_t>(n), 1.0);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < m; ++i) {
      double lo = kInf, hi = 0.0;
      for (const auto& entry : matrix.row(i)) {
        const double a = std::fabs(entry.value) *
                         rs[static_cast<std::size_t>(i)] *
                         cs[static_cast<std::size_t>(entry.index)];
        if (a == 0.0) continue;
        lo = std::min(lo, a);
        hi = std::max(hi, a);
      }
      if (hi > 0.0) rs[static_cast<std::size_t>(i)] /= std::sqrt(lo * hi);
    }
    for (int j = 0; j < n; ++j) {
      double lo = kInf, hi = 0.0;
      for (const auto& entry : matrix.column(j)) {
        const double a = std::fabs(entry.value) *
                         rs[static_cast<std::size_t>(entry.index)] *
                         cs[static_cast<std::size_t>(j)];
        if (a == 0.0) continue;
        lo = std::min(lo, a);
        hi = std::max(hi, a);
      }
      if (hi > 0.0) cs[static_cast<std::size_t>(j)] /= std::sqrt(lo * hi);
    }
  }
  auto round_pow2 = [](double s) { return std::exp2(std::round(std::log2(s))); };
  bool any = false;
  for (double& s : rs) {
    s = round_pow2(s);
    if (s != 1.0) any = true;
  }
  for (double& s : cs) {
    s = round_pow2(s);
    if (s != 1.0) any = true;
  }
  if (!any) return;

  // Scaled data: A' = R A C and c' = C c, x = C x'. The scaled objective
  // c'^T x' equals the original c^T x exactly (power-of-two factors cancel
  // without rounding). Bounds are converted on the fly by reset_bounds /
  // set_bounds, so only the matrix and cost vector are materialized.
  scaled_matrix_ = matrix;
  scaled_matrix_.scale(rs, cs);
  scaled_cost_.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j)
    scaled_cost_[static_cast<std::size_t>(j)] =
        problem.column(j).cost * cs[static_cast<std::size_t>(j)];
  row_scale_ = std::move(rs);
  col_scale_ = std::move(cs);
  scaled_ = true;
  obs::counter_add("lp.scaled_problems");
}

void Simplex::set_bounds(int j, double lo, double hi) {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "set_bounds: bad column");
  TVNEP_REQUIRE(lo <= hi, "set_bounds: crossed bounds");
  const double s = col_scale(j);
  lower_[static_cast<std::size_t>(j)] = lo / s;
  upper_[static_cast<std::size_t>(j)] = hi / s;
}

void Simplex::reset_bounds() {
  const int n = num_structural();
  const int m = num_rows();
  for (int j = 0; j < n; ++j) {
    const double s = col_scale(j);
    lower_[static_cast<std::size_t>(j)] = problem_->column(j).lower / s;
    upper_[static_cast<std::size_t>(j)] = problem_->column(j).upper / s;
  }
  for (int i = 0; i < m; ++i) {
    const double s = row_scale(i);
    lower_[static_cast<std::size_t>(n + i)] = problem_->row(i).lower * s;
    upper_[static_cast<std::size_t>(n + i)] = problem_->row(i).upper * s;
  }
}

double Simplex::working_lower(int j) const {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "working_lower: bad column");
  return lower_[static_cast<std::size_t>(j)] * col_scale(j);
}

double Simplex::working_upper(int j) const {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "working_upper: bad column");
  return upper_[static_cast<std::size_t>(j)] * col_scale(j);
}

void Simplex::set_cost(int j, double cost) {
  const_cast<Problem*>(problem_)->set_cost(j, cost);
  if (scaled_)
    scaled_cost_[static_cast<std::size_t>(j)] = cost * col_scale(j);
}

double Simplex::var_cost(int v) const {
  return is_slack(v) ? 0.0 : struct_cost(v);
}

void Simplex::ftran(int v, std::vector<double>& alpha) const {
  const int m = num_rows();
  alpha.assign(static_cast<std::size_t>(m), 0.0);
  if (is_slack(v)) {
    alpha[static_cast<std::size_t>(v - num_structural())] = -1.0;
  } else {
    for (const auto& entry : mat().column(v))
      alpha[static_cast<std::size_t>(entry.index)] = entry.value;
  }
  factor_.ftran(alpha);
}

double Simplex::column_dot(int v, const std::vector<double>& y) const {
  if (is_slack(v)) return -y[static_cast<std::size_t>(v - num_structural())];
  double sum = 0.0;
  for (const auto& entry : mat().column(v))
    sum += entry.value * y[static_cast<std::size_t>(entry.index)];
  return sum;
}

void Simplex::cold_start() {
  const int n = num_structural();
  const int m = num_rows();
  basis_.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    basis_[static_cast<std::size_t>(i)] = n + i;
    status_[static_cast<std::size_t>(n + i)] = VarStatus::kBasic;
  }
  for (int j = 0; j < n; ++j) {
    const double lo = lower(j);
    const double hi = upper(j);
    auto& st = status_[static_cast<std::size_t>(j)];
    if (finite(lo)) {
      st = VarStatus::kAtLower;
      x_[static_cast<std::size_t>(j)] = lo;
    } else if (finite(hi)) {
      st = VarStatus::kAtUpper;
      x_[static_cast<std::size_t>(j)] = hi;
    } else {
      st = VarStatus::kFree;
      x_[static_cast<std::size_t>(j)] = 0.0;
    }
  }
  // B = -I (every slack column is -e_i), which factorizes unconditionally.
  const bool ok = factorize_basis();
  TVNEP_REQUIRE(ok, "cold start: all-slack basis failed to factorize");
  has_basis_ = true;
  dse_weights_valid_ = false;
  degenerate_streak_ = 0;
}

void Simplex::compute_basic_values() {
  const int n = num_structural();
  const int m = num_rows();
  // rhs = b - N x_N with b = 0.
  std::vector<double> rhs(static_cast<std::size_t>(m), 0.0);
  for (int v = 0; v < n + m; ++v) {
    if (status_[static_cast<std::size_t>(v)] == VarStatus::kBasic) continue;
    const double xv = x_[static_cast<std::size_t>(v)];
    if (xv == 0.0) continue;
    if (is_slack(v)) {
      rhs[static_cast<std::size_t>(v - n)] += xv;  // -(-1) * x
    } else {
      for (const auto& entry : mat().column(v))
        rhs[static_cast<std::size_t>(entry.index)] -= entry.value * xv;
    }
  }
  factor_.ftran(rhs);
  for (int i = 0; i < m; ++i)
    x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
        rhs[static_cast<std::size_t>(i)];
}

void Simplex::compute_duals_phase2(std::vector<double>& y) const {
  const int m = num_rows();
  // y = B^-T c_B: load the basic costs in basis-position space and BTRAN.
  y.assign(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i)
    y[static_cast<std::size_t>(i)] =
        var_cost(basis_[static_cast<std::size_t>(i)]);
  factor_.btran(y);
}

void Simplex::compute_duals_phase1(std::vector<double>& y) const {
  const int m = num_rows();
  const double tol = options_.feasibility_tol;
  y.assign(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    const int v = basis_[static_cast<std::size_t>(i)];
    const double xv = x_[static_cast<std::size_t>(v)];
    double w = 0.0;
    if (xv < lower(v) - tol) w = -1.0;
    else if (xv > upper(v) + tol) w = 1.0;
    y[static_cast<std::size_t>(i)] = w;
  }
  factor_.btran(y);
}

double Simplex::infeasibility() const {
  double total = 0.0;
  for (int i = 0; i < num_rows(); ++i) {
    const int v = basis_[static_cast<std::size_t>(i)];
    const double xv = x_[static_cast<std::size_t>(v)];
    if (xv < lower(v)) total += lower(v) - xv;
    else if (xv > upper(v)) total += xv - upper(v);
  }
  return total;
}

void Simplex::rebuild_pricing() {
  const int total = num_vars();
  pricing_candidates_.clear();
  pricing_candidates_.reserve(static_cast<std::size_t>(total));
  for (int v = 0; v < total; ++v) {
    // Fixed columns (lb == ub under the working bounds) can never
    // profitably enter; they stay out of the candidate list so pricing
    // never visits them. Presolve substitutes input-fixed columns away
    // before the LP even reaches the solver; the ones excluded here are
    // branch-and-bound fixings applied through set_bounds.
    if (upper(v) - lower(v) < 1e-14) continue;
    pricing_candidates_.push_back(v);
  }
  pricing_cursor_ = 0;
}

int Simplex::price(Phase phase, const std::vector<double>& y, bool bland,
                   double* direction) const {
  const double tol = options_.optimality_tol;
  *direction = 0.0;
  const std::size_t count = pricing_candidates_.size();
  if (count == 0) return -1;

  // Admissibility + reduced cost of one candidate. Returns the entering
  // direction (0 when the variable cannot improve).
  auto reduced = [&](int v, double* d_out) -> double {
    const VarStatus st = status_[static_cast<std::size_t>(v)];
    if (st == VarStatus::kBasic) return 0.0;
    if (upper(v) - lower(v) < 1e-14) return 0.0;  // fixed
    const double c = (phase == Phase::kPhase2) ? var_cost(v) : 0.0;
    const double d = c - column_dot(v, y);
    double dir = 0.0;
    if (st == VarStatus::kAtLower && d < -tol) dir = 1.0;
    else if (st == VarStatus::kAtUpper && d > tol) dir = -1.0;
    else if (st == VarStatus::kFree && std::fabs(d) > tol) dir = d > 0 ? -1.0 : 1.0;
    *d_out = d;
    return dir;
  };

  if (bland) {
    // Bland's rule: lowest-index admissible candidate, scanned in index
    // order from the start (the cursor must not influence anti-cycling).
    for (const int v : pricing_candidates_) {
      double d = 0.0;
      const double dir = reduced(v, &d);
      if (dir != 0.0) {
        *direction = dir;
        return v;
      }
    }
    return -1;
  }

  // Partial Dantzig: scan rotating windows from the cursor and take the
  // best of the first window containing an admissible candidate, so an
  // iteration typically prices a fraction of the columns. Optimality is
  // only declared after a full-list scan finds nothing.
  const std::size_t window = std::max<std::size_t>(64, count / 8);
  std::size_t scanned = 0;
  while (scanned < count) {
    const std::size_t chunk = std::min(window, count - scanned);
    int best = -1;
    double best_score = tol;
    double best_dir = 0.0;
    for (std::size_t t = 0; t < chunk; ++t) {
      const int v =
          pricing_candidates_[(pricing_cursor_ + scanned + t) % count];
      double d = 0.0;
      const double dir = reduced(v, &d);
      if (dir == 0.0) continue;
      const double score = std::fabs(d);
      if (score > best_score) {
        best_score = score;
        best = v;
        best_dir = dir;
      }
    }
    scanned += chunk;
    if (best >= 0) {
      pricing_cursor_ = (pricing_cursor_ + scanned) % count;
      *direction = best_dir;
      return best;
    }
  }
  return -1;
}

Simplex::RatioResult Simplex::ratio_test(Phase /*phase*/, int entering,
                                         double direction,
                                         const std::vector<double>& alpha) const {
  const double ftol = options_.feasibility_tol;
  const double ptol = options_.pivot_tol;
  RatioResult best;
  double best_step = kInf;  // tightest block from a basic variable
  double best_pivot_mag = 0.0;

  // Entering variable's own opposite bound (bound flip candidate).
  const double range = upper(entering) - lower(entering);
  const bool own_bound_limits = finite(range);

  for (int i = 0; i < num_rows(); ++i) {
    const double a = alpha[static_cast<std::size_t>(i)];
    if (std::fabs(a) <= ptol) continue;
    const double delta = -a * direction;  // rate of change of basic value
    const int v = basis_[static_cast<std::size_t>(i)];
    const double xv = x_[static_cast<std::size_t>(v)];
    const double lo = lower(v);
    const double hi = upper(v);

    double step = kInf;
    double target = 0.0;
    VarStatus target_status = VarStatus::kAtLower;
    if (xv < lo - ftol) {
      // Infeasible below: blocks only when rising to its lower bound.
      if (delta > 0.0) {
        step = (lo - xv) / delta;
        target = lo;
        target_status = VarStatus::kAtLower;
      }
    } else if (xv > hi + ftol) {
      // Infeasible above: blocks only when falling to its upper bound.
      if (delta < 0.0) {
        step = (hi - xv) / delta;
        target = hi;
        target_status = VarStatus::kAtUpper;
      }
    } else if (delta > 0.0) {
      if (finite(hi)) {
        step = (hi - xv) / delta;
        target = hi;
        target_status = VarStatus::kAtUpper;
      }
    } else {
      if (finite(lo)) {
        step = (lo - xv) / delta;  // delta < 0, lo - xv <= 0 → step >= 0
        target = lo;
        target_status = VarStatus::kAtLower;
      }
    }
    if (!finite(step)) continue;
    step = std::max(step, 0.0);
    const double mag = std::fabs(a);
    if (step < best_step - 1e-12 ||
        (step < best_step + 1e-12 && mag > best_pivot_mag)) {
      best_step = step;
      best_pivot_mag = mag;
      best.leaving_row = i;
      best.leaving_target = target;
      best.leaving_status = target_status;
    }
  }

  if (own_bound_limits && range <= best_step) {
    // The entering variable reaches its opposite bound first: bound flip,
    // no basis change.
    best.blocked = true;
    best.bound_flip = true;
    best.leaving_row = -1;
    best.step = range;
    return best;
  }
  if (!finite(best_step)) return best;  // unbounded direction
  best.blocked = true;
  best.step = best_step;
  return best;
}

void Simplex::apply_bound_flip(int entering, double direction, double step,
                               const std::vector<double>& alpha) {
  for (int i = 0; i < num_rows(); ++i) {
    const double a = alpha[static_cast<std::size_t>(i)];
    if (a == 0.0) continue;
    x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
        a * direction * step;
  }
  auto& st = status_[static_cast<std::size_t>(entering)];
  if (direction > 0.0) {
    st = VarStatus::kAtUpper;
    x_[static_cast<std::size_t>(entering)] = upper(entering);
  } else {
    st = VarStatus::kAtLower;
    x_[static_cast<std::size_t>(entering)] = lower(entering);
  }
}

bool Simplex::apply_basis_update(int leaving_row,
                                 const std::vector<double>& alpha) {
  if (options_.basis_update_fault_hook &&
      options_.basis_update_fault_hook(total_pivots_)) {
    obs::counter_add("lp.basis.update_faults");
  } else if (factor_.update(leaving_row, alpha)) {
    ++stats_.basis_updates;
    return true;
  }
  // Update refused (eta budget, unsafe pivot, or injected fault): rebuild
  // the factorization from the basis columns instead.
  return refactorize();
}

bool Simplex::pivot(int entering, double direction, const RatioResult& ratio,
                    const std::vector<double>& alpha) {
  const int r = ratio.leaving_row;
  const int leaving = basis_[static_cast<std::size_t>(r)];
  for (int i = 0; i < num_rows(); ++i) {
    const double a = alpha[static_cast<std::size_t>(i)];
    if (a == 0.0) continue;
    x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
        a * direction * ratio.step;
  }
  x_[static_cast<std::size_t>(entering)] += direction * ratio.step;
  x_[static_cast<std::size_t>(leaving)] = ratio.leaving_target;
  status_[static_cast<std::size_t>(leaving)] = ratio.leaving_status;
  status_[static_cast<std::size_t>(entering)] = VarStatus::kBasic;
  basis_[static_cast<std::size_t>(r)] = entering;
  ++total_pivots_;
  dse_weights_valid_ = false;
  return apply_basis_update(r, alpha);
}

SolveStatus Simplex::primal_simplex(Phase phase, const Deadline& deadline) {
  obs::SpanScope span(trace_spans_,
                      phase == Phase::kPhase1 ? "lp.phase1" : "lp.phase2",
                      "lp");
  std::vector<double> y;
  std::vector<double> alpha;
  int iterations = 0;
  int refactor_attempts = 0;
  bool bland_previous = false;
  int& stat_iters = (phase == Phase::kPhase1) ? stats_.phase1_iterations
                                              : stats_.phase2_iterations;
  for (;;) {
    if (phase == Phase::kPhase1 &&
        infeasibility() <= options_.feasibility_tol * 10.0)
      return SolveStatus::kOptimal;  // feasible; caller proceeds to phase 2
    if (iterations >= options_.max_iterations)
      return SolveStatus::kIterationLimit;
    if ((iterations & 63) == 0 && out_of_time(deadline))
      return SolveStatus::kTimeLimit;
    if (fault_injected()) {
      obs::counter_add("lp.faults_injected");
      return SolveStatus::kNumericalFailure;
    }

    if (phase == Phase::kPhase1) compute_duals_phase1(y);
    else compute_duals_phase2(y);

    const bool bland =
        force_bland_ || degenerate_streak_ > options_.degeneracy_threshold;
    if (bland && !bland_previous) {
      obs::counter_add("lp.bland_switches");
      obs::instant("lp.bland_switch", "lp");
    }
    bland_previous = bland;
    double direction = 0.0;
    const int entering = price(phase, y, bland, &direction);
    if (entering < 0) {
      if (phase == Phase::kPhase1) {
        return infeasibility() <= options_.feasibility_tol * 100.0
                   ? SolveStatus::kOptimal
                   : SolveStatus::kInfeasible;
      }
      return SolveStatus::kOptimal;
    }

    ftran(entering, alpha);
    const RatioResult ratio = ratio_test(phase, entering, direction, alpha);
    if (!ratio.blocked) {
      if (phase == Phase::kPhase2) return SolveStatus::kUnbounded;
      // Phase 1 is bounded below by zero infeasibility; an unblocked ray
      // means the basis inverse has drifted. Refactorize and retry once.
      if (refactor_attempts++ < 2 && refactorize()) continue;
      return SolveStatus::kNumericalFailure;
    }

    if (ratio.step < 1e-11) ++degenerate_streak_;
    else degenerate_streak_ = 0;

    if (ratio.bound_flip) {
      apply_bound_flip(entering, direction, ratio.step, alpha);
    } else if (!pivot(entering, direction, ratio, alpha)) {
      return SolveStatus::kNumericalFailure;
    }

    ++iterations;
    ++stat_iters;
    // Periodic accuracy sweep: recompute basic values from the
    // factorization. Keyed on the per-solve iteration counter — bound
    // flips advance it too, so the cadence cannot park on the lifetime
    // pivot count and either re-run every iteration or never fire.
    if (iterations % 512 == 0) {
      compute_basic_values();
      ++stats_.accuracy_sweeps;
    }
  }
}

void Simplex::compute_reduced_costs() {
  const auto shifted_cost = [&](int v) {
    return var_cost(v) + cost_shift_[static_cast<std::size_t>(v)];
  };
  // y = B^-T (c_B + shift_B), loaded in basis-position space.
  std::vector<double> y(static_cast<std::size_t>(num_rows()));
  for (int i = 0; i < num_rows(); ++i)
    y[static_cast<std::size_t>(i)] =
        shifted_cost(basis_[static_cast<std::size_t>(i)]);
  factor_.btran(y);
  for (int v = 0; v < num_vars(); ++v) {
    dual_d_[static_cast<std::size_t>(v)] =
        status_[static_cast<std::size_t>(v)] == VarStatus::kBasic
            ? 0.0
            : shifted_cost(v) - column_dot(v, y);
  }
}

void Simplex::repair_dual_infeasibilities() {
  const double dtol = options_.optimality_tol;
  bool moved = false;
  for (int v = 0; v < num_vars(); ++v) {
    auto& st = status_[static_cast<std::size_t>(v)];
    if (st == VarStatus::kBasic) continue;
    const double lo = lower(v);
    const double hi = upper(v);
    if (hi - lo < 1e-14) continue;  // fixed: any sign is fine
    double& dv = dual_d_[static_cast<std::size_t>(v)];
    const bool infeasible = (st == VarStatus::kAtLower && dv < -dtol) ||
                            (st == VarStatus::kAtUpper && dv > dtol) ||
                            (st == VarStatus::kFree && std::fabs(dv) > dtol);
    if (!infeasible) continue;
    if (st != VarStatus::kFree && finite(lo) && finite(hi)) {
      st = st == VarStatus::kAtLower ? VarStatus::kAtUpper
                                     : VarStatus::kAtLower;
      x_[static_cast<std::size_t>(v)] = st == VarStatus::kAtUpper ? hi : lo;
      moved = true;
    } else {
      cost_shift_[static_cast<std::size_t>(v)] -= dv;
      dv = 0.0;
    }
  }
  if (moved) compute_basic_values();
}

void Simplex::price_row() {
  for (const int j : row_touched_) {
    row_alpha_[static_cast<std::size_t>(j)] = 0.0;
    in_row_[static_cast<std::size_t>(j)] = 0;
  }
  row_touched_.clear();
  rho_nonzeros_.clear();
  for (int i = 0; i < num_rows(); ++i) {
    const double ri = rho_[static_cast<std::size_t>(i)];
    if (ri == 0.0) continue;
    rho_nonzeros_.push_back(i);
    for (const auto& entry : mat().row(i)) {
      const auto j = static_cast<std::size_t>(entry.index);
      if (!in_row_[j]) {
        in_row_[j] = 1;
        row_touched_.push_back(entry.index);
      }
      row_alpha_[j] += ri * entry.value;
    }
  }
}

SolveStatus Simplex::dual_simplex(const Deadline& deadline) {
  const int m = num_rows();
  const int n = num_structural();
  const double ftol = options_.feasibility_tol;
  const double ptol = options_.pivot_tol;
  // Fixed guard: a perturbed dual does not stall, so reaching it means
  // something is wrong and branch and bound retries the node cold.
  const int guard = std::max(10000, 10 * m);

  // Workspace, allocated on the first dual call only: a solver that is
  // only ever started cold never pays for it.
  if (dual_d_.empty()) {
    cost_shift_.assign(static_cast<std::size_t>(n + m), 0.0);
    dual_d_.assign(static_cast<std::size_t>(n + m), 0.0);
    rho_.assign(static_cast<std::size_t>(m), 0.0);
    row_alpha_.assign(static_cast<std::size_t>(n), 0.0);
    in_row_.assign(static_cast<std::size_t>(n), 0);
  }
  compute_reduced_costs();
  repair_dual_infeasibilities();
  // Cost perturbation against dual degeneracy: every nonbasic, non-fixed,
  // non-free variable moves further into dual feasibility by a few 1e-7,
  // with a per-variable factor from a hash of its index.
  for (int v = 0; v < num_vars(); ++v) {
    const VarStatus st = status_[static_cast<std::size_t>(v)];
    if (st == VarStatus::kBasic || st == VarStatus::kFree) continue;
    if (upper(v) - lower(v) < 1e-14) continue;
    const double base = is_slack(v) ? 0.0 : struct_cost(v);
    double xi =
        kDualPerturbation * (1.0 + std::fabs(base)) * (1.0 + unit_hash(v));
    if (st == VarStatus::kAtUpper) xi = -xi;
    cost_shift_[static_cast<std::size_t>(v)] += xi;
    dual_d_[static_cast<std::size_t>(v)] += xi;
  }
  // The weights carry over from the last dual call unless the basis has
  // changed since by anything but a dual pivot.
  if (!dse_weights_valid_)
    dse_weight_.assign(static_cast<std::size_t>(m), 1.0);
  dse_weights_valid_ = true;
  std::vector<double> alpha;

  SolveStatus status = SolveStatus::kIterationLimit;
  for (int iterations = 0;; ++iterations) {
    if (iterations >= guard) break;
    if ((iterations & 63) == 0 && out_of_time(deadline)) {
      status = SolveStatus::kTimeLimit;
      break;
    }
    if (fault_injected()) {
      obs::counter_add("lp.faults_injected");
      status = SolveStatus::kNumericalFailure;
      break;
    }
    // Periodic refresh against drift in the incremental updates.
    if (iterations > 0 && (iterations & 255) == 0) {
      compute_reduced_costs();
      repair_dual_infeasibilities();
    }

    // Leaving row by dual steepest edge: the largest infeasibility^2 / w_r.
    int r = -1;
    double best = 0.0;
    bool below = false;
    for (int i = 0; i < m; ++i) {
      const int v = basis_[static_cast<std::size_t>(i)];
      const double xv = x_[static_cast<std::size_t>(v)];
      double infeasibility;
      bool is_below;
      if (xv < lower(v) - ftol) {
        infeasibility = lower(v) - xv;
        is_below = true;
      } else if (xv > upper(v) + ftol) {
        infeasibility = xv - upper(v);
        is_below = false;
      } else {
        continue;
      }
      const double score = infeasibility * infeasibility /
                           dse_weight_[static_cast<std::size_t>(i)];
      if (score > best) {
        best = score;
        r = i;
        below = is_below;
      }
    }
    if (r < 0) {
      status = SolveStatus::kOptimal;
      break;
    }

    // rho = row r of B^-1, extracted as B^-T e_r; its norm is the exact
    // steepest-edge weight of row r.
    std::fill(rho_.begin(), rho_.end(), 0.0);
    rho_[static_cast<std::size_t>(r)] = 1.0;
    factor_.btran(rho_);
    price_row();
    double weight_r = 0.0;
    for (const int i : rho_nonzeros_)
      weight_r += rho_[static_cast<std::size_t>(i)] *
                  rho_[static_cast<std::size_t>(i)];
    dse_weight_[static_cast<std::size_t>(r)] = weight_r;

    const double e = below ? 1.0 : -1.0;  // desired change sign of x_B(r)

    // Bound-flipping ratio test: collect every admissible breakpoint
    // (nonbasic variable whose reduced cost would change sign at dual
    // price θ = d_j / |α_rj|), sort by θ, and let early breakpoints *flip*
    // to their opposite bound as long as their combined capacity cannot
    // yet absorb the leaving variable's infeasibility. One such iteration
    // does the work of dozens of degenerate pivots in models with many
    // box-bounded variables.
    breakpoints_.clear();
    auto consider = [&](int v, double arj) {
      const VarStatus st = status_[static_cast<std::size_t>(v)];
      if (st == VarStatus::kBasic) return;
      const double range = upper(v) - lower(v);
      if (range < 1e-14 || std::fabs(arj) <= ptol) return;
      // x_B(r) changes by -arj * dx_v; dx_v >= 0 at lower, <= 0 at upper.
      const double dv = dual_d_[static_cast<std::size_t>(v)];
      double slack;  // the reduced cost's distance from changing sign
      if (st == VarStatus::kAtLower && -arj * e > 0.0) slack = dv;
      else if (st == VarStatus::kAtUpper && arj * e > 0.0) slack = -dv;
      else if (st == VarStatus::kFree) slack = std::fabs(dv);
      else return;
      const double capacity = (st == VarStatus::kFree || !finite(range))
                                  ? kInf
                                  : range * std::fabs(arj);
      breakpoints_.push_back(
          {v, arj, std::max(slack, 0.0) / std::fabs(arj), capacity});
    };
    for (const int j : row_touched_)
      consider(j, row_alpha_[static_cast<std::size_t>(j)]);
    for (const int i : rho_nonzeros_)
      consider(n + i, -rho_[static_cast<std::size_t>(i)]);
    // Breakpoints are taken in (ratio, -|arj|, var) order from a heap:
    // usually only the first few are needed, so a full sort is waste.
    auto later = [](const Breakpoint& a, const Breakpoint& b) {
      if (a.ratio != b.ratio) return a.ratio > b.ratio;
      if (std::fabs(a.arj) != std::fabs(b.arj))
        return std::fabs(a.arj) < std::fabs(b.arj);
      return a.var > b.var;
    };
    std::make_heap(breakpoints_.begin(), breakpoints_.end(), later);

    const int pre_leaving = basis_[static_cast<std::size_t>(r)];
    double delta_remaining =
        std::fabs(x_[static_cast<std::size_t>(pre_leaving)] -
                  (below ? lower(pre_leaving) : upper(pre_leaving)));
    int entering = -1;
    double entering_arj = 0.0;
    flips_.clear();
    for (auto end = breakpoints_.end(); end != breakpoints_.begin(); --end) {
      std::pop_heap(breakpoints_.begin(), end, later);
      const Breakpoint& bp = *(end - 1);
      if (bp.capacity < delta_remaining - 1e-12) {
        flips_.push_back(bp.var);
        delta_remaining -= bp.capacity;
        continue;
      }
      entering = bp.var;
      entering_arj = bp.arj;
      break;
    }
    if (entering < 0) {
      // No admissible entering column, or every one flipped and the
      // violation persists: a dual ray, whatever the costs.
      status = SolveStatus::kInfeasible;
      break;
    }

    if (!flips_.empty()) {
      // Move each flipped variable to its opposite bound and push the
      // aggregate effect through the basis in a single FTRAN.
      std::vector<double>& aggregate = tau_;
      aggregate.assign(static_cast<std::size_t>(m), 0.0);
      for (const int v : flips_) {
        auto& st = status_[static_cast<std::size_t>(v)];
        const double old_x = x_[static_cast<std::size_t>(v)];
        double new_x;
        if (st == VarStatus::kAtLower) {
          new_x = upper(v);
          st = VarStatus::kAtUpper;
        } else {
          new_x = lower(v);
          st = VarStatus::kAtLower;
        }
        x_[static_cast<std::size_t>(v)] = new_x;
        const double dx = new_x - old_x;
        if (dx == 0.0) continue;
        if (is_slack(v)) {
          aggregate[static_cast<std::size_t>(v - n)] -= dx;
        } else {
          for (const auto& entry : mat().column(v))
            aggregate[static_cast<std::size_t>(entry.index)] +=
                entry.value * dx;
        }
      }
      factor_.ftran(aggregate);
      for (int i = 0; i < m; ++i)
        x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
            aggregate[static_cast<std::size_t>(i)];
    }

    ftran(entering, alpha);
    const double pivot_val = alpha[static_cast<std::size_t>(r)];
    if (std::fabs(pivot_val) <= ptol ||
        std::fabs(pivot_val - entering_arj) >
            1e-5 * std::max(1.0, std::fabs(pivot_val))) {
      // The row and column views of the pivot disagree → numerical drift.
      // Refactorizing recomputes x_B (the flips above included); the
      // repair undoes flips whose reduced cost kept its sign.
      if (!refactorize()) {
        status = SolveStatus::kNumericalFailure;
        break;
      }
      compute_reduced_costs();
      repair_dual_infeasibilities();
      continue;
    }

    // Dual steepest-edge update with tau = B^-1 rho (old basis):
    // w_i += (α_i/α_r)^2 w_r - 2 (α_i/α_r) tau_i, and w_r / α_r^2 for the
    // entering variable's row.
    tau_ = rho_;
    factor_.ftran(tau_);
    for (int i = 0; i < m; ++i) {
      const double a = alpha[static_cast<std::size_t>(i)];
      if (a == 0.0 || i == r) continue;
      const double ratio = a / pivot_val;
      double& w = dse_weight_[static_cast<std::size_t>(i)];
      w = std::max(w + ratio * (ratio * weight_r -
                                2.0 * tau_[static_cast<std::size_t>(i)]),
                   kMinDseWeight);
    }
    dse_weight_[static_cast<std::size_t>(r)] =
        std::max(weight_r / (pivot_val * pivot_val), kMinDseWeight);

    const int leaving = basis_[static_cast<std::size_t>(r)];
    const double target = below ? lower(leaving) : upper(leaving);
    const double dq =
        (x_[static_cast<std::size_t>(leaving)] - target) / pivot_val;
    for (int i = 0; i < m; ++i) {
      const double a = alpha[static_cast<std::size_t>(i)];
      if (a == 0.0) continue;
      x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
          a * dq;
    }
    x_[static_cast<std::size_t>(entering)] += dq;
    x_[static_cast<std::size_t>(leaving)] = target;
    status_[static_cast<std::size_t>(leaving)] =
        below ? VarStatus::kAtLower : VarStatus::kAtUpper;
    status_[static_cast<std::size_t>(entering)] = VarStatus::kBasic;
    basis_[static_cast<std::size_t>(r)] = entering;
    ++total_pivots_;
    ++stats_.dual_iterations;
    // Incremental reduced-cost update over the pivot row: d_j -= θ · α_rj
    // with θ = d_q / α_rq; the leaving variable picks up -θ.
    const double theta =
        dual_d_[static_cast<std::size_t>(entering)] / pivot_val;
    if (theta != 0.0) {
      for (const int j : row_touched_)
        dual_d_[static_cast<std::size_t>(j)] -=
            theta * row_alpha_[static_cast<std::size_t>(j)];
      for (const int i : rho_nonzeros_)
        dual_d_[static_cast<std::size_t>(n + i)] +=
            theta * rho_[static_cast<std::size_t>(i)];
    }
    dual_d_[static_cast<std::size_t>(entering)] = 0.0;
    dual_d_[static_cast<std::size_t>(leaving)] = -theta;
    if (!apply_basis_update(r, alpha)) {
      status = SolveStatus::kNumericalFailure;
      break;
    }
  }
  std::fill(cost_shift_.begin(), cost_shift_.end(), 0.0);
  return status;
}

bool Simplex::refactorize() {
  ++stats_.refactorizations;
  obs::counter_add("lp.refactorizations");
  obs::instant("lp.refactorize", "lp");
  return factorize_basis();
}

bool Simplex::factorize_basis() {
  const int m = num_rows();
  const int n = num_structural();
  linalg::BasisColumns cols(m);
  for (int i = 0; i < m; ++i) {
    cols.begin_column();
    const int v = basis_[static_cast<std::size_t>(i)];
    if (is_slack(v)) {
      cols.add(v - n, -1.0);
    } else {
      for (const auto& entry : mat().column(v))
        cols.add(entry.index, entry.value);
    }
  }
  linalg::LuFailure failure;
  if (!factor_.factorize(cols, &failure)) {
    // Singular basis: surface the breakdown to the obs layer and report
    // failure so the caller's recovery ladder (refactorize → Bland →
    // perturb → cold restart) takes over.
    factor_valid_ = false;
    obs::counter_add("lp.basis.singular");
    obs::instant("lp.basis_singular", "lp",
                 "\"stage\":" + std::to_string(failure.stage) +
                     ",\"pivot\":" + std::to_string(failure.pivot_magnitude) +
                     ",\"threshold\":" + std::to_string(failure.threshold));
    return false;
  }
  factor_valid_ = true;
  const double fill = factor_.fill_ratio();
  stats_.basis_fill_max = std::max(stats_.basis_fill_max, fill);
  obs::histogram_observe("lp.basis.fill", fill);
  compute_basic_values();
  return true;
}

void Simplex::finish_solution() {
  objective_ = 0.0;
  for (int j = 0; j < num_structural(); ++j)
    objective_ += struct_cost(j) * x_[static_cast<std::size_t>(j)];
  std::vector<double> y;
  compute_duals_phase2(y);
  duals_ = std::move(y);
}

void Simplex::place_nonbasics() {
  for (int v = 0; v < num_vars(); ++v) {
    auto& st = status_[static_cast<std::size_t>(v)];
    if (st == VarStatus::kBasic || st == VarStatus::kFree) continue;
    const double lo = lower(v);
    const double hi = upper(v);
    const bool prefer_upper = st == VarStatus::kAtUpper;
    if (finite(prefer_upper ? hi : lo)) {
      x_[static_cast<std::size_t>(v)] = prefer_upper ? hi : lo;
    } else if (finite(prefer_upper ? lo : hi)) {
      st = prefer_upper ? VarStatus::kAtLower : VarStatus::kAtUpper;
      x_[static_cast<std::size_t>(v)] = prefer_upper ? lo : hi;
    } else {
      st = VarStatus::kFree;
      x_[static_cast<std::size_t>(v)] = 0.0;
    }
  }
}

bool Simplex::seed_basis(const std::vector<VarStatus>& status) {
  TVNEP_REQUIRE(status.size() == static_cast<std::size_t>(num_vars()),
                "seed_basis: one status per full-system variable");
  has_basis_ = false;
  dse_weights_valid_ = false;
  if (std::count(status.begin(), status.end(), VarStatus::kBasic) !=
      num_rows())
    return false;
  status_ = status;
  basis_.clear();
  for (int v = 0; v < num_vars(); ++v)
    if (status_[static_cast<std::size_t>(v)] == VarStatus::kBasic)
      basis_.push_back(v);
  place_nonbasics();
  has_basis_ = factorize_basis();
  return has_basis_;
}

SolveStatus Simplex::solve_attempt(const Deadline& deadline) {
  rebuild_pricing();
  // A failed refactorization from a previous attempt leaves factor_
  // unusable; bounds don't change B, so one rebuild restores the warm
  // start. If even that fails the basis is truly singular — start cold.
  if (has_basis_ && !factor_valid_ && !factorize_basis()) has_basis_ = false;
  if (has_basis_) {
    place_nonbasics();
    compute_basic_values();
    obs::counter_add("lp.warm_starts");
    stats_.warm_started = true;
    SolveStatus status;
    {
      obs::SpanScope span(trace_spans_, "lp.dual", "lp");
      status = dual_simplex(deadline);
    }
    if (status == SolveStatus::kIterationLimit) {
      stats_.dual_fallback = true;
      obs::counter_add("lp.dual_fallbacks");
    }
    // A numerical failure surfaces to the recovery ladder in solve().
    if (status != SolveStatus::kOptimal) return status;
    // Primal phase 2 on the true costs from the primal-feasible basis
    // removes whatever the cost shifts changed; usually no pivot at all.
    status = primal_simplex(Phase::kPhase2, deadline);
    if (status == SolveStatus::kOptimal) finish_solution();
    return status;
  }

  obs::counter_add("lp.cold_starts");
  cold_start();
  const SolveStatus p1 = primal_simplex(Phase::kPhase1, deadline);
  if (p1 != SolveStatus::kOptimal) return p1;
  const SolveStatus p2 = primal_simplex(Phase::kPhase2, deadline);
  if (p2 == SolveStatus::kOptimal) finish_solution();
  return p2;
}

// The staged recovery ladder. Each rung is attempted once per solve();
// whichever rung first produces a non-numerical-failure status wins. The
// ladder ordering goes from cheapest (keep the basis, fix the inverse) to
// most disruptive (throw the basis away).
SolveStatus Simplex::recover(const Deadline& deadline) {
  // Rung 1: rebuild the basis inverse and retry from the same basis — the
  // common case is accumulated product-form drift, which replay/LU repair.
  {
    ++stats_.recover_refactorize;
    obs::counter_add("lp.recovery.refactorize");
    obs::instant("lp.recover", "lp", "\"rung\":\"refactorize\"");
    if (has_basis_ && refactorize()) {
      const SolveStatus st = solve_attempt(deadline);
      if (st != SolveStatus::kNumericalFailure) return st;
    }
  }
  // Rung 2: Bland pricing with a tightened pivot tolerance — trades speed
  // for guaranteed-safe pivots when aggressive Dantzig steps keep landing
  // on near-singular pivot elements.
  {
    ++stats_.recover_bland;
    obs::counter_add("lp.recovery.bland");
    obs::instant("lp.recover", "lp", "\"rung\":\"bland\"");
    const double saved_pivot_tol = options_.pivot_tol;
    options_.pivot_tol = std::max(saved_pivot_tol * 100.0, 1e-6);
    force_bland_ = true;
    const SolveStatus st = solve_attempt(deadline);
    force_bland_ = false;
    options_.pivot_tol = saved_pivot_tol;
    if (st != SolveStatus::kNumericalFailure) return st;
  }
  // Rung 3: relax every non-fixed working bound by a deterministic jitter
  // to break ties at degenerate vertices, solve, then re-solve on the
  // exact bounds from the perturbed basis. Fixed bounds (branch-and-bound
  // fixings) are never touched, and the perturbation only ever *relaxes*,
  // so a perturbed infeasibility verdict is valid for the original too.
  {
    ++stats_.recover_perturb;
    obs::counter_add("lp.recovery.perturb");
    obs::instant("lp.recover", "lp", "\"rung\":\"perturb\"");
    std::vector<double> saved_lower = lower_;
    std::vector<double> saved_upper = upper_;
    const double base = std::max(options_.feasibility_tol * 100.0, 1e-7);
    for (int v = 0; v < num_vars(); ++v) {
      double& lo = lower_[static_cast<std::size_t>(v)];
      double& hi = upper_[static_cast<std::size_t>(v)];
      if (hi - lo < 1e-14) continue;  // keep fixings exact
      const double jitter =
          base * (1.0 + static_cast<double>((v * 7919) % 13) / 16.0);
      if (finite(lo)) lo -= jitter * std::max(1.0, std::fabs(lo));
      if (finite(hi)) hi += jitter * std::max(1.0, std::fabs(hi));
    }
    SolveStatus st = solve_attempt(deadline);
    lower_ = std::move(saved_lower);
    upper_ = std::move(saved_upper);
    if (st == SolveStatus::kOptimal) {
      // Clean-up solve on the exact bounds, warm from the perturbed basis.
      st = solve_attempt(deadline);
      if (st != SolveStatus::kNumericalFailure) return st;
    } else if (st != SolveStatus::kNumericalFailure) {
      return st;
    }
  }
  // Rung 4: cold restart from the all-slack basis.
  {
    ++stats_.recover_cold;
    obs::counter_add("lp.recovery.cold_restart");
    obs::instant("lp.recover", "lp", "\"rung\":\"cold_restart\"");
    has_basis_ = false;
    degenerate_streak_ = 0;
    return solve_attempt(deadline);
  }
}

SolveStatus Simplex::solve() {
  stats_ = SolveStats{};
  Deadline deadline(options_.time_limit_seconds);
  obs::counter_add("lp.solves");
  SolveStatus status = solve_attempt(deadline);
  if (status == SolveStatus::kNumericalFailure && options_.recovery)
    status = recover(deadline);
  return status;
}

double Simplex::value(int j) const {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "value: bad column");
  return x_[static_cast<std::size_t>(j)] * col_scale(j);
}

double Simplex::dual_value(int i) const {
  TVNEP_REQUIRE(i >= 0 && i < num_rows(), "dual_value: bad row");
  return duals_[static_cast<std::size_t>(i)] * row_scale(i);
}

VarStatus Simplex::variable_status(int v) const {
  TVNEP_REQUIRE(v >= 0 && v < num_vars(), "variable_status: bad variable");
  return status_[static_cast<std::size_t>(v)];
}

int Simplex::basic_variable(int i) const {
  TVNEP_REQUIRE(i >= 0 && i < num_rows(), "basic_variable: bad row");
  return basis_[static_cast<std::size_t>(i)];
}

double Simplex::variable_value(int v) const {
  TVNEP_REQUIRE(v >= 0 && v < num_vars(), "variable_value: bad variable");
  // Scaled slack is s~ = R s, scaled structural is x~ = x / C.
  if (is_slack(v))
    return x_[static_cast<std::size_t>(v)] / row_scale(v - num_structural());
  return x_[static_cast<std::size_t>(v)] * col_scale(v);
}

double Simplex::reduced_cost(int j) const {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "reduced_cost: bad column");
  TVNEP_REQUIRE(duals_.size() == static_cast<std::size_t>(num_rows()),
                "reduced_cost: no duals (solve first)");
  // d~_j = c~_j - y~.A~_j in scaled space; x~ = x / C gives d = d~ / C.
  return (struct_cost(j) - column_dot(j, duals_)) / col_scale(j);
}

bool Simplex::tableau_row(int i, std::vector<double>* coeffs) const {
  TVNEP_REQUIRE(i >= 0 && i < num_rows(), "tableau_row: bad row");
  TVNEP_REQUIRE(coeffs != nullptr, "tableau_row: null output");
  if (!has_basis_ || !factor_valid_) return false;
  const int n = num_structural();
  const int total = num_vars();
  // rho = B^-T e_i, then tableau entry a_iv = rho . A_v per column.
  std::vector<double> rho(static_cast<std::size_t>(num_rows()), 0.0);
  rho[static_cast<std::size_t>(i)] = 1.0;
  factor_.btran(rho);
  coeffs->assign(static_cast<std::size_t>(total), 0.0);
  for (int v = 0; v < total; ++v) {
    const double scaled = column_dot(v, rho);
    if (scaled == 0.0) continue;
    // Undo equilibration: the scaled system is [R·A·C | -I](x/C, R·s) = 0,
    // so a structural coefficient divides by C_j and a slack one multiplies
    // by R_k to express the row over the original variables.
    (*coeffs)[static_cast<std::size_t>(v)] =
        is_slack(v) ? scaled * row_scale(v - n) : scaled / col_scale(v);
  }
  const double pivot =
      (*coeffs)[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
  if (std::fabs(pivot) < 1e-12) return false;
  if (pivot != 1.0)
    for (double& c : *coeffs) c /= pivot;
  return true;
}

std::vector<double> Simplex::primal_solution() const {
  std::vector<double> out(x_.begin(), x_.begin() + num_structural());
  if (scaled_)
    for (int j = 0; j < num_structural(); ++j)
      out[static_cast<std::size_t>(j)] *= col_scale(j);
  return out;
}

}  // namespace tvnep::lp
