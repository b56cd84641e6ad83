#include "linalg/lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "support/check.hpp"

namespace tvnep::linalg {

namespace {

/// Entries this small are dropped during sparse elimination and eta
/// assembly; the LP is equilibrated upstream so an absolute cutoff is safe.
constexpr double kDropTol = 1e-14;

}  // namespace

std::optional<LuFactorization> LuFactorization::factorize(
    const DenseMatrix& a, double pivot_tol, LuFailure* failure) {
  TVNEP_REQUIRE(a.rows() == a.cols(), "LU: matrix must be square");
  const std::size_t n = a.rows();

  // The singularity threshold is relative to the largest input entry, so a
  // uniformly scaled-up singular matrix is rejected rather than "factorized"
  // into huge, meaningless entries.
  double amax = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      amax = std::max(amax, std::fabs(a(r, c)));
  const double threshold = std::max(pivot_tol, kRelativePivotTol * amax);

  LuFactorization f;
  f.lu_ = a;
  f.perm_.resize(n);
  std::iota(f.perm_.begin(), f.perm_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude in column k at/below the diagonal.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(f.lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(f.lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < threshold) {
      if (failure != nullptr) *failure = {k, pivot_mag, threshold};
      return std::nullopt;
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(f.lu_(k, c), f.lu_(pivot_row, c));
      std::swap(f.perm_[k], f.perm_[pivot_row]);
    }
    const double inv_pivot = 1.0 / f.lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = f.lu_(r, k) * inv_pivot;
      f.lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c)
        f.lu_(r, c) -= factor * f.lu_(k, c);
    }
  }
  return f;
}

void LuFactorization::solve(std::span<double> b) const {
  const std::size_t n = order();
  TVNEP_REQUIRE(b.size() == n, "LU solve: rhs length mismatch");
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];
  // Forward substitution with unit-diagonal L.
  for (std::size_t i = 1; i < n; ++i) {
    double sum = y[i];
    for (std::size_t j = 0; j < i; ++j) sum -= lu_(i, j) * y[j];
    y[i] = sum;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= lu_(ii, j) * y[j];
    y[ii] = sum / lu_(ii, ii);
  }
  std::copy(y.begin(), y.end(), b.begin());
}

void LuFactorization::solve_transposed(std::span<double> b) const {
  const std::size_t n = order();
  TVNEP_REQUIRE(b.size() == n, "LU solve_transposed: rhs length mismatch");
  // A^T x = b  ⇔  U^T L^T P x = b.
  std::vector<double> y(b.begin(), b.end());
  // Forward substitution with U^T (lower triangular, non-unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double sum = y[i];
    for (std::size_t j = 0; j < i; ++j) sum -= lu_(j, i) * y[j];
    y[i] = sum / lu_(i, i);
  }
  // Back substitution with L^T (upper triangular, unit diagonal).
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= lu_(j, ii) * y[j];
    y[ii] = sum;
  }
  // Undo the permutation: x = P^T y.
  for (std::size_t i = 0; i < n; ++i) b[perm_[i]] = y[i];
}

// ---------------------------------------------------------------------------
// SparseLuBasis
// ---------------------------------------------------------------------------

void SparseLuBasis::ColumnBuckets::reset(int m) {
  const auto um = static_cast<std::size_t>(m);
  words_ = (um + 63) / 64;
  bits_.assign((kExact + 1) * words_, 0);
  first_.fill(words_);
  size_.fill(0);
  nonempty_ = 0;
  bucket_.assign(um, -1);
}

void SparseLuBasis::ColumnBuckets::set(int col, int count) {
  const auto uc = static_cast<std::size_t>(col);
  const int to = count <= 0 ? -1 : std::min(count, kExact + 1) - 1;
  const int from = bucket_[uc];
  if (to == from) return;
  const std::size_t word = uc / 64;
  const std::uint64_t bit = std::uint64_t{1} << (uc % 64);
  if (from >= 0) {
    const auto uf = static_cast<std::size_t>(from);
    bits_[uf * words_ + word] &= ~bit;
    if (--size_[uf] == 0) nonempty_ &= ~(std::uint64_t{1} << from);
  }
  if (to >= 0) {
    const auto ut = static_cast<std::size_t>(to);
    bits_[ut * words_ + word] |= bit;
    first_[ut] = std::min(first_[ut], word);
    if (size_[ut]++ == 0) nonempty_ |= std::uint64_t{1} << to;
  }
  bucket_[uc] = to;
}

int SparseLuBasis::ColumnBuckets::lowest4(const std::vector<int>& counts,
                                          int out[4]) {
  int n = 0;
  for (std::uint64_t mask = nonempty_; mask != 0 && n < 4; mask &= mask - 1) {
    const int b = std::countr_zero(mask);
    const auto ub = static_cast<std::size_t>(b);
    const std::uint64_t* words = bits_.data() + ub * words_;
    std::size_t& w = first_[ub];
    while (words[w] == 0) ++w;  // the bucket is non-empty
    if (b < kExact) {
      // One count: ascending index is (count, index) order.
      for (std::size_t v = w; v < words_ && n < 4; ++v)
        for (std::uint64_t bits = words[v]; bits != 0 && n < 4;
             bits &= bits - 1)
          out[n++] = static_cast<int>(v * 64) + std::countr_zero(bits);
      continue;
    }
    // The last bucket mixes counts: keep its lowest (count, index) keys.
    std::uint64_t best[4] = {};
    const int want = 4 - n;
    int have = 0;
    for (std::size_t v = w; v < words_; ++v)
      for (std::uint64_t bits = words[v]; bits != 0; bits &= bits - 1) {
        const int col = static_cast<int>(v * 64) + std::countr_zero(bits);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(counts[static_cast<std::size_t>(col)])
             << 32) |
            static_cast<std::uint64_t>(col);
        if (have == want && key >= best[want - 1]) continue;
        int pos = (have < want) ? have++ : want - 1;
        for (; pos > 0 && key < best[pos - 1]; --pos) best[pos] = best[pos - 1];
        best[pos] = key;
      }
    for (int t = 0; t < have; ++t)
      out[n++] = static_cast<int>(best[t] & 0xffffffffu);
  }
  return n;
}

bool SparseLuBasis::factorize(const BasisColumns& basis, LuFailure* failure) {
  const int m = basis.rows();
  TVNEP_REQUIRE(basis.cols() == m, "basis factorize: not square");
  m_ = m;
  basis_nnz_ = basis.nonzeros();
  l_entries_.clear();
  u_entries_.clear();
  u_diag_.clear();
  l_start_.assign(1, 0);
  u_start_.assign(1, 0);
  perm_row_.assign(static_cast<std::size_t>(m), -1);
  perm_col_.assign(static_cast<std::size_t>(m), -1);
  row_stage_.assign(static_cast<std::size_t>(m), -1);
  col_stage_.assign(static_cast<std::size_t>(m), -1);
  etas_.clear();
  eta_nnz_ = 0;
  scratch_.assign(static_cast<std::size_t>(m), 0.0);
  if (m == 0) return true;
  u_diag_.reserve(static_cast<std::size_t>(m));

  // Working copy of the active submatrix in the reused workspace (inner
  // vectors keep their capacity from earlier factorizations).
  const auto um = static_cast<std::size_t>(m);
  auto& rows = rows_;
  auto& col_rows = col_rows_;
  auto& col_count = col_count_;
  auto& row_active = row_active_;
  auto& col_active = col_active_;
  rows.resize(um);
  col_rows.resize(um);
  for (std::size_t i = 0; i < um; ++i) {
    rows[i].clear();
    col_rows[i].clear();
  }
  col_count.assign(um, 0);
  row_active.assign(um, 1);
  col_active.assign(um, 1);
  double amax = 0.0;
  for (int c = 0; c < m; ++c) {
    for (const auto& e : basis.column(c)) {
      rows[static_cast<std::size_t>(e.index)].push_back({c, e.value});
      col_rows[static_cast<std::size_t>(c)].push_back(e.index);
      ++col_count[static_cast<std::size_t>(c)];
      amax = std::max(amax, std::fabs(e.value));
    }
  }
  const double threshold = std::max(pivot_tol_, kRelativePivotTol * amax);
  col_buckets_.reset(m);
  for (int c = 0; c < m; ++c)
    col_buckets_.set(c, col_count[static_cast<std::size_t>(c)]);

  // Dense merge accumulator (stamp-based so it never needs clearing).
  auto& acc = acc_;
  auto& mark = mark_;
  auto& fill = fill_;
  auto& col_buf = col_buf_;
  acc.resize(um);
  mark.assign(um, -1);
  int stamp = 0;

  for (int k = 0; k < m; ++k) {
    int best_row = -1;
    int best_col = -1;
    double best_val = 0.0;
    long best_cost = 0;
    double best_mag_seen = 0.0;

    // Scores column q for the pivot of this stage: collect its active
    // entries (purging stale col_rows references along the way), apply the
    // Markowitz threshold against the column max, and keep the candidate
    // with the lowest Markowitz cost (r_i - 1)(c_q - 1).
    auto evaluate = [&](int q) {
      auto& qr = col_rows[static_cast<std::size_t>(q)];
      std::size_t keep = 0;
      double colmax = 0.0;
      col_buf.clear();
      for (int i : qr) {
        if (!row_active[static_cast<std::size_t>(i)]) continue;
        double val = 0.0;
        bool found = false;
        for (const auto& e : rows[static_cast<std::size_t>(i)]) {
          if (e.index == q) {
            val = e.value;
            found = true;
            break;
          }
        }
        if (!found) continue;
        qr[keep++] = i;
        col_buf.push_back({i, val});
        colmax = std::max(colmax, std::fabs(val));
      }
      qr.resize(keep);
      best_mag_seen = std::max(best_mag_seen, colmax);
      if (colmax < threshold) return;
      const double accept = std::max(threshold, markowitz_tol_ * colmax);
      const long cq = col_count[static_cast<std::size_t>(q)];
      for (const auto& e : col_buf) {
        const double mag = std::fabs(e.value);
        if (mag < accept) continue;
        const long ri =
            static_cast<long>(rows[static_cast<std::size_t>(e.index)].size());
        const long cost = (ri - 1) * (cq - 1);
        if (best_row < 0 || cost < best_cost ||
            (cost == best_cost && mag > std::fabs(best_val))) {
          best_row = e.index;
          best_col = q;
          best_val = e.value;
          best_cost = cost;
        }
      }
    };

    // Candidate preselection: the four active columns with the fewest
    // entries, ties to the lowest index. Falls back to a full scan when
    // none of them admits a pivot.
    int cand[4];
    const int ncand = col_buckets_.lowest4(col_count, cand);
    for (int t = 0; t < ncand; ++t) evaluate(cand[t]);
    if (best_row < 0) {
      for (int q = 0; q < m; ++q)
        if (col_active[static_cast<std::size_t>(q)]) evaluate(q);
    }
    if (best_row < 0) {
      if (failure != nullptr)
        *failure = {static_cast<std::size_t>(k), best_mag_seen, threshold};
      m_ = 0;  // leave the object loudly unusable rather than half-factorized
      return false;
    }

    const int p = best_row;
    const int q = best_col;
    const double v = best_val;
    perm_row_[static_cast<std::size_t>(k)] = p;
    perm_col_[static_cast<std::size_t>(k)] = q;
    row_stage_[static_cast<std::size_t>(p)] = k;
    col_stage_[static_cast<std::size_t>(q)] = k;
    u_diag_.push_back(v);
    auto& prow = rows[static_cast<std::size_t>(p)];
    for (const auto& e : prow)
      if (e.index != q) u_entries_.push_back(e);
    u_start_.push_back(u_entries_.size());

    // Eliminate column q from every other active row holding it.
    for (int i : col_rows[static_cast<std::size_t>(q)]) {
      const auto ui = static_cast<std::size_t>(i);
      if (!row_active[ui] || i == p) continue;
      auto& ri = rows[ui];
      double aiq = 0.0;
      std::size_t pos = ri.size();
      for (std::size_t t = 0; t < ri.size(); ++t) {
        if (ri[t].index == q) {
          aiq = ri[t].value;
          pos = t;
          break;
        }
      }
      if (pos == ri.size()) continue;  // stale reference
      ri[pos] = ri.back();
      ri.pop_back();
      const double f = aiq / v;
      l_entries_.push_back({i, f});

      // Merge -f * (pivot row) into row i through the stamped accumulator.
      ++stamp;
      for (const auto& e : ri) {
        mark[static_cast<std::size_t>(e.index)] = stamp;
        acc[static_cast<std::size_t>(e.index)] = e.value;
      }
      fill.clear();
      for (const auto& e : prow) {
        if (e.index == q) continue;
        const auto uc = static_cast<std::size_t>(e.index);
        if (mark[uc] == stamp) {
          acc[uc] -= f * e.value;
        } else {
          mark[uc] = stamp;
          acc[uc] = -f * e.value;
          fill.push_back(e.index);
        }
      }
      std::size_t w = 0;
      for (std::size_t t = 0; t < ri.size(); ++t) {
        const int c = ri[t].index;
        const double val = acc[static_cast<std::size_t>(c)];
        if (std::fabs(val) > kDropTol) {
          ri[w++] = {c, val};
        } else {
          // Entry cancelled out; the column may lie outside the pivot row
          // (a dropped input entry), so its bucket is refreshed here.
          --col_count[static_cast<std::size_t>(c)];
          col_buckets_.set(c, col_count[static_cast<std::size_t>(c)]);
        }
      }
      ri.resize(w);
      for (int c : fill) {
        const double val = acc[static_cast<std::size_t>(c)];
        if (std::fabs(val) > kDropTol) {
          ri.push_back({c, val});
          ++col_count[static_cast<std::size_t>(c)];
          col_rows[static_cast<std::size_t>(c)].push_back(i);
        }
      }
    }
    l_start_.push_back(l_entries_.size());

    row_active[static_cast<std::size_t>(p)] = 0;
    col_active[static_cast<std::size_t>(q)] = 0;
    col_buckets_.set(q, 0);
    // Fill-in only lands in pivot-row columns, so refreshing their buckets
    // brings every other count change of this stage into the buckets.
    for (const auto& e : prow) {
      if (e.index == q) continue;
      --col_count[static_cast<std::size_t>(e.index)];
      col_buckets_.set(e.index, col_count[static_cast<std::size_t>(e.index)]);
    }
    prow.clear();
    col_rows[static_cast<std::size_t>(q)].clear();
  }
  return true;
}

void SparseLuBasis::ftran(std::span<double> x) const {
  TVNEP_REQUIRE(x.size() == static_cast<std::size_t>(m_),
                "ftran: vector length mismatch");
  // L pass in stage order (x stays row-indexed).
  for (int k = 0; k < m_; ++k) {
    const double t = x[static_cast<std::size_t>(perm_row_[static_cast<std::size_t>(k)])];
    if (t == 0.0) continue;
    for (std::size_t e = l_start_[static_cast<std::size_t>(k)];
         e < l_start_[static_cast<std::size_t>(k) + 1]; ++e)
      x[static_cast<std::size_t>(l_entries_[e].index)] -= l_entries_[e].value * t;
  }
  // U back substitution, descending stages: U row k references only
  // positions eliminated at later stages, already solved into scratch_.
  for (int k = m_; k-- > 0;) {
    const auto uk = static_cast<std::size_t>(k);
    double s = x[static_cast<std::size_t>(perm_row_[uk])];
    for (std::size_t e = u_start_[uk]; e < u_start_[uk + 1]; ++e)
      s -= u_entries_[e].value *
           scratch_[static_cast<std::size_t>(u_entries_[e].index)];
    scratch_[static_cast<std::size_t>(perm_col_[uk])] = s / u_diag_[uk];
  }
  std::copy(scratch_.begin(), scratch_.end(), x.begin());
  // Product-form updates, oldest first (x now in basis-position space).
  for (const Eta& eta : etas_) {
    const auto ur = static_cast<std::size_t>(eta.row);
    const double t = x[ur] / eta.pivot;
    if (t != 0.0)
      for (const auto& e : eta.entries)
        x[static_cast<std::size_t>(e.index)] -= e.value * t;
    x[ur] = t;
  }
}

void SparseLuBasis::btran(std::span<double> x) const {
  TVNEP_REQUIRE(x.size() == static_cast<std::size_t>(m_),
                "btran: vector length mismatch");
  // Eta transposes, newest first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const auto ur = static_cast<std::size_t>(it->row);
    double t = x[ur];
    for (const auto& e : it->entries)
      t -= e.value * x[static_cast<std::size_t>(e.index)];
    x[ur] = t / it->pivot;
  }
  // U^T forward substitution with scatter: scratch_ holds the still-to-be-
  // reduced right-hand side in basis-position space; w_k lands in x[p_k].
  std::copy(x.begin(), x.end(), scratch_.begin());
  for (int k = 0; k < m_; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    const double w = scratch_[static_cast<std::size_t>(perm_col_[uk])] / u_diag_[uk];
    for (std::size_t e = u_start_[uk]; e < u_start_[uk + 1]; ++e)
      scratch_[static_cast<std::size_t>(u_entries_[e].index)] -=
          u_entries_[e].value * w;
    x[static_cast<std::size_t>(perm_row_[uk])] = w;
  }
  // L^T pass, descending stages, in place: L stage k only references rows
  // whose own stage is > k, whose components are already final.
  for (int k = m_; k-- > 0;) {
    const auto uk = static_cast<std::size_t>(k);
    const auto up = static_cast<std::size_t>(perm_row_[uk]);
    double t = x[up];
    for (std::size_t e = l_start_[uk]; e < l_start_[uk + 1]; ++e)
      t -= l_entries_[e].value * x[static_cast<std::size_t>(l_entries_[e].index)];
    x[up] = t;
  }
}

bool SparseLuBasis::update(int leaving_row, std::span<const double> alpha) {
  TVNEP_REQUIRE(alpha.size() == static_cast<std::size_t>(m_),
                "basis update: vector length mismatch");
  TVNEP_REQUIRE(leaving_row >= 0 && leaving_row < m_,
                "basis update: row out of range");
  if (static_cast<int>(etas_.size()) >= max_updates_) return false;
  const double pivot = alpha[static_cast<std::size_t>(leaving_row)];
  if (!std::isfinite(pivot) || std::fabs(pivot) < update_tol_) return false;
  Eta eta;
  eta.row = leaving_row;
  eta.pivot = pivot;
  for (int i = 0; i < m_; ++i) {
    if (i == leaving_row) continue;
    const double a = alpha[static_cast<std::size_t>(i)];
    if (!std::isfinite(a)) return false;
    if (std::fabs(a) > kDropTol) eta.entries.push_back({i, a});
  }
  // Refuse once the eta file dwarfs the factors: solves would be paying
  // more for the update chain than a fresh factorization costs.
  const std::size_t factor_nnz =
      l_entries_.size() + u_entries_.size() + static_cast<std::size_t>(m_);
  if (eta_nnz_ + eta.entries.size() > 4 * factor_nnz + 256) return false;
  eta_nnz_ += eta.entries.size();
  etas_.push_back(std::move(eta));
  return true;
}

double SparseLuBasis::fill_ratio() const {
  const std::size_t factor_nnz =
      l_entries_.size() + u_entries_.size() + static_cast<std::size_t>(m_);
  return static_cast<double>(factor_nnz) /
         static_cast<double>(std::max<std::size_t>(basis_nnz_, 1));
}

}  // namespace tvnep::linalg
