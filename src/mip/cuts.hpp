// Root-node cutting planes for the MIP branch & bound.
//
// Two separators over an optimally solved LP relaxation:
//
//  * Gomory mixed-integer (GMI) cuts, read from the simplex tableau rows
//    of fractional integer basic variables (lp::Simplex::tableau_row goes
//    through the SparseLuBasis::btran seam). Nonbasic slacks in a
//    tableau row are expanded back through their defining rows so every
//    emitted cut is a structural-only `terms . x >= rhs` inequality that
//    stays valid anywhere in the tree.
//
//  * Knapsack cover cuts from rows whose support is all-binary: negative
//    coefficients are complemented, a greedy minimal cover is selected
//    against the fractional LP point, and the cover is strengthened by
//    extension (every item at least as heavy as the heaviest cover member
//    joins the left-hand side).
//
// Candidates pass a shared violation (efficacy), density and dynamism
// filter; accepted cuts live in a CutPool that deduplicates by coefficient
// signature — including previously evicted cuts, so separation cannot
// cycle — and evicts cuts that stay slack at the round LP optimum for
// `max_age` consecutive rounds. The branch & bound drives rounds at the
// root (MipOptions::cut_rounds) and rebuilds the LP from the pool between
// rounds.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace tvnep::mip::cuts {

struct CutOptions {
  // A variable counts as integral within this tolerance (mirrors
  // MipOptions::integrality_tol).
  double integrality_tol = 1e-6;
  // GMI source rows whose basic fractional part lies within `away` of an
  // integer are skipped: they yield weak, noise-dominated cuts.
  double away = 1e-2;
  // Minimum efficacy — violation divided by the coefficient 2-norm, i.e.
  // the Euclidean distance the cut pushes the LP point — for a candidate
  // to survive.
  double min_efficacy = 1e-4;
  // Candidates denser than max_density * num_columns nonzeros are
  // discarded (but a floor of min_density_nnz nonzeros is always allowed,
  // so tiny models are not starved of cuts).
  double max_density = 0.5;
  int min_density_nnz = 10;
  // Discard candidates whose max|coef| / min|coef| exceeds this: wide
  // coefficient ranges make the scaled LP ill-conditioned.
  double max_dynamism = 1e7;
  // Rounds a pool cut may stay slack at the round optimum before it is
  // evicted from the LP.
  int max_age = 3;
  // Hard cap on cuts retained in the pool.
  int max_pool = 400;
};

/// One globally valid inequality `terms . x >= rhs` over the structural
/// variables of the LP the separators ran on.
struct Cut {
  enum class Kind : unsigned char { kGomory, kCover };

  std::vector<std::pair<int, double>> terms;  // (column, coefficient)
  double rhs = 0.0;
  Kind kind = Kind::kGomory;
  double efficacy = 0.0;  // violation / ||terms||_2 at separation time
  int age = 0;            // consecutive rounds slack at the round optimum
  std::uint64_t signature = 0;

  /// terms . x for a dense point x.
  double activity(const std::vector<double>& x) const;
};

/// Signature over the norm-scaled coefficient pattern of `terms . x >=
/// rhs`, so the same geometric cut separated twice (possibly rescaled)
/// collides. `norm` is the 2-norm of the coefficients (<= 0 disables the
/// rescale). The separators stamp this on every candidate; hand-built
/// cuts (tests, external separators) must stamp it before pool admission.
std::uint64_t cut_signature(const std::vector<std::pair<int, double>>& terms,
                            double rhs, double norm);

/// Everything the separators need about the current relaxation. `problem`
/// is the LP `simplex` was constructed on (base model rows first, then any
/// active cut rows); rows 0..base_rows-1 are the model's own rows.
struct SeparationInput {
  const lp::Problem* problem = nullptr;
  const lp::Simplex* simplex = nullptr;        // optimally solved
  const std::vector<bool>* is_integer = nullptr;  // structural mask
  int base_rows = 0;
};

/// GMI cuts from every tableau row whose basic variable is an integer
/// structural variable with fractional value. Candidates are already
/// filtered (efficacy/density/dynamism) and carry their signature.
std::vector<Cut> separate_gomory(const SeparationInput& in,
                                 const CutOptions& options);

/// Cover cuts from base rows with all-binary support, separated against
/// the structural LP point `x`.
std::vector<Cut> separate_covers(const SeparationInput& in,
                                 const std::vector<double>& x,
                                 const CutOptions& options);

/// Managed pool of active cuts: signature-deduplicated admission ranked by
/// efficacy, age-based eviction of slack cuts.
class CutPool {
 public:
  explicit CutPool(CutOptions options) : options_(options) {}

  /// Admits the best `max_add` candidates not seen before (by signature);
  /// returns how many were admitted. Evicted signatures stay blocked so
  /// the separators cannot re-add a cut the pool already dismissed.
  int admit(std::vector<Cut> candidates, int max_add);

  /// Ages every pool cut by its slack at the round optimum `x` (tight →
  /// age resets, slack → age grows) and drops cuts slack for more than
  /// max_age rounds or beyond the pool cap. Returns the number evicted.
  int age_and_evict(const std::vector<double>& x);

  const std::vector<Cut>& cuts() const { return cuts_; }
  int size() const { return static_cast<int>(cuts_.size()); }

 private:
  CutOptions options_;
  std::vector<Cut> cuts_;
  std::unordered_set<std::uint64_t> seen_;
};

/// Separation telemetry, surfaced through MipResult.
struct CutStats {
  long generated = 0;  // candidates produced by the separators
  long added = 0;      // cuts admitted into the LP
  long evicted = 0;    // cuts aged out of the pool
  int rounds = 0;      // separation rounds executed
};

}  // namespace tvnep::mip::cuts
