#ifndef SQLTS_CONSTRAINTS_GSW_H_
#define SQLTS_CONSTRAINTS_GSW_H_

#include <optional>
#include <vector>

#include "constraints/system.h"

namespace sqlts {

/// Options for the decision procedure.
struct GswOptions {
  /// Assume every numeric variable ranges over positive reals.  This is
  /// the paper's Sec 6 assumption ("the domain of Y is positive numbers
  /// (stock prices)") that makes ratio atoms X op C*Y analyzable via the
  /// Z = X/Y (log) transform.  When false, ratio atoms contribute no
  /// reasoning (conservative).
  bool positive_domain = true;
};

/// An upper bound on a variable difference: (value, strict) with
/// "does not exist" meaning +infinity.
struct Bound {
  double value = 0;
  bool strict = false;
  bool exists = false;

  static Bound Infinite() { return Bound{}; }
  static Bound Finite(double v, bool s) { return Bound{v, s, true}; }

  /// Bound composition along a path: values add, strictness ORs.
  Bound Plus(const Bound& o) const;
  /// True when this bound is tighter than `o` (smaller value; strict
  /// beats non-strict at equal value).
  bool TighterThan(const Bound& o) const;
};

/// A dense difference-constraint graph over `n` variables plus one
/// implicit constant node; `Close()` runs Floyd–Warshall, after which
/// `bound(a, b)` is the tightest derivable upper bound on (a - b).
/// This is the satisfiability core of the Guo–Sun–Weiss procedure [5].
class DifferenceGraph {
 public:
  explicit DifferenceGraph(int num_vars);

  /// Node id of the constant-zero pseudo-variable.
  int zero() const { return n_ - 1; }

  /// Adds x - y ≤ c (strict: x - y < c), tightening any existing edge.
  void AddUpperBound(int x, int y, double c, bool strict);

  /// Computes the all-pairs closure.
  void Close();

  /// Post-closure tightest upper bound on (x - y).
  const Bound& bound(int x, int y) const { return b_[x * n_ + y]; }

  /// Post-closure: some cycle has negative weight (or zero weight with a
  /// strict edge) — the constraint set is unsatisfiable over the reals.
  bool HasNegativeCycle() const;

  /// Post-closure: the constraints entail x - y ≤ c (or < c if strict).
  bool Entails(int x, int y, double c, bool strict) const;

  /// Post-closure: the constraints force x - y = c exactly.
  bool ForcesEquality(int x, int y, double c) const;

 private:
  int n_;  // num_vars + 1 (constant node last)
  std::vector<Bound> b_;
};

/// Sound (never wrong, possibly incomplete) satisfiability and
/// implication tests for conjunctions of LinearAtom / RatioAtom /
/// StringAtom constraints — our implementation of the GSW algorithm [5]
/// plus the paper's ratio extension.  "Provably" means: a `true` answer
/// is a theorem; `false` means "could not prove".
class GswSolver {
 public:
  explicit GswSolver(GswOptions options = GswOptions{});

  /// True iff `s` is proven to have no solution.
  bool ProvablyUnsat(const ConstraintSystem& s) const;

  /// True iff every model of `s` satisfies `t` (proven).
  bool ProvablyImplies(const ConstraintSystem& s,
                       const ConstraintSystem& t) const;

  /// True iff `t` holds in every model (a tautology).
  bool ProvablyValid(const ConstraintSystem& t) const;

 private:
  /// Builds and checks one domain; returns true if that domain proves
  /// unsatisfiability.
  bool LinearDomainUnsat(const ConstraintSystem& s) const;
  bool LogDomainUnsat(const ConstraintSystem& s) const;
  bool StringsUnsat(const ConstraintSystem& s) const;

  GswOptions options_;
};

}  // namespace sqlts

#endif  // SQLTS_CONSTRAINTS_GSW_H_
