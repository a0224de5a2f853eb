#include "constraints/gsw.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/logging.h"

namespace sqlts {
namespace {

/// Tolerance for floating-point bound comparisons.  Chosen so rounding
/// errors (e.g. from the log transform) can only push a decision toward
/// "unknown", never toward a wrong theorem, as long as user constants are
/// separated by more than kEps.
constexpr double kEps = 1e-9;

/// Remaps the (possibly sparse) global VarIds used by a system to dense
/// graph node ids.
class NodeMap {
 public:
  int NodeOf(VarId v) {
    auto it = map_.find(v);
    if (it != map_.end()) return it->second;
    int id = static_cast<int>(map_.size());
    map_.emplace(v, id);
    return id;
  }
  int size() const { return static_cast<int>(map_.size()); }
  const std::map<VarId, int>& entries() const { return map_; }

 private:
  std::map<VarId, int> map_;
};

struct Disequality {
  int x;
  int y;
  double c;
};

/// Adds `x op y + c` (node ids) to `g`, or records a disequality.
void ApplyDifference(DifferenceGraph* g, std::vector<Disequality>* diseq,
                     int x, int y, CmpOp op, double c) {
  switch (op) {
    case CmpOp::kLe:
      g->AddUpperBound(x, y, c, /*strict=*/false);
      break;
    case CmpOp::kLt:
      g->AddUpperBound(x, y, c, /*strict=*/true);
      break;
    case CmpOp::kGe:
      g->AddUpperBound(y, x, -c, /*strict=*/false);
      break;
    case CmpOp::kGt:
      g->AddUpperBound(y, x, -c, /*strict=*/true);
      break;
    case CmpOp::kEq:
      g->AddUpperBound(x, y, c, /*strict=*/false);
      g->AddUpperBound(y, x, -c, /*strict=*/false);
      break;
    case CmpOp::kNe:
      diseq->push_back({x, y, c});
      break;
  }
}

}  // namespace

Bound Bound::Plus(const Bound& o) const {
  if (!exists || !o.exists) return Infinite();
  return Finite(value + o.value, strict || o.strict);
}

bool Bound::TighterThan(const Bound& o) const {
  if (!exists) return false;
  if (!o.exists) return true;
  if (value != o.value) return value < o.value;
  return strict && !o.strict;
}

DifferenceGraph::DifferenceGraph(int num_vars)
    : n_(num_vars + 1), b_(static_cast<size_t>(n_) * n_) {
  for (int i = 0; i < n_; ++i) {
    b_[i * n_ + i] = Bound::Finite(0, false);
  }
}

void DifferenceGraph::AddUpperBound(int x, int y, double c, bool strict) {
  SQLTS_CHECK(x >= 0 && x < n_ && y >= 0 && y < n_);
  Bound candidate = Bound::Finite(c, strict);
  Bound& cur = b_[x * n_ + y];
  if (candidate.TighterThan(cur)) cur = candidate;
}

void DifferenceGraph::Close() {
  // Floyd–Warshall over (value, strict) bounds.  n_ is tiny (a pattern
  // predicate mentions a handful of variables), so O(n³) is negligible.
  for (int k = 0; k < n_; ++k) {
    for (int i = 0; i < n_; ++i) {
      const Bound& ik = b_[i * n_ + k];
      if (!ik.exists) continue;
      for (int j = 0; j < n_; ++j) {
        Bound via = ik.Plus(b_[k * n_ + j]);
        Bound& cur = b_[i * n_ + j];
        if (via.TighterThan(cur)) cur = via;
      }
    }
  }
}

bool DifferenceGraph::HasNegativeCycle() const {
  for (int i = 0; i < n_; ++i) {
    const Bound& d = b_[i * n_ + i];
    if (!d.exists) continue;
    if (d.value < -kEps) return true;
    if (d.strict && d.value < kEps) return true;
  }
  return false;
}

bool DifferenceGraph::Entails(int x, int y, double c, bool strict) const {
  const Bound& b = bound(x, y);
  if (!b.exists) return false;
  if (b.value < c - kEps) return true;
  if (std::abs(b.value - c) <= kEps) return b.strict || !strict;
  return false;
}

bool DifferenceGraph::ForcesEquality(int x, int y, double c) const {
  return Entails(x, y, c, /*strict=*/false) &&
         Entails(y, x, -c, /*strict=*/false);
}

GswSolver::GswSolver(GswOptions options) : options_(options) {}

bool GswSolver::StringsUnsat(const ConstraintSystem& s) const {
  // Per variable: at most one equality target; no ≠ clashing with it.
  std::map<VarId, std::string> eq;
  for (const StringAtom& a : s.strings()) {
    if (!a.equal) continue;
    auto [it, inserted] = eq.emplace(a.x, a.text);
    if (!inserted && it->second != a.text) return true;
  }
  for (const StringAtom& a : s.strings()) {
    if (a.equal) continue;
    auto it = eq.find(a.x);
    if (it != eq.end() && it->second == a.text) return true;
  }
  return false;
}

bool GswSolver::LinearDomainUnsat(const ConstraintSystem& s) const {
  NodeMap nodes;
  for (const LinearAtom& a : s.linear()) {
    nodes.NodeOf(a.x);
    if (a.y != kNoVar) nodes.NodeOf(a.y);
  }
  // Pure comparisons hiding in ratio atoms (c == 1): x op y is additive
  // too, so fold them in for cross-domain strength.
  for (const RatioAtom& a : s.ratio()) {
    if (a.c == 1.0) {
      nodes.NodeOf(a.x);
      nodes.NodeOf(a.y);
    }
  }
  DifferenceGraph g(nodes.size());
  const int zero = g.zero();
  std::vector<Disequality> diseq;
  for (const LinearAtom& a : s.linear()) {
    int x = nodes.NodeOf(a.x);
    int y = (a.y == kNoVar) ? zero : nodes.NodeOf(a.y);
    ApplyDifference(&g, &diseq, x, y, a.op, a.c);
  }
  for (const RatioAtom& a : s.ratio()) {
    if (a.c == 1.0) {
      ApplyDifference(&g, &diseq, nodes.NodeOf(a.x), nodes.NodeOf(a.y), a.op,
                      0.0);
    }
  }
  if (options_.positive_domain) {
    // Every variable is > 0:  0 - x < 0.
    for (const auto& [var, node] : nodes.entries()) {
      (void)var;
      g.AddUpperBound(zero, node, 0, /*strict=*/true);
    }
  }
  g.Close();
  if (g.HasNegativeCycle()) return true;
  for (const Disequality& d : diseq) {
    if (g.ForcesEquality(d.x, d.y, d.c)) return true;
  }
  return false;
}

bool GswSolver::LogDomainUnsat(const ConstraintSystem& s) const {
  if (!options_.positive_domain) return false;
  NodeMap nodes;
  // First pass: degenerate (non-positive) constants decide atoms outright
  // under the positivity assumption.
  for (const RatioAtom& a : s.ratio()) {
    if (a.c <= 0 && (a.op == CmpOp::kLt || a.op == CmpOp::kLe ||
                     a.op == CmpOp::kEq)) {
      return true;  // x op c*y with c*y ≤ 0 < x: atom is false.
    }
  }
  for (const LinearAtom& a : s.linear()) {
    if (a.y == kNoVar && a.c <= 0 &&
        (a.op == CmpOp::kLt || a.op == CmpOp::kLe || a.op == CmpOp::kEq)) {
      return true;  // x op c with c ≤ 0 < x: atom is false.
    }
  }
  for (const RatioAtom& a : s.ratio()) {
    if (a.c > 0) {
      nodes.NodeOf(a.x);
      nodes.NodeOf(a.y);
    }
  }
  for (const LinearAtom& a : s.linear()) {
    if (a.y == kNoVar && a.c > 0) {
      nodes.NodeOf(a.x);
    } else if (a.y != kNoVar && a.c == 0.0) {
      nodes.NodeOf(a.x);
      nodes.NodeOf(a.y);
    }
  }
  if (nodes.size() == 0) return false;
  DifferenceGraph g(nodes.size());
  const int zero = g.zero();  // log-domain constant node (log 1 = 0)
  std::vector<Disequality> diseq;
  for (const RatioAtom& a : s.ratio()) {
    if (a.c <= 0) continue;  // tautological ops already handled above
    ApplyDifference(&g, &diseq, nodes.NodeOf(a.x), nodes.NodeOf(a.y), a.op,
                    std::log(a.c));
  }
  for (const LinearAtom& a : s.linear()) {
    if (a.y == kNoVar && a.c > 0) {
      ApplyDifference(&g, &diseq, nodes.NodeOf(a.x), zero, a.op,
                      std::log(a.c));
    } else if (a.y != kNoVar && a.c == 0.0) {
      // x op y is order-preserved by log on the positive reals.
      ApplyDifference(&g, &diseq, nodes.NodeOf(a.x), nodes.NodeOf(a.y), a.op,
                      0.0);
    }
  }
  g.Close();
  if (g.HasNegativeCycle()) return true;
  for (const Disequality& d : diseq) {
    if (g.ForcesEquality(d.x, d.y, d.c)) return true;
  }
  return false;
}

bool GswSolver::ProvablyUnsat(const ConstraintSystem& s) const {
  return s.trivially_false() || StringsUnsat(s) || LinearDomainUnsat(s) ||
         LogDomainUnsat(s);
}

bool GswSolver::ProvablyImplies(const ConstraintSystem& s,
                                const ConstraintSystem& t) const {
  if (ProvablyUnsat(s)) return true;
  // s ⇒ (a₁ ∧ a₂ ∧ …) iff each s ∧ ¬aᵢ is unsatisfiable.
  for (const LinearAtom& a : t.linear()) {
    ConstraintSystem probe = s;
    probe.AddLinear(a.Negated());
    if (!ProvablyUnsat(probe)) return false;
  }
  for (const RatioAtom& a : t.ratio()) {
    ConstraintSystem probe = s;
    probe.AddRatio(a.Negated());
    if (!ProvablyUnsat(probe)) return false;
  }
  for (const StringAtom& a : t.strings()) {
    ConstraintSystem probe = s;
    probe.AddString(a.Negated());
    if (!ProvablyUnsat(probe)) return false;
  }
  return true;
}

bool GswSolver::ProvablyValid(const ConstraintSystem& t) const {
  return ProvablyImplies(ConstraintSystem(), t);
}

}  // namespace sqlts
