#include "expr/rewriter.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <optional>
#include <set>

namespace rqp {
namespace {

constexpr int64_t kMinV = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxV = std::numeric_limits<int64_t>::max();

/// Negates one node, pushing the negation to the leaves.
PredicatePtr NegatePred(const PredicatePtr& p);

/// Recursive normalization entry (defined after the helpers).
PredicatePtr NormalizeNode(const PredicatePtr& p);

/// Mirrors an operator across swapped operands: a < b == b > a.
CmpOp MirrorOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kEq;
    case CmpOp::kNe: return CmpOp::kNe;
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
  }
  return op;
}

CmpOp InverseOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kNe;
    case CmpOp::kNe: return CmpOp::kEq;
    case CmpOp::kLt: return CmpOp::kGe;
    case CmpOp::kLe: return CmpOp::kGt;
    case CmpOp::kGt: return CmpOp::kLe;
    case CmpOp::kGe: return CmpOp::kLt;
  }
  return op;
}

PredicatePtr NegatePred(const PredicatePtr& p) {
  return std::visit(
      [&](const auto& n) -> PredicatePtr {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Comparison>) {
          if (n.param_index >= 0) {
            return MakeParamCmp(n.column, InverseOp(n.op), n.param_index);
          }
          return MakeCmp(n.column, InverseOp(n.op), n.value);
        } else if constexpr (std::is_same_v<T, Between>) {
          // NOT (lo <= x <= hi)  ==  x < lo OR x > hi
          return MakeOr({MakeCmp(n.column, CmpOp::kLt, n.lo),
                         MakeCmp(n.column, CmpOp::kGt, n.hi)});
        } else if constexpr (std::is_same_v<T, InList>) {
          std::vector<PredicatePtr> kids;
          kids.reserve(n.values.size());
          for (int64_t v : n.values) kids.push_back(MakeCmp(n.column, CmpOp::kNe, v));
          return MakeAnd(std::move(kids));
        } else if constexpr (std::is_same_v<T, ColumnCmp>) {
          return MakeColCmp(n.left_column, InverseOp(n.op), n.right_column);
        } else if constexpr (std::is_same_v<T, Conjunction>) {
          std::vector<PredicatePtr> kids;
          kids.reserve(n.children.size());
          for (const auto& c : n.children) kids.push_back(NegatePred(c));
          return MakeOr(std::move(kids));
        } else if constexpr (std::is_same_v<T, Disjunction>) {
          std::vector<PredicatePtr> kids;
          kids.reserve(n.children.size());
          for (const auto& c : n.children) kids.push_back(NegatePred(c));
          return MakeAnd(std::move(kids));
        } else if constexpr (std::is_same_v<T, Negation>) {
          return n.child;
        } else if constexpr (std::is_same_v<T, ConstPred>) {
          return MakeConst(!n.value);
        }
      },
      p->node);
}

/// Per-column accumulation inside a conjunction.
struct ColumnConstraint {
  int64_t lo = kMinV;
  int64_t hi = kMaxV;
  std::optional<std::set<int64_t>> in_values;  // intersection of IN lists
  std::set<int64_t> excluded;                  // != values
  bool contradiction = false;

  void ApplyGe(int64_t v) { lo = std::max(lo, v); }
  void ApplyLe(int64_t v) { hi = std::min(hi, v); }
  void ApplyEq(int64_t v) { ApplyGe(v); ApplyLe(v); }
  void ApplyIn(const std::vector<int64_t>& vs) {
    std::set<int64_t> set(vs.begin(), vs.end());
    if (!in_values) {
      in_values = std::move(set);
    } else {
      std::set<int64_t> merged;
      std::set_intersection(in_values->begin(), in_values->end(),
                            set.begin(), set.end(),
                            std::inserter(merged, merged.begin()));
      in_values = std::move(merged);
    }
  }
};

/// Emits the canonical predicate(s) for one column's constraint.
void EmitConstraint(const std::string& column, const ColumnConstraint& c,
                    std::vector<PredicatePtr>* out, bool* is_false) {
  if (c.contradiction || c.lo > c.hi) {
    *is_false = true;
    return;
  }
  if (c.in_values) {
    std::vector<int64_t> vals;
    for (int64_t v : *c.in_values) {
      if (v >= c.lo && v <= c.hi && c.excluded.count(v) == 0) {
        vals.push_back(v);
      }
    }
    if (vals.empty()) { *is_false = true; return; }
    if (vals.size() == 1) {
      out->push_back(MakeCmp(column, CmpOp::kEq, vals[0]));
    } else {
      out->push_back(MakeIn(column, std::move(vals)));
    }
    return;
  }
  if (c.lo == c.hi) {
    if (c.excluded.count(c.lo) != 0) { *is_false = true; return; }
    out->push_back(MakeCmp(column, CmpOp::kEq, c.lo));
  } else if (c.lo != kMinV && c.hi != kMaxV) {
    out->push_back(MakeBetween(column, c.lo, c.hi));
  } else if (c.lo != kMinV) {
    out->push_back(MakeCmp(column, CmpOp::kGe, c.lo));
  } else if (c.hi != kMaxV) {
    out->push_back(MakeCmp(column, CmpOp::kLe, c.hi));
  }
  // Residual exclusions within the surviving interval.
  for (int64_t v : c.excluded) {
    if (v >= c.lo && v <= c.hi) {
      out->push_back(MakeCmp(column, CmpOp::kNe, v));
    }
  }
}

void FlattenInto(const PredicatePtr& p, bool conjunction,
                 std::vector<PredicatePtr>* out) {
  if (conjunction) {
    if (const auto* a = std::get_if<Conjunction>(&p->node)) {
      for (const auto& c : a->children) FlattenInto(c, conjunction, out);
      return;
    }
  } else {
    if (const auto* o = std::get_if<Disjunction>(&p->node)) {
      for (const auto& c : o->children) FlattenInto(c, conjunction, out);
      return;
    }
  }
  out->push_back(p);
}

/// Combines already-normalized children of a conjunction. Does not recurse
/// into NormalizeNode (children must be normalized by the caller).
PredicatePtr CombineAnd(const std::vector<PredicatePtr>& normalized_children) {
  std::vector<PredicatePtr> flat;
  for (const auto& c : normalized_children) {
    FlattenInto(c, /*conjunction=*/true, &flat);
  }
  std::map<std::string, ColumnConstraint> per_column;
  std::vector<PredicatePtr> residual;  // ORs, params, etc.
  for (const auto& c : flat) {
    if (const auto* cmp = std::get_if<Comparison>(&c->node)) {
      if (cmp->param_index >= 0) { residual.push_back(c); continue; }
      auto& cc = per_column[cmp->column];
      switch (cmp->op) {
        case CmpOp::kEq: cc.ApplyEq(cmp->value); break;
        case CmpOp::kNe: cc.excluded.insert(cmp->value); break;
        case CmpOp::kLt:
          if (cmp->value == kMinV) { cc.contradiction = true; }
          else { cc.ApplyLe(cmp->value - 1); }
          break;
        case CmpOp::kLe: cc.ApplyLe(cmp->value); break;
        case CmpOp::kGt:
          if (cmp->value == kMaxV) { cc.contradiction = true; }
          else { cc.ApplyGe(cmp->value + 1); }
          break;
        case CmpOp::kGe: cc.ApplyGe(cmp->value); break;
      }
    } else if (const auto* bt = std::get_if<Between>(&c->node)) {
      auto& cc = per_column[bt->column];
      cc.ApplyGe(bt->lo);
      cc.ApplyLe(bt->hi);
    } else if (const auto* in = std::get_if<InList>(&c->node)) {
      per_column[in->column].ApplyIn(in->values);
    } else if (const auto* k = std::get_if<ConstPred>(&c->node)) {
      if (!k->value) return MakeConst(false);
      // TRUE children are dropped.
    } else {
      residual.push_back(c);
    }
  }
  std::vector<PredicatePtr> out;
  bool is_false = false;
  for (const auto& [column, cc] : per_column) {
    EmitConstraint(column, cc, &out, &is_false);
    if (is_false) return MakeConst(false);
  }
  for (auto& r : residual) out.push_back(std::move(r));
  if (out.empty()) return MakeConst(true);
  std::sort(out.begin(), out.end(),
            [](const PredicatePtr& a, const PredicatePtr& b) {
              return ToString(a) < ToString(b);
            });
  if (out.size() == 1) return out[0];
  return MakeAnd(std::move(out));
}

/// Combines already-normalized children of a disjunction.
PredicatePtr CombineOr(const std::vector<PredicatePtr>& normalized_children) {
  std::vector<PredicatePtr> flat;
  for (const auto& c : normalized_children) {
    FlattenInto(c, /*conjunction=*/false, &flat);
  }
  // Union of equality points per column; everything else residual.
  std::map<std::string, std::set<int64_t>> eq_points;
  std::vector<PredicatePtr> residual;
  for (const auto& c : flat) {
    if (const auto* cmp = std::get_if<Comparison>(&c->node)) {
      if (cmp->param_index < 0 && cmp->op == CmpOp::kEq) {
        eq_points[cmp->column].insert(cmp->value);
        continue;
      }
    } else if (const auto* in = std::get_if<InList>(&c->node)) {
      eq_points[in->column].insert(in->values.begin(), in->values.end());
      continue;
    } else if (const auto* k = std::get_if<ConstPred>(&c->node)) {
      if (k->value) return MakeConst(true);
      continue;  // FALSE dropped
    }
    residual.push_back(c);
  }
  std::vector<PredicatePtr> out;
  for (const auto& [column, points] : eq_points) {
    if (points.size() == 1) {
      out.push_back(MakeCmp(column, CmpOp::kEq, *points.begin()));
    } else {
      out.push_back(
          MakeIn(column, std::vector<int64_t>(points.begin(), points.end())));
    }
  }
  for (auto& r : residual) out.push_back(std::move(r));
  if (out.empty()) return MakeConst(false);
  std::sort(out.begin(), out.end(),
            [](const PredicatePtr& a, const PredicatePtr& b) {
              return ToString(a) < ToString(b);
            });
  if (out.size() == 1) return out[0];
  return MakeOr(std::move(out));
}

PredicatePtr NormalizeNode(const PredicatePtr& p) {
  return std::visit(
      [&](const auto& n) -> PredicatePtr {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Negation>) {
          return NormalizeNode(NegatePred(n.child));
        } else if constexpr (std::is_same_v<T, Conjunction>) {
          std::vector<PredicatePtr> kids;
          kids.reserve(n.children.size());
          for (const auto& c : n.children) kids.push_back(NormalizeNode(c));
          return CombineAnd(kids);
        } else if constexpr (std::is_same_v<T, Disjunction>) {
          std::vector<PredicatePtr> kids;
          kids.reserve(n.children.size());
          for (const auto& c : n.children) kids.push_back(NormalizeNode(c));
          return CombineOr(kids);
        } else if constexpr (std::is_same_v<T, Comparison> ||
                             std::is_same_v<T, Between> ||
                             std::is_same_v<T, InList>) {
          // Route leaves through the conjunction combiner so that e.g.
          // `x < 5` canonicalizes to `x <= 4` and one-element IN to Eq.
          // CombineAnd does not recurse, so this terminates.
          return CombineAnd({p});
        } else if constexpr (std::is_same_v<T, ColumnCmp>) {
          // Canonical orientation: lexicographically smaller column on the
          // left, so `a < b` and `b > a` normalize identically.
          if (n.right_column < n.left_column) {
            return MakeColCmp(n.right_column, MirrorOp(n.op), n.left_column);
          }
          return p;
        } else {
          return p;
        }
      },
      p->node);
}

// ---- Expression constant folding (see rewriter.h for the rule set) -------

/// True when `e` is a literal; fills `*v`.
bool IsConstExpr(const ExprPtr& e, int64_t* v) {
  if (const auto* c = std::get_if<ExprConst>(&e->node)) {
    *v = c->value;
    return true;
  }
  return false;
}

/// True when evaluating `e` can never raise an error — the gate for every
/// rewrite that drops a subtree from the evaluated program. Only Div/Mod
/// can error (division by zero), so any tree free of them is elidable.
bool CanElide(const ExprPtr& e) {
  return std::visit(
      [&](const auto& n) -> bool {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, ExprCol> ||
                      std::is_same_v<T, ExprConst>) {
          return true;
        } else if constexpr (std::is_same_v<T, ExprNeg>) {
          return CanElide(n.child);
        } else if constexpr (std::is_same_v<T, ExprArith>) {
          if (n.op == ArithOp::kDiv || n.op == ArithOp::kMod) return false;
          return CanElide(n.left) && CanElide(n.right);
        } else if constexpr (std::is_same_v<T, ExprCmp>) {
          return CanElide(n.left) && CanElide(n.right);
        } else {
          return CanElide(n.cond) && CanElide(n.then_expr) &&
                 CanElide(n.else_expr);
        }
      },
      e->node);
}

ExprPtr FoldExprNode(const ExprPtr& e) {
  return std::visit(
      [&](const auto& n) -> ExprPtr {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, ExprCol> ||
                      std::is_same_v<T, ExprConst>) {
          return e;
        } else if constexpr (std::is_same_v<T, ExprNeg>) {
          ExprPtr child = FoldExprNode(n.child);
          int64_t v;
          if (IsConstExpr(child, &v)) return MakeConstExpr(WrapNeg(v));
          if (const auto* inner = std::get_if<ExprNeg>(&child->node)) {
            return inner->child;  // -(-x) == x under wraparound
          }
          return MakeNegExpr(std::move(child));
        } else if constexpr (std::is_same_v<T, ExprArith>) {
          ExprPtr left = FoldExprNode(n.left);
          ExprPtr right = FoldExprNode(n.right);
          int64_t lv = 0, rv = 0;
          const bool lconst = IsConstExpr(left, &lv);
          const bool rconst = IsConstExpr(right, &rv);
          if (lconst && rconst) {
            switch (n.op) {
              case ArithOp::kAdd: return MakeConstExpr(WrapAdd(lv, rv));
              case ArithOp::kSub: return MakeConstExpr(WrapSub(lv, rv));
              case ArithOp::kMul: return MakeConstExpr(WrapMul(lv, rv));
              case ArithOp::kDiv:
                // Literal x/0 stays unfolded: the runtime error must fire.
                if (rv != 0) return MakeConstExpr(WrapDiv(lv, rv));
                break;
              case ArithOp::kMod:
                if (rv != 0) return MakeConstExpr(WrapMod(lv, rv));
                break;
            }
            return MakeArith(std::move(left), n.op, std::move(right));
          }
          switch (n.op) {
            case ArithOp::kAdd:
              if (rconst && rv == 0) return left;
              if (lconst && lv == 0) return right;
              // Canonical: constant on the right.
              if (lconst) return MakeArith(std::move(right), n.op,
                                           std::move(left));
              break;
            case ArithOp::kSub:
              if (rconst && rv == 0) return left;
              break;
            case ArithOp::kMul:
              if (rconst && rv == 1) return left;
              if (lconst && lv == 1) return right;
              if (rconst && rv == 0 && CanElide(left)) {
                return MakeConstExpr(0);
              }
              if (lconst && lv == 0 && CanElide(right)) {
                return MakeConstExpr(0);
              }
              if (lconst) return MakeArith(std::move(right), n.op,
                                           std::move(left));
              break;
            case ArithOp::kDiv:
              if (rconst && rv == 1) return left;
              break;
            case ArithOp::kMod:
              // x % 1 == 0 for every x (WrapMod(INT64_MIN, ... ) included).
              if (rconst && rv == 1 && CanElide(left)) {
                return MakeConstExpr(0);
              }
              break;
          }
          return MakeArith(std::move(left), n.op, std::move(right));
        } else if constexpr (std::is_same_v<T, ExprCmp>) {
          ExprPtr left = FoldExprNode(n.left);
          ExprPtr right = FoldExprNode(n.right);
          int64_t lv = 0, rv = 0;
          const bool lconst = IsConstExpr(left, &lv);
          const bool rconst = IsConstExpr(right, &rv);
          if (lconst && rconst) {
            return MakeConstExpr(EvalCmp(lv, n.op, rv) ? 1 : 0);
          }
          // Canonical: constant on the right, operator mirrored.
          if (lconst) {
            return MakeCmpExpr(std::move(right), MirrorOp(n.op),
                               std::move(left));
          }
          return MakeCmpExpr(std::move(left), n.op, std::move(right));
        } else {  // ExprCase
          ExprPtr cond = FoldExprNode(n.cond);
          ExprPtr then_expr = FoldExprNode(n.then_expr);
          ExprPtr else_expr = FoldExprNode(n.else_expr);
          int64_t cv;
          if (IsConstExpr(cond, &cv)) {
            // CASE is eager, so dropping the untaken branch elides it —
            // legal only when that branch cannot error.
            if (cv != 0 && CanElide(else_expr)) return then_expr;
            if (cv == 0 && CanElide(then_expr)) return else_expr;
          }
          return MakeCaseExpr(std::move(cond), std::move(then_expr),
                              std::move(else_expr));
        }
      },
      e->node);
}

}  // namespace

PredicatePtr Normalize(const PredicatePtr& p) { return NormalizeNode(p); }

bool EquivalentNormalized(const PredicatePtr& a, const PredicatePtr& b) {
  return ToString(Normalize(a)) == ToString(Normalize(b));
}

ExprPtr FoldExpr(const ExprPtr& e) {
  if (e == nullptr) return e;
  return FoldExprNode(e);
}

}  // namespace rqp
