#include "expr/predicate.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

namespace rqp {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

bool EvalCmp(int64_t lhs, CmpOp op, int64_t rhs) {
  switch (op) {
    case CmpOp::kEq: return lhs == rhs;
    case CmpOp::kNe: return lhs != rhs;
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kLe: return lhs <= rhs;
    case CmpOp::kGt: return lhs > rhs;
    case CmpOp::kGe: return lhs >= rhs;
  }
  return false;
}

int FindSlot(const std::vector<std::string>& slots, const std::string& name) {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == name) return static_cast<int>(i);
  }
  return -1;
}

PredicatePtr MakeCmp(std::string column, CmpOp op, int64_t value) {
  return std::make_shared<Predicate>(
      Predicate{Comparison{std::move(column), op, value, -1}});
}

PredicatePtr MakeParamCmp(std::string column, CmpOp op, int param_index) {
  assert(param_index >= 0);
  return std::make_shared<Predicate>(
      Predicate{Comparison{std::move(column), op, 0, param_index}});
}

PredicatePtr MakeBetween(std::string column, int64_t lo, int64_t hi) {
  return std::make_shared<Predicate>(
      Predicate{Between{std::move(column), lo, hi}});
}

PredicatePtr MakeIn(std::string column, std::vector<int64_t> values) {
  return std::make_shared<Predicate>(
      Predicate{InList{std::move(column), std::move(values)}});
}

PredicatePtr MakeColCmp(std::string left_column, CmpOp op,
                        std::string right_column) {
  return std::make_shared<Predicate>(Predicate{
      ColumnCmp{std::move(left_column), op, std::move(right_column)}});
}

PredicatePtr MakeAnd(std::vector<PredicatePtr> children) {
  return std::make_shared<Predicate>(
      Predicate{Conjunction{std::move(children)}});
}

PredicatePtr MakeOr(std::vector<PredicatePtr> children) {
  return std::make_shared<Predicate>(
      Predicate{Disjunction{std::move(children)}});
}

PredicatePtr MakeNot(PredicatePtr child) {
  return std::make_shared<Predicate>(Predicate{Negation{std::move(child)}});
}

PredicatePtr MakeConst(bool value) {
  return std::make_shared<Predicate>(Predicate{ConstPred{value}});
}

std::string ToString(const PredicatePtr& p) {
  std::ostringstream os;
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Comparison>) {
          os << n.column << " " << CmpOpName(n.op) << " ";
          if (n.param_index >= 0) {
            os << "?" << n.param_index;
          } else {
            os << n.value;
          }
        } else if constexpr (std::is_same_v<T, Between>) {
          os << n.column << " BETWEEN " << n.lo << " AND " << n.hi;
        } else if constexpr (std::is_same_v<T, InList>) {
          os << n.column << " IN (";
          for (size_t i = 0; i < n.values.size(); ++i) {
            if (i) os << ", ";
            os << n.values[i];
          }
          os << ")";
        } else if constexpr (std::is_same_v<T, ColumnCmp>) {
          os << n.left_column << " " << CmpOpName(n.op) << " "
             << n.right_column;
        } else if constexpr (std::is_same_v<T, Conjunction>) {
          os << "(";
          for (size_t i = 0; i < n.children.size(); ++i) {
            if (i) os << " AND ";
            os << ToString(n.children[i]);
          }
          os << ")";
        } else if constexpr (std::is_same_v<T, Disjunction>) {
          os << "(";
          for (size_t i = 0; i < n.children.size(); ++i) {
            if (i) os << " OR ";
            os << ToString(n.children[i]);
          }
          os << ")";
        } else if constexpr (std::is_same_v<T, Negation>) {
          os << "NOT " << ToString(n.child);
        } else if constexpr (std::is_same_v<T, ConstPred>) {
          os << (n.value ? "TRUE" : "FALSE");
        }
      },
      p->node);
  return os.str();
}

namespace {
void CollectColumns(const PredicatePtr& p, std::set<std::string>* out) {
  if (p == nullptr) return;
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Comparison>) {
          out->insert(n.column);
        } else if constexpr (std::is_same_v<T, Between>) {
          out->insert(n.column);
        } else if constexpr (std::is_same_v<T, InList>) {
          out->insert(n.column);
        } else if constexpr (std::is_same_v<T, ColumnCmp>) {
          out->insert(n.left_column);
          out->insert(n.right_column);
        } else if constexpr (std::is_same_v<T, Conjunction> ||
                             std::is_same_v<T, Disjunction>) {
          for (const auto& c : n.children) CollectColumns(c, out);
        } else if constexpr (std::is_same_v<T, Negation>) {
          CollectColumns(n.child, out);
        }
      },
      p->node);
}
}  // namespace

std::vector<std::string> ReferencedColumns(const PredicatePtr& p) {
  std::set<std::string> cols;
  CollectColumns(p, &cols);
  return {cols.begin(), cols.end()};
}

bool HasParams(const PredicatePtr& p) {
  bool found = false;
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Comparison>) {
          found = n.param_index >= 0;
        } else if constexpr (std::is_same_v<T, Conjunction> ||
                             std::is_same_v<T, Disjunction>) {
          for (const auto& c : n.children) {
            if (HasParams(c)) { found = true; break; }
          }
        } else if constexpr (std::is_same_v<T, Negation>) {
          found = HasParams(n.child);
        }
      },
      p->node);
  return found;
}

PredicatePtr BindParams(const PredicatePtr& p,
                        const std::vector<int64_t>& params) {
  return std::visit(
      [&](const auto& n) -> PredicatePtr {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Comparison>) {
          if (n.param_index < 0) return p;
          // Too few params: leave the placeholder unbound rather than read
          // out of bounds; compilation then rejects the predicate with
          // FailedPrecondition instead of crashing.
          if (static_cast<size_t>(n.param_index) >= params.size()) return p;
          return MakeCmp(n.column, n.op,
                         params[static_cast<size_t>(n.param_index)]);
        } else if constexpr (std::is_same_v<T, Conjunction>) {
          std::vector<PredicatePtr> kids;
          kids.reserve(n.children.size());
          for (const auto& c : n.children) kids.push_back(BindParams(c, params));
          return MakeAnd(std::move(kids));
        } else if constexpr (std::is_same_v<T, Disjunction>) {
          std::vector<PredicatePtr> kids;
          kids.reserve(n.children.size());
          for (const auto& c : n.children) kids.push_back(BindParams(c, params));
          return MakeOr(std::move(kids));
        } else if constexpr (std::is_same_v<T, Negation>) {
          return MakeNot(BindParams(n.child, params));
        } else {
          return p;
        }
      },
      p->node);
}

PredicatePtr QualifyColumns(const PredicatePtr& p, const std::string& prefix) {
  return std::visit(
      [&](const auto& n) -> PredicatePtr {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Comparison>) {
          Comparison c = n;
          c.column = prefix + "." + c.column;
          return std::make_shared<Predicate>(Predicate{std::move(c)});
        } else if constexpr (std::is_same_v<T, Between>) {
          Between b = n;
          b.column = prefix + "." + b.column;
          return std::make_shared<Predicate>(Predicate{std::move(b)});
        } else if constexpr (std::is_same_v<T, InList>) {
          InList l = n;
          l.column = prefix + "." + l.column;
          return std::make_shared<Predicate>(Predicate{std::move(l)});
        } else if constexpr (std::is_same_v<T, ColumnCmp>) {
          ColumnCmp c = n;
          c.left_column = prefix + "." + c.left_column;
          c.right_column = prefix + "." + c.right_column;
          return std::make_shared<Predicate>(Predicate{std::move(c)});
        } else if constexpr (std::is_same_v<T, Conjunction>) {
          std::vector<PredicatePtr> kids;
          kids.reserve(n.children.size());
          for (const auto& c : n.children) {
            kids.push_back(QualifyColumns(c, prefix));
          }
          return MakeAnd(std::move(kids));
        } else if constexpr (std::is_same_v<T, Disjunction>) {
          std::vector<PredicatePtr> kids;
          kids.reserve(n.children.size());
          for (const auto& c : n.children) {
            kids.push_back(QualifyColumns(c, prefix));
          }
          return MakeOr(std::move(kids));
        } else if constexpr (std::is_same_v<T, Negation>) {
          return MakeNot(QualifyColumns(n.child, prefix));
        } else {
          return p;
        }
      },
      p->node);
}

bool EvalOnTable(const PredicatePtr& p, const Table& table, int64_t row) {
  return std::visit(
      [&](const auto& n) -> bool {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Comparison>) {
          assert(n.param_index < 0 && "unbound parameter at evaluation");
          auto idx = table.ColumnIndex(n.column);
          assert(idx.ok());
          return EvalCmp(table.Value(idx.value(), row), n.op, n.value);
        } else if constexpr (std::is_same_v<T, Between>) {
          auto idx = table.ColumnIndex(n.column);
          assert(idx.ok());
          const int64_t v = table.Value(idx.value(), row);
          return v >= n.lo && v <= n.hi;
        } else if constexpr (std::is_same_v<T, InList>) {
          auto idx = table.ColumnIndex(n.column);
          assert(idx.ok());
          const int64_t v = table.Value(idx.value(), row);
          return std::find(n.values.begin(), n.values.end(), v) !=
                 n.values.end();
        } else if constexpr (std::is_same_v<T, ColumnCmp>) {
          auto li = table.ColumnIndex(n.left_column);
          auto ri = table.ColumnIndex(n.right_column);
          assert(li.ok() && ri.ok());
          return EvalCmp(table.Value(li.value(), row), n.op,
                         table.Value(ri.value(), row));
        } else if constexpr (std::is_same_v<T, Conjunction>) {
          for (const auto& c : n.children) {
            if (!EvalOnTable(c, table, row)) return false;
          }
          return true;
        } else if constexpr (std::is_same_v<T, Disjunction>) {
          for (const auto& c : n.children) {
            if (EvalOnTable(c, table, row)) return true;
          }
          return false;
        } else if constexpr (std::is_same_v<T, Negation>) {
          return !EvalOnTable(n.child, table, row);
        } else if constexpr (std::is_same_v<T, ConstPred>) {
          return n.value;
        }
      },
      p->node);
}

}  // namespace rqp
