#include "expr/expr.h"

#include <algorithm>
#include <sstream>

namespace rqp {

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
  }
  return "?";
}

Status ExprDivisionByZero() {
  return Status::InvalidArgument("expression division by zero");
}

// ---- Builders ------------------------------------------------------------

ExprPtr MakeColExpr(std::string column) {
  return std::make_shared<Expr>(Expr{ExprCol{std::move(column)}});
}
ExprPtr MakeConstExpr(int64_t value) {
  return std::make_shared<Expr>(Expr{ExprConst{value}});
}
ExprPtr MakeNegExpr(ExprPtr child) {
  return std::make_shared<Expr>(Expr{ExprNeg{std::move(child)}});
}
ExprPtr MakeArith(ExprPtr left, ArithOp op, ExprPtr right) {
  return std::make_shared<Expr>(
      Expr{ExprArith{op, std::move(left), std::move(right)}});
}
ExprPtr MakeCmpExpr(ExprPtr left, CmpOp op, ExprPtr right) {
  return std::make_shared<Expr>(
      Expr{ExprCmp{op, std::move(left), std::move(right)}});
}
ExprPtr MakeCaseExpr(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr) {
  return std::make_shared<Expr>(Expr{ExprCase{
      std::move(cond), std::move(then_expr), std::move(else_expr)}});
}

// ---- Inspection ----------------------------------------------------------

namespace {

void ToStringRec(const ExprPtr& e, std::ostringstream& os) {
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, ExprCol>) {
          os << n.column;
        } else if constexpr (std::is_same_v<T, ExprConst>) {
          os << n.value;
        } else if constexpr (std::is_same_v<T, ExprNeg>) {
          os << "(-";
          ToStringRec(n.child, os);
          os << ")";
        } else if constexpr (std::is_same_v<T, ExprArith>) {
          os << "(";
          ToStringRec(n.left, os);
          os << " " << ArithOpName(n.op) << " ";
          ToStringRec(n.right, os);
          os << ")";
        } else if constexpr (std::is_same_v<T, ExprCmp>) {
          os << "(";
          ToStringRec(n.left, os);
          os << " " << CmpOpName(n.op) << " ";
          ToStringRec(n.right, os);
          os << ")";
        } else if constexpr (std::is_same_v<T, ExprCase>) {
          os << "(case ";
          ToStringRec(n.cond, os);
          os << " then ";
          ToStringRec(n.then_expr, os);
          os << " else ";
          ToStringRec(n.else_expr, os);
          os << ")";
        }
      },
      e->node);
}

void CollectColumns(const ExprPtr& e, std::vector<std::string>* out) {
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, ExprCol>) {
          out->push_back(n.column);
        } else if constexpr (std::is_same_v<T, ExprNeg>) {
          CollectColumns(n.child, out);
        } else if constexpr (std::is_same_v<T, ExprArith>) {
          CollectColumns(n.left, out);
          CollectColumns(n.right, out);
        } else if constexpr (std::is_same_v<T, ExprCmp>) {
          CollectColumns(n.left, out);
          CollectColumns(n.right, out);
        } else if constexpr (std::is_same_v<T, ExprCase>) {
          CollectColumns(n.cond, out);
          CollectColumns(n.then_expr, out);
          CollectColumns(n.else_expr, out);
        }
      },
      e->node);
}

}  // namespace

std::string ToString(const ExprPtr& e) {
  if (e == nullptr) return "<null>";
  std::ostringstream os;
  ToStringRec(e, os);
  return os.str();
}

std::vector<std::string> ExprReferencedColumns(const ExprPtr& e) {
  std::vector<std::string> cols;
  if (e != nullptr) CollectColumns(e, &cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

// ---- CompiledExpr --------------------------------------------------------

StatusOr<CompiledExpr> CompiledExpr::Compile(
    const ExprPtr& e, const std::vector<std::string>& slots) {
  if (e == nullptr) {
    return Status::InvalidArgument("cannot compile null expression");
  }
  auto root = CompileNode(e, slots);
  RQP_RETURN_IF_ERROR(root.status());
  CompiledExpr ce;
  ce.source_ = e;
  ce.root_ = std::move(root).value();
  return ce;
}

StatusOr<CompiledExpr::CNodePtr> CompiledExpr::CompileNode(
    const ExprPtr& e, const std::vector<std::string>& slots) {
  Status error = Status::OK();
  CNodePtr result;
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, ExprCol>) {
          const int s = FindSlot(slots, n.column);
          if (s < 0) {
            error = Status::NotFound("slot for column '" + n.column + "'");
            return;
          }
          result = std::make_shared<CNode>(
              CNode{CCol{static_cast<size_t>(s)}});
        } else if constexpr (std::is_same_v<T, ExprConst>) {
          result = std::make_shared<CNode>(CNode{CConst{n.value}});
        } else if constexpr (std::is_same_v<T, ExprNeg>) {
          auto child = CompileNode(n.child, slots);
          if (!child.ok()) { error = child.status(); return; }
          result = std::make_shared<CNode>(
              CNode{CNeg{std::move(child).value()}});
        } else if constexpr (std::is_same_v<T, ExprArith>) {
          auto left = CompileNode(n.left, slots);
          if (!left.ok()) { error = left.status(); return; }
          auto right = CompileNode(n.right, slots);
          if (!right.ok()) { error = right.status(); return; }
          result = std::make_shared<CNode>(CNode{CArith{
              n.op, std::move(left).value(), std::move(right).value()}});
        } else if constexpr (std::is_same_v<T, ExprCmp>) {
          auto left = CompileNode(n.left, slots);
          if (!left.ok()) { error = left.status(); return; }
          auto right = CompileNode(n.right, slots);
          if (!right.ok()) { error = right.status(); return; }
          result = std::make_shared<CNode>(CNode{CCmp{
              n.op, std::move(left).value(), std::move(right).value()}});
        } else if constexpr (std::is_same_v<T, ExprCase>) {
          auto cond = CompileNode(n.cond, slots);
          if (!cond.ok()) { error = cond.status(); return; }
          auto then_node = CompileNode(n.then_expr, slots);
          if (!then_node.ok()) { error = then_node.status(); return; }
          auto else_node = CompileNode(n.else_expr, slots);
          if (!else_node.ok()) { error = else_node.status(); return; }
          result = std::make_shared<CNode>(CNode{CCase{
              std::move(cond).value(), std::move(then_node).value(),
              std::move(else_node).value()}});
        }
      },
      e->node);
  if (!error.ok()) return error;
  return result;
}

Status CompiledExpr::EvalNode(const CNode& n, const int64_t* row,
                              int64_t* out) {
  Status error = Status::OK();
  std::visit(
      [&](const auto& c) {
        using T = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<T, CCol>) {
          *out = row[c.slot];
        } else if constexpr (std::is_same_v<T, CConst>) {
          *out = c.value;
        } else if constexpr (std::is_same_v<T, CNeg>) {
          int64_t v;
          error = EvalNode(*c.child, row, &v);
          if (!error.ok()) return;
          *out = WrapNeg(v);
        } else if constexpr (std::is_same_v<T, CArith>) {
          int64_t a, b;
          error = EvalNode(*c.left, row, &a);
          if (!error.ok()) return;
          error = EvalNode(*c.right, row, &b);
          if (!error.ok()) return;
          switch (c.op) {
            case ArithOp::kAdd: *out = WrapAdd(a, b); return;
            case ArithOp::kSub: *out = WrapSub(a, b); return;
            case ArithOp::kMul: *out = WrapMul(a, b); return;
            case ArithOp::kDiv:
              if (b == 0) { error = ExprDivisionByZero(); return; }
              *out = WrapDiv(a, b);
              return;
            case ArithOp::kMod:
              if (b == 0) { error = ExprDivisionByZero(); return; }
              *out = WrapMod(a, b);
              return;
          }
        } else if constexpr (std::is_same_v<T, CCmp>) {
          int64_t a, b;
          error = EvalNode(*c.left, row, &a);
          if (!error.ok()) return;
          error = EvalNode(*c.right, row, &b);
          if (!error.ok()) return;
          *out = EvalCmp(a, c.op, b) ? 1 : 0;
        } else if constexpr (std::is_same_v<T, CCase>) {
          // Eager: both branches always evaluated (see ExprCase).
          int64_t cond, tv, ev;
          error = EvalNode(*c.cond, row, &cond);
          if (!error.ok()) return;
          error = EvalNode(*c.then_node, row, &tv);
          if (!error.ok()) return;
          error = EvalNode(*c.else_node, row, &ev);
          if (!error.ok()) return;
          *out = cond != 0 ? tv : ev;
        }
      },
      n.node);
  return error;
}

}  // namespace rqp
