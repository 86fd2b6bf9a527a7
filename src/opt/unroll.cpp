#include "opt/unroll.h"

#include "opt/astclone.h"
#include "opt/astconst.h"

#include <cassert>

namespace c2h::opt {

using namespace ast;

namespace {

// Entered once per unrollLoops call; the per-iteration budget charges
// below carry its name.
guard::Stage stageUnroll("flow.unroll");

const Expr &stripImplicitCasts(const Expr &expr) {
  const Expr *e = &expr;
  while (e->kind == Expr::Kind::Cast &&
         static_cast<const CastExpr *>(e)->isImplicit)
    e = static_cast<const CastExpr *>(e)->operand.get();
  return *e;
}

// The canonical induction structure of a for-loop.
struct Induction {
  const VarDecl *var = nullptr;
  BitVector start{1};
  // Condition: compare the induction value (converted to `compareType`)
  // against `bound` with `rel`.
  BinaryOp rel = BinaryOp::Lt;
  BitVector bound{1};
  const Type *compareType = nullptr;
  // Step: var = var +/- stepValue (at the variable's width).
  bool stepAdd = true;
  BitVector step{1};
};

const VarDecl *asVarRef(const Expr &expr) {
  const Expr &e = stripImplicitCasts(expr);
  if (e.kind == Expr::Kind::VarRef)
    return static_cast<const VarRefExpr &>(e).decl;
  return nullptr;
}

std::optional<Induction> matchInduction(const ForStmt &loop) {
  if (!loop.init || !loop.cond || !loop.step)
    return std::nullopt;
  Induction ind;

  // init: `T i = C` or `i = C`.
  if (loop.init->kind == Stmt::Kind::Decl) {
    const auto &d = static_cast<const DeclStmt &>(*loop.init);
    if (!d.decl->init || !d.decl->type->isScalar())
      return std::nullopt;
    auto v = tryEvalConst(*d.decl->init);
    if (!v)
      return std::nullopt;
    ind.var = d.decl.get();
    ind.start = v->resize(d.decl->type->bitWidth(),
                          d.decl->init->type->isScalar() &&
                              d.decl->init->type->isSigned());
  } else if (loop.init->kind == Stmt::Kind::Expr) {
    const auto &e = static_cast<const ExprStmt &>(*loop.init);
    if (!e.expr || e.expr->kind != Expr::Kind::Assign)
      return std::nullopt;
    const auto &a = static_cast<const AssignExpr &>(*e.expr);
    if (a.isCompound)
      return std::nullopt;
    const VarDecl *var = asVarRef(*a.target);
    if (!var || !var->type->isScalar())
      return std::nullopt;
    auto v = tryEvalConst(*a.value);
    if (!v)
      return std::nullopt;
    ind.var = var;
    ind.start = v->resize(var->type->bitWidth(),
                          a.value->type->isScalar() &&
                              a.value->type->isSigned());
  } else {
    return std::nullopt;
  }

  // cond: `i <rel> C` (after sema both sides share a common scalar type).
  {
    const Expr &cond = stripImplicitCasts(*loop.cond);
    if (cond.kind != Expr::Kind::Binary)
      return std::nullopt;
    const auto &b = static_cast<const BinaryExpr &>(cond);
    switch (b.op) {
    case BinaryOp::Lt: case BinaryOp::Le: case BinaryOp::Gt:
    case BinaryOp::Ge: case BinaryOp::Ne:
      break;
    default:
      return std::nullopt;
    }
    if (asVarRef(*b.lhs) != ind.var)
      return std::nullopt;
    auto bound = tryEvalConst(*b.rhs);
    if (!bound)
      return std::nullopt;
    ind.rel = b.op;
    ind.bound = *bound;
    ind.compareType = b.lhs->type;
    if (!ind.compareType->isScalar())
      return std::nullopt;
  }

  // step: `i = i + C`, `i += C`, `i++`, `i--`, ...
  {
    const Expr &step = *loop.step;
    unsigned width = ind.var->type->bitWidth();
    if (step.kind == Expr::Kind::Unary) {
      const auto &u = static_cast<const UnaryExpr &>(step);
      if (asVarRef(*u.operand) != ind.var)
        return std::nullopt;
      switch (u.op) {
      case UnaryOp::PreInc: case UnaryOp::PostInc:
        ind.stepAdd = true;
        ind.step = BitVector(width, 1);
        return ind;
      case UnaryOp::PreDec: case UnaryOp::PostDec:
        ind.stepAdd = false;
        ind.step = BitVector(width, 1);
        return ind;
      default:
        return std::nullopt;
      }
    }
    if (step.kind != Expr::Kind::Assign)
      return std::nullopt;
    const auto &a = static_cast<const AssignExpr &>(step);
    if (asVarRef(*a.target) != ind.var)
      return std::nullopt;
    if (a.isCompound) {
      if (a.compoundOp != BinaryOp::Add && a.compoundOp != BinaryOp::Sub)
        return std::nullopt;
      auto v = tryEvalConst(*a.value);
      if (!v)
        return std::nullopt;
      ind.stepAdd = a.compoundOp == BinaryOp::Add;
      ind.step = v->resize(width, a.value->type->isScalar() &&
                                      a.value->type->isSigned());
      return ind;
    }
    const Expr &rhs = stripImplicitCasts(*a.value);
    if (rhs.kind != Expr::Kind::Binary)
      return std::nullopt;
    const auto &b = static_cast<const BinaryExpr &>(rhs);
    if (b.op != BinaryOp::Add && b.op != BinaryOp::Sub)
      return std::nullopt;
    const VarDecl *lhsVar = asVarRef(*b.lhs);
    const VarDecl *rhsVar = asVarRef(*b.rhs);
    std::optional<BitVector> c;
    if (lhsVar == ind.var)
      c = tryEvalConst(*b.rhs);
    else if (rhsVar == ind.var && b.op == BinaryOp::Add)
      c = tryEvalConst(*b.lhs);
    if (!c)
      return std::nullopt;
    ind.stepAdd = b.op == BinaryOp::Add;
    ind.step = c->resize(width, true);
    return ind;
  }
}

// True when `stmt` contains a break/continue that would bind to the loop
// being unrolled (i.e. not nested inside an inner loop).
bool hasLoopExit(const Stmt &stmt) {
  switch (stmt.kind) {
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return true;
  case Stmt::Kind::Block: {
    const auto &b = static_cast<const BlockStmt &>(stmt);
    for (const auto &s : b.stmts)
      if (hasLoopExit(*s))
        return true;
    return false;
  }
  case Stmt::Kind::If: {
    const auto &i = static_cast<const IfStmt &>(stmt);
    return hasLoopExit(*i.thenStmt) ||
           (i.elseStmt && hasLoopExit(*i.elseStmt));
  }
  case Stmt::Kind::Constraint:
    return hasLoopExit(*static_cast<const ConstraintStmt &>(stmt).body);
  case Stmt::Kind::Par: {
    const auto &p = static_cast<const ParStmt &>(stmt);
    for (const auto &s : p.branches)
      if (hasLoopExit(*s))
        return true;
    return false;
  }
  default:
    return false; // nested loops capture their own break/continue
  }
}

// True when the body writes the induction variable.
bool bodyModifies(const Stmt &body, const VarDecl *var) {
  bool modifies = false;
  walk(const_cast<Stmt &>(body),
       [&](Stmt &s) {
         if (s.kind == Stmt::Kind::Recv) {
           auto &r = static_cast<RecvStmt &>(s);
           if (asVarRef(*r.target) == var)
             modifies = true;
         }
       },
       [&](Expr &e) {
         if (e.kind == Expr::Kind::Assign) {
           if (asVarRef(*static_cast<AssignExpr &>(e).target) == var)
             modifies = true;
         } else if (e.kind == Expr::Kind::Unary) {
           auto &u = static_cast<UnaryExpr &>(e);
           if ((u.op == UnaryOp::PreInc || u.op == UnaryOp::PreDec ||
                u.op == UnaryOp::PostInc || u.op == UnaryOp::PostDec ||
                u.op == UnaryOp::AddrOf) &&
               asVarRef(*u.operand) == var)
             modifies = true;
         }
       });
  return modifies;
}

std::optional<std::uint64_t> tripCountOf(const Induction &ind,
                                         std::uint64_t limit) {
  const Type *varType = nullptr; // compare in the sema-chosen common type
  (void)varType;
  BitVector value = ind.start;
  unsigned varWidth = ind.var->type->bitWidth();
  bool varSigned = ind.var->type->isSigned();
  unsigned cmpWidth = ind.compareType->bitWidth();
  bool cmpSigned = ind.compareType->isSigned();
  BitVector bound = ind.bound.resize(cmpWidth, cmpSigned);

  std::uint64_t count = 0;
  for (;;) {
    BitVector cur = value.resize(cmpWidth, varSigned);
    bool take;
    switch (ind.rel) {
    case BinaryOp::Lt: take = cmpSigned ? cur.slt(bound) : cur.ult(bound); break;
    case BinaryOp::Le: take = cmpSigned ? cur.sle(bound) : cur.ule(bound); break;
    case BinaryOp::Gt: take = cmpSigned ? bound.slt(cur) : bound.ult(cur); break;
    case BinaryOp::Ge: take = cmpSigned ? bound.sle(cur) : bound.ule(cur); break;
    case BinaryOp::Ne: take = !cur.eq(bound); break;
    default: return std::nullopt;
    }
    if (!take)
      return count;
    if (++count > limit)
      return std::nullopt; // diverges or too large
    BitVector step = ind.step.resize(varWidth, true);
    value = ind.stepAdd ? value.add(step) : value.sub(step);
  }
}

class Unroller {
public:
  Unroller(Program &program, DiagnosticEngine &diags,
           const UnrollOptions &options)
      : diags_(diags), options_(options), nextId_(maxVarDeclId(program)) {}

  bool changed() const { return changed_; }

  void processStmt(StmtPtr &stmt) {
    if (!stmt)
      return;
    switch (stmt->kind) {
    case Stmt::Kind::Block:
      for (auto &s : static_cast<BlockStmt &>(*stmt).stmts)
        processStmt(s);
      return;
    case Stmt::Kind::If: {
      auto &i = static_cast<IfStmt &>(*stmt);
      processStmt(i.thenStmt);
      processStmt(i.elseStmt);
      return;
    }
    case Stmt::Kind::While:
      processStmt(static_cast<WhileStmt &>(*stmt).body);
      return;
    case Stmt::Kind::DoWhile:
      processStmt(static_cast<DoWhileStmt &>(*stmt).body);
      return;
    case Stmt::Kind::Par:
      for (auto &s : static_cast<ParStmt &>(*stmt).branches)
        processStmt(s);
      return;
    case Stmt::Kind::Constraint:
      processStmt(static_cast<ConstraintStmt &>(*stmt).body);
      return;
    case Stmt::Kind::For: {
      auto &loop = static_cast<ForStmt &>(*stmt);
      processStmt(loop.body); // inner loops first
      bool requested = loop.unrollFactor != 0;
      if (!requested && !options_.unrollAll)
        return;
      unsigned factor = requested ? loop.unrollFactor : ForStmt::kFullUnroll;
      tryUnroll(stmt, loop, factor, requested);
      return;
    }
    default:
      return;
    }
  }

private:
  void diag(bool requested, SourceLoc loc, const std::string &message) {
    if (requested)
      diags_.error(loc, message);
  }

  void tryUnroll(StmtPtr &stmt, ForStmt &loop, unsigned factor,
                 bool requested) {
    auto ind = matchInduction(loop);
    if (!ind) {
      diag(requested, loop.loc,
           "cannot unroll: loop is not in canonical induction form "
           "(constant init/bound/step)");
      return;
    }
    // The step is by nature an assignment to the induction variable;
    // matchInduction already constrained its shape.  Only the condition
    // must be pure (it is dropped by full unrolling).
    if (!isPureExpr(*loop.cond)) {
      diag(requested, loop.loc,
           "cannot unroll: loop condition has side effects");
      return;
    }
    if (hasLoopExit(*loop.body)) {
      diag(requested, loop.loc,
           "cannot unroll: body contains break/continue");
      return;
    }
    if (bodyModifies(*loop.body, ind->var)) {
      diag(requested, loop.loc,
           "cannot unroll: body modifies the induction variable");
      return;
    }
    auto trip = tripCountOf(*ind, options_.maxTripCount);
    if (!trip) {
      diag(requested, loop.loc,
           "cannot unroll: trip count unknown or above the limit");
      return;
    }
    std::uint64_t n = *trip;
    if (factor != ForStmt::kFullUnroll && factor < n) {
      partialUnroll(stmt, loop, factor, n);
    } else {
      fullUnroll(stmt, loop, n);
    }
    changed_ = true;
  }

  // Clone `(body; step)` once into `out`.
  void emitIteration(BlockStmt &out, const ForStmt &loop) {
    if (options_.budget) {
      options_.budget->chargeSteps(1, stageUnroll.name());
      if ((++emitted_ & 1023) == 0)
        options_.budget->checkDeadline(stageUnroll.name());
    }
    CloneContext clones(nextId_);
    out.stmts.push_back(clones.cloneStmt(*loop.body));
    CloneContext stepClones(nextId_);
    out.stmts.push_back(std::make_unique<ExprStmt>(
        loop.step->loc, stepClones.cloneExpr(*loop.step)));
  }

  void fullUnroll(StmtPtr &stmt, ForStmt &loop, std::uint64_t n) {
    auto block = std::make_unique<BlockStmt>(loop.loc);
    if (loop.init)
      block->stmts.push_back(std::move(loop.init));
    for (std::uint64_t i = 0; i < n; ++i)
      emitIteration(*block, loop);
    stmt = std::move(block);
  }

  void partialUnroll(StmtPtr &stmt, ForStmt &loop, unsigned factor,
                     std::uint64_t n) {
    auto block = std::make_unique<BlockStmt>(loop.loc);
    if (loop.init)
      block->stmts.push_back(std::move(loop.init));
    // Peel the remainder first so the main loop runs a multiple of factor.
    std::uint64_t peel = n % factor;
    for (std::uint64_t i = 0; i < peel; ++i)
      emitIteration(*block, loop);
    // Main loop: keep the original (pure) condition; each iteration does
    // `factor` copies of (body; step).
    auto mainLoop = std::make_unique<ForStmt>(loop.loc);
    CloneContext condClones(nextId_);
    mainLoop->cond = condClones.cloneExpr(*loop.cond);
    auto body = std::make_unique<BlockStmt>(loop.loc);
    for (unsigned i = 0; i < factor; ++i)
      emitIteration(*body, loop);
    mainLoop->body = std::move(body);
    block->stmts.push_back(std::move(mainLoop));
    stmt = std::move(block);
  }

  DiagnosticEngine &diags_;
  UnrollOptions options_;
  unsigned nextId_;
  std::uint64_t emitted_ = 0;
  bool changed_ = false;
};

} // namespace

std::optional<std::uint64_t> staticTripCount(const ast::ForStmt &loop,
                                             std::uint64_t limit) {
  auto ind = matchInduction(loop);
  if (!ind)
    return std::nullopt;
  if (hasLoopExit(*loop.body) || bodyModifies(*loop.body, ind->var))
    return std::nullopt;
  return tripCountOf(*ind, limit);
}

bool unrollLoops(ast::Program &program, DiagnosticEngine &diags,
                 const UnrollOptions &options) {
  stageUnroll.enter(options.budget);
  Unroller unroller(program, diags, options);
  for (auto &fn : program.functions) {
    StmtPtr body(fn->body.release());
    unroller.processStmt(body);
    assert(body->kind == ast::Stmt::Kind::Block);
    fn->body.reset(static_cast<ast::BlockStmt *>(body.release()));
  }
  return unroller.changed();
}

} // namespace c2h::opt
