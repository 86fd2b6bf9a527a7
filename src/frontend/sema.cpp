#include "frontend/sema.h"

#include "frontend/parser.h"

#include <cassert>
#include <functional>
#include <set>

namespace c2h {

using namespace ast;

const char *featureName(Feature feature) {
  switch (feature) {
  case Feature::Pointers: return "pointers";
  case Feature::Recursion: return "recursion";
  case Feature::WhileLoops: return "data-dependent loops";
  case Feature::BoundedLoops: return "bounded loops";
  case Feature::Multiply: return "multiplication";
  case Feature::DivideModulo: return "division/modulo";
  case Feature::Arrays: return "arrays";
  case Feature::ParBlocks: return "par blocks";
  case Feature::Channels: return "channels";
  case Feature::DelayStatements: return "delay statements";
  case Feature::TimingConstraints: return "timing constraints";
  case Feature::GlobalState: return "mutable global state";
  case Feature::MultipleFunctions: return "function calls";
  }
  return "?";
}

void FeatureSet::add(Feature feature, SourceLoc loc) {
  present_[feature].push_back(loc);
}

SourceLoc FeatureSet::where(Feature feature) const {
  auto it = present_.find(feature);
  return it == present_.end() || it->second.empty() ? SourceLoc{}
                                                    : it->second.front();
}

const std::vector<SourceLoc> &FeatureSet::sites(Feature feature) const {
  static const std::vector<SourceLoc> empty;
  auto it = present_.find(feature);
  return it == present_.end() ? empty : it->second;
}

Sema::Sema(TypeContext &types, DiagnosticEngine &diags)
    : types_(types), diags_(diags) {}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

ast::VarDecl *Sema::lookupVar(const std::string &name) const {
  for (std::size_t i = scopes_.size(); i-- > 0;)
    for (auto *decl : scopes_[i])
      if (decl->name == name)
        return decl;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

const Type *Sema::promote(const Type *t) {
  if (t->isBool())
    return types_.intType(1, false);
  return t;
}

bool Sema::isImplicitlyConvertible(const Type *from, const Type *to) const {
  if (from == to)
    return true;
  if (from->isScalar() && to->isScalar())
    return true;
  if (from->isArray() && to->isPointer() && from->element() == to->element())
    return true; // array decay
  if (from->isPointer() && to->isPointer())
    return from->element() == to->element();
  return false;
}

ast::ExprPtr Sema::coerce(ast::ExprPtr expr, const Type *target) {
  if (!expr || !expr->type || expr->type == target)
    return expr;
  if (!isImplicitlyConvertible(expr->type, target)) {
    error(expr->loc, "cannot convert '" + expr->type->str() + "' to '" +
                         target->str() + "'");
    return expr;
  }
  auto cast = std::make_unique<CastExpr>(expr->loc, target, std::move(expr));
  cast->isImplicit = true;
  return cast;
}

ast::ExprPtr Sema::toCondition(ast::ExprPtr expr) {
  if (!expr || !expr->type)
    return expr;
  if (expr->type->isBool())
    return expr;
  if (!expr->type->isScalar() && !expr->type->isPointer()) {
    error(expr->loc,
          "condition has non-scalar type '" + expr->type->str() + "'");
    return expr;
  }
  auto cast = std::make_unique<CastExpr>(expr->loc, types_.boolType(),
                                         std::move(expr));
  cast->isImplicit = true;
  return cast;
}

const Type *Sema::usualArithmeticType(const Type *a, const Type *b) {
  a = promote(a);
  b = promote(b);
  unsigned wa = a->bitWidth(), wb = b->bitWidth();
  bool sa = a->isSigned(), sb = b->isSigned();
  if (sa == sb)
    return types_.intType(std::max(wa, wb), sa);
  // Mixed signedness: the C rule generalized — if the signed type is
  // strictly wider it can represent every unsigned value, so the result is
  // signed; otherwise unsigned wins.
  unsigned signedWidth = sa ? wa : wb;
  unsigned unsignedWidth = sa ? wb : wa;
  if (signedWidth > unsignedWidth)
    return types_.intType(signedWidth, true);
  return types_.intType(std::max(wa, wb), false);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

ast::ExprPtr Sema::checkExpr(ast::ExprPtr expr) {
  if (!expr)
    return expr;
  switch (expr->kind) {
  case Expr::Kind::IntLiteral: {
    auto *lit = static_cast<IntLiteralExpr *>(expr.get());
    expr->type = types_.intType(lit->value.width(), true);
    return expr;
  }
  case Expr::Kind::BoolLiteral:
    expr->type = types_.boolType();
    return expr;
  case Expr::Kind::VarRef: {
    auto *ref = static_cast<VarRefExpr *>(expr.get());
    ref->decl = lookupVar(ref->name);
    if (!ref->decl) {
      error(ref->loc, "use of undeclared identifier '" + ref->name + "'");
      expr->type = types_.i32();
      return expr;
    }
    expr->type = ref->decl->type;
    return expr;
  }
  case Expr::Kind::Unary:
    return checkUnary(
        std::unique_ptr<UnaryExpr>(static_cast<UnaryExpr *>(expr.release())));
  case Expr::Kind::Binary:
    return checkBinary(std::unique_ptr<BinaryExpr>(
        static_cast<BinaryExpr *>(expr.release())));
  case Expr::Kind::Assign:
    return checkAssign(std::unique_ptr<AssignExpr>(
        static_cast<AssignExpr *>(expr.release())));
  case Expr::Kind::Ternary: {
    auto *t = static_cast<TernaryExpr *>(expr.get());
    t->cond = toCondition(checkExpr(std::move(t->cond)));
    t->thenExpr = checkExpr(std::move(t->thenExpr));
    t->elseExpr = checkExpr(std::move(t->elseExpr));
    if (!t->thenExpr->type || !t->elseExpr->type)
      return expr;
    if (t->thenExpr->type->isScalar() && t->elseExpr->type->isScalar()) {
      const Type *common =
          usualArithmeticType(t->thenExpr->type, t->elseExpr->type);
      t->thenExpr = coerce(std::move(t->thenExpr), common);
      t->elseExpr = coerce(std::move(t->elseExpr), common);
      expr->type = common;
    } else if (t->thenExpr->type == t->elseExpr->type) {
      expr->type = t->thenExpr->type;
    } else {
      error(t->loc, "incompatible ternary operand types");
      expr->type = t->thenExpr->type;
    }
    return expr;
  }
  case Expr::Kind::Call:
    return checkCall(
        std::unique_ptr<CallExpr>(static_cast<CallExpr *>(expr.release())));
  case Expr::Kind::Index: {
    auto *idx = static_cast<IndexExpr *>(expr.get());
    idx->base = checkExpr(std::move(idx->base));
    idx->index = checkExpr(std::move(idx->index));
    const Type *baseTy = idx->base->type;
    if (baseTy && (baseTy->isArray() || baseTy->isPointer())) {
      expr->type = baseTy->element();
    } else {
      if (baseTy)
        error(idx->loc, "subscripted value is not an array or pointer");
      expr->type = types_.i32();
    }
    if (idx->index->type && !idx->index->type->isScalar())
      error(idx->index->loc, "array index must be an integer");
    return expr;
  }
  case Expr::Kind::Cast: {
    auto *cast = static_cast<CastExpr *>(expr.get());
    cast->operand = checkExpr(std::move(cast->operand));
    const Type *from = cast->operand->type;
    const Type *to = cast->type;
    if (from && to) {
      bool ok = (from->isScalar() && to->isScalar()) ||
                (from->isPointer() && to->isPointer()) ||
                (from->isScalar() && to->isPointer()) ||
                (from->isPointer() && to->isScalar()) ||
                (from->isArray() && to->isPointer() &&
                 from->element() == to->element());
      if (!ok)
        error(cast->loc, "invalid cast from '" + from->str() + "' to '" +
                             to->str() + "'");
    }
    return expr;
  }
  }
  return expr;
}

ast::ExprPtr Sema::checkUnary(std::unique_ptr<ast::UnaryExpr> expr) {
  expr->operand = checkExpr(std::move(expr->operand));
  const Type *opTy = expr->operand->type;
  if (!opTy) {
    expr->type = types_.i32();
    return expr;
  }
  switch (expr->op) {
  case UnaryOp::Neg:
  case UnaryOp::Plus:
  case UnaryOp::BitNot:
    if (!opTy->isScalar()) {
      error(expr->loc, "operand of unary '" +
                           std::string(unaryOpName(expr->op)) +
                           "' must be an integer");
      expr->type = types_.i32();
      return expr;
    }
    expr->type = promote(opTy);
    expr->operand = coerce(std::move(expr->operand), expr->type);
    return expr;
  case UnaryOp::Not:
    expr->operand = toCondition(std::move(expr->operand));
    expr->type = types_.boolType();
    return expr;
  case UnaryOp::Deref:
    if (!opTy->isPointer()) {
      error(expr->loc, "cannot dereference non-pointer type '" +
                           opTy->str() + "'");
      expr->type = types_.i32();
      return expr;
    }
    expr->type = opTy->element();
    return expr;
  case UnaryOp::AddrOf: {
    if (!expr->operand->isLValue()) {
      error(expr->loc, "cannot take the address of an rvalue");
      expr->type = types_.pointerType(types_.i32());
      return expr;
    }
    // Mark the root variable as address-taken.
    Expr *e = expr->operand.get();
    while (true) {
      if (e->kind == Expr::Kind::Index)
        e = static_cast<IndexExpr *>(e)->base.get();
      else if (e->kind == Expr::Kind::Unary &&
               static_cast<UnaryExpr *>(e)->op == UnaryOp::Deref)
        e = static_cast<UnaryExpr *>(e)->operand.get();
      else
        break;
    }
    if (e->kind == Expr::Kind::VarRef && static_cast<VarRefExpr *>(e)->decl)
      static_cast<VarRefExpr *>(e)->decl->addressTaken = true;
    expr->type = types_.pointerType(opTy);
    return expr;
  }
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec:
    if (!expr->operand->isLValue())
      error(expr->loc, "operand of increment/decrement must be an lvalue");
    if (!opTy->isScalar() && !opTy->isPointer()) {
      error(expr->loc, "cannot increment value of type '" + opTy->str() + "'");
      expr->type = types_.i32();
      return expr;
    }
    expr->type = opTy;
    return expr;
  }
  return expr;
}

ast::ExprPtr Sema::checkBinary(std::unique_ptr<ast::BinaryExpr> expr) {
  expr->lhs = checkExpr(std::move(expr->lhs));
  expr->rhs = checkExpr(std::move(expr->rhs));
  const Type *lt = expr->lhs->type, *rt = expr->rhs->type;
  if (!lt || !rt) {
    expr->type = types_.i32();
    return expr;
  }

  switch (expr->op) {
  case BinaryOp::LogicalAnd:
  case BinaryOp::LogicalOr:
    expr->lhs = toCondition(std::move(expr->lhs));
    expr->rhs = toCondition(std::move(expr->rhs));
    expr->type = types_.boolType();
    return expr;
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge: {
    if (lt->isPointer() && rt->isPointer()) {
      expr->type = types_.boolType();
      return expr;
    }
    if (!lt->isScalar() || !rt->isScalar()) {
      error(expr->loc, "invalid operands to comparison ('" + lt->str() +
                           "' and '" + rt->str() + "')");
      expr->type = types_.boolType();
      return expr;
    }
    const Type *common = usualArithmeticType(lt, rt);
    expr->lhs = coerce(std::move(expr->lhs), common);
    expr->rhs = coerce(std::move(expr->rhs), common);
    expr->type = types_.boolType();
    return expr;
  }
  case BinaryOp::Shl:
  case BinaryOp::Shr: {
    if (!lt->isScalar() || !rt->isScalar()) {
      error(expr->loc, "invalid operands to shift");
      expr->type = types_.i32();
      return expr;
    }
    expr->type = promote(lt);
    expr->lhs = coerce(std::move(expr->lhs), expr->type);
    expr->rhs = coerce(std::move(expr->rhs), promote(rt));
    return expr;
  }
  default: { // arithmetic / bitwise
    // Pointer arithmetic: ptr + int / ptr - int.
    if (lt->isPointer() && rt->isScalar() &&
        (expr->op == BinaryOp::Add || expr->op == BinaryOp::Sub)) {
      expr->type = lt;
      return expr;
    }
    if (rt->isPointer() && lt->isScalar() && expr->op == BinaryOp::Add) {
      expr->type = rt;
      return expr;
    }
    if (!lt->isScalar() || !rt->isScalar()) {
      error(expr->loc, "invalid operands to binary '" +
                           std::string(binaryOpName(expr->op)) + "' ('" +
                           lt->str() + "' and '" + rt->str() + "')");
      expr->type = types_.i32();
      return expr;
    }
    const Type *common = usualArithmeticType(lt, rt);
    expr->lhs = coerce(std::move(expr->lhs), common);
    expr->rhs = coerce(std::move(expr->rhs), common);
    expr->type = common;
    return expr;
  }
  }
}

ast::ExprPtr Sema::checkAssign(std::unique_ptr<ast::AssignExpr> expr) {
  expr->target = checkExpr(std::move(expr->target));
  expr->value = checkExpr(std::move(expr->value));
  if (!expr->target->isLValue())
    error(expr->loc, "assignment target is not an lvalue");
  const Type *targetTy = expr->target->type;
  if (targetTy) {
    if (expr->target->kind == Expr::Kind::VarRef) {
      auto *ref = static_cast<VarRefExpr *>(expr->target.get());
      if (ref->decl && ref->decl->isConst)
        error(expr->loc, "assignment to const variable '" + ref->name + "'");
    }
    if (targetTy->isArray() || targetTy->isChan())
      error(expr->loc,
            "cannot assign to value of type '" + targetTy->str() + "'");
    else
      expr->value = coerce(std::move(expr->value), targetTy);
  }
  expr->type = targetTy ? targetTy : types_.i32();
  return expr;
}

ast::ExprPtr Sema::checkCall(std::unique_ptr<ast::CallExpr> expr) {
  expr->decl = program_->findFunction(expr->callee);
  if (!expr->decl) {
    error(expr->loc, "call to undeclared function '" + expr->callee + "'");
    for (auto &arg : expr->args)
      arg = checkExpr(std::move(arg));
    expr->type = types_.i32();
    return expr;
  }
  if (currentFunction_)
    callEdges_[currentFunction_->name].push_back(expr->callee);

  FuncDecl *fn = expr->decl;
  if (expr->args.size() != fn->params.size())
    error(expr->loc, "call to '" + expr->callee + "' expects " +
                         std::to_string(fn->params.size()) +
                         " argument(s), got " +
                         std::to_string(expr->args.size()));
  for (std::size_t i = 0; i < expr->args.size(); ++i) {
    expr->args[i] = checkExpr(std::move(expr->args[i]));
    if (i >= fn->params.size() || !expr->args[i]->type)
      continue;
    const Type *paramTy = fn->params[i]->type;
    const Type *argTy = expr->args[i]->type;
    if (paramTy->isArray()) {
      // By-reference array parameter: element types must match and the
      // argument must be at least as long.
      if (!argTy->isArray() || argTy->element() != paramTy->element() ||
          argTy->arraySize() < paramTy->arraySize())
        error(expr->args[i]->loc,
              "cannot pass '" + argTy->str() + "' as array parameter '" +
                  paramTy->str() + "'");
    } else if (paramTy->isChan()) {
      if (argTy != paramTy)
        error(expr->args[i]->loc, "channel argument type mismatch");
    } else {
      expr->args[i] = coerce(std::move(expr->args[i]), paramTy);
    }
  }
  expr->type = fn->returnType;
  return expr;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Sema::checkVarDecl(ast::VarDecl &decl, bool isGlobal) {
  decl.id = nextVarId_++;
  decl.isGlobal = isGlobal;
  if (decl.type->isVoid()) {
    error(decl.loc, "variable '" + decl.name + "' has void type");
    decl.type = types_.i32();
  }
  // Redeclaration in the same scope.
  if (!scopes_.empty()) {
    for (auto *prior : scopes_.back())
      if (prior->name == decl.name)
        error(decl.loc, "redeclaration of '" + decl.name + "'");
  }

  if (decl.type->isChan()) {
    if (decl.init || !decl.arrayInit.empty())
      error(decl.loc, "channels cannot be initialized");
    return;
  }
  if (decl.init) {
    decl.init = checkExpr(std::move(decl.init));
    if (decl.type->isArray())
      error(decl.loc, "array initializer must use braces");
    else if (decl.init->type)
      decl.init = coerce(std::move(decl.init), decl.type);
  }
  if (!decl.arrayInit.empty()) {
    if (!decl.type->isArray()) {
      error(decl.loc, "brace initializer on non-array");
    } else {
      // Flattened initialization (C-style): elements fill the array in
      // row-major order down to the scalar leaves.
      const Type *leaf = decl.type;
      std::uint64_t capacity = 1;
      while (leaf->isArray()) {
        capacity *= leaf->arraySize();
        leaf = leaf->element();
      }
      if (decl.arrayInit.size() > capacity)
        error(decl.loc, "too many initializers for '" + decl.type->str() +
                            "'");
      for (auto &e : decl.arrayInit) {
        e = checkExpr(std::move(e));
        if (e->type)
          e = coerce(std::move(e), leaf);
      }
    }
  }
}

void Sema::checkBlock(ast::BlockStmt &block) {
  scopes_.emplace_back();
  for (auto &stmt : block.stmts)
    checkStmt(*stmt);
  scopes_.pop_back();
}

void Sema::checkStmt(ast::Stmt &stmt) {
  switch (stmt.kind) {
  case Stmt::Kind::Decl: {
    auto &d = static_cast<DeclStmt &>(stmt);
    checkVarDecl(*d.decl, /*isGlobal=*/false);
    scopes_.back().push_back(d.decl.get());
    break;
  }
  case Stmt::Kind::Expr: {
    auto &e = static_cast<ExprStmt &>(stmt);
    e.expr = checkExpr(std::move(e.expr));
    break;
  }
  case Stmt::Kind::Block:
    checkBlock(static_cast<BlockStmt &>(stmt));
    break;
  case Stmt::Kind::If: {
    auto &i = static_cast<IfStmt &>(stmt);
    i.cond = toCondition(checkExpr(std::move(i.cond)));
    checkStmt(*i.thenStmt);
    if (i.elseStmt)
      checkStmt(*i.elseStmt);
    break;
  }
  case Stmt::Kind::While: {
    auto &w = static_cast<WhileStmt &>(stmt);
    w.cond = toCondition(checkExpr(std::move(w.cond)));
    ++loopDepth_;
    checkStmt(*w.body);
    --loopDepth_;
    break;
  }
  case Stmt::Kind::DoWhile: {
    auto &w = static_cast<DoWhileStmt &>(stmt);
    ++loopDepth_;
    checkStmt(*w.body);
    --loopDepth_;
    w.cond = toCondition(checkExpr(std::move(w.cond)));
    break;
  }
  case Stmt::Kind::For: {
    auto &f = static_cast<ForStmt &>(stmt);
    scopes_.emplace_back(); // for-init scope
    if (f.init)
      checkStmt(*f.init);
    if (f.cond)
      f.cond = toCondition(checkExpr(std::move(f.cond)));
    if (f.step)
      f.step = checkExpr(std::move(f.step));
    ++loopDepth_;
    checkStmt(*f.body);
    --loopDepth_;
    scopes_.pop_back();
    break;
  }
  case Stmt::Kind::Return: {
    auto &r = static_cast<ReturnStmt &>(stmt);
    const Type *expected = currentFunction_->returnType;
    if (r.value) {
      r.value = checkExpr(std::move(r.value));
      if (expected->isVoid())
        error(r.loc, "void function '" + currentFunction_->name +
                         "' cannot return a value");
      else if (r.value->type)
        r.value = coerce(std::move(r.value), expected);
    } else if (!expected->isVoid()) {
      error(r.loc, "non-void function '" + currentFunction_->name +
                       "' must return a value");
    }
    break;
  }
  case Stmt::Kind::Break:
    if (loopDepth_ == 0)
      error(stmt.loc, "'break' outside of a loop");
    break;
  case Stmt::Kind::Continue:
    if (loopDepth_ == 0)
      error(stmt.loc, "'continue' outside of a loop");
    break;
  case Stmt::Kind::Par: {
    auto &p = static_cast<ParStmt &>(stmt);
    for (auto &branch : p.branches) {
      scopes_.emplace_back();
      checkStmt(*branch);
      scopes_.pop_back();
    }
    break;
  }
  case Stmt::Kind::Send: {
    auto &s = static_cast<SendStmt &>(stmt);
    s.chan = checkExpr(std::move(s.chan));
    s.value = checkExpr(std::move(s.value));
    if (s.chan->type && !s.chan->type->isChan())
      error(s.loc, "send target is not a channel");
    else if (s.chan->type && s.value->type)
      s.value = coerce(std::move(s.value), s.chan->type->element());
    break;
  }
  case Stmt::Kind::Recv: {
    auto &r = static_cast<RecvStmt &>(stmt);
    r.chan = checkExpr(std::move(r.chan));
    r.target = checkExpr(std::move(r.target));
    if (r.chan->type && !r.chan->type->isChan())
      error(r.loc, "receive source is not a channel");
    if (!r.target->isLValue())
      error(r.loc, "receive target must be an lvalue");
    else if (r.target->type && r.chan->type && r.chan->type->isChan() &&
             !isImplicitlyConvertible(r.chan->type->element(),
                                      r.target->type))
      error(r.loc, "cannot receive '" + r.chan->type->element()->str() +
                       "' into '" + r.target->type->str() + "'");
    break;
  }
  case Stmt::Kind::Delay:
    break;
  case Stmt::Kind::Constraint:
    checkStmt(*static_cast<ConstraintStmt &>(stmt).body);
    break;
  }
}

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

void Sema::checkFunction(ast::FuncDecl &fn) {
  currentFunction_ = &fn;
  scopes_.emplace_back();
  for (auto &param : fn.params) {
    param->id = nextVarId_++;
    if (param->type->isVoid()) {
      error(param->loc, "parameter has void type");
      param->type = types_.i32();
    }
    for (auto *prior : scopes_.back())
      if (prior->name == param->name)
        error(param->loc, "duplicate parameter '" + param->name + "'");
    scopes_.back().push_back(param.get());
  }
  checkBlock(*fn.body);
  scopes_.pop_back();
  currentFunction_ = nullptr;
}

void Sema::detectRecursion(ast::Program &program) {
  // DFS over the call graph looking for cycles; every function on a cycle
  // is marked recursive.
  for (auto &fn : program.functions) {
    std::set<std::string> visiting, visited;
    std::function<bool(const std::string &)> reaches =
        [&](const std::string &name) -> bool {
      if (name == fn->name && !visiting.empty())
        return true;
      if (!visited.insert(name).second)
        return false;
      auto it = callEdges_.find(name);
      if (it == callEdges_.end())
        return false;
      visiting.insert(name);
      for (const auto &callee : it->second)
        if (callee == fn->name || reaches(callee))
          return true;
      return false;
    };
    visiting.insert(fn->name);
    auto it = callEdges_.find(fn->name);
    if (it != callEdges_.end())
      for (const auto &callee : it->second)
        if (callee == fn->name || reaches(callee)) {
          fn->isRecursive = true;
          break;
        }
  }
}

bool Sema::run(ast::Program &program) {
  program_ = &program;
  unsigned errorsBefore = diags_.errorCount();

  // Duplicate function names.
  for (std::size_t i = 0; i < program.functions.size(); ++i)
    for (std::size_t j = i + 1; j < program.functions.size(); ++j)
      if (program.functions[i]->name == program.functions[j]->name)
        error(program.functions[j]->loc,
              "redefinition of function '" + program.functions[j]->name +
                  "'");

  scopes_.emplace_back(); // global scope
  for (auto &g : program.globals) {
    checkVarDecl(*g, /*isGlobal=*/true);
    scopes_.back().push_back(g.get());
  }
  for (auto &fn : program.functions)
    checkFunction(*fn);
  scopes_.pop_back();

  detectRecursion(program);
  program_ = nullptr;
  return diags_.errorCount() == errorsBefore;
}

// ---------------------------------------------------------------------------
// Feature analysis
// ---------------------------------------------------------------------------

FeatureSet analyzeFeatures(const ast::Program &program) {
  FeatureSet features;
  auto &mutableProgram = const_cast<ast::Program &>(program);

  for (const auto &g : program.globals) {
    if (g->type->isChan())
      features.add(Feature::Channels, g->loc);
    else if (!g->isConst)
      features.add(Feature::GlobalState, g->loc);
    if (g->type->isArray())
      features.add(Feature::Arrays, g->loc);
    if (g->type->isPointer())
      features.add(Feature::Pointers, g->loc);
  }
  for (const auto &fn : program.functions) {
    if (fn->isRecursive)
      features.add(Feature::Recursion, fn->loc);
    for (const auto &p : fn->params) {
      if (p->type->isPointer())
        features.add(Feature::Pointers, p->loc);
      if (p->type->isArray())
        features.add(Feature::Arrays, p->loc);
      if (p->type->isChan())
        features.add(Feature::Channels, p->loc);
    }
  }

  ast::walk(
      mutableProgram,
      [&](ast::Stmt &stmt) {
        switch (stmt.kind) {
        case Stmt::Kind::While:
        case Stmt::Kind::DoWhile:
          features.add(Feature::WhileLoops, stmt.loc);
          break;
        case Stmt::Kind::For: {
          // A for loop whose bounds fold to constants at unroll time is
          // "bounded"; anything else is data-dependent.  The unroller makes
          // the final call; here we classify syntactically.
          features.add(Feature::BoundedLoops, stmt.loc);
          break;
        }
        case Stmt::Kind::Par:
          features.add(Feature::ParBlocks, stmt.loc);
          break;
        case Stmt::Kind::Send:
        case Stmt::Kind::Recv:
          features.add(Feature::Channels, stmt.loc);
          break;
        case Stmt::Kind::Delay:
          features.add(Feature::DelayStatements, stmt.loc);
          break;
        case Stmt::Kind::Constraint:
          features.add(Feature::TimingConstraints, stmt.loc);
          break;
        case Stmt::Kind::Decl: {
          auto &d = static_cast<DeclStmt &>(stmt);
          if (d.decl->type->isArray())
            features.add(Feature::Arrays, d.decl->loc);
          if (d.decl->type->isPointer())
            features.add(Feature::Pointers, d.decl->loc);
          if (d.decl->type->isChan())
            features.add(Feature::Channels, d.decl->loc);
          break;
        }
        default:
          break;
        }
      },
      [&](ast::Expr &expr) {
        switch (expr.kind) {
        case Expr::Kind::Unary: {
          auto &u = static_cast<UnaryExpr &>(expr);
          if (u.op == UnaryOp::Deref || u.op == UnaryOp::AddrOf)
            features.add(Feature::Pointers, u.loc);
          break;
        }
        case Expr::Kind::Binary: {
          auto &b = static_cast<BinaryExpr &>(expr);
          if (b.op == BinaryOp::Mul)
            features.add(Feature::Multiply, b.loc);
          if (b.op == BinaryOp::Div || b.op == BinaryOp::Rem)
            features.add(Feature::DivideModulo, b.loc);
          break;
        }
        case Expr::Kind::Assign: {
          auto &a = static_cast<AssignExpr &>(expr);
          if (a.isCompound) {
            if (a.compoundOp == BinaryOp::Mul)
              features.add(Feature::Multiply, a.loc);
            if (a.compoundOp == BinaryOp::Div ||
                a.compoundOp == BinaryOp::Rem)
              features.add(Feature::DivideModulo, a.loc);
          }
          // Assignment to a mutable global.
          if (a.target->kind == Expr::Kind::VarRef) {
            auto *ref = static_cast<VarRefExpr *>(a.target.get());
            if (ref->decl && ref->decl->isGlobal)
              features.add(Feature::GlobalState, a.loc);
          }
          break;
        }
        case Expr::Kind::Call:
          features.add(Feature::MultipleFunctions, expr.loc);
          break;
        case Expr::Kind::Index:
          features.add(Feature::Arrays, expr.loc);
          break;
        default:
          break;
        }
      });
  return features;
}

namespace {
guard::Stage stageParse("frontend.parse");
guard::Stage stageSema("frontend.sema");
} // namespace

std::unique_ptr<ast::Program> frontend(const std::string &source,
                                       TypeContext &types,
                                       DiagnosticEngine &diags,
                                       guard::ExecBudget *budget) {
  stageParse.enter(budget);
  auto program = parseString(source, types, diags);
  if (diags.hasErrors())
    return nullptr;
  stageSema.enter(budget);
  Sema sema(types, diags);
  if (!sema.run(*program))
    return nullptr;
  return program;
}

std::unique_ptr<ast::Program> frontendOrError(const std::string &source,
                                              TypeContext &types,
                                              std::string &error,
                                              guard::Verdict &verdict) {
  DiagnosticEngine diags;
  std::unique_ptr<ast::Program> program;
  try {
    program = frontend(source, types, diags);
  } catch (const guard::Trip &e) {
    verdict = e.verdict;
    error = e.verdict.str();
    return nullptr;
  }
  if (!program) {
    error = diags.str();
    while (!error.empty() && error.back() == '\n')
      error.pop_back();
  }
  return program;
}

} // namespace c2h
