// Semantic analysis for uC.
//
// Sema resolves names, checks types, materializes every implicit conversion
// as an explicit ast::CastExpr, marks address-taken variables, detects
// recursion, and assigns stable ids to declarations.  After a successful run
// the AST is fully typed: interpreter and IR lowering never guess.
//
// Sema also computes the Program's *feature set* — which of the surveyed
// language capabilities (pointers, recursion, channels, `par`, timing
// constraints, unbounded loops, ...) the program exercises.  Each synthesis
// flow later intersects this set with its language's restrictions, which is
// exactly how the paper's Table 1 expressiveness matrix becomes executable.
#ifndef C2H_FRONTEND_SEMA_H
#define C2H_FRONTEND_SEMA_H

#include "frontend/ast.h"
#include "frontend/type.h"
#include "support/diagnostics.h"
#include "support/guard.h"

#include <map>
#include <string>
#include <vector>

namespace c2h {

// Language capabilities a program may exercise; mirrors the columns of the
// paper's Table 1 discussion.
enum class Feature {
  Pointers,        // address-of / dereference / pointer types
  Recursion,       // direct or mutual
  WhileLoops,      // loops without a parse-time trip count
  BoundedLoops,    // for-loops with static bounds
  Multiply,        // * operator
  DivideModulo,    // / or %
  Arrays,
  ParBlocks,       // explicit `par`
  Channels,        // rendezvous send/receive
  DelayStatements, // explicit cycle boundaries
  TimingConstraints, // constraint(min,max) blocks
  GlobalState,     // mutable globals
  MultipleFunctions, // calls to non-main functions
};

const char *featureName(Feature feature);

// The set of features a program uses, with every source location that
// exercised each (for flow rejection diagnostics and the analyzer, which
// cite all offending sites, not just the first).
class FeatureSet {
public:
  void add(Feature feature, SourceLoc loc);
  bool has(Feature feature) const { return present_.count(feature) != 0; }
  // First location that exercised the feature (invalid if absent).
  SourceLoc where(Feature feature) const;
  // All locations, in the order analyzeFeatures visited them.
  const std::vector<SourceLoc> &sites(Feature feature) const;
  const std::map<Feature, std::vector<SourceLoc>> &all() const {
    return present_;
  }

private:
  std::map<Feature, std::vector<SourceLoc>> present_;
};

class Sema {
public:
  Sema(TypeContext &types, DiagnosticEngine &diags);

  // Analyze and annotate the program in place.  Returns false if any error
  // was reported.
  bool run(ast::Program &program);

private:
  struct Scope;

  // Declarations
  void declareGlobal(ast::VarDecl &decl);
  void checkFunction(ast::FuncDecl &fn);
  void checkVarDecl(ast::VarDecl &decl, bool isGlobal);

  // Statements
  void checkStmt(ast::Stmt &stmt);
  void checkBlock(ast::BlockStmt &block);

  // Expressions: returns the (possibly rewritten) expression, fully typed.
  ast::ExprPtr checkExpr(ast::ExprPtr expr);
  ast::ExprPtr checkUnary(std::unique_ptr<ast::UnaryExpr> expr);
  ast::ExprPtr checkBinary(std::unique_ptr<ast::BinaryExpr> expr);
  ast::ExprPtr checkAssign(std::unique_ptr<ast::AssignExpr> expr);
  ast::ExprPtr checkCall(std::unique_ptr<ast::CallExpr> expr);

  // Conversions
  // Wrap `expr` in an implicit cast to `target` if needed; reports an error
  // and returns expr unchanged when no conversion exists.
  ast::ExprPtr coerce(ast::ExprPtr expr, const Type *target);
  // Convert to bool for use as a condition.
  ast::ExprPtr toCondition(ast::ExprPtr expr);
  // C's usual arithmetic conversions generalized to arbitrary widths.
  const Type *usualArithmeticType(const Type *a, const Type *b);
  // bool -> uint<1>; leaves ints alone.
  const Type *promote(const Type *t);
  bool isImplicitlyConvertible(const Type *from, const Type *to) const;

  // Lookup
  ast::VarDecl *lookupVar(const std::string &name) const;

  void error(SourceLoc loc, std::string message) {
    diags_.error(loc, std::move(message));
  }

  // Recursion detection over the call graph.
  void detectRecursion(ast::Program &program);

  TypeContext &types_;
  DiagnosticEngine &diags_;
  ast::Program *program_ = nullptr;
  ast::FuncDecl *currentFunction_ = nullptr;
  std::vector<std::vector<ast::VarDecl *>> scopes_;
  unsigned loopDepth_ = 0;
  unsigned nextVarId_ = 1;
  // Call edges gathered during checking, for recursion detection.
  std::map<std::string, std::vector<std::string>> callEdges_;
};

// Compute the feature set of a checked program.
FeatureSet analyzeFeatures(const ast::Program &program);

// Lex + parse + sema in one call.  Returns nullptr on error.  Entering the
// frontend.parse and frontend.sema stages checks `budget`'s deadline; a
// trip there throws guard::Trip for the caller's stage boundary to catch.
std::unique_ptr<ast::Program> frontend(const std::string &source,
                                       TypeContext &types,
                                       DiagnosticEngine &diags,
                                       guard::ExecBudget *budget = nullptr);

// frontend() for callers that report a failure as text: a compile error
// leaves the diagnostics in `error` without the last one's newline (notes
// and verdict lines embed it), and a guard trip leaves the trip's verdict
// line there and the verdict in `verdict`.  Returns nullptr on either.
std::unique_ptr<ast::Program> frontendOrError(const std::string &source,
                                              TypeContext &types,
                                              std::string &error,
                                              guard::Verdict &verdict);

} // namespace c2h

#endif // C2H_FRONTEND_SEMA_H
