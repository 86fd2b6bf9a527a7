#include "analysis/lints.h"

#include "analysis/astwalk.h"
#include "ir/dataflow.h"
#include "opt/astconst.h"
#include "opt/unroll.h"

#include <optional>
#include <set>
#include <vector>

namespace c2h::analysis {

using namespace ast;

// ---------------------------------------------------------------------------
// C2H-LOOP-001
// ---------------------------------------------------------------------------

Report lintUnboundedLoops(const Program &program, Severity severity) {
  Report report;
  auto flag = [&](SourceLoc loc, const std::string &what) {
    Diagnostic d;
    d.severity = severity;
    d.code = "C2H-LOOP-001";
    d.message = what + " has no statically determinable bound";
    d.spans.push_back({loc, "loop here"});
    d.hint = "full-unroll flows need canonical for-loops with constant "
             "bounds (for (i = C; i < C; i = i + C))";
    report.add(std::move(d));
  };
  forEachStmt(program, [&](const Stmt &s) {
    switch (s.kind) {
    case Stmt::Kind::While: {
      const auto &w = static_cast<const WhileStmt &>(s);
      // `while (0)` never runs — statically bounded.
      auto c = opt::tryEvalConst(*w.cond);
      if (!(c && c->isZero()))
        flag(s.loc, "while loop");
      break;
    }
    case Stmt::Kind::DoWhile:
      flag(s.loc, "do-while loop");
      break;
    case Stmt::Kind::For:
      if (!opt::staticTripCount(static_cast<const ForStmt &>(s)))
        flag(s.loc, "for loop");
      break;
    default:
      break;
    }
  });
  return report;
}

// ---------------------------------------------------------------------------
// C2H-WIDTH-001
// ---------------------------------------------------------------------------

namespace {

bool constantFits(const Expr &operand, unsigned dstWidth, bool dstSigned) {
  auto value = opt::tryEvalConst(operand);
  if (!value || dstWidth >= value->width())
    return false;
  BitVector narrowed = value->trunc(dstWidth);
  BitVector back = dstSigned ? narrowed.sext(value->width())
                             : narrowed.zext(value->width());
  return back == *value;
}

} // namespace

Report lintWidthTruncation(const Program &program) {
  Report report;
  forEachExpr(program, [&](const Expr &e) {
    if (e.kind != Expr::Kind::Cast)
      return;
    const auto &cast = static_cast<const CastExpr &>(e);
    if (!cast.isImplicit || !cast.type || !cast.type->isInt())
      return;
    const Type *src = cast.operand->type;
    if (!src || !src->isInt() || src->bitWidth() <= cast.type->bitWidth())
      return;
    if (constantFits(*cast.operand, cast.type->bitWidth(),
                     cast.type->isSigned()))
      return;
    Diagnostic d;
    d.severity = Severity::Warning;
    d.code = "C2H-WIDTH-001";
    d.message = "implicit truncation from " + src->str() + " to " +
                cast.type->str() + " may discard significant bits";
    d.spans.push_back({cast.loc, "narrowed here"});
    d.hint = "widen the target or make the truncation explicit with a cast";
    report.add(std::move(d));
  });
  return report;
}

// ---------------------------------------------------------------------------
// C2H-UNINIT-001
// ---------------------------------------------------------------------------

namespace {

void lintFunctionUninit(const ir::Function &fn, Report &report) {
  const unsigned regs = fn.vregCount();
  if (regs == 0 || fn.blocks().empty())
    return;

  // Must-initialized forward dataflow: the join is intersection, and a
  // block's state starts at the first one an edge delivers (all-initialized
  // top until then), so unreachable blocks never get a state.
  using State = std::vector<bool>;
  State entryIn(regs, false);
  for (ir::VReg param : fn.params())
    if (param.id < regs)
      entryIn[param.id] = true;
  auto transfer = [&](const ir::BasicBlock &block, State state) {
    for (const auto &instr : block.instrs())
      if (instr->dst && instr->dst->id < regs)
        state[instr->dst->id] = true;
    return std::vector<std::optional<State>>(block.successors().size(),
                                             std::move(state));
  };
  auto join = [&](State &into, const State &from, bool /*widen*/) {
    bool changed = false;
    for (unsigned r = 0; r < regs; ++r)
      if (into[r] && !from[r]) {
        into[r] = false;
        changed = true;
      }
    return changed;
  };
  const auto inState =
      ir::solveForwardDataflow(fn, std::move(entryIn), transfer, join).in;

  // Final pass: report uses not covered by the converged state.  Dedup on
  // (vreg, location) so loops report once.
  std::set<std::pair<unsigned, std::pair<unsigned, unsigned>>> seen;
  Report local;
  for (ir::BasicBlock *block : fn.reversePostOrder()) {
    auto it = inState.find(block);
    if (it == inState.end())
      continue;
    State state = it->second;
    for (const auto &instr : block->instrs()) {
      for (const auto &operand : instr->operands) {
        if (operand.isReg() && operand.reg().id < regs &&
            !state[operand.reg().id]) {
          if (seen.insert({operand.reg().id,
                           {instr->loc.line, instr->loc.column}})
                  .second) {
            Diagnostic d;
            d.severity = Severity::Warning;
            d.code = "C2H-UNINIT-001";
            d.message = "value in function '" + fn.name() +
                        "' may be read before it is written";
            d.spans.push_back({instr->loc, "read here"});
            d.hint =
                "initialize the variable on every path before this use";
            local.add(std::move(d));
          }
          state[operand.reg().id] = true;
        }
      }
      if (instr->dst && instr->dst->id < regs)
        state[instr->dst->id] = true;
    }
  }
  report.append(local);
}

} // namespace

Report lintUninitReads(const ir::Module &module) {
  Report report;
  for (const auto &fn : module.functions())
    lintFunctionUninit(*fn, report);
  return report;
}

} // namespace c2h::analysis
