#include "core/c2h.h"

#include "core/engine.h"
#include "vsim/cosim.h"

namespace c2h::core {

namespace {

// The scalar type at the bottom of a (possibly nested) array type.
const Type *scalarLeaf(const Type *type) {
  while (type && type->isArray())
    type = type->element();
  return type && type->isScalar() ? type : nullptr;
}

// The golden program for the overloads that take only the workload: a
// front-end error or trip becomes `detail` and `verdict`, never an
// exception.
std::unique_ptr<ast::Program> goldenProgram(const Workload &workload,
                                            TypeContext &types,
                                            std::string &detail,
                                            guard::Verdict &verdict) {
  auto program = frontendOrError(workload.source, types, detail, verdict);
  if (!program)
    detail = "frontend: " + detail;
  return program;
}

// A witness's return value against the interpreter's, at the declared
// width; "" when they agree.
std::string returnMismatch(const ast::Program &program, const std::string &top,
                           const BitVector &golden, const BitVector &returned,
                           const char *witness) {
  const ast::FuncDecl *fn = program.findFunction(top);
  if (!fn || fn->returnType->isVoid())
    return {};
  unsigned width = fn->returnType->bitWidth();
  if (returned.resize(width, false) == golden.resize(width, false))
    return {};
  return "return value mismatch: golden " + golden.toStringHex() + " vs " +
         witness + " " + returned.toStringHex();
}

// A simulator's checked globals against the interpreter's, bit-for-bit;
// "" when they agree.  Narrower simulator storage is extended by the
// global's *declared* signedness: a negative int<N> value whose storage is
// narrower than N must be sign-extended, not zero-extended.
template <class Sim>
std::string globalMismatch(const Workload &workload,
                           const ast::Program &program,
                           const Interpreter &interp, const Sim &sim,
                           const char *witness) {
  for (const auto &name : workload.checkGlobals) {
    std::vector<BitVector> gi = interp.readGlobal(name);
    std::vector<BitVector> gw = sim.readGlobal(name);
    if (gi.size() != gw.size())
      return "global '" + name + "' size mismatch under " + witness;
    const ast::VarDecl *decl = program.findGlobal(name);
    const Type *leaf = decl ? scalarLeaf(decl->type) : nullptr;
    bool isSigned = leaf && leaf->isSigned();
    for (std::size_t i = 0; i < gi.size(); ++i)
      if (!(gi[i] == gw[i].resize(gi[i].width(), isSigned)))
        return "global '" + name + "[" + std::to_string(i) +
               "]' mismatch: golden " + gi[i].toStringHex() + " vs " +
               witness + " " + gw[i].toStringHex();
  }
  return {};
}

} // namespace

std::vector<BitVector> argBits(const ast::Program &program,
                               const std::string &fn,
                               const std::vector<std::int64_t> &args) {
  std::vector<BitVector> out;
  const ast::FuncDecl *decl = program.findFunction(fn);
  for (std::size_t i = 0; i < args.size(); ++i) {
    unsigned width = 32;
    if (decl && i < decl->params.size() && decl->params[i]->type->isScalar())
      width = decl->params[i]->type->bitWidth();
    out.push_back(BitVector::fromInt(width, args[i]));
  }
  return out;
}

Verification runGoldenModel(const Workload &workload) {
  Verification v;
  TypeContext types;
  auto program = goldenProgram(workload, types, v.detail, v.verdict);
  if (!program)
    return v;
  Interpreter interp(*program);
  auto r = interp.call(workload.top,
                       argBits(*program, workload.top, workload.args));
  if (!r.ok) {
    v.detail = "interpreter: " + r.error;
    return v;
  }
  v.ok = true;
  v.returnValue = r.returnValue;
  return v;
}

DesignCheck checkDesign(const Workload &workload,
                        const flows::FlowResult &result,
                        const ast::Program &goldenProgram,
                        guard::ExecBudget *budget,
                        std::optional<vsim::SimEngine> cosimEngine,
                        vsim::ModelCache *modelCache, bool sandboxNative) {
  DesignCheck check;
  Verification &v = check.golden;
  CosimVerification &c = check.cosim;
  if (!result.accepted || !result.ok) {
    v.detail = !result.accepted ? "flow rejected the program"
                                : "flow failed: " + result.error;
    v.verdict = result.verdict;
    c.detail = "flow produced no design";
    return check;
  }
  if (result.asyncInfo)
    c.detail = "asynchronous design (no synchronous RTL to co-simulate)";
  else if (!result.design)
    c.detail = "flow produced no design";
  else
    c.ran = cosimEngine.has_value();
  // A golden-pair failure is the vsim witness's failure too: it has
  // nothing to be compared against.
  auto fail = [&](std::string detail, const guard::Verdict &verdict) {
    v.detail = std::move(detail);
    v.verdict = verdict;
    if (c.ran) {
      c.detail = v.detail;
      c.verdict = v.verdict;
    }
    return check;
  };

  // Witness 1: the reference interpreter.  InterpOptions' default step
  // budget is the real guard here: a non-terminating workload surfaces as
  // a structured StepLimit verdict instead of hanging verification.
  std::vector<BitVector> args =
      argBits(goldenProgram, workload.top, workload.args);
  InterpOptions iopts;
  iopts.budget = budget;
  Interpreter interp(goldenProgram, iopts);
  auto golden = interp.call(workload.top, args);
  if (!golden.ok)
    return fail("interpreter: " + golden.error, golden.verdict);

  // Witness 2, asynchronous (CASH) designs: event-driven dataflow timing
  // simulation, checked on the return value only.
  if (result.asyncInfo) {
    sched::TechLibrary lib;
    auto r = async::simulateAsync(*result.module, workload.top, args, lib);
    if (!r.ok)
      return fail("async simulation: " + r.error, {});
    std::string why = returnMismatch(goldenProgram, workload.top,
                                     golden.returnValue, r.returnValue,
                                     "async");
    if (!why.empty())
      return fail(why, {});
    v.ok = true;
    v.asyncNs = r.timeNs;
    v.returnValue = golden.returnValue;
    return check;
  }

  // Witness 2, synchronous designs: the cycle-accurate FSMD simulator,
  // whose cycle count the experiments quote.
  if (!result.design)
    return fail("flow produced no design", {});
  rtl::SimOptions sopts;
  sopts.budget = budget;
  rtl::Simulator sim(*result.design, sopts);
  auto fsmd = sim.run(args);
  if (!fsmd.ok)
    return fail("rtl simulation: " + fsmd.error, fsmd.verdict);
  std::string why = returnMismatch(goldenProgram, workload.top,
                                   golden.returnValue, fsmd.returnValue, "rtl");
  if (why.empty())
    why = globalMismatch(workload, goldenProgram, interp, sim, "rtl");
  if (!why.empty())
    return fail(why, {});
  v.ok = true;
  v.cycles = fsmd.cycles;
  v.returnValue = golden.returnValue;
  if (!c.ran)
    return check;

  // Witness 3: the emitted Verilog text, re-executed by vsim on the same
  // meter.  It must match the interpreter's outputs and the FSMD
  // simulator's exact cycle count.
  vsim::Cosimulation vsimRun(*result.design, modelCache);
  if (!vsimRun.valid()) {
    c.detail = vsimRun.error();
    c.verdict = vsimRun.verdict();
    return check;
  }
  vsim::CosimOptions copts;
  copts.engine = *cosimEngine;
  copts.budget = budget;
  copts.sandbox = sandboxNative;
  vsim::CosimResult r = vsimRun.run(args, copts);
  c.cycles = r.cycles;
  c.degradation = r.degradation;
  c.engine = vsim::simEngineName(vsimRun.engineUsed());
  c.fallback = !vsimRun.compileNote().empty() ? vsimRun.compileNote()
                                              : vsimRun.nativeNote();
  if (!r.ok) {
    c.detail = r.error;
    c.verdict = r.verdict;
    return check;
  }
  c.detail = returnMismatch(goldenProgram, workload.top, golden.returnValue,
                            r.returnValue, "vsim");
  if (c.detail.empty())
    c.detail = globalMismatch(workload, goldenProgram, interp, vsimRun, "vsim");
  if (c.detail.empty() && r.cycles != fsmd.cycles)
    c.detail = "cycle count mismatch: fsmd " + std::to_string(fsmd.cycles) +
               " vs vsim " + std::to_string(r.cycles);
  c.ok = c.detail.empty();
  return check;
}

Verification verifyAgainstGoldenModel(const Workload &workload,
                                      const flows::FlowResult &result,
                                      guard::ExecBudget *budget) {
  TypeContext types;
  Verification v;
  auto program = goldenProgram(workload, types, v.detail, v.verdict);
  return program ? verifyAgainstGoldenModel(workload, result, *program, budget)
                 : v;
}

Verification verifyAgainstGoldenModel(const Workload &workload,
                                      const flows::FlowResult &result,
                                      const ast::Program &goldenProgram,
                                      guard::ExecBudget *budget) {
  return checkDesign(workload, result, goldenProgram, budget).golden;
}

CosimVerification cosimAgainstGoldenModel(const Workload &workload,
                                          const flows::FlowResult &result,
                                          vsim::SimEngine engine,
                                          guard::ExecBudget *budget,
                                          vsim::ModelCache *modelCache,
                                          bool sandboxNative) {
  TypeContext types;
  CosimVerification c;
  auto program = goldenProgram(workload, types, c.detail, c.verdict);
  return program ? cosimAgainstGoldenModel(workload, result, *program, engine,
                                           budget, modelCache, sandboxNative)
                 : c;
}

CosimVerification cosimAgainstGoldenModel(const Workload &workload,
                                          const flows::FlowResult &result,
                                          const ast::Program &goldenProgram,
                                          vsim::SimEngine engine,
                                          guard::ExecBudget *budget,
                                          vsim::ModelCache *modelCache,
                                          bool sandboxNative) {
  return checkDesign(workload, result, goldenProgram, budget, engine,
                     modelCache, sandboxNative)
      .cosim;
}

std::vector<FlowComparison> compareFlows(const Workload &workload,
                                         const flows::FlowTuning &tuning) {
  // One process-wide engine so repeated comparisons (benchmark loops, the
  // survey) share the front-end cache.  CompareEngine is thread-safe.
  static CompareEngine engine;
  return engine.compareFlows(workload, tuning);
}

} // namespace c2h::core
