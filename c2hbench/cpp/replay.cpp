#include "replay.h"
#include "oracle.h"

#include "analysis/analyzer.h"
#include "analysis/lints.h"
#include "analysis/range.h"
#include "ir/lower.h"
#include "opt/astclone.h"
#include "opt/ifconvert.h"
#include "opt/inline.h"
#include "opt/irpasses.h"
#include "opt/stackify.h"
#include "opt/unroll.h"
#include "rtl/verilog.h"
#include "vsim/compile.h"
#include "vsim/cosim.h"
#include "vsim/elab.h"
#include "vsim/jit.h"
#include "vsim/parser.h"

#include <set>

namespace c2hbench {

using namespace c2h;

std::shared_ptr<core::FrontendCache::Entry>
replayFrontend(Tracer &tracer, std::uint64_t job, const std::string &source,
               const std::string &top) {
  Tracer::Scope cacheSpan(tracer, "core.frontend_cache", job);
  auto entry = std::make_shared<core::FrontendCache::Entry>();
  entry->source = source;
  entry->top = top;
  DiagnosticEngine diags;
  {
    Tracer::Scope span(tracer, "frontend", job);
    entry->program = frontend(source, entry->types, diags);
  }
  if (!entry->program) {
    entry->error = diags.str();
    return entry;
  }
  Tracer::Scope span(tracer, "analysis.program", job);
  analysis::AnalyzeOptions opts;
  opts.top = top;
  std::unique_ptr<ir::Module> module;
  DiagnosticEngine lowerDiags;
  std::unique_ptr<ast::Program> clone = opt::cloneProgram(*entry->program);
  opt::inlineFunctions(*clone, entry->types, lowerDiags);
  if (!lowerDiags.hasErrors()) {
    opt::removeUnusedFunctions(*clone, top);
    module = ir::lowerToIR(*clone, lowerDiags);
    if (lowerDiags.hasErrors())
      module.reset();
  }
  entry->analysis = std::make_shared<const analysis::Report>(
      analysis::analyzeProgram(*entry->program, module.get(), opts));
  return entry;
}

flows::FlowResult replayFlow(Tracer &tracer, std::uint64_t job,
                             const flows::FlowSpec &spec,
                             ast::Program &program, TypeContext &types,
                             const std::string &top, FlowCounts &counts,
                             const flows::FlowTuning &tuning) {
  using flows::FlowResult;
  FlowResult result;
  DiagnosticEngine diags;
  guard::ExecBudget localMeter(tuning.budget);
  guard::ExecBudget *meter = tuning.meter ? tuning.meter : &localMeter;

  FeatureSet features;
  {
    Tracer::Scope span(tracer, "analysis.features", job);
    features = analyzeFeatures(program);
  }
  for (const auto &[feature, why] : spec.rejects) {
    if (!features.has(feature))
      continue;
    const std::vector<SourceLoc> &sites = features.sites(feature);
    constexpr std::size_t kMaxSites = 4;
    std::string where;
    for (std::size_t i = 0; i < sites.size() && i < kMaxSites; ++i)
      where += (i ? ", " : "") + sites[i].str();
    if (sites.size() > kMaxSites)
      where += " and " + std::to_string(sites.size() - kMaxSites) + " more";
    result.rejections.push_back(std::string(spec.info.displayName) +
                                " rejects " + featureName(feature) + " (" +
                                why + "; used at " + where + ")");
  }
  if (!result.rejections.empty())
    return result;

  analysis::Report preflight;
  {
    Tracer::Scope span(tracer, "analysis.preflight", job);
    preflight = analysis::preflightFlow(program, top, false);
  }
  if (preflight.hasErrors()) {
    for (const auto &d : preflight.diagnostics())
      result.rejections.push_back(std::string(spec.info.displayName) +
                                  " rejects the program: " + d.oneLine());
    result.analysisFindings = std::move(preflight);
    return result;
  }
  result.accepted = true;

  try {
    meter->checkDeadline("flow.inline");
    {
      Tracer::Scope span(tracer, "opt.inline", job);
      opt::inlineFunctions(program, types, diags);
    }
    if (diags.hasErrors()) {
      result.error = "inliner: " + diags.str();
      return result;
    }
    opt::removeUnusedFunctions(program, top);
    if (!program.findFunction(top)) {
      result.error = "no function named '" + top + "'";
      return result;
    }

    {
      Tracer::Scope span(tracer, "opt.unroll", job);
      opt::UnrollOptions unrollOptions;
      unrollOptions.unrollAll = spec.unrollAllLoops;
      unrollOptions.budget = meter;
      opt::unrollLoops(program, diags, unrollOptions);
    }
    if (diags.hasErrors()) {
      result.error = "unroller: " + diags.str();
      return result;
    }

    if (spec.unrollAllLoops || spec.requireCombinational) {
      Tracer::Scope span(tracer, "analysis.loops", job);
      analysis::Report loops =
          analysis::lintUnboundedLoops(program, analysis::Severity::Error);
      if (loops.hasErrors()) {
        loops.sort();
        result.error = spec.info.displayName + ": " +
                       loops.diagnostics().front().oneLine();
        result.analysisFindings = std::move(loops);
        return result;
      }
    }

    meter->checkDeadline("flow.lower");
    std::unique_ptr<ir::Module> module;
    {
      Tracer::Scope span(tracer, "ir.lower", job);
      ir::LowerOptions lowerOptions;
      lowerOptions.forceUnifiedMemory = spec.forceUnifiedMemory;
      module = ir::lowerToIR(program, diags, lowerOptions);
    }
    if (!module) {
      result.error = "lowering: " + diags.str();
      return result;
    }
    counts.irInstrs += opt::instructionCount(*module);
    for (const auto &fn : module->functions())
      counts.irBlocks += fn->blocks().size();

    {
      analysis::Report ranges;
      {
        Tracer::Scope span(tracer, "analysis.range_check", job);
        ranges = analysis::checkRanges(*module);
      }
      if (ranges.hasErrors()) {
        result.accepted = false;
        analysis::Report errors;
        for (const auto &d : ranges.diagnostics())
          if (d.severity == analysis::Severity::Error) {
            result.rejections.push_back(std::string(spec.info.displayName) +
                                        " rejects the program: " +
                                        d.oneLine());
            errors.add(d);
          }
        errors.sort();
        result.analysisFindings = std::move(errors);
        return result;
      }
    }

    auto optimize = [&] {
      Tracer::Scope span(tracer, "opt.optimize", job);
      opt::optimizeModule(*module);
    };
    if (spec.optimizeIr) {
      optimize();
      bool pruned;
      {
        Tracer::Scope span(tracer, "analysis.range_prune", job);
        pruned = analysis::pruneDeadBranches(*module);
      }
      if (pruned)
        optimize();
    }
    if (spec.stackifyRecursion) {
      bool changed;
      {
        Tracer::Scope span(tracer, "opt.stackify", job);
        changed = opt::stackifyRecursion(*module);
      }
      if (changed)
        optimize();
    }
    if (spec.ifConvertBranches) {
      {
        Tracer::Scope span(tracer, "opt.ifconvert", job);
        opt::ifConvert(*module);
      }
      optimize();
    }
    result.module = std::shared_ptr<ir::Module>(std::move(module));
    counts.instrsAfter += opt::instructionCount(*result.module);

    if (spec.requireCombinational) {
      for (const auto &fn : result.module->functions()) {
        if (fn->blocks().size() > 1) {
          result.error = spec.info.displayName +
                         ": program does not flatten to combinational logic "
                         "(control flow remains in '" +
                         fn->name() + "')";
          return result;
        }
      }
    }

    sched::TechLibrary lib;
    if (spec.asyncDataflow) {
      Tracer::Scope span(tracer, "async.build", job);
      result.asyncInfo = async::buildCircuitInfo(
          *result.module, *result.module->findFunction(top), lib);
      result.ok = true;
      return result;
    }

    meter->checkDeadline("flow.schedule");
    sched::SchedOptions options = spec.sched;
    if (spec.tunable) {
      if (tuning.clockNs)
        options.clockNs = *tuning.clockNs;
      if (tuning.resources)
        options.resources = *tuning.resources;
    }
    std::optional<rtl::Design> design;
    {
      Tracer::Scope span(tracer, "rtl.build_design", job);
      design.emplace(rtl::buildDesign(*result.module, top, lib, options));
    }
    design->ownedModule = result.module;
    result.violations = design->violations;
    {
      Tracer::Scope span(tracer, "rtl.report", job);
      result.area = rtl::estimateArea(*design, lib);
      result.timing = rtl::estimateTiming(*design, lib);
    }
    result.design = std::move(design);
    result.ok = true;
    return result;
  } catch (const guard::BudgetExceeded &e) {
    result.ok = false;
    result.verdict = e.verdict;
    result.error = e.verdict.str();
    return result;
  } catch (const guard::InjectedFault &e) {
    result.ok = false;
    result.verdict = e.verdict;
    result.error = e.verdict.str();
    return result;
  }
}

bool globalMatches(const ast::Program &golden, const std::string &name,
                   const std::vector<BitVector> &expect,
                   const std::vector<BitVector> &got) {
  if (expect.size() != got.size())
    return false;
  const ast::VarDecl *decl = golden.findGlobal(name);
  const Type *leaf = decl ? decl->type : nullptr;
  while (leaf && leaf->isArray())
    leaf = leaf->element();
  bool isSigned = leaf && leaf->isScalar() && leaf->isSigned();
  for (std::size_t i = 0; i < expect.size(); ++i)
    if (!(expect[i] == got[i].resize(expect[i].width(), isSigned)))
      return false;
  return true;
}

void probeVsimSplit(Tracer &tracer, std::uint64_t job,
                    const rtl::Design &design, CosimCounts &counts) {
  Tracer::Scope probe(tracer, "vsim.split", job, true);
  std::string verilog;
  {
    Tracer::Scope span(tracer, "rtl.verilog_emit", job);
    verilog = rtl::emitVerilog(design);
  }
  counts.verilogBytes += verilog.size();
  std::shared_ptr<vsim::SourceUnit> unit;
  {
    Tracer::Scope span(tracer, "vsim.parse", job);
    vsim::ParseDiagnostic diag;
    unit = vsim::parseVerilog(verilog, diag);
  }
  if (!unit)
    return;
  std::shared_ptr<vsim::Model> model;
  {
    Tracer::Scope span(tracer, "vsim.elab", job);
    std::string error;
    model = vsim::elaborate(std::move(unit),
                            "c2h_" + rtl::verilogIdent(design.top), error);
  }
  if (!model)
    return;
  Tracer::Scope span(tracer, "vsim.compile", job);
  std::string whyNot;
  vsim::compileModel(model, whyNot);
}

void probeNative(Tracer &tracer, const std::vector<core::Workload> &workloads,
                 std::map<std::string, double> &values, Result &result,
                 std::size_t maxDesigns) {
  struct Target {
    std::string name;
    // Own what `flow` points into: the front end's types and the AST.
    std::shared_ptr<core::FrontendCache::Entry> entry;
    std::unique_ptr<ast::Program> program;
    flows::FlowResult flow;
    std::vector<BitVector> args;
    vsim::CosimResult expect; // the bytecode engine's run
  };
  std::vector<Target> targets;
  std::set<std::uint64_t> seen; // Verilog text hashes
  for (const core::Workload &w : workloads) {
    core::FrontendCache cache;
    std::shared_ptr<core::FrontendCache::Entry> entry =
        cache.get(w.source, w.top);
    if (!entry->ok())
      continue;
    for (const auto &spec : flows::allFlows()) {
      if (targets.size() == maxDesigns)
        break;
      Target t;
      t.name = w.name + "/" + spec.info.id;
      t.entry = entry;
      t.program = entry->cloneAst();
      t.flow =
          flows::runFlowChecked(spec, *t.program, entry->types, w.top);
      if (!t.flow.accepted || !t.flow.ok || !t.flow.design ||
          t.flow.asyncInfo ||
          !seen.insert(fnv1a(rtl::emitVerilog(*t.flow.design))).second)
        continue;
      t.args = core::argBits(*entry->program, w.top, w.args);
      vsim::Cosimulation reference(*t.flow.design);
      if (!reference.valid())
        continue;
      t.expect = reference.run(t.args);
      if (t.expect.ok)
        targets.push_back(std::move(t));
    }
  }

  vsim::CosimOptions native;
  native.engine = vsim::SimEngine::Native;
  // Runs `t` on the native tier; false when it fell back to another engine.
  auto run = [&](const Target &t, vsim::Cosimulation &cosim,
                 const char *span) {
    vsim::CosimResult r;
    {
      Tracer::Scope s(tracer, span, 0);
      r = cosim.run(t.args, native);
    }
    if (cosim.engineUsed() != vsim::SimEngine::Native)
      return false;
    if (!r.ok || r.cycles != t.expect.cycles ||
        !(r.returnValue == t.expect.returnValue))
      result.fail(t.name + ": native tier disagrees with the bytecode engine");
    return true;
  };
  std::set<const Target *> built;
  std::string whyNot;
  {
    Tracer::Scope probe(tracer, "vsim.native", 0, true);
    for (const Target &t : targets) {
      vsim::Cosimulation cosim(*t.flow.design);
      if (!cosim.valid() || !run(t, cosim, "vsim.native_build")) {
        if (whyNot.empty())
          whyNot = cosim.valid() ? cosim.nativeNote() : cosim.error();
        continue;
      }
      built.insert(&t);
      run(t, cosim, "vsim.native_run");
    }
    vsim::clearNativeCache();
    for (const Target &t : targets)
      if (built.count(&t)) {
        vsim::Cosimulation cosim(*t.flow.design);
        run(t, cosim, "vsim.native_load");
      }
  }
  if (built.empty()) {
    result.fail("native tier built no design: " + whyNot);
    return;
  }
  std::map<std::string, Tracer::LayerStat> layers = tracer.layers();
  for (const char *span :
       {"vsim.native_build", "vsim.native_run", "vsim.native_load"})
    values[std::string(span) + "_ms"] =
        layers[span].totalMs / double(layers[span].calls);
}

core::CosimVerification replayCosim(Tracer &tracer, std::uint64_t job,
                                    const core::Workload &workload,
                                    const flows::FlowResult &result,
                                    const ast::Program &golden,
                                    CosimCounts &counts) {
  core::CosimVerification c;
  if (!result.accepted || !result.ok || result.asyncInfo || !result.design) {
    c.detail = "flow produced no synchronous design";
    return c;
  }
  Tracer::Scope cosimSpan(tracer, "core.cosim", job);
  c.ran = true;
  std::vector<BitVector> args =
      core::argBits(golden, workload.top, workload.args);
  Interpreter interp(golden);
  InterpResult expect;
  {
    Tracer::Scope span(tracer, "interp", job);
    expect = interp.call(workload.top, args);
  }
  if (!expect.ok) {
    c.detail = "interpreter: " + expect.error;
    return c;
  }
  rtl::Simulator sim(*result.design);
  rtl::SimResult fsmd;
  {
    Tracer::Scope span(tracer, "rtl.sim", job);
    fsmd = sim.run(args);
  }
  if (!fsmd.ok) {
    c.detail = "rtl simulation: " + fsmd.error;
    return c;
  }
  counts.fsmdCycles += fsmd.cycles;

  std::optional<vsim::Cosimulation> cosim;
  {
    Tracer::Scope span(tracer, "vsim.build", job);
    cosim.emplace(*result.design);
  }
  if (!cosim->valid()) {
    c.detail = cosim->error();
    return c;
  }
  vsim::CosimResult r;
  {
    Tracer::Scope span(tracer, "vsim.first_run", job);
    r = cosim->run(args);
  }
  {
    Tracer::Scope span(tracer, "vsim.rerun", job, true);
    cosim->run(args);
  }
  probeVsimSplit(tracer, job, *result.design, counts);
  c.cycles = r.cycles;
  c.engine = cosim->engineUsed() == vsim::SimEngine::Event ? "event"
                                                           : "compiled";
  c.fallback = cosim->compileNote();
  if (!c.fallback.empty())
    ++counts.fallbacks;
  if (!r.ok) {
    c.detail = r.error;
    return c;
  }
  counts.vsimCycles += r.cycles;

  const ast::FuncDecl *fn = golden.findFunction(workload.top);
  bool hasReturn = fn && !fn->returnType->isVoid();
  unsigned retWidth = hasReturn ? fn->returnType->bitWidth() : 1;
  if (hasReturn && !(r.returnValue.resize(retWidth, false) ==
                     expect.returnValue.resize(retWidth, false))) {
    c.detail = "vsim return value mismatch";
    return c;
  }
  if (r.cycles != fsmd.cycles) {
    c.detail = "cycle count mismatch: fsmd " + std::to_string(fsmd.cycles) +
               " vs vsim " + std::to_string(r.cycles);
    return c;
  }
  for (const auto &name : workload.checkGlobals)
    if (!globalMatches(golden, name, interp.readGlobal(name),
                       cosim->readGlobal(name))) {
      c.detail = "global '" + name + "' mismatch under vsim";
      return c;
    }
  c.ok = true;
  return c;
}

CellPrint fingerprint(const flows::FlowResult &r, std::uint64_t cycles) {
  CellPrint p;
  p.accepted = r.accepted;
  p.ok = r.ok;
  p.cycles = cycles;
  if (r.module)
    p.instrs = opt::instructionCount(*r.module);
  if (r.asyncInfo)
    p.area = r.asyncInfo->area;
  else if (r.ok)
    p.area = r.area.total();
  if (r.design)
    p.verilogHash = fnv1a(rtl::emitVerilog(*r.design));
  return p;
}

std::vector<CellPrint> libraryPrints(const core::Workload &w) {
  core::FrontendCache cache;
  std::shared_ptr<core::FrontendCache::Entry> entry =
      cache.get(w.source, w.top);
  std::vector<CellPrint> prints;
  if (!entry->ok())
    return prints;
  for (const auto &spec : flows::allFlows()) {
    guard::ExecBudget meter;
    flows::FlowTuning tuning;
    tuning.meter = &meter;
    std::unique_ptr<ast::Program> program = entry->cloneAst();
    flows::FlowResult fr =
        flows::runFlowChecked(spec, *program, entry->types, w.top, tuning);
    core::Verification v;
    if (fr.accepted && fr.ok)
      v = core::verifyAgainstGoldenModel(w, fr, *entry->program, &meter);
    prints.push_back(fingerprint(fr, v.cycles));
  }
  return prints;
}

std::string replayJob(Tracer &tracer, std::uint64_t job,
                      const core::Workload &w, FlowCounts &flowCounts,
                      CosimCounts &cosimCounts,
                      std::vector<CellPrint> &prints) {
  std::shared_ptr<core::FrontendCache::Entry> entry =
      replayFrontend(tracer, job, w.source, w.top);
  if (!entry->ok())
    return "frontend: " + entry->error;
  std::string why;
  for (const auto &spec : flows::allFlows()) {
    Tracer::Scope cell(tracer, "cell", job);
    guard::ExecBudget meter;
    flows::FlowTuning tuning;
    tuning.meter = &meter;
    std::unique_ptr<ast::Program> program;
    {
      Tracer::Scope span(tracer, "core.clone", job);
      program = entry->cloneAst();
    }
    flows::FlowResult fr;
    {
      Tracer::Scope span(tracer, "flow", job);
      fr = replayFlow(tracer, job, spec, *program, entry->types, w.top,
                      flowCounts, tuning);
    }
    core::Verification v;
    if (fr.accepted && fr.ok) {
      {
        Tracer::Scope span(tracer, "core.golden", job);
        v = core::verifyAgainstGoldenModel(w, fr, *entry->program, &meter);
      }
      if (!v.ok && why.empty())
        why = spec.info.id + ": replayed golden check failed: " + v.detail;
      if (v.ok && fr.design && !fr.asyncInfo) {
        core::CosimVerification cv =
            replayCosim(tracer, job, w, fr, *entry->program, cosimCounts);
        if (!cv.ok && why.empty())
          why = spec.info.id + ": replayed cosim failed: " + cv.detail;
      }
    }
    prints.push_back(fingerprint(fr, v.cycles));
  }
  return why;
}

} // namespace c2hbench
