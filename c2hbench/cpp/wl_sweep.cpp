// stimulus-sweep: set-up synthesises every synchronous design of the
// registry kernels that take arguments; each job is one seeded stimulus on
// one design, checked on the interpreter, rtl::Simulator and vsim for exact
// value and cycle agreement.  One Cosimulation per design is reused across
// stimuli, as test_fuzz does.  Worker w owns the designs d with
// d % threads == w, so no design is simulated from two threads.
#include "bench.h"
#include "replay.h"
#include "trace.h"

#include "core/engine.h"
#include "vsim/cosim.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

namespace c2hbench {

using namespace c2h;

namespace {

const char *const kKernels[] = {"gcd",     "collatz", "fib",
                                "sqrtint", "pacer",   "crc8small"};

std::vector<std::int64_t> stimulus(const std::string &kernel, Rng &rng) {
  if (kernel == "gcd")
    return {rng.range(1, 5000), rng.range(1, 5000)};
  if (kernel == "collatz")
    return {rng.range(1, 5000)};
  if (kernel == "fib")
    return {rng.range(0, 12)};
  if (kernel == "sqrtint")
    return {rng.range(0, 1 << 30)};
  if (kernel == "pacer")
    return {rng.range(0, 1 << 20)};
  return {rng.range(0, 255)}; // crc8small
}

struct Kernel {
  const core::Workload *workload = nullptr;
  std::shared_ptr<core::FrontendCache::Entry> entry; // golden AST + types
};

struct Design {
  std::size_t kernel = 0;
  std::string flow;
  flows::FlowResult result;
  std::unique_ptr<vsim::Cosimulation> cosim;
  bool ran = false; // the cosim has run once (compiled its model)
};

struct Bench {
  std::vector<std::unique_ptr<Kernel>> kernels;
  std::vector<std::unique_ptr<Design>> designs;
};

// Synthesise every accepted synchronous design.  With a tracer, the
// pipeline is the stage replay (and the vsim split is probed); without, the
// library's runFlowChecked.
std::unique_ptr<Bench> synthesize(Tracer *tracer, FlowCounts &flowCounts,
                                  CosimCounts &cosimCounts,
                                  std::vector<CellPrint> *prints,
                                  std::string &error) {
  auto bench = std::make_unique<Bench>();
  for (const char *name : kKernels) {
    auto kernel = std::make_unique<Kernel>();
    kernel->workload = &core::findWorkload(name);
    const core::Workload &w = *kernel->workload;
    if (tracer) {
      kernel->entry = replayFrontend(*tracer, 0, w.source, w.top);
    } else {
      core::FrontendCache cache;
      kernel->entry = cache.get(w.source, w.top);
    }
    if (!kernel->entry->ok()) {
      error = std::string(name) + ": " + kernel->entry->error;
      return nullptr;
    }
    for (const auto &spec : flows::allFlows()) {
      auto design = std::make_unique<Design>();
      design->kernel = bench->kernels.size();
      design->flow = spec.info.id;
      std::unique_ptr<ast::Program> program = kernel->entry->cloneAst();
      if (tracer) {
        Tracer::Scope span(*tracer, "flow", 0);
        design->result =
            replayFlow(*tracer, 0, spec, *program, kernel->entry->types,
                       kernel->workload->top, flowCounts);
      } else {
        design->result = flows::runFlowChecked(spec, *program,
                                               kernel->entry->types,
                                               kernel->workload->top);
      }
      if (prints)
        prints->push_back(fingerprint(design->result, 0));
      const flows::FlowResult &r = design->result;
      if (!r.accepted || !r.ok || !r.design || r.asyncInfo)
        continue;
      {
        MaybeScope span(tracer, "vsim.build", 0);
        design->cosim = std::make_unique<vsim::Cosimulation>(*r.design);
      }
      if (tracer)
        probeVsimSplit(*tracer, 0, *r.design, cosimCounts);
      if (!design->cosim->valid()) {
        error = std::string(name) + "/" + design->flow + ": " +
                design->cosim->error();
        return nullptr;
      }
      bench->designs.push_back(std::move(design));
    }
    bench->kernels.push_back(std::move(kernel));
  }
  return bench;
}

struct JobCounts {
  std::uint64_t fsmdCycles = 0, vsimCycles = 0, fallbacks = 0;
};

// One stimulus on one design: empty when interpreter, FSMD simulator and
// vsim agree on the return value, every checked global and (FSMD vs vsim)
// the exact cycle count.
std::string runJob(Bench &bench, Design &d, const std::vector<std::int64_t> &a,
                   JobCounts &counts, Tracer *tracer, std::uint64_t job) {
  const Kernel &k = *bench.kernels[d.kernel];
  const core::Workload &w = *k.workload;
  const ast::Program &program = *k.entry->program;
  std::vector<BitVector> args = core::argBits(program, w.top, a);
  // The golden pair (interpreter and FSMD simulator), as
  // verifyAgainstGoldenModel runs it.
  std::optional<MaybeScope> goldenSpan(std::in_place, tracer, "core.golden",
                                       job);
  Interpreter interp(program);
  InterpResult expect;
  {
    MaybeScope span(tracer, "interp", job);
    expect = interp.call(w.top, args);
  }
  if (!expect.ok)
    return "interpreter: " + expect.error;
  rtl::Simulator sim(*d.result.design);
  rtl::SimResult fsmd;
  {
    MaybeScope span(tracer, "rtl.sim", job);
    fsmd = sim.run(args);
  }
  goldenSpan.reset();
  if (!fsmd.ok)
    return "rtl simulation: " + fsmd.error;
  vsim::CosimResult v;
  {
    MaybeScope span(tracer, d.ran ? "vsim.rerun" : "vsim.first_run", job);
    v = d.cosim->run(args);
  }
  if (!d.ran && !d.cosim->compileNote().empty())
    ++counts.fallbacks;
  d.ran = true;
  if (!v.ok)
    return "vsim: " + v.error;
  counts.fsmdCycles += fsmd.cycles;
  counts.vsimCycles += v.cycles;
  const ast::FuncDecl *fn = program.findFunction(w.top);
  unsigned width = fn->returnType->isVoid() ? 1 : fn->returnType->bitWidth();
  BitVector golden = expect.returnValue.resize(width, false);
  if (!(fsmd.returnValue.resize(width, false) == golden))
    return "fsmd return value differs from the interpreter";
  if (!(v.returnValue.resize(width, false) == golden))
    return "vsim return value differs from the interpreter";
  if (v.cycles != fsmd.cycles)
    return "cycle count: fsmd " + std::to_string(fsmd.cycles) + " vs vsim " +
           std::to_string(v.cycles);
  for (const auto &name : w.checkGlobals) {
    std::vector<BitVector> expect = interp.readGlobal(name);
    if (!globalMatches(program, name, expect, sim.readGlobal(name)) ||
        !globalMatches(program, name, expect, d.cosim->readGlobal(name)))
      return "global '" + name + "' mismatch";
  }
  return "";
}

std::string designName(const Bench &bench, const Design &d) {
  return bench.kernels[d.kernel]->workload->name + "/" + d.flow;
}

Result runUntraced(const Options &o) {
  // Stimuli per batch: a batch runs on one design and is timed as a whole,
  // since one stimulus takes only tens of microseconds.
  constexpr unsigned kBatch = 32;
  Result result;
  Timings t;
  std::unique_ptr<Bench> bench;
  std::string error;
  auto setUpInto = [&](std::unique_ptr<Bench> &b) {
    auto t0 = Clock::now();
    FlowCounts fc;
    CosimCounts cc;
    b.reset();
    b = synthesize(nullptr, fc, cc, nullptr, error);
    return b ? msBetween(t0, Clock::now()) / 1e3 : -1.0;
  };
  if (!repeatSetUp(t.setupS, 0, [&] { return setUpInto(bench); })) {
    result.attempted = 1;
    result.fail("set-up: " + error);
    return result;
  }

  // Worker w owns designs w, w + threads, ..., in a seeded order, and runs a
  // batch on each in turn.  The run is kWindows windows; the workers are
  // joined at the end of each, and one more set-up, into throwaway state,
  // follows it, so set-up is sampled across the whole run like the timed
  // metrics are.  Every job of a batch is charged the batch's mean latency.
  struct Worker {
    Rng rng{0};
    std::vector<Design *> mine;
    std::size_t next = 0;
    Window window; // the current window's jobs
    std::uint64_t failed = 0;
    std::vector<std::string> failures; // the first few
    JobCounts counts;
  };
  std::vector<Worker> workers(o.threads);
  for (unsigned w = 0; w < o.threads; ++w) {
    Worker &me = workers[w];
    me.rng = Rng(o.seed * 7919 + w);
    for (std::size_t d = w; d < bench->designs.size(); d += o.threads)
      me.mine.push_back(bench->designs[d].get());
    me.rng.shuffle(me.mine);
  }
  double windowMs = o.seconds * 1e3 / kWindows;
  for (int i = 0; i < kWindows; ++i) {
    auto windowStart = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (workers[w].mine.empty())
        continue;
      threads.emplace_back([&, w] {
        Worker &me = workers[w];
        do {
          Design &d = *me.mine[me.next++ % me.mine.size()];
          const std::string &kernel = bench->kernels[d.kernel]->workload->name;
          std::uint64_t before = me.counts.vsimCycles;
          auto t0 = Clock::now();
          for (unsigned s = 0; s < kBatch; ++s) {
            std::string why =
                runJob(*bench, d, stimulus(kernel, me.rng), me.counts,
                       nullptr, 0);
            if (!why.empty() && ++me.failed <= 8)
              me.failures.push_back(designName(*bench, d) + ": " + why);
          }
          float ms = float(msBetween(t0, Clock::now()) / kBatch);
          me.window.jobMs.insert(me.window.jobMs.end(), kBatch, ms);
          me.window.simCycles += me.counts.vsimCycles - before;
        } while (msBetween(windowStart, Clock::now()) < windowMs);
      });
    }
    for (auto &th : threads)
      th.join();
    Window &window = t.windows.emplace_back();
    window.seconds = msBetween(windowStart, Clock::now()) / 1e3;
    for (Worker &me : workers) {
      window.jobMs.insert(window.jobMs.end(), me.window.jobMs.begin(),
                          me.window.jobMs.end());
      window.simCycles += me.window.simCycles;
      me.window = Window{};
    }
    result.attempted += window.jobMs.size();
    std::unique_ptr<Bench> throwaway;
    double s = setUpInto(throwaway);
    if (s < 0)
      result.fail("set-up: " + error);
    else
      t.setupS.push_back(s);
  }
  for (Worker &w : workers) {
    for (const auto &why : w.failures)
      result.fail(why);
    result.failed += w.failed - w.failures.size();
  }
  endToEnd(result, t);
  return result;
}

// Serial untraced and traced passes: set-up plus a fixed number of stimuli
// per design, until --seconds is used up.
Result runTraced(const Options &o) {
  constexpr unsigned kStimuliPerDesign = 24;
  Result result;
  Tracer tracer;
  double untracedMs = 0;
  std::uint64_t tracedJobs = 0, job = 0;
  FlowCounts firstFlow;
  CosimCounts firstCosim;
  JobCounts firstJobs;
  bool firstPass = true;
  auto start = Clock::now();
  auto pass = [&](Tracer *tr, FlowCounts &fc, CosimCounts &cc,
                  JobCounts &jc, std::vector<CellPrint> &prints) {
    std::string error;
    std::unique_ptr<Bench> bench;
    {
      MaybeScope root(tr, "setup", 0);
      bench = synthesize(tr, fc, cc, &prints, error);
    }
    if (!bench) {
      result.fail("set-up: " + error);
      return;
    }
    Rng rng(o.seed);
    for (unsigned s = 0; s < kStimuliPerDesign; ++s)
      for (auto &d : bench->designs) {
        std::vector<std::int64_t> a =
            stimulus(bench->kernels[d->kernel]->workload->name, rng);
        ++result.attempted;
        if (tr) {
          ++job;
          ++tracedJobs;
        }
        MaybeScope root(tr, "job", job);
        std::string why = runJob(*bench, *d, a, jc, tr, job);
        if (!why.empty())
          result.fail(designName(*bench, *d) + ": " + why);
      }
  };
  do {
    FlowCounts fc, fcTraced;
    CosimCounts cc, ccTraced;
    JobCounts jc, jcTraced;
    std::vector<CellPrint> expected, replayed;
    // Both passes fingerprint every flow result, so that cost cancels out
    // of the overhead.
    auto t0 = Clock::now();
    pass(nullptr, fc, cc, jc, expected);
    untracedMs += msBetween(t0, Clock::now());
    pass(&tracer, fcTraced, ccTraced, jcTraced, replayed);
    if (expected != replayed)
      result.fail("stage replay diverges from runFlowChecked");
    if (firstPass) {
      firstFlow = fcTraced;
      firstCosim = ccTraced;
      firstJobs = jcTraced;
      firstPass = false;
    }
  } while (msBetween(start, Clock::now()) < o.seconds * 1e3);

  std::map<std::string, double> values;
  std::vector<core::Workload> kernels;
  for (const char *name : kKernels)
    kernels.push_back(core::findWorkload(name));
  probeService(tracer, o, kernels, values, result);
  probeNative(tracer, kernels, values, result);
  values["ir.instrs"] = firstFlow.irInstrs;
  values["ir.blocks"] = firstFlow.irBlocks;
  values["opt.instrs_after"] = firstFlow.instrsAfter;
  values["rtl.sim_cycles"] = firstJobs.fsmdCycles;
  values["vsim.cycles"] = firstJobs.vsimCycles;
  values["vsim.fallbacks"] = firstJobs.fallbacks;
  values["rtl.verilog_bytes"] = firstCosim.verilogBytes;
  reportTrace(result, tracer, o, double(tracedJobs), untracedMs, values);
  return result;
}

} // namespace

Result runStimulusSweep(const Options &options) {
  return options.trace ? runTraced(options) : runUntraced(options);
}

} // namespace c2hbench
