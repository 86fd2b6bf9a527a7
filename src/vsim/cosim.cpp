#include "vsim/cosim.h"

#include "rtl/verilog.h"
#include "support/sandbox.h"
#include "vsim/compile.h"
#include "vsim/cvm.h"
#include "vsim/jit.h"
#include "vsim/parser.h"

namespace c2h::vsim {

namespace {

std::string memNetName(const ir::Module &module, unsigned memId) {
  return "mem_" + rtl::verilogIdent(module.mems()[memId].name);
}

guard::Stage stageEmit("cosim.emit");
guard::Stage stageParse("cosim.parse");
guard::Stage stageElab("cosim.elab");

// Causes that belong to the engine that ran, so a retry on another engine
// can succeed: an injected fault, or a sandboxed crash or hang.
bool isEngineFault(const guard::Verdict &verdict) {
  return verdict.kind == guard::Kind::InjectedFault ||
         verdict.kind == guard::Kind::Crashed ||
         verdict.kind == guard::Kind::Hang;
}

// Enter an engine's run stage.  A trip there ends the run: false, with the
// trip's verdict on `result`.
bool enterRun(guard::Stage &stage, guard::ExecBudget *budget,
              CosimResult &result) {
  try {
    stage.enter(budget);
    return true;
  } catch (const guard::Trip &e) {
    result.verdict = e.verdict;
    result.error = "vsim: " + e.verdict.str();
    return false;
  }
}

// Reset + start/done handshake, templated over the engine (Simulation or
// CompiledSimulation expose the same poke/peek/tick surface).  `cycles`
// counts post-accept ticks, matching rtl::SimResult::cycles exactly.
// Cycle charges and verdicts carry the running engine's `stage` name.
template <class Sim>
CosimResult runHandshake(Sim &sim, const std::vector<BitVector> &args,
                         std::uint64_t maxCycles, guard::ExecBudget *budget,
                         const guard::Stage &stage) {
  CosimResult result;
  auto failed = [&]() {
    if (sim.ok())
      return false;
    result.error = "vsim: " + sim.error();
    result.verdict = sim.verdict();
    return true;
  };
  // Resolve the handshake nets once; the cycle loop then runs without any
  // name lookups (by-id pokes and a word-level done probe).
  const int clkId = sim.findNetId("clk");
  const int doneId = sim.findNetId("done");
  if (clkId < 0) {
    result.error = "vsim: poke: unknown net 'clk'";
    return result;
  }
  sim.poke("rst", BitVector(1, 1));
  sim.poke("start", BitVector(1, 0));
  for (std::size_t i = 0; i < args.size(); ++i)
    sim.poke("arg" + std::to_string(i), args[i]);
  sim.tickId(clkId);
  sim.tickId(clkId);
  sim.poke("rst", BitVector(1, 0));
  sim.poke("start", BitVector(1, 1));
  sim.tickId(clkId); // accept edge: idle latches args, enters entry state
  sim.poke("start", BitVector(1, 0));
  if (failed())
    return result;
  std::uint64_t cycles = 0;
  for (;;) {
    if (cycles >= maxCycles) {
      result.error = "vsim: cycle budget exceeded (" +
                     std::to_string(maxCycles) + " cycles without done)";
      result.verdict.kind = guard::Kind::CycleLimit;
      result.verdict.stage = stage.name();
      result.verdict.cycles = cycles;
      return result;
    }
    if (budget && (cycles & 1023) == 0) {
      try {
        budget->chargeCycles(1024, stage.name());
        budget->checkDeadline(stage.name());
      } catch (const guard::Trip &e) {
        result.verdict = e.verdict;
        result.error = "vsim: " + e.verdict.str();
        return result;
      }
    }
    sim.tickId(clkId);
    ++cycles;
    if (sim.peekWord(doneId) & 1)
      break;
    if (failed())
      return result;
  }
  if (failed())
    return result;
  result.ok = true;
  result.cycles = cycles;
  result.returnValue = sim.peek("retval"); // 1-bit zero when no retval net
  return result;
}

// ---- sandboxed-run wire format -------------------------------------------
//
// The fork child serializes its CosimResult (plus budget deltas and the
// final memory words, which readGlobal needs) into the sandbox pipe.  A
// trivial length-prefixed binary layout: the two ends are the same binary,
// so no portability concerns apply.

void putU64(std::string &s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    s.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
}

bool getU64(const std::string &s, std::size_t &off, std::uint64_t &v) {
  if (off + 8 > s.size())
    return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[off + i]))
         << (i * 8);
  off += 8;
  return true;
}

void putStr(std::string &s, const std::string &v) {
  putU64(s, v.size());
  s += v;
}

bool getStr(const std::string &s, std::size_t &off, std::string &v) {
  std::uint64_t n = 0;
  if (!getU64(s, off, n) || off + n > s.size())
    return false;
  v.assign(s, off, n);
  off += n;
  return true;
}

std::string encodeSandboxRun(const CosimResult &r,
                             std::uint64_t stepsDelta,
                             std::uint64_t cyclesDelta,
                             const std::vector<std::vector<std::uint64_t>> &mems) {
  std::string s;
  s.push_back(r.ok ? 1 : 0);
  putStr(s, r.error);
  putU64(s, r.returnValue.width());
  putU64(s, r.returnValue.word());
  putU64(s, r.cycles);
  s.push_back(static_cast<char>(r.verdict.kind));
  putStr(s, r.verdict.stage);
  putStr(s, r.verdict.site);
  putU64(s, r.verdict.steps);
  putU64(s, r.verdict.cycles);
  putU64(s, r.verdict.allocBytes);
  putU64(s, r.verdict.wallMs);
  putU64(s, stepsDelta);
  putU64(s, cyclesDelta);
  putU64(s, mems.size());
  for (const auto &m : mems) {
    putU64(s, m.size());
    for (std::uint64_t w : m)
      putU64(s, w);
  }
  return s;
}

bool decodeSandboxRun(const std::string &s, CosimResult &r,
                      std::uint64_t &stepsDelta, std::uint64_t &cyclesDelta,
                      std::vector<std::vector<std::uint64_t>> &mems) {
  std::size_t off = 0;
  if (s.empty())
    return false;
  r.ok = s[off++] != 0;
  if (!getStr(s, off, r.error))
    return false;
  std::uint64_t retWidth = 0, retWord = 0;
  if (!getU64(s, off, retWidth) || !getU64(s, off, retWord))
    return false;
  r.returnValue = BitVector(static_cast<unsigned>(retWidth), retWord);
  if (!getU64(s, off, r.cycles))
    return false;
  if (off >= s.size())
    return false;
  r.verdict.kind = static_cast<guard::Kind>(s[off++]);
  if (!getStr(s, off, r.verdict.stage) || !getStr(s, off, r.verdict.site) ||
      !getU64(s, off, r.verdict.steps) || !getU64(s, off, r.verdict.cycles) ||
      !getU64(s, off, r.verdict.allocBytes) ||
      !getU64(s, off, r.verdict.wallMs))
    return false;
  if (!getU64(s, off, stepsDelta) || !getU64(s, off, cyclesDelta))
    return false;
  std::uint64_t memCount = 0;
  if (!getU64(s, off, memCount))
    return false;
  mems.clear();
  mems.reserve(memCount);
  for (std::uint64_t m = 0; m < memCount; ++m) {
    std::uint64_t n = 0;
    if (!getU64(s, off, n) || off + n * 8 > s.size())
      return false;
    std::vector<std::uint64_t> words(n);
    for (std::uint64_t j = 0; j < n; ++j)
      getU64(s, off, words[j]);
    mems.push_back(std::move(words));
  }
  return true;
}

} // namespace

// --------------------------------------------------------------------------
// ModelCache
// --------------------------------------------------------------------------

// One cached design's artifacts.  The entry mutex guards the lazy fields;
// the contained models themselves are immutable once published.
struct ModelCache::Entry {
  std::mutex m;
  bool elaborated = false;
  std::string error;
  std::shared_ptr<Model> model;
  EngineRungs rungs;
  std::shared_ptr<InitImage> eventImage;
};

void ModelCache::setCapacity(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = n;
  while (lru_.size() > capacity_)
    lru_.pop_back();
}

ModelCache::Stats ModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.entries = lru_.size();
  s.capacity = capacity_;
  return s;
}

void ModelCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
}

std::shared_ptr<ModelCache::Entry>
ModelCache::acquire(const std::string &key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0)
    return nullptr;
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->first == key) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it);
      return lru_.front().second;
    }
  }
  ++misses_;
  auto entry = std::make_shared<Entry>();
  lru_.emplace_front(key, entry);
  while (lru_.size() > capacity_)
    lru_.pop_back();
  return entry;
}

// --------------------------------------------------------------------------
// Cosimulation
// --------------------------------------------------------------------------

void Cosimulation::cacheAdopt() {
  std::lock_guard<std::mutex> lock(cacheEntry_->m);
  const ModelCache::Entry &e = *cacheEntry_;
  if (!e.elaborated)
    return;
  model_ = e.model;
  error_ = e.error;
  rungs_ = e.rungs;
  eventImage_ = e.eventImage;
}

void Cosimulation::cachePublish() {
  // Never publish while a fault is armed: an injected-fault outcome must
  // stay confined to the request it hit.
  if (!cacheEntry_ || guard::anyFaultArmed())
    return;
  std::lock_guard<std::mutex> lock(cacheEntry_->m);
  ModelCache::Entry &e = *cacheEntry_;
  if (!e.elaborated) {
    e.elaborated = true;
    e.model = model_;
    e.error = error_;
  }
  // Rungs are only ever added, so the side that tried more is the newer.
  if (rungs_.triedCompile > e.rungs.triedCompile ||
      rungs_.triedNative > e.rungs.triedNative)
    e.rungs = rungs_;
  if (eventImage_ && !e.eventImage)
    e.eventImage = eventImage_;
}

Cosimulation::Cosimulation(const rtl::Design &design, ModelCache *cache)
    : design_(&design) {
  try {
    stageEmit.enter();
    verilog_ = rtl::emitVerilog(design);
    topModule_ = "c2h_" + rtl::verilogIdent(design.top);
    if (cache && !guard::anyFaultArmed())
      cacheEntry_ = cache->acquire(verilog_ + '\x1f' + topModule_);
    if (cacheEntry_) {
      cacheAdopt();
      if (model_ || !error_.empty())
        return; // warm entry: parse/elaborate/compile all skipped
    }
    stageParse.enter();
    ParseDiagnostic diag;
    std::shared_ptr<SourceUnit> unit = parseVerilog(verilog_, diag);
    if (!unit) {
      error_ = "vsim parse: " + diag.str();
      cachePublish();
      return;
    }
    stageElab.enter();
    std::string elabError;
    model_ = elaborate(std::move(unit), topModule_, elabError);
    if (!model_)
      error_ = "vsim elaborate: " + elabError;
    cachePublish();
  } catch (const guard::Trip &e) {
    verdict_ = e.verdict;
    error_ = "vsim: " + e.verdict.str();
  }
}

Cosimulation::~Cosimulation() = default;

void Cosimulation::seedGlobal(const std::string &name,
                              const std::vector<BitVector> &cells) {
  seeds_[name] = cells;
}

template <class Sim> void Cosimulation::seedInto(Sim &sim) {
  for (const auto &[name, cells] : seeds_) {
    const ir::GlobalSlot *slot = design_->module->findGlobal(name);
    if (!slot)
      continue;
    unsigned cellWidth = design_->module->mems()[slot->memId].width;
    std::string net = memNetName(*design_->module, slot->memId);
    for (std::uint64_t i = 0; i < cells.size() && i < slot->words; ++i)
      sim.pokeMemory(net, slot->base + i,
                     cells[i].resize(slot->width, false)
                         .resize(cellWidth, false));
  }
}

CosimResult Cosimulation::run(const std::vector<BitVector> &args,
                              const CosimOptions &options) {
  CosimResult result;
  if (!valid()) {
    result.error = error_;
    return result;
  }
  // Resize arguments like Simulator::run: to the declared parameter width.
  std::vector<BitVector> sized = args;
  if (const ir::Function *top = design_->module->findFunction(design_->top))
    for (std::size_t i = 0;
         i < sized.size() && i < top->params().size(); ++i)
      sized[i] = sized[i].resize(top->params()[i].width, false);

  const bool strict = isStrict(options.engine);
  const std::optional<SimEngine> rung =
      rungs_.resolve(model_, options.engine, options.budget);
  cachePublish();
  if (!rung) {
    result.error = rungs_.strictError(options.engine);
    result.verdict = rungs_.failedVerdict();
    return result;
  }
  if (*rung == SimEngine::Event)
    return runEvent(sized, options);
  const bool native = *rung == SimEngine::Native;
  result = native ? runNative(sized, options) : runCompiled(sized, options);
  if (result.ok || strict || !isEngineFault(result.verdict))
    return result;
  // The engine failed on a cause of its own: retry once, one rung down, on
  // the same meter.  A budget, comb-loop or I/O trip would recur on any
  // engine, so it surfaces above, named by the engine that tripped.
  std::string first = result.error;
  result = native ? runCompiled(sized, options) : runEvent(sized, options);
  result.degradation = std::string(native ? "native" : "compiled") +
                       " engine: " + first + "; retried on " +
                       (native ? "compiled" : "event") + " engine";
  return result;
}

CosimResult Cosimulation::runNative(const std::vector<BitVector> &args,
                                    const CosimOptions &options) {
  engineUsed_ = SimEngine::Native;
  sim_.reset();
  csim_.reset();
  if (nsim_)
    nsim_->reset();
  else
    nsim_ =
        std::make_unique<NativeSimulation>(rungs_.compiled, rungs_.native);
  // Same construct-settle-seed order as the other two engines: behavioral
  // models run their `initial` threads live before globals are seeded.
  if (rungs_.compiled->behavioral)
    nsim_->settle();
  nsim_->setBudget(options.budget);
  CosimResult result;
  if (!enterRun(stageNativeRun, options.budget, result))
    return result;
  seedInto(*nsim_);
  if (!options.sandbox || !sandbox::available())
    return runHandshake(*nsim_, args, options.maxCycles, options.budget,
                        stageNativeRun);

  // Sandboxed native execution: the JIT-built .so runs in a fork child so
  // a real crash or hang in generated code becomes a structured verdict
  // and an artifact quarantine, never a process death.  The ExecBudget is
  // forked along with everything else — its steady_clock epoch survives,
  // so the child's cooperative wall-deadline checks stay exact — and the
  // child reports its step/cycle deltas for the parent to book into the
  // live meter.
  const std::uint64_t steps0 =
      options.budget ? options.budget->stepsUsed() : 0;
  const std::uint64_t cycles0 =
      options.budget ? options.budget->cyclesUsed() : 0;
  sandbox::Options sopts;
  sopts.timeoutMs = sandbox::watchdogMs(30000, options.budget);
  sandbox::Outcome oc = sandbox::runInChild(
      [&]() {
        CosimResult r = runHandshake(*nsim_, args, options.maxCycles,
                                     options.budget, stageNativeRun);
        std::uint64_t stepsDelta =
            options.budget ? options.budget->stepsUsed() - steps0 : 0;
        std::uint64_t cyclesDelta =
            options.budget ? options.budget->cyclesUsed() - cycles0 : 0;
        return encodeSandboxRun(r, stepsDelta, cyclesDelta,
                                nsim_->exportMemories());
      },
      sopts);

  if (oc.status == sandbox::Status::Crashed ||
      oc.status == sandbox::Status::Timeout) {
    // Containment path: classify, quarantine the implicated artifact, and
    // drop every live reference to it so neither this Cosimulation nor a
    // warm ModelCache entry reloads the bad .so.  The ladder in run()
    // then self-heals on the compiled engine (or surfaces the verdict
    // under native-strict).
    const std::string key =
        rungs_.native ? rungs_.native->key() : std::string();
    std::string site = oc.detail;
    if (!key.empty())
      site += "; artifact " + key;
    result.verdict = oc.verdict(stageNativeRun.name(), site);
    if (options.budget) {
      result.verdict.steps = options.budget->stepsUsed();
      result.verdict.cycles = options.budget->cyclesUsed();
      result.verdict.wallMs = options.budget->elapsedMs();
    }
    result.error = "vsim: " + result.verdict.str();
    quarantineNativeArtifact(key);
    rungs_.nativeNote = "native artifact " + key + " quarantined (" +
                        (oc.status == sandbox::Status::Crashed
                             ? "crashed on " + oc.detail
                             : oc.detail) +
                        ")";
    nsim_.reset();
    rungs_.native = nullptr;
    if (cacheEntry_) {
      std::lock_guard<std::mutex> lock(cacheEntry_->m);
      ModelCache::Entry &e = *cacheEntry_;
      if (e.rungs.native && e.rungs.native->key() == key) {
        e.rungs.native = nullptr;
        e.rungs.nativeNote = rungs_.nativeNote;
      }
    }
    return result;
  }
  if (!oc.ok()) {
    // Internal child failure (fork error, child-side exception): surface
    // as a plain error with no guard verdict, matching what an in-process
    // internal error would produce — no ladder descent.
    result.error = "vsim: native sandbox: " + oc.detail;
    return result;
  }
  std::uint64_t stepsDelta = 0, cyclesDelta = 0;
  std::vector<std::vector<std::uint64_t>> mems;
  if (!decodeSandboxRun(oc.payload, result, stepsDelta, cyclesDelta, mems)) {
    result = CosimResult{};
    result.error = "vsim: native sandbox: malformed child result";
    return result;
  }
  nsim_->importMemories(mems); // readGlobal sees what the child wrote
  if (options.budget && (stepsDelta != 0 || cyclesDelta != 0)) {
    try {
      if (stepsDelta != 0)
        options.budget->chargeSteps(stepsDelta, stageNativeRun.name());
      if (cyclesDelta != 0)
        options.budget->chargeCycles(cyclesDelta, stageNativeRun.name());
    } catch (const guard::Trip &e) {
      // The child already enforced the budget; tripping here means the
      // meter moved concurrently (a sibling request on the same meter).
      if (result.ok) {
        result = CosimResult{};
        result.verdict = e.verdict;
        result.error = "vsim: " + e.verdict.str();
      }
    }
  }
  return result;
}

CosimResult Cosimulation::runCompiled(const std::vector<BitVector> &args,
                                      const CosimOptions &options) {
  engineUsed_ = SimEngine::Compiled;
  sim_.reset();
  nsim_.reset();
  // The CompiledModel carries the post-`initial` image, so no settle is
  // needed before seeding; later runs restore it in place.
  if (csim_)
    csim_->reset();
  else
    csim_ = std::make_unique<CompiledSimulation>(rungs_.compiled);
  // Behavioral models run their `initial` threads live; settle them before
  // seeding so seeded globals are not clobbered — the same order as
  // runEvent's construct-settle-seed sequence (and like there, the initial
  // execution is not charged to the budget).
  if (rungs_.compiled->behavioral)
    csim_->settle();
  csim_->setBudget(options.budget);
  CosimResult result;
  if (!enterRun(stageCompiledRun, options.budget, result))
    return result;
  seedInto(*csim_);
  return runHandshake(*csim_, args, options.maxCycles, options.budget,
                      stageCompiledRun);
}

CosimResult Cosimulation::runEvent(const std::vector<BitVector> &args,
                                   const CosimOptions &options) {
  engineUsed_ = SimEngine::Event;
  csim_.reset();
  nsim_.reset();
  if (eventImage_) {
    sim_ = std::make_unique<Simulation>(model_, *eventImage_);
  } else {
    sim_ = std::make_unique<Simulation>(model_);
    sim_->settle(); // initial blocks load the ROM/global images
    if (sim_->ok() && hasPlainInit(*model_)) {
      eventImage_ = std::make_shared<InitImage>(sim_->snapshot());
      cachePublish();
    }
  }
  sim_->setBudget(options.budget);
  CosimResult result;
  if (!enterRun(stageEventRun, options.budget, result))
    return result;
  seedInto(*sim_);
  return runHandshake(*sim_, args, options.maxCycles, options.budget,
                      stageEventRun);
}

std::vector<BitVector>
Cosimulation::readGlobal(const std::string &name) const {
  if ((!sim_ && !csim_ && !nsim_) || !design_)
    return {};
  const ir::GlobalSlot *slot = design_->module->findGlobal(name);
  if (!slot)
    return {};
  std::string net = memNetName(*design_->module, slot->memId);
  std::vector<BitVector> cells = nsim_   ? nsim_->memoryContents(net)
                                 : csim_ ? csim_->memoryContents(net)
                                         : sim_->memoryContents(net);
  std::vector<BitVector> out;
  for (std::uint64_t i = 0; i < slot->words && slot->base + i < cells.size();
       ++i)
    out.push_back(cells[slot->base + i].trunc(slot->width));
  return out;
}

CosimResult cosimulate(const rtl::Design &design,
                       const std::vector<BitVector> &args,
                       const CosimOptions &options) {
  Cosimulation cosim(design);
  return cosim.run(args, options);
}

CosimResult cosimulateSource(const std::string &verilogText,
                             const std::string &topModule,
                             const std::vector<BitVector> &args,
                             const CosimOptions &options) {
  CosimResult result;
  ParseDiagnostic diag;
  std::shared_ptr<SourceUnit> unit = parseVerilog(verilogText, diag);
  if (!unit) {
    result.error = "vsim parse: " + diag.str();
    return result;
  }
  std::string elabError;
  std::shared_ptr<Model> model = elaborate(std::move(unit), topModule,
                                           elabError);
  if (!model) {
    result.error = "vsim elaborate: " + elabError;
    return result;
  }
  EngineRungs rungs;
  const std::optional<SimEngine> rung =
      rungs.resolve(model, options.engine, options.budget);
  if (!rung) {
    result.error = rungs.strictError(options.engine);
    result.verdict = rungs.failedVerdict();
    return result;
  }
  auto runOn = [&](auto &sim, const guard::Stage &stage) {
    if (rungs.compiled->behavioral)
      sim.settle();
    sim.setBudget(options.budget);
    return runHandshake(sim, args, options.maxCycles, options.budget, stage);
  };
  if (*rung == SimEngine::Native) {
    NativeSimulation sim(rungs.compiled, rungs.native);
    return runOn(sim, stageNativeRun);
  }
  if (*rung == SimEngine::Compiled) {
    CompiledSimulation sim(rungs.compiled);
    return runOn(sim, stageCompiledRun);
  }
  Simulation sim(std::move(model));
  sim.settle();
  sim.setBudget(options.budget);
  return runHandshake(sim, args, options.maxCycles, options.budget,
                      stageEventRun);
}

} // namespace c2h::vsim
