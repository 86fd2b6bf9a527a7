// Chaos suite for the resource-guarded execution layer (support/guard).
//
// Every registered stage is armed in turn against a representative
// workload run with three-model co-simulation enabled, asserting the
// engine-level robustness contract:
//  * the comparison finishes — an injected fault never escapes a stage
//    boundary as an exception,
//  * exactly the targeted cell reports the failure (structured
//    InjectedFault verdict), or, for the graceful-degradation sites, the
//    run self-heals and every row still passes,
//  * sibling rows are byte-identical to a fault-free baseline,
//  * rerunning the same armed configuration reproduces identical rows
//    (deterministic chaos), and
//  * a faulted run never poisons the shared front-end cache.
//
// Also home to the verify-budget regression (satellite of the same PR):
// the default interpreter budget is finite, and a shared meter turns a
// long-running golden-model run into a structured STEP_LIMIT verdict.
#include "core/engine.h"
#include "interp/interp.h"
#include "ir/lower.h"
#include "opt/irpasses.h"
#include "sched/ilp.h"
#include "sched/modulo.h"
#include "serve/service.h"
#include "support/guard.h"
#include "support/sandbox.h"
#include "vsim/jit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace c2h {
namespace {

// Each armed run uses a fresh engine: frontend sites only fire on a cache
// miss, and a fresh cache also keeps runs order-independent.
std::vector<core::FlowComparison> runGcd(bool cosim) {
  core::EngineOptions opts;
  opts.cosim = cosim;
  core::CompareEngine engine(opts);
  flows::FlowTuning serial;
  serial.jobs = 1; // deterministic: first hit of an armed site is fixed
  return engine.compareFlows(core::findWorkload("gcd"), serial);
}

struct ArmedGuard {
  explicit ArmedGuard(const std::string &site) { guard::armFault(site); }
  ~ArmedGuard() { guard::disarmFaults(); }
};

void expectRowEqual(const core::FlowComparison &a,
                    const core::FlowComparison &b, const char *what) {
  EXPECT_EQ(a.flowId, b.flowId) << what;
  EXPECT_EQ(a.accepted, b.accepted) << what << " " << a.flowId;
  EXPECT_EQ(a.verified, b.verified) << what << " " << a.flowId;
  EXPECT_EQ(a.note, b.note) << what << " " << a.flowId;
  EXPECT_EQ(a.cycles, b.cycles) << what << " " << a.flowId;
  EXPECT_EQ(a.cosimRan, b.cosimRan) << what << " " << a.flowId;
  EXPECT_EQ(a.cosimOk, b.cosimOk) << what << " " << a.flowId;
  EXPECT_EQ(a.cosimCycles, b.cosimCycles) << what << " " << a.flowId;
  EXPECT_EQ(a.cosimNote, b.cosimNote) << what << " " << a.flowId;
  EXPECT_EQ(static_cast<int>(a.verdict.kind),
            static_cast<int>(b.verdict.kind))
      << what << " " << a.flowId;
  EXPECT_EQ(a.degradation, b.degradation) << what << " " << a.flowId;
}

std::size_t countInjected(const std::vector<core::FlowComparison> &rows) {
  std::size_t n = 0;
  for (const auto &r : rows)
    if (r.verdict.kind == guard::Kind::InjectedFault)
      ++n;
  return n;
}

TEST(Chaos, RegistryEnumeratesEveryStageBoundary) {
  auto sites = guard::allFaultSites();
  std::set<std::string> have(sites.begin(), sites.end());
  for (const char *required :
       {"frontend.parse", "frontend.sema", "engine.cell", "flow.inline",
        "flow.unroll", "flow.lower", "flow.range", "flow.schedule",
        "cosim.emit", "cosim.parse", "cosim.elab", "vsim.compile",
        "vsim.compiled.run", "vsim.event.run", "vsim.jit.emit", "vsim.jit.cc",
        "vsim.jit.load", "vsim.native.run", "guard.alloc", "guard.io.read",
        "serve.parse", "serve.handle", "serve.respond", "sandbox.segv",
        "sandbox.bus", "sandbox.fpe", "sandbox.abrt", "sandbox.hang", "interp",
        "rtl.sim", "sched.ilp", "sched.modulo", "vsim.readmem"})
    EXPECT_TRUE(have.count(required)) << required;
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
}

TEST(Chaos, ArmingAnUnknownSiteIsAnError) {
  EXPECT_THROW(guard::armFault("bogus.site"), std::invalid_argument);
}

TEST(Chaos, EverySiteIsolatedDeterministicAndSelfHealing) {
  guard::disarmFaults();
  const auto baseline = runGcd(true);
  ASSERT_FALSE(baseline.empty());
  for (const auto &r : baseline)
    ASSERT_EQ(static_cast<int>(r.verdict.kind),
              static_cast<int>(guard::Kind::None))
        << r.flowId << ": " << r.note;

  // vsim.compile: injected compile failure degrades silently to the event
  // engine (exactly like an out-of-subset model).  vsim.compiled.run: the
  // degradation ladder retries the cell once on the event engine and
  // records it.  Both must leave every row passing.
  const std::set<std::string> degradeSilent = {"vsim.compile"};
  const std::set<std::string> degradeRetry = {"vsim.compiled.run"};
  // The whole workload shares one frontend compile, so a frontend fault
  // fails every row of this workload (and only this workload).
  const std::set<std::string> frontendSites = {"frontend.parse",
                                               "frontend.sema"};
  // Stages a healthy gcd run never reaches: no $readmem in the emitted RTL
  // (guard.io.read, vsim.readmem), and the compiled engine handles the
  // model, so the event engine only runs when some *other* stage already
  // fired.  sched.ilp and sched.modulo belong to the ILP-limit and
  // loop-pipelining experiments, which a flow comparison never runs
  // (SchedulerExperimentStagesTripToVerdicts covers them).  The serve.* sites live in
  // the daemon layer, which this engine-level run never enters, and the
  // vsim.jit.* / vsim.native.run sites live in the native tier, which the
  // default bytecode-engine run never requests (both families get their
  // own blast-radius tests below).
  // ... and the sandbox.* sites only fire when sandboxed execution is
  // requested (EngineOptions::sandboxNative / CosimOptions::sandbox),
  // which this in-process run never is (SandboxChaos covers them).
  const std::set<std::string> mayNotFire = {
      "guard.io.read",  "vsim.readmem",  "vsim.event.run", "sched.ilp",
      "sched.modulo",   "serve.parse",   "serve.handle",   "serve.respond",
      "vsim.jit.emit",  "vsim.jit.cc",   "vsim.jit.load",  "vsim.native.run",
      "sandbox.segv",   "sandbox.bus",   "sandbox.fpe",    "sandbox.abrt",
      "sandbox.hang"};

  for (const std::string &site : guard::allFaultSites()) {
    SCOPED_TRACE("site=" + site);
    std::vector<core::FlowComparison> armed, rerun;
    {
      ArmedGuard arm(site);
      armed = runGcd(true);
    }
    {
      ArmedGuard arm(site);
      rerun = runGcd(true);
    }
    ASSERT_EQ(armed.size(), baseline.size());

    // Deterministic chaos: identical rows (including verdicts) on rerun.
    ASSERT_EQ(rerun.size(), armed.size());
    for (std::size_t i = 0; i < armed.size(); ++i)
      expectRowEqual(armed[i], rerun[i], "rerun");

    std::size_t injected = countInjected(armed);
    std::size_t degraded = 0;
    for (const auto &r : armed)
      if (!r.degradation.empty())
        ++degraded;

    if (degradeSilent.count(site) || degradeRetry.count(site)) {
      EXPECT_EQ(injected, 0u);
      EXPECT_EQ(degraded, degradeRetry.count(site) ? 1u : 0u);
      for (std::size_t i = 0; i < armed.size(); ++i) {
        EXPECT_EQ(armed[i].verified, baseline[i].verified) << armed[i].flowId;
        EXPECT_EQ(armed[i].cosimOk, baseline[i].cosimOk) << armed[i].flowId;
      }
    } else if (frontendSites.count(site)) {
      EXPECT_EQ(injected, armed.size());
      for (const auto &r : armed) {
        EXPECT_FALSE(r.accepted) << r.flowId;
        EXPECT_EQ(r.verdict.site, site) << r.flowId;
      }
    } else {
      // Stage sites: the first cell to reach the boundary takes the fault;
      // every sibling row must match the fault-free baseline exactly.
      if (mayNotFire.count(site))
        EXPECT_LE(injected, 1u);
      else
        EXPECT_EQ(injected, 1u) << "site never fired";
      for (std::size_t i = 0; i < armed.size(); ++i) {
        if (armed[i].verdict.kind == guard::Kind::InjectedFault) {
          EXPECT_EQ(armed[i].verdict.site, site);
          continue;
        }
        expectRowEqual(armed[i], baseline[i], "sibling");
      }
    }
  }
}

// The registry is the one list of stage names: every verdict a run can
// produce names a registered stage.  Swept two ways: the whole registry
// through every flow with cosim under small step and cycle budgets, on
// the event and compiled engines; and each registered stage armed once.
TEST(Chaos, EveryVerdictStageIsARegisteredStage) {
  guard::disarmFaults();
  const std::vector<std::string> names = guard::allFaultSites();
  const std::set<std::string> registered(names.begin(), names.end());
  std::set<std::string> seen;
  auto collect = [&](const std::vector<core::FlowComparison> &rows) {
    for (const auto &r : rows)
      if (!r.verdict.ok())
        seen.insert(r.verdict.stage);
  };
  std::vector<guard::BudgetSpec> budgets(4);
  budgets[0].maxSteps = 5000;
  budgets[1].maxSteps = 100000;
  budgets[2].maxCycles = 300;
  budgets[3].maxCycles = 5000;
  for (vsim::SimEngine engine :
       {vsim::SimEngine::Event, vsim::SimEngine::Compiled,
        vsim::SimEngine::CompiledStrict}) {
    core::EngineOptions opts;
    opts.cosim = true;
    opts.vsimEngine = engine;
    core::CompareEngine compare(opts);
    for (const guard::BudgetSpec &budget : budgets) {
      flows::FlowTuning tuning;
      tuning.budget = budget;
      for (const auto &rows :
           compare.compareMatrix(core::standardWorkloads(), tuning))
        collect(rows);
    }
  }
  for (const std::string &stage : names) {
    ArmedGuard arm(stage);
    collect(runGcd(true));
  }
  for (const char *expected :
       {"interp", "rtl.sim", "vsim.compiled.run", "vsim.event.run"})
    EXPECT_TRUE(seen.count(expected)) << expected << " never seen";
  for (const std::string &stage : seen)
    EXPECT_TRUE(registered.count(stage)) << "unregistered stage " << stage;
}

// The scheduler experiments' stages: an armed entry of the ILP-limit
// tracer or of the overlapped executor of a modulo-scheduled loop becomes
// the result's verdict, never an exception.
TEST(Chaos, SchedulerExperimentStagesTripToVerdicts) {
  guard::disarmFaults();
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend("int x[16]; int y[16];\n"
                          "void f() {\n"
                          "  for (int i = 0; i < 16; i = i + 1) {\n"
                          "    y[i] = x[i] * 5 + 3;\n"
                          "  }\n"
                          "}\n",
                          types, diags);
  ASSERT_NE(program, nullptr) << diags.str();
  auto module = ir::lowerToIR(*program, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  opt::optimizeModule(*module);
  const ir::Function *f = module->findFunction("f");
  ASSERT_NE(f, nullptr);
  sched::TechLibrary lib;
  const sched::PipelineResult pipe = sched::pipelineInnermostLoop(*f, lib, {});
  ASSERT_TRUE(pipe.pipelined) << pipe.reason;
  auto overlap = [&] {
    std::vector<std::vector<BitVector>> mems;
    for (const auto &mem : module->mems())
      mems.emplace_back(mem.depth, BitVector(std::max(1u, mem.width)));
    return sched::executePipelined(*module, *f, pipe, mems);
  };

  {
    ArmedGuard arm("sched.ilp");
    sched::IlpResult r = sched::measureIlp(*module, "f", {}, {});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(static_cast<int>(r.verdict.kind),
              static_cast<int>(guard::Kind::InjectedFault));
    EXPECT_EQ(r.verdict.stage, "sched.ilp");
  }
  {
    ArmedGuard arm("sched.modulo");
    sched::OverlapResult r = overlap();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(static_cast<int>(r.verdict.kind),
              static_cast<int>(guard::Kind::InjectedFault));
    EXPECT_EQ(r.verdict.stage, "sched.modulo");
  }
  EXPECT_TRUE(sched::measureIlp(*module, "f", {}, {}).ok);
  EXPECT_TRUE(overlap().ok);
}

TEST(Chaos, FaultedRunDoesNotPoisonTheFrontendCache) {
  // Arm a frontend fault, run, then run the SAME engine disarmed: the
  // faulted compile must not have been cached, so the clean rerun
  // recompiles and every row matches a never-faulted engine.
  guard::disarmFaults();
  core::EngineOptions opts;
  core::CompareEngine engine(opts);
  flows::FlowTuning serial;
  serial.jobs = 1;
  const auto &w = core::findWorkload("gcd");
  {
    ArmedGuard arm("frontend.parse");
    auto rows = engine.compareFlows(w, serial);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(countInjected(rows), rows.size());
  }
  auto clean = engine.compareFlows(w, serial);
  core::CompareEngine fresh(opts);
  auto expected = fresh.compareFlows(w, serial);
  ASSERT_EQ(clean.size(), expected.size());
  for (std::size_t i = 0; i < clean.size(); ++i)
    expectRowEqual(clean[i], expected[i], "post-fault");
}

// ------------------------------------------------------- native chaos --
//
// The native tier adds four fault sites (vsim.jit.emit / .cc / .load in
// the build pipeline, vsim.native.run at dispatch).  The engine ladder's
// contract: any of them failing degrades native -> bytecode with a
// recorded reason on exactly the request that hit the fault, siblings and
// results untouched, and the ladder self-heals once disarmed.

std::vector<core::FlowComparison> runGcdNative() {
  core::EngineOptions opts;
  opts.cosim = true;
  opts.vsimEngine = vsim::SimEngine::Native;
  core::CompareEngine engine(opts);
  flows::FlowTuning serial;
  serial.jobs = 1;
  return engine.compareFlows(core::findWorkload("gcd"), serial);
}

// Fresh, private native artifact cache: without it the vsim.jit.cc /
// vsim.jit.load sites can be skipped by a warm disk or in-process hit.
struct NativeCacheSandbox {
  std::string dir;
  explicit NativeCacheSandbox(const std::string &tag) {
    dir = (std::filesystem::temp_directory_path() / ("c2h-chaos-" + tag))
              .string();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    ::setenv("C2H_NATIVE_CACHE", dir.c_str(), 1);
    vsim::clearNativeCache();
  }
  ~NativeCacheSandbox() {
    ::unsetenv("C2H_NATIVE_CACHE");
    vsim::clearNativeCache();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

TEST(NativeChaos, JitSitesDegradeToBytecodeWithRecordedReason) {
  if (!vsim::nativeToolchainAvailable())
    GTEST_SKIP() << "no host C++ compiler on PATH";
  guard::disarmFaults();
  std::vector<core::FlowComparison> baseline;
  {
    NativeCacheSandbox sandbox("baseline");
    baseline = runGcdNative();
  }
  ASSERT_FALSE(baseline.empty());
  for (const auto &r : baseline) {
    ASSERT_EQ(static_cast<int>(r.verdict.kind),
              static_cast<int>(guard::Kind::None))
        << r.flowId << ": " << r.note;
    if (r.cosimRan) {
      EXPECT_TRUE(r.cosimOk) << r.flowId << ": " << r.cosimNote;
      EXPECT_EQ(r.cosimEngine, "native") << r.flowId;
      EXPECT_TRUE(r.cosimFallback.empty())
          << r.flowId << ": " << r.cosimFallback;
    }
  }

  for (const std::string site :
       {"vsim.jit.emit", "vsim.jit.cc", "vsim.jit.load"}) {
    SCOPED_TRACE("site=" + site);
    NativeCacheSandbox sandbox(site);
    std::vector<core::FlowComparison> armed;
    {
      ArmedGuard arm(site);
      armed = runGcdNative();
    }
    ASSERT_EQ(armed.size(), baseline.size());
    // The fault never surfaces as a failure: the ladder absorbs it.
    EXPECT_EQ(countInjected(armed), 0u);
    std::size_t degraded = 0;
    for (std::size_t i = 0; i < armed.size(); ++i) {
      const auto &r = armed[i];
      EXPECT_EQ(r.verified, baseline[i].verified) << r.flowId;
      EXPECT_EQ(r.cosimOk, baseline[i].cosimOk) << r.flowId;
      EXPECT_EQ(r.cosimCycles, baseline[i].cosimCycles) << r.flowId;
      if (!r.cosimRan)
        continue;
      if (r.cosimEngine == "compiled") {
        ++degraded;
        // The recorded reason names the injected site.
        EXPECT_NE(r.cosimFallback.find(site), std::string::npos)
            << r.flowId << ": " << r.cosimFallback;
      } else {
        EXPECT_EQ(r.cosimEngine, "native") << r.flowId;
        EXPECT_TRUE(r.cosimFallback.empty())
            << r.flowId << ": " << r.cosimFallback;
      }
    }
    EXPECT_EQ(degraded, 1u) << "exactly one request absorbs the fault";
    // Self-healing: a disarmed rerun is native again, end to end.
    auto healed = runGcdNative();
    ASSERT_EQ(healed.size(), baseline.size());
    for (std::size_t i = 0; i < healed.size(); ++i) {
      expectRowEqual(healed[i], baseline[i], "healed");
      EXPECT_EQ(healed[i].cosimEngine, baseline[i].cosimEngine)
          << healed[i].flowId;
    }
  }
  guard::disarmFaults();
}

TEST(NativeChaos, RuntimeFaultRetriesOnBytecodeWithRecordedDegradation) {
  if (!vsim::nativeToolchainAvailable())
    GTEST_SKIP() << "no host C++ compiler on PATH";
  guard::disarmFaults();
  NativeCacheSandbox sandbox("native-run");
  const auto baseline = runGcdNative();
  ASSERT_FALSE(baseline.empty());
  std::vector<core::FlowComparison> armed, rerun;
  {
    ArmedGuard arm("vsim.native.run");
    armed = runGcdNative();
  }
  {
    ArmedGuard arm("vsim.native.run");
    rerun = runGcdNative();
  }
  ASSERT_EQ(armed.size(), baseline.size());
  EXPECT_EQ(countInjected(armed), 0u);
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < armed.size(); ++i) {
    const auto &r = armed[i];
    EXPECT_EQ(r.verified, baseline[i].verified) << r.flowId;
    EXPECT_EQ(r.cosimOk, baseline[i].cosimOk) << r.flowId;
    EXPECT_EQ(r.cosimCycles, baseline[i].cosimCycles) << r.flowId;
    if (!r.degradation.empty()) {
      ++degraded;
      // The ladder records the rung it fell from and where it landed.
      EXPECT_NE(r.degradation.find("native engine"), std::string::npos)
          << r.degradation;
      EXPECT_NE(r.degradation.find("retried on compiled engine"),
                std::string::npos)
          << r.degradation;
      EXPECT_NE(r.degradation.find("vsim.native.run"), std::string::npos)
          << r.degradation;
    }
  }
  EXPECT_EQ(degraded, 1u) << "exactly one request degrades";
  // Deterministic chaos: identical rows on an identically-armed rerun.
  ASSERT_EQ(rerun.size(), armed.size());
  for (std::size_t i = 0; i < armed.size(); ++i)
    expectRowEqual(armed[i], rerun[i], "rerun");
  guard::disarmFaults();
}

// -------------------------------------------------------- serve chaos --
//
// The guard sites extend into the service layer; these tests prove the
// daemon-level blast-radius contract: a faulted or over-budget request
// fails alone, with a structured verdict, leaving concurrent siblings
// byte-identical and both caches unpoisoned.

std::string chaosStripVolatile(std::string response) {
  std::size_t start = response.find(",\"cache\":{");
  if (start == std::string::npos)
    return response;
  std::size_t end = response.find('}', start);
  response.erase(start, end - start + 1);
  return response;
}

TEST(ServeChaos, EveryServeSiteFailsExactlyOneRequest) {
  const std::string line =
      R"({"id":"x","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  for (const char *site : {"serve.parse", "serve.handle", "serve.respond"}) {
    SCOPED_TRACE(site);
    guard::disarmFaults();
    serve::CosimService service;
    std::string baseline = service.handleLine(line);
    ASSERT_NE(baseline.find("\"status\":\"ok\""), std::string::npos)
        << baseline;
    // Arm the site (counters reset): the next request takes the fault...
    guard::armFault(site);
    std::string faulted = service.handleLine(line);
    guard::disarmFaults();
    EXPECT_NE(faulted.find("\"status\":\"error\""), std::string::npos)
        << faulted;
    EXPECT_NE(faulted.find(std::string("\"site\":\"") + site + "\""),
              std::string::npos)
        << faulted;
    // ...and the next, disarmed request is byte-identical to the baseline:
    // the daemon survived and nothing leaked into the caches.
    std::string after = service.handleLine(line);
    EXPECT_EQ(chaosStripVolatile(after), chaosStripVolatile(baseline));
  }
  guard::disarmFaults();
}

TEST(ServeChaos, FaultedRequestDoesNotDisturbConcurrentSiblings) {
  guard::disarmFaults();
  // Baseline: the same request answered by a clean serial service.
  const std::string line =
      R"({"id":"s","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  std::string baseline;
  {
    serve::CosimService clean;
    baseline = chaosStripVolatile(clean.handleLine(line));
  }
  // Now a parallel service with serve.handle armed: exactly one of the
  // concurrent requests takes the fault, every other response matches the
  // clean baseline byte for byte.
  serve::ServiceOptions options;
  options.jobs = 4;
  serve::CosimService service(options);
  guard::armFault("serve.handle", 3);
  constexpr int kRequests = 6;
  std::vector<std::string> responses(kRequests);
  std::mutex mutex;
  for (int i = 0; i < kRequests; ++i)
    service.submitAsync(line, [&, i](std::string r) {
      std::lock_guard<std::mutex> lock(mutex);
      responses[i] = std::move(r);
    });
  service.drain();
  guard::disarmFaults();
  int faulted = 0;
  for (const auto &r : responses) {
    if (r.find("\"status\":\"error\"") != std::string::npos) {
      ++faulted;
      EXPECT_NE(r.find("\"kind\":\"INJECTED_FAULT\""), std::string::npos)
          << r;
      EXPECT_NE(r.find("\"site\":\"serve.handle\""), std::string::npos) << r;
      continue;
    }
    EXPECT_EQ(chaosStripVolatile(r), baseline);
  }
  EXPECT_EQ(faulted, 1);
  // The response cache was never poisoned: a warm repeat (caching enabled
  // now) still computes the clean answer.
  std::string repeat = service.handleLine(
      R"({"id":"r","op":"compare","workload":"gcd","timing":false})");
  EXPECT_NE(repeat.find("\"status\":\"ok\""), std::string::npos) << repeat;
}

TEST(ServeChaos, OverBudgetRequestLeavesSiblingsUntouched) {
  guard::disarmFaults();
  serve::ServiceOptions options;
  options.jobs = 4;
  serve::CosimService service(options);
  const std::string clean =
      R"({"id":"c","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  const std::string starved =
      R"({"id":"b","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true,"budget":{"cycles":5}})";
  std::string baseline = chaosStripVolatile(service.handleLine(clean));
  std::vector<std::string> responses(5);
  std::mutex mutex;
  for (int i = 0; i < 5; ++i)
    service.submitAsync(i == 2 ? starved : clean,
                        [&, i](std::string r) {
                          std::lock_guard<std::mutex> lock(mutex);
                          responses[i] = std::move(r);
                        });
  service.drain();
  for (int i = 0; i < 5; ++i) {
    if (i == 2) {
      EXPECT_NE(responses[i].find("\"status\":\"over_budget\""),
                std::string::npos)
          << responses[i];
      EXPECT_NE(responses[i].find("\"exit_code\":4"), std::string::npos);
    } else {
      EXPECT_EQ(chaosStripVolatile(responses[i]), baseline) << i;
    }
  }
}

// ------------------------------------------------------ sandbox chaos --
//
// The crash-containment layer (support/sandbox): native-tier executions
// and toolchain invocations run in fork-isolated children, so a real
// SIGSEGV, a hang, or a toolchain death becomes a structured
// CRASHED/HANG verdict and a quarantined artifact — never a process
// death.  The sandbox.* chaos sites make the child *genuinely* raise the
// signal (or hang), which is why the real-signal tests skip under
// sanitizers: an ASan/TSan child dying on a raw SIGSEGV produces runtime
// noise (and sometimes deadlocks) that has nothing to do with the
// contract under test.  CI runs them in the plain-Release crash-chaos
// job.

bool sandboxSignalChaosSupported() {
  return vsim::nativeToolchainAvailable() && sandbox::available() &&
         !sandbox::sanitizersActive();
}

// Verdict strings embed wall-clock ("wallMs=123"), the one
// nondeterministic field; blank the digits for byte-comparisons.
std::string stripWallMs(std::string s) {
  std::size_t pos = 0;
  while ((pos = s.find("wallMs=", pos)) != std::string::npos) {
    pos += 7;
    std::size_t end = pos;
    while (end < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[end])))
      ++end;
    s.replace(pos, end - pos, "N");
    pos += 1;
  }
  return s;
}

// Single-flow sandboxed cosim: one native build + one run, the light
// harness for per-signal coverage (the CompareEngine variants below cover
// the full ladder).
core::CosimVerification cosimOneNativeSandboxed(bool strict) {
  const auto &w = core::findWorkload("gcd");
  const flows::FlowSpec *flow = flows::findFlow("c2verilog");
  EXPECT_NE(flow, nullptr);
  flows::FlowResult r = flows::runFlow(*flow, w.source, w.top);
  EXPECT_TRUE(r.ok) << r.error;
  return core::cosimAgainstGoldenModel(
      w, r,
      strict ? vsim::SimEngine::NativeStrict : vsim::SimEngine::Native,
      nullptr, nullptr, /*sandboxNative=*/true);
}

std::vector<core::FlowComparison> runGcdSandboxed(vsim::SimEngine engine) {
  core::EngineOptions opts;
  opts.cosim = true;
  opts.vsimEngine = engine;
  opts.sandboxNative = true;
  core::CompareEngine eng(opts);
  flows::FlowTuning serial;
  serial.jobs = 1;
  return eng.compareFlows(core::findWorkload("gcd"), serial);
}

struct WatchdogEnv {
  explicit WatchdogEnv(const char *ms) {
    ::setenv("C2H_SANDBOX_WATCHDOG_MS", ms, 1);
  }
  ~WatchdogEnv() { ::unsetenv("C2H_SANDBOX_WATCHDOG_MS"); }
};

TEST(SandboxChaos, EverySignalSiteYieldsItsSignalNameAndSelfHeals) {
  if (!sandboxSignalChaosSupported())
    GTEST_SKIP() << "needs toolchain + fork sandbox, no sanitizers";
  guard::disarmFaults();
  const std::pair<const char *, const char *> sites[] = {
      {"sandbox.segv", "SIGSEGV"},
      {"sandbox.bus", "SIGBUS"},
      {"sandbox.fpe", "SIGFPE"},
      {"sandbox.abrt", "SIGABRT"},
  };
  for (const auto &[site, signal] : sites) {
    SCOPED_TRACE(site);
    NativeCacheSandbox cache(std::string("sig-") + site);
    ArmedGuard arm(site);
    core::CosimVerification cv = cosimOneNativeSandboxed(false);
    // The child genuinely died on the signal; the ladder absorbed it.
    EXPECT_TRUE(cv.ran);
    EXPECT_TRUE(cv.ok) << cv.detail;
    EXPECT_NE(cv.degradation.find("CRASHED"), std::string::npos)
        << cv.degradation;
    EXPECT_NE(cv.degradation.find(signal), std::string::npos)
        << cv.degradation;
    EXPECT_NE(cv.degradation.find("retried on compiled engine"),
              std::string::npos)
        << cv.degradation;
    EXPECT_EQ(cv.engine, "compiled");
    // The crash-implicated artifact was quarantined on disk.
    EXPECT_EQ(vsim::quarantinedArtifactCount(), 1u);
    EXPECT_NE(cv.fallback.find("quarantined"), std::string::npos)
        << cv.fallback;
  }
  guard::disarmFaults();
}

TEST(SandboxChaos, QuarantineIsHonoredAcrossCacheReloads) {
  if (!sandboxSignalChaosSupported())
    GTEST_SKIP() << "needs toolchain + fork sandbox, no sanitizers";
  guard::disarmFaults();
  NativeCacheSandbox cache("quarantine-reload");
  {
    ArmedGuard arm("sandbox.segv");
    core::CosimVerification cv = cosimOneNativeSandboxed(false);
    EXPECT_TRUE(cv.ok) << cv.detail;
  }
  // A disarmed rerun with the same cache dir and a cleared in-process
  // module cache (a fresh daemon's view): the quarantined .so is never
  // reloaded, the run lands on the bytecode tier with a recorded reason.
  vsim::clearNativeCache();
  core::CosimVerification cv = cosimOneNativeSandboxed(false);
  EXPECT_TRUE(cv.ok) << cv.detail;
  EXPECT_EQ(cv.engine, "compiled");
  EXPECT_NE(cv.fallback.find("quarantined after a prior crash"),
            std::string::npos)
      << cv.fallback;
  // Strict mode surfaces the quarantine instead of descending.
  core::CosimVerification strict = cosimOneNativeSandboxed(true);
  EXPECT_TRUE(strict.ran);
  EXPECT_FALSE(strict.ok);
  EXPECT_NE(strict.detail.find("quarantined"), std::string::npos)
      << strict.detail;
}

TEST(SandboxChaos, ArmedCrashRunsAreDeterministic) {
  if (!sandboxSignalChaosSupported())
    GTEST_SKIP() << "needs toolchain + fork sandbox, no sanitizers";
  guard::disarmFaults();
  // Each armed run gets a FRESH cache dir: quarantine is persistent by
  // design, so a shared dir would make the second run take the
  // (different) quarantine path instead of reproducing the crash.
  core::CosimVerification first, second;
  {
    NativeCacheSandbox cache("det-1");
    ArmedGuard arm("sandbox.segv");
    first = cosimOneNativeSandboxed(false);
  }
  {
    NativeCacheSandbox cache("det-2");
    ArmedGuard arm("sandbox.segv");
    second = cosimOneNativeSandboxed(false);
  }
  EXPECT_EQ(first.ran, second.ran);
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.cycles, second.cycles);
  EXPECT_EQ(first.engine, second.engine);
  EXPECT_EQ(first.fallback, second.fallback);
  EXPECT_EQ(stripWallMs(first.degradation), stripWallMs(second.degradation));
}

TEST(SandboxChaos, StrictEngineSurfacesCrashVerdict) {
  if (!sandboxSignalChaosSupported())
    GTEST_SKIP() << "needs toolchain + fork sandbox, no sanitizers";
  guard::disarmFaults();
  NativeCacheSandbox cache("strict-crash");
  ArmedGuard arm("sandbox.segv");
  core::CosimVerification cv = cosimOneNativeSandboxed(true);
  EXPECT_TRUE(cv.ran);
  EXPECT_FALSE(cv.ok);
  EXPECT_EQ(static_cast<int>(cv.verdict.kind),
            static_cast<int>(guard::Kind::Crashed))
      << cv.detail;
  EXPECT_EQ(cv.verdict.stage, "vsim.native.run");
  EXPECT_NE(cv.detail.find("SIGSEGV"), std::string::npos) << cv.detail;
  // Crashed, not a resource limit: the CLI maps this to exit 1.
  EXPECT_FALSE(cv.verdict.isResourceLimit());
}

TEST(SandboxChaos, FullLadderCrashBlastRadiusIsOneRow) {
  if (!sandboxSignalChaosSupported())
    GTEST_SKIP() << "needs toolchain + fork sandbox, no sanitizers";
  guard::disarmFaults();
  NativeCacheSandbox cache("ladder");
  const auto baseline = runGcdSandboxed(vsim::SimEngine::Native);
  ASSERT_FALSE(baseline.empty());
  for (const auto &r : baseline)
    ASSERT_EQ(static_cast<int>(r.verdict.kind),
              static_cast<int>(guard::Kind::None))
        << r.flowId << ": " << r.note;
  std::vector<core::FlowComparison> armed;
  {
    ArmedGuard arm("sandbox.segv");
    armed = runGcdSandboxed(vsim::SimEngine::Native);
  }
  ASSERT_EQ(armed.size(), baseline.size());
  EXPECT_EQ(countInjected(armed), 0u);
  // The quarantine's blast radius is the ARTIFACT, not the row: flows that
  // emit identical Verilog share one content-hashed .so, so quarantining
  // the crash-implicated artifact legitimately pushes every flow that
  // shares it onto the bytecode tier (with a recorded "quarantined"
  // reason).  What must never change is the answers.
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < armed.size(); ++i) {
    const auto &r = armed[i];
    EXPECT_EQ(r.verified, baseline[i].verified) << r.flowId;
    EXPECT_EQ(r.cosimOk, baseline[i].cosimOk) << r.flowId;
    EXPECT_EQ(r.cosimCycles, baseline[i].cosimCycles) << r.flowId;
    if (!r.degradation.empty()) {
      ++degraded;
      EXPECT_NE(r.degradation.find("CRASHED"), std::string::npos)
          << r.degradation;
    } else if (r.cosimRan && r.cosimEngine == "compiled") {
      EXPECT_NE(r.cosimFallback.find("quarantined"), std::string::npos)
          << r.flowId << ": " << r.cosimFallback;
    } else if (r.cosimRan) {
      EXPECT_EQ(r.cosimEngine, "native") << r.flowId;
    }
  }
  EXPECT_EQ(degraded, 1u) << "exactly one row absorbs the crash";
  guard::disarmFaults();
}

TEST(SandboxChaos, HungChildIsKilledByWatchdogAndLadderRetries) {
  if (!vsim::nativeToolchainAvailable() || !sandbox::available())
    GTEST_SKIP() << "needs toolchain + fork sandbox";
  guard::disarmFaults();
  NativeCacheSandbox cache("hang-run");
  // Warm the artifact first so the armed hang hits the *run* stage, not
  // the toolchain invocation (covered separately below).
  {
    core::CosimVerification warm = cosimOneNativeSandboxed(false);
    ASSERT_TRUE(warm.ok) << warm.detail;
    ASSERT_EQ(warm.engine, "native") << warm.fallback;
  }
  WatchdogEnv wd("400");
  ArmedGuard arm("sandbox.hang");
  core::CosimVerification cv = cosimOneNativeSandboxed(false);
  EXPECT_TRUE(cv.ok) << cv.detail;
  EXPECT_EQ(cv.engine, "compiled");
  EXPECT_NE(cv.degradation.find("HANG"), std::string::npos)
      << cv.degradation;
  EXPECT_NE(cv.degradation.find("killed by watchdog"), std::string::npos)
      << cv.degradation;
  EXPECT_NE(cv.degradation.find("retried on compiled engine"),
            std::string::npos)
      << cv.degradation;
  // A hang quarantines the artifact too: it may spin forever every time.
  EXPECT_EQ(vsim::quarantinedArtifactCount(), 1u);
}

TEST(SandboxChaos, HungToolchainIsKilledByWatchdog) {
  if (!vsim::nativeToolchainAvailable() || !sandbox::available())
    GTEST_SKIP() << "needs toolchain + fork sandbox";
  guard::disarmFaults();
  NativeCacheSandbox cache("hang-cc");
  WatchdogEnv wd("400");
  ArmedGuard arm("sandbox.hang");
  // Cold cache: the first sandboxed stage is the compiler child, which
  // hangs, is watchdog-killed, and degrades like any compile failure.
  core::CosimVerification cv = cosimOneNativeSandboxed(false);
  EXPECT_TRUE(cv.ok) << cv.detail;
  EXPECT_EQ(cv.engine, "compiled");
  EXPECT_NE(cv.fallback.find("native compile hung"), std::string::npos)
      << cv.fallback;
  EXPECT_NE(cv.fallback.find("killed by watchdog"), std::string::npos)
      << cv.fallback;
}

// ------------------------------------------------- sandbox serve chaos --
//
// The daemon-level containment contract: a native child dying on a real
// signal under the (default-sandboxed) service becomes a structured
// `crashed` response, a hang becomes `timeout`, tenant stats account for
// both, the quarantine survives into a fresh service, and concurrent
// clean siblings stay byte-identical.

TEST(SandboxServe, CrashedRequestGetsStructuredStatusAndStats) {
  if (!sandboxSignalChaosSupported())
    GTEST_SKIP() << "needs toolchain + fork sandbox, no sanitizers";
  guard::disarmFaults();
  NativeCacheSandbox cache("serve-crash");
  const std::string inject =
      R"({"id":"i","op":"cosim","workload":"gcd",)"
      R"("vsim_engine":"native-strict","timing":false,"no_cache":true})";
  {
    serve::CosimService service;
    ASSERT_TRUE(service.options().sandboxNative);
    guard::armFault("sandbox.segv");
    std::string crashed = service.handleLine(inject);
    guard::disarmFaults();
    EXPECT_NE(crashed.find("\"status\":\"crashed\""), std::string::npos)
        << crashed;
    EXPECT_NE(crashed.find("\"exit_code\":1"), std::string::npos) << crashed;
    EXPECT_NE(crashed.find("\"kind\":\"CRASHED\""), std::string::npos)
        << crashed;
    std::string stats = service.handleLine(R"({"op":"stats"})");
    EXPECT_NE(stats.find("\"crashed\":1"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"quarantined_artifacts\":1"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"crashes\":1"), std::string::npos) << stats;
  }
  // A FRESH service (new process's worth of state) honors the quarantine:
  // the non-strict request self-heals onto the bytecode tier, status ok.
  vsim::clearNativeCache();
  serve::CosimService fresh;
  std::string healed = fresh.handleLine(
      R"({"id":"h","op":"cosim","workload":"gcd","vsim_engine":"native",)"
      R"("timing":false,"no_cache":true})");
  EXPECT_NE(healed.find("\"status\":\"ok\""), std::string::npos) << healed;
  EXPECT_NE(healed.find("quarantined after a prior crash"),
            std::string::npos)
      << healed;
}

TEST(SandboxServe, MixedLoadCrashBlastRadiusIsOne) {
  if (!sandboxSignalChaosSupported())
    GTEST_SKIP() << "needs toolchain + fork sandbox, no sanitizers";
  guard::disarmFaults();
  NativeCacheSandbox cache("serve-mixed");
  serve::ServiceOptions options;
  options.jobs = 4;
  serve::CosimService service(options);
  // Clean siblings use the compiled engine: quarantine after the injected
  // crash must not change their answers (byte-identity is the proof).
  const std::string clean =
      R"({"id":"c","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  const std::string inject =
      R"({"id":"i","op":"cosim","workload":"gcd",)"
      R"("vsim_engine":"native-strict","timing":false,"no_cache":true})";
  std::string baseline = chaosStripVolatile(service.handleLine(clean));
  guard::armFault("sandbox.segv");
  constexpr int kRequests = 6;
  std::vector<std::string> responses(kRequests);
  std::mutex mutex;
  for (int i = 0; i < kRequests; ++i)
    service.submitAsync(i == 2 ? inject : clean, [&, i](std::string r) {
      std::lock_guard<std::mutex> lock(mutex);
      responses[i] = std::move(r);
    });
  service.drain();
  guard::disarmFaults();
  for (int i = 0; i < kRequests; ++i) {
    if (i == 2) {
      EXPECT_NE(responses[i].find("\"status\":\"crashed\""),
                std::string::npos)
          << responses[i];
      continue;
    }
    EXPECT_EQ(chaosStripVolatile(responses[i]), baseline) << i;
  }
}

TEST(SandboxServe, HungNativeRunBecomesTimeoutStatus) {
  if (!vsim::nativeToolchainAvailable() || !sandbox::available())
    GTEST_SKIP() << "needs toolchain + fork sandbox";
  guard::disarmFaults();
  NativeCacheSandbox cache("serve-hang");
  serve::CosimService service;
  const std::string native =
      R"({"id":"w","op":"cosim","workload":"gcd",)"
      R"("vsim_engine":"native-strict","timing":false,"no_cache":true})";
  // Warm build, then a hung run under a tight watchdog.
  std::string warm = service.handleLine(native);
  ASSERT_NE(warm.find("\"status\":\"ok\""), std::string::npos) << warm;
  WatchdogEnv wd("400");
  guard::armFault("sandbox.hang");
  std::string hung = service.handleLine(native);
  guard::disarmFaults();
  EXPECT_NE(hung.find("\"status\":\"timeout\""), std::string::npos) << hung;
  EXPECT_NE(hung.find("\"exit_code\":4"), std::string::npos) << hung;
  EXPECT_NE(hung.find("\"kind\":\"HANG\""), std::string::npos) << hung;
  std::string stats = service.handleLine(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"timeouts\":1"), std::string::npos) << stats;
}

// ------------------------------------------------------ verify budgets --

TEST(VerifyBudget, DefaultInterpreterBudgetIsFinite) {
  // core/verify's golden-model runs use InterpOptions' defaults: a
  // non-terminating workload must hit a real step budget, not hang.
  InterpOptions defaults;
  EXPECT_GT(defaults.maxSteps, 0u);
}

TEST(VerifyBudget, LongRunningGoldenModelTripsSharedMeter) {
  core::Workload w;
  w.name = "longloop";
  w.source = "int main(int n) {\n"
             "  int i; int acc;\n"
             "  acc = 0; i = 0;\n"
             "  while (i < 1000000) { acc = acc + i; i = i + 1; }\n"
             "  return acc;\n"
             "}\n";
  w.top = "main";
  w.args = {1};

  const flows::FlowSpec *flow = flows::findFlow("c2verilog");
  ASSERT_NE(flow, nullptr);
  flows::FlowResult r = flows::runFlow(*flow, w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;

  guard::BudgetSpec spec;
  spec.maxSteps = 10'000;
  guard::ExecBudget meter(spec);
  core::Verification v = core::verifyAgainstGoldenModel(w, r, &meter);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(static_cast<int>(v.verdict.kind),
            static_cast<int>(guard::Kind::StepLimit))
      << v.detail;
  EXPECT_NE(v.detail.find("step budget"), std::string::npos) << v.detail;
}

} // namespace
} // namespace c2h
