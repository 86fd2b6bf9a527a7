// Stage replay: the traced run's copy of the library's cell pipeline, made of
// the same public calls in the same order, each wrapped in a span.
//
//  * replayFrontend mirrors a FrontendCache::get miss (core/engine.cpp):
//    frontend(), then the analyzer over an inlined, lowered clone.
//  * replayFlow mirrors flows::runFlowChecked (flows/flows.cpp) stage by
//    stage: analyzeFeatures, preflightFlow, inlineFunctions, unrollLoops,
//    lowerToIR, checkRanges, optimizeModule, pruneDeadBranches,
//    stackifyRecursion / ifConvert, buildDesign, estimateArea/estimateTiming
//    or buildCircuitInfo.
//  * replayCosim mirrors core::cosimAgainstGoldenModel with the vsim work
//    split out: interpreter, FSMD simulator, Cosimulation construction
//    (emit+parse+elaborate) and first run (compile+run), plus probe spans for
//    a hot rerun and a separate emitVerilog/parseVerilog/elaborate/
//    compileModel split.
//
// A replay that diverges from the library measures a different program, so
// the traced run compares every replayed cell against runFlowChecked's.
// When flows.cpp changes, this file must follow it.
#ifndef C2HBENCH_REPLAY_H
#define C2HBENCH_REPLAY_H

#include "trace.h"

#include "core/c2h.h"
#include "core/engine.h"

#include <cstdint>
#include <memory>
#include <string>

namespace c2hbench {

// A FrontendCache::get miss: frontend(), then the analyzer over an inlined,
// lowered clone.  `program` is null when the front end failed.
std::shared_ptr<c2h::core::FrontendCache::Entry>
replayFrontend(Tracer &tracer, std::uint64_t job, const std::string &source,
               const std::string &top);

// IR sizes (per_layer counts): the raw lowered IR, before any optimization,
// and the final IR the backend gets.
struct FlowCounts {
  std::uint64_t irInstrs = 0, irBlocks = 0, instrsAfter = 0;
};

c2h::flows::FlowResult replayFlow(Tracer &tracer, std::uint64_t job,
                                  const c2h::flows::FlowSpec &spec,
                                  c2h::ast::Program &program,
                                  c2h::TypeContext &types,
                                  const std::string &top, FlowCounts &counts,
                                  const c2h::flows::FlowTuning &tuning = {});

// Counters the cosim replay accumulates (per_layer counts).
struct CosimCounts {
  std::uint64_t fsmdCycles = 0;
  std::uint64_t vsimCycles = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t verilogBytes = 0;
};

// Probe span "vsim.split": emitVerilog, parseVerilog, elaborate and
// compileModel again for `design`, each in its own span.
void probeVsimSplit(Tracer &tracer, std::uint64_t job,
                    const c2h::rtl::Design &design, CosimCounts &counts);

c2h::core::CosimVerification
replayCosim(Tracer &tracer, std::uint64_t job,
            const c2h::core::Workload &workload,
            const c2h::flows::FlowResult &result,
            const c2h::ast::Program &golden, CosimCounts &counts);

// What a replayed cell must reproduce of runFlowChecked's result: accepted,
// instruction count, golden-model cycles, area and emitted Verilog text.
struct CellPrint {
  bool accepted = false, ok = false;
  std::uint64_t instrs = 0, cycles = 0, verilogHash = 0;
  double area = 0;
  bool operator==(const CellPrint &) const = default;
};
CellPrint fingerprint(const c2h::flows::FlowResult &result,
                      std::uint64_t cycles);

// What replayJob must reproduce: the library's own calls for `workload`
// (FrontendCache::get, then runFlowChecked and verifyAgainstGoldenModel for
// every flow), one CellPrint per flow; empty when the front end fails.
std::vector<CellPrint> libraryPrints(const c2h::core::Workload &workload);

// One whole compare job replayed under the open span: replayFrontend, then
// for every flow a "cell" span holding the AST clone, the "flow" replay,
// "core.golden" (verifyAgainstGoldenModel) and replayCosim.  Appends one
// CellPrint per flow to `prints` and returns the first failure, if any.
std::string replayJob(Tracer &tracer, std::uint64_t job,
                      const c2h::core::Workload &workload, FlowCounts &flows,
                      CosimCounts &cosim, std::vector<CellPrint> &prints);

// True when `got` holds the interpreter's final contents `expect` of global
// `name`; narrower storage is extended by the declared type's signedness,
// as core::verifyAgainstGoldenModel does.
bool globalMatches(const c2h::ast::Program &golden, const std::string &name,
                   const std::vector<c2h::BitVector> &expect,
                   const std::vector<c2h::BitVector> &got);

// The native vsim tier (host-compiled shared objects), which no other path
// of the benchmark runs: every distinct synchronous design of `workloads`
// (runFlowChecked, outside any span) is run on SimEngine::Native under
// probe spans "vsim.native_build" (first run: host compile into the
// artifact cache, which run.py makes fresh per run, plus the run; every
// first run also lowers the model and emits its C++),
// "vsim.native_run" (a rerun) and, after the in-process module cache is
// dropped, "vsim.native_load" (first run served from the disk cache).
// Sets values["vsim.native_build_ms"], ["vsim.native_load_ms"] and
// ["vsim.native_run_ms"] to per-design means over the designs the tier
// built; designs outside the native subset are left out.  Fails `result`
// when a native run disagrees with the bytecode engine on value or cycles,
// or when the tier built no design.  At most `maxDesigns` designs are
// probed, the first in workload and flow order.
void probeNative(Tracer &tracer,
                 const std::vector<c2h::core::Workload> &workloads,
                 std::map<std::string, double> &values, Result &result,
                 std::size_t maxDesigns = SIZE_MAX);

// Sends `workloads` at once, as cosim requests, to a fresh CosimService with
// nproc workers, and records each as a probe "serve.request" root span with
// "serve.queue" and "serve.run" children placed from the response's timing:
// the traced runs of the non-serve workloads measure the daemon path for
// their own programs this way.  Sets values["serve.queue_ms"] and
// values["serve.run_ms"] to the per-request means; fails `result` on a
// response the oracle rejects.
void probeService(Tracer &tracer, const Options &options,
                  const std::vector<c2h::core::Workload> &workloads,
                  std::map<std::string, double> &values, Result &result);

} // namespace c2hbench

#endif // C2HBENCH_REPLAY_H
