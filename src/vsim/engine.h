// Engine selection for vsim co-simulation.
//
// Three interchangeable backends execute an elaborated Model behind the
// same poke/peek/tick/settle interface:
//  * Event    — the reference two-phase event-driven evaluator (sim.h),
//  * Compiled — the cycle-compiled levelized bytecode VM (compile.h/cvm.h),
//  * Native   — the levelized program lowered to specialized C++, built
//    with the host toolchain into a dlopen'ed shared object (emitcpp.h/
//    jit.h), so per-op dispatch disappears entirely.
// Every tier must agree with the one below on values, globals, $display
// output, and exact cycle counts for every accepted design; the ladder
// degrades native -> bytecode -> event with a recorded reason per rung.
//
// This header holds the whole ladder vocabulary: the engine-name table
// (the CLI flag, serve requests, response-cache keys and comparison rows
// all spell engines through it), each engine's run stage, and
// EngineRungs, the one rung resolver.
// It pulls in no simulator header, so core/engine.h can carry the choice
// in EngineOptions cheaply.
#ifndef C2H_VSIM_ENGINE_H
#define C2H_VSIM_ENGINE_H

#include "support/guard.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace c2h::vsim {

struct Model;
struct CompiledModel;
class NativeModule;

enum class SimEngine {
  Event,    // reference evaluator
  Compiled, // levelized bytecode VM (falls back to Event when a model
            // uses constructs outside the compilable subset)
  CompiledStrict, // bytecode VM with the fallback ladder disarmed: any
                  // compile failure or guard-triggered retry is an error
                  // instead of a silent downgrade.  The contract-checking
                  // mode bench_cosim and CI run to keep the compiled
                  // subset equal to the event subset.
  Native, // host-compiled shared object; falls back to the bytecode VM
          // (then Event) with a recorded reason when the design is outside
          // the native subset, no host compiler is available, or the
          // build/load fails
  NativeStrict, // native tier with the fallback ladder disarmed: any
                // fallback — levelization failure, missing toolchain,
                // emit/compile/load failure, or guard-triggered retry —
                // is an error.  The contract-checking mode for the
                // native-tier registry sweep.
};

// The engine's spelling on the CLI, in serve requests and in comparison
// rows: "event", "compiled", "compiled-strict", "native", "native-strict".
const char *simEngineName(SimEngine engine);
// Inverse of simEngineName; std::nullopt for any other name.
std::optional<SimEngine> parseSimEngine(std::string_view name);
// Every name as "a, b, c, d, or e", in table order rotated to start at
// `first` — the list the CLI and serve error texts quote.
std::string simEngineChoices(SimEngine first);

// Each engine's run stage: Cosimulation enters it when a run starts, and
// the engine's budget charges and verdicts carry its name.
extern guard::Stage stageEventRun;    // "vsim.event.run"
extern guard::Stage stageCompiledRun; // "vsim.compiled.run"
extern guard::Stage stageNativeRun;   // "vsim.native.run"

// True for the engines whose ladder is disarmed (any descent is an error).
inline bool isStrict(SimEngine engine) {
  return engine == SimEngine::CompiledStrict ||
         engine == SimEngine::NativeStrict;
}

// The ladder's built rungs for one elaborated model, and the one policy
// that builds them: compile to bytecode, then (for the native engines)
// build the host shared object, each at most once, recording why a rung
// is missing.  A plain value so a Cosimulation and a ModelCache entry can
// copy it whole.  Guard-trip retries at run time stay with the caller.
struct EngineRungs {
  bool triedCompile = false;
  std::shared_ptr<const CompiledModel> compiled;
  std::string compileNote;        // why `compiled` is missing
  guard::Verdict compileVerdict;  // injected vsim.compile fault, if any
  bool triedNative = false;
  std::shared_ptr<const NativeModule> native;
  std::string nativeNote;         // why `native` is missing
  guard::Verdict nativeVerdict;   // injected vsim.jit.* fault, if any

  // Build the rungs `engine` needs that were not tried yet (the host
  // compile runs under `budget`'s watchdog) and return the engine a run
  // lands on: Event, Compiled or Native.  std::nullopt when a strict
  // engine's rung is missing; strictError()/failedVerdict() say why.
  std::optional<SimEngine> resolve(const std::shared_ptr<Model> &model,
                                   SimEngine engine,
                                   const guard::ExecBudget *budget = nullptr);
  // The recorded reason of the rung that stopped the ladder: the compile
  // note when there is no bytecode model, else the native note.
  const std::string &fallbackNote() const {
    return compiled ? nativeNote : compileNote;
  }
  const guard::Verdict &failedVerdict() const {
    return compiled ? nativeVerdict : compileVerdict;
  }
  // "vsim: compiled-strict: <note>" / "vsim: native-strict: <note>".
  std::string strictError(SimEngine engine) const;
};

} // namespace c2h::vsim

#endif // C2H_VSIM_ENGINE_H
