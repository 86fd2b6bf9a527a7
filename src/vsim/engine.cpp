#include "vsim/engine.h"

#include "vsim/compile.h"
#include "vsim/jit.h"

#include <iterator>

namespace c2h::vsim {

namespace {

// The one engine-name table, indexed by SimEngine.
constexpr const char *kEngineNames[] = {
    "event", "compiled", "compiled-strict", "native", "native-strict",
};
constexpr std::size_t kEngineCount = std::size(kEngineNames);
static_assert(kEngineCount ==
              static_cast<std::size_t>(SimEngine::NativeStrict) + 1);

bool wantsNative(SimEngine engine) {
  return engine == SimEngine::Native || engine == SimEngine::NativeStrict;
}

} // namespace

guard::Stage stageEventRun("vsim.event.run");
guard::Stage stageCompiledRun("vsim.compiled.run");
guard::Stage stageNativeRun("vsim.native.run");

const char *simEngineName(SimEngine engine) {
  return kEngineNames[static_cast<std::size_t>(engine)];
}

std::optional<SimEngine> parseSimEngine(std::string_view name) {
  for (std::size_t i = 0; i < kEngineCount; ++i)
    if (name == kEngineNames[i])
      return static_cast<SimEngine>(i);
  return std::nullopt;
}

std::string simEngineChoices(SimEngine first) {
  std::string out;
  const std::size_t start = static_cast<std::size_t>(first);
  for (std::size_t i = 0; i < kEngineCount; ++i) {
    if (i != 0)
      out += i + 1 == kEngineCount ? ", or " : ", ";
    out += kEngineNames[(start + i) % kEngineCount];
  }
  return out;
}

std::optional<SimEngine>
EngineRungs::resolve(const std::shared_ptr<Model> &model, SimEngine engine,
                     const guard::ExecBudget *budget) {
  if (engine == SimEngine::Event)
    return SimEngine::Event;
  if (!triedCompile) {
    triedCompile = true;
    std::string why;
    try {
      compiled = compileModel(model, why);
    } catch (const guard::Trip &e) {
      // An injected compile fault behaves like a failed compile: the
      // ladder's first rung is missing, with the fault as the reason.
      // (compileModel takes no budget, so nothing else can trip here.)
      compiled = nullptr;
      why = e.verdict.str();
      compileVerdict = e.verdict;
    }
    if (!compiled)
      compileNote = why;
  }
  if (!compiled)
    return isStrict(engine) ? std::nullopt
                            : std::optional<SimEngine>(SimEngine::Event);
  if (!wantsNative(engine))
    return SimEngine::Compiled;
  // Second rung: lower the levelized program to host code.  Any failure
  // (subset, toolchain, build, load, injected jit fault) is a recorded
  // reason and leaves the run on the bytecode VM.
  if (!triedNative) {
    triedNative = true;
    std::string why;
    try {
      native = compileNative(*compiled, why, budget);
    } catch (const guard::Trip &e) {
      if (e.verdict.kind != guard::Kind::InjectedFault)
        throw;
      native = nullptr;
      why = e.verdict.str();
      nativeVerdict = e.verdict;
    }
    if (!native)
      nativeNote = why;
  }
  if (!native)
    return isStrict(engine) ? std::nullopt
                            : std::optional<SimEngine>(SimEngine::Compiled);
  return SimEngine::Native;
}

std::string EngineRungs::strictError(SimEngine engine) const {
  return std::string("vsim: ") + simEngineName(engine) + ": " +
         fallbackNote();
}

} // namespace c2h::vsim
