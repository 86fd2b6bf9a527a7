// Resource-guarded execution: budgets, structured failure verdicts, and the
// one list of named stages shared by every long-running step.
//
// The engine runs hostile workloads — unbounded recursion, runaway unrolling,
// combinational loops — so every stage that can spin (frontend, unroller,
// schedulers, interpreter, rtl::Simulator, the vsim engines) charges its
// work against a shared ExecBudget.  A budget trip or an injected fault
// throws a Trip *inside* the stage; the stage boundary catches it and turns
// its Verdict into a field of its result object.  Nothing guard-related
// ever propagates past a stage boundary.
//
// Stages: each is one guard::Stage object declared at namespace scope,
// named "layer.step" ("flow.inline", "vsim.compiled.run").  Its name is
// what budget charges, deadline checks and hand-built verdicts carry, and
// its entry (Stage::enter) is the stage's only fault point.  Unarmed, an
// entry costs one relaxed atomic load of a process-global counter.  Armed
// (armFault("name", nth)), the nth entry throws InjectedFault.  Stages
// self-register at construction, so a binary's registry (c2hc
// --list-fault-sites) names every stage it links without running any.
#ifndef C2H_SUPPORT_GUARD_H
#define C2H_SUPPORT_GUARD_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace c2h::guard {

// ---------------------------------------------------------------------------
// Verdict: the single structured failure record for resource/fault events.
// ---------------------------------------------------------------------------

enum class Kind : std::uint8_t {
  None = 0,      // no guard event; the stage completed (or failed on its own)
  Timeout,       // wall-clock deadline exceeded
  StepLimit,     // interpreter/scheduler step budget exhausted
  CycleLimit,    // simulator cycle budget exhausted
  AllocLimit,    // allocation high-water mark exceeded
  InjectedFault, // an armed stage entry fired
  CombLoop,      // vsim combinational loop (loop nets in `site`)
  Deadlock,      // no process advanced within the stall limit
  IoError,       // guarded file I/O failed ($readmemh etc.)
  Crashed,       // sandboxed child died on a real signal (SEGV/BUS/FPE/ABRT)
  Hang,          // sandboxed child overran its watchdog and was killed
};

const char *kindName(Kind k);

struct Verdict {
  Kind kind = Kind::None;
  std::string stage; // a Stage name: "interp", "vsim.event.run", "flow.unroll"
  std::string site;  // stage name, loop nets, or file path — kind-specific
  std::uint64_t steps = 0;
  std::uint64_t cycles = 0;
  std::uint64_t allocBytes = 0;
  std::uint64_t wallMs = 0;

  bool ok() const { return kind == Kind::None; }
  // True for the Kinds that map to c2hc exit code 4 (resource-limit).
  bool isResourceLimit() const {
    return kind == Kind::Timeout || kind == Kind::StepLimit ||
           kind == Kind::CycleLimit || kind == Kind::AllocLimit ||
           kind == Kind::CombLoop || kind == Kind::Deadlock ||
           kind == Kind::Hang;
  }
  // One-line human rendering: "TIMEOUT at verify.interp (steps=..., wallMs=...)".
  std::string str() const;
};

// ---------------------------------------------------------------------------
// Trip: the one exception thrown *inside* stages, caught at stage boundaries.
// ---------------------------------------------------------------------------

class Trip : public std::runtime_error {
public:
  explicit Trip(Verdict v)
      : std::runtime_error(v.str()), verdict(std::move(v)) {}
  Verdict verdict;
};

// What ExecBudget throws, and what an armed stage entry throws.  Catch
// Trip; the names exist for code that must tell the two apart by type.
struct BudgetExceeded : Trip { using Trip::Trip; };
struct InjectedFault : Trip { using Trip::Trip; };

// ---------------------------------------------------------------------------
// ExecBudget: shared, thread-safe resource meter for one engine cell.
// ---------------------------------------------------------------------------

struct BudgetSpec {
  std::uint64_t maxSteps = 0;      // 0 = unlimited
  std::uint64_t maxCycles = 0;     // 0 = unlimited
  std::uint64_t maxAllocBytes = 0; // 0 = unlimited
  std::uint64_t wallMs = 0;        // 0 = no deadline
};

class ExecBudget {
public:
  explicit ExecBudget(BudgetSpec spec = {});

  // Charge methods throw BudgetExceeded when the corresponding limit trips.
  // `stage` is the charging Stage's name().  Charging is monotonic and
  // shared: the interp steps and a later vsim retry draw from the same pool.
  void chargeSteps(std::uint64_t n, const char *stage);
  void chargeCycles(std::uint64_t n, const char *stage);
  void chargeAlloc(std::uint64_t bytes, const char *stage);
  // Deadline check; cheap enough for per-1k-iteration polling.
  void checkDeadline(const char *stage);

  std::uint64_t stepsUsed() const { return steps_.load(std::memory_order_relaxed); }
  std::uint64_t cyclesUsed() const { return cycles_.load(std::memory_order_relaxed); }
  std::uint64_t allocUsed() const { return alloc_.load(std::memory_order_relaxed); }
  std::uint64_t elapsedMs() const;
  const BudgetSpec &spec() const { return spec_; }

private:
  // Throw BudgetExceeded with the consumed counters in its verdict.
  [[noreturn]] void trip(Kind kind, const char *stage) const;

  BudgetSpec spec_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> alloc_{0};
};

// ---------------------------------------------------------------------------
// Stages and the fault-injection registry.
// ---------------------------------------------------------------------------

class Stage {
public:
  // `name` must be a string literal ("layer.step", see DESIGN.md).  Declare
  // stages at namespace scope so the registry lists them before any code
  // path runs.
  explicit Stage(const char *name);

  // The stage's entry: its fault point, then `budget`'s deadline check.
  // Unarmed and without a budget, one relaxed load.
  void enter(ExecBudget *budget = nullptr) {
    if (anyArmed().load(std::memory_order_relaxed) != 0)
      hitSlow();
    if (budget)
      budget->checkDeadline(name_);
  }

  const char *name() const { return name_; }

private:
  void hitSlow();
  static std::atomic<int> &anyArmed();

  const char *name_;
  std::atomic<std::uint64_t> hits_{0};
  Stage *next_ = nullptr; // intrusive registry list

  friend void armFault(const std::string &, std::uint64_t);
  friend void disarmFaults();
  friend std::vector<std::string> allFaultSites();
  friend bool anyFaultArmed();
};

// Arm stage `site` to throw InjectedFault on its `nth` entry (1-based;
// default first).  Resets every stage's entry counter so reruns are
// deterministic.  Throws std::invalid_argument for an unregistered name.
void armFault(const std::string &site, std::uint64_t nth = 1);
// Disarm everything and reset entry counters.
void disarmFaults();
// Sorted names of every registered stage.
std::vector<std::string> allFaultSites();
// True while any stage is armed.  Caches consult this to bypass themselves
// and the comparison engine to run its cells serially, so an armed stage
// stays reachable and its nth entry is the same cell on every run (a cache
// hit would skip the guarded code path; parallel cells would race for the
// nth entry).
bool anyFaultArmed();

// ---------------------------------------------------------------------------
// Shims.
// ---------------------------------------------------------------------------

// Allocation shim: charge a large transient allocation against `budget`
// (nullptr budget = unmetered) and enter the guard.alloc stage.
void noteAlloc(ExecBudget *budget, std::uint64_t bytes, const char *stage);

// File-read shim for $readmemh/$readmemb and friends, entered as `stage`:
// reads the whole file, returning false with a structured verdict on
// failure (IoError for a missing or unreadable file; InjectedFault when
// `stage` or guard.io.read is armed).
bool readFile(const std::string &path, std::string &out, Verdict &verdict,
              Stage &stage);

} // namespace c2h::guard

#endif // C2H_SUPPORT_GUARD_H
