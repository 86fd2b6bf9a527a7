// Crash containment: fork-isolated execution of the stages that can take
// the whole process down with them.
//
// Two stages in the stack run code the daemon cannot vouch for: a native
// simulation run executes a dlopen'd, JIT-compiled shared object, and the
// native build pipeline execs the host C++ compiler.  In-process, a real
// SIGSEGV in generated code or a hung $C2H_NATIVE_CXX kills every tenant's
// in-flight request at once.  This layer supervises both:
//
//  * runInChild(body)  — fork a single-purpose worker, run `body` there,
//    and pipe its serialized result back.  The child dying on
//    SIGSEGV/SIGBUS/SIGFPE/SIGABRT becomes a structured Crashed outcome in
//    the parent; the parent process never sees the signal.
//  * runCommand(argv)  — fork+exec a toolchain invocation with stderr
//    captured to a file.
//
// Both enforce a per-stage wall-clock watchdog (one graceful SIGTERM, then
// SIGKILL after a grace period — a hung child becomes a Timeout outcome),
// and rlimit caps in the child: cores off always, CPU seconds derived from
// the watchdog, and an optional address-space ceiling of "current usage
// plus headroom" (absolute caps would break under large parents).
//
// Chaos integration: five fault sites — sandbox.{segv,bus,fpe,abrt,hang} —
// make the *child* genuinely raise the corresponding signal (or hang in a
// pause() loop), so the containment path is exercised by real signals, not
// cooperative throws.  The sites are hit in the PARENT before forking, so
// arming/nth accounting stays deterministic and a fired site is consumed
// by exactly one supervised execution.
//
// Forking from a multithreaded parent (the serve pool) is deliberate and
// safe here: the child runs only self-contained simulation code plus
// glibc's post-fork-reinitialized malloc, touches no pool or registry
// locks, and leaves via _Exit.
#ifndef C2H_SUPPORT_SANDBOX_H
#define C2H_SUPPORT_SANDBOX_H

#include "support/guard.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace c2h::sandbox {

struct Options {
  // Wall-clock watchdog for the child; 0 = no watchdog.  On overrun the
  // parent sends SIGTERM, waits graceMs, then SIGKILLs.
  std::uint64_t timeoutMs = 0;
  std::uint64_t graceMs = 200;
  // RLIMIT_CPU in the child (seconds); 0 = unlimited.  An overrun kills
  // the child with SIGXCPU, reported as a Timeout outcome.
  std::uint64_t cpuSeconds = 0;
  // When nonzero, cap the child's address space at its current usage plus
  // this headroom (RLIMIT_AS).  0 = no cap.
  std::uint64_t memHeadroomBytes = 0;
};

enum class Status : std::uint8_t {
  Ok,      // child exited 0 with a complete payload
  Crashed, // child terminated by a real signal (SEGV/BUS/FPE/ABRT/...)
  Timeout, // watchdog or RLIMIT_CPU killed a hung child
  Error,   // child reported an error, exited nonzero, or fork/pipe failed
};

struct Outcome {
  Status status = Status::Error;
  int exitCode = -1;   // valid when the child exited normally
  int termSignal = 0;  // valid when status == Crashed
  std::string payload; // child's serialized result (complete only for Ok)
  std::string detail;  // human-readable cause (signal name, watchdog, ...)

  bool ok() const { return status == Status::Ok; }
  // Structured verdict for the two containment outcomes: Kind::Crashed for
  // a real signal, Kind::Hang for a watchdog/CPU-limit kill, Kind::None
  // otherwise.  `site` should name the implicated artifact or command.
  guard::Verdict verdict(const char *stage, std::string site) const;
};

// True when fork-based isolation exists on this platform.  When false,
// runInChild degrades to unisolated in-process execution (the pre-sandbox
// behavior) and runCommand refuses.
bool available();

// True when the binary was built with ASan/TSan/MSan: real-signal chaos
// tests skip themselves, since sanitizers intercept the signals the
// sandbox is supposed to contain.
bool sanitizersActive();

// "SIGSEGV", "SIGBUS", ... or "signal <n>" for anything unnamed.
const char *signalName(int sig);

// Resolve the effective watchdog for a supervised stage: `defaultMs`
// (overridable via $C2H_SANDBOX_WATCHDOG_MS), clamped to the remaining
// wall budget (+ slack, so a live child's cooperative deadline check wins
// over the watchdog kill) when `budget` carries a wall deadline.
std::uint64_t watchdogMs(std::uint64_t defaultMs,
                         const guard::ExecBudget *budget);

// Run `body` in a fork-isolated child; its returned string is piped back
// as Outcome::payload.  Exceptions escaping `body` become Status::Error
// with the message in `detail`.  Consumes an armed sandbox.* fault site
// (checked in the parent, applied in the child as a genuine signal/hang).
Outcome runInChild(const std::function<std::string()> &body,
                   const Options &options);

// Fork+exec `argv` (argv[0] = absolute executable path) with stdout and
// stderr redirected to `stderrPath` (empty = inherit), under the same
// watchdog/rlimit regime.  Consumes an armed sandbox.hang site (a hung
// toolchain); the real-signal sites do not apply to commands.
Outcome runCommand(const std::vector<std::string> &argv,
                   const std::string &stderrPath, const Options &options);

} // namespace c2h::sandbox

#endif // C2H_SUPPORT_SANDBOX_H
