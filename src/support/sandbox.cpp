#include "support/sandbox.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#if !defined(_WIN32)
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace c2h::sandbox {

// ---------------------------------------------------------------------------
// Chaos stages.
//
// These are the registry's only *real-signal* stages: armed, they make the
// supervised child genuinely segfault / raise / hang, exercising the actual
// kernel-level containment path rather than a cooperative throw.  They are
// entered in the parent before fork so the nth-entry accounting is
// deterministic; the resulting trip is caught locally and converted into a
// directive the child applies after fork.
// ---------------------------------------------------------------------------

namespace {

guard::Stage stageSegv("sandbox.segv");
guard::Stage stageBus("sandbox.bus");
guard::Stage stageFpe("sandbox.fpe");
guard::Stage stageAbrt("sandbox.abrt");
guard::Stage stageHang("sandbox.hang");

enum class Directive : std::uint8_t { None, Segv, Bus, Fpe, Abrt, Hang };

// Check the armed sandbox stages.  `realSignals` selects whether the
// crash-signal stages apply (runInChild) or only the hang stage (runCommand —
// we can't make an exec'd toolchain segfault, but we can refuse to exec and
// hang in its place).
Directive pollDirective(bool realSignals) {
  struct Probe {
    guard::Stage &stage;
    Directive directive;
    bool signalSite;
  };
  Probe probes[] = {
      {stageSegv, Directive::Segv, true}, {stageBus, Directive::Bus, true},
      {stageFpe, Directive::Fpe, true},   {stageAbrt, Directive::Abrt, true},
      {stageHang, Directive::Hang, false},
  };
  for (Probe &p : probes) {
    if (p.signalSite && !realSignals)
      continue;
    try {
      p.stage.enter();
    } catch (const guard::Trip &) {
      return p.directive;
    }
  }
  return Directive::None;
}

} // namespace

// ---------------------------------------------------------------------------
// Small queries.
// ---------------------------------------------------------------------------

bool available() {
#if defined(_WIN32)
  return false;
#else
  return true;
#endif
}

bool sanitizersActive() {
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(memory_sanitizer)
  return true;
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#endif
  return false;
}

const char *signalName(int sig) {
#if !defined(_WIN32)
  switch (sig) {
  case SIGSEGV: return "SIGSEGV";
  case SIGBUS: return "SIGBUS";
  case SIGFPE: return "SIGFPE";
  case SIGABRT: return "SIGABRT";
  case SIGILL: return "SIGILL";
  case SIGTERM: return "SIGTERM";
  case SIGKILL: return "SIGKILL";
  case SIGXCPU: return "SIGXCPU";
  case SIGPIPE: return "SIGPIPE";
  case SIGINT: return "SIGINT";
  default: break;
  }
#endif
  static thread_local char buf[32];
  std::snprintf(buf, sizeof(buf), "signal %d", sig);
  return buf;
}

std::uint64_t watchdogMs(std::uint64_t defaultMs,
                         const guard::ExecBudget *budget) {
  std::uint64_t ms = defaultMs;
  if (const char *env = std::getenv("C2H_SANDBOX_WATCHDOG_MS")) {
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end && *end == '\0' && v > 0)
      ms = static_cast<std::uint64_t>(v);
  }
  if (budget && budget->spec().wallMs != 0) {
    // Leave slack past the wall deadline so a *live* child trips its own
    // cooperative checkDeadline (precise Timeout verdict) before the
    // watchdog kills it; the watchdog then only fires for a truly hung
    // child that stopped polling.
    std::uint64_t elapsed = budget->elapsedMs();
    std::uint64_t wall = budget->spec().wallMs;
    std::uint64_t remaining = wall > elapsed ? wall - elapsed : 1;
    std::uint64_t clamp = remaining + 250;
    if (ms == 0 || clamp < ms)
      ms = clamp;
  }
  return ms;
}

guard::Verdict Outcome::verdict(const char *stage, std::string site) const {
  guard::Verdict v;
  switch (status) {
  case Status::Crashed: v.kind = guard::Kind::Crashed; break;
  case Status::Timeout: v.kind = guard::Kind::Hang; break;
  default: return v;
  }
  v.stage = stage;
  v.site = std::move(site);
  return v;
}

#if defined(_WIN32)

Outcome runInChild(const std::function<std::string()> &body,
                   const Options &options) {
  // No fork on this platform: run unisolated, preserving pre-sandbox
  // behavior (a crash here is a crash, exactly as before).
  (void)options;
  Outcome oc;
  try {
    oc.payload = body();
    oc.status = Status::Ok;
    oc.exitCode = 0;
  } catch (const std::exception &e) {
    oc.status = Status::Error;
    oc.detail = e.what();
  }
  return oc;
}

Outcome runCommand(const std::vector<std::string> &, const std::string &,
                   const Options &) {
  Outcome oc;
  oc.status = Status::Error;
  oc.detail = "sandboxed command execution unavailable on this platform";
  return oc;
}

#else // POSIX

namespace {

// Reset the child to a clean signal state: default dispositions for the
// signals the sandbox classifies (a SIG_IGN inherited for SIGPIPE etc.
// must not mask a genuine crash) and an empty blocked mask (the serve
// parent blocks SIGTERM/SIGINT around its accept loop).
void resetChildSignals() {
  const int sigs[] = {SIGSEGV, SIGBUS,  SIGFPE, SIGABRT,
                      SIGTERM, SIGINT,  SIGPIPE, SIGXCPU};
  for (int s : sigs)
    std::signal(s, SIG_DFL);
  sigset_t none;
  sigemptyset(&none);
  sigprocmask(SIG_SETMASK, &none, nullptr);
}

void applyChildLimits(const Options &options) {
  // Never leave core files behind: a chaos-armed child segfaults on
  // purpose, and a core dump per injected crash would fill the runner.
  struct rlimit noCore = {0, 0};
  setrlimit(RLIMIT_CORE, &noCore);
  if (options.cpuSeconds != 0) {
    struct rlimit cpu;
    cpu.rlim_cur = static_cast<rlim_t>(options.cpuSeconds);
    cpu.rlim_max = static_cast<rlim_t>(options.cpuSeconds + 1);
    setrlimit(RLIMIT_CPU, &cpu);
  }
  if (options.memHeadroomBytes != 0) {
    // Cap address space at current usage + headroom.  statm reports pages.
    unsigned long long vmPages = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(f, "%llu", &vmPages) != 1)
        vmPages = 0;
      std::fclose(f);
    }
    if (vmPages != 0) {
      const std::uint64_t page =
          static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
      struct rlimit as;
      as.rlim_cur = static_cast<rlim_t>(vmPages * page +
                                        options.memHeadroomBytes);
      as.rlim_max = as.rlim_cur;
      setrlimit(RLIMIT_AS, &as);
    }
  }
}

[[noreturn]] void applyDirective(Directive d) {
  switch (d) {
  case Directive::Segv: {
    volatile int *p = reinterpret_cast<int *>(8);
    *p = 42;           // real SIGSEGV: write to an unmapped page
    std::abort();      // unreachable
  }
  case Directive::Bus:
    raise(SIGBUS);
    std::abort();
  case Directive::Fpe:
    raise(SIGFPE);
    std::abort();
  case Directive::Abrt:
    std::abort();
  case Directive::Hang:
  default:
    for (;;)
      pause();         // genuine hang: only the watchdog can end this
  }
}

// Reap the child, applying the SIGTERM -> grace -> SIGKILL watchdog.
// Fills exit/signal classification into `oc`; returns true if the child
// was killed by the watchdog (wall overrun or our own escalation).
bool reapChild(pid_t pid, std::chrono::steady_clock::time_point deadline,
               bool hasDeadline, std::uint64_t graceMs, Outcome &oc,
               int &wstatus) {
  bool killedByWatchdog = false;
  bool termSent = false;
  std::chrono::steady_clock::time_point killAt;
  for (;;) {
    pid_t r = waitpid(pid, &wstatus, WNOHANG);
    if (r == pid)
      break;
    if (r < 0 && errno != EINTR) {
      oc.detail = std::string("waitpid failed: ") + std::strerror(errno);
      wstatus = 0;
      break;
    }
    auto now = std::chrono::steady_clock::now();
    if (termSent && now >= killAt) {
      kill(pid, SIGKILL);
      // After SIGKILL the child is guaranteed to become reapable; block.
      waitpid(pid, &wstatus, 0);
      break;
    }
    if (!termSent && hasDeadline && now >= deadline) {
      killedByWatchdog = true;
      termSent = true;
      kill(pid, SIGTERM);
      killAt = now + std::chrono::milliseconds(graceMs);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return killedByWatchdog;
}

void classifyWait(int wstatus, bool killedByWatchdog, std::uint64_t timeoutMs,
                  Outcome &oc) {
  if (WIFSIGNALED(wstatus)) {
    int sig = WTERMSIG(wstatus);
    if (killedByWatchdog || sig == SIGXCPU) {
      oc.status = Status::Timeout;
      oc.termSignal = sig;
      oc.detail = killedByWatchdog
                      ? "killed by watchdog after " +
                            std::to_string(timeoutMs) + "ms"
                      : "killed by CPU rlimit (SIGXCPU)";
    } else {
      oc.status = Status::Crashed;
      oc.termSignal = sig;
      oc.detail = signalName(sig);
    }
    return;
  }
  if (WIFEXITED(wstatus)) {
    oc.exitCode = WEXITSTATUS(wstatus);
    return; // Ok/Error split is decided by the caller from exit + payload
  }
  oc.status = Status::Error;
  if (oc.detail.empty())
    oc.detail = "child ended in an unrecognized wait state";
}

} // namespace

Outcome runInChild(const std::function<std::string()> &body,
                   const Options &options) {
  Outcome oc;
  Directive directive = pollDirective(/*realSignals=*/true);

  int fds[2];
  if (pipe(fds) != 0) {
    oc.detail = std::string("pipe failed: ") + std::strerror(errno);
    return oc;
  }
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    oc.detail = std::string("fork failed: ") + std::strerror(errno);
    return oc;
  }

  if (pid == 0) {
    // --- child ---
    close(fds[0]);
    resetChildSignals();
    applyChildLimits(options);
    if (directive != Directive::None)
      applyDirective(directive); // does not return
    std::string out;
    char tag = 'R';
    try {
      out = body();
    } catch (const std::exception &e) {
      tag = 'X';
      out = e.what();
    } catch (...) {
      tag = 'X';
      out = "unknown exception";
    }
    // Single framed write: tag byte + payload, EOF closes the frame.
    ssize_t ignored = write(fds[1], &tag, 1);
    size_t off = 0;
    while (off < out.size()) {
      ssize_t n = write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0)
        break;
      off += static_cast<size_t>(n);
    }
    (void)ignored;
    close(fds[1]);
    std::_Exit(tag == 'R' ? 0 : 3);
  }

  // --- parent ---
  close(fds[1]);
  const bool hasDeadline = options.timeoutMs != 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options.timeoutMs);

  // Drain the pipe until EOF or deadline; a blocked child that never
  // writes is handled by the reap loop's watchdog below.
  std::string raw;
  {
    int flags = fcntl(fds[0], F_GETFL, 0);
    fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
    char buf[4096];
    for (;;) {
      struct pollfd pfd = {fds[0], POLLIN, 0};
      int waitMs = 50;
      if (hasDeadline) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
        if (left <= 0)
          break;
        if (left < waitMs)
          waitMs = static_cast<int>(left);
      }
      int pr = poll(&pfd, 1, waitMs);
      if (pr < 0) {
        if (errno == EINTR)
          continue;
        break;
      }
      if (pr == 0)
        continue;
      ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n > 0) {
        raw.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0)
        break; // EOF: child closed its end
      if (errno == EINTR || errno == EAGAIN)
        continue;
      break;
    }
  }
  close(fds[0]);

  int wstatus = 0;
  bool killedByWatchdog =
      reapChild(pid, deadline, hasDeadline, options.graceMs, oc, wstatus);
  classifyWait(wstatus, killedByWatchdog, options.timeoutMs, oc);
  if (oc.status == Status::Crashed || oc.status == Status::Timeout)
    return oc;

  if (oc.exitCode == 0 && !raw.empty() && raw[0] == 'R') {
    oc.status = Status::Ok;
    oc.payload = raw.substr(1);
  } else if (!raw.empty() && raw[0] == 'X') {
    oc.status = Status::Error;
    oc.detail = "child error: " + raw.substr(1);
  } else {
    oc.status = Status::Error;
    if (oc.detail.empty())
      oc.detail = "child exited " + std::to_string(oc.exitCode) +
                  " without a result";
  }
  return oc;
}

Outcome runCommand(const std::vector<std::string> &argv,
                   const std::string &stderrPath, const Options &options) {
  Outcome oc;
  if (argv.empty()) {
    oc.detail = "empty command";
    return oc;
  }
  Directive directive = pollDirective(/*realSignals=*/false);

  // A pipe we never write to: its EOF in the parent signals child exit
  // without polling waitpid alone (and keeps the reap loop shape shared).
  int fds[2];
  if (pipe(fds) != 0) {
    oc.detail = std::string("pipe failed: ") + std::strerror(errno);
    return oc;
  }
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    oc.detail = std::string("fork failed: ") + std::strerror(errno);
    return oc;
  }

  if (pid == 0) {
    // --- child ---
    close(fds[0]);
    resetChildSignals();
    applyChildLimits(options);
    if (directive != Directive::None)
      applyDirective(directive); // hang instead of exec'ing the toolchain
    if (!stderrPath.empty()) {
      int err = open(stderrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err >= 0) {
        dup2(err, 1);
        dup2(err, 2);
        if (err > 2)
          close(err);
      }
    }
    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &a : argv)
      cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    execv(cargv[0], cargv.data());
    // exec failed; 127 is the shell convention for command-not-found.
    std::_Exit(127);
  }

  // --- parent ---
  close(fds[1]);
  const bool hasDeadline = options.timeoutMs != 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options.timeoutMs);

  int wstatus = 0;
  bool killedByWatchdog =
      reapChild(pid, deadline, hasDeadline, options.graceMs, oc, wstatus);
  close(fds[0]);
  classifyWait(wstatus, killedByWatchdog, options.timeoutMs, oc);
  if (oc.status == Status::Crashed || oc.status == Status::Timeout)
    return oc;

  if (oc.exitCode == 0) {
    oc.status = Status::Ok;
  } else {
    oc.status = Status::Error;
    oc.detail = oc.exitCode == 127
                    ? "exec failed: " + argv[0]
                    : "command exited " + std::to_string(oc.exitCode);
  }
  return oc;
}

#endif // POSIX

} // namespace c2h::sandbox
