#include "support/guard.h"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <sstream>

namespace c2h::guard {

const char *kindName(Kind k) {
  switch (k) {
  case Kind::None: return "OK";
  case Kind::Timeout: return "TIMEOUT";
  case Kind::StepLimit: return "STEP_LIMIT";
  case Kind::CycleLimit: return "CYCLE_LIMIT";
  case Kind::AllocLimit: return "ALLOC_LIMIT";
  case Kind::InjectedFault: return "INJECTED_FAULT";
  case Kind::CombLoop: return "COMB_LOOP";
  case Kind::Deadlock: return "DEADLOCK";
  case Kind::IoError: return "IO_ERROR";
  case Kind::Crashed: return "CRASHED";
  case Kind::Hang: return "HANG";
  }
  return "?";
}

std::string Verdict::str() const {
  std::ostringstream os;
  os << kindName(kind);
  if (!stage.empty())
    os << " at " << stage;
  if (!site.empty())
    os << " [" << site << "]";
  os << " (steps=" << steps << ", cycles=" << cycles;
  if (allocBytes != 0)
    os << ", allocBytes=" << allocBytes;
  os << ", wallMs=" << wallMs << ")";
  return os.str();
}

// --------------------------------------------------------------------------
// ExecBudget
// --------------------------------------------------------------------------

ExecBudget::ExecBudget(BudgetSpec spec)
    : spec_(spec), start_(std::chrono::steady_clock::now()) {}

std::uint64_t ExecBudget::elapsedMs() const {
  auto d = std::chrono::steady_clock::now() - start_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count());
}

void ExecBudget::trip(Kind kind, const char *stage) const {
  Verdict v;
  v.kind = kind;
  v.stage = stage;
  v.steps = stepsUsed();
  v.cycles = cyclesUsed();
  v.allocBytes = allocUsed();
  v.wallMs = elapsedMs();
  throw BudgetExceeded(std::move(v));
}

void ExecBudget::chargeSteps(std::uint64_t n, const char *stage) {
  std::uint64_t total = steps_.fetch_add(n, std::memory_order_relaxed) + n;
  if (spec_.maxSteps != 0 && total > spec_.maxSteps)
    trip(Kind::StepLimit, stage);
}

void ExecBudget::chargeCycles(std::uint64_t n, const char *stage) {
  std::uint64_t total = cycles_.fetch_add(n, std::memory_order_relaxed) + n;
  if (spec_.maxCycles != 0 && total > spec_.maxCycles)
    trip(Kind::CycleLimit, stage);
}

void ExecBudget::chargeAlloc(std::uint64_t bytes, const char *stage) {
  std::uint64_t total = alloc_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (spec_.maxAllocBytes != 0 && total > spec_.maxAllocBytes)
    trip(Kind::AllocLimit, stage);
}

void ExecBudget::checkDeadline(const char *stage) {
  if (spec_.wallMs != 0 && elapsedMs() > spec_.wallMs)
    trip(Kind::Timeout, stage);
}

// --------------------------------------------------------------------------
// Stage registry
//
// Stages are objects with static storage duration spread across
// translation units; they link themselves into a lock-protected intrusive
// list at construction.  Arming state lives here: `armedSite`/`armedNth`
// plus a global counter whose nonzero value flips every stage's enter()
// onto the slow path.  With nothing armed the only cost per entry is the
// relaxed load in the header.
// --------------------------------------------------------------------------

namespace {
std::mutex &registryMutex() {
  static std::mutex m;
  return m;
}
Stage *&registryHead() {
  static Stage *head = nullptr;
  return head;
}
Stage *armedSite = nullptr; // guarded by registryMutex
std::atomic<std::uint64_t> armedNth{1};
} // namespace

std::atomic<int> &Stage::anyArmed() {
  static std::atomic<int> armed{0};
  return armed;
}

Stage::Stage(const char *name) : name_(name) {
  std::lock_guard<std::mutex> lock(registryMutex());
  next_ = registryHead();
  registryHead() = this;
}

void Stage::hitSlow() {
  {
    std::lock_guard<std::mutex> lock(registryMutex());
    if (armedSite != this)
      return;
  }
  std::uint64_t n = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n != armedNth.load(std::memory_order_relaxed))
    return;
  Verdict v;
  v.kind = Kind::InjectedFault;
  v.stage = name_;
  v.site = name_;
  throw InjectedFault(std::move(v));
}

void armFault(const std::string &site, std::uint64_t nth) {
  std::lock_guard<std::mutex> lock(registryMutex());
  Stage *found = nullptr;
  for (Stage *s = registryHead(); s; s = s->next_) {
    s->hits_.store(0, std::memory_order_relaxed);
    if (site == s->name_)
      found = s;
  }
  if (!found)
    throw std::invalid_argument("unknown fault site '" + site +
                                "' (see --list-fault-sites)");
  armedSite = found;
  armedNth.store(nth == 0 ? 1 : nth, std::memory_order_relaxed);
  Stage::anyArmed().store(1, std::memory_order_relaxed);
}

void disarmFaults() {
  std::lock_guard<std::mutex> lock(registryMutex());
  armedSite = nullptr;
  for (Stage *s = registryHead(); s; s = s->next_)
    s->hits_.store(0, std::memory_order_relaxed);
  Stage::anyArmed().store(0, std::memory_order_relaxed);
}

std::vector<std::string> allFaultSites() {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(registryMutex());
    for (Stage *s = registryHead(); s; s = s->next_)
      names.emplace_back(s->name_);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

bool anyFaultArmed() {
  return Stage::anyArmed().load(std::memory_order_relaxed) != 0;
}

// --------------------------------------------------------------------------
// Shims
// --------------------------------------------------------------------------

namespace {
Stage stageAlloc("guard.alloc");
Stage stageIoRead("guard.io.read");
} // namespace

void noteAlloc(ExecBudget *budget, std::uint64_t bytes, const char *stage) {
  stageAlloc.enter();
  if (budget)
    budget->chargeAlloc(bytes, stage);
}

bool readFile(const std::string &path, std::string &out, Verdict &verdict,
              Stage &stage) {
  try {
    stage.enter();
    stageIoRead.enter();
  } catch (const Trip &f) {
    verdict = f.verdict;
    verdict.stage = stage.name();
    verdict.site = path + " (injected)";
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  if (in)
    buf << in.rdbuf();
  if (!in) {
    verdict.kind = Kind::IoError;
    verdict.stage = stage.name();
    verdict.site = path;
    return false;
  }
  out = buf.str();
  return true;
}

} // namespace c2h::guard
