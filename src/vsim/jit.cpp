#include "vsim/jit.h"

#include "support/sandbox.h"
#include "vsim/emitcpp.h"
#include "vsim/engine.h"
#include "vsim/readmem.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

namespace c2h::vsim {

namespace {

// The native build pipeline's three stages, one per failure class; chaos
// tests arm each in turn to prove one request's blast radius and a
// recorded-reason degradation to the bytecode VM.
guard::Stage stageJitEmit("vsim.jit.emit");
guard::Stage stageJitCc("vsim.jit.cc");
guard::Stage stageJitLoad("vsim.jit.load");

std::uint64_t fnv1a(const std::string &s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct ModuleCache {
  std::mutex m;
  std::map<std::string, std::shared_ptr<const NativeModule>> modules;
  NativeCacheStats stats;
};

ModuleCache &moduleCache() {
  static ModuleCache c;
  return c;
}

std::string findInPath(const char *name) {
  const char *path = std::getenv("PATH");
  if (path == nullptr)
    return {};
  std::istringstream ss(path);
  std::string dir;
  while (std::getline(ss, dir, ':')) {
    if (dir.empty())
      continue;
    std::string cand = dir + "/" + name;
    if (::access(cand.c_str(), X_OK) == 0)
      return cand;
  }
  return {};
}

// $C2H_NATIVE_CXX wins when set (empty value = tier disabled, a
// deliberate off switch for no-toolchain testing); otherwise the usual
// PATH names.  No configure-time compiler path is baked in: an
// environment without a compiler on PATH genuinely has no native tier,
// which is exactly what the CI no-toolchain job exercises.
std::string nativeCompiler(std::string &why) {
  if (const char *env = std::getenv("C2H_NATIVE_CXX")) {
    if (*env == '\0') {
      why = "native tier disabled (C2H_NATIVE_CXX is set and empty)";
      return {};
    }
    if (::access(env, X_OK) == 0)
      return env;
    why = std::string("C2H_NATIVE_CXX ('") + env +
          "') is not an executable compiler";
    return {};
  }
  for (const char *name : {"c++", "g++", "clang++"}) {
    std::string p = findInPath(name);
    if (!p.empty())
      return p;
  }
  why = "no host C++ compiler on PATH (tried c++, g++, clang++; set "
        "C2H_NATIVE_CXX to override)";
  return {};
}

std::string cacheDir(std::string &why) {
  std::string dir;
  if (const char *env = std::getenv("C2H_NATIVE_CACHE");
      env != nullptr && *env != '\0') {
    dir = env;
  } else {
    std::error_code ec;
    auto tmp = std::filesystem::temp_directory_path(ec);
    if (ec) {
      why = "no usable temp directory for the native artifact cache: " +
            ec.message();
      return {};
    }
    dir = (tmp / "c2h-native-cache").string();
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    why = "cannot create native artifact cache '" + dir +
          "': " + ec.message();
    return {};
  }
  return dir;
}

unsigned expectedAbi() {
  return (kNativeAbiVersion << 16) ^ static_cast<unsigned>(sizeof(NativeCtx));
}

std::shared_ptr<const NativeModule> loadModule(const std::string &path,
                                               const std::string &key,
                                               std::string &whyNot) {
  void *h = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    const char *e = ::dlerror();
    whyNot = "native load failed: " + std::string(e ? e : "dlopen error");
    return nullptr;
  }
  auto fail = [&](const std::string &msg) -> std::shared_ptr<NativeModule> {
    whyNot = "native load failed: " + msg + " (" + path + ")";
    ::dlclose(h);
    return nullptr;
  };
  using AbiFn = unsigned (*)();
  using KeyFn = const char *(*)();
  auto abi = reinterpret_cast<AbiFn>(::dlsym(h, "c2h_native_abi"));
  auto keyFn = reinterpret_cast<KeyFn>(::dlsym(h, "c2h_native_key"));
  auto sweep = reinterpret_cast<NativeModule::SweepFn>(
      ::dlsym(h, "c2h_native_sweep"));
  auto domain = reinterpret_cast<NativeModule::DomainFn>(
      ::dlsym(h, "c2h_native_domain"));
  auto thread = reinterpret_cast<NativeModule::ThreadFn>(
      ::dlsym(h, "c2h_native_thread"));
  auto waitcond = reinterpret_cast<NativeModule::WaitCondFn>(
      ::dlsym(h, "c2h_native_waitcond"));
  if (!abi || !keyFn || !sweep || !domain || !thread || !waitcond)
    return fail("missing export");
  if (abi() != expectedAbi())
    return fail("ABI mismatch");
  if (key != keyFn())
    return fail("design-key mismatch");
  return std::make_shared<NativeModule>(h, sweep, domain, thread, waitcond,
                                        key);
}

// ---- crash quarantine -----------------------------------------------------
//
// A flat newline-separated key list next to the artifacts.  Appends use
// O_APPEND so concurrent writers (several serve daemons sharing one cache)
// interleave whole lines; readers tolerate duplicates.

std::string quarantinePath(std::string &why) {
  std::string dir = cacheDir(why);
  if (dir.empty())
    return {};
  return dir + "/quarantine";
}

std::mutex &quarantineMutex() {
  static std::mutex m;
  return m;
}

bool quarantineContains(const std::string &path, const std::string &key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line))
    if (line == key)
      return true;
  return false;
}

std::string compileErrorSnippet(const std::string &errPath) {
  std::ifstream f(errPath);
  std::string snippet, line;
  while (snippet.size() < 400 && std::getline(f, line)) {
    if (!snippet.empty())
      snippet += " | ";
    snippet += line;
  }
  if (snippet.size() > 400)
    snippet.resize(400);
  return snippet;
}

} // namespace

NativeModule::~NativeModule() {
  if (handle_ != nullptr)
    ::dlclose(handle_);
}

bool nativeToolchainAvailable() {
  std::string why;
  return !nativeCompiler(why).empty();
}

NativeCacheStats nativeCacheStats() {
  ModuleCache &mc = moduleCache();
  std::lock_guard<std::mutex> lock(mc.m);
  return mc.stats;
}

void clearNativeCache() {
  ModuleCache &mc = moduleCache();
  std::lock_guard<std::mutex> lock(mc.m);
  mc.modules.clear();
}

bool nativeArtifactQuarantined(const std::string &key) {
  std::string why;
  std::string path = quarantinePath(why);
  if (path.empty())
    return false;
  std::lock_guard<std::mutex> lock(quarantineMutex());
  return quarantineContains(path, key);
}

bool quarantineNativeArtifact(const std::string &key) {
  if (key.empty())
    return false;
  std::string why;
  std::string path = quarantinePath(why);
  if (path.empty())
    return false;
  {
    std::lock_guard<std::mutex> lock(quarantineMutex());
    if (!quarantineContains(path, key)) {
      int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd < 0)
        return false;
      std::string line = key + "\n";
      ssize_t n = ::write(fd, line.data(), line.size());
      ::close(fd);
      if (n != static_cast<ssize_t>(line.size()))
        return false;
    }
  }
  // Drop the in-process module so a warm cache can't sidestep the list.
  ModuleCache &mc = moduleCache();
  std::lock_guard<std::mutex> lock(mc.m);
  mc.modules.erase(key);
  return true;
}

std::uint64_t quarantinedArtifactCount() {
  std::string why;
  std::string path = quarantinePath(why);
  if (path.empty())
    return 0;
  std::lock_guard<std::mutex> lock(quarantineMutex());
  std::ifstream f(path);
  std::string line;
  std::uint64_t n = 0;
  while (std::getline(f, line))
    if (!line.empty())
      ++n;
  return n;
}

std::shared_ptr<const NativeModule>
compileNative(const CompiledModel &cm, std::string &whyNot,
              const guard::ExecBudget *budget) {
  stageJitEmit.enter();
  std::string src = emitNativeSource(cm, whyNot);
  if (src.empty())
    return nullptr;
  char keyBuf[17];
  std::snprintf(keyBuf, sizeof(keyBuf), "%016llx",
                static_cast<unsigned long long>(fnv1a(src)));
  const std::string key = keyBuf;
  src += "extern \"C\" const char *c2h_native_key() { return \"" + key +
         "\"; }\n";

  // Checked before either cache: a crash-implicated artifact must never be
  // reloaded, whether it is still resident in this process or on disk.
  if (nativeArtifactQuarantined(key)) {
    whyNot = "native artifact " + key +
             " is quarantined after a prior crash";
    return nullptr;
  }

  ModuleCache &mc = moduleCache();
  {
    std::lock_guard<std::mutex> lock(mc.m);
    auto it = mc.modules.find(key);
    if (it != mc.modules.end()) {
      ++mc.stats.memoryHits;
      return it->second;
    }
  }

  std::string dir = cacheDir(whyNot);
  if (dir.empty())
    return nullptr;
  const std::string soPath = dir + "/" + key + ".so";

  bool fromDisk = false;
  std::shared_ptr<const NativeModule> mod;
  if (::access(soPath.c_str(), R_OK) == 0) {
    stageJitLoad.enter();
    std::string loadWhy;
    mod = loadModule(soPath, key, loadWhy);
    fromDisk = mod != nullptr;
    // A stale or truncated artifact is not an error — fall through and
    // rebuild it.
  }

  if (!mod) {
    std::string cxx = nativeCompiler(whyNot);
    if (cxx.empty())
      return nullptr;
    stageJitCc.enter();
    static std::atomic<unsigned> seq{0};
    const std::string base = dir + "/" + key + ".tmp" +
                             std::to_string(::getpid()) + "." +
                             std::to_string(seq.fetch_add(1));
    const std::string cppPath = base + ".cpp";
    const std::string tmpSo = base + ".so";
    const std::string errPath = base + ".err";
    {
      std::ofstream f(cppPath);
      f << src;
      f.flush();
      if (!f) {
        whyNot = "cannot write native source '" + cppPath + "'";
        std::remove(cppPath.c_str());
        return nullptr;
      }
    }
    // The toolchain runs supervised: fork+exec (no shell), stderr captured,
    // and a watchdog so a hung compiler becomes a structured reason instead
    // of wedging the calling thread forever.
    sandbox::Options sopts;
    sopts.timeoutMs = sandbox::watchdogMs(120000, budget);
    sopts.cpuSeconds = sopts.timeoutMs / 1000 + 2;
    sandbox::Outcome cc = sandbox::runCommand(
        {cxx, "-std=c++17", "-O2", "-fPIC", "-shared", "-o", tmpSo, cppPath},
        errPath, sopts);
    if (!cc.ok()) {
      if (cc.status == sandbox::Status::Timeout)
        whyNot = "native compile hung (" + cxx + " " + cc.detail + ")";
      else if (cc.status == sandbox::Status::Crashed)
        whyNot = "native compiler crashed (" + cxx + " died on " +
                 cc.detail + ")";
      else
        whyNot = "native compile failed (" + cxx + ": " + cc.detail +
                 "): " + compileErrorSnippet(errPath);
      std::remove(cppPath.c_str());
      std::remove(tmpSo.c_str());
      std::remove(errPath.c_str());
      return nullptr;
    }
    std::rename(tmpSo.c_str(), soPath.c_str()); // atomic publish
    std::remove(cppPath.c_str());
    std::remove(errPath.c_str());
    stageJitLoad.enter();
    mod = loadModule(soPath, key, whyNot);
    if (!mod)
      return nullptr;
  }

  std::lock_guard<std::mutex> lock(mc.m);
  auto it = mc.modules.find(key);
  if (it != mc.modules.end()) // raced with another thread; share theirs
    return it->second;
  if (fromDisk)
    ++mc.stats.diskHits;
  else
    ++mc.stats.compiles;
  mc.modules[key] = mod;
  return mod;
}

// ---------------------------------------------------------------------------
// NativeSimulation: the host half of the native tier.  Every scheduler
// decision below mirrors CompiledSimulation (cvm.cpp) line for line; the
// generated code replaces execProgram, nothing else.
// ---------------------------------------------------------------------------

NativeSimulation::NativeSimulation(std::shared_ptr<const CompiledModel> cm,
                                   std::shared_ptr<const NativeModule> mod)
    : cm_(std::move(cm)), mod_(std::move(mod)) {
  const InitImage &init = cm_->init;
  nets_.resize(init.nets.size());
  for (std::size_t i = 0; i < init.nets.size(); ++i)
    nets_[i] = init.nets[i].word();
  memStore_.resize(init.mems.size());
  memPtrs_.resize(init.mems.size());
  for (std::size_t m = 0; m < init.mems.size(); ++m) {
    memStore_[m].resize(init.mems[m].size());
    for (std::size_t j = 0; j < init.mems[m].size(); ++j)
      memStore_[m][j] = init.mems[m][j].word();
    memPtrs_[m] = memStore_[m].data();
  }
  tregs_.assign(cm_->tempWidth.size(), 0);
  netMask_.resize(cm_->model->nets.size());
  for (std::size_t i = 0; i < netMask_.size(); ++i)
    netMask_[i] = BitVector::wordMask(cm_->model->nets[i].width);
  // Wire slots in the snapshot may be stale (the event engine evaluates
  // them lazily), so every wire is recomputed by the first sweep.
  dirty_.assign(cm_->wires.size(), 1);
  wireCount_ = static_cast<std::uint32_t>(dirty_.size());
  ctx_.nets = nets_.data();
  ctx_.mems = memPtrs_.data();
  ctx_.dirty = dirty_.data();
  ctx_.tregs = tregs_.data();
  ctx_.host = this;
  ctx_.display = &NativeSimulation::cbDisplay;
  ctx_.readmem = &NativeSimulation::cbReadMem;
  ctx_.error = &NativeSimulation::cbError;
  ctx_.posedge = &NativeSimulation::cbPosedge;
  ctx_.nbnet = &NativeSimulation::cbNbNet;
  ctx_.nbmem = &NativeSimulation::cbNbMem;
  ctx_.pending = 0;
  ctx_.now = 0;
  ctx_.minDirty = 0;
  for (std::size_t i = 0; i < cm_->threads.size(); ++i) {
    const ThreadProgram &tp = cm_->threads[i];
    TbThread t;
    t.index = static_cast<std::uint32_t>(i);
    switch (tp.kind) {
    case Process::Kind::Clocked:
      t.state = TbThread::State::AtEdge;
      t.edgeNet = tp.clockNet;
      break;
    case Process::Kind::DelayLoop:
      t.state = TbThread::State::AtTime;
      t.wakeTime = tp.period;
      break;
    case Process::Kind::Initial:
      t.state = TbThread::State::Ready;
      break;
    }
    threads_.push_back(t);
  }
  if (!cm_->initError.empty()) {
    error_ = cm_->initError;
    verdict_ = cm_->initVerdict;
  }
}

void NativeSimulation::reset() {
  error_.clear();
  verdict_ = guard::Verdict{};
  ctx_.pending = 0;
  nba_.clear();
  const InitImage &init = cm_->init;
  for (std::size_t i = 0; i < nets_.size(); ++i)
    nets_[i] = init.nets[i].word();
  for (std::size_t m = 0; m < memStore_.size(); ++m)
    for (std::size_t j = 0; j < memStore_[m].size(); ++j)
      memStore_[m][j] = init.mems[m][j].word();
  std::fill(dirty_.begin(), dirty_.end(), static_cast<std::uint8_t>(1));
  ctx_.minDirty = 0;
  ctx_.now = 0;
  posedges_.clear();
  output_.clear();
  time_ = 0;
  finished_ = false;
  stop_ = false;
  for (TbThread &t : threads_) {
    const ThreadProgram &tp = cm_->threads[t.index];
    t.pc = 0;
    t.edgeNet = tp.clockNet;
    t.waitCond = 0;
    t.wakeTime = tp.period;
    switch (tp.kind) {
    case Process::Kind::Clocked:
      t.state = TbThread::State::AtEdge;
      break;
    case Process::Kind::DelayLoop:
      t.state = TbThread::State::AtTime;
      break;
    case Process::Kind::Initial:
      t.state = TbThread::State::Ready;
      break;
    }
  }
  if (!cm_->initError.empty()) {
    error_ = cm_->initError;
    verdict_ = cm_->initVerdict;
  }
}

void NativeSimulation::recordFailure(const guard::Verdict &v) {
  if (error_.empty()) {
    verdict_ = v;
    error_ = v.str();
  }
}

// ---- generated-code callbacks (cold paths) ----

void NativeSimulation::cbDisplay(void *host, std::uint32_t id) {
  auto *s = static_cast<NativeSimulation *>(host);
  const DisplayDesc &d = s->cm_->displays[id];
  std::string out;
  for (const DisplaySeg &seg : d.segs) {
    out += seg.lit;
    if (seg.conv == 0)
      continue;
    BitVector v(s->cm_->tempWidth[seg.arg], s->tregs_[seg.arg]);
    switch (seg.conv) {
    case 'd':
      out += seg.sign ? v.toStringSigned() : v.toStringUnsigned();
      break;
    case 'h':
      out += v.toStringHex().substr(2);
      break;
    default: // 'b'
      for (unsigned b = v.width(); b-- > 0;)
        out.push_back(v.bit(b) ? '1' : '0');
      break;
    }
  }
  s->output_.push_back(std::move(out));
}

int NativeSimulation::cbReadMem(void *host, std::uint32_t id) {
  auto *s = static_cast<NativeSimulation *>(host);
  const ReadMemDesc &d = s->cm_->readmems[id];
  auto &words = s->memStore_[static_cast<std::size_t>(d.memId)];
  unsigned width =
      s->cm_->model->mems[static_cast<std::size_t>(d.memId)].width;
  // Bridge through BitVector cells so the shared loader keeps one
  // definition of $readmem parsing.
  std::vector<BitVector> cells;
  cells.reserve(words.size());
  for (std::uint64_t w : words)
    cells.emplace_back(BitVector(width, w));
  guard::Verdict v;
  bool loaded = loadMemFile(d.path, d.readHex, width, cells, v);
  for (std::size_t j = 0; j < words.size(); ++j)
    words[j] = cells[j].word();
  s->markMemFanout(d.memId); // the parsed prefix is stored either way
  if (!loaded) {
    s->recordFailure(v);
    return 0; // generated code retires this thread only
  }
  return 1;
}

void NativeSimulation::cbError(void *host, std::uint32_t id) {
  auto *s = static_cast<NativeSimulation *>(host);
  if (s->error_.empty())
    s->error_ = s->cm_->messages[id];
  s->stop_ = true;
}

void NativeSimulation::cbPosedge(void *host, std::uint32_t netId) {
  static_cast<NativeSimulation *>(host)->posedges_.push_back(
      static_cast<int>(netId));
}

void NativeSimulation::cbNbNet(void *host, std::uint32_t netId,
                               std::uint64_t v) {
  static_cast<NativeSimulation *>(host)->nba_.push_back(
      NbWrite{false, static_cast<int>(netId), 0, v});
}

void NativeSimulation::cbNbMem(void *host, std::uint32_t memId,
                               std::uint64_t addr, std::uint64_t v) {
  static_cast<NativeSimulation *>(host)->nba_.push_back(
      NbWrite{true, static_cast<int>(memId), addr, v});
}

// ---- scheduler (mirrors cvm.cpp) ----

void NativeSimulation::chargePending() {
  if (budget_ == nullptr) {
    ctx_.pending = 0;
    return;
  }
  if (ctx_.pending < 65536)
    return;
  try {
    budget_->chargeSteps(ctx_.pending, stageNativeRun.name());
    budget_->checkDeadline(stageNativeRun.name());
  } catch (const guard::Trip &e) {
    recordFailure(e.verdict);
    stop_ = true;
  }
  ctx_.pending = 0;
}

void NativeSimulation::markNetFanout(int netId) {
  for (std::uint32_t r : cm_->netFanout[static_cast<std::size_t>(netId)]) {
    dirty_[r] = 1;
    if (r < ctx_.minDirty)
      ctx_.minDirty = r;
  }
}

void NativeSimulation::markMemFanout(int memId) {
  for (std::uint32_t r : cm_->memFanout[static_cast<std::size_t>(memId)]) {
    dirty_[r] = 1;
    if (r < ctx_.minDirty)
      ctx_.minDirty = r;
  }
}

void NativeSimulation::flushComb() {
  // The emitted sweep returns immediately on a clean cursor; checking here
  // saves the indirect call, which is measurable on handshake-bound designs.
  if (ctx_.minDirty < wireCount_)
    mod_->sweep(&ctx_);
  if (budget_ == nullptr)
    ctx_.pending = 0;
  else
    chargePending();
}

void NativeSimulation::commitNba() {
  // Thread NBAs only; domain NBAs commit inside the generated domain
  // function with identical semantics.
  for (const NbWrite &w : nba_) {
    if (w.isMem) {
      auto &cells = memStore_[static_cast<std::size_t>(w.id)];
      if (w.addr < cells.size() && cells[w.addr] != w.value) {
        cells[w.addr] = w.value;
        markMemFanout(w.id);
      }
    } else {
      std::uint64_t &slot = nets_[static_cast<std::size_t>(w.id)];
      if (slot != w.value) {
        if (cm_->watchNet[static_cast<std::size_t>(w.id)] &&
            (slot & 1) == 0 && (w.value & 1) != 0)
          posedges_.push_back(w.id);
        slot = w.value;
        markNetFanout(w.id);
      }
    }
  }
  nba_.clear();
}

void NativeSimulation::runDomain(int domain) {
  mod_->domain(&ctx_, static_cast<unsigned>(domain));
  if (budget_ == nullptr)
    ctx_.pending = 0;
  else
    chargePending();
}

void NativeSimulation::execThread(TbThread &t) {
  ctx_.now = time_;
  mod_->thread(&ctx_, t.index, static_cast<unsigned long long>(t.pc));
  chargePending();
  switch (ctx_.parkKind) {
  case kParkAtEdge:
    t.state = TbThread::State::AtEdge;
    t.edgeNet = static_cast<int>(ctx_.parkArg);
    t.pc = ctx_.resumePc;
    return;
  case kParkAtTime:
    t.state = TbThread::State::AtTime;
    t.wakeTime = ctx_.parkTime;
    t.pc = ctx_.resumePc;
    return;
  case kParkAtWait:
    t.state = TbThread::State::AtWait;
    t.waitCond = ctx_.parkArg;
    t.pc = ctx_.resumePc;
    return;
  case kParkFinish:
    finished_ = true;
    t.state = TbThread::State::Done;
    return;
  case kParkRetire:
    t.state = TbThread::State::Done;
    return;
  default:
    break; // kParkRanOff: loop or retire, like the event engine
  }
  const ThreadProgram &tp = cm_->threads[t.index];
  t.pc = 0;
  switch (tp.kind) {
  case Process::Kind::Clocked:
    t.state = TbThread::State::AtEdge;
    t.edgeNet = tp.clockNet;
    break;
  case Process::Kind::DelayLoop:
    t.state = TbThread::State::AtTime;
    t.wakeTime = time_ + tp.period;
    break;
  case Process::Kind::Initial:
    t.state = TbThread::State::Done;
    break;
  }
}

bool NativeSimulation::wakeOnEventsTb() {
  bool any = false;
  if (!posedges_.empty()) {
    for (TbThread &t : threads_)
      if (t.state == TbThread::State::AtEdge &&
          std::find(posedges_.begin(), posedges_.end(), t.edgeNet) !=
              posedges_.end()) {
        t.state = TbThread::State::Ready;
        any = true;
      }
    posedges_.clear();
  }
  for (TbThread &t : threads_)
    if (t.state == TbThread::State::AtWait) {
      std::uint64_t truth = mod_->waitcond(&ctx_, t.waitCond);
      chargePending();
      if (truth != 0) {
        t.state = TbThread::State::Ready;
        any = true;
      }
    }
  return any;
}

void NativeSimulation::runDeltaTb() {
  for (std::uint64_t guard = 0;; ++guard) {
    if (guard > 1'000'000) {
      if (error_.empty())
        error_ = "delta-cycle limit exceeded (oscillating design?)";
      stop_ = true;
      return;
    }
    if (budget_ && guard != 0 && (guard & 4095) == 0)
      budget_->checkDeadline(stageNativeRun.name());
    if (finished_ || stop_)
      return;
    bool any = false;
    for (TbThread &t : threads_) {
      if (finished_ || stop_)
        return;
      if (t.state == TbThread::State::Ready) {
        execThread(t);
        any = true;
      }
    }
    if (wakeOnEventsTb())
      any = true;
    if (any)
      continue;
    if (!nba_.empty()) {
      commitNba();
      flushComb();
      wakeOnEventsTb();
      continue;
    }
    return;
  }
}

bool NativeSimulation::advanceTimeTb() {
  std::uint64_t next = 0;
  bool found = false;
  for (const TbThread &t : threads_)
    if (t.state == TbThread::State::AtTime &&
        (!found || t.wakeTime < next)) {
      next = t.wakeTime;
      found = true;
    }
  if (!found)
    return false;
  time_ = std::max(time_, next);
  for (TbThread &t : threads_)
    if (t.state == TbThread::State::AtTime && t.wakeTime <= time_)
      t.state = TbThread::State::Ready;
  return true;
}

void NativeSimulation::settleTb() {
  if (stop_)
    return;
  try {
    runDeltaTb();
  } catch (const guard::Trip &e) {
    recordFailure(e.verdict);
    stop_ = true;
  } catch (const std::exception &e) {
    if (error_.empty())
      error_ = e.what();
    stop_ = true;
  }
}

void NativeSimulation::runToFinish(std::uint64_t maxTime) {
  if (!error_.empty())
    return;
  try {
    runDeltaTb();
    while (!finished_ && !stop_) {
      if (!advanceTimeTb())
        break; // no pending events: quiescent forever
      if (time_ > maxTime) {
        if (error_.empty())
          error_ = "simulation exceeded " + std::to_string(maxTime) +
                   " time units";
        break;
      }
      runDeltaTb();
    }
  } catch (const guard::Trip &e) {
    recordFailure(e.verdict);
  } catch (const std::exception &e) {
    if (error_.empty())
      error_ = e.what();
  }
}

// ---- driver (same contract as CompiledSimulation) ----

void NativeSimulation::writeNetWord(int netId, std::uint64_t v) {
  std::uint64_t &slot = nets_[static_cast<std::size_t>(netId)];
  if (slot != v) {
    slot = v;
    markNetFanout(netId);
  }
}

void NativeSimulation::poke(const std::string &name,
                            const BitVector &value) {
  if (!error_.empty())
    return;
  int id = cm_->model->findNet(name);
  if (id < 0) {
    error_ = "poke: unknown net '" + name + "'";
    return;
  }
  const Net &net = cm_->model->nets[static_cast<std::size_t>(id)];
  if (net.driver) {
    error_ = "poke: net '" + name + "' has a continuous driver";
    return;
  }
  pokeId(id, value);
}

int NativeSimulation::findNetId(const std::string &name) const {
  return cm_->model->findNet(name);
}

void NativeSimulation::pokeId(int id, const BitVector &value) {
  if (!error_.empty() || id < 0)
    return;
  std::uint64_t v = value.word() & netMask_[static_cast<std::size_t>(id)];
  std::uint64_t &slot = nets_[static_cast<std::size_t>(id)];
  bool rose = (slot & 1) == 0 && (v & 1) != 0;
  bool changed = slot != v;
  if (changed) {
    slot = v;
    markNetFanout(id);
  }
  if (cm_->behavioral) {
    if (rose && cm_->watchNet[static_cast<std::size_t>(id)])
      posedges_.push_back(id);
    settleTb(); // wakes edge sleepers, like the event engine's settle
    return;
  }
  int d = cm_->domainOfClock[static_cast<std::size_t>(id)];
  if (rose && d >= 0)
    runDomain(d); // the compiled analogue of the clock-edge delta
  else
    flushComb();
}

std::uint64_t NativeSimulation::peekWord(int id) {
  if (id < 0)
    return 0;
  flushComb();
  return nets_[static_cast<std::size_t>(id)];
}

void NativeSimulation::tickId(int clkId) {
  if (cm_->behavioral) {
    pokeId(clkId, BitVector(1, 1));
    pokeId(clkId, BitVector(1, 0));
    return;
  }
  // Specialized clock toggle for the synthesized (non-behavioral) case:
  // same observable semantics as the two pokes above, minus the BitVector
  // round-trips and the generic dispatch.  This is the handshake hot loop.
  if (!error_.empty() || clkId < 0)
    return;
  const auto id = static_cast<std::size_t>(clkId);
  std::uint64_t &slot = nets_[id];
  const bool rose = (slot & 1) == 0;
  if (slot != 1) {
    slot = 1;
    markNetFanout(clkId);
  }
  const int d = cm_->domainOfClock[id];
  if (rose && d >= 0)
    runDomain(d);
  else
    flushComb();
  if (slot != 0) {
    slot = 0;
    markNetFanout(clkId);
  }
  flushComb();
}

BitVector NativeSimulation::peek(const std::string &name) {
  int id = cm_->model->findNet(name);
  if (id < 0)
    return BitVector(1);
  flushComb();
  const Net &net = cm_->model->nets[static_cast<std::size_t>(id)];
  return BitVector(net.width, nets_[static_cast<std::size_t>(id)]);
}

std::vector<BitVector>
NativeSimulation::memoryContents(const std::string &name) const {
  int id = cm_->model->findMem(name);
  if (id < 0)
    return {};
  const Memory &mem = cm_->model->mems[static_cast<std::size_t>(id)];
  std::vector<BitVector> cells;
  const auto &words = memStore_[static_cast<std::size_t>(id)];
  cells.reserve(words.size());
  for (std::uint64_t w : words)
    cells.emplace_back(BitVector(mem.width, w));
  return cells;
}

void NativeSimulation::pokeMemory(const std::string &name,
                                  std::size_t index,
                                  const BitVector &value) {
  if (!error_.empty())
    return;
  int id = cm_->model->findMem(name);
  if (id < 0) {
    error_ = "pokeMemory: unknown memory '" + name + "'";
    return;
  }
  const Memory &mem = cm_->model->mems[static_cast<std::size_t>(id)];
  if (index >= mem.depth) {
    error_ = "pokeMemory: index out of range for '" + name + "'";
    return;
  }
  std::uint64_t v = value.word() & BitVector::wordMask(mem.width);
  auto &cells = memStore_[static_cast<std::size_t>(id)];
  if (cells[index] != v) {
    cells[index] = v;
    markMemFanout(id);
  }
}

void NativeSimulation::importMemories(
    const std::vector<std::vector<std::uint64_t>> &mems) {
  for (std::size_t m = 0; m < memStore_.size() && m < mems.size(); ++m) {
    if (memStore_[m].size() != mems[m].size())
      continue;
    if (memStore_[m] != mems[m]) {
      memStore_[m] = mems[m];
      markMemFanout(static_cast<int>(m));
    }
  }
}

void NativeSimulation::settle() {
  if (cm_->behavioral) {
    if (error_.empty())
      settleTb();
    return;
  }
  flushComb();
}

void NativeSimulation::tick(const std::string &clk) {
  poke(clk, BitVector(1, 1));
  poke(clk, BitVector(1, 0));
}

} // namespace c2h::vsim
