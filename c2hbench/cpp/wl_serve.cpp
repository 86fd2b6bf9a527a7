// serve-mix: `threads` closed-loop clients in this process send JSON cosim
// requests for registry sources through CosimService::submitAsync.  Every
// client sends rounds of ten requests in seeded order: three `repeat` (a
// response-cache hit), four `re-arg` (same source, new arguments: front-end
// cache hit, response cache miss) and three `new-source` (a salted source
// that misses every cache).  Fixed class counts per round keep the mix, and
// so the percentiles, the same for every seed.
#include "bench.h"
#include "oracle.h"
#include "replay.h"
#include "trace.h"

#include "serve/json.h"
#include "serve/service.h"

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>

namespace c2hbench {

using namespace c2h;

namespace {

enum class Cls { Repeat, ReArg, NewSource };
const char *clsName(Cls c) {
  return c == Cls::Repeat ? "repeat" : c == Cls::ReArg ? "re-arg" : "new-source";
}
// Three repeats, four re-args, three new sources: job_p50_ms falls in the
// middle of the re-arg block and job_p90_ms inside the new-source block,
// not on a boundary between classes.
const Cls kRound[] = {Cls::Repeat, Cls::Repeat,    Cls::Repeat,
                      Cls::ReArg,  Cls::ReArg,     Cls::ReArg,
                      Cls::ReArg,  Cls::NewSource, Cls::NewSource,
                      Cls::NewSource};
// Registry kernels whose argument space is large enough that a fresh draw
// is always new (fib's is not; its cost also grows exponentially).
const char *const kReArgKernels[] = {"gcd", "collatz", "sqrtint", "pacer"};

std::string requestLine(const std::string &id, const std::string &source,
                        const std::vector<std::int64_t> &args,
                        const std::string &top = "main") {
  std::string line = "{\"id\":\"" + id + "\",\"op\":\"cosim\",\"source\":" +
                     jsonQuote(source) +
                     (top == "main" ? "" : ",\"top\":" + jsonQuote(top)) +
                     ",\"args\":[";
  for (std::size_t i = 0; i < args.size(); ++i)
    line += (i ? "," : "") + std::to_string(args[i]);
  return line + "]}";
}

std::string saltedSource(const core::Workload &w, std::uint64_t salt) {
  return w.source + "int c2h_salt_" + std::to_string(salt) + ";\n";
}

// Salts differ only in the global's name; the oracle compares responses
// with it normalised.
std::string unsalt(std::string text) {
  const std::string tag = "c2h_salt_";
  for (std::size_t at = text.find(tag); at != std::string::npos;
       at = text.find(tag, at + tag.size())) {
    std::size_t end = at + tag.size();
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end])))
      ++end;
    text.replace(at + tag.size(), end - at - tag.size(), "N");
  }
  return text;
}

std::vector<std::int64_t> freshArgs(const std::string &kernel, Rng &rng) {
  if (kernel == "gcd")
    return {rng.range(1, 100000), rng.range(1, 100000)};
  if (kernel == "collatz")
    return {rng.range(1, 100000)};
  if (kernel == "sqrtint")
    return {rng.range(0, 1 << 30)};
  return {rng.range(0, 1 << 20)}; // pacer
}

// The service-reported queue and run times of a response (0 when absent).
void responseTiming(const std::string &response, double &queueMs,
                    double &runMs) {
  serve::JsonValue doc = serve::JsonValue::makeNull();
  std::string error;
  queueMs = runMs = 0;
  if (!serve::parseJson(response, doc, error))
    return;
  const serve::JsonValue *timing = doc.find("timing");
  auto ms = [&](const char *key) {
    const serve::JsonValue *v = timing ? timing->find(key) : nullptr;
    return v && v->isNumber() ? v->numberValue() : 0.0;
  };
  queueMs = ms("queue_ms");
  runMs = ms("run_ms");
}

// A request as a "serve.request" root span from submit to reply, with its
// "serve.queue" and "serve.run" children placed from the reported timing.
void recordRequest(Tracer &tracer, std::uint64_t job, Clock::time_point sent,
                   Clock::time_point done, double queueMs, double runMs,
                   bool probe) {
  auto ms = [](double v) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(v));
  };
  int root = tracer.record("serve.request", job, sent, done, -1, probe);
  Clock::time_point picked = sent + ms(queueMs);
  tracer.record("serve.queue", job, sent, picked, root);
  tracer.record("serve.run", job, picked, picked + ms(runMs), root);
}

struct Job {
  Cls cls = Cls::Repeat;
  std::size_t kernel = 0; // index into the registry
  std::vector<std::int64_t> args;
  std::uint64_t salt = 0; // new-source only
  std::string line;       // the request
  std::string response;   // until checked
  double ms = 0, queueMs = 0, runMs = 0;
  std::uint64_t simCycles = 0; // simulated for this request (not replayed)
  Clock::time_point sent, done;
};

struct Client {
  explicit Client(std::uint64_t seed) : rng(seed) {}
  Rng rng;
  std::vector<Cls> round;
  std::size_t pos = 0;
  std::vector<std::size_t> newSourceOrder; // registry indices, cycled
  std::size_t newSourcePos = 0;
  std::size_t rounds = 0; // completed rounds
};

struct Stats {
  double feHits = 0, feMisses = 0, modelHits = 0, modelMisses = 0,
         respHits = 0, respMisses = 0, rejected = 0;
};

Stats readStats(serve::CosimService &service) {
  serve::JsonValue doc = serve::JsonValue::makeNull();
  std::string error;
  Stats s;
  if (!serve::parseJson(service.handleLine("{\"id\":\"s\",\"op\":\"stats\"}"),
                        doc, error))
    return s;
  const serve::JsonValue *stats = doc.find("stats");
  if (!stats)
    return s;
  auto pair = [&](const char *obj, double &hits, double &misses) {
    if (const serve::JsonValue *o = stats->find(obj)) {
      hits = double(o->intOr("hits", 0));
      misses = double(o->intOr("misses", 0));
    }
  };
  pair("frontend_cache", s.feHits, s.feMisses);
  pair("model_cache", s.modelHits, s.modelMisses);
  pair("response_cache", s.respHits, s.respMisses);
  s.rejected = double(stats->intOr("rejected", 0));
  return s;
}

double ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

struct Mix {
  std::unique_ptr<serve::CosimService> service;
  std::vector<std::string> primed; // request line per registry kernel
  double setupS = 0;
};

// Construct a service and prime its caches with one request per registry
// kernel (the `repeat` class replays these).
Mix startService(const Options &o) {
  Mix mix;
  auto t0 = Clock::now();
  serve::ServiceOptions so;
  so.jobs = o.threads;
  mix.service = std::make_unique<serve::CosimService>(so);
  const auto &registry = core::standardWorkloads();
  for (std::size_t k = 0; k < registry.size(); ++k) {
    mix.primed.push_back(requestLine("prime-" + registry[k].name,
                                     registry[k].source, registry[k].args));
    mix.service->submitAsync(mix.primed.back(), [](std::string) {});
  }
  mix.service->drain();
  mix.setupS = msBetween(t0, Clock::now()) / 1e3;
  return mix;
}

// Checks each response as it arrives, so only responses in flight are held.
// Every response must pass the row oracle; responses to repeats and new
// sources of one kernel must all be byte-identical (salt normalised), and
// that answer, plus a sample of re-arg answers, must equal a fresh one-shot
// service's.  Thread-safe: replies arrive on the service's workers.
class Checker {
public:
  explicit Checker(Result &result) : result_(result) {}

  void check(Job &job) {
    responseTiming(job.response, job.queueMs, job.runMs);
    std::uint64_t cycles = 0;
    std::string why = checkResponse(job.response, cycles);
    if (job.cls != Cls::Repeat)
      job.simCycles = cycles; // repeats are replayed, not simulated
    std::string core = unsalt(responseCore(job.response));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++result_.attempted;
      if (job.cls == Cls::ReArg) {
        if (reArg_.size() < kReArgSamples)
          reArg_.emplace_back(job.line, core);
      } else {
        std::string key = clsName(job.cls) + std::to_string(job.kernel);
        auto [it, first] =
            answers_.emplace(key, std::make_pair(job.line, core));
        if (why.empty() && !first && it->second.second != core)
          why = "response differs from an earlier answer to the same request";
      }
      if (!why.empty())
        result_.fail(std::string(clsName(job.cls)) + ": " + why);
    }
    std::string().swap(job.response);
    std::string().swap(job.line);
  }

  // After the timed loop: compare the kept answers with fresh services.
  void compareWithFresh() {
    auto oneShot = [](const std::string &line) {
      serve::ServiceOptions so;
      so.jobs = 1;
      serve::CosimService service(so);
      return unsalt(responseCore(service.handleLine(line)));
    };
    for (const auto &[key, answer] : answers_)
      if (oneShot(answer.first) != answer.second)
        result_.fail(key + ": response differs from a fresh one-shot service");
    for (const auto &[line, core] : reArg_)
      if (oneShot(line) != core)
        result_.fail("re-arg: response differs from a fresh one-shot service");
  }

private:
  static constexpr std::size_t kReArgSamples = 12;
  std::mutex mutex_; // guards everything below
  Result &result_;
  std::map<std::string, std::pair<std::string, std::string>> answers_;
  std::vector<std::pair<std::string, std::string>> reArg_;
};

// Set while this thread is inside submitAsync: a reply delivered then came
// synchronously (a rejection) with the service's lock held, so its client
// must not send again from inside the callback.
thread_local bool submitting = false;

// Drive the clients until `stop(start, clientRounds, first)` says so at one
// of the client's round boundaries.  Each reply is checked, and its client
// sends its next request, on the worker that answered: no client threads,
// and no hand-off through this thread.  Returns the jobs in send order,
// responses checked.
template <class Stop>
std::deque<Job> drive(const Options &o, Mix &mix, std::uint64_t seed,
                      Checker &checker, Stop stop) {
  const auto &registry = core::standardWorkloads();
  std::vector<std::size_t> reArg;
  for (const char *name : kReArgKernels)
    for (std::size_t k = 0; k < registry.size(); ++k)
      if (registry[k].name == name)
        reArg.push_back(k);
  std::vector<Client> clients;
  for (unsigned c = 0; c < o.threads; ++c) {
    clients.emplace_back(seed * 1000003 + c);
    for (std::size_t k = 0; k < registry.size(); ++k)
      clients.back().newSourceOrder.push_back(k);
    clients.back().rng.shuffle(clients.back().newSourceOrder);
  }

  std::mutex mutex; // guards jobs, active, usedArgs, salt
  std::condition_variable idle;
  std::deque<Job> jobs; // stable addresses: replies write through pointers
  std::set<std::pair<std::size_t, std::vector<std::int64_t>>> usedArgs;
  std::uint64_t salt = seed * 1000000;
  std::size_t active = clients.size();
  auto start = Clock::now();

  std::function<void(std::size_t)> send = [&](std::size_t c) {
    Client &client = clients[c]; // only the thread holding c touches it
    if (client.pos == client.round.size()) {
      if (!client.round.empty())
        ++client.rounds;
      if (stop(start, client.rounds, client.round.empty())) {
        std::lock_guard<std::mutex> lock(mutex);
        if (--active == 0)
          idle.notify_all();
        return;
      }
      client.round.assign(std::begin(kRound), std::end(kRound));
      client.rng.shuffle(client.round);
      client.pos = 0;
    }
    Job *job;
    {
      std::lock_guard<std::mutex> lock(mutex);
      job = &jobs.emplace_back();
      job->cls = client.round[client.pos++];
      std::string id = "c" + std::to_string(c) + "-" +
                       std::to_string(jobs.size());
      if (job->cls == Cls::Repeat) {
        job->kernel = client.rng.next() % registry.size();
        job->line = mix.primed[job->kernel];
      } else if (job->cls == Cls::ReArg) {
        job->kernel = reArg[client.rng.next() % reArg.size()];
        do
          job->args = freshArgs(registry[job->kernel].name, client.rng);
        while (!usedArgs.emplace(job->kernel, job->args).second);
        job->line = requestLine(id, registry[job->kernel].source, job->args);
      } else {
        job->kernel = client.newSourceOrder[client.newSourcePos++ %
                                            client.newSourceOrder.size()];
        job->salt = ++salt;
        job->args = registry[job->kernel].args;
        job->line = requestLine(
            id, saltedSource(registry[job->kernel], job->salt), job->args);
      }
    }
    std::string line = job->line;
    job->sent = Clock::now();
    submitting = true;
    mix.service->submitAsync(std::move(line), [&, c, job](std::string r) {
      job->done = Clock::now();
      job->ms = msBetween(job->sent, job->done);
      job->response = std::move(r);
      checker.check(*job);
      if (submitting) { // answered inside submitAsync: stop this client
        std::lock_guard<std::mutex> lock(mutex);
        if (--active == 0)
          idle.notify_all();
        return;
      }
      send(c);
    });
    submitting = false;
  };
  for (std::size_t c = 0; c < clients.size(); ++c)
    send(c);
  {
    std::unique_lock<std::mutex> lock(mutex);
    idle.wait(lock, [&] { return active == 0; });
  }
  mix.service->drain();
  return jobs;
}

Result runUntraced(const Options &o) {
  Result result;
  Timings t;
  Mix mix;
  auto setUp = [&] {
    mix = Mix{};
    mix = startService(o);
    return mix.setupS;
  };
  repeatSetUp(t.setupS, kSetupSeconds, setUp);
  Checker checker(result);
  double seconds = o.seconds;
  std::deque<Job> jobs =
      drive(o, mix, o.seed, checker,
            [&](Clock::time_point start, std::size_t, bool first) {
              return !first && msBetween(start, Clock::now()) >= seconds * 1e3;
            });
  // Ten equal windows between the first request and the last reply.
  Clock::time_point first = jobs.front().sent, last = first;
  for (const Job &job : jobs)
    last = std::max(last, job.done);
  double windowMs = msBetween(first, last) / kWindows;
  t.windows.resize(kWindows);
  for (Window &w : t.windows)
    w.seconds = windowMs / 1e3;
  for (const Job &job : jobs) {
    auto slot = static_cast<std::size_t>(msBetween(first, job.done) / windowMs);
    Window &w = t.windows[std::min<std::size_t>(slot, kWindows - 1)];
    w.jobMs.push_back(float(job.ms));
    w.simCycles += job.simCycles;
  }
  mix.service.reset();
  checker.compareWithFresh();
  endToEnd(result, t);
  return result;
}

// Untraced and traced passes of a fixed number of rounds per client, each
// on a fresh service, until --seconds is used up.
Result runTraced(const Options &o) {
  constexpr std::size_t kRounds = 6; // per client
  Result result;
  Checker checker(result);
  Tracer tracer;
  double untracedMs = 0;
  std::uint64_t tracedJobs = 0, passCycles = 0;
  Stats delta{};
  FlowCounts flowCounts; // counts: the first traced pass's
  CosimCounts cosimCounts;
  auto start = Clock::now();
  auto stopAfter = [](Clock::time_point, std::size_t rounds, bool) {
    return rounds >= kRounds;
  };
  do {
    {
      Mix mix = startService(o);
      for (const Job &job : drive(o, mix, o.seed, checker, stopAfter))
        untracedMs += job.ms;
    }
    Mix mix = startService(o);
    Stats before = readStats(*mix.service);
    std::deque<Job> jobs = drive(o, mix, o.seed, checker, stopAfter);
    Stats after = readStats(*mix.service);
    delta.feHits += after.feHits - before.feHits;
    delta.feMisses += after.feMisses - before.feMisses;
    delta.modelHits += after.modelHits - before.modelHits;
    delta.modelMisses += after.modelMisses - before.modelMisses;
    delta.respHits += after.respHits - before.respHits;
    delta.respMisses += after.respMisses - before.respMisses;
    delta.rejected += after.rejected - before.rejected;
    bool firstPass = tracedJobs == 0;
    if (firstPass)
      for (const Job &job : jobs)
        passCycles += job.simCycles;
    for (const Job &job : jobs)
      recordRequest(tracer, ++tracedJobs, job.sent, job.done, job.queueMs,
                    job.runMs, false);
    // Where a miss's time goes: the stage replay of every request the
    // response cache missed, as probe roots after the pass, each checked
    // against the library's own calls for the same program.
    FlowCounts passFlow;
    CosimCounts passCosim;
    for (const Job &job : jobs) {
      if (job.cls == Cls::Repeat)
        continue;
      core::Workload w = core::standardWorkloads()[job.kernel];
      w.args = job.args;
      if (job.salt)
        w.source = saltedSource(w, job.salt);
      std::vector<CellPrint> prints;
      std::string why;
      {
        Tracer::Scope root(tracer, "serve.replay", 0, true);
        why = replayJob(tracer, 0, w, passFlow, passCosim, prints);
      }
      if (why.empty() && prints != libraryPrints(w))
        why = "stage replay diverges from runFlowChecked";
      if (!why.empty())
        result.fail(std::string(clsName(job.cls)) + " replay: " + why);
    }
    if (firstPass) {
      flowCounts = passFlow;
      cosimCounts = passCosim;
    }
  } while (msBetween(start, Clock::now()) < o.seconds * 1e3);
  checker.compareWithFresh();

  std::map<std::string, double> values;
  probeNative(tracer, core::standardWorkloads(), values, result);
  values["core.frontend_cache.hit_ratio"] = ratio(delta.feHits, delta.feMisses);
  values["vsim.model_cache.hit_ratio"] =
      ratio(delta.modelHits, delta.modelMisses);
  values["serve.response_cache.hit_ratio"] =
      ratio(delta.respHits, delta.respMisses);
  values["serve.rejected"] = delta.rejected;
  values["vsim.cycles"] = double(passCycles);
  values["ir.instrs"] = flowCounts.irInstrs;
  values["ir.blocks"] = flowCounts.irBlocks;
  values["opt.instrs_after"] = flowCounts.instrsAfter;
  values["rtl.verilog_bytes"] = cosimCounts.verilogBytes;
  values["rtl.sim_cycles"] = cosimCounts.fsmdCycles;
  values["vsim.fallbacks"] = cosimCounts.fallbacks;
  reportTrace(result, tracer, o, double(tracedJobs), untracedMs, values);
  return result;
}

} // namespace

void probeService(Tracer &tracer, const Options &options,
                  const std::vector<core::Workload> &workloads,
                  std::map<std::string, double> &values, Result &result) {
  struct Reply {
    Clock::time_point sent, done;
    std::string response;
  };
  std::vector<Reply> replies(workloads.size());
  std::mutex mutex; // guards replies
  {
    serve::ServiceOptions so;
    so.jobs = options.threads;
    serve::CosimService service(so);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const core::Workload &w = workloads[i];
      {
        std::lock_guard<std::mutex> lock(mutex);
        replies[i].sent = Clock::now();
      }
      service.submitAsync(
          requestLine("probe-" + w.name, w.source, w.args, w.top),
          [&, i](std::string response) {
            auto now = Clock::now();
            std::lock_guard<std::mutex> lock(mutex);
            replies[i].done = now;
            replies[i].response = std::move(response);
          });
    }
    service.drain();
  }
  double queueSum = 0, runSum = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    std::uint64_t cycles = 0;
    std::string why = checkResponse(replies[i].response, cycles);
    if (!why.empty())
      result.fail("service probe " + workloads[i].name + ": " + why);
    double queueMs, runMs;
    responseTiming(replies[i].response, queueMs, runMs);
    recordRequest(tracer, 0, replies[i].sent, replies[i].done, queueMs, runMs,
                  true);
    queueSum += queueMs;
    runSum += runMs;
  }
  values["serve.queue_ms"] = queueSum / double(replies.size());
  values["serve.run_ms"] = runSum / double(replies.size());
}

Result runServeMix(const Options &options) {
  return options.trace ? runTraced(options) : runUntraced(options);
}

} // namespace c2hbench
