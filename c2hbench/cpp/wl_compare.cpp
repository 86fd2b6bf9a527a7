// registry-cold and unrolled-scaled: each job is one program through all 11
// flows with three-model cosim on a CompareEngine whose caches are cold for
// that program.
#include "bench.h"
#include "gen.h"
#include "oracle.h"
#include "replay.h"
#include "trace.h"

#include "core/engine.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>

namespace c2hbench {

using namespace c2h;

namespace {

using PassMaker = std::function<std::vector<core::Workload>(std::uint64_t)>;

std::vector<core::Workload> registryPass(std::uint64_t seed) {
  std::vector<core::Workload> pass = core::standardWorkloads();
  Rng rng(seed);
  rng.shuffle(pass);
  return pass;
}

std::vector<core::FlowComparison> compareCold(core::CompareEngine &engine,
                                              const core::Workload &w) {
  // Evict everything, then lift the cap again: the job starts cold.
  engine.cache().setCapacityBytes(1);
  engine.cache().setCapacityBytes(0);
  return engine.compareFlows(w);
}

// One caller runs repeated passes over the programs on one engine with a
// pool of nproc threads: the one-shot
// `c2hc --workload=<k> --flow=all --cosim --jobs=<nproc>` path.  Each pass
// is a window; the run stops at the first pass boundary after --seconds, so
// every seed measures the same program mix.
Result runUntraced(const Options &o, const PassMaker &makePass,
                   bool widthCheckAll) {
  Result result;
  Timings t;
  std::vector<core::Workload> pass;
  std::unique_ptr<core::CompareEngine> engine;
  std::string invalid;
  core::EngineOptions eo;
  eo.jobs = o.threads;
  eo.cosim = true;
  auto setUpInto = [&](std::vector<core::Workload> &p,
                       std::unique_ptr<core::CompareEngine> &e) {
    auto t0 = Clock::now();
    // Input generation: the pass, each program checked by the front end
    // (on a private context, so the engine's caches stay cold).
    p = makePass(o.seed);
    for (const auto &w : p) {
      TypeContext types;
      DiagnosticEngine diags;
      if (!frontend(w.source, types, diags))
        invalid = w.name + ": " + diags.str();
    }
    e = std::make_unique<core::CompareEngine>(eo);
    return invalid.empty() ? msBetween(t0, Clock::now()) / 1e3 : -1.0;
  };
  // Set-up takes well under a millisecond here, and one burst of it reads
  // whatever state the host is in at that moment; a little more after each
  // pass, into throwaway state, samples the whole run, like the timed
  // metrics' windows do.
  constexpr double kSetupBurstSeconds = 0.01;
  auto setUpAgain = [&] {
    std::vector<core::Workload> p;
    std::unique_ptr<core::CompareEngine> e;
    return setUpInto(p, e);
  };
  if (!repeatSetUp(t.setupS, 5 * kSetupBurstSeconds,
                   [&] { return setUpInto(pass, engine); })) {
    result.attempted = 1;
    result.fail("set-up: " + invalid);
    return result;
  }

  std::map<std::string, std::string> digests;
  std::map<std::string, std::vector<double>> latency;
  auto start = Clock::now();
  do {
    Window window;
    auto passStart = Clock::now();
    for (const auto &w : pass) {
      auto t0 = Clock::now();
      std::vector<core::FlowComparison> rows = compareCold(*engine, w);
      double ms = msBetween(t0, Clock::now());
      ++result.attempted;
      window.jobMs.push_back(float(ms));
      latency[w.name].push_back(ms);
      for (const auto &r : rows)
        if (r.cosimRan && r.cosimOk)
          window.simCycles += r.cosimCycles;
      std::string why = checkRows(rows);
      std::string digest = rowDigest(rows);
      auto [it, fresh] = digests.emplace(w.name, digest);
      if (why.empty() && !fresh && it->second != digest)
        why = "row digest differs between repeats";
      if (!why.empty())
        result.fail(w.name + ": " + why);
    }
    window.seconds = msBetween(passStart, Clock::now()) / 1e3;
    t.windows.push_back(std::move(window));
    repeatSetUp(t.setupS, kSetupBurstSeconds, setUpAgain);
  } while (msBetween(start, Clock::now()) < o.seconds * 1e3);

  // Pool-width invariance, outside the timed loop: the same programs on a
  // serial engine must give the same digests.  The scaled family checks only
  // its cheapest program, to keep the run short.
  std::vector<const core::Workload *> check;
  if (widthCheckAll) {
    for (const auto &w : pass)
      check.push_back(&w);
  } else {
    const core::Workload *cheapest = &pass.front();
    for (const auto &w : pass)
      if (median(latency[w.name]) < median(latency[cheapest->name]))
        cheapest = &w;
    check.push_back(cheapest);
  }
  eo.jobs = 1;
  core::CompareEngine serial(eo);
  for (const core::Workload *w : check)
    if (rowDigest(serial.compareFlows(*w)) != digests[w->name])
      result.fail(w->name + ": row digest differs between pool widths");

  endToEnd(result, t);
  return result;
}

// Untraced and traced passes over the same programs, both serial, until
// --seconds is used up; then the service probe.  The untraced pass makes
// runCell's calls (FrontendCache::get, runFlowChecked,
// verifyAgainstGoldenModel, cosimAgainstGoldenModel); the traced pass makes
// the stage replay's, and must reproduce the untraced pass's cells.  The
// native-tier probe takes every design when `nativeAll`, else only the first
// design of the shortest program: the host compiler takes seconds on each
// scaled design, minutes on the whole family.
Result runTraced(const Options &o, const PassMaker &makePass, bool nativeAll) {
  Result result;
  std::vector<core::Workload> pass = makePass(o.seed);
  Tracer tracer;
  std::map<std::string, double> values;
  FlowCounts flowCounts;
  CosimCounts cosimCounts;
  std::uint64_t cacheHits = 0, cacheLookups = 0;
  double untracedMs = 0;
  std::uint64_t job = 0, tracedJobs = 0;
  bool firstPass = true;
  auto start = Clock::now();
  do {
    FlowCounts passFlow;
    CosimCounts passCosim;
    for (const auto &w : pass) {
      ++job;
      ++result.attempted;
      std::vector<CellPrint> expected, replayed;
      std::vector<core::FlowComparison> rows;
      // Untraced: the cell-level public calls, timed call by call so the
      // fingerprinting in between is not counted.
      {
        core::FrontendCache cache;
        auto t0 = Clock::now();
        std::shared_ptr<core::FrontendCache::Entry> entry =
            cache.get(w.source, w.top);
        untracedMs += msBetween(t0, Clock::now());
        cacheHits += cache.hits();
        cacheLookups += cache.hits() + cache.misses();
        for (const auto &spec : flows::allFlows()) {
          core::FlowComparison row;
          row.flowId = spec.info.id;
          t0 = Clock::now();
          guard::ExecBudget meter;
          flows::FlowTuning tuning;
          tuning.meter = &meter;
          std::unique_ptr<ast::Program> program = entry->cloneAst();
          flows::FlowResult fr = flows::runFlowChecked(
              spec, *program, entry->types, w.top, tuning);
          core::Verification v;
          core::CosimVerification cv;
          if (fr.accepted && fr.ok) {
            v = core::verifyAgainstGoldenModel(w, fr, *entry->program,
                                               &meter);
            if (v.ok && fr.design && !fr.asyncInfo)
              cv = core::cosimAgainstGoldenModel(
                  w, fr, *entry->program, vsim::SimEngine::Compiled, &meter);
          }
          untracedMs += msBetween(t0, Clock::now());
          row.accepted = fr.accepted;
          row.verified = v.ok;
          row.note = fr.accepted ? (fr.ok ? v.detail : fr.error) : "";
          row.cycles = v.cycles;
          row.areaTotal = fr.asyncInfo ? fr.asyncInfo->area
                                       : (fr.ok ? fr.area.total() : 0.0);
          row.fmaxMHz = fr.asyncInfo ? 0.0 : fr.timing.fmaxMHz;
          row.cosimRan = cv.ran;
          row.cosimOk = cv.ok;
          row.cosimCycles = cv.cycles;
          row.cosimNote = cv.detail;
          rows.push_back(row);
          expected.push_back(fingerprint(fr, v.cycles));
        }
      }
      std::string why = checkRows(rows);

      // Traced: the replay, one root span per job.
      {
        Tracer::Scope root(tracer, "job", job);
        std::string replayWhy =
            replayJob(tracer, job, w, passFlow, passCosim, replayed);
        if (why.empty())
          why = replayWhy;
      }
      ++tracedJobs;
      for (std::size_t i = 0; i < expected.size() && why.empty(); ++i)
        if (!(expected[i] == replayed[i]))
          why = flows::allFlows()[i].info.id +
                ": stage replay diverges from runFlowChecked";
      if (!why.empty())
        result.fail(w.name + ": " + why);
    }
    if (firstPass) {
      flowCounts = passFlow;
      cosimCounts = passCosim;
      firstPass = false;
    }
  } while (msBetween(start, Clock::now()) < o.seconds * 1e3);
  probeService(tracer, o, pass, values, result);
  if (nativeAll) {
    probeNative(tracer, pass, values, result);
  } else {
    auto shortest = std::min_element(
        pass.begin(), pass.end(), [](const auto &a, const auto &b) {
          return a.source.size() < b.source.size();
        });
    probeNative(tracer, {*shortest}, values, result, 1);
  }

  values["ir.instrs"] = flowCounts.irInstrs;
  values["ir.blocks"] = flowCounts.irBlocks;
  values["opt.instrs_after"] = flowCounts.instrsAfter;
  values["rtl.verilog_bytes"] = cosimCounts.verilogBytes;
  values["rtl.sim_cycles"] = cosimCounts.fsmdCycles;
  values["vsim.cycles"] = cosimCounts.vsimCycles;
  values["vsim.fallbacks"] = cosimCounts.fallbacks;
  values["core.frontend_cache.hit_ratio"] =
      cacheLookups ? double(cacheHits) / cacheLookups : 0.0;
  reportTrace(result, tracer, o, double(tracedJobs), untracedMs, values);
  return result;
}

} // namespace

Result runRegistryCold(const Options &options) {
  return options.trace ? runTraced(options, registryPass, true)
                       : runUntraced(options, registryPass, true);
}

Result runUnrolledScaled(const Options &options) {
  return options.trace ? runTraced(options, scaledPass, false)
                       : runUntraced(options, scaledPass, false);
}

} // namespace c2hbench
