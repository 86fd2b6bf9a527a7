// The benchmark's own checks (c2h_bench --self-test):
//  1. a corrupted row (a flipped cycle count) counts as failed, for engine
//     rows and for serve responses alike;
//  2. the scaled-family generator is deterministic per seed, and every
//     program it makes compiles;
//  3. the stage replay matches runFlowChecked on every registry cell.
#include "bench.h"
#include "gen.h"
#include "oracle.h"
#include "replay.h"

#include "core/engine.h"
#include "opt/astclone.h"
#include "serve/service.h"

#include <cstdio>

namespace c2hbench {

using namespace c2h;

namespace {

int failures = 0;

void expect(bool ok, const std::string &what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok)
    ++failures;
}

void corruptedRowsFail() {
  core::EngineOptions eo;
  eo.jobs = 1;
  eo.cosim = true;
  core::CompareEngine engine(eo);
  const core::Workload &gcd = core::findWorkload("gcd");
  std::vector<core::FlowComparison> rows = engine.compareFlows(gcd);
  expect(checkRows(rows).empty(), "gcd rows pass the oracle");
  std::size_t sync = rows.size();
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (rows[i].cosimRan && rows[i].cosimOk) {
      sync = i;
      break;
    }
  expect(sync < rows.size(), "gcd has a co-simulated row");
  if (sync == rows.size())
    return;
  std::vector<core::FlowComparison> flipped = rows;
  flipped[sync].cosimCycles ^= 1;
  expect(!checkRows(flipped).empty(), "a flipped cosim cycle count fails");
  flipped = rows;
  flipped[sync].cycles ^= 1;
  expect(!checkRows(flipped).empty(), "a flipped FSMD cycle count fails");
  expect(rowDigest(flipped) != rowDigest(rows),
         "a flipped cycle count changes the row digest");

  serve::ServiceOptions so;
  so.jobs = 1;
  serve::CosimService service(so);
  std::string response =
      service.handleLine("{\"id\":\"t\",\"op\":\"cosim\",\"workload\":\"gcd\"}");
  std::uint64_t cycles = 0;
  expect(checkResponse(response, cycles).empty() && cycles > 0,
         "a gcd serve response passes the oracle");
  std::string tag = "\"cosimCycles\":";
  std::size_t at = response.find(tag + std::to_string(rows[sync].cosimCycles));
  expect(at != std::string::npos, "the response carries the cosim cycles");
  if (at != std::string::npos) {
    std::string bad = response;
    bad.replace(at, tag.size() + std::to_string(rows[sync].cosimCycles).size(),
                tag + std::to_string(rows[sync].cosimCycles ^ 1));
    expect(!checkResponse(bad, cycles).empty(),
           "a serve response with a flipped cycle count fails");
    expect(responseCore(bad) != responseCore(response),
           "the flipped response differs from the fresh answer");
  }
  serve::CosimService fresh(so);
  expect(responseCore(fresh.handleLine(
             "{\"id\":\"u\",\"op\":\"cosim\",\"workload\":\"gcd\"}")) ==
             responseCore(response),
         "a fresh service gives the same response core");
}

void generatorIsDeterministic() {
  auto sources = [](std::uint64_t seed) {
    std::vector<std::string> out;
    for (const auto &w : scaledPass(seed))
      out.push_back(w.name + "\n" + w.source);
    return out;
  };
  expect(sources(7) == sources(7), "the same seed gives the same programs");
  expect(sources(7) != sources(8), "another seed gives other programs");
  bool allCompile = true;
  for (const auto &w : scaledPass(7)) {
    TypeContext types;
    DiagnosticEngine diags;
    if (!frontend(w.source, types, diags)) {
      allCompile = false;
      std::printf("      %s: %s\n", w.name.c_str(), diags.str().c_str());
    }
  }
  expect(allCompile, "every generated program compiles");
}

void replayMatchesLibrary() {
  Tracer tracer;
  std::size_t cells = 0, same = 0;
  for (const auto &w : core::standardWorkloads()) {
    TypeContext types;
    DiagnosticEngine diags;
    std::unique_ptr<ast::Program> golden = frontend(w.source, types, diags);
    if (!golden) {
      expect(false, w.name + " compiles");
      continue;
    }
    for (const auto &spec : flows::allFlows()) {
      std::unique_ptr<ast::Program> a = opt::cloneProgram(*golden);
      std::unique_ptr<ast::Program> b = opt::cloneProgram(*golden);
      flows::FlowResult lib = flows::runFlowChecked(spec, *a, types, w.top);
      FlowCounts counts;
      flows::FlowResult rep =
          replayFlow(tracer, 0, spec, *b, types, w.top, counts);
      ++cells;
      bool match = fingerprint(lib, 0) == fingerprint(rep, 0) &&
                   lib.rejections == rep.rejections && lib.error == rep.error;
      same += match;
      if (!match)
        std::printf("      %s/%s diverges\n", w.name.c_str(),
                    spec.info.id.c_str());
    }
  }
  expect(cells > 0 && same == cells,
         "stage replay matches runFlowChecked on " + std::to_string(same) +
             "/" + std::to_string(cells) + " registry cells");
}

} // namespace

int runSelfTest() {
  corruptedRowsFail();
  generatorIsDeterministic();
  replayMatchesLibrary();
  std::printf("%s\n", failures ? "self-test FAILED" : "self-test passed");
  return failures ? 1 : 0;
}

} // namespace c2hbench
