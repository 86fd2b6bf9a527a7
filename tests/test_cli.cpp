// End-to-end exit-code and diagnostic-format contract for the c2hc driver.
//
//   0  success / no error-severity findings
//   1  rejection, synthesis or verification failure, analyzer errors
//   2  usage error
//   3  internal error
//   4  resource limit (budget trip, comb loop, simulator overrun)
//
// Run as:  test_cli <path-to-c2hc> <fixtures-dir>
//
// Deliberately not a gtest binary: it exercises the real executable through
// the shell, so it takes the c2hc path on its own command line (CMake passes
// $<TARGET_FILE:c2hc>).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace {

int failures = 0;

std::string tempFile(int n) {
  return "test_cli_out_" + std::to_string(n) + ".txt";
}

// Run `cmd`, capturing stdout+stderr; returns the exit status (not the raw
// wait status).
int run(const std::string &cmd, std::string &output, int n) {
  std::string path = tempFile(n);
  std::string full = cmd + " > " + path + " 2>&1";
  int status = std::system(full.c_str());
#ifndef _WIN32
  if (WIFEXITED(status))
    status = WEXITSTATUS(status);
#endif
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  output = ss.str();
  std::remove(path.c_str());
  return status;
}

void expectExit(const std::string &name, const std::string &cmd, int want,
                int n, const std::string &mustContain = "") {
  std::string output;
  int got = run(cmd, output, n);
  if (got != want) {
    std::cerr << "FAIL " << name << ": exit " << got << ", want " << want
              << "\n  cmd: " << cmd << "\n  output:\n" << output << "\n";
    ++failures;
    return;
  }
  if (!mustContain.empty() && output.find(mustContain) == std::string::npos) {
    std::cerr << "FAIL " << name << ": output missing '" << mustContain
              << "'\n  cmd: " << cmd << "\n  output:\n" << output << "\n";
    ++failures;
    return;
  }
  std::cout << "ok   " << name << "\n";
}

// Exit `want`, and no `forbidden` anywhere in the output.
void expectExitWithout(const std::string &name, const std::string &cmd,
                       int want, int n, const std::string &forbidden) {
  std::string output;
  int got = run(cmd, output, n);
  if (got != want) {
    std::cerr << "FAIL " << name << ": exit " << got << ", want " << want
              << "\n  cmd: " << cmd << "\n  output:\n" << output << "\n";
    ++failures;
    return;
  }
  if (output.find(forbidden) != std::string::npos) {
    std::cerr << "FAIL " << name << ": output contains '" << forbidden
              << "'\n  cmd: " << cmd << "\n  output:\n" << output << "\n";
    ++failures;
    return;
  }
  std::cout << "ok   " << name << "\n";
}

// Byte-exact golden comparison: the diagnostic formats are a contract, so
// any drift — ordering, spacing, schema — must be a deliberate golden-file
// update, not an accident.
void expectOutputMatchesFile(const std::string &name, const std::string &cmd,
                             int wantExit, const std::string &goldenPath,
                             int n) {
  std::string output;
  int got = run(cmd, output, n);
  if (got != wantExit) {
    std::cerr << "FAIL " << name << ": exit " << got << ", want " << wantExit
              << "\n  cmd: " << cmd << "\n  output:\n" << output << "\n";
    ++failures;
    return;
  }
  std::ifstream in(goldenPath, std::ios::binary);
  if (!in) {
    std::cerr << "FAIL " << name << ": cannot open golden " << goldenPath
              << "\n";
    ++failures;
    return;
  }
  std::stringstream golden;
  golden << in.rdbuf();
  if (output != golden.str()) {
    std::cerr << "FAIL " << name << ": output differs from golden "
              << goldenPath << "\n--- got\n" << output << "--- want\n"
              << golden.str() << "\n";
    ++failures;
    return;
  }
  std::cout << "ok   " << name << "\n";
}

void expectSameOutput(const std::string &name, const std::string &cmdA,
                      const std::string &cmdB, int n) {
  std::string a, b;
  run(cmdA, a, n);
  run(cmdB, b, n + 1);
  if (a != b) {
    std::cerr << "FAIL " << name << ": outputs differ\n--- A (" << cmdA
              << ")\n" << a << "--- B (" << cmdB << ")\n" << b << "\n";
    ++failures;
    return;
  }
  std::cout << "ok   " << name << "\n";
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 3) {
    std::cerr << "usage: test_cli <c2hc> <fixtures-dir>\n";
    return 2;
  }
  const std::string c2hc = argv[1];
  const std::string fx = argv[2];
  int n = 0;

  // --- usage errors: exit 2 -----------------------------------------------
  expectExit("no_arguments", c2hc, 2, ++n, "usage:");
  expectExit("unknown_option", c2hc + " --frobnicate", 2, ++n,
             "unknown option");
  expectExit("bad_diag_format",
             c2hc + " " + fx + "/good.uc --analyze --diag-format=xml", 2, ++n,
             "--diag-format");
  expectExit("unknown_flow", c2hc + " " + fx + "/good.uc --flow=vhdl", 2, ++n,
             "unknown flow");
  expectExit("unknown_workload", c2hc + " --workload=nonexistent", 2, ++n,
             "unknown workload");
  expectExit("missing_file", c2hc + " " + fx + "/no_such_file.uc", 2, ++n,
             "cannot open");

  // --- success: exit 0 ----------------------------------------------------
  expectExit("list_workloads", c2hc + " --list-workloads", 0, ++n, "gcd");
  expectExit("clean_analyze", c2hc + " " + fx + "/good.uc --analyze", 0, ++n,
             "0 error(s)");
  expectExit("clean_synthesis",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3", 0, ++n,
             "matches the reference interpreter");
  expectExit("cosim_single_flow",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3 --cosim", 0,
             ++n, "cosim   : PASS");
  expectExit("cosim_all_flows", c2hc + " --workload=gcd --flow=all --cosim",
             0, ++n, "cosim");
  // compiled-strict: every accepted row must run on the compiled engine
  // with zero fallbacks — a downgrade would fail the row and flip exit 1.
  expectExit("cosim_strict_no_fallback",
             c2hc + " --workload=gcd --flow=all --cosim"
                    " --vsim-engine=compiled-strict",
             0, ++n, "cosim");
  expectExit("cosim_strict_single_flow",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3 --cosim"
                    " --vsim-engine=compiled-strict",
             0, ++n, "compiled engine");
  expectExit("bad_vsim_engine",
             c2hc + " --workload=gcd --cosim --vsim-engine=interpreted", 2,
             ++n,
             "invalid value for --vsim-engine: 'interpreted' (expected "
             "event, compiled, compiled-strict, native, or native-strict)");
  // JSON cosim rows carry the engine and (empty) fallback per flow.
  expectExit("cosim_json_rows",
             c2hc + " --workload=gcd --flow=all --cosim --diag-format=json",
             0, ++n, "\"engine\":\"compiled\",\"fallback\":\"\"");
  expectExit("emit_verilog_dir",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --emit-verilog=test_cli_emit_out",
             0, ++n, "_tb.v");
  expectExit("tb_to_stdout",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3 --tb=-", 0,
             ++n, "module c2h_main_tb");
  expectExit("tb_unwritable_path",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --tb=test_cli_no_such_dir/tb.v",
             1, ++n, "cannot write test_cli_no_such_dir/tb.v");
  std::remove("test_cli_emit_out/bachc_good.v");
  std::remove("test_cli_emit_out/bachc_good_tb.v");
  std::remove("test_cli_emit_out");

  // --- program errors: exit 1 ---------------------------------------------
  expectExit("race_analyze", c2hc + " " + fx + "/race.uc --analyze", 1, ++n,
             "C2H-RACE-001");
  expectExit("race_json",
             c2hc + " " + fx + "/race.uc --analyze --diag-format=json", 1,
             ++n, "\"code\":\"C2H-RACE-001\"");
  expectExit("race_rejected_by_flow",
             c2hc + " " + fx + "/race.uc --flow=handelc", 1, ++n,
             "C2H-RACE-001");
  expectExit("deadlock_analyze", c2hc + " " + fx + "/deadlock.uc --analyze",
             1, ++n, "C2H-CHAN-006");
  // Range-analysis family: the seeded fixture trips every code; analyzer
  // errors are exit 1, the JSON carries the schema version, flows reject
  // before synthesis, and the full JSON report is golden-pinned.
  expectExit("rangebugs_analyze",
             c2hc + " " + fx + "/rangebugs.uc --analyze", 1, ++n,
             "C2H-BOUND-001");
  expectExit("rangebugs_json_schema_version",
             c2hc + " " + fx + "/rangebugs.uc --analyze --diag-format=json",
             1, ++n, "\"schema_version\":2");
  expectExit("rangebugs_rejected_by_flow",
             c2hc + " " + fx + "/rangebugs.uc --flow=bachc --args=3", 1, ++n,
             "C2H-DIV-001");
  expectOutputMatchesFile(
      "rangebugs_json_golden",
      c2hc + " " + fx + "/rangebugs.uc --analyze --diag-format=json", 1,
      fx + "/rangebugs_analyze.json", ++n);
  expectExit("unbounded_loop_under_cones",
             c2hc + " " + fx + "/unbounded.uc --flow=cones", 1, ++n);
  // A program that does not compile fails every flow, with the front
  // end's diagnostic, under one flow and under all of them.
  expectExit("syntax_error_single_flow",
             c2hc + " " + fx + "/syntaxerror.uc --flow=bachc", 1, ++n,
             "failed: frontend: 5:36: error:");
  expectExit("syntax_error_all_flows",
             c2hc + " " + fx + "/syntaxerror.uc --flow=all", 1, ++n,
             "frontend: 5:36: error:");
  // The front-end error sits inside each row's note: no row of the table
  // is followed by a blank line, and no serve note ends in a newline.
  expectExitWithout("syntax_error_all_flows_no_blank_lines",
                    c2hc + " " + fx + "/syntaxerror.uc --flow=all", 1, ++n,
                    "\n\n");
  // The one-flow path prints it on one line too, with and without the
  // vsim witness.
  expectExitWithout("syntax_error_single_flow_no_blank_line",
                    c2hc + " " + fx + "/syntaxerror.uc --flow=bachc", 1,
                    ++n, "\n\n");
  expectExitWithout("syntax_error_single_flow_cosim_no_blank_line",
                    c2hc + " " + fx + "/syntaxerror.uc --flow=bachc --cosim",
                    1, ++n, "\n\n");
  expectExitWithout(
      "syntax_error_serve_note_unterminated",
      "printf '%s\\n' '{\"id\":\"s\",\"op\":\"compare\",\"source\":"
      "\"int main() { return 0 }\",\"timing\":false}' | " +
          c2hc + " --serve",
      0, ++n, "\\n\"");

  // --- resource limits and fault injection --------------------------------
  expectExit("list_fault_sites", c2hc + " --list-fault-sites", 0, ++n,
             "flow.lower");
  expectExit("negative_budget_value",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --budget-ms=-3",
             2, ++n, "invalid value for --budget-ms");
  expectExit("unknown_fault_site",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --inject-fault=bogus.site",
             2, ++n, "unknown fault site");
  expectExit("injected_fault_exit_1",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --inject-fault=flow.lower",
             1, ++n, "INJECTED_FAULT");
  // --flow=all applies the serve protocol's exit-code rule: a row that an
  // injected fault stopped is a failure, whichever stage it hit.
  expectExit("injected_fault_single_flow_frontend",
             c2hc + " --workload=gcd --flow=bachc"
                    " --inject-fault=frontend.parse",
             1, ++n, "failed: INJECTED_FAULT at frontend.parse");
  expectExit("injected_fault_all_flows_frontend",
             c2hc + " --workload=gcd --flow=all"
                    " --inject-fault=frontend.parse",
             1, ++n, "INJECTED_FAULT");
  expectExit("injected_fault_all_flows_engine_cell",
             c2hc + " --workload=gcd --flow=all --inject-fault=engine.cell",
             1, ++n, "INJECTED_FAULT");
  // The nth field is parsed as digits only: "-3" must be a usage error,
  // not a wrap through stoull to the 2^64-3rd hit.
  expectExit("negative_inject_nth",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --inject-fault=flow.lower:-3",
             2, ++n, "invalid value for --inject-fault");
  expectExit("zero_inject_nth",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --inject-fault=flow.lower:0",
             2, ++n, "invalid value for --inject-fault");
  // An injected vsim.compile fault downgrades the cosim to the event
  // engine; the recorded reason is surfaced, never silent.
  expectExit("compile_fault_fallback_is_surfaced",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3 --cosim"
                    " --inject-fault=vsim.compile",
             0, ++n, "fallback to event engine");
  // Under compiled-strict the same fault is an error, exit 1.
  expectExit("compile_fault_strict_is_an_error",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3 --cosim"
                    " --vsim-engine=compiled-strict"
                    " --inject-fault=vsim.compile",
             1, ++n, "compiled-strict");
  expectExit("step_budget_exit_4",
             c2hc + " " + fx + "/longloop.uc --flow=bachc --args=1"
                    " --budget-steps=10000",
             4, ++n, "STEP_LIMIT");
  // Range analysis is metered: the 64-tap FIR spends its wall-clock budget
  // there, and the trip names the stage.  (CI's Release job also bounds
  // the trip latency; timings under Debug or sanitizers mean nothing.)
  expectExit("range_budget_trip_names_flow_range",
             c2hc + " " + fx + "/fir64.uc --flow=bachc --budget-ms=100", 4,
             ++n, "TIMEOUT at flow.range");
  // Each witness runs once per cell on one meter.  crc8small finishes in
  // under 20 cycles, so the FSMD simulator and vsim each charge one
  // 1024-cycle batch: 2048 cycles fit 2500, and 1500 trips in vsim's
  // compiled run, which a budget trip does not retry on another engine.
  for (const char *flow : {"all", "bachc"}) {
    const std::string crc = c2hc + " --workload=crc8small --cosim --flow=" +
                            flow + " --budget-cycles=";
    expectExitWithout(std::string("cosim_budget_fits_") + flow,
                      crc + "2500", 0, ++n, "CYCLE_LIMIT");
    expectExit(std::string("cosim_budget_trips_in_vsim_") + flow,
               crc + "1500", 4, ++n, "CYCLE_LIMIT at vsim.compiled.run");
    expectExitWithout(std::string("cosim_budget_trip_not_retried_") + flow,
                      crc + "1500", 4, ++n, "degraded");
    expectExitWithout(std::string("cosim_budget_fsmd_runs_once_") + flow,
                      crc + "1500", 4, ++n, "rtl.sim");
  }
  expectExit("generous_budget_still_passes",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --budget-steps=100000000 --budget-ms=60000",
             0, ++n, "matches the reference interpreter");

  // --- determinism --------------------------------------------------------
  std::string analyzeCmd =
      c2hc + " " + fx + "/race.uc --analyze --diag-format=json";
  expectSameOutput("analyze_repeatable", analyzeCmd, analyzeCmd, n += 2);
  expectSameOutput("all_flows_jobs_invariant",
                   c2hc + " " + fx + "/good.uc --flow=all --args=3 --jobs=1",
                   c2hc + " " + fx + "/good.uc --flow=all --args=3 --jobs=4",
                   n += 2);

  if (failures) {
    std::cerr << failures << " failure(s)\n";
    return 1;
  }
  std::cout << "all CLI exit-code checks passed\n";
  return 0;
}
