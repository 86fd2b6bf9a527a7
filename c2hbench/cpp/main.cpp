// c2h-bench: the benchmark program.
//
//   c2h_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//   c2h_bench --self-test
//
// Prints one table row of metrics (name=value unit) for the workload, then,
// as the last line, the JSON result object run.py passes on.  Exit code 0
// when the run completed (the JSON says whether outputs were correct), 2 on
// a usage error.  Worker threads: one per CPU the process may run on.
#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sched.h>
#include <sys/resource.h>

namespace c2hbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty())
    return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(p / 100.0 * v.size() + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

void endToEnd(Result &result, const Timings &t) {
  std::vector<double> p50, p90, rate, sim;
  for (const Window &w : t.windows) {
    if (w.jobMs.empty() || w.seconds <= 0)
      continue;
    std::vector<double> ms(w.jobMs.begin(), w.jobMs.end());
    p50.push_back(percentile(ms, 50));
    p90.push_back(percentile(ms, 90));
    rate.push_back(ms.size() / w.seconds);
    sim.push_back(w.simCycles / w.seconds / 1e6);
  }
  result.add("setup_s", "s", median(t.setupS));
  result.add("job_p50_ms", "ms", median(p50));
  result.add("job_p90_ms", "ms", median(p90));
  result.add("jobs_per_s", "1/s", median(rate));
  result.add("peak_rss_mb", "MB", peakRssMb());
  result.add("sim_mcycles_per_s", "Mcycle/s", median(sim));
}

} // namespace c2hbench

namespace {

using namespace c2hbench;

int usage(const char *why) {
  std::fprintf(stderr,
               "c2h_bench: %s\nusage: c2h_bench --workload "
               "<registry-cold|unrolled-scaled|serve-mix|stimulus-sweep> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
               "       c2h_bench --self-test\n",
               why);
  return 2;
}

// The CPUs this process may run on (its affinity mask, as nproc counts).
unsigned affinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string formatNumber(const char *format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

} // namespace

int main(int argc, char **argv) {
  Options options;
  options.threads = affinityCpus();
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test")
      return runSelfTest();
    if (i + 1 >= argc)
      return usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char *end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1")
        return usage("--trace takes 0 or 1");
    } else if (arg == "--trace-dir") {
      options.traceDir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
    if (end && *end != '\0')
      return usage(("invalid value for " + arg).c_str());
  }
  if (!haveWorkload)
    return usage("--workload is required");
  if (options.seconds <= 0)
    return usage("--seconds must be positive");

  static const std::map<std::string, Result (*)(const Options &)> runners = {
      {"registry-cold", runRegistryCold},
      {"unrolled-scaled", runUnrolledScaled},
      {"serve-mix", runServeMix},
      {"stimulus-sweep", runStimulusSweep},
  };
  auto it = runners.find(options.workload);
  if (it == runners.end())
    return usage(("unknown workload " + options.workload).c_str());

  Result result = it->second(options);

  for (const auto &why : result.failures)
    std::fprintf(stderr, "c2h-bench: failed job: %s\n", why.c_str());
  for (const auto &line : result.notes)
    std::printf("%s\n", line.c_str());
  double failedFrac =
      result.attempted ? double(result.failed) / result.attempted : 1.0;
  std::printf("%-16s attempted=%llu failed_frac=%.6g", options.workload.c_str(),
              static_cast<unsigned long long>(result.attempted), failedFrac);
  for (const auto &m : result.metrics)
    std::printf("  %s=%s %s", m.name.c_str(),
                formatNumber("%.6g", m.value).c_str(),
                m.unit.c_str());
  std::printf("\n");

  std::string json = "{\"correct\": ";
  json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric &m = result.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            formatNumber("%.17g", m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
