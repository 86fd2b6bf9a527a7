// c2h-bench: shared pieces of the benchmark program.
//
// Every workload runs in its own process (run.py starts one per run), drives
// the library's public API, checks every output, and reports its metrics as
// a Result that main.cpp prints as a table row and as the final JSON line.
#ifndef C2HBENCH_BENCH_H
#define C2HBENCH_BENCH_H

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

namespace c2hbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// SplitMix64: the benchmark's only randomness, so a seed fixes every input.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi] (inclusive).
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  template <class T> void shuffle(std::vector<T> &v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }

private:
  std::uint64_t state_;
};

// `s` as a JSON string literal, quotes included.
inline std::string jsonQuote(const std::string &s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 1;   // worker threads: the CPUs the process may use
  std::string traceDir;   // where the traced run writes its Chrome trace
};

struct Metric {
  std::string name, unit;
  double value = 0;
};

struct Result {
  std::uint64_t attempted = 0, failed = 0;
  // The first few failure descriptions (printed to stderr, not the JSON).
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  // Extra human-readable lines printed before the table (traced runs print
  // their per-layer self-time table here).
  std::vector<std::string> notes;

  void fail(const std::string &why) {
    ++failed;
    if (failures.size() < 8)
      failures.push_back(why);
  }
  void add(const std::string &name, const std::string &unit, double value) {
    metrics.push_back({name, unit, value});
  }
};

// One stretch of the timed loop: a pass over the program set on the compare
// workloads, a tenth of the run on the others.
struct Window {
  std::vector<float> jobMs;    // one per job completed in the window
  double seconds = 0;          // its wall time
  std::uint64_t simCycles = 0; // DUT cycles simulated and checked by vsim
};

// Untraced timings every workload collects; endToEnd() turns them into the
// end-to-end metrics BENCHMARK.json lists.  Each is the median over the
// run's windows, so a stretch in which the host was slow moves it less.
struct Timings {
  std::vector<double> setupS; // one per set-up repetition
  std::vector<Window> windows;
};
inline constexpr int kWindows = 10; // time windows on serve-mix and sweep

double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double peakRssMb();
void endToEnd(Result &result, const Timings &timings);

Result runRegistryCold(const Options &options);
Result runUnrolledScaled(const Options &options);
Result runServeMix(const Options &options);
Result runStimulusSweep(const Options &options);
int runSelfTest();

// Repeats `setUp` (which returns its own duration in seconds, or a negative
// value on failure) at least three times and until `minSeconds` have gone
// by, appending each duration to `seconds`; false on failure.  setup_s is
// their median; the timed loop uses the state the last repetition left.
template <class SetUp>
bool repeatSetUp(std::vector<double> &seconds, double minSeconds,
                 SetUp setUp) {
  double total = 0;
  for (int reps = 0; reps < 3 || (total < minSeconds && reps < 5000); ++reps) {
    double s = setUp();
    if (s < 0)
      return false;
    seconds.push_back(s);
    total += s;
  }
  return true;
}
inline constexpr double kSetupSeconds = 0.5;

} // namespace c2hbench

#endif // C2HBENCH_BENCH_H
