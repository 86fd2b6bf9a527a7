// Span recorder for the traced run.
//
// The benchmark records spans from its own files, around the calls it makes
// into each layer: a span has a name, start, end, parent and job id.  Spans
// stay in memory and are written once, at exit, as Chrome trace-event JSON
// (chrome://tracing and https://ui.perfetto.dev open it offline).
//
// Self time is a span's duration minus the part its children cover.  A
// "probe" span marks work the traced run does only to measure it (a second
// vsim run, the parse/elaborate/compile split): it is excluded from the
// tracing overhead and from the job's coverage.
#ifndef C2HBENCH_TRACE_H
#define C2HBENCH_TRACE_H

#include "bench.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace c2hbench {

class Tracer {
public:
  struct Span {
    std::string name;
    std::int64_t startNs = 0, endNs = -1;
    int parent = -1;
    std::uint64_t job = 0;
    unsigned tid = 0;
    bool probe = false;
  };

  // RAII span on the calling thread; nests under the thread's open span.
  class Scope {
  public:
    Scope(Tracer &tracer, const std::string &name, std::uint64_t job,
          bool probe = false);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
  };

  // A span whose bounds the caller measured (a serve request from submit to
  // reply, and the queue/run times the service reports for it); returns its
  // index for use as `parent` (-1 = a root span).
  int record(const std::string &name, std::uint64_t job,
             Clock::time_point start, Clock::time_point end, int parent,
             bool probe = false);

  struct LayerStat {
    std::uint64_t calls = 0;
    double totalMs = 0, selfMs = 0;
    double probeSelfMs = 0; // the part of selfMs spent in probe spans
  };
  // name -> calls, total and self time, over every span recorded so far.
  std::map<std::string, LayerStat> layers() const;
  // Root (job) spans: summed duration, the part children cover, and the part
  // probe subtrees take.
  struct Roots {
    std::uint64_t count = 0;
    double durMs = 0, coveredMs = 0, probeMs = 0;
  };
  Roots roots() const;

  // Chrome trace-event JSON ("X" complete events, microseconds).
  bool writeChrome(const std::string &path) const;

private:
  int open(const std::string &name, std::uint64_t job, bool probe);
  void close(int index);
  std::int64_t nowNs() const;
  unsigned threadId();

  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_; // guards spans_ and tids_
  std::vector<Span> spans_;
  std::map<std::size_t, unsigned> tids_;
};

// A Scope when a tracer is given; nothing otherwise.
class MaybeScope {
public:
  MaybeScope(Tracer *tracer, const std::string &name, std::uint64_t job) {
    if (tracer)
      scope_.emplace(*tracer, name, job);
  }

private:
  std::optional<Tracer::Scope> scope_;
};

// Finishes a traced run: adds every per_layer metric BENCHMARK.json lists,
// in its order, prints the self-time table and writes the Chrome trace to
// <traceDir>/<workload>-seed<N>.json.  Span self times become ms per traced
// job (span "interp" -> "interp.ms", "analysis.range_check" ->
// "analysis.range_check_ms"); `values` supplies the counts, ratios and
// service timings; trace.coverage and trace.overhead_frac come from the
// root spans and `untracedMs`, the untraced passes' wall time.  A layer the
// workload does not exercise reads 0.
void reportTrace(Result &result, const Tracer &tracer, const Options &options,
                 double jobs, double untracedMs,
                 std::map<std::string, double> values);

} // namespace c2hbench

#endif // C2HBENCH_TRACE_H
