#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

namespace c2hbench {

namespace {

// Open spans of the calling thread, innermost last (indices into spans_).
thread_local std::vector<int> openStack;

} // namespace

Tracer::Scope::Scope(Tracer &tracer, const std::string &name,
                     std::uint64_t job, bool probe)
    : tracer_(tracer), index_(tracer.open(name, job, probe)) {}

Tracer::Scope::~Scope() { tracer_.close(index_); }

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

unsigned Tracer::threadId() {
  std::size_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  auto [it, inserted] = tids_.emplace(key, static_cast<unsigned>(tids_.size()));
  (void)inserted;
  return it->second;
}

int Tracer::open(const std::string &name, std::uint64_t job, bool probe) {
  Span span;
  span.name = name;
  span.job = job;
  span.parent = openStack.empty() ? -1 : openStack.back();
  std::lock_guard<std::mutex> lock(mutex_);
  span.probe = probe || (span.parent >= 0 && spans_[span.parent].probe);
  span.tid = threadId();
  span.startNs = nowNs();
  spans_.push_back(std::move(span));
  int index = static_cast<int>(spans_.size() - 1);
  openStack.push_back(index);
  return index;
}

void Tracer::close(int index) {
  std::int64_t end = nowNs();
  openStack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].endNs = end;
}

int Tracer::record(const std::string &name, std::uint64_t job,
                   Clock::time_point start, Clock::time_point end,
                   int parent, bool probe) {
  Span span;
  span.name = name;
  span.job = job;
  span.parent = parent;
  span.startNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.endNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  std::lock_guard<std::mutex> lock(mutex_);
  span.probe = probe || (parent >= 0 && spans_[parent].probe);
  span.tid = threadId();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, Tracer::LayerStat> Tracer::layers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> childMs(spans_.size(), 0.0);
  for (const Span &s : spans_)
    if (s.parent >= 0)
      childMs[s.parent] += (s.endNs - s.startNs) / 1e6;
  std::map<std::string, LayerStat> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span &s = spans_[i];
    double dur = (s.endNs - s.startNs) / 1e6;
    LayerStat &stat = out[s.name];
    ++stat.calls;
    stat.totalMs += dur;
    double self = dur > childMs[i] ? dur - childMs[i] : 0.0;
    stat.selfMs += self;
    if (s.probe)
      stat.probeSelfMs += self;
  }
  return out;
}

Tracer::Roots Tracer::roots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Roots r;
  std::vector<double> childMs(spans_.size(), 0.0), probeMs(spans_.size(), 0.0);
  // Children are recorded after their parents, so one reverse sweep folds
  // probe time up to the roots.
  for (std::size_t i = spans_.size(); i-- > 0;) {
    const Span &s = spans_[i];
    double dur = (s.endNs - s.startNs) / 1e6;
    if (s.parent < 0)
      continue;
    childMs[s.parent] += dur;
    probeMs[s.parent] += s.probe ? dur : probeMs[i];
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span &s = spans_[i];
    if (s.parent >= 0)
      continue;
    double dur = (s.endNs - s.startNs) / 1e6;
    ++r.count;
    r.durMs += dur;
    r.coveredMs += s.probe ? dur : childMs[i];
    r.probeMs += s.probe ? dur : probeMs[i];
  }
  return r;
}

bool Tracer::writeChrome(const std::string &path) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span &s = spans_[i];
      out += i ? ",\n{\"name\":" : "{\"name\":";
      out += jsonQuote(s.name);
      std::snprintf(buf, sizeof buf,
                    ",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"job\":%llu}}",
                    s.probe ? "probe" : "layer", s.tid, s.startNs / 1e3,
                    (s.endNs - s.startNs) / 1e3, i, s.parent,
                    static_cast<unsigned long long>(s.job));
      out += buf;
    }
  }
  out += "\n]}\n";
  std::FILE *f = std::fopen(path.c_str(), "wb");
  if (!f)
    return false;
  bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

using LayerStat = Tracer::LayerStat;

struct LayerMetric {
  const char *name, *unit;
};

// Keep in step with "per_layer" in BENCHMARK.json.
const LayerMetric kLayerMetrics[] = {
    {"frontend.ms", "ms"},
    {"analysis.program_ms", "ms"},
    {"analysis.preflight_ms", "ms"},
    {"opt.inline_ms", "ms"},
    {"opt.unroll_ms", "ms"},
    {"ir.lower_ms", "ms"},
    {"analysis.range_check_ms", "ms"},
    {"opt.optimize_ms", "ms"},
    {"analysis.range_prune_ms", "ms"},
    {"async.build_ms", "ms"},
    {"rtl.build_design_ms", "ms"},
    {"rtl.report_ms", "ms"},
    {"core.golden_ms", "ms"},
    {"interp.ms", "ms"},
    {"rtl.sim_ms", "ms"},
    {"vsim.build_ms", "ms"},
    {"vsim.first_run_ms", "ms"},
    {"vsim.rerun_ms", "ms"},
    {"rtl.verilog_emit_ms", "ms"},
    {"vsim.parse_ms", "ms"},
    {"vsim.elab_ms", "ms"},
    {"vsim.compile_ms", "ms"},
    {"vsim.native_build_ms", "ms"},
    {"vsim.native_load_ms", "ms"},
    {"vsim.native_run_ms", "ms"},
    {"ir.instrs", "count"},
    {"ir.blocks", "count"},
    {"opt.instrs_after", "count"},
    {"rtl.verilog_bytes", "bytes"},
    {"rtl.sim_cycles", "count"},
    {"vsim.cycles", "count"},
    {"vsim.fallbacks", "count"},
    {"core.frontend_cache.hit_ratio", "ratio"},
    {"vsim.model_cache.hit_ratio", "ratio"},
    {"serve.response_cache.hit_ratio", "ratio"},
    {"serve.queue_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.rejected", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

std::string metricOfSpan(const std::string &span) {
  return span + (span.find('.') == std::string::npos ? ".ms" : "_ms");
}

} // namespace

void reportTrace(Result &result, const Tracer &tracer, const Options &options,
                 double jobs, double untracedMs,
                 std::map<std::string, double> values) {
  Tracer::Roots roots = tracer.roots();
  double tracedMs = roots.durMs - roots.probeMs;
  values["trace.coverage"] =
      tracedMs > 0 ? (roots.coveredMs - roots.probeMs) / tracedMs : 0.0;
  values["trace.overhead_frac"] =
      untracedMs > 0 ? (tracedMs - untracedMs) / untracedMs : 0.0;
  std::map<std::string, LayerStat> layers = tracer.layers();
  for (const auto &[name, stat] : layers)
    values.emplace(metricOfSpan(name), jobs > 0 ? stat.selfMs / jobs : 0.0);
  for (const LayerMetric &m : kLayerMetrics) {
    auto it = values.find(m.name);
    result.add(m.name, m.unit, it == values.end() ? 0.0 : it->second);
  }

  std::vector<std::pair<std::string, LayerStat>> rows(layers.begin(),
                                                       layers.end());
  // Shares are of the work the job itself does: probe spans (measurement
  // only) get no share.
  double totalSelf = 0;
  for (const auto &row : rows)
    totalSelf += row.second.selfMs - row.second.probeSelfMs;
  std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
    return a.second.selfMs > b.second.selfMs;
  });
  char buf[200];
  std::snprintf(buf, sizeof buf, "%-24s %10s %14s %14s %8s", "span", "calls",
                "self ms/job", "total ms/job", "self %");
  result.notes.push_back(buf);
  for (const auto &[name, stat] : rows) {
    double jobSelf = stat.selfMs - stat.probeSelfMs;
    char share[16] = "   probe";
    if (jobSelf > 0 || stat.probeSelfMs == 0)
      std::snprintf(share, sizeof share, "%7.2f%%",
                    totalSelf > 0 ? 100.0 * jobSelf / totalSelf : 0.0);
    std::snprintf(buf, sizeof buf, "%-24s %10llu %14.4f %14.4f %s",
                  name.c_str(), static_cast<unsigned long long>(stat.calls),
                  stat.selfMs / jobs, stat.totalMs / jobs, share);
    result.notes.push_back(buf);
  }

  if (options.traceDir.empty())
    return;
  std::string path = options.traceDir + "/" + options.workload + "-seed" +
                     std::to_string(options.seed) + ".json";
  if (tracer.writeChrome(path))
    result.notes.push_back("trace: " + path);
  else
    result.fail("cannot write trace file " + path);
}

} // namespace c2hbench
