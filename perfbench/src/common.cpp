#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "analysis/performance.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "ordering/channel_ordering.h"
#include "ordering/repair.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// Shortest round-trip representation: a measured value keeps all its digits.
std::string json_double(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// First "cpu" line of /proc/stat: total and steal jiffies.
void cpu_ticks(std::int64_t* total, std::int64_t* steal) {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  *total = 0;
  *steal = 0;
  for (int i = 0; i < 10 && in; ++i) {
    std::int64_t v = 0;
    in >> v;
    if (i < 8) *total += v;  // guest fields are already counted in user
    if (i == 7) *steal = v;
  }
}

std::string load_average() {
  std::string text = read_file("/proc/loadavg");
  std::istringstream in(text);
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

}  // namespace

// ---- metric catalogue -------------------------------------------------------

// p99 is printed in each run's sample note but is not an end-to-end
// metric: on the tuning host it had fewer than 10 samples beyond it on
// explore and flow10k, and on serve_mixed it followed the host's steal time
// (see README "Measured spread").
const std::vector<MetricSpec> kEndToEnd = {
    {"ops_per_s", "1/s"},    {"p50_ms", "ms"}, {"p90_ms", "ms"},
    {"cpu_ms_per_op", "ms"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"io.parse_ms", "ms"},
    {"io.parse_mb_per_s", "MB/s"},
    {"ordering.order_ms", "ms"},
    {"ordering.repair_ms", "ms"},
    {"ordering.repair_iterations", "count/op"},
    {"analysis.build_tmg_ms", "ms"},
    {"tmg.solve_ms", "ms"},
    {"tmg.howard_iterations", "count/op"},
    {"tmg.batch_scc_reuse_ratio", "ratio"},
    {"sim.compile_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.cycles_per_ms", "cycles/ms"},
    {"dse.explore_ms", "ms"},
    {"dse.iterations", "count/op"},
    {"dse.candidates", "count/op"},
    {"dse.select_ms", "ms"},
    {"dse.reorder_ms", "ms"},
    {"dse.analyze_ms", "ms"},
    {"dse.self_ms", "ms"},
    {"dse.minor_faults", "count/op"},
    {"ilp.solve_ms", "ms"},
    {"ilp.solves", "count/op"},
    {"ilp.bnb_nodes", "count/op"},
    {"ilp.simplex_pivots", "count/op"},
    {"analysis.eval_cache.hit_ratio", "ratio"},
    {"analysis.eval_cache.aux_hit_ratio", "ratio"},
    {"cache.evictions_per_op", "count/op"},
    {"cache.bytes_mb", "MB"},
    {"cache.admission_rejects", "count"},
    {"svc.request_p50_ms", "ms"},
    {"svc.queue_wait_p50_ms", "ms"},
    {"svc.queue_wait_p99_ms", "ms"},
    {"svc.op.analyze_p50_ms", "ms"},
    {"svc.op.order_p50_ms", "ms"},
    {"svc.op.explore_p50_ms", "ms"},
    {"svc.op.sweep_p50_ms", "ms"},
    {"svc.op.patch_p50_ms", "ms"},
    {"svc.coalesced_share", "ratio"},
    {"svc.batched_share", "ratio"},
    {"comp.sccs_reused_ratio", "ratio"},
    {"net.overhead_p50_ms", "ms"},
    {"other_ms", "ms"},
    {"bench.generator_late_p99_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

void emit(Report& report, const std::vector<MetricSpec>& specs,
          const std::map<std::string, double>& values) {
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    report.add(spec.name, spec.unit, it == values.end() ? 0.0 : it->second);
  }
}

// ---- Report -----------------------------------------------------------------

void Report::add(std::string name, std::string unit, double value) {
  metrics_.push_back({std::move(name), std::move(unit), value});
}

void Report::op(const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (first_errors_.size() < 8) first_errors_.push_back(error);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print(bool correct) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const std::string& error : first_errors_) {
    std::printf("FAILED: %s\n", error.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "\"" : ", \"") + ermes::obs::json_escape(m.name) +
           "\": {\"value\": " + json_double(m.value) + ", \"unit\": \"" +
           ermes::obs::json_escape(m.unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

std::string sample_note(const std::string& what,
                        const std::vector<double>& samples_ms) {
  const auto n = static_cast<double>(samples_ms.size());
  std::string out = what + ": n=" + std::to_string(samples_ms.size());
  out += " p50=" + fmt(quantile(samples_ms, 0.5)) + "ms";
  out += " p90=" + fmt(quantile(samples_ms, 0.9)) + "ms (" +
         std::to_string(static_cast<long>(std::floor(n * 0.1))) + " beyond)";
  out += " p99=" + fmt(quantile(samples_ms, 0.99)) + "ms (" +
         std::to_string(static_cast<long>(std::floor(n * 0.01))) + " beyond)";
  return out;
}

// ---- process accounting -----------------------------------------------------

double self_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

std::int64_t self_minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    fields >> kb;
    return kb * 1024.0 / 1e6;
  }
  return 0.0;
}

double proc_cpu_ms(pid_t pid) {
  const std::string text = read_file("/proc/" + std::to_string(pid) + "/stat");
  // The command name (field 2) may contain spaces; fields resume after ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream in(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 13; ++i) in >> field;
  in >> utime >> stime;
  if (!in) return -1.0;
  return (utime + stime) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ---- host context -----------------------------------------------------------

HostContext::HostContext() : load_start_(load_average()) {
  cpu_ticks(&total_start_, &steal_start_);
}

std::string HostContext::finish(const std::string& revision) const {
  std::int64_t total = 0;
  std::int64_t steal = 0;
  cpu_ticks(&total, &steal);
  const std::int64_t d_total = total - total_start_;
  const std::int64_t d_steal = steal - steal_start_;
  std::string out = "host: {\"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency());
  out += ", \"loadavg_start\": \"" + load_start_ + "\"";
  out += ", \"loadavg_end\": \"" + load_average() + "\"";
  out += ", \"steal_ticks\": " + std::to_string(d_steal);
  out += ", \"steal_pct\": " +
         json_double(d_total > 0 ? 100.0 * static_cast<double>(d_steal) /
                                       static_cast<double>(d_total)
                                 : 0.0);
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"revision\": \"" + ermes::obs::json_escape(revision) + "\"}";
  return out;
}

// ---- traces -----------------------------------------------------------------

bool drain_spans(TraceTotals& totals) {
  ermes::obs::SpanRecorder& recorder = ermes::obs::SpanRecorder::global();
  if (recorder.dropped() != 0) return false;
  std::vector<ermes::obs::SpanEvent> events = recorder.events();
  recorder.clear();
  // Parents start no later than their children and end no earlier; sort so
  // a parent precedes its children, then walk with one stack per thread.
  std::sort(events.begin(), events.end(),
            [](const ermes::obs::SpanEvent& a, const ermes::obs::SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  std::vector<std::int64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ermes::obs::SpanEvent& ev = events[i];
    while (!stack.empty()) {
      const ermes::obs::SpanEvent& top = events[stack.back()];
      if (top.tid == ev.tid && ev.start_ns + ev.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += ev.dur_ns;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ermes::obs::SpanEvent& ev = events[i];
    totals.span_ms[ev.name] += static_cast<double>(ev.dur_ns) / 1e6;
    totals.self_ms[ev.category] +=
        static_cast<double>(std::max<std::int64_t>(0, ev.dur_ns - child_ns[i])) / 1e6;
  }
  totals.spans += static_cast<std::int64_t>(events.size());
  return true;
}

void start_tracing(std::size_t capacity) {
  ermes::obs::SpanRecorder::global().set_capacity(capacity);
  ermes::obs::SpanRecorder::global().clear();
  ermes::obs::Registry::global().reset();
  ermes::obs::set_enabled(true);
}

void stop_tracing() { ermes::obs::set_enabled(false); }

std::int64_t counter(std::string_view name) {
  return ermes::obs::Registry::global().counter(name).value();
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::int64_t ordered_cycle_time(const ermes::sysmodel::SystemModel& sys) {
  ermes::sysmodel::SystemModel ordered =
      ermes::ordering::with_optimal_ordering(sys);
  ermes::ordering::ensure_live(ordered);
  return std::llround(ermes::analysis::analyze_system(ordered).cycle_time);
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  return buf;
}

}  // namespace perfbench
