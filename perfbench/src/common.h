#pragma once
// Shared plumbing of the perfbench binary: options, the result line,
// sample statistics, process accounting, host context, trace aggregation
// and the target cycle times the workloads scale.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.h"
#include "sysmodel/system.h"
#include "util/stopwatch.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Seed of the generated model corpus; 0 = the workload's default corpus.
  std::uint64_t corpus_seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: tiny inputs, every answer check, a few seconds.
  bool smoke = false;
  std::string ermes_bin;  // serve_mixed: the `ermes` CLI to spawn
  std::string work_dir;   // serve_mixed: where the daemon's socket lives
  std::string revision = "unknown";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one run reports. The final stdout line is built from it.
class Report {
 public:
  void add(std::string name, std::string unit, double value);
  /// One attempted op; `error` empty = correct answer.
  void op(const std::string& error);
  /// Free-form detail line (sample counts, host context), printed before
  /// the result line.
  void note(const std::string& line);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  /// Prints the notes, then the one-line JSON result.
  void print(bool correct) const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> first_errors_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// A metric name and its unit, as BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// The end-to-end metrics (printed by untraced runs) and the per-layer
/// metrics (printed by traced runs), in BENCHMARK.json order.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// Adds every metric of `specs` to `report`, taking values from `values`.
/// A layer the workload does not exercise reads 0.
void emit(Report& report, const std::vector<MetricSpec>& specs,
          const std::map<std::string, double>& values);

/// Workload entry points; each fills `report` and returns false when the
/// run itself is invalid (set-up failed, spans dropped).
bool run_explore(const Options& options, Report& report);
bool run_flow10k(const Options& options, Report& report);
bool run_serve_mixed(const Options& options, Report& report);

// ---- statistics -------------------------------------------------------------

/// a / b, or 0 when b is 0.
double ratio(double a, double b);

/// Linear-interpolation quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// "n=120, p50 at 60, 12 beyond p90" style sample summary.
std::string sample_note(const std::string& what,
                        const std::vector<double>& samples_ms);

// ---- process accounting -----------------------------------------------------

double self_cpu_ms();          // user + sys of this process
std::int64_t self_minor_faults();
/// VmHWM of a process ("self" or a pid) in MB (10^6 bytes); 0 if unreadable.
double peak_rss_mb(const std::string& pid = "self");
/// user + sys CPU of another process from /proc/<pid>/stat; < 0 on error.
double proc_cpu_ms(pid_t pid);

// ---- host context -----------------------------------------------------------

/// Host state recorded next to every run's numbers: nproc, load average,
/// steal time over the run, build type and source revision.
class HostContext {
 public:
  HostContext();
  /// One-line JSON, sampled at the end of the run.
  std::string finish(const std::string& revision) const;

 private:
  std::string load_start_;
  std::int64_t steal_start_ = 0;
  std::int64_t total_start_ = 0;
};

// ---- layer timing and traces ------------------------------------------------

/// Times one call into a library layer. When obs is enabled it also records
/// a "bench" span around the call, so the library's own spans nest under it.
class LayerCall {
 public:
  explicit LayerCall(std::string_view span_name)
      : span_(span_name, "bench") {}
  /// Ends the call; returns its wall time in ms.
  double stop() {
    span_.close();
    return watch_.elapsed_ms();
  }

 private:
  ermes::util::Stopwatch watch_;
  ermes::obs::ObsSpan span_;
};

/// Per-layer aggregation of recorded spans: total time per span name and
/// self time per category (span minus the part its direct children cover).
struct TraceTotals {
  std::map<std::string, double> span_ms;   // by span name
  std::map<std::string, double> self_ms;   // by category
  std::int64_t spans = 0;
};

/// Drains the global SpanRecorder into `totals`. Returns false (the run is
/// invalid) when the recorder dropped spans.
bool drain_spans(TraceTotals& totals);

/// Sizes the global recorder for `capacity` spans and turns tracing on.
void start_tracing(std::size_t capacity);
void stop_tracing();

/// Runs `pass()` whole passes while one more is expected to fit within
/// `budget_s` seconds; always at least one. Whole passes keep the multiset
/// of measured ops identical from run to run. Returns the number of passes.
template <class Pass>
int run_passes(double budget_s, Pass&& pass) {
  ermes::util::Stopwatch clock;
  int passes = 0;
  do {
    pass(passes);
    ++passes;
  } while (clock.elapsed_seconds() * (passes + 1) / passes <= budget_s);
  return passes;
}

/// Samples of one measured phase of an in-process closed loop.
template <class Op>
struct Phase {
  std::vector<Op> ops;   // correct ops only
  double wall_ms = 0.0;  // every op, failed ones included
  int passes = 0;
  bool spans_dropped = false;

  std::vector<double> walls() const {
    std::vector<double> out;
    for (const Op& op : ops) out.push_back(op.wall_ms);
    return out;
  }
};

/// Adds the end-to-end metrics of an in-process closed-loop phase: correct
/// ops per second of op wall time, latency percentiles, CPU per op, the
/// median set-up time and this process's peak RSS.
template <class Op>
void emit_closed_loop(Report& report, const Phase<Op>& phase,
                      const std::vector<double>& setups_s) {
  const std::vector<double> w = phase.walls();
  const auto n = static_cast<double>(w.size());
  double cpu = 0.0;
  for (const Op& op : phase.ops) cpu += op.cpu_ms;
  emit(report, kEndToEnd,
       {{"ops_per_s", ratio(n, phase.wall_ms / 1e3)},
        {"p50_ms", quantile(w, 0.5)},
        {"p90_ms", quantile(w, 0.9)},
        {"cpu_ms_per_op", ratio(cpu, n)},
        {"setup_s", median(setups_s)},
        {"peak_rss_mb", peak_rss_mb()}});
}

/// Cycle time of `sys` after Algorithm 1 and liveness repair, rounded: the
/// reference that exploration targets are scaled from.
std::int64_t ordered_cycle_time(const ermes::sysmodel::SystemModel& sys);

/// Value of a registry counter (0 when it was never registered).
std::int64_t counter(std::string_view name);

/// Formats a double with 3 decimals for notes.
std::string fmt(double value);

}  // namespace perfbench
