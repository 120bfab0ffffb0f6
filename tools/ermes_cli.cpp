// ermes — command-line driver for the whole methodology.
//
//   ermes analyze  <file.soc>              performance report + deadlock diagnosis
//   ermes compose  <file.soc> [-o out.soc] [--dot] [--report]
//                                          flatten a hierarchical model; emit the
//                                          flat .soc, an SCC-colored/clustered TMG
//                                          dot, or a per-component analysis
//   ermes order    <file.soc> [-o out.soc] channel ordering (Algorithm 1 + safety nets)
//   ermes simulate <file.soc> [items] [--json]
//                                          cycle-accurate rendezvous simulation
//                                          (--json: machine-readable result)
//   ermes dse      <file.soc> <tct>        ERMES exploration toward a target cycle time
//   ermes sweep    <file.soc> <lo> <hi> [step]  parallel multi-TCT exploration sweep
//   ermes size     <file.soc> <tct>        FIFO buffer sizing toward a target cycle time
//   ermes stats    <file.soc>              topology statistics
//   ermes sens     <file.soc>              latency sensitivity table
//   ermes dot      <file.soc>              Graphviz topology dump to stdout
//   ermes tmgdot   <file.soc>              Graphviz dump of the elaborated TMG
//   ermes profile  <file.soc> [tct]        phase timings + telemetry for the full flow
//   ermes demo                             write the DAC'14 motivating example to stdout
//   ermes serve    [--socket p|--port n]   long-lived analysis daemon (NDJSON protocol)
//   ermes request  (--socket p|--port n) <op> [args]  one request against a daemon
//   ermes top      (--socket p|--port n)   live daemon stats (rps, p99, hit rate)
//
// Global flags (any command):
//   --metrics <out.json>   enable telemetry, write a metrics snapshot on exit
//   --trace <out.json>     enable telemetry, write a Chrome trace (Perfetto)
//   --log <level>          trace|debug|info|warn|error|off (default warn)
//   --jobs <N>             threads for sweep targets and sens perturbations
//                          (default 1; 0 = all cores; at most 256)
//   --hier                 parse .soc inputs through the hierarchical grammar
//                          (subsystem/instance/port) and flatten before use
//
// Exit codes: 0 success, 1 I/O or internal failure, 2 usage error, 3 model
// parse error, 4 analysis-domain failure (deadlock, target not met). Every
// failure path prints a one-line `error: ...` to stderr.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/buffer_sizing.h"
#include "analysis/sensitivity.h"
#include "analysis/tmg_builder.h"
#include "analysis/performance.h"
#include "comp/flatten.h"
#include "comp/incremental.h"
#include "dse/explorer.h"
#include "exec/thread_pool.h"
#include "graph/dot.h"
#include "io/soc_format.h"
#include "io/soc_hier.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "ordering/channel_ordering.h"
#include "sim/compiled.h"
#include "sim/system_sim.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/ops.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "sysmodel/builder.h"
#include "sysmodel/stats.h"
#include "tmg/dot.h"
#include "util/build_info.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace ermes;

namespace {

// Exit-code contract (asserted by tests/test_cli.cpp): every failure path
// prints exactly one `error: ...` line to stderr and returns its class code.
constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;   // I/O or internal failure
constexpr int kExitUsage = 2;     // bad command line
constexpr int kExitParse = 3;     // malformed .soc model
constexpr int kExitAnalysis = 4;  // analysis-domain failure

int usage() {
  std::fprintf(stderr, "error: invalid usage\n");
  std::fprintf(stderr,
               "usage: ermes "
               "<analyze|compose|order|simulate|dse|sweep|size|stats|sens|dot|"
               "tmgdot|profile|demo|serve|request|top> "
               "<file.soc> [args]\n"
               "       global flags: [--metrics out.json] [--trace out.json] "
               "[--log trace|debug|info|warn|error|off] [--jobs N] [--hier]\n"
               "       compose: ermes compose <file.soc> [-o out.soc] [--dot] "
               "[--report]\n"
               "       simulate: ermes simulate <file.soc> [items] [--json]\n"
               "       serve:   ermes serve [--socket path | --port N] "
               "[--workers N] [--queue N] [--deadline-ms N] [--slow-ms N] "
               "[--trace-sample N] [--cache-mb N] [--cache-file path] "
               "[--cache-save-secs N] [--net-shards N] [--max-conns N]\n"
               "       request: ermes request (--socket path | --port N) "
               "<analyze|order|explore|sweep|stats|metrics|cache_save|"
               "shutdown> [file.soc] [args] [--deadline-ms N] [--text] "
               "[--prom]\n"
               "       top:     ermes top (--socket path | --port N) "
               "[--interval-ms N] [--count N]\n");
  return kExitUsage;
}

// Strict positional integer (atoll would silently read garbage as 0).
bool parse_arg_i64(const char* arg, std::int64_t* out) {
  try {
    std::size_t pos = 0;
    *out = std::stoll(arg, &pos);
    return pos == std::strlen(arg);
  } catch (...) {
    return false;
  }
}

int usage_bad_number(const char* arg) {
  std::fprintf(stderr, "error: expected an integer, got '%s'\n", arg);
  return kExitUsage;
}

// Upper bound on every thread-count flag (--jobs, serve --workers and
// --net-shards): each value starts that many threads.
constexpr std::int64_t kMaxThreads = 256;

// Strict thread count in [0, kMaxThreads]; prints the usage error otherwise.
bool parse_thread_count(const char* flag, const char* value,
                        std::int64_t* out) {
  if (parse_arg_i64(value, out) && *out >= 0 && *out <= kMaxThreads) {
    return true;
  }
  std::fprintf(stderr, "error: %s expects an integer in [0, %lld], got '%s'\n",
               flag, static_cast<long long>(kMaxThreads), value);
  return false;
}

// Output paths for the telemetry dumps; either one enables collection.
struct GlobalOptions {
  std::string metrics_path;
  std::string trace_path;
  std::int64_t jobs = 1;  // sweep-target / sens parallelism; 0 = all cores
  bool hier = false;  // parse model inputs through the hierarchical grammar
};

bool parse_log_level(const char* name, util::LogLevel* out) {
  const struct { const char* name; util::LogLevel level; } kLevels[] = {
      {"trace", util::LogLevel::kTrace}, {"debug", util::LogLevel::kDebug},
      {"info", util::LogLevel::kInfo},   {"warn", util::LogLevel::kWarn},
      {"error", util::LogLevel::kError}, {"off", util::LogLevel::kOff},
  };
  for (const auto& entry : kLevels) {
    if (std::strcmp(name, entry.name) == 0) {
      *out = entry.level;
      return true;
    }
  }
  return false;
}

// Strips --metrics/--trace/--log/--jobs/--hier (with their values) out of
// argv; the remaining positional arguments keep their order. Returns false
// on a malformed flag (missing value, unknown log level, bad thread count).
bool extract_global_flags(int argc, char** argv, GlobalOptions& options,
                          std::vector<char*>& positional) {
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--hier") == 0) {
      options.hier = true;
      continue;
    }
    if (std::strcmp(arg, "--metrics") == 0 ||
        std::strcmp(arg, "--trace") == 0 || std::strcmp(arg, "--log") == 0 ||
        std::strcmp(arg, "--jobs") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg);
        return false;
      }
      const char* value = argv[++i];
      if (std::strcmp(arg, "--metrics") == 0) {
        options.metrics_path = value;
      } else if (std::strcmp(arg, "--trace") == 0) {
        options.trace_path = value;
      } else if (std::strcmp(arg, "--jobs") == 0) {
        if (!parse_thread_count(arg, value, &options.jobs)) return false;
      } else {
        util::LogLevel level;
        if (!parse_log_level(value, &level)) {
          std::fprintf(stderr, "error: unknown log level '%s'\n", value);
          return false;
        }
        util::set_log_level(level);
      }
      continue;
    }
    positional.push_back(argv[i]);
  }
  if (!options.metrics_path.empty() || !options.trace_path.empty()) {
    obs::set_enabled(true);
  }
  return true;
}

// Writes the requested telemetry dumps after the command ran. Returns false
// if a requested dump could not be written.
bool flush_telemetry(const GlobalOptions& options) {
  bool ok = true;
  if (!options.metrics_path.empty()) {
    if (obs::Registry::global().write_json(options.metrics_path)) {
      std::fprintf(stderr, "metrics written to %s\n",
                   options.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.metrics_path.c_str());
      ok = false;
    }
  }
  if (!options.trace_path.empty()) {
    if (obs::SpanRecorder::global().write_chrome_json(options.trace_path)) {
      std::fprintf(stderr, "trace written to %s (open in Perfetto)\n",
                   options.trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.trace_path.c_str());
      ok = false;
    }
  }
  return ok;
}

// Reads the model file at `path` into `request`: its text, plus the grammar
// --hier selects. Prints the missing-file error when it cannot be opened.
bool read_model(const char* path, const GlobalOptions& global,
                svc::Request* request) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: %s: cannot open %s\n", path, path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  request->soc = buffer.str();
  request->hier = global.hier;
  return true;
}

// analyze / order / dse / sweep: one request through svc::run_op, the code
// the daemon answers the same ops with, so stdout is exactly the text a
// `request --text` gets back. `order -o` writes the ordered model instead
// of printing it; `sweep` adds a run-dependent timing and cache line.
int cmd_op(const svc::Request& request, const char* path,
           const char* out_path, svc::OpEnv& env) {
  util::Stopwatch sw;
  const svc::OpResult op = svc::run_op(request, env);
  const double elapsed_ms = static_cast<double>(sw.elapsed_ns()) / 1e6;
  if (!op.soc_error.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", path, op.soc_error.c_str());
    return kExitParse;
  }
  const svc::JsonValue& result = op.result;
  const std::string& text = result.find("text")->as_string();
  if (request.op == svc::Op::kOrder && out_path != nullptr) {
    // The text's first line is the cycle-time delta; the rest is the
    // ordered model, which goes to the file instead.
    std::printf("%s", text.substr(0, text.find('\n') + 1).c_str());
    std::ofstream out(out_path);
    if (out) out << result.find("soc")->as_string();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path);
      return kExitFailure;
    }
    std::printf("wrote %s\n", out_path);
    return kExitOk;
  }
  std::printf("%s", text.c_str());
  switch (request.op) {
    case svc::Op::kAnalyze:
      if (result.find("live")->as_bool()) return kExitOk;
      std::fprintf(stderr, "error: system deadlocks\n");
      return kExitAnalysis;
    case svc::Op::kExplore:
      if (result.find("met_target")->as_bool()) return kExitOk;
      std::fprintf(stderr, "error: target cycle time %lld not met\n",
                   static_cast<long long>(request.tct));
      return kExitAnalysis;
    case svc::Op::kSweep:
      std::printf("%zu targets in %s ms on %zu jobs; cache: %lld hits / %lld "
                  "misses (%.1f%% hit rate, %zu entries)\n",
                  result.find("targets")->items().size(),
                  util::format_double(elapsed_ms, 1).c_str(),
                  env.jobs > 0 ? static_cast<std::size_t>(env.jobs)
                               : exec::hardware_jobs(),
                  static_cast<long long>(env.cache.hits()),
                  static_cast<long long>(env.cache.misses()),
                  env.cache.hit_rate() * 100.0, env.cache.size());
      if (result.find("all_met")->as_bool()) return kExitOk;
      std::fprintf(stderr, "error: at least one sweep target not met\n");
      return kExitAnalysis;
    default:
      return kExitOk;
  }
}

// DOT options labelling `stmg` (the TMG of `sys`) with its system names.
tmg::TmgDotOptions system_dot_options(const sysmodel::SystemModel& sys,
                                      const analysis::SystemTmg& stmg,
                                      const std::string& graph_name) {
  tmg::TmgDotOptions options;
  options.graph_name = graph_name;
  options.transition_label = [&sys, &stmg](tmg::TransitionId t) {
    return analysis::transition_name(sys, stmg, t);
  };
  options.place_label = [&sys, &stmg](tmg::PlaceId p) {
    return analysis::place_name(sys, stmg, p);
  };
  return options;
}

// `ermes compose`: parse a hierarchical model, flatten it deterministically,
// and emit the flat .soc (default / -o), an SCC-colored + instance-clustered
// TMG rendering (--dot), or the partitioned per-component analysis
// (--report).
int cmd_compose(int argc, char** argv) {
  const char* path = nullptr;
  const char* out_path = nullptr;
  bool dot = false;
  bool report = false;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "-o") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: -o needs a value\n");
        return kExitUsage;
      }
      out_path = argv[++i];
    } else if (std::strcmp(arg, "--dot") == 0) {
      dot = true;
    } else if (std::strcmp(arg, "--report") == 0) {
      report = true;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg);
      return kExitUsage;
    } else if (path == nullptr) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path == nullptr) return usage();

  const io::HierParseResult hier = io::load_soc_hier(path);
  if (!hier.ok) {
    std::fprintf(stderr, "error: %s: %s\n", path, hier.error.c_str());
    return kExitParse;
  }
  comp::FlattenResult flat = comp::flatten(hier.hier);
  if (!flat.ok) {
    std::fprintf(stderr, "error: %s: %s\n", path, flat.error.c_str());
    return kExitParse;
  }
  const sysmodel::SystemModel& sys = flat.system;
  // Status goes to stderr: stdout carries the machine-readable artifact
  // (the flat .soc, or the dot graph) and must stay pipeable. A report alone
  // prints it only once the analysis succeeds, so a deadlock's stderr is its
  // one error line.
  const auto print_flattened = [&] {
    std::fprintf(stderr, "flattened %s: %lld processes, %lld channels\n",
                 hier.system_name.c_str(),
                 static_cast<long long>(sys.num_processes()),
                 static_cast<long long>(sys.num_channels()));
  };
  const bool report_only = report && !dot && out_path == nullptr;
  if (!report_only) print_flattened();

  if (out_path != nullptr) {
    if (!io::save_soc(sys, out_path, hier.system_name)) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path);
      return kExitFailure;
    }
    std::fprintf(stderr, "wrote %s\n", out_path);
  }

  if (dot) {
    const analysis::SystemTmg stmg = analysis::build_tmg(sys);
    tmg::TmgDotOptions options =
        system_dot_options(sys, stmg, hier.system_name);
    options.color_sccs = true;
    // Cluster path of a transition = the instance path of the process or
    // channel it elaborates ("dec.vld.parse" -> "dec.vld"; undotted names
    // stay at top level).
    options.transition_cluster = [&stmg, &sys](tmg::TransitionId t) {
      const analysis::TransitionOrigin& origin =
          stmg.transition_origin[static_cast<std::size_t>(t)];
      const std::string& name =
          origin.kind == analysis::TransitionOrigin::Kind::kCompute
              ? sys.process_name(origin.process)
              : sys.channel_name(origin.channel);
      const std::size_t last_dot = name.rfind('.');
      return last_dot == std::string::npos ? std::string()
                                           : name.substr(0, last_dot);
    };
    std::printf("%s", tmg::to_dot(stmg.graph, options).c_str());
    return kExitOk;
  }

  if (report) {
    comp::IncrementalAnalyzer analyzer(sys);
    const comp::PartitionedReport& part = analyzer.analyze();
    std::printf("%s\n", comp::summarize_partitioned(part, sys).c_str());
    if (!part.report.live) {
      std::fprintf(stderr, "error: system deadlocks\n");
      return kExitAnalysis;
    }
    if (report_only) print_flattened();
    std::printf("cycle time %s, throughput %s\n",
                util::format_double(part.report.cycle_time).c_str(),
                util::format_double(part.report.throughput, 6).c_str());
    return kExitOk;
  }

  if (out_path == nullptr) {
    std::printf("%s", io::write_soc(sys, hier.system_name).c_str());
  }
  return kExitOk;
}

// Runs through the compiled engine (sim::CompiledSim is bit-identical to
// the legacy Kernel — the differential suite holds it to that — and skips
// the per-run build_kernel); the text output shape is unchanged. --json
// swaps the human lines for one machine-readable object (result + stall
// summary) with the same exit-code and stderr contract: a deadlock still
// prints exactly one `error:` line and exits 4, and a run cut short by the
// cycle limit prints one `warning:` line and exits 0.
int cmd_simulate(const io::ParseResult& parsed, std::int64_t items,
                 bool json) {
  const sim::CompiledSim compiled(parsed.system);
  sim::CompiledSim::Instance instance(compiled);
  sim::BatchOptions opts;
  opts.target_transfers = items;
  const sim::ScenarioResult result = instance.run({}, opts);
  if (obs::enabled()) sim::publish_metrics(parsed.system, result);
  if (result.hit_cycle_limit) {
    // Not an error (the numbers measured so far are valid), but the run is
    // shorter than asked for; say so in both output modes.
    std::fprintf(stderr,
                 "warning: simulation stopped at the %lld-cycle limit after "
                 "%lld of %lld items\n",
                 static_cast<long long>(opts.max_cycles),
                 static_cast<long long>(result.observed_count),
                 static_cast<long long>(items));
  }

  if (json) {
    std::int64_t transfers = 0, blocked_puts = 0, blocked_gets = 0;
    std::int64_t put_wait = 0, get_wait = 0, peak = 0, stall_cycles = 0;
    for (const sim::ScenarioChannelStats& chan : result.channels) {
      transfers += chan.transfers;
      blocked_puts += chan.blocked_puts;
      blocked_gets += chan.blocked_gets;
      put_wait += chan.put_wait_cycles;
      get_wait += chan.get_wait_cycles;
      peak = std::max(peak, chan.peak_occupancy);
    }
    for (const sim::ScenarioProcessStats& proc : result.processes) {
      stall_cycles += proc.stall_cycles;
    }
    svc::JsonValue stalls = svc::JsonValue::object();
    stalls.set("transfers", svc::JsonValue::integer(transfers));
    stalls.set("blocked_puts", svc::JsonValue::integer(blocked_puts));
    stalls.set("blocked_gets", svc::JsonValue::integer(blocked_gets));
    stalls.set("put_wait_cycles", svc::JsonValue::integer(put_wait));
    stalls.set("get_wait_cycles", svc::JsonValue::integer(get_wait));
    stalls.set("stall_cycles", svc::JsonValue::integer(stall_cycles));
    stalls.set("peak_occupancy", svc::JsonValue::integer(peak));
    svc::JsonValue report = svc::JsonValue::object();
    report.set("items", svc::JsonValue::integer(result.observed_count));
    report.set("cycles", svc::JsonValue::integer(result.cycles));
    report.set("cycles_per_item",
               svc::JsonValue::number(result.measured_cycle_time));
    report.set("throughput", svc::JsonValue::number(result.throughput));
    report.set("deadlocked", svc::JsonValue::boolean(result.deadlocked));
    if (result.deadlocked) {
      report.set("deadlock_at", svc::JsonValue::integer(result.deadlock_at));
      svc::JsonValue procs = svc::JsonValue::array();
      for (const sim::SimProcessId p : result.deadlock_processes) {
        procs.push_back(svc::JsonValue::string(parsed.system.process_name(p)));
      }
      report.set("deadlock_processes", std::move(procs));
    }
    report.set("hit_cycle_limit",
               svc::JsonValue::boolean(result.hit_cycle_limit));
    report.set("stalls", std::move(stalls));
    std::printf("%s\n", report.to_string().c_str());
    if (result.deadlocked) {
      std::fprintf(stderr, "error: simulation deadlocked\n");
      return kExitAnalysis;
    }
    return kExitOk;
  }

  if (result.deadlocked) {
    std::printf("DEADLOCK at cycle %lld\n",
                static_cast<long long>(result.deadlock_at));
    std::fprintf(stderr, "error: simulation deadlocked\n");
    return kExitAnalysis;
  }
  std::printf("%lld items in %lld cycles: %s cycles/item (throughput %s)\n",
              static_cast<long long>(result.observed_count),
              static_cast<long long>(result.cycles),
              util::format_double(result.measured_cycle_time).c_str(),
              util::format_double(result.throughput, 6).c_str());
  if (obs::enabled()) {
    std::printf("\n%s",
                sim::to_stall_report(parsed.system, result).to_text(0).c_str());
  }
  return kExitOk;
}

// Runs the full flow (parse, analyze, order, dse) with telemetry forced on
// and prints a phase-time table followed by the collected metrics. When no
// target cycle time is given, the post-ordering cycle time is the target, so
// the DSE phase degenerates to area recovery at current performance.
int cmd_profile(const io::ParseResult& parsed, std::int64_t parse_ns,
                std::int64_t tct) {
  obs::set_enabled(true);
  util::Table phases({"phase", "time (ms)", "result"});
  auto ms = [](std::int64_t ns) {
    return util::format_double(static_cast<double>(ns) / 1e6, 3);
  };

  phases.add_row({"parse", ms(parse_ns),
                  std::to_string(parsed.system.num_processes()) +
                      " processes, " +
                      std::to_string(parsed.system.num_channels()) +
                      " channels"});

  util::Stopwatch analyze_sw;
  const analysis::PerformanceReport initial =
      analysis::analyze_system(parsed.system);
  phases.add_row({"analyze", ms(analyze_sw.elapsed_ns()),
                  initial.live
                      ? "CT " + util::format_double(initial.cycle_time)
                      : "DEADLOCK"});

  util::Stopwatch order_sw;
  sysmodel::SystemModel ordered =
      ordering::with_optimal_ordering(parsed.system);
  const analysis::PerformanceReport after_order =
      analysis::analyze_system(ordered);
  phases.add_row({"order", ms(order_sw.elapsed_ns()),
                  after_order.live
                      ? "CT " + util::format_double(after_order.cycle_time)
                      : "DEADLOCK"});

  if (after_order.live) {
    if (tct <= 0) {
      tct = static_cast<std::int64_t>(std::llround(after_order.cycle_time));
    }
    util::Stopwatch dse_sw;
    dse::ExplorerOptions options;
    options.target_cycle_time = tct;
    const dse::ExplorationResult result = dse::explore(ordered, options);
    phases.add_row(
        {"dse (tct " + std::to_string(tct) + ")", ms(dse_sw.elapsed_ns()),
         std::to_string(result.history.size()) + " iterations, " +
             (result.met_target ? "target met" : "target NOT met")});
  }

  std::printf("%s\n%s", phases.to_text(0).c_str(),
              obs::metrics_tables().c_str());
  return kExitOk;
}

int cmd_size(io::ParseResult& parsed, std::int64_t tct) {
  const analysis::SizingResult result =
      analysis::size_for_cycle_time(parsed.system, tct);
  std::printf("%s: %lld slots added, cycle time %s\n",
              result.success ? "target met" : "target NOT met",
              static_cast<long long>(result.slots_added),
              util::format_double(result.cycle_time).c_str());
  for (const auto& [channel, capacity] : result.changes) {
    std::printf("  channel %s -> capacity %lld\n",
                parsed.system.channel_name(channel).c_str(),
                static_cast<long long>(capacity));
  }
  std::printf("%s", io::write_soc(parsed.system, parsed.system_name).c_str());
  if (!result.success) {
    std::fprintf(stderr, "error: target cycle time %lld not met\n",
                 static_cast<long long>(tct));
    return kExitAnalysis;
  }
  return kExitOk;
}

int cmd_stats(const io::ParseResult& parsed) {
  std::printf("%s\n",
              sysmodel::to_string(sysmodel::compute_stats(parsed.system))
                  .c_str());
  return kExitOk;
}

// Perturbations spread over --jobs threads, each re-solving on its own warm
// solver, and memoize through the env's cache.
int cmd_sensitivity(const io::ParseResult& parsed, svc::OpEnv& env) {
  const analysis::SensitivityReport report = analysis::latency_sensitivity(
      parsed.system, 1, env.jobs, &env.cache);
  if (report.processes.empty()) {
    std::printf("system is deadlocked; no sensitivity available\n");
    std::fprintf(stderr, "error: system deadlocks\n");
    return kExitAnalysis;
  }
  util::Table table({"process", "latency", "CT gain/cycle", "critical"});
  for (const analysis::ProcessSensitivity& entry : report.processes) {
    table.add_row({parsed.system.process_name(entry.process),
                   std::to_string(parsed.system.latency(entry.process)),
                   util::format_double(entry.ct_gain_per_cycle, 3),
                   entry.on_critical_cycle ? "yes" : "no"});
  }
  std::printf("base cycle time %s\n%s",
              util::format_double(report.base_cycle_time).c_str(),
              table.to_text(0).c_str());
  return kExitOk;
}

int cmd_tmgdot(const io::ParseResult& parsed) {
  const analysis::SystemTmg stmg = analysis::build_tmg(parsed.system);
  std::printf("%s", tmg::to_dot(stmg.graph, system_dot_options(
                                                parsed.system, stmg,
                                                parsed.system_name))
                        .c_str());
  return kExitOk;
}

int cmd_dot(const io::ParseResult& parsed) {
  graph::DotOptions options;
  options.graph_name = parsed.system_name;
  const sysmodel::SystemModel& sys = parsed.system;
  options.arc_label = [&sys](graph::ArcId a) {
    return sys.channel_name(a) + " (" +
           std::to_string(sys.channel_latency(a)) + ")";
  };
  std::printf("%s", graph::to_dot(sys.topology(), options).c_str());
  return 0;
}

// Flags of the endpoint subcommands `serve`, `request` and `top`: endpoint
// selection plus each command's own knobs. A flag the command does not use
// fails parsing like an unknown one; positionals pass through.
struct EndpointOptions {
  std::string socket_path;
  std::int64_t port = -1;
  std::int64_t workers = 0;
  std::int64_t queue = 64;
  std::int64_t deadline_ms = 0;
  std::int64_t test_iter_delay_ms = 0;  // undocumented: CI/test determinism
  std::int64_t slow_ms = 0;             // serve: slow-request log threshold
  std::int64_t trace_sample = 1;        // serve: span-sample every Nth request
  std::int64_t interval_ms = 1000;      // top: poll period
  std::int64_t count = 0;               // top: iterations (0 = until ^C)
  std::int64_t cache_mb = 0;            // serve: eval-cache budget (0 = ∞)
  std::string cache_file;               // serve: warm-restart snapshot path
  std::int64_t cache_save_secs = 0;     // serve: background snapshot period
  std::int64_t net_shards = 0;          // serve: event loops (0 = per-core)
  std::int64_t max_conns = 0;           // serve: connection cap (0 = ∞)
  bool text = false;                    // request: print result.text, not JSON
  bool prom = false;                    // request metrics: print result.body
  std::vector<const char*> positional;
};

bool parse_endpoint_flags(int argc, char** argv, int first,
                          std::initializer_list<std::string_view> accepted,
                          EndpointOptions& out) {
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) == 0 &&
        std::find(accepted.begin(), accepted.end(), arg) == accepted.end()) {
      std::fprintf(stderr, "error: unknown flag '%s' for %s\n", arg,
                   argv[first - 1]);
      return false;
    }
    const bool takes_value =
        std::strcmp(arg, "--socket") == 0 || std::strcmp(arg, "--port") == 0 ||
        std::strcmp(arg, "--workers") == 0 ||
        std::strcmp(arg, "--queue") == 0 ||
        std::strcmp(arg, "--deadline-ms") == 0 ||
        std::strcmp(arg, "--test-iter-delay-ms") == 0 ||
        std::strcmp(arg, "--slow-ms") == 0 ||
        std::strcmp(arg, "--trace-sample") == 0 ||
        std::strcmp(arg, "--interval-ms") == 0 ||
        std::strcmp(arg, "--count") == 0 ||
        std::strcmp(arg, "--cache-mb") == 0 ||
        std::strcmp(arg, "--cache-file") == 0 ||
        std::strcmp(arg, "--cache-save-secs") == 0 ||
        std::strcmp(arg, "--net-shards") == 0 ||
        std::strcmp(arg, "--max-conns") == 0;
    if (takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg);
        return false;
      }
      const char* value = argv[++i];
      if (std::strcmp(arg, "--socket") == 0) {
        out.socket_path = value;
        continue;
      }
      if (std::strcmp(arg, "--cache-file") == 0) {
        out.cache_file = value;
        continue;
      }
      if (std::strcmp(arg, "--workers") == 0) {
        if (!parse_thread_count(arg, value, &out.workers)) return false;
        continue;
      }
      if (std::strcmp(arg, "--net-shards") == 0) {
        if (!parse_thread_count(arg, value, &out.net_shards)) return false;
        continue;
      }
      std::int64_t number = 0;
      if (!parse_arg_i64(value, &number)) {
        std::fprintf(stderr, "error: %s expects an integer, got '%s'\n", arg,
                     value);
        return false;
      }
      if (std::strcmp(arg, "--port") == 0) out.port = number;
      else if (std::strcmp(arg, "--queue") == 0) out.queue = number;
      else if (std::strcmp(arg, "--deadline-ms") == 0) out.deadline_ms = number;
      else if (std::strcmp(arg, "--slow-ms") == 0) out.slow_ms = number;
      else if (std::strcmp(arg, "--trace-sample") == 0)
        out.trace_sample = number;
      else if (std::strcmp(arg, "--interval-ms") == 0) out.interval_ms = number;
      else if (std::strcmp(arg, "--count") == 0) out.count = number;
      else if (std::strcmp(arg, "--cache-mb") == 0) out.cache_mb = number;
      else if (std::strcmp(arg, "--cache-save-secs") == 0)
        out.cache_save_secs = number;
      else if (std::strcmp(arg, "--max-conns") == 0) out.max_conns = number;
      else out.test_iter_delay_ms = number;
      continue;
    }
    if (std::strcmp(arg, "--text") == 0) {
      out.text = true;
      continue;
    }
    if (std::strcmp(arg, "--prom") == 0) {
      out.prom = true;
      continue;
    }
    out.positional.push_back(arg);
  }
  return true;
}

// `ermes serve`: run the analysis daemon until a shutdown request or signal.
int cmd_serve(int argc, char** argv) {
  EndpointOptions ep;
  if (!parse_endpoint_flags(
          argc, argv, 2,
          {"--socket", "--port", "--workers", "--queue", "--deadline-ms",
           "--test-iter-delay-ms", "--slow-ms", "--trace-sample", "--cache-mb",
           "--cache-file", "--cache-save-secs", "--net-shards", "--max-conns"},
          ep)) {
    return kExitUsage;
  }
  if (!ep.positional.empty()) return usage();
  if (ep.socket_path.empty() && ep.port < 0) {
    std::fprintf(stderr, "error: serve needs --socket <path> or --port <N>\n");
    return kExitUsage;
  }
  obs::set_enabled(true);  // the `stats` op snapshots the registry

  svc::ServerOptions options;
  options.socket_path = ep.socket_path;
  options.port = static_cast<int>(ep.port);
  options.broker.workers = static_cast<std::size_t>(ep.workers);
  options.broker.queue_depth =
      static_cast<std::size_t>(std::max<std::int64_t>(1, ep.queue));
  options.broker.default_deadline_ms = ep.deadline_ms;
  options.broker.test_iter_delay_ms = ep.test_iter_delay_ms;
  options.broker.slow_request_ms = ep.slow_ms;
  options.broker.trace_sample = std::max<std::int64_t>(1, ep.trace_sample);
  options.broker.cache_bytes =
      std::max<std::int64_t>(0, ep.cache_mb) * 1'000'000;
  options.broker.cache_file = ep.cache_file;
  options.broker.cache_save_secs = std::max<std::int64_t>(0, ep.cache_save_secs);
  options.net_shards = static_cast<std::size_t>(ep.net_shards);
  options.max_conns =
      static_cast<std::size_t>(std::max<std::int64_t>(0, ep.max_conns));
  options.install_signal_handlers = true;

  svc::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitFailure;
  }
  if (!server.socket_path().empty()) {
    std::printf("listening on %s\n", server.socket_path().c_str());
  } else {
    std::printf("listening on 127.0.0.1:%d\n", server.port());
  }
  if (server.broker().cache_restored() > 0) {
    std::printf("cache: restored %zu entries from %s\n",
                server.broker().cache_restored(), ep.cache_file.c_str());
  }
  std::fflush(stdout);  // readiness line must reach scripted clients now
  server.run();
  // Clean shutdown: persist the warm cache so the next launch starts warm.
  if (!server.broker().save_cache(&error)) {
    std::fprintf(stderr, "error: cache save failed: %s\n", error.c_str());
    return kExitFailure;
  }
  if (!ep.cache_file.empty()) {
    std::printf("cache: saved %zu entries to %s\n",
                server.broker().cache().size(), ep.cache_file.c_str());
  }
  return kExitOk;
}

// `ermes request`: one request against a running daemon; prints the raw
// response line (or the result's text member with --text). The global
// --hier sends the model through the hierarchical grammar.
int cmd_request(int argc, char** argv, const GlobalOptions& global) {
  EndpointOptions ep;
  if (!parse_endpoint_flags(
          argc, argv, 2,
          {"--socket", "--port", "--deadline-ms", "--text", "--prom"}, ep)) {
    return kExitUsage;
  }
  if (ep.socket_path.empty() && ep.port < 0) {
    std::fprintf(stderr,
                 "error: request needs --socket <path> or --port <N>\n");
    return kExitUsage;
  }
  if (ep.positional.empty()) return usage();

  svc::Op op;
  if (!svc::parse_op(ep.positional[0], &op)) {
    std::fprintf(stderr, "error: unknown op '%s'\n", ep.positional[0]);
    return kExitUsage;
  }
  const bool needs_soc = op == svc::Op::kAnalyze || op == svc::Op::kOrder ||
                         op == svc::Op::kExplore || op == svc::Op::kSweep;
  std::string soc;
  std::size_t next = 1;
  if (needs_soc) {
    if (ep.positional.size() < 2) return usage();
    std::FILE* file = std::fopen(ep.positional[1], "rb");
    if (file == nullptr) {
      std::fprintf(stderr, "error: cannot read %s\n", ep.positional[1]);
      return kExitFailure;
    }
    char chunk[64 * 1024];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
      soc.append(chunk, n);
    }
    std::fclose(file);
    next = 2;
  }
  std::int64_t tct = 0, lo = 0, hi = 0, step = 0;
  auto take_number = [&](std::int64_t* slot) {
    if (next >= ep.positional.size()) return false;
    return parse_arg_i64(ep.positional[next++], slot);
  };
  if (op == svc::Op::kExplore && !take_number(&tct)) return usage();
  if (op == svc::Op::kSweep) {
    if (!take_number(&lo) || !take_number(&hi)) return usage();
    if (next < ep.positional.size() && !take_number(&step)) return usage();
  }
  if (next != ep.positional.size()) return usage();

  std::string error;
  std::unique_ptr<svc::Client> client =
      ep.socket_path.empty()
          ? svc::Client::connect_tcp("127.0.0.1", static_cast<int>(ep.port),
                                     &error)
          : svc::Client::connect_unix(ep.socket_path, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitFailure;
  }
  const std::string line =
      svc::encode_request(op, svc::JsonValue::string("cli"), soc, tct, lo, hi,
                          step, ep.deadline_ms, global.hier && needs_soc);
  const svc::ResponseView response = client->call(line);
  if (!response.ok) {
    std::fprintf(stderr, "error: %s\n", response.parse_error.c_str());
    return kExitFailure;
  }
  if (!response.success) {
    std::fprintf(stderr, "error: %s: %s\n", response.error_code.c_str(),
                 response.error_message.c_str());
    // The daemon's bad_request covers both protocol and .soc parse failures;
    // map it to the CLI's parse class, everything else to analysis-domain.
    return response.error_code == "bad_request" ? kExitParse : kExitAnalysis;
  }
  if (ep.prom) {
    // Raw Prometheus scrape body (the `metrics` op), suitable for piping
    // straight into promtool or a file_sd-fed scraper.
    const svc::JsonValue* body = response.result.find("body");
    std::printf("%s", body != nullptr ? body->as_string().c_str() : "");
  } else if (ep.text) {
    const svc::JsonValue* text = response.result.find("text");
    std::printf("%s", text != nullptr ? text->as_string().c_str() : "");
  } else {
    std::printf("%s\n", response.result.to_string().c_str());
  }
  return kExitOk;
}

// `ermes top`: poll a daemon's `stats` op and render a refreshing one-line
// table of the live rates — rps over the sliding window, request p50/p99,
// cache hit rate, and queue depth. --count N stops after N polls (0 = until
// the connection drops or ^C).
int cmd_top(int argc, char** argv) {
  EndpointOptions ep;
  if (!parse_endpoint_flags(argc, argv, 2,
                            {"--socket", "--port", "--interval-ms", "--count"},
                            ep)) {
    return kExitUsage;
  }
  if (ep.socket_path.empty() && ep.port < 0) {
    std::fprintf(stderr, "error: top needs --socket <path> or --port <N>\n");
    return kExitUsage;
  }
  if (!ep.positional.empty()) return usage();

  std::string error;
  std::unique_ptr<svc::Client> client =
      ep.socket_path.empty()
          ? svc::Client::connect_tcp("127.0.0.1", static_cast<int>(ep.port),
                                     &error)
          : svc::Client::connect_unix(ep.socket_path, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitFailure;
  }

  const std::string line =
      svc::encode_request(svc::Op::kStats, svc::JsonValue::string("top"), "");
  auto number_at = [](const svc::JsonValue& root, const char* outer,
                      const char* inner) -> double {
    const svc::JsonValue* group = root.find(outer);
    const svc::JsonValue* value =
        group != nullptr ? group->find(inner) : nullptr;
    return value != nullptr && value->is_number() ? value->as_double() : 0.0;
  };
  for (std::int64_t tick = 0; ep.count <= 0 || tick < ep.count; ++tick) {
    if (tick > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<std::int64_t>(1, ep.interval_ms)));
    }
    const svc::ResponseView response = client->call(line);
    if (!response.ok) {
      std::fprintf(stderr, "error: %s\n", response.parse_error.c_str());
      return kExitFailure;
    }
    if (!response.success) {
      std::fprintf(stderr, "error: %s: %s\n", response.error_code.c_str(),
                   response.error_message.c_str());
      return kExitFailure;
    }
    const svc::JsonValue& r = response.result;
    if (tick > 0) std::printf("\x1b[4A");  // redraw over the previous frame
    std::printf("\x1b[Kermes top — window %.0fs\n",
                number_at(r, "window", "seconds"));
    std::printf(
        "\x1b[K%10s %10s %10s %10s %10s %10s\n", "rps", "p50_ms", "p99_ms",
        "hit_rate", "waiting", "in_flight");
    std::printf("\x1b[K%10.1f %10.2f %10.2f %10.3f %10.0f %10.0f\n",
                number_at(r, "window", "rps"),
                number_at(r, "latency", "p50_ns") / 1e6,
                number_at(r, "latency", "p99_ns") / 1e6,
                number_at(r, "window", "cache_hit_rate"),
                number_at(r, "broker", "waiting"),
                number_at(r, "broker", "in_flight"));
    const double budget_mb = number_at(r, "cache", "byte_budget") / 1e6;
    const std::string budget_suffix =
        budget_mb > 0.0
            ? " / " + util::format_double(budget_mb, 1) + " MB"
            : std::string();
    std::printf(
        "\x1b[Krequests %.0f  completed %.0f  sessions %.0f  cache %.0f "
        "(%.1f MB%s, evict %.0f)\n",
        number_at(r, "broker", "accepted"), number_at(r, "broker", "completed"),
        number_at(r, "broker", "sessions"), number_at(r, "cache", "entries"),
        number_at(r, "cache", "bytes") / 1e6, budget_suffix.c_str(),
        number_at(r, "cache", "evictions"));
    std::fflush(stdout);
  }
  return kExitOk;
}

// Dispatches on the positional arguments left after global-flag stripping.
int dispatch(int argc, char** argv, const GlobalOptions& global) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--version" || cmd == "version") {
    std::printf("%s\n", util::build_info().c_str());
    return kExitOk;
  }
  if (cmd == "demo") {
    std::printf("%s",
                io::write_soc(sysmodel::make_dac14_motivating_example(),
                              "dac14_motivating")
                    .c_str());
    return kExitOk;
  }
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "request") return cmd_request(argc, argv, global);
  if (cmd == "top") return cmd_top(argc, argv);
  if (cmd == "compose") return cmd_compose(argc, argv);
  if (argc < 3) return usage();
  // Positional integers parse strictly: `ermes dse f.soc ten` is a usage
  // error, not a silent tct=0.
  std::int64_t numbers[3] = {0, 0, 0};
  for (int i = 3; i < argc && i < 6; ++i) {
    if (!parse_arg_i64(argv[i], &numbers[i - 3]) &&
        !(cmd == "order" && std::strcmp(argv[i], "-o") == 0) &&
        !(cmd == "order" && i >= 4 &&
          std::strcmp(argv[i - 1], "-o") == 0) &&
        !(cmd == "simulate" && std::strcmp(argv[i], "--json") == 0)) {
      return usage_bad_number(argv[i]);
    }
  }
  // Every remaining command reads one model: validate its arguments first
  // (usage errors win over model errors), then read the file once.
  svc::Request request;
  const char* out_path = nullptr;
  std::int64_t items = 200;  // simulate
  bool json = false;         // simulate
  if (cmd == "analyze") {
    request.op = svc::Op::kAnalyze;
  } else if (cmd == "order") {
    request.op = svc::Op::kOrder;
    if (argc >= 5 && std::strcmp(argv[3], "-o") == 0) out_path = argv[4];
  } else if (cmd == "dse") {
    if (argc < 4) return usage();
    request.op = svc::Op::kExplore;
    request.tct = numbers[0];
  } else if (cmd == "sweep") {
    if (argc < 5) return usage();
    request.op = svc::Op::kSweep;
    request.lo = numbers[0];
    request.hi = numbers[1];
    request.step = argc >= 6 ? numbers[2] : 0;
    std::string range_error;
    if (svc::sweep_targets(request.lo, request.hi, request.step, &range_error)
            .empty()) {
      std::fprintf(stderr, "error: sweep %s\n", range_error.c_str());
      return kExitUsage;
    }
  } else if (cmd == "simulate") {
    // [items] and --json in either order; the strict-int loop above already
    // rejected anything else.
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else if (!parse_arg_i64(argv[i], &items)) {
        return usage_bad_number(argv[i]);
      }
    }
  } else if (cmd == "size") {
    if (argc < 4) return usage();
  } else if (cmd != "profile" && cmd != "dot" && cmd != "stats" &&
             cmd != "sens" && cmd != "tmgdot") {
    return usage();
  }
  if (!read_model(argv[2], global, &request)) return kExitParse;
  // The model ops and `sens` share one env: the memo, the main thread's
  // warm solver and the --jobs parallelism of sweep and sens.
  svc::OpEnv env(1, static_cast<int>(global.jobs));
  if (cmd == "analyze" || cmd == "order" || cmd == "dse" || cmd == "sweep") {
    return cmd_op(request, argv[2], out_path, env);
  }
  util::Stopwatch parse_sw;
  io::ParseResult parsed = svc::parse_model(request);
  const std::int64_t parse_ns = parse_sw.elapsed_ns();
  if (!parsed.ok) {
    std::fprintf(stderr, "error: %s: %s\n", argv[2], parsed.error.c_str());
    return kExitParse;
  }
  if (cmd == "sens") return cmd_sensitivity(parsed, env);
  if (cmd == "simulate") return cmd_simulate(parsed, items, json);
  if (cmd == "size") return cmd_size(parsed, numbers[0]);
  if (cmd == "profile") {
    return cmd_profile(parsed, parse_ns, argc >= 4 ? numbers[0] : 0);
  }
  if (cmd == "dot") return cmd_dot(parsed);
  if (cmd == "stats") return cmd_stats(parsed);
  return cmd_tmgdot(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  GlobalOptions options;
  std::vector<char*> positional;
  if (!extract_global_flags(argc, argv, options, positional)) return 2;
  const int rc =
      dispatch(static_cast<int>(positional.size()), positional.data(), options);
  if (!flush_telemetry(options) && rc == 0) return 1;
  return rc;
}
