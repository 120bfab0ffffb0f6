// Integration tests for the `ermes` binary's exit-code and error-message
// contract: 0 success, 1 I/O failure, 2 usage, 3 model parse, 4
// analysis-domain failure — and every failure prints a one-line `error: ...`
// to stderr. The binary path arrives via the ERMES_CLI_PATH compile
// definition (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "io/soc_format.h"
#include "sysmodel/builder.h"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A per-process path under the test temp dir. ctest runs each test in its
// own process, in parallel; a shared model file would be rewritten by one
// test while another test's CLI is still reading it.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/ermes_cli_" + std::to_string(::getpid()) +
         "_" + name;
}

// Runs `ermes <args>` through the shell, capturing stdout/stderr. `prefix`
// is shell text run first in the same shell (e.g. a ulimit).
RunResult run_cli(const std::string& args, const std::string& prefix = "") {
  static int counter = 0;
  const std::string base = temp_path(std::to_string(counter++));
  const std::string out_path = base + ".out";
  const std::string err_path = base + ".err";
  const std::string command = prefix + std::string(ERMES_CLI_PATH) + " " +
                              args + " >" + out_path + " 2>" + err_path;
  const int status = std::system(command.c_str());
  RunResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.out = slurp(out_path);
  result.err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return result;
}

// A failure's stderr is exactly one line starting with "error: ".
void expect_error_line(const RunResult& result) {
  ASSERT_FALSE(result.err.empty());
  EXPECT_EQ(result.err.rfind("error: ", 0), 0u) << result.err;
  EXPECT_EQ(std::count(result.err.begin(), result.err.end(), '\n'), 1)
      << result.err;
}

std::string demo_path() {
  static const struct DemoFile {
    std::string path = temp_path("demo.soc");
    DemoFile() {
      ermes::io::save_soc(ermes::sysmodel::make_dac14_motivating_example(),
                          path, "dac14_motivating");
    }
    ~DemoFile() { std::remove(path.c_str()); }
  } demo;
  return demo.path;
}

TEST(CliExitCodes, SuccessIsZero) {
  const RunResult result = run_cli("analyze " + demo_path());
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.err.empty()) << result.err;
  EXPECT_NE(result.out.find("cycle time"), std::string::npos) << result.out;
}

TEST(CliExitCodes, NoArgumentsIsUsage) {
  const RunResult result = run_cli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_EQ(result.err.rfind("error: ", 0), 0u) << result.err;
}

TEST(CliExitCodes, UnknownCommandIsUsage) {
  const RunResult result = run_cli("frobnicate " + demo_path());
  EXPECT_EQ(result.exit_code, 2);
}

TEST(CliExitCodes, NonNumericPositionalIsUsage) {
  const RunResult result = run_cli("dse " + demo_path() + " ten");
  EXPECT_EQ(result.exit_code, 2);
  expect_error_line(result);
}

// Caps the CLI's address space so a command that tries to allocate without
// bound fails fast instead of exhausting the machine. Sanitizer runtimes
// reserve terabytes of shadow address space and cannot start under a cap, so
// sanitized builds run uncapped.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ERMES_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ERMES_TEST_SANITIZED 1
#endif
#ifdef ERMES_TEST_SANITIZED
const std::string kMemoryCap;
#else
const std::string kMemoryCap = "ulimit -v 1000000; ";
#endif

TEST(CliExitCodes, BadSweepRangeIsUsage) {
  const RunResult inverted = run_cli("sweep " + demo_path() + " 9 3");
  EXPECT_EQ(inverted.exit_code, 2);
  expect_error_line(inverted);

  // 1001 targets: one over the bound the daemon's `sweep` op enforces.
  const RunResult wide = run_cli("sweep " + demo_path() + " 1 1001 1");
  EXPECT_EQ(wide.exit_code, 2);
  expect_error_line(wide);
  EXPECT_NE(wide.err.find("more than 1000 targets"), std::string::npos)
      << wide.err;
  EXPECT_TRUE(wide.out.empty()) << wide.out;

  const RunResult huge =
      run_cli("sweep " + demo_path() + " 1 100000000 1", kMemoryCap);
  EXPECT_EQ(huge.exit_code, 2);
  expect_error_line(huge);
}

TEST(CliExitCodes, SweepNearInt64MaxStopsBeforeOverflow) {
  // lo + 2 * step overflows int64: the walk must stop at the last target
  // that fits instead of wrapping around.
  const RunResult result = run_cli(
      "sweep " + demo_path() + " 9223372036854775000 9223372036854775807 500",
      kMemoryCap);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_TRUE(result.err.empty()) << result.err;
  EXPECT_NE(result.out.find("9223372036854775000"), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("9223372036854775500"), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("2 targets"), std::string::npos) << result.out;
}

TEST(CliExitCodes, MissingFileIsParseError) {
  const RunResult result = run_cli("analyze /nonexistent/no_such.soc");
  EXPECT_EQ(result.exit_code, 3);
  expect_error_line(result);
}

TEST(CliExitCodes, MalformedModelIsParseError) {
  const std::string bad = temp_path("bad.soc");
  std::ofstream(bad) << "process a latency banana\n";
  const RunResult result = run_cli("analyze " + bad);
  EXPECT_EQ(result.exit_code, 3);
  expect_error_line(result);
  EXPECT_NE(result.err.find("line 1"), std::string::npos) << result.err;
  std::remove(bad.c_str());
}

TEST(CliExitCodes, DeadlockIsAnalysisFailure) {
  // Two processes blocked on each other with no primed token: deadlock.
  const std::string dead = temp_path("dead.soc");
  std::ofstream(dead) << "system dead\n"
                         "process a latency 1\n"
                         "process b latency 1\n"
                         "channel ab a -> b latency 0\n"
                         "channel ba b -> a latency 0\n";
  const RunResult result = run_cli("analyze " + dead);
  EXPECT_EQ(result.exit_code, 4);
  expect_error_line(result);
  EXPECT_NE(result.out.find("DEADLOCK"), std::string::npos) << result.out;
  std::remove(dead.c_str());
}

TEST(CliExitCodes, SimulateTextAndJsonAgree) {
  const RunResult text = run_cli("simulate " + demo_path() + " 50");
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_TRUE(text.err.empty()) << text.err;
  EXPECT_NE(text.out.find("cycles/item"), std::string::npos) << text.out;

  // Flag order is free; the object carries the same run (one line, no
  // stderr) and the key stats the text line prints.
  const RunResult json = run_cli("simulate " + demo_path() + " 50 --json");
  const RunResult json2 = run_cli("simulate " + demo_path() + " --json 50");
  EXPECT_EQ(json.exit_code, 0);
  EXPECT_TRUE(json.err.empty()) << json.err;
  EXPECT_EQ(json.out, json2.out);
  EXPECT_EQ(std::count(json.out.begin(), json.out.end(), '\n'), 1)
      << json.out;
  EXPECT_EQ(json.out.rfind("{", 0), 0u) << json.out;
  EXPECT_NE(json.out.find("\"items\":50"), std::string::npos) << json.out;
  EXPECT_NE(json.out.find("\"cycles\":"), std::string::npos) << json.out;
  EXPECT_NE(json.out.find("\"deadlocked\":false"), std::string::npos)
      << json.out;
  EXPECT_NE(json.out.find("\"stalls\":{"), std::string::npos) << json.out;
}

// Pinned `ermes simulate` output on the shipped models: the text line, the
// --json object, and (with telemetry on) the stall tables and published
// wait histograms, all of which read the per-channel wait distributions.
TEST(CliSimulate, OutputIsPinnedOnExampleModels) {
  const std::string dir = ERMES_EXAMPLES_DIR;
  const RunResult motivating = run_cli("simulate " + dir + "/motivating.soc 500");
  EXPECT_EQ(motivating.exit_code, 0);
  EXPECT_EQ(motivating.out,
            "500 items in 6007 cycles: 12 cycles/item (throughput 0.083333)\n");
  EXPECT_EQ(
      run_cli("simulate " + dir + "/motivating.soc 500 --json").out,
      "{\"items\":500,\"cycles\":6007,\"cycles_per_item\":12,"
      "\"throughput\":0.083333333333333329,\"deadlocked\":false,"
      "\"hit_cycle_limit\":false,\"stalls\":{\"transfers\":4001,"
      "\"blocked_puts\":500,\"blocked_gets\":3001,\"put_wait_cycles\":4500,"
      "\"get_wait_cycles\":17528,\"stall_cycles\":22028,"
      "\"peak_occupancy\":1}}\n");

  const RunResult mpeg2 = run_cli("simulate " + dir + "/mpeg2_encoder.soc 20");
  EXPECT_EQ(mpeg2.exit_code, 0);
  EXPECT_EQ(mpeg2.out,
            "20 items in 58929234 cycles: 2921957 cycles/item (throughput "
            "0)\n");
  EXPECT_EQ(
      run_cli("simulate " + dir + "/mpeg2_encoder.soc 20 --json").out,
      "{\"items\":20,\"cycles\":58929234,\"cycles_per_item\":2921957,"
      "\"throughput\":3.4223638472434741e-07,\"deadlocked\":false,"
      "\"hit_cycle_limit\":false,\"stalls\":{\"transfers\":1213,"
      "\"blocked_puts\":121,\"blocked_gets\":1091,"
      "\"put_wait_cycles\":200575553,\"get_wait_cycles\":1345092104,"
      "\"stall_cycles\":1545667657,\"peak_occupancy\":1}}\n");

  const std::string metrics = temp_path("sim_metrics.json");
  const RunResult stalls = run_cli("simulate " + dir +
                                   "/motivating.soc 500 --metrics " + metrics);
  EXPECT_EQ(stalls.exit_code, 0);
  EXPECT_NE(
      stalls.out.find(
          "channel  transfers  blocked puts  blocked gets  put wait  get wait  "
          "mean put wait  mean get wait  peak occ\n"
          "-------  ---------  ------------  ------------  --------  --------  "
          "-------------  -------------  --------\n"
          "h        500        0             500           0         5008      "
          "0              10.016         1       \n"
          "a        501        500           0             4500      0         "
          "8.982          0              1       \n"
          "c        500        0             500           0         4002      "
          "0              8.004          1       \n"
          "b        500        0             501           0         3507      "
          "0              7              1       \n"
          "f        500        0             500           0         3504      "
          "0              7.008          1       \n"
          "e        500        0             500           0         1000      "
          "0              2              1       \n"
          "d        500        0             500           0         507       "
          "0              1.014          1       \n"
          "g        500        0             0             0         0         "
          "0              0              1       \n"),
      std::string::npos)
      << stalls.out;
  const std::string json = slurp(metrics);
  EXPECT_NE(json.find("\"sim.get_wait\":{\"count\":4002,\"sum\":17528,"
                      "\"min\":0,\"max\":18,\"mean\":4.379810094952524,"
                      "\"buckets\":[[0,1001],[1,499],[3,500],[7,1000],"
                      "[15,1001],[31,1]]}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sim.put_wait\":{\"count\":4002,\"sum\":4500,"
                      "\"min\":0,\"max\":9,\"mean\":1.1244377811094453,"
                      "\"buckets\":[[0,3502],[15,500]]}"),
            std::string::npos)
      << json;
  std::remove(metrics.c_str());
}

// Pinned TMG renderings: `tmgdot` on the shipped flat models and
// `compose --dot` on the hierarchical one (FIFO and unbounded channels, so
// every transition and place name form appears). The graph stores no names;
// these goldens hold the on-demand names and the numbering byte for byte.
TEST(CliTmgDot, OutputIsPinnedOnExampleModels) {
  const std::string dir = ERMES_EXAMPLES_DIR;
  const std::string golden = ERMES_GOLDEN_DIR;
  for (const char* model : {"motivating", "mpeg2_encoder"}) {
    const RunResult run =
        run_cli("tmgdot " + dir + "/" + model + ".soc");
    EXPECT_EQ(run.exit_code, 0) << model;
    EXPECT_EQ(run.out,
              slurp(golden + "/tmgdot_" + std::string(model) + ".dot"))
        << model;
  }
  const RunResult composed =
      run_cli("compose " + dir + "/hier_pipeline.soc --dot");
  EXPECT_EQ(composed.exit_code, 0);
  EXPECT_EQ(composed.out, slurp(golden + "/compose_hier_pipeline.dot"));
}

// `compose --report` on the hierarchical pipeline: the per-component
// breakdown (which SCC is critical, each one's ratio and slack) and the
// cycle-time line, byte for byte.
TEST(CliCompose, ReportIsPinnedOnHierPipeline) {
  const std::string dir = ERMES_EXAMPLES_DIR;
  const std::string golden = ERMES_GOLDEN_DIR;
  const RunResult run =
      run_cli("compose " + dir + "/hier_pipeline.soc --report");
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.out, slurp(golden + "/compose_hier_pipeline.report"));
}

// A deadlocking model makes `compose --report` an analysis failure: the
// breakdown names the token-free cycle and the exit code is 4.
TEST(CliCompose, ReportOnDeadlockIsAnalysisFailure) {
  const std::string dead = temp_path("dead_compose.soc");
  std::ofstream(dead) << "system dead\n"
                         "process a latency 1\n"
                         "process b latency 1\n"
                         "channel ab a -> b latency 0\n"
                         "channel ba b -> a latency 0\n";
  const RunResult result = run_cli("compose " + dead + " --report");
  EXPECT_EQ(result.exit_code, 4);
  EXPECT_EQ(result.out,
            "0 components; DEADLOCK: token-free cycle of 4 places\n");
  EXPECT_NE(result.err.find("error: system deadlocks\n"), std::string::npos)
      << result.err;
  std::remove(dead.c_str());
}

// A run that stops at the default 10^8-cycle limit before reaching the
// requested item count still exits 0 with its normal stdout, and says so in
// one `warning:` line on stderr in both output modes.
TEST(CliSimulate, CycleLimitWarnsOnStderr) {
  const std::string dir = ERMES_EXAMPLES_DIR;
  const std::string warning =
      "warning: simulation stopped at the 100000000-cycle limit after 34 of "
      "500 items\n";
  const RunResult text = run_cli("simulate " + dir + "/mpeg2_encoder.soc 500");
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_EQ(text.err, warning);
  EXPECT_EQ(text.out.rfind("34 items in 99862089 cycles: ", 0), 0u)
      << text.out;

  const RunResult json =
      run_cli("simulate " + dir + "/mpeg2_encoder.soc 500 --json");
  EXPECT_EQ(json.exit_code, 0);
  EXPECT_EQ(json.err, warning);
  EXPECT_EQ(json.out.rfind("{\"items\":34,\"cycles\":99862089,", 0), 0u)
      << json.out;
  EXPECT_NE(json.out.find("\"hit_cycle_limit\":true"), std::string::npos)
      << json.out;
  EXPECT_EQ(std::count(json.out.begin(), json.out.end(), '\n'), 1)
      << json.out;

  // Under the limit: no warning.
  EXPECT_TRUE(run_cli("simulate " + dir + "/mpeg2_encoder.soc 20").err.empty());
}

TEST(CliExitCodes, SimulateDeadlockIsAnalysisFailure) {
  const std::string dead = temp_path("simdead.soc");
  std::ofstream(dead) << "system dead\n"
                         "process a latency 1\n"
                         "process b latency 1\n"
                         "channel ab a -> b latency 0\n"
                         "channel ba b -> a latency 0\n";
  const RunResult text = run_cli("simulate " + dead + " 10");
  EXPECT_EQ(text.exit_code, 4);
  expect_error_line(text);
  EXPECT_NE(text.out.find("DEADLOCK"), std::string::npos) << text.out;

  const RunResult json = run_cli("simulate " + dead + " 10 --json");
  EXPECT_EQ(json.exit_code, 4);
  expect_error_line(json);
  EXPECT_NE(json.out.find("\"deadlocked\":true"), std::string::npos)
      << json.out;
  EXPECT_NE(json.out.find("\"deadlock_processes\":["), std::string::npos)
      << json.out;
  std::remove(dead.c_str());
}

TEST(CliExitCodes, SimulateBadItemCountIsUsage) {
  const RunResult result = run_cli("simulate " + demo_path() + " ten");
  EXPECT_EQ(result.exit_code, 2);
  expect_error_line(result);
}

TEST(CliExitCodes, UnmetTargetIsAnalysisFailure) {
  // The demo system cannot reach a cycle time of 1.
  const RunResult result = run_cli("dse " + demo_path() + " 1");
  EXPECT_EQ(result.exit_code, 4);
  expect_error_line(result);
  EXPECT_NE(result.out.find("target NOT met"), std::string::npos)
      << result.out;
}

TEST(CliExitCodes, RequestWithoutEndpointIsUsage) {
  const RunResult result = run_cli("request analyze " + demo_path());
  EXPECT_EQ(result.exit_code, 2);
  expect_error_line(result);
}

TEST(CliExitCodes, RequestAgainstDeadSocketIsFailure) {
  const RunResult result = run_cli(
      "request --socket /nonexistent/ermes.sock analyze " + demo_path());
  EXPECT_EQ(result.exit_code, 1);
  expect_error_line(result);
}

TEST(CliExitCodes, ServeWithoutEndpointIsUsage) {
  const RunResult result = run_cli("serve");
  EXPECT_EQ(result.exit_code, 2);
  expect_error_line(result);
}

// `serve`, `request` and `top` share one flag parser, but each rejects the
// flags it does not use before doing anything (the socket here would not
// accept a connection).
TEST(CliExitCodes, EndpointCommandsRejectFlagsTheyDoNotUse) {
  const std::string socket = "--socket /nonexistent/ermes_flags.sock ";
  for (const std::string& command :
       {"request " + socket + "--cache-mb 5 --workers 3 stats",
        "request " + socket + "--count 1 stats",
        "top " + socket + "--text", "top " + socket + "--queue 4",
        "serve " + socket + "--prom", "serve " + socket + "--interval-ms 5"}) {
    const RunResult result = run_cli(command);
    EXPECT_EQ(result.exit_code, 2) << command;
    expect_error_line(result);
    EXPECT_NE(result.err.find("unknown flag"), std::string::npos)
        << result.err;
  }
}

// Thread-count flags parse strictly and stop at 256: garbage, negatives and
// the bound + 1 are usage errors before any pool or server exists. (Were the
// bound lost, these would start at most a few hundred threads; the serve
// socket path cannot be bound, so a regressed daemon exits instead of
// serving.)
TEST(CliExitCodes, ThreadCountsAreBounded) {
  for (const std::string jobs : {"abc", "-7", "257", "4x"}) {
    const RunResult result =
        run_cli("--jobs " + jobs + " sweep " + demo_path() + " 5 15 1");
    EXPECT_EQ(result.exit_code, 2) << jobs;
    expect_error_line(result);
    EXPECT_TRUE(result.out.empty()) << result.out;
  }
  const std::string socket = "/nonexistent/ermes_bound.sock";
  for (const std::string flag : {"--workers", "--net-shards"}) {
    for (const std::string value : {"-1", "257", "two"}) {
      const RunResult result =
          run_cli("serve --socket " + socket + " " + flag + " " + value);
      EXPECT_EQ(result.exit_code, 2) << flag << " " << value;
      expect_error_line(result);
    }
  }
  // The bound itself is accepted (`demo` reads no model, so builds no pool).
  const RunResult at_bound = run_cli("--jobs 256 demo");
  EXPECT_EQ(at_bound.exit_code, 0) << at_bound.err;
}

// The sweep table is the same at any --jobs; only the timing line differs.
std::string without_timing_line(const std::string& out) {
  const std::size_t at = out.find(" targets in ");
  if (at == std::string::npos) return out;
  return out.substr(0, out.rfind('\n', at) + 1);
}

TEST(CliSweep, JobsDoNotChangeTheTable) {
  const std::string mpeg2 =
      std::string(ERMES_EXAMPLES_DIR) + "/mpeg2_encoder.soc";
  for (const std::string& args :
       {demo_path() + " 5 15 1", mpeg2 + " 1500000 3000000 250000"}) {
    const RunResult serial = run_cli("--jobs 1 sweep " + args);
    const RunResult parallel = run_cli("--jobs 4 sweep " + args);
    EXPECT_EQ(serial.exit_code, parallel.exit_code) << args;
    EXPECT_EQ(serial.err, parallel.err) << args;
    EXPECT_NE(serial.out.find("on 1 jobs"), std::string::npos) << serial.out;
    EXPECT_NE(parallel.out.find("on 4 jobs"), std::string::npos)
        << parallel.out;
    EXPECT_EQ(without_timing_line(serial.out),
              without_timing_line(parallel.out))
        << args;
  }
}

// `sens` perturbs on one warm solver per --jobs slot: the shared topology
// compiles at most once per slot, and the report does not depend on --jobs.
TEST(CliSens, JobsCompileOncePerSlotAndKeepTheReport) {
  const std::string mpeg2 =
      std::string(ERMES_EXAMPLES_DIR) + "/mpeg2_encoder.soc";
  const std::string metrics = temp_path("sens_metrics.json");
  const RunResult serial = run_cli("--jobs 1 sens " + mpeg2);
  const RunResult parallel =
      run_cli("--jobs 4 --metrics " + metrics + " sens " + mpeg2);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(serial.out, parallel.out);
  const std::string json = slurp(metrics);
  const std::string key = "\"tmg.solver.compiles\":";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  const long long compiles = std::atoll(json.c_str() + at + key.size());
  EXPECT_GE(compiles, 1);
  EXPECT_LE(compiles, 4) << json;
  std::remove(metrics.c_str());
}

// An `ermes serve` child on a per-process unix socket, stopped with SIGTERM
// (a clean drain) when the test ends.
class Daemon {
 public:
  Daemon() : socket_(temp_path("daemon.sock")) {
    pid_ = ::fork();
    if (pid_ == 0) {
      // The readiness line is noise here; the child never returns.
      std::freopen("/dev/null", "w", stdout);
      ::execl(ERMES_CLI_PATH, ERMES_CLI_PATH, "serve", "--socket",
              socket_.c_str(), "--workers", "2", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    for (int attempt = 0; attempt < 500 && !ready_; ++attempt) {
      ready_ = run_cli("request --socket " + socket_ + " stats").exit_code == 0;
      if (!ready_) ::usleep(10'000);
    }
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ready() const { return ready_; }
  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  bool ready_ = false;
};

// analyze/order/dse/sweep print exactly the text the daemon answers the
// same request with (sweep's run-dependent timing line aside): both run the
// one svc::run_op implementation.
TEST(CliMatchesDaemon, ModelOpsPrintTheResponseText) {
  Daemon daemon;
  ASSERT_TRUE(daemon.ready());
  const std::string dir = ERMES_EXAMPLES_DIR;
  struct Model {
    std::string flags, path, tct, range;
  };
  const Model models[] = {
      {"", dir + "/motivating.soc", "13", "5 15 1"},
      {"", dir + "/mpeg2_encoder.soc", "2500000", "1500000 3000000 250000"},
      {"--hier ", dir + "/hier_pipeline.soc", "8", "3 9 1"},
  };
  struct Command {
    std::string cli, op;
    std::string Model::*args;
  };
  std::string Model::*none = nullptr;
  const Command commands[] = {{"analyze", "analyze", none},
                              {"order", "order", none},
                              {"dse", "explore", &Model::tct},
                              {"sweep", "sweep", &Model::range}};
  for (const Model& model : models) {
    for (const Command& command : commands) {
      const std::string args =
          model.path + (command.args != nullptr ? " " + model.*command.args
                                                : std::string());
      const RunResult local = run_cli(model.flags + command.cli + " " + args);
      const RunResult remote =
          run_cli(model.flags + "request --socket " + daemon.socket() +
                  " --text " + command.op + " " + args);
      EXPECT_EQ(remote.exit_code, 0) << remote.err;
      ASSERT_FALSE(remote.out.empty()) << command.cli << " " << args;
      EXPECT_EQ(without_timing_line(local.out), remote.out)
          << command.cli << " " << args;
    }
  }
}

}  // namespace
