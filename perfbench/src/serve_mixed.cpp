// Workload `serve_mixed`: the shipped daemon (`ermes serve --workers 2
// --net-shards 1 --cache-mb 1`, see kCacheMb; a child process on a unix
// socket) driven by
// this single thread over 4 connections, so daemon workers + shard +
// generator stay within 4 cores.
//
// Phase 1 is an open loop at a fixed rate (kOpenLoopRps, about 28% of the
// daemon's capacity measured at the default seed); each request is timed
// from its intended send time and the generator's lateness is reported. At
// half the capacity, periods of 3-8% steal time on the shared host built
// queues that moved the open-loop p99 from 11 ms to 34-91 ms; at 28% the
// queues drain between stalls. Its percentiles are printed, not reported as
// metrics: with the daemon mostly idle, every request waits for sleeping
// threads to be woken, and on the shared host that wait follows the host's
// steal time: over 40 runs its p50 spread 0.26, a saturated closed loop's
// 0.12.
// Phase 2 is a closed loop with one outstanding request on each of
// kClosedConnections connections, one per daemon worker. It gives the
// reported throughput and latency percentiles. With four outstanding
// requests every thread was busy on 4 cores and the daemon's CPU per op
// doubled. Measured in alternating slices of the same runs, in two periods
// when the host's speed drifted, the p50 spread across runs was 0.22 and
// 0.23 with four outstanding requests, 0.13 and 0.21 with two, and 0.07 and
// 0.33 in the open loop.
// The seeded request mix:
//   ~59% analyze of distinct 256-1000-process models (a cyclic pool larger
//        than the cache budget: cold inserts that force evictions),
//   ~17% analyze/order of a hot set of 8 models (hits, coalesced when
//        concurrent),
//   ~12% explore of the motivating example and 32-process models at fixed
//        targets, partly repeated,
//    ~2% sweep of a 32-process model over 4 targets,
//   ~10% session chains: open_session, two patch batches, close_session.
// Every response is compared with the same request computed in-process
// through the svc renderers before the clock started.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/performance.h"
#include "common.h"
#include "dse/explorer.h"
#include "io/soc_format.h"
#include "ordering/channel_ordering.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/render.h"
#include "sysmodel/builder.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace ermes;
using svc::JsonValue;

constexpr std::uint64_t kDefaultCorpusSeed = 3;
constexpr int kConnections = 4;
constexpr int kClosedConnections = 2;
constexpr double kOpenLoopRps = 130.0;
constexpr double kSmokeRps = 40.0;
constexpr int kColdPool = 640;
constexpr const char* kCacheMb = "1";
constexpr int kHotModels = 8;
constexpr int kChainScripts = 12;
constexpr int kSetupSpawns = 25;
constexpr double kFailedLatencyMs = 1e9;  // a failed request misses any limit
// Shares of --seconds: untimed warm-up, open loop, closed loop.
constexpr double kWarmupShare = 0.1;
constexpr double kOpenShare = 0.3;
constexpr double kClosedShare = 0.6;

// ---- inputs -------------------------------------------------------------------

enum class Kind { kAnalyze, kOrder, kExplore, kSweep, kSession };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kAnalyze: return "analyze";
    case Kind::kOrder: return "order";
    case Kind::kExplore: return "explore";
    case Kind::kSweep: return "sweep";
    case Kind::kSession: return "session";
  }
  return "?";
}

// One request whose answer is known in advance.
struct Template {
  std::string label;
  std::string body;  // the request's JSON members after the id, with "}"
  std::string expect_text;
};

// A session's requests and the report expected after each.
struct SessionStep {
  std::string op;  // open_session | patch | close_session
  JsonValue patches;
  bool live = false;
  std::int64_t ct_num = 0;
  std::int64_t ct_den = 1;
  std::vector<std::string> critical;
};
struct ChainScript {
  std::string soc;
  std::vector<SessionStep> steps;
};

struct Job {
  Kind kind = Kind::kAnalyze;
  int index = 0;  // template or chain script
};

struct Inputs {
  std::vector<Template> templates;
  std::vector<int> cold, hot_analyze, hot_order, explore, sweep;
  std::vector<ChainScript> chains;
};

std::string body_of(JsonValue request) {
  request.set("v", JsonValue::integer(2));
  const std::string text = request.to_string();
  return text.substr(1);  // drop '{': the id is spliced in front
}

JsonValue soc_request(const char* op, const std::string& soc) {
  JsonValue r = JsonValue::object();
  r.set("op", JsonValue::string(op));
  r.set("soc", JsonValue::string(soc));
  return r;
}

sysmodel::SystemModel generated(std::int32_t processes, std::uint64_t seed,
                                bool pareto) {
  synth::GeneratorConfig config;
  config.num_processes = processes;
  config.num_channels = processes * 3 / 2;
  config.seed = seed;
  sysmodel::SystemModel sys = synth::generate_soc(config);
  if (pareto) synth::attach_pareto_sets(sys, seed + 1);
  return sys;
}

void add_analyze(Inputs& in, std::vector<int>& pool, const std::string& label,
                 const std::string& soc) {
  const io::ParseResult parsed = io::parse_soc(soc);
  Template t;
  t.label = label;
  t.body = body_of(soc_request("analyze", soc));
  t.expect_text = svc::analyze_text(parsed.system,
                                    analysis::analyze_system(parsed.system));
  pool.push_back(static_cast<int>(in.templates.size()));
  in.templates.push_back(std::move(t));
}

void add_order(Inputs& in, const std::string& label, const std::string& soc) {
  const io::ParseResult parsed = io::parse_soc(soc);
  const analysis::PerformanceReport before =
      analysis::analyze_system(parsed.system);
  const sysmodel::SystemModel ordered =
      ordering::with_optimal_ordering(parsed.system);
  Template t;
  t.label = label;
  t.body = body_of(soc_request("order", soc));
  t.expect_text = svc::order_text(before.live, before.cycle_time,
                                  analysis::analyze_system(ordered), ordered,
                                  parsed.system_name);
  in.hot_order.push_back(static_cast<int>(in.templates.size()));
  in.templates.push_back(std::move(t));
}

dse::ExplorationResult explore_fresh(const sysmodel::SystemModel& sys,
                                     std::int64_t tct) {
  dse::ExplorerOptions options;
  options.target_cycle_time = tct;
  options.jobs = 1;
  return dse::explore(sys, options);
}

void add_explore(Inputs& in, const std::string& label, const std::string& soc,
                 std::int64_t tct) {
  const io::ParseResult parsed = io::parse_soc(soc);
  JsonValue r = soc_request("explore", soc);
  r.set("tct", JsonValue::integer(tct));
  Template t;
  t.label = label;
  t.body = body_of(std::move(r));
  t.expect_text = svc::explore_text(explore_fresh(parsed.system, tct));
  in.explore.push_back(static_cast<int>(in.templates.size()));
  in.templates.push_back(std::move(t));
}

void add_sweep(Inputs& in, const std::string& label, const std::string& soc,
               std::int64_t lo, std::int64_t step) {
  const io::ParseResult parsed = io::parse_soc(soc);
  std::vector<std::int64_t> targets;
  std::vector<dse::ExplorationResult> results;
  for (int i = 0; i < 4; ++i) {
    targets.push_back(lo + i * step);
    results.push_back(explore_fresh(parsed.system, targets.back()));
  }
  JsonValue r = soc_request("sweep", soc);
  r.set("lo", JsonValue::integer(lo));
  r.set("hi", JsonValue::integer(targets.back()));
  r.set("step", JsonValue::integer(step));
  Template t;
  t.label = label;
  t.body = body_of(std::move(r));
  t.expect_text = svc::sweep_text(targets, results);
  in.sweep.push_back(static_cast<int>(in.templates.size()));
  in.templates.push_back(std::move(t));
}

SessionStep expected_step(const std::string& op,
                          const sysmodel::SystemModel& sys) {
  SessionStep step;
  step.op = op;
  const analysis::PerformanceReport report = analysis::analyze_system(sys);
  step.live = report.live;
  step.ct_num = report.ct_num;
  step.ct_den = report.ct_den;
  for (const sysmodel::ProcessId p : report.critical_processes) {
    step.critical.push_back(sys.process_name(p));
  }
  return step;
}

// open_session, two batches of 4 patches, close_session.
ChainScript make_chain(const std::string& soc, util::Rng& rng) {
  ChainScript chain;
  chain.soc = soc;
  sysmodel::SystemModel sys = io::parse_soc(soc).system;
  chain.steps.push_back(expected_step("open_session", sys));
  for (int batch = 0; batch < 2; ++batch) {
    JsonValue patches = JsonValue::array();
    for (int k = 0; k < 4; ++k) {
      JsonValue patch = JsonValue::object();
      const auto p = static_cast<sysmodel::ProcessId>(
          rng.index(static_cast<std::size_t>(sys.num_processes())));
      switch (rng.index(3)) {
        case 0:
          if (sys.has_implementations(p)) {
            const std::size_t pick = rng.index(sys.implementations(p).size());
            patch.set("process", JsonValue::string(sys.process_name(p)));
            patch.set("select", JsonValue::integer(static_cast<std::int64_t>(pick)));
            sys.select_implementation(p, pick);
            break;
          }
          [[fallthrough]];
        case 1: {
          const std::int64_t latency = rng.uniform_int(1, 64);
          patch.set("process", JsonValue::string(sys.process_name(p)));
          patch.set("latency", JsonValue::integer(latency));
          sys.set_latency(p, latency);
          break;
        }
        default: {
          const auto c = static_cast<sysmodel::ChannelId>(
              rng.index(static_cast<std::size_t>(sys.num_channels())));
          const std::int64_t latency = rng.uniform_int(1, 64);
          patch.set("channel", JsonValue::string(sys.channel_name(c)));
          patch.set("latency", JsonValue::integer(latency));
          sys.set_channel_latency(c, latency);
          break;
        }
      }
      patches.push_back(std::move(patch));
    }
    SessionStep step = expected_step("patch", sys);
    step.patches = std::move(patches);
    chain.steps.push_back(std::move(step));
  }
  SessionStep close;
  close.op = "close_session";
  chain.steps.push_back(std::move(close));
  return chain;
}

Inputs make_inputs(const Options& options) {
  const std::uint64_t corpus =
      options.corpus_seed != 0 ? options.corpus_seed : kDefaultCorpusSeed;
  const std::uint64_t base = corpus * 100000;
  util::Rng rng(base);
  Inputs in;
  const int cold = options.smoke ? 12 : kColdPool;
  for (int i = 0; i < cold; ++i) {
    const auto n = static_cast<std::int32_t>(
        options.smoke ? 64 : rng.uniform_int(256, 1000));
    const std::uint64_t seed = base + 1000 + static_cast<std::uint64_t>(i);
    add_analyze(in, in.cold, "cold" + std::to_string(i),
                io::write_soc(generated(n, seed, false), "cold"));
  }
  for (int i = 0; i < kHotModels; ++i) {
    const auto n = static_cast<std::int32_t>(
        options.smoke ? 48 : rng.uniform_int(64, 160));
    const std::string soc = io::write_soc(
        generated(n, base + 2000 + static_cast<std::uint64_t>(i), false), "hot");
    add_analyze(in, in.hot_analyze, "hot" + std::to_string(i), soc);
    add_order(in, "hot" + std::to_string(i), soc);
  }
  {
    sysmodel::SystemModel motivating = sysmodel::make_dac14_motivating_example();
    synth::attach_pareto_sets(motivating, base + 3000);
    const std::string soc = io::write_soc(motivating, "dac14_motivating");
    const std::int64_t ct = ordered_cycle_time(motivating);
    add_explore(in, "motivating@0.8", soc, ct * 8 / 10);
    add_explore(in, "motivating@0.6", soc, ct * 6 / 10);
  }
  for (int i = 0; i < 4; ++i) {
    const sysmodel::SystemModel sys =
        generated(32, base + 3100 + static_cast<std::uint64_t>(i), true);
    add_explore(in, "syn32/" + std::to_string(i), io::write_soc(sys, "syn"),
                ordered_cycle_time(sys) * 9 / 10);
  }
  {
    const sysmodel::SystemModel sys = generated(32, base + 3200, true);
    const std::int64_t ct = ordered_cycle_time(sys);
    add_sweep(in, "sweep32", io::write_soc(sys, "sweep"), ct * 85 / 100,
              std::max<std::int64_t>(1, ct / 20));
  }
  for (int i = 0; i < kChainScripts; ++i) {
    const auto n = static_cast<std::int32_t>(options.smoke ? 48 : 256);
    const std::string soc = io::write_soc(
        generated(n, base + 4000 + static_cast<std::uint64_t>(i % 3), true),
        "session");
    in.chains.push_back(make_chain(soc, rng));
  }
  return in;
}

// The seeded request sequence (shared by all phases). Every cycle of 38
// jobs (41 requests) holds the mix exactly: 24 cold analyzes, 4 hot
// analyzes, 3 hot orders, 5 explores, 1 sweep and one 4-request session
// chain. The seed shuffles each cycle and picks the repeated templates, so
// seeds change the sequence but never the proportions. Cold analyzes are
// the majority so that the median falls inside their broad, smooth
// latency band rather than in the gap between ~1 ms hits and ~5 ms
// misses, where a small shift of either moves it most.
class JobStream {
 public:
  JobStream(const Inputs& in, std::uint64_t seed) : in_(in), rng_(seed) {}

  Job next() {
    if (slot_ == cycle_.size()) {
      cycle_.clear();
      const std::pair<Slot, int> counts[] = {
          {Slot::kCold, 24},   {Slot::kHotAnalyze, 4}, {Slot::kHotOrder, 3},
          {Slot::kExplore, 5}, {Slot::kSweep, 1},      {Slot::kSession, 1}};
      for (const auto& [slot, n] : counts) cycle_.insert(cycle_.end(), n, slot);
      rng_.shuffle(cycle_);
      slot_ = 0;
    }
    switch (cycle_[slot_++]) {
      case Slot::kCold:
        return {Kind::kAnalyze, in_.cold[cold_next_++ % in_.cold.size()]};
      case Slot::kHotAnalyze: return {Kind::kAnalyze, pick(in_.hot_analyze)};
      case Slot::kHotOrder: return {Kind::kOrder, pick(in_.hot_order)};
      case Slot::kExplore: return {Kind::kExplore, pick(in_.explore)};
      case Slot::kSweep: return {Kind::kSweep, pick(in_.sweep)};
      case Slot::kSession: break;
    }
    return {Kind::kSession, static_cast<int>(rng_.index(in_.chains.size()))};
  }

 private:
  enum class Slot { kCold, kHotAnalyze, kHotOrder, kExplore, kSweep, kSession };

  int pick(const std::vector<int>& pool) {
    return pool[rng_.index(pool.size())];
  }

  const Inputs& in_;
  util::Rng rng_;
  std::vector<Slot> cycle_;
  std::size_t slot_ = 0;
  std::size_t cold_next_ = 0;
};

// ---- the daemon -----------------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { kill_now(); }

  bool spawn(const Options& options, const std::string& socket_path) {
    const std::string log = options.work_dir + "/daemon.log";
    std::vector<std::string> args = {options.ermes_bin, "serve", "--socket",
                                     socket_path, "--workers", "2",
                                     "--net-shards", "1", "--cache-mb", kCacheMb};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, options.ermes_bin.c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      std::fprintf(stderr, "serve_mixed: cannot spawn %s: %s\n",
                   options.ermes_bin.c_str(), std::strerror(rc));
      return false;
    }
    return true;
  }

  pid_t pid() const { return pid_; }

  /// Waits up to `timeout_s` for the process to exit; true on exit code 0.
  bool wait_exit(double timeout_s) {
    if (pid_ < 0) return false;
    util::Stopwatch clock;
    int status = 0;
    while (clock.elapsed_seconds() < timeout_s) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    kill_now();
    return false;
  }

 private:
  void kill_now() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// ---- the generator --------------------------------------------------------------

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  int chain = -1;  // in-flight session chain on this connection
  std::string chain_session;
};

struct Pending {
  Job job;
  int step = 0;  // session step
  std::int64_t intended_ns = 0;
  int phase = 0;  // 0 warm-up, 1 open loop, 2 closed loop
};

class Generator {
 public:
  Generator(const Inputs& in, Report& report) : in_(in), report_(report) {}
  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool connect_all(const std::string& path) {
    for (int i = 0; i < kConnections; ++i) {
      Conn c;
      c.fd = connect_unix(path);
      if (c.fd < 0) return false;
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(std::move(c));
    }
    return true;
  }

  std::int64_t now_ns() const { return clock_.elapsed_ns(); }

  /// Sends a request outside the measured phases and waits for its result.
  bool call(const std::string& op_body, JsonValue* result) {
    const std::int64_t id = next_id_++;
    sync_id_ = id;
    sync_done_ = false;
    enqueue(0, "{\"id\":" + std::to_string(id) + "," + op_body);
    while (!sync_done_) {
      if (!pump(100'000'000)) return false;
    }
    *result = sync_result_;
    return sync_ok_;
  }

  /// Phase 1: open loop at `rps` for `seconds`, then drains.
  bool open_loop(JobStream& jobs, double rps, double seconds) {
    phase_ = 1;
    const std::int64_t start = now_ns();
    const auto interval = static_cast<std::int64_t>(1e9 / rps);
    std::int64_t due = start;
    int rr = 0;
    while (due < start + static_cast<std::int64_t>(seconds * 1e9)) {
      const std::int64_t now = now_ns();
      if (now >= due) {
        late_ms_.push_back(static_cast<double>(now - due) / 1e6);
        // Session chains need an idle connection; others go round-robin.
        const Job job = jobs.next();
        int conn = rr++ % kConnections;
        if (job.kind == Kind::kSession) {
          for (int k = 0; k < kConnections && conns_[conn].chain >= 0; ++k) {
            conn = (conn + 1) % kConnections;
          }
        }
        if (job.kind == Kind::kSession && conns_[conn].chain >= 0) {
          parked_.push_back({job, 0, due, 1});
        } else {
          issue(job, conn, due);
        }
        due += interval;
        continue;
      }
      if (!pump(due - now)) return false;
    }
    return drain();
  }

  /// Closed loop, one outstanding request on each of the first
  /// `connections` connections: phase 2, or the warm-up (phase 0), whose
  /// answers are checked but not timed.
  bool closed_loop(JobStream& jobs, double seconds, int phase,
                   int connections) {
    phase_ = phase;
    jobs_ = &jobs;
    closed_start_ = now_ns();
    closed_end_ = closed_start_ + static_cast<std::int64_t>(seconds * 1e9);
    for (int c = 0; c < connections; ++c) issue(jobs.next(), c, now_ns());
    while (now_ns() < closed_end_) {
      if (!pump(closed_end_ - now_ns())) return false;
    }
    jobs_ = nullptr;
    return drain();
  }

  // Samples.
  std::vector<double> open_ms_, closed_ms_, late_ms_;
  std::vector<std::int64_t> closed_done_ns_;  // correct closed-loop replies
  std::int64_t completed_ = 0;

  /// Closed-loop throughput: the median over ten equal windows of the
  /// phase, so a contention burst in one window does not set the figure.
  double closed_rate(double seconds) const {
    constexpr int kWindows = 10;
    const double window_ns = seconds * 1e9 / kWindows;
    std::vector<double> counts(kWindows, 0.0);
    for (const std::int64_t t : closed_done_ns_) {
      const auto w = static_cast<int>(static_cast<double>(t) / window_ns);
      if (w < kWindows) counts[static_cast<std::size_t>(w)] += 1.0;
    }
    return median(counts) / (window_ns / 1e9);
  }

 private:
  void enqueue(int conn, const std::string& line) {
    Conn& c = conns_[conn];
    c.out += line;
    c.out += '\n';
  }

  void issue(const Job& job, int conn, std::int64_t intended) {
    const std::int64_t id = next_id_++;
    Pending p{job, 0, intended, phase_};
    std::string body;
    if (job.kind == Kind::kSession) {
      Conn& c = conns_[conn];
      c.chain = job.index;
      c.chain_session = "c" + std::to_string(id);
      body = session_body(c, 0);
    } else {
      body = in_.templates[job.index].body;
    }
    pending_[id] = p;
    enqueue(conn, "{\"id\":" + std::to_string(id) + "," + body);
  }

  std::string session_body(const Conn& c, int step) const {
    const ChainScript& chain = in_.chains[c.chain];
    const SessionStep& s = chain.steps[step];
    JsonValue r = JsonValue::object();
    r.set("op", JsonValue::string(s.op));
    r.set("session", JsonValue::string(c.chain_session));
    if (s.op == "open_session") r.set("soc", JsonValue::string(chain.soc));
    if (s.op == "patch") r.set("patches", s.patches);
    return body_of(std::move(r));
  }

  bool drain() {
    while (!pending_.empty() || !parked_.empty()) {
      if (!pump(10'000'000)) return false;
    }
    return true;
  }

  // One poll round (waiting at most `timeout_ns`): flush writes, read and
  // handle complete lines.
  bool pump(std::int64_t timeout_ns) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      short events = POLLIN;
      if (c.out_off < c.out.size()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }
    // Try writing first: most requests fit in the socket buffer at once.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!flush(conns_[i])) return false;
      if (conns_[i].out_off >= conns_[i].out.size()) fds[i].events &= ~POLLOUT;
    }
    const std::int64_t wait = std::max<std::int64_t>(0, timeout_ns);
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) return false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & (POLLERR | POLLNVAL)) return fail_io("socket error");
      if (fds[i].revents & POLLOUT && !flush(conns_[i])) return false;
      if (fds[i].revents & (POLLIN | POLLHUP)) {
        if (!read_lines(static_cast<int>(i))) return false;
      }
    }
    return true;
  }

  bool fail_io(const char* what) {
    std::fprintf(stderr, "serve_mixed: %s (%zu requests outstanding)\n", what,
                 pending_.size());
    return false;
  }

  bool flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return fail_io("send failed");
      }
      c.out_off += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_off = 0;
    return true;
  }

  bool read_lines(int conn) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(conns_[conn].fd, buf, sizeof buf, 0);
      if (n == 0) return fail_io("daemon closed the connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return fail_io("recv failed");
      }
      conns_[conn].in.append(buf, static_cast<std::size_t>(n));
    }
    std::string& in = conns_[conn].in;
    std::size_t start = 0;
    for (std::size_t nl; (nl = in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      if (!handle(conn, std::string_view(in).substr(start, nl - start))) {
        return false;
      }
    }
    in.erase(0, start);
    return true;
  }

  bool handle(int conn, std::string_view line) {
    const std::int64_t now = now_ns();
    const svc::ResponseView rv = svc::parse_response(line);
    if (!rv.ok || !rv.id.is_integer()) return fail_io("unparsable response");
    const std::int64_t id = rv.id.as_int();
    if (id == sync_id_) {
      sync_done_ = true;
      sync_ok_ = rv.success;
      sync_result_ = rv.result;
      return true;
    }
    const auto it = pending_.find(id);
    if (it == pending_.end()) return fail_io("response with an unknown id");
    const Pending p = it->second;
    pending_.erase(it);
    Conn& c = conns_[conn];
    if (p.phase != 0) ++completed_;

    const std::string error = check(rv, p);
    const double latency_ms = static_cast<double>(now - p.intended_ns) / 1e6;
    report_.op(error);
    const double sample = error.empty() ? latency_ms : kFailedLatencyMs;
    if (p.phase == 1) open_ms_.push_back(sample);
    if (p.phase == 2) {
      closed_ms_.push_back(sample);
      if (error.empty()) closed_done_ns_.push_back(now - closed_start_);
    }

    // Continue a session chain on this connection; a failed step ends it
    // (its later steps could only fail too).
    if (p.job.kind == Kind::kSession) {
      const int steps = static_cast<int>(in_.chains[c.chain].steps.size());
      if (error.empty() && p.step + 1 < steps) {
        const std::int64_t next = next_id_++;
        pending_[next] = {p.job, p.step + 1, now, p.phase};
        enqueue(conn, "{\"id\":" + std::to_string(next) + "," +
                          session_body(c, p.step + 1));
        return true;
      }
      c.chain = -1;
      if (!parked_.empty()) {
        const Pending parked = parked_.front();
        parked_.erase(parked_.begin());
        issue(parked.job, conn, parked.intended_ns);
        return true;
      }
    }
    if (p.phase != 1 && jobs_ != nullptr && now < closed_end_) {
      issue(jobs_->next(), conn, now);
    }
    return true;
  }

  // Compares a response with the in-process answer.
  std::string check(const svc::ResponseView& rv, const Pending& p) const {
    const std::string what =
        p.job.kind == Kind::kSession
            ? "session step " + std::to_string(p.step)
            : in_.templates[p.job.index].label + " " + kind_name(p.job.kind);
    if (!rv.success) return what + ": " + rv.error_code + ": " + rv.error_message;
    if (p.job.kind != Kind::kSession) {
      const JsonValue* text = rv.result.find("text");
      if (text == nullptr || !text->is_string() ||
          text->as_string() != in_.templates[p.job.index].expect_text) {
        return what + ": response text differs from the in-process answer";
      }
      return "";
    }
    const SessionStep& s = in_.chains[p.job.index].steps[p.step];
    if (s.op == "close_session") {
      const JsonValue* closed = rv.result.find("closed");
      return closed != nullptr && closed->is_bool() && closed->as_bool()
                 ? ""
                 : what + ": close_session not acknowledged";
    }
    const JsonValue* live = rv.result.find("live");
    const JsonValue* num = rv.result.find("ct_num");
    const JsonValue* den = rv.result.find("ct_den");
    const JsonValue* critical = rv.result.find("critical_processes");
    if (live == nullptr || num == nullptr || den == nullptr ||
        critical == nullptr || !critical->is_array()) {
      return what + ": malformed session report";
    }
    std::vector<std::string> names;
    for (const JsonValue& v : critical->items()) names.push_back(v.as_string());
    if (live->as_bool() != s.live || num->as_int() != s.ct_num ||
        den->as_int() != s.ct_den || names != s.critical) {
      return what + ": session report differs from the in-process analysis";
    }
    return "";
  }

  const Inputs& in_;
  Report& report_;
  util::Stopwatch clock_;
  std::vector<Conn> conns_;
  std::map<std::int64_t, Pending> pending_;
  std::vector<Pending> parked_;  // session chains waiting for a free connection
  std::int64_t next_id_ = 1;
  int phase_ = 0;
  JobStream* jobs_ = nullptr;
  std::int64_t closed_start_ = 0;
  std::int64_t closed_end_ = 0;
  std::int64_t sync_id_ = -1;
  bool sync_done_ = false;
  bool sync_ok_ = false;
  JsonValue sync_result_;
};

// Spawns the daemon and waits for its first successful reply. Returns the
// spawn-to-reply time in seconds, < 0 on failure.
double start_daemon(const Options& options, const std::string& socket_path,
                    Daemon& daemon) {
  util::Stopwatch clock;
  if (!daemon.spawn(options, socket_path)) return -1.0;
  while (clock.elapsed_seconds() < 20.0) {
    std::string error;
    const auto client = svc::Client::connect_unix(socket_path, &error);
    if (client == nullptr) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    return client->call("{\"id\":0,\"op\":\"stats\"}").success
               ? clock.elapsed_seconds()
               : -1.0;
  }
  return -1.0;
}

bool stop_daemon(const std::string& socket_path, Daemon& daemon) {
  std::string error;
  auto client = svc::Client::connect_unix(socket_path, &error);
  if (client == nullptr) return false;
  const bool acked = client->call("{\"id\":0,\"op\":\"shutdown\"}").success;
  client.reset();
  return daemon.wait_exit(10.0) && acked;
}

// ---- stats v2 ---------------------------------------------------------------------

const JsonValue* path(const JsonValue& root, std::initializer_list<const char*> keys) {
  const JsonValue* v = &root;
  for (const char* key : keys) {
    v = v->find(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

double num_at(const JsonValue& root, std::initializer_list<const char*> keys) {
  const JsonValue* v = path(root, keys);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

// Counters of the daemon's obs registry (the stats "metrics" member).
double registry_counter(const JsonValue& stats, const char* name) {
  const JsonValue* counters = path(stats, {"metrics", "counters"});
  if (counters == nullptr) return 0.0;
  const JsonValue* v = counters->find(name);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

// ---- windowed quantiles -------------------------------------------------------

// Cumulative bucket rows (upper bound in ns -> observations at or below it)
// of each HDR quantile instrument in a Prometheus scrape (the `metrics` op),
// keyed by exposition name. A quantile instrument's histogram block is the
// one followed by its `<name>_q` gauge family; a log2 histogram of the same
// name (svc.request_ns has both) is skipped.
using BucketRows = std::map<std::string, std::map<std::int64_t, std::int64_t>>;

BucketRows parse_quantile_buckets(const std::string& text) {
  BucketRows rows;
  std::string block_name;
  std::map<std::int64_t, std::int64_t> block;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    constexpr std::string_view kType = "# TYPE ";
    if (line.rfind(kType, 0) == 0) {
      const std::size_t space = line.find(' ', kType.size());
      const std::string name = line.substr(kType.size(), space - kType.size());
      if (line.substr(space + 1) == "histogram") {
        block_name = name;
        block.clear();
      } else if (name == block_name + "_q") {
        rows[block_name] = block;
      }
      continue;
    }
    const std::string prefix = block_name + "_bucket{le=\"";
    if (block_name.empty() || line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find("\"} ", prefix.size());
    const std::string upper = line.substr(prefix.size(), close - prefix.size());
    if (close == std::string::npos || upper == "+Inf") continue;
    block[std::stoll(upper)] = std::stoll(line.substr(close + 3));
  }
  return rows;
}

// The q-quantile, in ms, of what an instrument observed between two scrapes:
// nearest rank over the differences of the cumulative bucket counts,
// reported as the bucket's upper bound like the daemon's own quantiles
// (under 1% above the true value). 0 if nothing was observed.
double window_quantile_ms(const BucketRows& from, const BucketRows& to,
                          const std::string& name, double q) {
  const auto t = to.find(name);
  if (t == to.end() || t->second.empty()) return 0.0;
  const auto f = from.find(name);
  const auto before = [&](std::int64_t upper) -> std::int64_t {
    if (f == from.end()) return 0;
    const auto it = f->second.upper_bound(upper);
    return it == f->second.begin() ? 0 : std::prev(it)->second;
  };
  const auto& [last_upper, last_count] = *t->second.rbegin();
  const std::int64_t count = last_count - before(last_upper);
  if (count <= 0) return 0.0;
  const auto rank = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count))), 1,
      count);
  for (const auto& [upper, cumulative] : t->second) {
    if (cumulative - before(upper) >= rank) {
      return static_cast<double>(upper) / 1e6;
    }
  }
  return 0.0;
}

}  // namespace

bool run_serve_mixed(const Options& options, Report& report) {
  if (options.ermes_bin.empty() || options.work_dir.empty()) {
    std::fprintf(stderr, "serve_mixed: needs --ermes and --workdir\n");
    return false;
  }
  const Inputs inputs = make_inputs(options);
  report.note("serve_mixed: " + std::to_string(inputs.templates.size()) +
              " request templates (" + std::to_string(inputs.cold.size()) +
              " cold models), " + std::to_string(inputs.chains.size()) +
              " session scripts");
  const std::string socket_path =
      options.work_dir + "/d" + std::to_string(::getpid()) + ".sock";

  // Set-up: spawn until the first successful reply, several times; the
  // last daemon serves the run.
  std::vector<double> setups;
  Daemon daemon;
  for (int rep = 0; rep < kSetupSpawns; ++rep) {
    const double s = start_daemon(options, socket_path, daemon);
    if (s < 0) {
      std::fprintf(stderr, "serve_mixed: daemon did not come up\n");
      return false;
    }
    setups.push_back(s);
    if (rep + 1 < kSetupSpawns && !stop_daemon(socket_path, daemon)) {
      std::fprintf(stderr, "serve_mixed: daemon did not shut down cleanly\n");
      return false;
    }
  }

  Generator gen(inputs, report);
  if (!gen.connect_all(socket_path)) {
    std::fprintf(stderr, "serve_mixed: cannot connect\n");
    return false;
  }
  // Warm the repeated requests (hot set, explores, sweeps) once, as a
  // long-running daemon would be; the cold pool stays cold.
  for (const Template& t : inputs.templates) {
    if (t.label.rfind("cold", 0) == 0) continue;
    JsonValue ignored;
    if (!gen.call(t.body, &ignored)) {
      std::fprintf(stderr, "serve_mixed: warm-up request %s failed\n",
                   t.label.c_str());
      return false;
    }
  }
  // A fresh daemon's first second under load is a start-up transient
  // (first-touch allocation, an empty cache): run the mix closed-loop,
  // checked but untimed, before measuring.
  JobStream jobs(inputs, options.seed);
  if (!gen.closed_loop(jobs, options.seconds * kWarmupShare, 0, kConnections)) {
    return false;
  }
  // The counters and means come from `stats` v2 snapshots; the percentiles
  // of one window come from the bucket counts of `metrics` scrapes, because
  // the daemon's own quantiles cover its whole life.
  const std::string stats_body = "\"v\":2,\"op\":\"stats\"}";
  const auto snapshot = [&](JsonValue* stats, BucketRows* buckets) {
    JsonValue scrape;
    if (!gen.call(stats_body, stats) ||
        !gen.call("\"op\":\"metrics\"}", &scrape)) {
      return false;
    }
    const JsonValue* text = scrape.find("text");
    if (text == nullptr || !text->is_string()) return false;
    *buckets = parse_quantile_buckets(text->as_string());
    return true;
  };
  JsonValue before, mid, after;
  BucketRows buckets_before, buckets_mid, buckets_after;
  if (!snapshot(&before, &buckets_before)) return false;
  const double cpu0 = proc_cpu_ms(daemon.pid());
  const double rps = options.smoke ? kSmokeRps : kOpenLoopRps;
  if (!gen.open_loop(jobs, rps, options.seconds * kOpenShare) ||
      !snapshot(&mid, &buckets_mid) ||
      !gen.closed_loop(jobs, options.seconds * kClosedShare, 2,
                       kClosedConnections)) {
    return false;
  }

  const double cpu1 = proc_cpu_ms(daemon.pid());
  const double rss = peak_rss_mb(std::to_string(daemon.pid()));
  if (!snapshot(&after, &buckets_after)) return false;
  if (!stop_daemon(socket_path, daemon)) {
    std::fprintf(stderr, "serve_mixed: daemon did not shut down cleanly\n");
    return false;
  }

  const auto ops = static_cast<double>(gen.completed_);
  report.note(sample_note("serve_mixed open loop @" + fmt(rps) + " rps",
                          gen.open_ms_));
  report.note(sample_note("serve_mixed closed loop", gen.closed_ms_));
  report.note("serve_mixed generator lateness p99=" +
              fmt(quantile(gen.late_ms_, 0.99)) + "ms over " +
              std::to_string(gen.late_ms_.size()) + " sends");

  if (!options.trace) {
    emit(report, kEndToEnd,
         {{"ops_per_s", gen.closed_rate(options.seconds * kClosedShare)},
          {"p50_ms", quantile(gen.closed_ms_, 0.5)},
          {"p90_ms", quantile(gen.closed_ms_, 0.9)},
          {"cpu_ms_per_op", ratio(cpu1 - cpu0, ops)},
          {"setup_s", median(setups)},
          {"peak_rss_mb", rss}});
    return true;
  }

  const auto delta = [&](std::initializer_list<const char*> keys) {
    return num_at(after, keys) - num_at(before, keys);
  };
  const auto counter_delta = [&](const char* name) {
    return registry_counter(after, name) - registry_counter(before, name);
  };
  // Daemon percentiles over both measured phases.
  const auto measured_ms = [&](const std::string& name, double q) {
    return window_quantile_ms(buckets_before, buckets_after, name, q);
  };
  const auto op_p50_ms = [&](const char* op) {
    return measured_ms(std::string("ermes_svc_op_ns_") + op, 0.5);
  };
  const double accepted = delta({"broker", "accepted"});
  const double hits = delta({"cache", "hits"});
  const double misses = delta({"cache", "misses"});
  const double aux_hits = counter_delta("analysis.eval_cache.aux_hits");
  const double aux_misses = counter_delta("analysis.eval_cache.aux_misses");
  const double reuses = delta({"solver", "batch_scc_reuses"});
  const double scc_solves = delta({"solver", "batch_scc_solves"});
  const double sccs_reused = counter_delta("comp.sccs_reused");
  const double sccs_solved = counter_delta("comp.sccs_solved");
  // The closed-loop phase's daemon medians, to set against the client's.
  const double closed_request_p50 = window_quantile_ms(
      buckets_mid, buckets_after, "ermes_svc_request_ns", 0.5);
  const double closed_queue_p50 = window_quantile_ms(
      buckets_mid, buckets_after, "ermes_svc_queue_wait_ns", 0.5);
  // Daemon-side mean of the closed-loop phase, from the cumulative
  // count/mean pairs before and after it.
  const auto phase2_mean_ms = [&](const char* block) {
    const double n1 = num_at(mid, {block, "count"});
    const double n2 = num_at(after, {block, "count"});
    return ratio(num_at(after, {block, "mean_ns"}) * n2 -
                     num_at(mid, {block, "mean_ns"}) * n1,
                 n2 - n1) / 1e6;
  };
  const double client_mean = mean(gen.closed_ms_);
  const double daemon_mean =
      phase2_mean_ms("latency") + phase2_mean_ms("queue_wait");
  emit(report, kPerLayer,
       {{"tmg.howard_iterations",
         ratio(counter_delta("howard.iterations") +
                   counter_delta("tmg.solver.iterations"),
               ops)},
        {"tmg.batch_scc_reuse_ratio", ratio(reuses, reuses + scc_solves)},
        {"dse.iterations", ratio(counter_delta("dse.iterations"), ops)},
        {"dse.candidates", ratio(counter_delta("dse.candidates_evaluated"), ops)},
        {"ilp.solves", ratio(counter_delta("ilp.solves"), ops)},
        {"ilp.bnb_nodes", ratio(counter_delta("ilp.bnb_nodes"), ops)},
        {"ilp.simplex_pivots", ratio(counter_delta("ilp.simplex_pivots"), ops)},
        {"analysis.eval_cache.hit_ratio", ratio(hits, hits + misses)},
        {"analysis.eval_cache.aux_hit_ratio",
         ratio(aux_hits, aux_hits + aux_misses)},
        {"cache.evictions_per_op", ratio(delta({"cache", "evictions"}), ops)},
        {"cache.bytes_mb", num_at(after, {"cache", "bytes"}) / 1e6},
        {"cache.admission_rejects", delta({"cache", "admission_rejects"})},
        {"svc.request_p50_ms", measured_ms("ermes_svc_request_ns", 0.5)},
        {"svc.queue_wait_p50_ms", measured_ms("ermes_svc_queue_wait_ns", 0.5)},
        {"svc.queue_wait_p99_ms", measured_ms("ermes_svc_queue_wait_ns", 0.99)},
        {"svc.op.analyze_p50_ms", op_p50_ms("analyze")},
        {"svc.op.order_p50_ms", op_p50_ms("order")},
        {"svc.op.explore_p50_ms", op_p50_ms("explore")},
        {"svc.op.sweep_p50_ms", op_p50_ms("sweep")},
        {"svc.op.patch_p50_ms", op_p50_ms("patch")},
        {"svc.coalesced_share", ratio(delta({"broker", "coalesced"}), accepted)},
        {"svc.batched_share", ratio(delta({"broker", "batched"}), accepted)},
        {"comp.sccs_reused_ratio", ratio(sccs_reused, sccs_reused + sccs_solved)},
        {"net.overhead_p50_ms",
         quantile(gen.closed_ms_, 0.5) - closed_request_p50 - closed_queue_p50},
        {"other_ms", client_mean - daemon_mean},
        {"bench.generator_late_p99_ms", quantile(gen.late_ms_, 0.99)}});
  return true;
}

}  // namespace perfbench
