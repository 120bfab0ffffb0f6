// Load generator for the analysis service (`ermes serve`).
//
// Boots in-process Servers on unix-domain sockets and measures the daemon
// three ways, recording everything in BENCH_serve.json:
//
//  (a) closed loop — N clients issue the next request only after the
//      previous response (the classic mode; latency here includes client
//      queueing, so p99 understates server behaviour under saturation);
//  (b) open loop — `--connections N --rps R` paces requests on a fixed
//      schedule and measures each latency from the *intended* send instant,
//      so client-side queueing cannot hide server latency (no coordinated
//      omission);
//  (c) high concurrency — 1k+ simultaneous connections pipelining batches
//      of cached analyze requests, the daemon's fast path: every request
//      executes and replays its whole report from the memo.
//
// Every phase byte-compares responses against a canonical serial rendering,
// and a final probe asserts backpressure (an undersized broker answers the
// overflow portion of a burst with `overloaded` immediately).
//
// Flags: --smoke (tiny sizes; the serve-smoke CTest entry), --clients N,
// --requests N (per client, closed loop), --connections N --rps R (open
// loop), --hc-conns N (high-concurrency phase), --out path.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/performance.h"
#include "apps/mpeg2/characterization.h"
#include "dse/explorer.h"
#include "io/soc_format.h"
#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/render.h"
#include "svc/server.h"
#include "sysmodel/builder.h"
#include "util/stopwatch.h"

using namespace ermes;

namespace {

using SteadyClock = std::chrono::steady_clock;

struct Config {
  bool smoke = false;
  int clients = 8;
  int requests_per_client = 40;
  int ol_connections = 64;  // --connections: open-loop connection count
  int ol_rps = 2000;        // --rps: open-loop aggregate request rate
  double ol_secs = 3.0;     // open-loop duration (sets requests/connection)
  int hc_conns = 1024;      // --hc-conns: high-concurrency connection count
  int hc_batch = 32;        // pipelined requests per batch write
  int hc_rounds = 4;        // batches per connection
  std::string out_path = "BENCH_serve.json";
};

std::string temp_socket_path(const char* tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = tmp != nullptr ? tmp : "/tmp";
  return dir + "/ermes_bench_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

// Raises RLIMIT_NOFILE to its hard limit; returns the resulting soft limit.
// The high-concurrency phase needs 2 fds per connection (client + server
// side live in this process).
std::size_t raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < lim.rlim_max) {
    rlimit raised = lim;
    raised.rlim_cur = lim.rlim_max;
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

// Connect with retry: a burst of 1k connects can transiently overflow the
// listen backlog while the acceptor drains it.
std::unique_ptr<svc::Client> connect_retry(const std::string& path,
                                           std::string* error) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::unique_ptr<svc::Client> client =
        svc::Client::connect_unix(path, error);
    if (client != nullptr) return client;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return nullptr;
}

// Canonical per-target expected response text, computed exactly the way the
// single-shot CLI does it (same svc::render entry point, serial evaluation).
std::string expected_explore_text(const sysmodel::SystemModel& sys,
                                  std::int64_t tct) {
  dse::ExplorerOptions options;
  options.target_cycle_time = tct;
  return svc::explore_text(dse::explore(sys, options));
}

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[index];
}

// ---------------------------------------------------------------------------
// Phase A: closed-loop clients over a repeated-target explore workload.

struct LoadResult {
  double elapsed_s = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  // Server-side latency, read back from the daemon's own svc.request_ns
  // quantile instrument (queue wait + execute, no socket round-trip).
  std::int64_t server_samples = 0;
  double server_p50_ms = 0.0;
  double server_p99_ms = 0.0;
  double cache_hit_rate = 0.0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  int total_requests = 0;
  int mismatches = 0;
  int transport_errors = 0;
};

LoadResult run_load(const Config& config, const sysmodel::SystemModel& sys,
                    const std::string& soc,
                    const std::vector<std::int64_t>& targets) {
  // Telemetry on: the daemon records its own latency distribution, which the
  // report cross-checks against the client-observed one.
  obs::set_enabled(true);
  obs::Registry::global().reset();

  svc::ServerOptions options;
  options.socket_path = temp_socket_path("load");
  options.broker.workers = 0;  // all cores
  options.broker.queue_depth = 4096;  // admission is not under test here
  svc::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    std::exit(1);
  }
  std::thread server_thread([&server] { server.run(); });

  std::vector<std::string> expected;
  expected.reserve(targets.size());
  for (const std::int64_t tct : targets) {
    expected.push_back(expected_explore_text(sys, tct));
  }

  LoadResult load;
  load.total_requests = config.clients * config.requests_per_client;
  std::mutex latencies_mu;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(load.total_requests));
  std::atomic<int> mismatches{0};
  std::atomic<int> transport_errors{0};

  util::Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      std::string client_error;
      std::unique_ptr<svc::Client> client =
          svc::Client::connect_unix(server.socket_path(), &client_error);
      if (client == nullptr) {
        transport_errors.fetch_add(config.requests_per_client);
        return;
      }
      std::vector<double> mine;
      mine.reserve(static_cast<std::size_t>(config.requests_per_client));
      for (int r = 0; r < config.requests_per_client; ++r) {
        // Repeated-target workload: every client cycles the same target
        // set, offset by client index so first touches interleave.
        const std::size_t t =
            static_cast<std::size_t>(c + r) % targets.size();
        const std::string id =
            "c" + std::to_string(c) + "r" + std::to_string(r);
        util::Stopwatch sw;
        const svc::ResponseView view = client->call(svc::encode_request(
            svc::Op::kExplore, svc::JsonValue::string(id), soc, targets[t]));
        mine.push_back(static_cast<double>(sw.elapsed_ns()) / 1e6);
        if (!view.ok) {
          transport_errors.fetch_add(1);
          continue;
        }
        const svc::JsonValue* text =
            view.success ? view.result.find("text") : nullptr;
        if (text == nullptr || text->as_string() != expected[t]) {
          mismatches.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(latencies_mu);
      latencies_ms.insert(latencies_ms.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : clients) t.join();
  load.elapsed_s = static_cast<double>(wall.elapsed_ns()) / 1e9;

  load.cache_hits = server.broker().cache().hits();
  load.cache_misses = server.broker().cache().misses();
  load.cache_hit_rate = server.broker().cache().hit_rate();
  const obs::QuantileSnapshot server_latency =
      obs::Registry::global().quantile("svc.request_ns").snapshot();
  load.server_samples = server_latency.count;
  load.server_p50_ms =
      static_cast<double>(server_latency.quantile(0.50)) / 1e6;
  load.server_p99_ms =
      static_cast<double>(server_latency.quantile(0.99)) / 1e6;
  server.request_stop();
  server_thread.join();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  load.p50_ms = percentile(latencies_ms, 0.50);
  load.p99_ms = percentile(latencies_ms, 0.99);
  load.throughput_rps =
      load.elapsed_s > 0.0
          ? static_cast<double>(latencies_ms.size()) / load.elapsed_s
          : 0.0;
  load.mismatches = mismatches.load();
  load.transport_errors = transport_errors.load();
  return load;
}

// ---------------------------------------------------------------------------
// Cached-workload helpers shared by the open-loop and high-concurrency
// phases: V renamed renderings of the same system give V distinct cache
// keys, pre-warmed serially so the measured traffic is pure memo replay.

struct CachedWorkload {
  std::vector<std::string> soc_texts;      // variant model texts
  std::vector<std::string> request_lines;  // analyze, constant id 0
  std::vector<std::string> expected_lines; // full raw response lines
  std::vector<std::string> expected_texts; // the "text" member alone
};

CachedWorkload make_cached_workload(const sysmodel::SystemModel& sys,
                                    const std::string& name, int variants) {
  CachedWorkload w;
  for (int v = 0; v < variants; ++v) {
    w.soc_texts.push_back(io::write_soc(sys, name + "_v" + std::to_string(v)));
    w.request_lines.push_back(svc::encode_request(
        svc::Op::kAnalyze, svc::JsonValue::integer(0), w.soc_texts.back()));
  }
  return w;
}

// Serially warms every variant through one connection and captures the raw
// response line (twice, byte-compared: miss and memo hit must serialize
// identically). Exits on any failure — the workload is the baseline every
// later response is compared against.
void prewarm(const std::string& socket_path, CachedWorkload& w) {
  std::string error;
  std::unique_ptr<svc::Client> client = connect_retry(socket_path, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "prewarm connect failed: %s\n", error.c_str());
    std::exit(1);
  }
  for (std::size_t v = 0; v < w.request_lines.size(); ++v) {
    std::string first;
    std::string second;
    if (!client->send_line(w.request_lines[v], &error) ||
        !client->recv_line(&first, &error) ||
        !client->send_line(w.request_lines[v], &error) ||
        !client->recv_line(&second, &error)) {
      std::fprintf(stderr, "prewarm exchange failed: %s\n", error.c_str());
      std::exit(1);
    }
    if (first != second) {
      std::fprintf(stderr, "prewarm: miss and hit responses differ\n");
      std::exit(1);
    }
    const svc::ResponseView view = svc::parse_response(first);
    const svc::JsonValue* text =
        view.success ? view.result.find("text") : nullptr;
    if (text == nullptr) {
      std::fprintf(stderr, "prewarm: bad analyze response: %s\n",
                   first.c_str());
      std::exit(1);
    }
    w.expected_lines.push_back(first);
    w.expected_texts.push_back(text->as_string());
  }
}

// ---------------------------------------------------------------------------
// Phase B: open-loop load. Requests fire on a fixed schedule; each latency
// is measured from the intended send instant, so a slow server (or a slow
// client loop) inflates the recorded tail instead of silently thinning the
// arrival rate — the distortion the closed-loop mode cannot avoid.

struct OpenLoopResult {
  int connections = 0;
  double target_rps = 0.0;
  double achieved_rps = 0.0;
  double elapsed_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int total_requests = 0;
  int received = 0;
  int mismatches = 0;
  int transport_errors = 0;
};

OpenLoopResult run_open_loop(const Config& config,
                             const sysmodel::SystemModel& sys,
                             const std::string& name) {
  obs::Registry::global().reset();
  svc::ServerOptions options;
  options.socket_path = temp_socket_path("openloop");
  options.broker.workers = 0;
  options.broker.queue_depth = 4096;
  svc::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    std::exit(1);
  }
  std::thread server_thread([&server] { server.run(); });

  CachedWorkload workload =
      make_cached_workload(sys, name, config.smoke ? 4 : 8);
  prewarm(server.socket_path(), workload);
  const std::size_t variants = workload.request_lines.size();

  OpenLoopResult result;
  result.connections = config.ol_connections;
  result.target_rps = static_cast<double>(config.ol_rps);
  const int per_conn = std::max(
      1, static_cast<int>(config.ol_rps * config.ol_secs /
                          std::max(1, config.ol_connections)));
  result.total_requests = per_conn * config.ol_connections;

  // Request k on connection c is scheduled at t0 + (k*C + c) * 1/R — the
  // global arrival process is a uniform R-per-second comb, interleaved
  // across connections.
  const auto period =
      std::chrono::nanoseconds(static_cast<std::int64_t>(
          1e9 * static_cast<double>(config.ol_connections) /
          static_cast<double>(config.ol_rps)));
  const auto offset = std::chrono::nanoseconds(static_cast<std::int64_t>(
      1e9 / static_cast<double>(config.ol_rps)));

  std::mutex merge_mu;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(result.total_requests));
  std::atomic<int> mismatches{0};
  std::atomic<int> transport_errors{0};
  std::atomic<int> received{0};

  std::vector<std::unique_ptr<svc::Client>> conns;
  conns.reserve(static_cast<std::size_t>(config.ol_connections));
  for (int c = 0; c < config.ol_connections; ++c) {
    std::unique_ptr<svc::Client> client =
        connect_retry(server.socket_path(), &error);
    if (client == nullptr) {
      std::fprintf(stderr, "open-loop connect failed: %s\n", error.c_str());
      std::exit(1);
    }
    conns.push_back(std::move(client));
  }

  const SteadyClock::time_point t0 =
      SteadyClock::now() + std::chrono::milliseconds(50);
  util::Stopwatch wall;
  std::vector<std::thread> writers;
  std::vector<std::thread> readers;
  for (int c = 0; c < config.ol_connections; ++c) {
    svc::Client* conn = conns[static_cast<std::size_t>(c)].get();
    const SteadyClock::time_point conn_t0 = t0 + offset * c;
    // Writer: fire on schedule no matter how far behind the responses are
    // (that is the open-loop property).
    writers.emplace_back([&, conn, conn_t0, c] {
      std::string send_error;
      for (int k = 0; k < per_conn; ++k) {
        std::this_thread::sleep_until(conn_t0 + period * k);
        const std::size_t v =
            static_cast<std::size_t>(c + k) % variants;
        const std::string line = svc::encode_request(
            svc::Op::kAnalyze, svc::JsonValue::integer(k),
            workload.soc_texts[v]);
        if (!conn->send_line(line, &send_error)) {
          transport_errors.fetch_add(per_conn - k);
          return;
        }
      }
    });
    // Reader: pair responses to intended send times by id.
    readers.emplace_back([&, conn, conn_t0, c] {
      std::string recv_error;
      std::vector<double> mine;
      mine.reserve(static_cast<std::size_t>(per_conn));
      for (int k = 0; k < per_conn; ++k) {
        std::string line;
        if (!conn->recv_line(&line, &recv_error)) {
          transport_errors.fetch_add(per_conn - k);
          break;
        }
        const SteadyClock::time_point now = SteadyClock::now();
        received.fetch_add(1);
        const svc::ResponseView view = svc::parse_response(line);
        if (!view.ok || !view.success) {
          mismatches.fetch_add(1);
          continue;
        }
        const std::int64_t seq = view.id.as_int();
        const std::size_t v =
            static_cast<std::size_t>(c + seq) % variants;
        const svc::JsonValue* text = view.result.find("text");
        if (text == nullptr ||
            text->as_string() != workload.expected_texts[v]) {
          mismatches.fetch_add(1);
        }
        const SteadyClock::time_point intended = conn_t0 + period * seq;
        mine.push_back(
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now - intended)
                    .count()) /
            1e6);
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      latencies_ms.insert(latencies_ms.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();
  result.elapsed_s = static_cast<double>(wall.elapsed_ns()) / 1e9;

  conns.clear();
  server.request_stop();
  server_thread.join();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = percentile(latencies_ms, 0.50);
  result.p99_ms = percentile(latencies_ms, 0.99);
  result.received = received.load();
  result.achieved_rps =
      result.elapsed_s > 0.0
          ? static_cast<double>(result.received) / result.elapsed_s
          : 0.0;
  result.mismatches = mismatches.load();
  result.transport_errors = transport_errors.load();
  return result;
}

// ---------------------------------------------------------------------------
// Phase C: high concurrency. 1k+ simultaneous connections, each pipelining
// batches of cached analyze requests with a constant id, so every response
// for a variant must be byte-identical to the pre-warmed baseline line.

struct HighConcResult {
  int connections = 0;
  std::size_t server_connections = 0;   // Server::active_connections() peak
  std::int64_t connections_gauge = 0;   // the ermes_connections gauge
  int batch = 0;
  int rounds = 0;
  long long total_requests = 0;
  double elapsed_s = 0.0;
  double throughput_rps = 0.0;
  long long mismatches = 0;
  long long transport_errors = 0;
};

HighConcResult run_high_concurrency(const Config& config,
                                    const sysmodel::SystemModel& sys,
                                    const std::string& name,
                                    std::size_t fd_limit) {
  obs::Registry::global().reset();
  svc::ServerOptions options;
  options.socket_path = temp_socket_path("hc");
  options.broker.workers = 0;
  options.broker.queue_depth = 65536;
  svc::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    std::exit(1);
  }
  std::thread server_thread([&server] { server.run(); });

  CachedWorkload workload =
      make_cached_workload(sys, name, config.smoke ? 4 : 8);
  prewarm(server.socket_path(), workload);
  const std::size_t variants = workload.request_lines.size();

  HighConcResult result;
  // Both endpoints of every connection live in this process: budget 2 fds
  // per connection plus slack for the runtime.
  const std::size_t usable =
      fd_limit > 512 ? (fd_limit - 256) / 2 : 128;
  result.connections =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(config.hc_conns), usable));
  if (result.connections < config.hc_conns) {
    std::printf("  (fd limit %zu caps high-concurrency phase at %d "
                "connections)\n",
                fd_limit, result.connections);
  }
  result.batch = config.hc_batch;
  result.rounds = config.hc_rounds;

  std::vector<std::unique_ptr<svc::Client>> conns;
  conns.reserve(static_cast<std::size_t>(result.connections));
  for (int c = 0; c < result.connections; ++c) {
    std::unique_ptr<svc::Client> client =
        connect_retry(server.socket_path(), &error);
    if (client == nullptr) {
      std::fprintf(stderr, "high-concurrency connect %d failed: %s\n", c,
                   error.c_str());
      std::exit(1);
    }
    conns.push_back(std::move(client));
  }

  // connect() on a unix socket completes from the backlog; wait for the
  // acceptor to register everything before sampling the gauge.
  for (int spin = 0; spin < 200; ++spin) {
    if (server.active_connections() >=
        static_cast<std::size_t>(result.connections)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  result.server_connections = server.active_connections();
  result.connections_gauge =
      obs::Registry::global().gauge("connections").value();

  // Pre-join each variant's batch into one buffer: one send per batch.
  std::vector<std::string> batch_blobs(variants);
  for (std::size_t v = 0; v < variants; ++v) {
    for (int b = 0; b < result.batch; ++b) {
      if (b > 0) batch_blobs[v] += '\n';
      batch_blobs[v] += workload.request_lines[v];
    }
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int n_threads =
      std::max(1, std::min<int>(static_cast<int>(hw), 16));
  std::atomic<long long> mismatches{0};
  std::atomic<long long> transport_errors{0};

  util::Stopwatch wall;
  std::vector<std::thread> drivers;
  for (int t = 0; t < n_threads; ++t) {
    drivers.emplace_back([&, t] {
      std::string io_error;
      for (int round = 0; round < result.rounds; ++round) {
        // Write batches to every owned connection first, then collect: all
        // of this thread's connections have pipelined bytes in flight at
        // once, and across threads the whole fleet does.
        for (int c = t; c < result.connections; c += n_threads) {
          const std::size_t v =
              static_cast<std::size_t>(c + round) % variants;
          if (!conns[static_cast<std::size_t>(c)]->send_line(
                  batch_blobs[v], &io_error)) {
            transport_errors.fetch_add(result.batch);
          }
        }
        for (int c = t; c < result.connections; c += n_threads) {
          const std::size_t v =
              static_cast<std::size_t>(c + round) % variants;
          for (int b = 0; b < result.batch; ++b) {
            std::string line;
            if (!conns[static_cast<std::size_t>(c)]->recv_line(&line,
                                                               &io_error)) {
              transport_errors.fetch_add(result.batch - b);
              break;
            }
            if (line != workload.expected_lines[v]) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  result.elapsed_s = static_cast<double>(wall.elapsed_ns()) / 1e9;

  result.total_requests = static_cast<long long>(result.connections) *
                          result.batch * result.rounds;
  result.throughput_rps =
      result.elapsed_s > 0.0
          ? static_cast<double>(result.total_requests) / result.elapsed_s
          : 0.0;
  result.mismatches = mismatches.load();
  result.transport_errors = transport_errors.load();

  conns.clear();
  server.request_stop();
  server_thread.join();
  return result;
}

// ---------------------------------------------------------------------------
// Phase D: overload probe against an undersized broker.

struct OverloadResult {
  int burst = 0;
  int overloaded = 0;
  int served = 0;
  double burst_submit_ms = 0.0;  // proves rejection didn't block
};

OverloadResult run_overload(const std::string& soc) {
  svc::BrokerOptions options;
  options.workers = 1;
  options.queue_depth = 2;
  options.test_iter_delay_ms = 20;
  svc::Broker broker(options);

  OverloadResult result;
  result.burst = 24;
  std::atomic<int> overloaded{0};
  std::atomic<int> served{0};
  util::Stopwatch sw;
  const std::string request = svc::encode_request(
      svc::Op::kExplore, svc::JsonValue::null(), soc, /*tct=*/1);
  for (int i = 0; i < result.burst; ++i) {
    broker.handle_line(request, [&](std::string response) {
      const svc::ResponseView view = svc::parse_response(response);
      if (!view.success && view.error_code == "overloaded") {
        overloaded.fetch_add(1);
      } else {
        served.fetch_add(1);
      }
    });
  }
  // All burst submissions returned; rejections were immediate, not queued
  // behind the deliberately slow worker.
  result.burst_submit_ms = static_cast<double>(sw.elapsed_ns()) / 1e6;
  broker.begin_drain();
  broker.drain();
  result.overloaded = overloaded.load();
  result.served = served.load();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool conns_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      config.clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      config.requests_per_client = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      config.ol_connections = std::atoi(argv[++i]);
      conns_set = true;
    } else if (std::strcmp(argv[i], "--rps") == 0 && i + 1 < argc) {
      config.ol_rps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--hc-conns") == 0 && i + 1 < argc) {
      config.hc_conns = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      config.out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--smoke] [--clients N] [--requests N] "
                   "[--connections N] [--rps N] [--hc-conns N] [--out path]\n");
      return 2;
    }
  }
  if (config.smoke) {
    config.clients = 4;
    config.requests_per_client = 16;
    if (!conns_set) config.ol_connections = 8;
    config.ol_rps = std::min(config.ol_rps, 400);
    config.ol_secs = 0.5;
    config.hc_conns = std::min(config.hc_conns, 128);
    config.hc_batch = 8;
    config.hc_rounds = 2;
  }
  if (config.clients < 4) config.clients = 4;  // the concurrency claim
  if (config.ol_connections < 1) config.ol_connections = 1;
  if (config.ol_rps < 1) config.ol_rps = 1;

  const std::size_t fd_limit = raise_fd_limit();

  // Workload: the MPEG-2 encoder (the paper's case study) in full mode, the
  // DAC'14 motivating example in smoke mode — both over 4 repeat targets
  // around the post-ordering cycle time.
  sysmodel::SystemModel sys =
      config.smoke ? sysmodel::make_dac14_motivating_example()
                   : mpeg2::make_characterized_mpeg2_encoder();
  const std::string name = config.smoke ? "dac14_motivating" : "mpeg2";
  const std::string soc = io::write_soc(sys, name);
  const double base_ct = analysis::analyze_system(sys).cycle_time;
  std::vector<std::int64_t> targets;
  for (int i = 0; i < 4; ++i) {
    targets.push_back(
        static_cast<std::int64_t>(base_ct * (1.0 + 0.1 * i)) + 1);
  }

  std::printf("bench_serve: %d clients x %d requests, %zu repeat targets "
              "(%s)\n",
              config.clients, config.requests_per_client, targets.size(),
              name.c_str());

  const LoadResult load = run_load(config, sys, soc, targets);
  std::printf("  closed loop: %.2f s, %.1f req/s, p50 %.2f ms, p99 %.2f ms\n",
              load.elapsed_s, load.throughput_rps, load.p50_ms, load.p99_ms);
  std::printf("  server histogram: %lld samples, p50 %.2f ms, p99 %.2f ms\n",
              static_cast<long long>(load.server_samples), load.server_p50_ms,
              load.server_p99_ms);
  std::printf("  cache: %lld hits / %lld misses (%.1f%% hit rate)\n",
              static_cast<long long>(load.cache_hits),
              static_cast<long long>(load.cache_misses),
              load.cache_hit_rate * 100.0);
  std::printf("  correctness: %d mismatches, %d transport errors\n",
              load.mismatches, load.transport_errors);

  const OpenLoopResult ol = run_open_loop(config, sys, name);
  std::printf("  open loop: %d conns @ %.0f rps target -> %.1f achieved, "
              "p50 %.2f ms, p99 %.2f ms (%d/%d answered)\n",
              ol.connections, ol.target_rps, ol.achieved_rps, ol.p50_ms,
              ol.p99_ms, ol.received, ol.total_requests);

  // The high-concurrency phase always drives the small model: it measures
  // connection scale and the cached replay path, and a large model text
  // turns it into a request-parsing benchmark instead.
  sysmodel::SystemModel hc_sys = sysmodel::make_dac14_motivating_example();
  const HighConcResult hc =
      run_high_concurrency(config, hc_sys, "dac14_motivating", fd_limit);
  std::printf("  high concurrency: %zu conns live (gauge %lld), %lld req in "
              "%.2f s = %.0f rps\n",
              hc.server_connections,
              static_cast<long long>(hc.connections_gauge),
              hc.total_requests, hc.elapsed_s, hc.throughput_rps);

  const OverloadResult overload = run_overload(soc);
  std::printf("  overload: %d/%d rejected `overloaded`, burst submitted in "
              "%.2f ms\n",
              overload.overloaded, overload.burst, overload.burst_submit_ms);

  const bool identical =
      load.mismatches == 0 && load.transport_errors == 0 &&
      ol.mismatches == 0 && ol.transport_errors == 0 && hc.mismatches == 0 &&
      hc.transport_errors == 0;
  // Warm path = memo hits, joined in-flight misses included: both answer
  // without a new solve.
  const double warm_rate = load.cache_hit_rate;
  const bool warm = warm_rate > 0.90;
  const bool backpressure = overload.overloaded > 0;
  // The daemon's own svc.request_ns instrument must have seen every request
  // it answered: each one enters execute().
  const bool telemetry =
      load.server_samples == static_cast<std::int64_t>(load.total_requests) -
                                 load.transport_errors &&
      load.server_p99_ms > 0.0;
  const bool concurrent =
      hc.server_connections >= static_cast<std::size_t>(hc.connections) &&
      hc.connections_gauge >= static_cast<std::int64_t>(hc.connections);
  // Throughput floor only in full mode: 10x the PR 6 threaded baseline
  // (53 rps). Smoke runs on tiny CI boxes with tiny sizes.
  const bool fast = config.smoke || hc.throughput_rps >= 530.0;

  svc::JsonValue report = svc::JsonValue::object();
  report.set("bench", svc::JsonValue::string("serve"));
  report.set("smoke", svc::JsonValue::boolean(config.smoke));
  report.set("system", svc::JsonValue::string(name));

  svc::JsonValue closed = svc::JsonValue::object();
  closed.set("clients", svc::JsonValue::integer(config.clients));
  closed.set("requests_per_client",
             svc::JsonValue::integer(config.requests_per_client));
  closed.set("targets", svc::JsonValue::integer(
                            static_cast<std::int64_t>(targets.size())));
  closed.set("elapsed_s", svc::JsonValue::number(load.elapsed_s));
  closed.set("throughput_rps", svc::JsonValue::number(load.throughput_rps));
  closed.set("p50_ms", svc::JsonValue::number(load.p50_ms));
  closed.set("p99_ms", svc::JsonValue::number(load.p99_ms));
  closed.set("server_samples", svc::JsonValue::integer(load.server_samples));
  closed.set("server_p50_ms", svc::JsonValue::number(load.server_p50_ms));
  closed.set("server_p99_ms", svc::JsonValue::number(load.server_p99_ms));
  closed.set("cache_hits", svc::JsonValue::integer(load.cache_hits));
  closed.set("cache_misses", svc::JsonValue::integer(load.cache_misses));
  closed.set("cache_hit_rate", svc::JsonValue::number(load.cache_hit_rate));
  closed.set("warm_rate", svc::JsonValue::number(warm_rate));
  report.set("closed_loop", std::move(closed));

  svc::JsonValue open = svc::JsonValue::object();
  open.set("connections", svc::JsonValue::integer(ol.connections));
  open.set("target_rps", svc::JsonValue::number(ol.target_rps));
  open.set("achieved_rps", svc::JsonValue::number(ol.achieved_rps));
  open.set("elapsed_s", svc::JsonValue::number(ol.elapsed_s));
  open.set("p50_ms", svc::JsonValue::number(ol.p50_ms));
  open.set("p99_ms", svc::JsonValue::number(ol.p99_ms));
  open.set("requests", svc::JsonValue::integer(ol.total_requests));
  open.set("received", svc::JsonValue::integer(ol.received));
  report.set("open_loop", std::move(open));

  svc::JsonValue high = svc::JsonValue::object();
  high.set("connections", svc::JsonValue::integer(hc.connections));
  high.set("server_connections",
           svc::JsonValue::integer(
               static_cast<std::int64_t>(hc.server_connections)));
  high.set("connections_gauge",
           svc::JsonValue::integer(hc.connections_gauge));
  high.set("batch", svc::JsonValue::integer(hc.batch));
  high.set("rounds", svc::JsonValue::integer(hc.rounds));
  high.set("requests", svc::JsonValue::integer(hc.total_requests));
  high.set("elapsed_s", svc::JsonValue::number(hc.elapsed_s));
  high.set("throughput_rps", svc::JsonValue::number(hc.throughput_rps));
  report.set("high_concurrency", std::move(high));

  // Top-level convenience mirrors (the headline numbers).
  report.set("throughput_rps", svc::JsonValue::number(hc.throughput_rps));
  report.set("concurrent_connections",
             svc::JsonValue::integer(
                 static_cast<std::int64_t>(hc.server_connections)));

  report.set("responses_bit_identical", svc::JsonValue::boolean(identical));
  report.set("warm_cache_above_90pct", svc::JsonValue::boolean(warm));
  report.set("overload_burst", svc::JsonValue::integer(overload.burst));
  report.set("overload_rejected",
             svc::JsonValue::integer(overload.overloaded));
  report.set("overload_served", svc::JsonValue::integer(overload.served));
  report.set("overload_rejects_instead_of_blocking",
             svc::JsonValue::boolean(backpressure));
  report.set("server_histogram_complete", svc::JsonValue::boolean(telemetry));
  report.set("hit_throughput_floor", svc::JsonValue::boolean(fast));

  std::FILE* out = std::fopen(config.out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    return 1;
  }
  const std::string json = report.to_string();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("  report written to %s\n", config.out_path.c_str());

  if (!identical || !warm || !backpressure || !telemetry || !concurrent ||
      !fast) {
    std::fprintf(stderr,
                 "bench_serve FAILED: identical=%d warm=%d backpressure=%d "
                 "telemetry=%d concurrent=%d fast=%d\n",
                 identical, warm, backpressure, telemetry, concurrent, fast);
    return 1;
  }
  std::printf("bench_serve PASSED\n");
  return 0;
}
