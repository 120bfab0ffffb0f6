// src/net reactor + event server, and the broker behaviors that only show
// under concurrency: identical concurrent requests sharing one solve through
// the eval cache's in-flight dedup, teardown with a backlog, and the
// background cache saver. This suite runs under TSan in CI alongside
// test_svc — the event server's cross-thread send path and the cache's
// in-flight waiters are exactly the kind of code TSan is for.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_server.h"
#include "net/reactor.h"
#include "svc/broker.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "sysmodel/builder.h"
#include "io/soc_format.h"

namespace ermes {
namespace {

std::string temp_socket(const char* tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = tmp != nullptr ? tmp : "/tmp";
  return dir + "/ermes_tnet_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

std::string demo_soc() {
  return io::write_soc(sysmodel::make_dac14_motivating_example(), "demo");
}

// ---------------------------------------------------------------------------
// Reactor: both backends behave identically at this API surface.

class ReactorBackend : public ::testing::TestWithParam<bool> {};

TEST_P(ReactorBackend, ReportsPipeReadable) {
  net::Reactor reactor(/*force_poll=*/GetParam());
  ASSERT_TRUE(reactor.valid());
  EXPECT_EQ(reactor.using_epoll(), !GetParam() && reactor.using_epoll());

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  reactor.add(pipe_fds[0], /*want_read=*/true, /*want_write=*/false);

  std::vector<net::Reactor::Event> events;
  EXPECT_EQ(reactor.wait(&events, 0), 0);  // nothing readable yet

  ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
  ASSERT_EQ(reactor.wait(&events, 1000), 1);
  EXPECT_EQ(events[0].fd, pipe_fds[0]);
  EXPECT_TRUE(events[0].readable);
  EXPECT_FALSE(events[0].writable);

  reactor.remove(pipe_fds[0]);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST_P(ReactorBackend, ModifyReplacesInterestSet) {
  net::Reactor reactor(GetParam());
  ASSERT_TRUE(reactor.valid());
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);

  // An idle socket with write interest is immediately writable.
  reactor.add(pair[0], /*want_read=*/false, /*want_write=*/true);
  std::vector<net::Reactor::Event> events;
  ASSERT_EQ(reactor.wait(&events, 1000), 1);
  EXPECT_TRUE(events[0].writable);

  // Read-only interest on the same idle socket: no events at all.
  reactor.modify(pair[0], /*want_read=*/true, /*want_write=*/false);
  EXPECT_EQ(reactor.wait(&events, 0), 0);

  reactor.remove(pair[0]);
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST_P(ReactorBackend, WakeupUnblocksWaitFromAnotherThread) {
  net::Reactor reactor(GetParam());
  ASSERT_TRUE(reactor.valid());
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    std::vector<net::Reactor::Event> events;
    // Indefinite wait; only the cross-thread wakeup can end it.
    reactor.wait(&events, -1);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  reactor.wakeup();
  waiter.join();
  EXPECT_TRUE(returned.load());
}

INSTANTIATE_TEST_SUITE_P(Backends, ReactorBackend,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "poll" : "epoll_or_default";
                         });

TEST(Reactor, ForcePollSelectsPollBackend) {
  net::Reactor reactor(/*force_poll=*/true);
  ASSERT_TRUE(reactor.valid());
  EXPECT_FALSE(reactor.using_epoll());
}

// ---------------------------------------------------------------------------
// EventServer: line framing, cross-thread sends, partial writes, overflow,
// and the connection cap.

struct EchoServer {
  std::unique_ptr<net::EventServer> server;

  explicit EchoServer(net::EventServerOptions options,
                      std::string response_suffix = "") {
    net::EventServer::Callbacks callbacks;
    callbacks.on_line = [suffix = std::move(response_suffix)](
                            const std::shared_ptr<net::Conn>& conn,
                            std::string&& line) {
      // Respond from a detached thread: exercises the any-thread send_line
      // contract the broker's pool workers rely on.
      std::thread([conn, line = std::move(line), suffix] {
        conn->send_line(line + suffix);
      }).detach();
    };
    callbacks.on_overflow = [](const std::shared_ptr<net::Conn>& conn) {
      conn->send_line("overflow");
    };
    server = std::make_unique<net::EventServer>(std::move(options),
                                                std::move(callbacks));
  }

  ~EchoServer() {
    if (server != nullptr) {
      server->request_stop();
      server->shutdown();
    }
  }
};

class EventServerBackend : public ::testing::TestWithParam<bool> {};

TEST_P(EventServerBackend, EchoesLinesAcrossShardsAndClients) {
  net::EventServerOptions options;
  options.socket_path = temp_socket("echo");
  options.shards = 2;
  options.force_poll = GetParam();
  EchoServer echo(std::move(options));
  std::string error;
  ASSERT_TRUE(echo.server->start(&error)) << error;
  EXPECT_EQ(echo.server->shard_count(), 2u);

  // More clients than shards: round-robin pins some to each shard.
  constexpr int kClients = 5;
  constexpr int kLines = 20;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string client_error;
      std::unique_ptr<svc::Client> client = svc::Client::connect_unix(
          echo.server->socket_path(), &client_error);
      if (client == nullptr) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kLines; ++i) {
        const std::string line =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        std::string reply;
        if (!client->send_line(line, &client_error) ||
            !client->recv_line(&reply, &client_error) || reply != line) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(echo.server->accepted_total(), kClients);
}

TEST_P(EventServerBackend, PartialWritesDeliverLargeResponseIntact) {
  // An 8 MiB response cannot fit a socket send buffer: the first write is
  // partial, the remainder drains through the EPOLLOUT path.
  const std::size_t kBig = 8u << 20;
  net::EventServerOptions options;
  options.socket_path = temp_socket("big");
  options.shards = 1;
  options.force_poll = GetParam();
  EchoServer echo(std::move(options), std::string(kBig, 'z'));
  std::string error;
  ASSERT_TRUE(echo.server->start(&error)) << error;

  std::unique_ptr<svc::Client> client =
      svc::Client::connect_unix(echo.server->socket_path(), &error);
  ASSERT_NE(client, nullptr) << error;
  ASSERT_TRUE(client->send_line("head", &error)) << error;
  std::string reply;
  ASSERT_TRUE(client->recv_line(&reply, &error)) << error;
  ASSERT_EQ(reply.size(), 4 + kBig);
  EXPECT_EQ(reply.compare(0, 4, "head"), 0);
  EXPECT_EQ(reply.find_first_not_of('z', 4), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventServerBackend,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "poll" : "epoll_or_default";
                         });

TEST(EventServer, OverflowAnswersOnceThenCloses) {
  net::EventServerOptions options;
  options.socket_path = temp_socket("overflow");
  options.shards = 1;
  options.max_line_bytes = 1024;
  EchoServer echo(std::move(options));
  std::string error;
  ASSERT_TRUE(echo.server->start(&error)) << error;

  // Raw socket: svc::Client::send_line appends '\n', which would turn the
  // blob into a complete (deliverable) line. Overflow fires only for
  // *unterminated* input past the bound.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                echo.server->socket_path().c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string blob(4096, 'a');  // no newline: unterminated past bound
  ASSERT_EQ(::send(fd, blob.data(), blob.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(blob.size()));

  std::string reply;
  char buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    reply.append(buf, static_cast<std::size_t>(n));
    if (reply.find('\n') != std::string::npos) break;
  }
  EXPECT_EQ(reply, "overflow\n");
  // Then EOF: the server closed after flushing the one response.
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
}

TEST(EventServer, MaxConnsClosesTheOverflowConnection) {
  net::EventServerOptions options;
  options.socket_path = temp_socket("cap");
  options.shards = 1;
  options.max_conns = 1;
  EchoServer echo(std::move(options));
  std::string error;
  ASSERT_TRUE(echo.server->start(&error)) << error;

  std::unique_ptr<svc::Client> first =
      svc::Client::connect_unix(echo.server->socket_path(), &error);
  ASSERT_NE(first, nullptr) << error;
  std::string reply;
  ASSERT_TRUE(first->send_line("ping", &error));
  ASSERT_TRUE(first->recv_line(&reply, &error));
  EXPECT_EQ(reply, "ping");

  // The second connection is accepted, counted, and closed immediately.
  std::unique_ptr<svc::Client> second =
      svc::Client::connect_unix(echo.server->socket_path(), &error);
  ASSERT_NE(second, nullptr) << error;
  EXPECT_FALSE(second->recv_line(&reply, &error));
  EXPECT_EQ(echo.server->rejected_total(), 1);

  // The first connection still works, and the freed slot is reusable.
  ASSERT_TRUE(first->send_line("again", &error));
  ASSERT_TRUE(first->recv_line(&reply, &error));
  EXPECT_EQ(reply, "again");
}

TEST(EventServer, StopFdRequestsStop) {
  int stop_pipe[2];
  ASSERT_EQ(::pipe(stop_pipe), 0);
  net::EventServerOptions options;
  options.socket_path = temp_socket("stopfd");
  options.shards = 1;
  options.stop_fd = stop_pipe[0];
  EchoServer echo(std::move(options));
  std::string error;
  ASSERT_TRUE(echo.server->start(&error)) << error;

  std::thread waiter([&] { echo.server->wait_stop(); });
  ASSERT_EQ(::write(stop_pipe[1], "s", 1), 1);  // what a signal handler does
  waiter.join();
  echo.server->shutdown();
  ::close(stop_pipe[0]);
  ::close(stop_pipe[1]);
}

// ---------------------------------------------------------------------------
// Broker under concurrent load. Every admitted request executes on its own;
// identical concurrent questions share one solve inside analysis::EvalCache,
// whose in-flight misses are joined by the later requests.

// Collects N async responses and blocks until all arrived.
struct Collector {
  explicit Collector(int expect) : responses(expect), expect_(expect) {}

  svc::Broker::DoneFn slot(int index) {
    return [this, index](std::string response) {
      std::lock_guard<std::mutex> lock(mu_);
      responses[static_cast<std::size_t>(index)] = std::move(response);
      if (++arrived_ == expect_) cv_.notify_all();
    };
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return arrived_ == expect_; });
  }

  std::vector<std::string> responses;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int expect_ = 0;
  int arrived_ = 0;
};

TEST(Broker, IdenticalConcurrentRequestsProduceOneSolve) {
  const std::string line = svc::encode_request(
      svc::Op::kAnalyze, svc::JsonValue::null(), demo_soc());

  svc::Broker broker({.workers = 4});
  constexpr int kRequests = 8;
  Collector collector(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    broker.handle_line(line, collector.slot(i));
  }
  collector.wait();

  // The first probe misses and solves; every other request either joined
  // that in-flight miss or found the stored report. Both count as hits.
  EXPECT_EQ(broker.cache().misses(), 1);
  EXPECT_EQ(broker.cache().hits(), kRequests - 1);
  for (const std::string& response : collector.responses) {
    const svc::ResponseView view = svc::parse_response(response);
    ASSERT_TRUE(view.ok) << view.parse_error;
    EXPECT_TRUE(view.success) << response;
  }
  // Identical ids (null) and one report -> byte-identical responses.
  for (int i = 1; i < kRequests; ++i) {
    EXPECT_EQ(collector.responses[static_cast<std::size_t>(i)],
              collector.responses[0]);
  }
}

TEST(Broker, ConcurrentResponsesByteIdenticalToSerial) {
  // Request mix: four analyze variants (distinct cache keys), three sweeps
  // with distinct ranges, and one duplicated sweep.
  const sysmodel::SystemModel sys = sysmodel::make_dac14_motivating_example();
  std::vector<std::string> lines;
  for (int v = 0; v < 4; ++v) {
    lines.push_back(svc::encode_request(
        svc::Op::kAnalyze, svc::JsonValue::integer(v),
        io::write_soc(sys, "variant_" + std::to_string(v))));
  }
  const std::string soc = io::write_soc(sys, "demo");
  for (int s = 0; s < 3; ++s) {
    lines.push_back(svc::encode_request(
        svc::Op::kSweep, svc::JsonValue::integer(100 + s), soc, 0,
        /*lo=*/40, /*hi=*/48 + 8 * s, /*step=*/4));
  }
  lines.push_back(lines.back());  // the duplicated sweep

  // Serial baseline: one worker, one request at a time.
  std::vector<std::string> serial;
  {
    svc::Broker broker({.workers = 1});
    for (const std::string& line : lines) {
      serial.push_back(broker.handle_line_sync(line));
    }
  }

  // Concurrent run: the whole mix submitted at once onto four workers, so
  // the sweeps race each other on shared cache keys.
  svc::Broker broker({.workers = 4});
  Collector collector(static_cast<int>(lines.size()));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    broker.handle_line(lines[i], collector.slot(static_cast<int>(i)));
  }
  collector.wait();

  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(collector.responses[i], serial[i])
        << "response " << i << " diverged from the serial run";
  }
}

TEST(Broker, TeardownWithQueuedRequestsIsClean) {
  // Shutdown with a backlog: the broker is destroyed while most requests
  // are still queued behind one worker slowed by test_iter_delay_ms (a sleep
  // in every sweep-target and DSE-iteration poll). ~Broker must drain every
  // admitted request (each gets its response) before the pool and the
  // members its tasks touch are torn down. Exercised under TSan in CI.
  const std::string soc = demo_soc();
  for (int round = 0; round < 8; ++round) {
    constexpr int kRequests = 12;
    Collector collector(kRequests);
    {
      svc::Broker broker({.workers = 1, .test_iter_delay_ms = 2});
      for (int v = 0; v < kRequests; ++v) {
        broker.handle_line(
            svc::encode_request(svc::Op::kSweep, svc::JsonValue::integer(v),
                                soc, 0, /*lo=*/40, /*hi=*/48, /*step=*/4),
            collector.slot(v));
      }
    }
    collector.wait();
    for (const std::string& response : collector.responses) {
      const svc::ResponseView view = svc::parse_response(response);
      ASSERT_TRUE(view.ok) << view.parse_error;
      EXPECT_TRUE(view.success) << response;
    }
  }
}

// ---------------------------------------------------------------------------
// Background cache saver (serve --cache-save-secs).

TEST(CacheSaver, SavesOnIntervalAndSkipsWhenIdle) {
  const std::string snap =
      std::string("/tmp/ermes_tnet_saver_") + std::to_string(::getpid()) +
      ".snap";
  std::remove(snap.c_str());
  {
    svc::BrokerOptions options;
    options.workers = 1;
    options.cache_file = snap;
    options.cache_save_secs = 1;
    svc::Broker broker(options);

    // An analyze inserts into the cache; the next tick must persist it.
    const svc::ResponseView view = svc::parse_response(
        broker.handle_line_sync(svc::encode_request(
            svc::Op::kAnalyze, svc::JsonValue::null(), demo_soc())));
    ASSERT_TRUE(view.success);
    std::int64_t saves = 0;
    for (int spin = 0; spin < 100 && saves == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      saves = broker.stats().cache_saves;
    }
    EXPECT_GE(saves, 1);
    std::FILE* f = std::fopen(snap.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "periodic save did not write " << snap;
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 0);
    std::fclose(f);

    // Idle interval: no insertions since the last save, so no write.
    std::this_thread::sleep_for(std::chrono::milliseconds(1300));
    EXPECT_EQ(broker.stats().cache_saves, saves);
  }
  std::remove(snap.c_str());
}

}  // namespace
}  // namespace ermes
