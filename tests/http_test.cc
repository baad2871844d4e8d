// Hostile-input and failure-semantics tests for the HTTP plumbing under
// sweepd: the server must answer malformed, torn, or oversized requests
// with clean errors (never hang, never crash — these run under ASan/TSan in
// CI), and the client must enforce its deadlines and retry schedule so a
// hung or partitioned dispatcher costs bounded time, not a wedged worker.
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/util/http_client.h"
#include "src/util/http_server.h"

namespace mobisim {
namespace {

// Raw-socket client: send exactly `payload`, optionally half-close the
// write side, read whatever comes back until EOF.  This is how torn and
// malformed requests are produced — HttpClient refuses to send them.
std::string RawExchange(std::uint16_t port, const std::string& payload,
                        bool shutdown_write = true) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(payload.size()));
  if (shutdown_write) {
    ::shutdown(fd, SHUT_WR);  // peer sees EOF: the request ends here, torn or not
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

class EchoServer {
 public:
  EchoServer() {
    std::string error;
    const bool ok = server_.Start(
        0,
        [](const HttpRequest& request) {
          HttpResponse response;
          response.body = request.method + " " + request.path + " [" +
                          request.body + "]";
          return response;
        },
        &error);
    EXPECT_TRUE(ok) << error;
  }
  std::uint16_t port() const { return server_.port(); }

 private:
  HttpServer server_;
};

TEST(HttpServerHostileTest, TornRequestLineGetsCleanError) {
  EchoServer server;
  // Bytes arrive but the header block never completes.
  const std::string response = RawExchange(server.port(), "GET /stat");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  EXPECT_NE(response.find("truncated request"), std::string::npos) << response;
}

TEST(HttpServerHostileTest, OversizedHeadersGetCleanError) {
  EchoServer server;
  std::string request = "GET / HTTP/1.0\r\n";
  request.append(kHttpMaxHeaderBytes + 4096, 'x');  // one endless header line
  const std::string response = RawExchange(server.port(), request);
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  EXPECT_NE(response.find("oversized"), std::string::npos) << response;
}

TEST(HttpServerHostileTest, UnsupportedMethodsGet405) {
  EchoServer server;
  for (const char* method : {"PUT", "DELETE", "PATCH", "HEAD"}) {
    const std::string response = RawExchange(
        server.port(), std::string(method) + " / HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("405"), std::string::npos)
        << method << ": " << response;
  }
}

TEST(HttpServerHostileTest, BodyOnGetGetsCleanError) {
  EchoServer server;
  const std::string response = RawExchange(
      server.port(), "GET /status HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  EXPECT_NE(response.find("GET does not take a body"), std::string::npos)
      << response;
}

TEST(HttpServerHostileTest, MalformedRequestLineGetsCleanError) {
  EchoServer server;
  for (const char* garbage :
       {"\r\n\r\n", "GET\r\n\r\n", "GET status HTTP/1.0\r\n\r\n"}) {
    const std::string response = RawExchange(server.port(), garbage);
    EXPECT_NE(response.find("400"), std::string::npos)
        << "request: " << garbage << " response: " << response;
  }
}

TEST(HttpServerHostileTest, NonNumericContentLengthGetsCleanError) {
  EchoServer server;
  const std::string response = RawExchange(
      server.port(), "POST /lease HTTP/1.0\r\nContent-Length: huge\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Length"), std::string::npos) << response;
}

TEST(HttpServerHostileTest, DeclaredBodyLargerThanCapGets413) {
  EchoServer server;
  const std::string response = RawExchange(
      server.port(), "POST /results HTTP/1.0\r\nContent-Length: " +
                         std::to_string(kHttpMaxBodyBytes + 1) + "\r\n\r\n");
  EXPECT_NE(response.find("413"), std::string::npos) << response;
}

TEST(HttpServerHostileTest, TruncatedBodyGetsCleanError) {
  EchoServer server;
  const std::string response = RawExchange(
      server.port(),
      "POST /results HTTP/1.0\r\nContent-Length: 100\r\n\r\nonly this much");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  EXPECT_NE(response.find("truncated body"), std::string::npos) << response;
}

TEST(HttpServerHostileTest, PostBodyIsDeliveredVerbatim) {
  EchoServer server;
  const std::string body = "{\"token\":\"abc\"}\n{\"point\":1}\n";
  const std::string response = RawExchange(
      server.port(), "POST /results HTTP/1.0\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("POST /results [" + body + "]"), std::string::npos)
      << response;
}

// --- client deadlines ----------------------------------------------------

// A port that accepts connections and then says nothing: the classic hung
// dispatcher.  HttpGet used to block on it forever; now it must fail within
// its deadline.
class SilentServer {
 public:
  SilentServer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    const int one = 1;
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd_, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~SilentServer() { ::close(fd_); }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST(HttpClientTest, HttpGetTimesOutAgainstSilentServer) {
  SilentServer silent;
  std::string body;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  const bool ok =
      HttpGet(silent.port(), "/status", &body, &error, nullptr, 0.3);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(error.empty());
  EXPECT_LT(elapsed, 5.0) << "deadline did not bound the hang";
}

TEST(HttpClientTest, RetriesExhaustAgainstClosedPort) {
  // Find a port with nothing behind it: bind an ephemeral port, note the
  // number, close the socket before anyone can connect.
  std::uint16_t dead_port = 0;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    dead_port = ntohs(addr.sin_port);
    ::close(fd);
  }

  HttpClientOptions options;
  options.connect_timeout_sec = 0.2;
  options.io_timeout_sec = 0.2;
  options.max_retries = 2;
  options.backoff_base_sec = 0.01;
  options.backoff_max_sec = 0.05;
  HttpClient client("127.0.0.1", dead_port, options);
  HttpResponse response;
  std::string error;
  EXPECT_FALSE(client.FetchWithRetry("GET", "/", "", &response, &error));
  EXPECT_EQ(client.transport_failures(), 3u);  // initial try + 2 retries
  EXPECT_NE(error.find("after 3 attempts"), std::string::npos) << error;
}

TEST(HttpClientTest, WorstCaseRetryBackoffCoversTheWholeSchedule) {
  // Defaults: 0.2 + 0.4 + 0.8 + 1.6 s of backoff, each at most doubled by
  // the jitter.
  EXPECT_DOUBLE_EQ(WorstCaseRetryBackoffSec(HttpClientOptions{}), 6.0);
  HttpClientOptions capped;
  capped.max_retries = 5;
  capped.backoff_base_sec = 0.5;
  capped.backoff_max_sec = 1.5;
  EXPECT_DOUBLE_EQ(WorstCaseRetryBackoffSec(capped), 2.0 * (0.5 + 1.0 + 1.5 + 1.5 + 1.5));
  capped.max_retries = 0;
  EXPECT_DOUBLE_EQ(WorstCaseRetryBackoffSec(capped), 0.0);
}

TEST(HttpClientTest, HttpErrorStatusIsAnAnswerNotARetry) {
  HttpServer server;
  std::string error;
  int hits = 0;
  ASSERT_TRUE(server.Start(
      0,
      [&hits](const HttpRequest&) {
        ++hits;
        return HttpError(410, "gone");
      },
      &error))
      << error;
  HttpClientOptions options;
  options.max_retries = 4;
  HttpClient client("127.0.0.1", server.port(), options);
  HttpResponse response;
  ASSERT_TRUE(client.FetchWithRetry("POST", "/done", "{}", &response, &error));
  EXPECT_EQ(response.status, 410);
  EXPECT_EQ(hits, 1) << "an HTTP-level error must not be retried";
}

TEST(HttpServerTest, BindAnyServesOnLoopbackToo) {
  HttpServer server;
  std::string error;
  const bool ok = server.Start(
      0, /*bind_any=*/true,
      [](const HttpRequest&) {
        HttpResponse response;
        response.body = "any\n";
        return response;
      },
      &error);
  ASSERT_TRUE(ok) << error;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/", &body, &error)) << error;
  EXPECT_EQ(body, "any\n");
}

// --- fault injection -----------------------------------------------------

TEST(NetFaultTest, ParseAcceptsFullSpecAndRejectsGarbage) {
  std::string error;
  const auto config =
      ParseNetFaultSpec("seed=9,drop=0.25,dup=0.5,delay=1,delay-ms=40", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->seed, 9u);
  EXPECT_DOUBLE_EQ(config->drop_rate, 0.25);
  EXPECT_DOUBLE_EQ(config->dup_rate, 0.5);
  EXPECT_DOUBLE_EQ(config->delay_rate, 1.0);
  EXPECT_DOUBLE_EQ(config->delay_ms, 40.0);
  EXPECT_TRUE(config->enabled());

  EXPECT_FALSE(ParseNetFaultSpec("drop", &error).has_value());
  EXPECT_FALSE(ParseNetFaultSpec("drop=1.5", &error).has_value());
  EXPECT_FALSE(ParseNetFaultSpec("drop=-0.1", &error).has_value());
  EXPECT_FALSE(ParseNetFaultSpec("seed=x", &error).has_value());
  EXPECT_FALSE(ParseNetFaultSpec("unknown=1", &error).has_value());

  const auto empty = ParseNetFaultSpec("", &error);
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->enabled());
}

TEST(NetFaultTest, DrawsAreDeterministicPerSeed) {
  NetFaultConfig config;
  config.seed = 42;
  config.drop_rate = 0.3;
  config.dup_rate = 0.3;
  config.delay_rate = 0.3;
  config.delay_ms = 5.0;

  const auto draw = [](NetFaultInjector& injector) {
    std::vector<int> sequence;
    for (int i = 0; i < 64; ++i) {
      sequence.push_back(injector.DrawDrop() ? 1 : 0);
      sequence.push_back(injector.DrawDelayMs() > 0.0 ? 1 : 0);
      sequence.push_back(injector.DrawDuplicate() ? 1 : 0);
    }
    return sequence;
  };
  NetFaultInjector a(config);
  NetFaultInjector b(config);
  EXPECT_EQ(draw(a), draw(b));

  config.seed = 43;
  NetFaultInjector c(config);
  EXPECT_NE(draw(a), draw(c));
}

TEST(NetFaultTest, StreamsAreIndependent) {
  // Disabling delays must not move the drop schedule: each fault kind draws
  // from its own PCG32 stream.
  NetFaultConfig with_delay;
  with_delay.seed = 7;
  with_delay.drop_rate = 0.3;
  with_delay.delay_rate = 0.5;
  with_delay.delay_ms = 1.0;
  NetFaultConfig without_delay = with_delay;
  without_delay.delay_rate = 0.0;

  NetFaultInjector a(with_delay);
  NetFaultInjector b(without_delay);
  std::vector<int> drops_a;
  std::vector<int> drops_b;
  for (int i = 0; i < 64; ++i) {
    a.DrawDelayMs();
    b.DrawDelayMs();
    drops_a.push_back(a.DrawDrop() ? 1 : 0);
    drops_b.push_back(b.DrawDrop() ? 1 : 0);
  }
  EXPECT_EQ(drops_a, drops_b);
}

TEST(NetFaultTest, InjectedDropConsumesARetryAttempt) {
  EchoServer server;
  NetFaultConfig config;
  config.seed = 1;
  config.drop_rate = 1.0;  // every request dropped: all attempts burn out
  NetFaultInjector injector(config);

  HttpClientOptions options;
  options.max_retries = 2;
  options.backoff_base_sec = 0.01;
  options.backoff_max_sec = 0.02;
  HttpClient client("127.0.0.1", server.port(), options);
  client.set_fault_injector(&injector);
  HttpResponse response;
  std::string error;
  EXPECT_FALSE(client.FetchWithRetry("POST", "/x", "", &response, &error));
  EXPECT_NE(error.find("injected request drop"), std::string::npos) << error;
  EXPECT_EQ(injector.counts().dropped, 3u);
}

TEST(NetFaultTest, DuplicateReplaysTheRequestAgainstTheServer) {
  HttpServer server;
  std::string error;
  std::atomic<int> hits{0};
  ASSERT_TRUE(server.Start(
      0,
      [&hits](const HttpRequest&) {
        ++hits;
        HttpResponse response;
        response.body = "ok\n";
        return response;
      },
      &error))
      << error;

  NetFaultConfig config;
  config.seed = 1;
  config.dup_rate = 1.0;  // every successful exchange is replayed once
  NetFaultInjector injector(config);
  HttpClient client("127.0.0.1", server.port());
  client.set_fault_injector(&injector);
  HttpResponse response;
  ASSERT_TRUE(client.FetchWithRetry("POST", "/results", "{}", &response, &error));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(hits.load(), 2) << "the duplicate must actually hit the server";
  EXPECT_EQ(injector.counts().duplicated, 1u);
}

}  // namespace
}  // namespace mobisim
