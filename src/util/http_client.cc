#include "src/util/http_client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/util/parse.h"

namespace mobisim {

namespace {

// Distinct PCG32 streams so the drop, delay, and duplicate schedules are
// independent (enabling delays must not move the next drop), mirroring
// fault_streams in src/fault.
constexpr std::uint64_t kDropStream = 0xa0761d6478bd642fULL;
constexpr std::uint64_t kDelayStream = 0xe7037ed1a0b428dbULL;
constexpr std::uint64_t kDupStream = 0x8ebc6af09c88c6e3ULL;
constexpr std::uint64_t kJitterStream = 0x589965cc75374cc3ULL;

// The wait before retry `attempt` (0-based), before the jitter factor:
// backoff_base_sec doubled per attempt, capped at backoff_max_sec.
double BackoffBeforeJitterSec(const HttpClientOptions& options, std::size_t attempt) {
  double backoff = options.backoff_base_sec;
  for (std::size_t i = 0; i < attempt && backoff < options.backoff_max_sec; ++i) {
    backoff *= 2.0;
  }
  return std::min(backoff, options.backoff_max_sec);
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Applies a timeout to subsequent blocking reads/writes on `fd`.
void SetSocketTimeout(int fd, double seconds) {
  seconds = std::max(seconds, 0.01);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Bounded TCP connect: non-blocking connect + poll, then back to blocking.
// Returns the connected fd, or -1 with `error` set.
int ConnectWithTimeout(const std::string& host, std::uint16_t port,
                       double timeout_sec, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &result);
  if (rc != 0 || result == nullptr) {
    SetError(error, "resolve " + host + ": " + ::gai_strerror(rc));
    return -1;
  }

  int fd = -1;
  std::string last_error = "no usable address";
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::fcntl(fd, F_SETFL, flags);
      break;
    }
    if (errno != EINPROGRESS) {
      last_error = std::string("connect: ") + std::strerror(errno);
      ::close(fd);
      fd = -1;
      continue;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int timeout_ms = std::max(1, static_cast<int>(timeout_sec * 1000.0));
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      last_error = ready == 0 ? "connect timed out"
                              : std::string("poll: ") + std::strerror(errno);
      ::close(fd);
      fd = -1;
      continue;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      last_error = std::string("connect: ") +
                   std::strerror(so_error != 0 ? so_error : errno);
      ::close(fd);
      fd = -1;
      continue;
    }
    ::fcntl(fd, F_SETFL, flags);
    break;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    SetError(error, host + ":" + service + ": " + last_error);
  }
  return fd;
}

bool SendAll(int fd, const std::string& data, std::string* error) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      SetError(error, std::string("send: ") +
                          (n == 0 ? "connection closed" : std::strerror(errno)));
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<NetFaultConfig> ParseNetFaultSpec(const std::string& text,
                                                std::string* error) {
  NetFaultConfig config;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    const std::string token = text.substr(start, comma - start);
    start = comma + 1;
    if (token.empty()) {
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      SetError(error, "net-fault token '" + token + "' is not key=value");
      return std::nullopt;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "seed") {
      const auto parsed = ParseUint64(value);
      if (!parsed) {
        SetError(error, "net-fault seed '" + value + "' is not an integer");
        return std::nullopt;
      }
      config.seed = *parsed;
      continue;
    }
    const auto parsed = ParseFiniteDouble(value);
    if (!parsed || *parsed < 0.0) {
      SetError(error, "net-fault " + key + " '" + value +
                          "' is not a non-negative number");
      return std::nullopt;
    }
    if (key == "drop" || key == "dup" || key == "delay") {
      if (*parsed > 1.0) {
        SetError(error, "net-fault " + key + " must be a rate in [0, 1]");
        return std::nullopt;
      }
    }
    if (key == "drop") {
      config.drop_rate = *parsed;
    } else if (key == "dup") {
      config.dup_rate = *parsed;
    } else if (key == "delay") {
      config.delay_rate = *parsed;
    } else if (key == "delay-ms" || key == "delay_ms") {
      config.delay_ms = *parsed;
    } else {
      SetError(error, "unknown net-fault key '" + key +
                          "' (want seed, drop, dup, delay, delay-ms)");
      return std::nullopt;
    }
  }
  return config;
}

NetFaultInjector::NetFaultInjector(const NetFaultConfig& config)
    : config_(config),
      drop_rng_(config.seed, kDropStream),
      delay_rng_(config.seed, kDelayStream),
      dup_rng_(config.seed, kDupStream) {}

bool NetFaultInjector::DrawDrop() {
  if (config_.drop_rate <= 0.0) {
    return false;
  }
  const bool drop = drop_rng_.Chance(config_.drop_rate);
  if (drop) {
    ++counts_.dropped;
  }
  return drop;
}

double NetFaultInjector::DrawDelayMs() {
  if (config_.delay_rate <= 0.0 || config_.delay_ms <= 0.0) {
    return 0.0;
  }
  if (!delay_rng_.Chance(config_.delay_rate)) {
    return 0.0;
  }
  ++counts_.delayed;
  return config_.delay_ms;
}

bool NetFaultInjector::DrawDuplicate() {
  if (config_.dup_rate <= 0.0) {
    return false;
  }
  const bool dup = dup_rng_.Chance(config_.dup_rate);
  if (dup) {
    ++counts_.duplicated;
  }
  return dup;
}

HttpClient::HttpClient(std::string host, std::uint16_t port,
                       HttpClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      jitter_rng_(options.jitter_seed, kJitterStream) {}

bool HttpClient::Fetch(const std::string& method, const std::string& path,
                       const std::string& body, HttpResponse* response,
                       std::string* error) {
  const double deadline = NowSec() + options_.io_timeout_sec;
  const int fd =
      ConnectWithTimeout(host_, port_, options_.connect_timeout_sec, error);
  if (fd < 0) {
    return false;
  }
  SetSocketTimeout(fd, options_.io_timeout_sec);

  std::ostringstream request;
  request << method << " " << path << " HTTP/1.0\r\n";
  if (method == "POST" || !body.empty()) {
    request << "Content-Length: " << body.size() << "\r\n";
  }
  request << "Connection: close\r\n\r\n" << body;
  if (!SendAll(fd, request.str(), error)) {
    ::close(fd);
    return false;
  }

  // HTTP/1.0 with Connection: close — read to EOF, bounded by the overall
  // deadline (the per-syscall timeout alone would let a drip-feeding server
  // stretch one response forever).
  std::string raw;
  char buf[4096];
  while (true) {
    if (NowSec() > deadline) {
      SetError(error, "response timed out");
      ::close(fd);
      return false;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      break;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      SetError(error, std::string("recv: ") + std::strerror(errno));
      ::close(fd);
      return false;
    }
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    SetError(error, "malformed HTTP response");
    return false;
  }
  const std::size_t space = raw.find(' ');
  int status = 0;
  if (space != std::string::npos && space < header_end) {
    status = std::atoi(raw.c_str() + space + 1);
  }
  if (status < 100 || status > 999) {
    SetError(error, "malformed HTTP status line");
    return false;
  }
  if (response != nullptr) {
    response->status = status;
    response->body = raw.substr(header_end + 4);
  }
  return true;
}

double WorstCaseRetryBackoffSec(const HttpClientOptions& options) {
  double total = 0.0;
  for (std::size_t attempt = 0; attempt < options.max_retries; ++attempt) {
    total += 2.0 * BackoffBeforeJitterSec(options, attempt);
  }
  return total;
}

bool HttpClient::FetchWithRetry(const std::string& method,
                                const std::string& path,
                                const std::string& body,
                                HttpResponse* response, std::string* error) {
  std::string attempt_error;
  for (std::size_t attempt = 0;; ++attempt) {
    bool ok = false;
    if (injector_ != nullptr) {
      injector_->CountRequest();
      if (injector_->DrawDrop()) {
        attempt_error = "injected request drop";
      } else {
        const double delay_ms = injector_->DrawDelayMs();
        if (delay_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay_ms));
        }
        ok = Fetch(method, path, body, response, &attempt_error);
        if (ok && injector_->DrawDuplicate()) {
          // Replay the identical request; the duplicate's response (and any
          // failure) is discarded.  This is what a retransmitted or doubly
          // delivered request looks like to the server, and the reason the
          // lease upload path must be idempotent.
          HttpResponse discard;
          std::string discard_error;
          Fetch(method, path, body, &discard, &discard_error);
        }
      }
    } else {
      ok = Fetch(method, path, body, response, &attempt_error);
    }
    if (ok) {
      return true;
    }
    ++transport_failures_;
    if (attempt >= options_.max_retries) {
      SetError(error, attempt_error + " (after " + std::to_string(attempt + 1) +
                          " attempts)");
      return false;
    }
    const double backoff =
        BackoffBeforeJitterSec(options_, attempt) * jitter_rng_.Uniform(1.0, 2.0);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

}  // namespace mobisim
