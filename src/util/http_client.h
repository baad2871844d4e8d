// Small blocking HTTP/1.0 client with real failure semantics.
//
// The sweepd remote-worker protocol runs over networks that partition,
// dispatchers that hang, and workers that get killed mid-request, so the
// client's contract is deadlines everywhere: connect() is bounded by a
// non-blocking connect + poll, every read and write by a socket timeout,
// and the whole response by one overall deadline.  A request either
// completes within its budget or fails with a message — it never wedges
// the caller.
//
// FetchWithRetry layers bounded exponential backoff with deterministic
// jitter on top, retrying only transport failures (connect refused, reset,
// timeout).  An HTTP-level error status is an *answer* from a live server
// and is returned to the caller, never retried — retrying a 410 lease
// rejection would just hammer a dispatcher that already said no.
//
// NetFaultInjector is the deterministic network-fault hook (in the spirit
// of src/fault): seed-driven drops, delays, and duplicated requests, strict
// no-op by default.  Duplication replays the full request after a
// successful exchange, which is exactly the stress the lease protocol's
// idempotent upload path must absorb.
#ifndef MOBISIM_SRC_UTIL_HTTP_CLIENT_H_
#define MOBISIM_SRC_UTIL_HTTP_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/util/http_server.h"
#include "src/util/rng.h"

namespace mobisim {

struct HttpClientOptions {
  double connect_timeout_sec = 5.0;  // TCP connect deadline
  double io_timeout_sec = 10.0;      // per-syscall stall AND whole-response deadline
  // Transport-failure retries beyond the first attempt.  Attempt k (0-based)
  // backs off backoff_base_sec * 2^k, capped at backoff_max_sec, each wait
  // scaled by a uniform [1, 2) jitter factor so a worker fleet retrying a
  // rebooted dispatcher does not arrive in lockstep.
  std::size_t max_retries = 4;
  double backoff_base_sec = 0.2;
  double backoff_max_sec = 5.0;
  std::uint64_t jitter_seed = 1;
};

// The longest FetchWithRetry can sleep between a request's first and last
// attempt under `options`: every backoff of the schedule at the top of its
// jitter range.  A server that must still be there for a client's last
// retry keeps listening at least this long.
double WorstCaseRetryBackoffSec(const HttpClientOptions& options);

// Seed-driven network-fault plan.  All rates default to zero: no draw is
// ever made and the injector is a strict no-op.
struct NetFaultConfig {
  std::uint64_t seed = 1;
  double drop_rate = 0.0;   // request silently not sent (looks like a timeout)
  double dup_rate = 0.0;    // request replayed after a successful exchange
  double delay_rate = 0.0;  // request delayed by delay_ms before sending
  double delay_ms = 0.0;

  bool enabled() const {
    return drop_rate > 0.0 || dup_rate > 0.0 || (delay_rate > 0.0 && delay_ms > 0.0);
  }
};

// Parses "seed=7,drop=0.2,dup=0.2,delay=0.5,delay-ms=40" (any subset, any
// order).  Rates must be in [0, 1].  nullopt with `error` on bad input.
std::optional<NetFaultConfig> ParseNetFaultSpec(const std::string& text,
                                                std::string* error);

class NetFaultInjector {
 public:
  explicit NetFaultInjector(const NetFaultConfig& config);

  // Per-request draws, in this order: drop, delay, duplicate.  Each uses its
  // own PCG32 stream so enabling one fault kind never re-schedules another.
  bool DrawDrop();
  double DrawDelayMs();
  bool DrawDuplicate();

  struct Counts {
    std::uint64_t requests = 0;
    std::uint64_t dropped = 0;
    std::uint64_t delayed = 0;
    std::uint64_t duplicated = 0;
  };
  const Counts& counts() const { return counts_; }
  void CountRequest() { ++counts_.requests; }

 private:
  NetFaultConfig config_;
  Rng drop_rng_;
  Rng delay_rng_;
  Rng dup_rng_;
  Counts counts_;
};

// Not thread-safe: the jitter stream, fault draws, and counters are plain
// state.  Give each thread (e.g. a worker's heartbeat thread) its own
// instance; they are cheap (a connection per request, HTTP/1.0 style).
class HttpClient {
 public:
  HttpClient(std::string host, std::uint16_t port,
             HttpClientOptions options = {});

  // Borrowed, may be null.  Faults apply to FetchWithRetry requests only:
  // a dropped draw consumes an attempt, a duplicate replays the request.
  void set_fault_injector(NetFaultInjector* injector) { injector_ = injector; }

  const HttpClientOptions& options() const { return options_; }
  std::uint64_t transport_failures() const { return transport_failures_; }

  // One attempt: connect (bounded), send `method path` with `body`
  // (Content-Length always present on POST), read the full response.
  // Returns false with `error` on any transport failure; true with the
  // parsed status and body otherwise — HTTP-level errors are the caller's
  // to interpret.
  bool Fetch(const std::string& method, const std::string& path,
             const std::string& body, HttpResponse* response,
             std::string* error);

  // Fetch with up to options().max_retries additional attempts on transport
  // failure, sleeping the backoff schedule between attempts.  Injected
  // drops/delays/duplicates (when a fault injector is set) happen here.
  bool FetchWithRetry(const std::string& method, const std::string& path,
                      const std::string& body, HttpResponse* response,
                      std::string* error);

 private:
  std::string host_;
  std::uint16_t port_;
  HttpClientOptions options_;
  NetFaultInjector* injector_ = nullptr;
  Rng jitter_rng_;
  std::uint64_t transport_failures_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_HTTP_CLIENT_H_
