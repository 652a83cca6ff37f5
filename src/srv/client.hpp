#pragma once
// Resilient client for the `macroflow serve` daemon (DESIGN.md section 14).
//
// Every consumer of the serving protocol (the CLI's predict/estimate/ping
// verbs, bench_serving_load, the chaos campaign) talks through ServeClient
// instead of hand-rolling socket I/O. One request() walks a small state
// machine:
//
//   closed --connect--> connected --send--> awaiting --match--> delivered
//      ^                                       |
//      +--- backoff (capped exponential x seeded jitter) on any transport
//           fault: connect refusal, severed connection, EOF/EPIPE mid-
//           exchange, a torn or mismatched response line, a read deadline
//
// Retry safety: every protocol verb is a pure read (prediction is
// deterministic per row and bundle version), so a request that died on the
// wire is simply resent -- same bytes, same `id=` stamp -- on a *fresh*
// connection. Closing the old connection before the retry is what makes
// this airtight: a late answer to the first send dies with its socket and
// can never be matched to a later request.
//
// Tracing (`trace`, on by default): each request line is stamped
// `id=<client>:<seq>` and only a response echoing that exact id is
// delivered; anything else on the stream (a duplicated answer, injected
// garbage) is counted in `stray_lines` and discarded. Untraced mode keeps
// the classic match-by-order protocol and therefore must not be combined
// with duplicate/garbage chaos.
//
// The circuit breaker is the shared common/breaker.hpp kernel: after
// `breaker_threshold` *consecutive* failed requests, requests fail fast (no
// connect storm against a dead daemon) until `breaker_cooldown_s` passes.
// Only a delivered response counts as a success, never time alone; every
// open and every re-arm after a failed probe counts in `breaker_opens`.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/breaker.hpp"
#include "common/cancel.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "srv/net_chaos.hpp"

namespace mf {

struct ClientOptions {
  /// Unix-domain socket the daemon (or its supervisor) listens on.
  std::string socket_path;
  /// Trace-id prefix: requests are stamped `id=<client_name>:<seq>`.
  std::string client_name = "client";
  /// Budget for one connect attempt sequence (refused/missing sockets are
  /// retried with backoff inside it -- covers a daemon still starting up).
  double connect_deadline_s = 5.0;
  /// End-to-end budget for one request(), retries included.
  double request_deadline_s = 10.0;
  /// Transport retries per request before giving up.
  int max_retries = 16;
  double backoff_base_ms = 2.0;
  double backoff_cap_ms = 250.0;
  /// Seeds the jitter stream (forked per client_name), so a fleet of
  /// clients backs off deterministically yet decorrelated.
  std::uint64_t jitter_seed = 0x6a17ULL;
  /// Stamp id= tokens and filter responses by them (see header comment).
  bool trace = true;
  /// Consecutive failed requests that open the breaker; 0 disables it.
  int breaker_threshold = 0;
  double breaker_cooldown_s = 1.0;
  /// Fault-injection shim for chaos campaigns; disabled by default.
  NetChaosOptions chaos;
  const CancelToken* cancel = nullptr;
};

/// nullopt = valid, otherwise the reason (the CLI's exit-2 contract).
std::optional<std::string> client_options_error(const ClientOptions& options);

struct ClientStats {
  std::uint64_t requests = 0;         ///< request() calls
  std::uint64_t ok = 0;               ///< delivered OK responses
  std::uint64_t protocol_errors = 0;  ///< delivered ERR responses
  std::uint64_t failures = 0;         ///< gave up (deadline/retries/breaker)
  std::uint64_t retries = 0;          ///< request resent after a fault
  std::uint64_t connects = 0;         ///< successful connect()s
  std::uint64_t reconnects = 0;       ///< connects after the first
  std::uint64_t transport_faults = 0; ///< severs, EOFs, torn/late responses
  std::uint64_t stray_lines = 0;      ///< discarded duplicate/garbage lines
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_fastfails = 0;
  std::uint64_t chaos_faults = 0;     ///< injected by the NetChaos shim
  Log2Histogram request_ns;           ///< end-to-end incl. retries
};

/// NOT thread-safe: one ServeClient per thread (each keeps its own
/// connection, sequence counter, and jitter stream).
class ServeClient {
 public:
  struct Result {
    bool delivered = false;  ///< a response line reached the caller
    int code = 0;            ///< 0 = OK, else the protocol ERR code
    std::string line;        ///< the response line (terminator stripped)
    std::string error;       ///< transport diagnosis when !delivered
  };

  explicit ServeClient(ClientOptions options);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Send one request line (no terminator) and deliver its response.
  Result request(const std::string& line);

  /// ESTIMATE sugar: nullopt with `*error` set on transport failure or a
  /// protocol ERR; otherwise the exact served CF (bit-identity contract).
  std::optional<double> estimate(const std::string& tenant,
                                 const std::string& model,
                                 const std::vector<double>& row,
                                 std::string* error = nullptr);
  /// PING sugar: true on `OK pong`.
  bool ping(std::string* error = nullptr);
  /// INFO sugar: the payload (`model=... width=N`) without the OK framing.
  std::optional<std::string> info(const std::string& model,
                                  std::string* error = nullptr);
  /// TRACE sugar: the payload for a previously traced request id.
  std::optional<std::string> trace(const std::string& id,
                                   std::string* error = nullptr);

  /// Drop the connection (next request reconnects). Idempotent.
  void close();

  [[nodiscard]] const ClientStats& stats() const noexcept { return stats_; }
  [[nodiscard]] int chaos_faults() const noexcept {
    return chaos_.faults_injected();
  }
  /// The id= stamp the most recent request() used ("" = untraced).
  [[nodiscard]] const std::string& last_trace_id() const noexcept {
    return last_trace_id_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] bool cancelled() const noexcept {
    return options_.cancel != nullptr && options_.cancel->cancelled();
  }
  /// Connect (with in-budget backoff) unless already connected. False once
  /// `deadline` passes or on cancellation.
  bool ensure_connected(Clock::time_point deadline, std::string* error);
  /// Capped exponential backoff with deterministic jitter, clipped to the
  /// deadline. `attempt` is 1-based.
  void backoff_sleep(int attempt, Clock::time_point deadline);
  /// Sever the transport and account one fault.
  void drop_connection();
  /// One send+receive exchange on the current connection. True with the
  /// matched response in `*line`; false = transport fault (connection
  /// already dropped, caller retries).
  bool exchange(const std::string& wire, const std::string& want_id,
                Clock::time_point deadline, std::string* line,
                std::string* error);

  ClientOptions options_;
  ClientStats stats_;
  NetChaos chaos_;
  Rng jitter_;
  int fd_ = -1;
  std::string rx_;             ///< receive buffer (cleared on reconnect)
  std::uint64_t seq_ = 0;      ///< trace-id sequence
  int conn_ordinal_ = -1;      ///< chaos connection index
  int op_ordinal_ = 0;         ///< chaos operation index (monotonic)
  Breaker breaker_;
  std::string last_trace_id_;
};

}  // namespace mf
