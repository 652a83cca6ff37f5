#include "srv/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/check.hpp"
#include "common/fault_draw.hpp"
#include "common/io_util.hpp"
#include "common/parse_num.hpp"
#include "common/supervise.hpp"
#include "srv/protocol.hpp"

namespace mf {
namespace {

std::string errno_text() { return std::strerror(errno); }

std::chrono::steady_clock::duration seconds_duration(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

std::optional<std::string> client_options_error(const ClientOptions& o) {
  if (o.socket_path.empty()) return "client socket path must not be empty";
  if (o.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return "socket path too long for sockaddr_un";
  }
  if (o.client_name.empty()) return "client name must not be empty";
  if (o.client_name.size() + 24 > kMaxTraceBytes) {
    return "client name too long for a trace id";
  }
  if (!(o.connect_deadline_s > 0.0)) return "connect deadline must be > 0";
  if (!(o.request_deadline_s > 0.0)) return "request deadline must be > 0";
  if (o.max_retries < 0) return "max retries must be >= 0";
  if (!(o.backoff_base_ms > 0.0)) return "backoff base must be > 0 ms";
  if (o.backoff_cap_ms < o.backoff_base_ms) {
    return "backoff cap must be >= backoff base";
  }
  if (o.breaker_threshold < 0) return "breaker threshold must be >= 0";
  if (o.breaker_threshold > 0 && !(o.breaker_cooldown_s > 0.0)) {
    return "breaker cooldown must be > 0 when the breaker is enabled";
  }
  const NetChaosOptions& c = o.chaos;
  if (!fault_probabilities_valid({c.p_sever, c.p_stall, c.p_truncate,
                                  c.p_duplicate, c.p_garbage})) {
    return "chaos probabilities must be >= 0 and sum to <= 1";
  }
  if (c.stall_ms < 0.0) return "chaos stall must be >= 0 ms";
  if (c.enabled && !o.trace && (c.p_duplicate > 0.0 || c.p_garbage > 0.0)) {
    // Without id= filtering a duplicated or injected line would be
    // delivered as some later request's answer -- exactly the corruption
    // the tracing mode exists to rule out.
    return "duplicate/garbage chaos requires tracing";
  }
  return std::nullopt;
}

ServeClient::ServeClient(ClientOptions options)
    : options_(std::move(options)),
      chaos_(options_.chaos),
      jitter_(task_seed(options_.jitter_seed, options_.client_name)),
      breaker_(options_.breaker_threshold, options_.breaker_cooldown_s) {
  const std::optional<std::string> error = client_options_error(options_);
  MF_CHECK_MSG(!error, error ? *error : "");
  ignore_sigpipe();
}

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
}

void ServeClient::drop_connection() {
  close();
  ++stats_.transport_faults;
}

void ServeClient::backoff_sleep(int attempt, Clock::time_point deadline) {
  double ms = capped_backoff_ms(options_.backoff_base_ms,
                                options_.backoff_cap_ms, attempt);
  // Deterministic jitter in [0.5, 1.0)x: decorrelates a fleet of clients
  // hammering a respawning daemon while staying replayable per seed.
  ms *= 0.5 + 0.5 * jitter_.uniform();
  auto wake = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(ms));
  if (wake > deadline) wake = deadline;
  std::this_thread::sleep_until(wake);
}

bool ServeClient::ensure_connected(Clock::time_point deadline,
                                   std::string* error) {
  if (fd_ >= 0) return true;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  std::string last = "connect(" + options_.socket_path + "): never attempted";
  for (int attempt = 1;; ++attempt) {
    if (cancelled()) {
      *error = "cancelled";
      return false;
    }
    if (Clock::now() >= deadline) {
      *error = "connect deadline exceeded; last: " + last;
      return false;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      last = "socket(): " + errno_text();
    } else {
      int rc;
      do {
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
      } while (rc != 0 && errno == EINTR);
      if (rc == 0) {
        fd_ = fd;
        rx_.clear();
        ++stats_.connects;
        if (stats_.connects > 1) ++stats_.reconnects;
        ++conn_ordinal_;
        return true;
      }
      last = "connect(" + options_.socket_path + "): " + errno_text();
      ::close(fd);
    }
    backoff_sleep(attempt, deadline);
  }
}

bool ServeClient::exchange(const std::string& wire, const std::string& want_id,
                           Clock::time_point deadline, std::string* line,
                           std::string* error) {
  const auto chaos_stall = [&] {
    auto wake = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        chaos_.stall_ms()));
    if (wake > deadline) wake = deadline;
    std::this_thread::sleep_until(wake);
  };
  // Scan the receive buffer for our response. Returns true once matched;
  // everything else complete on the stream is a stray (duplicate echo,
  // injected garbage) and is discarded -- in untraced mode the first
  // complete line wins, which is the classic match-by-order protocol.
  const auto try_deliver = [&]() -> bool {
    while (std::optional<std::string> popped = pop_line(rx_)) {
      if (want_id.empty()) {
        *line = std::move(*popped);
        return true;
      }
      if (std::string_view(response_trace(*popped)) != want_id) {
        ++stats_.stray_lines;
        continue;
      }
      *line = std::move(*popped);
      return true;
    }
    return false;
  };

  // Send, through the chaos shim's tx boundary.
  const int tx_op = ++op_ordinal_;
  const NetChaos::Action tx_act = chaos_.next(conn_ordinal_, tx_op, true);
  switch (tx_act) {
    case NetChaos::Action::Sever:
      drop_connection();
      *error = "chaos: severed before send";
      return false;
    case NetChaos::Action::Truncate: {
      // The server drains the torn, unterminated line and answers nothing.
      const std::size_t cut = std::max<std::size_t>(1, wire.size() / 2);
      (void)write_all(fd_, std::string_view(wire).substr(0, cut));
      drop_connection();
      *error = "chaos: truncated request";
      return false;
    }
    case NetChaos::Action::Stall:
      chaos_stall();
      break;
    default:
      break;
  }
  std::string payload = wire;
  if (tx_act == NetChaos::Action::Duplicate) {
    payload = wire + wire;
  } else if (tx_act == NetChaos::Action::Garbage) {
    payload = chaos_.garbage_line(conn_ordinal_, tx_op) + wire;
  }
  if (!write_all(fd_, payload)) {
    drop_connection();
    *error = "write: " + errno_text();
    return false;
  }

  // Receive until our line, the deadline, or a fault.
  for (;;) {
    if (try_deliver()) return true;
    if (cancelled()) {
      drop_connection();
      *error = "cancelled";
      return false;
    }
    const auto now = Clock::now();
    if (now >= deadline) {
      drop_connection();
      *error = "request deadline exceeded";
      return false;
    }
    // Short poll slices keep cancellation responsive regardless of budget.
    const double remaining =
        std::chrono::duration<double>(deadline - now).count();
    if (!wait_readable(fd_,
                       timeout_ms_from_seconds(std::min(remaining, 0.05)))) {
      continue;
    }
    const int rx_op = ++op_ordinal_;
    const NetChaos::Action act = chaos_.next(conn_ordinal_, rx_op, false);
    if (act == NetChaos::Action::Sever) {
      drop_connection();
      *error = "chaos: severed before read";
      return false;
    }
    if (act == NetChaos::Action::Stall) chaos_stall();
    std::string chunk;
    const std::optional<std::size_t> n = read_some(fd_, chunk);
    if (!n) {
      drop_connection();
      *error = "read: " + errno_text();
      return false;
    }
    if (*n == 0) {
      drop_connection();
      *error = "connection closed by server";
      return false;
    }
    switch (act) {
      case NetChaos::Action::Truncate: {
        // Deliver a strict prefix, then sever. Anything already complete
        // in the prefix is still honestly the server's bytes, so one last
        // delivery scan runs before the fault is reported.
        chunk.resize(chunk.size() / 2);
        rx_ += chunk;
        const bool matched = try_deliver();
        drop_connection();
        if (matched) return true;
        *error = "chaos: truncated response";
        return false;
      }
      case NetChaos::Action::Duplicate:
        rx_ += chunk;
        rx_ += chunk;
        break;
      case NetChaos::Action::Garbage:
        rx_ += chaos_.garbage_line(conn_ordinal_, rx_op);
        rx_ += chunk;
        break;
      default:
        rx_ += chunk;
        break;
    }
  }
}

ServeClient::Result ServeClient::request(const std::string& line) {
  const auto start = Clock::now();
  ++stats_.requests;
  Result result;
  const auto finish = [&]() -> Result& {
    stats_.request_ns.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
    stats_.chaos_faults =
        static_cast<std::uint64_t>(chaos_.faults_injected());
    return result;
  };

  if (!breaker_.allow(start)) {
    ++stats_.breaker_fastfails;
    ++stats_.failures;
    result.error = "circuit breaker open";
    return finish();
  }

  const auto deadline = start + seconds_duration(options_.request_deadline_s);
  std::string want_id;
  std::string wire;
  if (options_.trace) {
    want_id = options_.client_name + ":" + std::to_string(++seq_);
    wire = "id=" + want_id + " " + line + "\n";
  } else {
    wire = line + "\n";
  }
  last_trace_id_ = want_id;

  std::string response;
  std::string error;
  bool delivered = false;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      // Idempotent retry: same bytes, same id, on a fresh connection (the
      // old one is already closed, so a late answer to the earlier send
      // can never surface here).
      ++stats_.retries;
      backoff_sleep(attempt, deadline);
    }
    if (cancelled()) {
      error = "cancelled";
      break;
    }
    if (Clock::now() >= deadline) {
      error = "request deadline exceeded";
      break;
    }
    const auto connect_deadline =
        std::min(deadline, Clock::now() + seconds_duration(
                               options_.connect_deadline_s));
    if (!ensure_connected(connect_deadline, &error)) {
      if (cancelled() || Clock::now() >= deadline) break;
      continue;
    }
    if (exchange(wire, want_id, deadline, &response, &error)) {
      delivered = true;
      break;
    }
  }

  if (delivered) {
    result.delivered = true;
    result.line = std::move(response);
    result.code = response_code(result.line);
    if (result.code == 0) {
      ++stats_.ok;
    } else {
      ++stats_.protocol_errors;
    }
    breaker_.on_success();
    return finish();
  }
  ++stats_.failures;
  result.error = error.empty() ? "retries exhausted" : error;
  if (breaker_.on_failure(Clock::now()) != Breaker::Transition::None) {
    ++stats_.breaker_opens;  // an open or a failed probe's re-arm
  }
  return finish();
}

namespace {

/// Strip the OK framing and trace echo off a delivered response line.
std::string ok_payload(const std::string& line, const std::string& trace_id) {
  std::string_view v = line;
  if (v.rfind("OK ", 0) == 0) {
    v.remove_prefix(3);
  } else if (v == "OK") {
    v = {};
  }
  if (!trace_id.empty()) {
    const std::string echo = " id=" + trace_id;
    if (v.size() >= echo.size() &&
        v.substr(v.size() - echo.size()) == echo) {
      v.remove_suffix(echo.size());
    }
  }
  return std::string(v);
}

void set_error(std::string* error, std::string text) {
  if (error != nullptr) *error = std::move(text);
}

}  // namespace

std::optional<double> ServeClient::estimate(const std::string& tenant,
                                            const std::string& model,
                                            const std::vector<double>& row,
                                            std::string* error) {
  std::string line = "ESTIMATE " + tenant + " " + model;
  for (const double v : row) {
    line += ' ';
    line += format_double(v);
  }
  const Result result = request(line);
  if (!result.delivered) {
    set_error(error, result.error);
    return std::nullopt;
  }
  if (result.code != 0) {
    set_error(error, result.line);
    return std::nullopt;
  }
  const std::optional<double> cf = parse_ok_cf(result.line);
  if (!cf) set_error(error, "unparseable OK payload: " + result.line);
  return cf;
}

bool ServeClient::ping(std::string* error) {
  const Result result = request("PING");
  if (result.delivered && result.code == 0) return true;
  set_error(error, result.delivered ? result.line : result.error);
  return false;
}

std::optional<std::string> ServeClient::info(const std::string& model,
                                             std::string* error) {
  const Result result = request("INFO " + model);
  if (!result.delivered || result.code != 0) {
    set_error(error, result.delivered ? result.line : result.error);
    return std::nullopt;
  }
  return ok_payload(result.line, last_trace_id_);
}

std::optional<std::string> ServeClient::trace(const std::string& id,
                                              std::string* error) {
  const Result result = request("TRACE " + id);
  if (!result.delivered || result.code != 0) {
    set_error(error, result.delivered ? result.line : result.error);
    return std::nullopt;
  }
  return ok_payload(result.line, last_trace_id_);
}

}  // namespace mf
