// Serving-daemon subsystem tests (src/srv): wire protocol, EINTR-safe fd
// I/O, log2 histograms, token-bucket quotas, the canary state machine, the
// batch coalescer's bit-identity and flush triggers, version-pinned service
// prediction, and full protocol integration over a socketpair -- including
// the hot-reload-under-traffic and canary rollback/promotion paths.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <memory>
#include <mutex>
#include <thread>

#include "common/histogram.hpp"
#include "common/io_util.hpp"
#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "serve/registry.hpp"
#include "srv/canary.hpp"
#include "srv/client.hpp"
#include "srv/coalescer.hpp"
#include "srv/net_chaos.hpp"
#include "srv/protocol.hpp"
#include "srv/quota.hpp"
#include "srv/server.hpp"
#include "srv/supervised.hpp"

namespace mf {
namespace {

namespace fs = std::filesystem;

// -- fixtures ---------------------------------------------------------------
// Protocol and routing behaviour is independent of estimator quality, so
// everything trains tiny linear models on synthetic data (fast, and two
// different training seeds give two versions with *different* predictions,
// which is what the reload/canary tests need to tell versions apart).

Dataset srv_dataset(std::size_t n, std::uint64_t seed) {
  Dataset data;
  data.feature_names = feature_names(FeatureSet::Classical);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(data.feature_names.size());
    double target = 0.4;
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = j % 2 == 0 ? rng.uniform(0.0, 4000.0) : rng.uniform(0.0, 1.0);
      target += row[j] * (j % 3 == 0 ? 2.5e-4 : 0.05);
    }
    target += rng.uniform(0.0, 0.2);
    data.add(std::move(row), target, "s" + std::to_string(i));
  }
  return data;
}

ModelBundle srv_bundle(const std::string& name, std::uint64_t data_seed) {
  ModelBundle bundle;
  bundle.name = name;
  bundle.provenance.seed = 3;
  bundle.provenance.dataset_seed = data_seed;
  bundle.provenance.dataset_rows = 60;
  bundle.estimator = CfEstimator(EstimatorKind::LinearRegression,
                                 FeatureSet::Classical);
  bundle.estimator.train(srv_dataset(60, data_seed));
  return bundle;
}

std::vector<double> srv_row(std::uint64_t seed) {
  return srv_dataset(1, seed).x[0];
}

std::string estimate_line(const std::string& client, const std::string& model,
                          const std::vector<double>& row) {
  std::string line = "ESTIMATE " + client + " " + model;
  for (const double v : row) line += " " + format_double(v);
  line += "\n";
  return line;
}

/// Scratch registry directory wiped per test.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("mf_srv_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

ServerOptions fast_server_options(const std::string& registry_dir) {
  ServerOptions options;
  options.registry_dir = registry_dir;
  options.stdio = true;  // satisfies validation; tests drive serve_stream
  options.coalesce.coalesce_us = 200.0;
  options.coalesce.max_batch = 32;
  options.coalesce.queue_capacity = 128;
  return options;
}

/// One live protocol connection into `server` over a socketpair, with the
/// serving side running on its own thread (exactly the daemon's per-
/// connection shape).
class Conn {
 public:
  explicit Conn(EstimatorServer& server) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client_fd_ = fds[0];
    server_fd_ = fds[1];
    thread_ = std::thread([&server, fd = server_fd_] {
      server.serve_stream(fd, fd);
    });
  }
  ~Conn() { finish(); }

  void send(const std::string& bytes) {
    ASSERT_TRUE(write_all(client_fd_, bytes));
  }

  /// Next response line ("" after EOF).
  std::string read_line() {
    for (;;) {
      if (std::optional<std::string> line = pop_line(buffer_)) return *line;
      const std::optional<std::size_t> n = read_some(client_fd_, buffer_);
      if (!n || *n == 0) return "";
    }
  }

  std::string transact(const std::string& request_line) {
    send(request_line);
    return read_line();
  }

  /// Half-close the request direction, join the server side, return any
  /// remaining response lines.
  void finish() {
    if (client_fd_ < 0) return;
    ::shutdown(client_fd_, SHUT_WR);
    thread_.join();
    ::close(server_fd_);
    ::close(client_fd_);
    client_fd_ = -1;
  }

 private:
  int client_fd_ = -1;
  int server_fd_ = -1;
  std::string buffer_;
  std::thread thread_;
};

// -- protocol ---------------------------------------------------------------

TEST(SrvProtocol, ParsesEstimate) {
  std::string error;
  const std::optional<Request> request =
      parse_request("ESTIMATE tenant_a model-1 1 2.5 -3e-2", &error);
  ASSERT_TRUE(request) << error;
  EXPECT_EQ(request->verb, ReqVerb::Estimate);
  EXPECT_EQ(request->client, "tenant_a");
  EXPECT_EQ(request->model, "model-1");
  ASSERT_EQ(request->features.size(), 3u);
  EXPECT_EQ(request->features[0], 1.0);
  EXPECT_EQ(request->features[1], 2.5);
  EXPECT_EQ(request->features[2], -3e-2);
}

TEST(SrvProtocol, TokenizesOnRunsAndTolerigesCr) {
  std::string error;
  const std::optional<Request> request =
      parse_request("  ESTIMATE \t c  m \t 1   2 ", &error);
  ASSERT_TRUE(request) << error;
  EXPECT_EQ(request->features.size(), 2u);
  EXPECT_TRUE(parse_request("PING", &error));
  EXPECT_TRUE(parse_request("STATS", &error));
  EXPECT_TRUE(parse_request("INFO m", &error));
}

TEST(SrvProtocol, RejectsMalformedRequests) {
  std::string error;
  EXPECT_FALSE(parse_request("", &error));
  EXPECT_FALSE(parse_request("FROB x", &error));
  EXPECT_FALSE(parse_request("ESTIMATE c", &error));          // no model
  EXPECT_FALSE(parse_request("ESTIMATE c m", &error));        // no features
  EXPECT_FALSE(parse_request("ESTIMATE c m 1x", &error));     // bad float
  EXPECT_FALSE(parse_request("ESTIMATE c m nan", &error));    // non-finite
  EXPECT_FALSE(parse_request("ESTIMATE c m inf", &error));
  EXPECT_FALSE(parse_request("PING extra", &error));
  EXPECT_FALSE(parse_request("INFO", &error));
  std::string flood = "ESTIMATE c m";
  for (std::size_t i = 0; i <= kMaxFeatures; ++i) flood += " 1";
  EXPECT_FALSE(parse_request(flood, &error));
  EXPECT_NE(error.find("features"), std::string::npos);
  const std::string long_name(200, 'a');
  EXPECT_FALSE(parse_request("ESTIMATE " + long_name + " m 1", &error));
}

TEST(SrvProtocol, PopLineSplitsBufferedStream) {
  std::string buffer = "PING\r\nSTATS\nIN";
  std::optional<std::string> line = pop_line(buffer);
  ASSERT_TRUE(line);
  EXPECT_EQ(*line, "PING");
  line = pop_line(buffer);
  ASSERT_TRUE(line);
  EXPECT_EQ(*line, "STATS");
  EXPECT_FALSE(pop_line(buffer));  // incomplete tail stays buffered
  EXPECT_EQ(buffer, "IN");
  buffer += "FO m\n";
  line = pop_line(buffer);
  ASSERT_TRUE(line);
  EXPECT_EQ(*line, "INFO m");
  EXPECT_TRUE(buffer.empty());
}

TEST(SrvProtocol, PopLineHandlesCrTerminators) {
  // Bare-CR framing (old Mac / sloppy clients) terminates a line too.
  std::string buffer = "PING\rSTATS\r\nINFO m\r";
  std::optional<std::string> line = pop_line(buffer);
  ASSERT_TRUE(line);
  EXPECT_EQ(*line, "PING");
  line = pop_line(buffer);
  ASSERT_TRUE(line);
  EXPECT_EQ(*line, "STATS");
  // A CR as the final buffered byte could be the first half of a CRLF
  // split across reads: it must stay buffered until the next byte decides.
  EXPECT_FALSE(pop_line(buffer));
  EXPECT_EQ(buffer, "INFO m\r");
  buffer += "\nPING\n";
  line = pop_line(buffer);
  ASSERT_TRUE(line);
  EXPECT_EQ(*line, "INFO m");  // the late LF completed one CRLF, not two
  line = pop_line(buffer);
  ASSERT_TRUE(line);
  EXPECT_EQ(*line, "PING");
  EXPECT_TRUE(buffer.empty());
}

TEST(SrvProtocol, ByteAtATimeDeliveryIsLossless) {
  // Fuzz-ish framing check: a stream of random non-empty lines with mixed
  // terminators parses to the same lines whether it arrives in one read or
  // one byte at a time (chunking can split any terminator anywhere).
  Rng rng(0xF00D);
  const char* terminators[] = {"\n", "\r\n", "\r"};
  std::string stream;
  std::vector<std::string> want;
  for (int i = 0; i < 400; ++i) {
    std::string text;
    const int len = 1 + static_cast<int>(rng.uniform(0.0, 12.0));
    for (int j = 0; j < len; ++j) {
      text.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
    }
    want.push_back(text);
    stream += text;
    stream += i + 1 == 400 ? "\n" : terminators[rng.uniform_int(0, 2)];
  }
  std::string bulk = stream;
  std::vector<std::string> bulk_lines;
  while (std::optional<std::string> line = pop_line(bulk)) {
    bulk_lines.push_back(*line);
  }
  EXPECT_EQ(bulk_lines, want);
  EXPECT_TRUE(bulk.empty());

  std::string buffer;
  std::vector<std::string> got;
  for (const char byte : stream) {
    buffer.push_back(byte);
    while (std::optional<std::string> line = pop_line(buffer)) {
      got.push_back(*line);
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(buffer.empty());
}

TEST(SrvProtocol, TraceIdRoundTrip) {
  std::string error;
  std::string trace;
  const std::optional<Request> request =
      parse_request("id=cli:7 ESTIMATE c m 1 2", &error, &trace);
  ASSERT_TRUE(request) << error;
  EXPECT_EQ(request->verb, ReqVerb::Estimate);
  EXPECT_EQ(request->trace, "cli:7");
  EXPECT_EQ(trace, "cli:7");
  EXPECT_EQ(format_ok("pong", "cli:7"), "OK pong id=cli:7\n");
  EXPECT_EQ(format_err(404, "nope", "cli:7"), "ERR 404 nope id=cli:7\n");
  EXPECT_EQ(response_trace("OK pong id=cli:7\n"), "cli:7");
  EXPECT_EQ(response_trace("OK pong"), "");
  EXPECT_EQ(response_code("OK pong id=cli:7"), 0);
  EXPECT_EQ(response_code("ERR 429 over quota id=cli:7"), 429);
  // The CF bit-identity contract holds with the id echo attached.
  const std::string line = format_ok_cf(1.0 / 3.0, "cli:9");
  const std::optional<double> back = parse_ok_cf(line);
  ASSERT_TRUE(back) << line;
  EXPECT_EQ(*back, 1.0 / 3.0);
  EXPECT_EQ(response_trace(line), "cli:9");
  // TRACE lookups parse to the queried id.
  const std::optional<Request> lookup = parse_request("TRACE cli:7", &error);
  ASSERT_TRUE(lookup) << error;
  EXPECT_EQ(lookup->verb, ReqVerb::Trace);
  EXPECT_EQ(lookup->query, "cli:7");
}

TEST(SrvProtocol, RejectsBadTraceIdsAndKeepsQuietPathBytes) {
  std::string error;
  EXPECT_FALSE(parse_request("id= PING", &error));    // empty id
  EXPECT_FALSE(parse_request("id=cli:1", &error));    // id with no verb
  EXPECT_FALSE(parse_request("TRACE", &error));       // lookup needs an id
  EXPECT_FALSE(parse_request("TRACE a b", &error));   // exactly one id
  const std::string oversize(kMaxTraceBytes + 1, 'x');
  EXPECT_FALSE(parse_request("id=" + oversize + " PING", &error));
  // Untraced responses carry not a byte more than before tracing existed.
  EXPECT_EQ(format_ok("pong"), "OK pong\n");
  EXPECT_EQ(format_err(429, "over quota"), "ERR 429 over quota\n");
  EXPECT_EQ(format_ok_cf(1.375), "OK 1.375\n");
}

TEST(SrvProtocol, CfFormatRoundTripsBitwise) {
  // The client-side half of the bit-identity contract: `OK <cf>` reparses
  // to the exact double for awkward values (shortest round-trip format).
  for (const double cf : {0.1, 1.0 / 3.0, 1.375, 6.25e-7, 12345.678901234567}) {
    const std::string line = format_ok_cf(cf);
    const std::optional<double> back = parse_ok_cf(line);
    ASSERT_TRUE(back) << line;
    EXPECT_EQ(*back, cf) << line;
  }
  EXPECT_FALSE(parse_ok_cf("ERR 400 nope\n"));
  EXPECT_FALSE(parse_ok_cf("OK pong\n"));
  EXPECT_EQ(format_err(429, "over quota"), "ERR 429 over quota\n");
}

// -- histogram --------------------------------------------------------------

TEST(SrvHistogram, BucketsByBitWidthAndAnswersQuantiles) {
  Log2Histogram h;
  EXPECT_EQ(h.quantile_max(0.5), 0u);  // empty
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.total, 1000u);
  // The median observation (500) lives in bucket bit_width(500)=9, whose
  // upper bound is 511.
  EXPECT_EQ(h.quantile_max(0.5), 511u);
  EXPECT_EQ(h.quantile_max(1.0), 1023u);
  EXPECT_LE(h.quantile_max(0.01), 15u);
}

TEST(SrvHistogram, MergesAndSaturates) {
  Log2Histogram a;
  Log2Histogram b;
  a.record(0);
  a.record(7);
  b.record(~std::uint64_t{0});  // saturates into the last bucket
  a += b;
  EXPECT_EQ(a.total, 3u);
  EXPECT_EQ(a.counts[Log2Histogram::kBuckets - 1], 1u);
  // The open-ended last bucket reports its lower edge, not 2^47-1.
  EXPECT_EQ(a.quantile_max(1.0),
            std::uint64_t{1} << (Log2Histogram::kBuckets - 2));
  EXPECT_EQ(a.counts[0], 1u);  // zero has bit_width 0
}

// -- fd I/O helpers ---------------------------------------------------------

TEST(SrvIoUtil, WriteAllAndReadAllMoveLargePayloads) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string payload;
  payload.reserve(300000);
  Rng rng(11);
  for (int i = 0; i < 300000; ++i) {
    payload.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
  }
  // Writer on a thread: the payload exceeds the pipe buffer, so write_all
  // must survive short writes while the reader drains.
  std::thread writer([fd = fds[1], &payload] {
    EXPECT_TRUE(write_all(fd, payload));
    ::close(fd);
  });
  const std::optional<std::string> got = read_all(fds[0]);
  writer.join();
  ::close(fds[0]);
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, payload);
}

TEST(SrvIoUtil, SigpipeIgnoreIsIdempotentAndTurnsEpipeIntoFalse) {
  ASSERT_TRUE(ignore_sigpipe());
  ASSERT_TRUE(ignore_sigpipe());  // second call is a no-op
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  // Without the ignore this write would raise SIGPIPE and kill the test.
  EXPECT_FALSE(write_all(fds[1], "peer is gone"));
  ::close(fds[1]);
}

TEST(SrvIoUtil, WaitReadableTimesOutAndWakes) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_FALSE(wait_readable(fds[0], 10));  // nothing buffered
  ASSERT_TRUE(write_all(fds[1], "x"));
  EXPECT_TRUE(wait_readable(fds[0], 1000));
  std::string out;
  EXPECT_EQ(read_some(fds[0], out), 1u);
  EXPECT_EQ(out, "x");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SrvIoUtil, WriteAllReportsEpipeAfterPeerClose) {
  ASSERT_TRUE(ignore_sigpipe());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  // The payload dwarfs the socket buffer, so even if an early chunk lands
  // there the loop must surface EPIPE as false -- never spin or raise.
  const std::string payload(1 << 20, 'x');
  EXPECT_FALSE(write_all(fds[1], payload));
  ::close(fds[1]);
}

TEST(SrvIoUtil, TimeoutRoundingAtSubMillisecondBudgets) {
  // Deadline arithmetic can leave a remaining budget under one
  // millisecond; poll() takes whole ms, and rounding *down* would turn the
  // tail of every deadline into a 0 ms busy-poll loop. Round up, saturate.
  EXPECT_EQ(timeout_ms_from_seconds(0.0), 0);
  EXPECT_EQ(timeout_ms_from_seconds(-1.0), 0);
  EXPECT_EQ(timeout_ms_from_seconds(1e-9), 1);
  EXPECT_EQ(timeout_ms_from_seconds(0.0004), 1);
  EXPECT_EQ(timeout_ms_from_seconds(0.001), 1);
  EXPECT_EQ(timeout_ms_from_seconds(0.0011), 2);
  EXPECT_EQ(timeout_ms_from_seconds(2.0), 2000);
  EXPECT_EQ(timeout_ms_from_seconds(1e9), 2147483647);
  // Behavioural check: a sub-ms wait still blocks (and times out) rather
  // than degenerating into poll(0).
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_FALSE(wait_readable(fds[0], timeout_ms_from_seconds(2e-4)));
  ::close(fds[0]);
  ::close(fds[1]);
}

// -- quotas -----------------------------------------------------------------

constexpr std::uint64_t kSecond = 1000000000ull;

TEST(SrvQuota, DisabledAdmitsEverything) {
  ClientQuota quota(QuotaOptions{});  // rate <= 0: admission control off
  EXPECT_FALSE(quota.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(quota.try_acquire("c", 0));
  EXPECT_EQ(quota.shed_total(), 0u);
}

TEST(SrvQuota, BurstThenRefill) {
  ClientQuota quota(QuotaOptions{2.0, 3.0, 16});
  // A fresh client starts with a full burst of 3...
  EXPECT_TRUE(quota.try_acquire("c", 0));
  EXPECT_TRUE(quota.try_acquire("c", 0));
  EXPECT_TRUE(quota.try_acquire("c", 0));
  EXPECT_FALSE(quota.try_acquire("c", 0));
  // ...and refills at 2 tokens/s: after half a second exactly one token.
  EXPECT_TRUE(quota.try_acquire("c", kSecond / 2));
  EXPECT_FALSE(quota.try_acquire("c", kSecond / 2));
  // A long idle period caps at burst, not rate * elapsed.
  EXPECT_TRUE(quota.try_acquire("c", 100 * kSecond));
  EXPECT_TRUE(quota.try_acquire("c", 100 * kSecond));
  EXPECT_TRUE(quota.try_acquire("c", 100 * kSecond));
  EXPECT_FALSE(quota.try_acquire("c", 100 * kSecond));
  EXPECT_EQ(quota.admitted_total(), 7u);
  EXPECT_EQ(quota.shed_total(), 3u);
}

TEST(SrvQuota, ClientsAreIndependentAndClockRegressionIsSafe) {
  ClientQuota quota(QuotaOptions{1.0, 1.0, 16});
  EXPECT_TRUE(quota.try_acquire("a", 5 * kSecond));
  EXPECT_TRUE(quota.try_acquire("b", 5 * kSecond));  // b has its own bucket
  EXPECT_FALSE(quota.try_acquire("a", 5 * kSecond));
  // An earlier timestamp (reordered threads) must not mint tokens.
  EXPECT_FALSE(quota.try_acquire("a", 4 * kSecond));
  EXPECT_TRUE(quota.try_acquire("a", 6 * kSecond + kSecond));
}

TEST(SrvQuota, RecyclesStalestBucketAtCapacity) {
  ClientQuota quota(QuotaOptions{1.0, 1.0, 2});
  EXPECT_TRUE(quota.try_acquire("old", 0));
  EXPECT_TRUE(quota.try_acquire("new", 10 * kSecond));
  EXPECT_EQ(quota.tracked_clients(), 2u);
  // A third client evicts the stalest bucket ("old"), not a fresh one.
  EXPECT_TRUE(quota.try_acquire("third", 10 * kSecond));
  EXPECT_EQ(quota.tracked_clients(), 2u);
  // "new" kept its (empty) bucket: still shed at the same timestamp.
  EXPECT_FALSE(quota.try_acquire("new", 10 * kSecond));
}

// -- canary state machine ---------------------------------------------------

TEST(SrvCanary, FirstCleanLoadBecomesStable) {
  CanaryController ctl(CanaryOptions{50, 3, 5});
  EXPECT_EQ(ctl.version_to_load(3), 3);  // nothing stable: anything goes
  ctl.on_load_ok(3);
  EXPECT_EQ(ctl.status().stable_version, 3);
  EXPECT_EQ(ctl.status().canary_version, 0);
  EXPECT_EQ(ctl.version_to_load(3), 0);
  EXPECT_EQ(ctl.version_to_load(2), 0);  // older files are history
}

TEST(SrvCanary, PercentZeroHotSwapsDirectly) {
  CanaryController ctl(CanaryOptions{0, 3, 5});
  ctl.on_load_ok(1);
  ctl.on_load_ok(2);
  EXPECT_EQ(ctl.status().stable_version, 2);
  EXPECT_EQ(ctl.status().canary_version, 0);
  EXPECT_EQ(ctl.status().canaries_started, 0u);
}

TEST(SrvCanary, PromotesAfterConsecutiveSuccesses) {
  CanaryController ctl(CanaryOptions{100, 3, 4});
  ctl.on_load_ok(1);
  ctl.on_load_ok(2);
  EXPECT_EQ(ctl.status().canary_version, 2);
  EXPECT_EQ(ctl.status().canaries_started, 1u);
  ctl.on_canary_result(true);
  ctl.on_canary_result(true);
  ctl.on_canary_result(false);  // a failure resets the success streak
  ctl.on_canary_result(true);
  ctl.on_canary_result(true);
  ctl.on_canary_result(true);
  EXPECT_EQ(ctl.status().canary_version, 2);  // 3 < promote_after
  ctl.on_canary_result(true);
  EXPECT_EQ(ctl.status().stable_version, 2);
  EXPECT_EQ(ctl.status().canary_version, 0);
  EXPECT_EQ(ctl.status().promotions, 1u);
}

TEST(SrvCanary, RollsBackOnServeFailuresAndNeverRetries) {
  CanaryController ctl(CanaryOptions{100, 2, 100});
  ctl.on_load_ok(1);
  ctl.on_load_ok(2);
  ctl.on_canary_result(false);
  EXPECT_EQ(ctl.status().canary_version, 2);  // 1 < fail_threshold
  ctl.on_canary_result(false);
  EXPECT_EQ(ctl.status().canary_version, 0);
  EXPECT_EQ(ctl.status().stable_version, 1);
  EXPECT_EQ(ctl.status().rollbacks, 1u);
  EXPECT_TRUE(ctl.is_bad(2));
  EXPECT_EQ(ctl.version_to_load(2), 0);  // condemned forever
  EXPECT_EQ(ctl.version_to_load(3), 3);  // a newer candidate still welcome
  ctl.on_load_ok(2);                     // stale load result: ignored
  EXPECT_EQ(ctl.status().canary_version, 0);
}

TEST(SrvCanary, LoadFailuresTripTheSameBreaker) {
  CanaryController ctl(CanaryOptions{100, 3, 100});
  ctl.on_load_ok(1);
  ctl.on_load_failed(2);
  ctl.on_load_failed(2);
  EXPECT_FALSE(ctl.is_bad(2));
  ctl.on_load_failed(2);
  EXPECT_TRUE(ctl.is_bad(2));
  EXPECT_EQ(ctl.status().rollbacks, 1u);
  EXPECT_EQ(ctl.status().stable_version, 1);
  // A load success in between resets the count (flaky disk, not poison).
  ctl.on_load_failed(3);
  ctl.on_load_ok(3);
  EXPECT_EQ(ctl.status().canary_version, 3);
}

TEST(SrvCanary, ClientHashSplitsDeterministically) {
  CanaryController ctl(CanaryOptions{30, 3, 100});
  ctl.on_load_ok(1);
  ctl.on_load_ok(2);
  int canaried = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string client = "tenant-" + std::to_string(i);
    const bool first = ctl.use_canary(client);
    EXPECT_EQ(first, ctl.use_canary(client));  // stable per tenant
    EXPECT_EQ(first, CanaryController::client_hash(client) % 100 < 30);
    canaried += first ? 1 : 0;
  }
  // Roughly 30% of tenants (hash mixing, not a statistical test).
  EXPECT_GT(canaried, 30);
  EXPECT_LT(canaried, 110);
}

// -- coalescer --------------------------------------------------------------

TEST(SrvCoalescer, ResultsAreBitIdenticalAcrossBatchCompositions) {
  // The batch function is pure per row, so whatever rows happen to share a
  // flush, each submitter must get exactly f(row) back.
  const auto f = [](const BatchItem& item) {
    double sum = 0.375;
    for (const double v : item.row) sum += v * 1.0625;
    return sum;
  };
  Coalescer coalescer(
      CoalescerOptions{500.0, 8, 64},
      [&f](const std::vector<BatchItem>& items) {
        std::vector<BatchResult> results;
        results.reserve(items.size());
        for (const BatchItem& item : items) {
          results.push_back({true, f(item), 0, {}});
        }
        return results;
      });
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        BatchItem item;
        item.client = "c" + std::to_string(t);
        item.model = "m";
        for (int j = 0; j < 5; ++j) item.row.push_back(rng.uniform(0.0, 9.0));
        const double want = f(item);
        const BatchResult got = coalescer.submit_wait(std::move(item));
        if (!got.ok || got.value != want) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  const CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.flushes, stats.full_flushes + stats.budget_flushes);
  EXPECT_EQ(stats.batch_fill.total, stats.flushes);
}

TEST(SrvCoalescer, FullBatchFlushesWithoutWaitingForTheBudget) {
  // Budget is 10 seconds; the only way these 4 submits finish promptly is
  // the max_batch=4 trigger.
  Coalescer coalescer(CoalescerOptions{10e6, 4, 16},
                      [](const std::vector<BatchItem>& items) {
                        return std::vector<BatchResult>(items.size(),
                                                        {true, 1.0, 0, {}});
                      });
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&coalescer] {
      const BatchResult result = coalescer.submit_wait({"c", "m", {1.0}, {}});
      EXPECT_TRUE(result.ok);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed_s, 5.0);
  EXPECT_GE(coalescer.stats().full_flushes, 1u);
}

TEST(SrvCoalescer, LoneRowFlushesWhenTheBudgetExpires) {
  Coalescer coalescer(CoalescerOptions{2000.0, 1000, 2000},
                      [](const std::vector<BatchItem>& items) {
                        return std::vector<BatchResult>(items.size(),
                                                        {true, 2.0, 0, {}});
                      });
  const BatchResult result = coalescer.submit_wait({"c", "m", {1.0}, {}});
  EXPECT_TRUE(result.ok);
  EXPECT_GE(coalescer.stats().budget_flushes, 1u);
}

TEST(SrvCoalescer, DestructorDrainsPendingRows) {
  // Long budget, five rows still pending, then destruction: the dtor must
  // flush them at once (shutdown skips the batch window) instead of sitting
  // out the budget, deadlocking, or dropping rows.
  const double budget_us = 10e6;
  std::vector<double> flushed;  // written by the flush thread before join
  auto coalescer = std::make_unique<Coalescer>(
      CoalescerOptions{budget_us, 1000, 2000},
      [&flushed](const std::vector<BatchItem>& items) {
        for (const BatchItem& item : items) flushed.push_back(item.row[0]);
        return std::vector<BatchResult>(items.size(), {true, 3.0, 0, {}});
      });
  for (int i = 0; i < 5; ++i) {
    (void)coalescer->submit({"c", "m", {double(i)}, {}});
  }
  EXPECT_EQ(coalescer->stats().flushes, 0u);  // all five still queued
  const auto start = std::chrono::steady_clock::now();
  coalescer.reset();
  const double took = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_EQ(flushed, (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0}));
  EXPECT_LT(took, budget_us / 1e6 / 2);
}

// -- version-pinned service prediction --------------------------------------

TEST(SrvServicePin, PinnedVersionsServeSideBySide) {
  TempDir dir("pin");
  ModelRegistry registry(dir.path());
  const ModelBundle v1 = srv_bundle("m", 7);
  const ModelBundle v2 = srv_bundle("m", 8);
  ASSERT_TRUE(registry.put(v1));
  ASSERT_TRUE(registry.put(v2));
  EstimatorService service(dir.path());
  const std::vector<std::vector<double>> rows = {srv_row(21), srv_row(22)};
  const auto got1 = service.predict_rows("m", rows, 1);
  const auto got2 = service.predict_rows("m", rows, 2);
  ASSERT_TRUE(got1);
  ASSERT_TRUE(got2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*got1)[i], v1.estimator.predict_row(rows[i]));
    EXPECT_EQ((*got2)[i], v2.estimator.predict_row(rows[i]));
  }
  // Different training data must actually disagree, or the reload tests
  // above this layer prove nothing.
  EXPECT_NE((*got1)[0], (*got2)[0]);
  // Unpinned still resolves the newest version.
  const auto newest = service.predict_rows("m", rows);
  ASSERT_TRUE(newest);
  EXPECT_EQ((*newest)[0], (*got2)[0]);
}

TEST(SrvServicePin, MissingPinnedVersionIsNulloptNeverFallback) {
  TempDir dir("pinmiss");
  ModelRegistry registry(dir.path());
  ASSERT_TRUE(registry.put(srv_bundle("m", 7)));
  ServiceOptions options;
  options.fallback_cf = 1.5;  // must NOT leak into the pinned path
  EstimatorService service(dir.path(), options);
  EXPECT_FALSE(service.predict_rows("m", {srv_row(1)}, 99));
  EXPECT_FALSE(service.bundle("m", 99));
  EXPECT_TRUE(service.predict_rows("m", {srv_row(1)}, 1));
}

TEST(SrvServicePin, SnapshotCarriesLatencyHistogram) {
  TempDir dir("snap");
  ModelRegistry registry(dir.path());
  ASSERT_TRUE(registry.put(srv_bundle("m", 7)));
  EstimatorService service(dir.path());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.predict_rows("m", {srv_row(i)}));
  }
  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.latency.total, 5u);
  EXPECT_GT(stats.latency.quantile_max(0.99), 0u);
}

// -- server integration (protocol over a socketpair) ------------------------

TEST(SrvServer, OptionValidationFailsFast) {
  ServerOptions options;  // neither socket nor stdio
  EXPECT_TRUE(server_options_error(options));
  options.stdio = true;
  EXPECT_FALSE(server_options_error(options));
  options.socket_path = "/tmp/x.sock";  // both: ambiguous
  EXPECT_TRUE(server_options_error(options));
  options.socket_path.clear();
  options.coalesce.queue_capacity = 4;
  options.coalesce.max_batch = 64;  // capacity < one batch
  EXPECT_TRUE(server_options_error(options));
}

TEST(SrvServer, AnswersTheProtocolEndToEnd) {
  TempDir dir("e2e");
  ModelRegistry registry(dir.path());
  const ModelBundle v1 = srv_bundle("m", 7);
  ASSERT_TRUE(registry.put(v1));
  EstimatorServer server(fast_server_options(dir.path()));
  Conn conn(server);
  EXPECT_EQ(conn.transact("PING\n"), "OK pong");
  const std::vector<double> row = srv_row(33);
  // The response must be the exact shortest-round-trip rendering of the
  // direct in-process prediction: coalescing is invisible in the bytes.
  EXPECT_EQ(conn.transact(estimate_line("c1", "m", row)),
            "OK " + format_double(v1.estimator.predict_row(row)));
  EXPECT_EQ(conn.transact("ESTIMATE c1 m 1 2\n"),
            "ERR 400 expected " +
                std::to_string(feature_names(FeatureSet::Classical).size()) +
                " features for 'm'");
  EXPECT_EQ(conn.transact("ESTIMATE c1 ghost 1\n"),
            "ERR 404 no usable bundle for 'ghost'");
  EXPECT_EQ(conn.transact("NOPE\n"), "ERR 400 unknown verb 'NOPE'");
  const std::string info = conn.transact("INFO m\n");
  EXPECT_NE(info.find("OK model=m stable=v1 canary=none"), std::string::npos);
  // STATS renders at settle time, so it reflects the 6 requests before it
  // on this very pipeline (PING + INFO settle as ok alongside the good
  // ESTIMATE).
  const std::string stats = conn.transact("STATS\n");
  EXPECT_NE(stats.find("requests=6"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ok=3"), std::string::npos) << stats;
  conn.finish();
  const ServerStats server_stats = server.stats();
  EXPECT_EQ(server_stats.requests, 7u);
  EXPECT_EQ(server_stats.err_bad_request, 2u);
  EXPECT_EQ(server_stats.err_no_model, 1u);
  EXPECT_EQ(server_stats.request_ns.total, 3u);  // ESTIMATEs only
}

TEST(SrvServer, StatsPayloadAndJsonCarryTheSameKeysInOrder) {
  TempDir dir("statskeys");
  EstimatorServer server(fast_server_options(dir.path()));
  std::vector<std::string> payload_keys;  // "key=value key=value ..."
  std::istringstream words(server.stats_payload());
  for (std::string word; words >> word;) {
    payload_keys.push_back(word.substr(0, word.find('=')));
  }
  std::vector<std::string> json_keys;  // one ` "key": value` per line
  std::istringstream lines(server.stats_json());
  for (std::string line; std::getline(lines, line);) {
    const std::size_t open = line.find('"');
    if (open == std::string::npos) continue;
    json_keys.push_back(
        line.substr(open + 1, line.find('"', open + 1) - open - 1));
  }
  ASSERT_FALSE(json_keys.empty());
  EXPECT_EQ(json_keys.front(), "schema_version");
  json_keys.erase(json_keys.begin());
  EXPECT_EQ(payload_keys, json_keys);
  ASSERT_EQ(payload_keys.size(), 39u);  // uptime_s, qps + 37 counters
  EXPECT_EQ(payload_keys.front(), "uptime_s");
  EXPECT_EQ(payload_keys.back(), "trace_predict_p99_us");
}

TEST(SrvServer, OverQuotaClientsAreShedWith429) {
  TempDir dir("quota");
  ModelRegistry registry(dir.path());
  ASSERT_TRUE(registry.put(srv_bundle("m", 7)));
  ServerOptions options = fast_server_options(dir.path());
  options.quota.rate_per_second = 0.001;  // effectively no refill in-test
  options.quota.burst = 2.0;
  EstimatorServer server(options);
  Conn conn(server);
  const std::string line = estimate_line("greedy", "m", srv_row(1));
  EXPECT_EQ(conn.transact(line).rfind("OK ", 0), 0u);
  EXPECT_EQ(conn.transact(line).rfind("OK ", 0), 0u);
  EXPECT_EQ(conn.transact(line), "ERR 429 client 'greedy' over quota");
  // Another tenant is untouched by the greedy one's empty bucket.
  EXPECT_EQ(conn.transact(estimate_line("modest", "m", srv_row(1)))
                .rfind("OK ", 0),
            0u);
  conn.finish();
  EXPECT_EQ(server.stats().err_over_quota, 1u);
}

TEST(SrvServer, HotReloadUnderTrafficServesOldOrNewNeverTorn) {
  // Satellite: ModelRegistry::put a newer bundle while requests are in
  // flight. Every response must be bit-exact from either v1 or v2 -- a torn
  // read would show up as any other byte string -- and after a reload scan
  // the stream must settle on v2.
  TempDir dir("reload");
  ModelRegistry registry(dir.path());
  const ModelBundle v1 = srv_bundle("m", 7);
  ASSERT_TRUE(registry.put(v1));
  ServerOptions options = fast_server_options(dir.path());
  options.reload_poll_seconds = 1e4;  // reloads happen only via reload_now
  EstimatorServer server(options);
  Conn conn(server);
  const std::vector<double> row = srv_row(42);
  const std::string want_v1 = "OK " + format_double(v1.estimator.predict_row(row));
  EXPECT_EQ(conn.transact(estimate_line("c", "m", row)), want_v1);

  const ModelBundle v2 = srv_bundle("m", 8);
  const std::string want_v2 = "OK " + format_double(v2.estimator.predict_row(row));
  ASSERT_NE(want_v1, want_v2);

  std::atomic<bool> put_done{false};
  std::thread writer([&] {
    ASSERT_TRUE(registry.put(v2));
    put_done.store(true);
    server.reload_now();
  });
  // Traffic while the put + reload land: nothing but the two exact strings
  // may ever come back (in-flight rows finish on whichever immutable
  // bundle they were routed to).
  bool saw_v2 = false;
  for (int i = 0; i < 200; ++i) {
    const std::string response = conn.transact(estimate_line("c", "m", row));
    ASSERT_TRUE(response == want_v1 || response == want_v2) << response;
    if (response == want_v2) saw_v2 = true;
    if (saw_v2 && put_done.load()) break;
  }
  writer.join();
  server.reload_now();
  EXPECT_EQ(conn.transact(estimate_line("c", "m", row)), want_v2);
  conn.finish();
  EXPECT_EQ(server.canary_status("m").stable_version, 2);
}

TEST(SrvServer, CorruptCanaryRollsBackWithoutClientErrors) {
  TempDir dir("rollback");
  ModelRegistry registry(dir.path());
  const ModelBundle v1 = srv_bundle("m", 7);
  ASSERT_TRUE(registry.put(v1));
  ServerOptions options = fast_server_options(dir.path());
  options.reload_poll_seconds = 1e4;
  options.canary.percent = 100;
  options.canary.fail_threshold = 2;
  EstimatorServer server(options);
  Conn conn(server);
  const std::vector<double> row = srv_row(5);
  const std::string want_v1 = "OK " + format_double(v1.estimator.predict_row(row));
  EXPECT_EQ(conn.transact(estimate_line("c", "m", row)), want_v1);
  // Drop a poisoned v2 into the registry: it never loads, so the load
  // breaker must roll it back after fail_threshold scans -- no client ever
  // sees an error.
  {
    std::ofstream poison(dir.path() + "/m-v2.mfb", std::ios::binary);
    poison << "macroflow-model-bundle 1\nthis is not a bundle\n";
  }
  server.reload_now();
  EXPECT_EQ(conn.transact(estimate_line("c", "m", row)), want_v1);
  server.reload_now();
  const CanaryStatus status = server.canary_status("m");
  EXPECT_EQ(status.stable_version, 1);
  EXPECT_EQ(status.canary_version, 0);
  EXPECT_EQ(status.rollbacks, 1u);
  // Condemned: further scans must not resurrect it.
  server.reload_now();
  EXPECT_EQ(server.canary_status("m").rollbacks, 1u);
  EXPECT_EQ(conn.transact(estimate_line("c", "m", row)), want_v1);
  conn.finish();
  EXPECT_EQ(server.stats().err_no_model, 0u);
  EXPECT_EQ(server.stats().err_internal, 0u);
}

TEST(SrvServer, CanaryServesPercentAndPromotes) {
  TempDir dir("promote");
  ModelRegistry registry(dir.path());
  const ModelBundle v1 = srv_bundle("m", 7);
  const ModelBundle v2 = srv_bundle("m", 8);
  ASSERT_TRUE(registry.put(v1));
  ServerOptions options = fast_server_options(dir.path());
  options.reload_poll_seconds = 1e4;
  options.canary.percent = 100;
  options.canary.promote_after = 3;
  EstimatorServer server(options);
  Conn conn(server);
  const std::vector<double> row = srv_row(9);
  const std::string want_v1 = "OK " + format_double(v1.estimator.predict_row(row));
  const std::string want_v2 = "OK " + format_double(v2.estimator.predict_row(row));
  EXPECT_EQ(conn.transact(estimate_line("c", "m", row)), want_v1);
  ASSERT_TRUE(registry.put(v2));
  server.reload_now();
  EXPECT_EQ(server.canary_status("m").canary_version, 2);
  // percent=100 routes every client to the canary; three successes promote.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(conn.transact(estimate_line("c", "m", row)), want_v2);
  }
  const CanaryStatus status = server.canary_status("m");
  EXPECT_EQ(status.stable_version, 2);
  EXPECT_EQ(status.canary_version, 0);
  EXPECT_EQ(status.promotions, 1u);
  conn.finish();
}

// -- per-request tracing ----------------------------------------------------

TEST(SrvTrace, TraceVerbReportsPerRequestMetrics) {
  TempDir dir("trace");
  ModelRegistry registry(dir.path());
  const ModelBundle v1 = srv_bundle("m", 7);
  ASSERT_TRUE(registry.put(v1));
  EstimatorServer server(fast_server_options(dir.path()));
  Conn conn(server);
  const std::vector<double> row = srv_row(5);
  const std::string want =
      "OK " + format_double(v1.estimator.predict_row(row)) + " id=t:1";
  EXPECT_EQ(conn.transact("id=t:1 " + estimate_line("c", "m", row)), want);
  // TRACE of a served id reports its queue wait, flush fill, predict
  // latency, and verdict.
  const std::string traced = conn.transact("TRACE t:1\n");
  EXPECT_EQ(traced.rfind("OK id=t:1 ", 0), 0u) << traced;
  EXPECT_NE(traced.find("queue_us="), std::string::npos) << traced;
  EXPECT_NE(traced.find("batch="), std::string::npos) << traced;
  EXPECT_NE(traced.find("predict_us="), std::string::npos) << traced;
  EXPECT_NE(traced.find("verdict=ok"), std::string::npos) << traced;
  // Unknown ids are a 404 echoing the lookup; a traced PING echoes too.
  EXPECT_EQ(conn.transact("TRACE nope:9\n").rfind("ERR 404", 0), 0u);
  EXPECT_EQ(conn.transact("id=t:2 PING\n"), "OK pong id=t:2");
  // Untraced requests keep the exact pre-tracing bytes.
  EXPECT_EQ(conn.transact(estimate_line("c", "m", row)),
            "OK " + format_double(v1.estimator.predict_row(row)));
  conn.finish();
  EXPECT_EQ(server.stats().traced, 1u);
  EXPECT_EQ(server.stats().trace_evicted, 0u);
}

// -- network chaos shim -----------------------------------------------------

TEST(SrvNetChaos, DrawsArePureAndBudgeted) {
  NetChaosOptions options;
  options.enabled = true;
  options.seed = 42;
  options.p_sever = 0.2;
  options.p_stall = 0.2;
  options.p_truncate = 0.2;
  options.p_duplicate = 0.1;
  options.p_garbage = 0.1;
  options.max_faults = 5;
  NetChaos a(options);
  NetChaos b(options);
  // draw() is a pure function of (conn, op, direction): identical across
  // instances and across repeated calls (no hidden stream state).
  int disruptive = 0;
  for (int op = 0; op < 200; ++op) {
    const NetChaos::Action act = a.draw(0, op, true);
    EXPECT_EQ(act, b.draw(0, op, true));
    EXPECT_EQ(act, a.draw(0, op, true));
    if (act != NetChaos::Action::None && act != NetChaos::Action::Stall) {
      ++disruptive;
    }
  }
  EXPECT_GT(disruptive, 0);
  // Op 0 never faults: the first exchange on a connection always works,
  // so a campaign cannot wedge a client before its first send.
  EXPECT_EQ(a.draw(0, 0, true), NetChaos::Action::None);
  EXPECT_EQ(a.draw(7, 0, false), NetChaos::Action::None);
  // tx and rx draw decorrelated streams.
  bool differs = false;
  for (int op = 1; op < 100; ++op) {
    differs = differs || a.draw(2, op, true) != a.draw(2, op, false);
  }
  EXPECT_TRUE(differs);
  // next() enforces the budget: after max_faults disruptive injections the
  // shim degrades every further disruptive draw to None (termination).
  int injected = 0;
  for (int op = 0; op < 500; ++op) {
    const NetChaos::Action act = a.next(1, op, false);
    if (act != NetChaos::Action::None && act != NetChaos::Action::Stall) {
      ++injected;
    }
  }
  EXPECT_EQ(injected, options.max_faults);
  EXPECT_EQ(a.faults_injected(), options.max_faults);
  // Garbage lines are deterministic and can never be a valid response.
  EXPECT_EQ(a.garbage_line(3, 9), b.garbage_line(3, 9));
  EXPECT_EQ(a.garbage_line(3, 9).rfind("XCHAOS ", 0), 0u);
  // A disabled shim is a strict no-op.
  NetChaos off(NetChaosOptions{});
  for (int op = 0; op < 100; ++op) {
    EXPECT_EQ(off.next(0, op, true), NetChaos::Action::None);
  }
  EXPECT_EQ(off.faults_injected(), 0);
}

// -- resilient client -------------------------------------------------------

/// A real socket-mode daemon on its own thread, for client tests.
class SocketDaemon {
 public:
  explicit SocketDaemon(const std::string& registry_dir,
                        const std::string& socket_path) {
    ServerOptions options = fast_server_options(registry_dir);
    options.stdio = false;
    options.socket_path = socket_path;
    options.cancel = &cancel_;
    server_ = std::make_unique<EstimatorServer>(std::move(options));
    thread_ = std::thread([this] { server_->run(); });
  }
  ~SocketDaemon() {
    cancel_.cancel();
    thread_.join();
  }

 private:
  CancelToken cancel_;
  std::unique_ptr<EstimatorServer> server_;
  std::thread thread_;
};

TEST(SrvClient, OptionValidationFailsFast) {
  ClientOptions options;
  EXPECT_TRUE(client_options_error(options));  // no socket path
  options.socket_path = "/tmp/x.sock";
  EXPECT_FALSE(client_options_error(options));
  ClientOptions chaos = options;
  chaos.chaos.enabled = true;
  chaos.chaos.p_garbage = 0.1;
  chaos.trace = false;
  // Untraced + duplicate/garbage chaos would deliver a stray line as some
  // later request's answer: rejected up front, never a silent corruption.
  EXPECT_TRUE(client_options_error(chaos));
  chaos.trace = true;
  EXPECT_FALSE(client_options_error(chaos));
  ClientOptions sum = options;
  sum.chaos.p_sever = 0.6;
  sum.chaos.p_stall = 0.6;
  EXPECT_TRUE(client_options_error(sum));  // probabilities sum over 1
}

TEST(SrvClient, RetriesThroughSeededChaos) {
  TempDir dir("chaos_client");
  ModelRegistry registry(dir.path());
  const ModelBundle v1 = srv_bundle("m", 7);
  ASSERT_TRUE(registry.put(v1));
  const std::string socket_path = dir.path() + "/daemon.sock";
  SocketDaemon daemon(dir.path(), socket_path);

  ClientOptions copts;
  copts.socket_path = socket_path;
  copts.client_name = "chaos";
  copts.connect_deadline_s = 10.0;
  copts.request_deadline_s = 30.0;
  copts.max_retries = 64;
  copts.backoff_base_ms = 0.5;
  copts.backoff_cap_ms = 5.0;
  copts.chaos.enabled = true;
  copts.chaos.seed = 7;
  copts.chaos.p_sever = 0.08;
  copts.chaos.p_stall = 0.05;
  copts.chaos.p_truncate = 0.08;
  copts.chaos.p_duplicate = 0.08;
  copts.chaos.p_garbage = 0.08;
  copts.chaos.stall_ms = 1.0;
  ServeClient client(std::move(copts));
  const std::vector<double> row = srv_row(5);
  const double want = v1.estimator.predict_row(row);
  for (int i = 0; i < 60; ++i) {
    std::string error;
    const std::optional<double> got = client.estimate("c", "m", row, &error);
    ASSERT_TRUE(got) << "request " << i << ": " << error;
    // The whole point: chaos may cost retries, never correctness.
    EXPECT_EQ(*got, want);
  }
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.ok, 60u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.transport_faults, 0u);
  EXPECT_GT(stats.stray_lines, 0u);  // duplicates/garbage were id-filtered
  EXPECT_GT(stats.reconnects, 0u);
  EXPECT_GT(client.chaos_faults(), 0);
  client.close();
}

TEST(SrvClient, BreakerOpensAndRecovers) {
  TempDir dir("breaker");
  const std::string socket_path = dir.path() + "/daemon.sock";
  ClientOptions copts;
  copts.socket_path = socket_path;
  copts.client_name = "brk";
  copts.connect_deadline_s = 0.05;
  copts.request_deadline_s = 0.1;
  copts.max_retries = 0;
  copts.breaker_threshold = 2;
  copts.breaker_cooldown_s = 0.05;
  ServeClient client(std::move(copts));
  std::string error;
  EXPECT_FALSE(client.ping(&error));  // no daemon yet: transport failure
  EXPECT_FALSE(client.ping(&error));  // second consecutive failure opens it
  EXPECT_EQ(client.stats().breaker_opens, 1u);
  EXPECT_FALSE(client.ping(&error));  // within the cooldown: fail fast
  EXPECT_GE(client.stats().breaker_fastfails, 1u);
  EXPECT_EQ(error, "circuit breaker open");

  // Bring a daemon up; once the cooldown passes, a half-open probe closes
  // the breaker and normal service resumes.
  ModelRegistry registry(dir.path());
  ASSERT_TRUE(registry.put(srv_bundle("m", 7)));
  SocketDaemon daemon(dir.path(), socket_path);
  bool ok = false;
  for (int i = 0; i < 100 && !ok; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ok = client.ping(&error);
  }
  EXPECT_TRUE(ok) << error;
  EXPECT_TRUE(client.ping(&error)) << error;  // breaker closed, stays closed
  client.close();
}

// -- supervised self-healing daemon -----------------------------------------

SupervisedOptions test_supervised_options(const std::string& registry_dir,
                                          const std::string& socket_path,
                                          const CancelToken* cancel) {
  // The child is this very test binary re-executed through the
  // --serve-child hook (answered in test_main.cpp before gtest runs).
  SupervisedOptions sup;
  sup.socket_path = socket_path;
  sup.child_args = {"--serve-child", registry_dir, "{LISTEN_FD}",
                    socket_path + ".stats.json"};
  sup.heartbeat_path = socket_path + ".stats.json";
  sup.heartbeat_timeout_s = 30.0;  // child exits drive respawn in tests
  sup.backoff_base_ms = 10.0;
  sup.backoff_cap_ms = 50.0;
  sup.grace_seconds = 3.0;
  sup.poll_ms = 5.0;
  sup.quiet = true;
  sup.cancel = cancel;
  return sup;
}

TEST(SrvSupervised, OptionValidationFailsFast) {
  SupervisedOptions sup;
  EXPECT_TRUE(supervised_options_error(sup));  // no socket
  sup.socket_path = "/tmp/x.sock";
  EXPECT_TRUE(supervised_options_error(sup));  // no child args
  sup.child_args = {"serve"};
  EXPECT_TRUE(supervised_options_error(sup));  // no {LISTEN_FD} slot
  sup.child_args = {"serve", "--listen-fd", "{LISTEN_FD}"};
  EXPECT_FALSE(supervised_options_error(sup));
  sup.max_respawns = -1;
  EXPECT_TRUE(supervised_options_error(sup));
}

TEST(SrvSupervised, RespawnsKilledDaemonAndServes) {
  TempDir dir("supervised");
  ModelRegistry registry(dir.path());
  const ModelBundle v1 = srv_bundle("m", 7);
  ASSERT_TRUE(registry.put(v1));
  const std::string socket_path = dir.path() + "/sup.sock";
  CancelToken cancel;
  SupervisedOptions sup =
      test_supervised_options(dir.path(), socket_path, &cancel);
  std::mutex mutex;
  std::vector<pid_t> pids;
  sup.on_spawn = [&](pid_t pid) {
    std::lock_guard<std::mutex> lock(mutex);
    pids.push_back(pid);
  };
  SupervisedResult result;
  std::thread supervisor([&] { result = run_supervised(sup); });

  ClientOptions copts;
  copts.socket_path = socket_path;
  copts.client_name = "sup";
  copts.connect_deadline_s = 15.0;
  copts.request_deadline_s = 30.0;
  ServeClient client(std::move(copts));
  const std::vector<double> row = srv_row(5);
  const double want = v1.estimator.predict_row(row);
  std::string error;
  std::optional<double> got = client.estimate("c", "m", row, &error);
  ASSERT_TRUE(got) << error;
  EXPECT_EQ(*got, want);

  pid_t first = -1;
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_FALSE(pids.empty());
    first = pids.front();
  }
  ASSERT_EQ(::kill(first, SIGKILL), 0);
  // The supervisor keeps the listener bound while it respawns, so the
  // client's reconnect parks in the backlog and the retried answer is
  // bit-identical -- a kill -9 costs a latency blip, nothing else.
  got = client.estimate("c", "m", row, &error);
  ASSERT_TRUE(got) << error;
  EXPECT_EQ(*got, want);
  EXPECT_GT(client.stats().reconnects + client.stats().retries, 0u);
  client.close();

  cancel.cancel();
  supervisor.join();
  EXPECT_EQ(result.exit_code, 130);
  EXPECT_GE(result.spawns, 2);
  EXPECT_GE(result.respawns, 1);
  EXPECT_EQ(result.error, "");
  // The supervisor unlinked its socket on the way out.
  EXPECT_FALSE(fs::exists(socket_path));
}

// -- chaos campaign ---------------------------------------------------------

TEST(SrvChaosCampaign, SixteenClientsBitIdenticalUnderChaos) {
  TempDir dir("campaign");
  ModelRegistry registry(dir.path());
  const ModelBundle v1 = srv_bundle("m", 7);
  ASSERT_TRUE(registry.put(v1));
  const std::string socket_path = dir.path() + "/campaign.sock";
  CancelToken cancel;
  SupervisedOptions sup =
      test_supervised_options(dir.path(), socket_path, &cancel);
  std::atomic<pid_t> current_child{-1};
  sup.on_spawn = [&](pid_t pid) { current_child.store(pid); };
  SupervisedResult result;
  std::thread supervisor([&] { result = run_supervised(sup); });

  // 16 closed-loop clients, each under its own deterministically seeded
  // chaos stream, while the daemon is SIGKILLed under load. Acceptance:
  // zero wrong answers -- every delivered OK is bit-identical to the
  // no-chaos prediction -- and zero gave-up requests.
  constexpr int kClients = 16;
  constexpr int kRequests = 25;
  std::vector<ClientStats> stats(kClients);
  std::vector<int> wrong(kClients, 0);
  std::vector<int> gave_up(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.socket_path = socket_path;
      copts.client_name = "camp" + std::to_string(c);
      copts.connect_deadline_s = 20.0;
      copts.request_deadline_s = 60.0;
      copts.max_retries = 200;
      copts.backoff_base_ms = 1.0;
      copts.backoff_cap_ms = 20.0;
      copts.chaos.enabled = true;
      copts.chaos.seed = task_seed(99, copts.client_name);
      copts.chaos.p_sever = 0.05;
      copts.chaos.p_truncate = 0.05;
      copts.chaos.p_duplicate = 0.05;
      copts.chaos.p_garbage = 0.05;
      ServeClient client(std::move(copts));
      for (int i = 0; i < kRequests; ++i) {
        const std::vector<double> row =
            srv_row(task_seed(static_cast<std::uint64_t>(c), "row") + i);
        const double want = v1.estimator.predict_row(row);
        std::string error;
        const std::optional<double> got =
            client.estimate("tenant", "m", row, &error);
        if (!got) {
          ++gave_up[c];
        } else if (*got != want) {
          ++wrong[c];
        }
      }
      stats[c] = client.stats();
    });
  }

  // Two daemon kills while the fleet is (very likely) mid-load; respawn is
  // asserted regardless, because each SIGKILL lands on a live child pid.
  for (int round = 0; round < 2; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const pid_t pid = current_child.load();
    if (pid > 0) (void)::kill(pid, SIGKILL);
  }
  for (std::thread& thread : threads) thread.join();

  std::uint64_t total_ok = 0;
  std::uint64_t total_retries = 0;
  std::uint64_t total_reconnects = 0;
  std::uint64_t total_strays = 0;
  int total_wrong = 0;
  int total_gave_up = 0;
  for (int c = 0; c < kClients; ++c) {
    total_ok += stats[c].ok;
    total_retries += stats[c].retries;
    total_reconnects += stats[c].reconnects;
    total_strays += stats[c].stray_lines;
    total_wrong += wrong[c];
    total_gave_up += gave_up[c];
  }
  EXPECT_EQ(total_wrong, 0);
  EXPECT_EQ(total_gave_up, 0);
  EXPECT_EQ(total_ok,
            static_cast<std::uint64_t>(kClients) * kRequests);
  EXPECT_GT(total_retries, 0u);
  EXPECT_GT(total_reconnects, 0u);
  EXPECT_GT(total_strays, 0u);

  cancel.cancel();
  supervisor.join();
  EXPECT_EQ(result.exit_code, 130);
  EXPECT_GE(result.respawns, 1);
}

}  // namespace
}  // namespace mf
