#pragma once
// `macroflow serve`: the long-running estimator serving daemon
// (DESIGN.md section 13).
//
// One EstimatorServer owns the whole serving stack for a registry
// directory:
//
//   connections (socket or stdio) -> protocol parse -> admission control
//     -> Coalescer (cross-request batching under a latency budget)
//       -> per-model canary routing -> EstimatorService::predict_rows
//
// plus a maintenance thread that rescans the ModelRegistry for new bundle
// versions (hot reload / canary rollout) and writes periodic atomic-rename
// JSON metric snapshots.
//
// Threading model: one detached-equivalent thread per accepted connection
// (counted, bounded by max_connections, joined-by-count at shutdown), the
// coalescer's flush thread, and the maintenance thread. All blocking waits
// are poll()-based with short timeouts (common/io_util.hpp explains why the
// SA_RESTART signal handler makes that mandatory), so a tripped CancelToken
// is noticed within ~50 ms everywhere.
//
// Shutdown contract (the CLI's exit-code contract): a SIGINT trips the
// shared CancelToken; every connection loop finishes answering the requests
// it has already read (drain -- nothing accepted after the trip), the
// listener closes, the maintenance thread writes a final snapshot, and
// run() returns 130. A stdio session that hits EOF returns 0. Listener
// setup failures (unwritable socket path, address in use by a *live*
// daemon) fail fast with 2 before a single request is read; a stale socket
// file from a dead daemon is detected by a probe connect and silently
// replaced.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>
#include <condition_variable>

#include "common/cancel.hpp"
#include "common/histogram.hpp"
#include "serve/service.hpp"
#include "srv/canary.hpp"
#include "srv/coalescer.hpp"
#include "srv/protocol.hpp"
#include "srv/quota.hpp"

namespace mf {

struct ServerOptions {
  /// ModelRegistry directory the daemon serves from.
  std::string registry_dir = "macroflow-models";
  /// Unix-domain socket path (socket mode). Mutually exclusive with stdio.
  std::string socket_path;
  /// Already-listening descriptor inherited from a supervisor (socket
  /// handoff, DESIGN.md section 14). >= 0 selects socket mode, skips
  /// bind/listen, and leaves the socket file alone at shutdown -- the
  /// supervisor owns it, which is what lets clients park in the listen
  /// backlog while a crashed daemon respawns.
  int listen_fd = -1;
  /// Serve stdin/stdout as one connection, exit 0 on EOF (test/pipe mode).
  bool stdio = false;
  /// Prediction threads inside the service (same 0/1 semantics as --jobs).
  int jobs = 1;
  /// Bundle LRU capacity; must hold stable + canary per hot model.
  std::size_t max_loaded_bundles = 8;
  CoalescerOptions coalesce;
  QuotaOptions quota;
  CanaryOptions canary;
  /// Registry rescan cadence for hot reload / canary rollout.
  double reload_poll_seconds = 0.25;
  /// Periodic JSON metrics snapshot ("" = disabled), written atomically.
  std::string stats_json_path;
  double stats_interval_seconds = 1.0;
  /// Concurrent connections; over the cap new ones are answered ERR 503.
  int max_connections = 64;
  const CancelToken* cancel = nullptr;
};

/// Fail-fast validation (the CLI's exit-2 contract, mirroring
/// stitch_options_error): nullopt = valid, otherwise the reason. The
/// constructor MF_CHECKs the same predicate.
std::optional<std::string> server_options_error(const ServerOptions& options);

/// Create, bind, and listen a Unix-domain stream socket at `path`. A stale
/// socket file from a dead daemon (probe connect refused) is silently
/// replaced; a *live* listener is a hard conflict. Returns the listening
/// descriptor, or -1 with `*error` describing the failure. Shared by the
/// daemon's own listener setup and the supervisor's socket handoff.
int bind_unix_listener(const std::string& path, std::string* error);

/// Daemon-level counters (service/coalescer/quota keep their own).
struct ServerStats {
  std::uint64_t connections = 0;      ///< accepted (socket) / streams served
  std::uint64_t requests = 0;         ///< protocol lines answered
  std::uint64_t ok = 0;
  std::uint64_t err_bad_request = 0;  ///< 400
  std::uint64_t err_no_model = 0;     ///< 404
  std::uint64_t err_over_quota = 0;   ///< 429
  std::uint64_t err_internal = 0;     ///< 500
  std::uint64_t err_shutdown = 0;     ///< 503
  std::uint64_t reload_scans = 0;
  std::uint64_t traced = 0;         ///< ESTIMATEs that carried an id= stamp
  std::uint64_t trace_evicted = 0;  ///< records dropped by the FIFO cap
  /// End-to-end ESTIMATE latency (parse -> response ready), ns.
  Log2Histogram request_ns;
  /// Per-traced-request breakdown (what TRACE <id> reports, aggregated).
  Log2Histogram trace_queue_ns;    ///< coalescer queue wait
  Log2Histogram trace_batch;       ///< flush fill the request rode in
  Log2Histogram trace_predict_ns;  ///< its flush group's predict latency
};

class EstimatorServer {
 public:
  explicit EstimatorServer(ServerOptions options);
  ~EstimatorServer();

  EstimatorServer(const EstimatorServer&) = delete;
  EstimatorServer& operator=(const EstimatorServer&) = delete;

  /// Serve until EOF (stdio), a fatal listener error, or cancellation.
  /// Returns the CLI exit code: 0 (stdio EOF), 2 (runtime failure,
  /// last_error() explains), 130 (cancelled).
  int run();

  /// Serve one already-open byte stream until its EOF or cancellation --
  /// run()'s building block, public so tests can drive the full protocol
  /// over a socketpair/pipe without signals or a listener.
  void serve_stream(int in_fd, int out_fd);

  /// Force one registry rescan now (what the maintenance thread does every
  /// reload_poll_seconds) -- lets tests step hot reload deterministically.
  void reload_now();

  [[nodiscard]] ServerStats stats() const;
  /// The STATS verb's payload (also the JSON snapshot's data source).
  std::string stats_payload();
  std::string stats_json();
  /// Canary state for one model (unknown name = all-zero status).
  CanaryStatus canary_status(const std::string& model) const;
  [[nodiscard]] std::string last_error() const;
  [[nodiscard]] EstimatorService& service() noexcept { return service_; }

 private:
  /// One request line's answer slot: either ready immediately or waiting
  /// on a coalescer ticket. Slots are settled in arrival order, which is
  /// what keeps responses matched to requests on a pipelined connection.
  struct Slot {
    std::string ready;
    std::shared_ptr<Coalescer::Ticket> ticket;
    std::chrono::steady_clock::time_point start;
    bool is_estimate = false;
    /// STATS is rendered at settle time, after every earlier request on
    /// the connection has resolved, so a pipelined STATS sees its own
    /// prologue reflected in the counters.
    bool is_stats = false;
    /// TRACE is likewise rendered at settle time, so `ESTIMATE ... id=x`
    /// followed by `TRACE x` on the same pipelined connection finds the
    /// record its predecessor just wrote.
    bool is_trace = false;
    std::string query;  ///< TRACE operand
    std::string trace;  ///< this request's id= stamp, echoed on the answer
  };

  /// What TRACE <id> reports for one completed traced ESTIMATE.
  struct TraceRecord {
    std::uint64_t queue_us = 0;
    std::uint32_t batch = 0;
    std::uint64_t predict_us = 0;
    int code = 0;  ///< 0 = served OK, otherwise the protocol ERR code
  };

  /// Everything the STATS verb / JSON snapshot reports, gathered under one
  /// set of locks so the view is consistent.
  struct StatsView {
    double uptime_s = 0.0;
    double qps = 0.0;
    ServerStats server;
    ServiceStats service;
    CoalescerStats coalescer;
    std::uint64_t quota_admitted = 0;
    std::uint64_t quota_shed = 0;
    std::uint64_t canaries_started = 0;
    std::uint64_t promotions = 0;
    std::uint64_t rollbacks = 0;
    std::size_t models = 0;

    /// Every counter both renderings (the STATS payload and the JSON
    /// snapshot) report after uptime_s and qps, in wire order.
    [[nodiscard]] std::vector<std::pair<const char*, std::uint64_t>>
    counters() const;
  };

  int run_socket();
  int run_stdio();
  void maintenance_loop();
  void handle_line(const std::string& line, std::vector<Slot>& slots);
  std::string handle_info(const Request& request);
  /// Render TRACE <query>'s response (settle-time, see Slot::is_trace).
  std::string handle_trace(const std::string& query, const std::string& trace);
  /// Store one traced request's outcome in the bounded FIFO trace store.
  void record_trace(const BatchItem& item, std::uint64_t predict_ns, int code);
  /// Settle slots in order: wait for tickets, append response bytes to
  /// `out`, count outcomes.
  void settle(std::vector<Slot>& slots, std::string& out);
  /// The coalescer's batch function: canary routing, grouped pinned
  /// predict_rows, canary-failure fallback to stable.
  std::vector<BatchResult> flush_batch(const std::vector<BatchItem>& items);
  /// (version, canary-arm) the item should be served by; version 0 = no
  /// usable bundle. Performs the model's initial registry load on first
  /// sight.
  std::pair<int, bool> route(const std::string& model,
                             const std::string& client);
  /// Rescan the registry for `name` and feed the canary controller
  /// (requires mutex_ NOT held).
  void reload_model(const std::string& name);
  /// Record `count` canary serve outcomes for `model`.
  void note_canary(const std::string& model, std::size_t count, bool ok);
  StatsView collect_stats();
  void write_stats_snapshot();
  [[nodiscard]] bool cancelled() const noexcept {
    return options_.cancel != nullptr && options_.cancel->cancelled();
  }

  ServerOptions options_;
  EstimatorService service_;
  ClientQuota quota_;
  std::unique_ptr<Coalescer> coalescer_;

  mutable std::mutex mutex_;  ///< stats_, models_, last_error_, traces_
  std::map<std::string, CanaryController> models_;
  ServerStats stats_;
  /// Bounded FIFO of completed traced requests: oldest records are evicted
  /// at kTraceCapacity so an id-stamping client can never grow the daemon
  /// without bound.
  static constexpr std::size_t kTraceCapacity = 4096;
  std::map<std::string, TraceRecord> traces_;
  std::deque<std::string> trace_order_;
  std::string last_error_;
  std::chrono::steady_clock::time_point start_;

  /// Connection accounting: run_socket waits for the count to reach zero
  /// before returning, so no connection thread outlives the server.
  std::mutex conn_mutex_;
  std::condition_variable conn_cv_;
  int active_connections_ = 0;

  std::mutex maint_mutex_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;
  std::thread maintenance_;
};

}  // namespace mf
