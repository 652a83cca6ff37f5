#include "srv/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/io_util.hpp"
#include "common/parse_num.hpp"
#include "core/features.hpp"

namespace mf {
namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

std::string errno_text() { return std::strerror(errno); }

}  // namespace

std::optional<std::string> server_options_error(const ServerOptions& o) {
  if (o.registry_dir.empty()) return "registry directory must not be empty";
  const bool socket_mode = !o.socket_path.empty() || o.listen_fd >= 0;
  if (socket_mode == o.stdio) {
    return "choose exactly one of --socket PATH and --stdio";
  }
  if (!o.socket_path.empty() &&
      o.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return "socket path too long for sockaddr_un";
  }
  if (o.jobs < 0) return "jobs must be >= 0";
  if (o.max_loaded_bundles < 1) return "bundle LRU capacity must be >= 1";
  if (!(o.coalesce.coalesce_us >= 0.0 && o.coalesce.coalesce_us <= 1e7)) {
    return "coalesce budget must be 0..1e7 microseconds";
  }
  if (o.coalesce.max_batch < 1) return "max batch must be >= 1";
  if (o.coalesce.queue_capacity < o.coalesce.max_batch) {
    return "queue capacity must hold at least one full batch";
  }
  if (o.quota.rate_per_second < 0.0) return "quota rate must be >= 0";
  if (o.quota.rate_per_second > 0.0 && o.quota.burst < 1.0) {
    return "quota burst must be >= 1 when quotas are enabled";
  }
  if (o.canary.percent < 0 || o.canary.percent > 100) {
    return "canary percent must be 0..100";
  }
  if (o.canary.fail_threshold < 1) return "canary fail threshold must be >= 1";
  if (o.canary.promote_after < 1) return "canary promote-after must be >= 1";
  if (!(o.reload_poll_seconds > 0.0)) return "reload poll must be > 0 seconds";
  if (!(o.stats_interval_seconds > 0.0)) {
    return "stats interval must be > 0 seconds";
  }
  if (o.max_connections < 1) return "max connections must be >= 1";
  return std::nullopt;
}

namespace {

ServiceOptions make_service_options(const ServerOptions& o) {
  ServiceOptions service;
  service.max_loaded_bundles = o.max_loaded_bundles;
  service.jobs = o.jobs;
  // The daemon routes every request to an explicit pinned version, so the
  // service breaker / fallback-CF machinery (a newest-resolve policy) stays
  // disabled; degraded-mode decisions belong to the canary controller here.
  service.breaker_failure_threshold = 0;
  return service;
}

}  // namespace

EstimatorServer::EstimatorServer(ServerOptions options)
    : options_(std::move(options)),
      service_(options_.registry_dir, make_service_options(options_)),
      quota_(options_.quota) {
  const std::optional<std::string> error = server_options_error(options_);
  MF_CHECK_MSG(!error, error ? *error : "");
  coalescer_ = std::make_unique<Coalescer>(
      options_.coalesce, [this](const std::vector<BatchItem>& items) {
        return flush_batch(items);
      });
  start_ = std::chrono::steady_clock::now();
}

EstimatorServer::~EstimatorServer() {
  if (maintenance_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(maint_mutex_);
      maint_stop_ = true;
    }
    maint_cv_.notify_all();
    maintenance_.join();
  }
  // coalescer_'s destructor drains pending rows and joins the flusher.
}

int EstimatorServer::run() {
  start_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(maint_mutex_);
    maint_stop_ = false;
  }
  maintenance_ = std::thread([this] { maintenance_loop(); });
  const int code = options_.stdio ? run_stdio() : run_socket();
  {
    std::lock_guard<std::mutex> lock(maint_mutex_);
    maint_stop_ = true;
  }
  maint_cv_.notify_all();
  maintenance_.join();
  // One final snapshot after the drain so the metrics file agrees with the
  // daemon's last answered request.
  write_stats_snapshot();
  return code;
}

int EstimatorServer::run_stdio() {
  ignore_sigpipe();
  serve_stream(STDIN_FILENO, STDOUT_FILENO);
  return cancelled() ? 130 : 0;
}

int bind_unix_listener(const std::string& path, std::string* error) {
  const auto fail = [&](std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return -1;
  };
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return fail("socket path empty or too long for sockaddr_un");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return fail("socket(): " + errno_text());
  int rc = ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr);
  if (rc != 0 && errno == EADDRINUSE) {
    // A socket file already exists. A *live* daemon answers a probe
    // connect -- that is a hard conflict (fail fast, never a partial
    // listen). A stale file from a dead daemon refuses the probe and is
    // silently replaced.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool live =
        probe >= 0 && ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof addr) == 0;
    if (probe >= 0) ::close(probe);
    if (live) {
      ::close(listen_fd);
      return fail("address already in use: " + path);
    }
    ::unlink(path.c_str());
    rc = ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr);
  }
  if (rc != 0) {
    ::close(listen_fd);
    return fail("bind(" + path + "): " + errno_text());
  }
  if (::listen(listen_fd, 64) != 0) {
    ::close(listen_fd);
    ::unlink(path.c_str());
    return fail("listen(" + path + "): " + errno_text());
  }
  return listen_fd;
}

int EstimatorServer::run_socket() {
  ignore_sigpipe();
  // Either this daemon owns the listener lifecycle (bind here, unlink at
  // exit) or a supervisor handed one down and keeps the socket file alive
  // across respawns.
  const bool owns_listener = options_.listen_fd < 0;
  int listen_fd = options_.listen_fd;
  if (owns_listener) {
    std::string error;
    listen_fd = bind_unix_listener(options_.socket_path, &error);
    if (listen_fd < 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      last_error_ = std::move(error);
      return 2;
    }
  }

  int exit_code = 0;
  while (!cancelled()) {
    if (!wait_readable(listen_fd, 100)) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      std::lock_guard<std::mutex> lock(mutex_);
      last_error_ = "accept(): " + errno_text();
      exit_code = 2;
      break;
    }
    bool admit = false;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (active_connections_ < options_.max_connections) {
        admit = true;
        ++active_connections_;
      }
    }
    if (!admit) {
      (void)write_all(conn, format_err(kErrShutdown, "too many connections"));
      ::close(conn);
      continue;
    }
    // Detached but counted: the thread's last act is decrementing the
    // active count under conn_mutex_, and run_socket below waits for zero,
    // so no connection thread ever outlives the server object.
    std::thread([this, conn] {
      serve_stream(conn, conn);
      ::close(conn);
      std::lock_guard<std::mutex> lock(conn_mutex_);
      --active_connections_;
      conn_cv_.notify_all();
    }).detach();
  }
  ::close(listen_fd);
  if (owns_listener) ::unlink(options_.socket_path.c_str());
  {
    std::unique_lock<std::mutex> lock(conn_mutex_);
    conn_cv_.wait(lock, [this] { return active_connections_ == 0; });
  }
  if (exit_code != 0) return exit_code;
  return cancelled() ? 130 : 0;
}

void EstimatorServer::serve_stream(int in_fd, int out_fd) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.connections;
  }
  std::string buffer;
  std::string out;
  std::vector<Slot> slots;
  for (;;) {
    if (cancelled()) break;
    if (!wait_readable(in_fd, 50)) continue;
    const std::optional<std::size_t> n = read_some(in_fd, buffer);
    if (!n || *n == 0) break;  // read error or EOF
    if (buffer.size() > kMaxLineBytes &&
        buffer.find('\n') == std::string::npos) {
      (void)write_all(out_fd, format_err(kErrBadRequest, "line too long"));
      return;
    }
    out.clear();
    while (std::optional<std::string> line = pop_line(buffer)) {
      handle_line(*line, slots);
    }
    settle(slots, out);
    // Peer hung up mid-write (EPIPE): the work is done, drop the rest.
    if (!out.empty() && !write_all(out_fd, out)) return;
  }
  // Drain: requests whose full line was already read are still answered,
  // so cancellation never drops accepted work on the floor.
  out.clear();
  while (std::optional<std::string> line = pop_line(buffer)) {
    handle_line(*line, slots);
  }
  settle(slots, out);
  if (!out.empty()) (void)write_all(out_fd, out);
}

void EstimatorServer::handle_line(const std::string& line,
                                  std::vector<Slot>& slots) {
  if (line.find_first_not_of(" \t") == std::string::npos) return;
  Slot slot;
  slot.start = std::chrono::steady_clock::now();
  std::string error;
  std::optional<Request> request = parse_request(line, &error, &slot.trace);
  if (!request) {
    slot.ready = format_err(kErrBadRequest, error, slot.trace);
    slots.push_back(std::move(slot));
    return;
  }
  switch (request->verb) {
    case ReqVerb::Ping:
      slot.ready = format_ok("pong", slot.trace);
      break;
    case ReqVerb::Stats:
      slot.is_stats = true;
      break;
    case ReqVerb::Info:
      slot.ready = handle_info(*request);
      break;
    case ReqVerb::Trace:
      slot.is_trace = true;
      slot.query = std::move(request->query);
      break;
    case ReqVerb::Estimate: {
      slot.is_estimate = true;
      if (cancelled()) {
        slot.ready = format_err(kErrShutdown, "shutting down", slot.trace);
        break;
      }
      // Admission control before the queue: an over-quota request is shed
      // here and never costs anybody else's batch a slot.
      if (!quota_.try_acquire(request->client, steady_now_ns())) {
        slot.ready = format_err(
            kErrOverQuota, "client '" + request->client + "' over quota",
            slot.trace);
        break;
      }
      if (!slot.trace.empty()) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.traced;
      }
      slot.ticket = coalescer_->submit({std::move(request->client),
                                        std::move(request->model),
                                        std::move(request->features),
                                        slot.trace});
      break;
    }
  }
  slots.push_back(std::move(slot));
}

void EstimatorServer::settle(std::vector<Slot>& slots, std::string& out) {
  for (Slot& slot : slots) {
    std::string response;
    if (slot.ticket != nullptr) {
      const BatchResult result = coalescer_->wait(slot.ticket);
      response = result.ok ? format_ok_cf(result.value, slot.trace)
                           : format_err(result.code, result.reason, slot.trace);
    } else if (slot.is_stats) {
      response = format_ok(stats_payload(), slot.trace);
    } else if (slot.is_trace) {
      response = handle_trace(slot.query, slot.trace);
    } else {
      response = std::move(slot.ready);
    }
    const int code = response_code(response);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.requests;
      switch (code) {
        case 0: ++stats_.ok; break;
        case kErrBadRequest: ++stats_.err_bad_request; break;
        case kErrNoModel: ++stats_.err_no_model; break;
        case kErrOverQuota: ++stats_.err_over_quota; break;
        case kErrShutdown: ++stats_.err_shutdown; break;
        default: ++stats_.err_internal; break;
      }
      if (slot.is_estimate) stats_.request_ns.record(elapsed_ns(slot.start));
    }
    out += response;
  }
  slots.clear();
}

std::pair<int, bool> EstimatorServer::route(const std::string& model,
                                            const std::string& client) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = models_.find(model);
      if (it != models_.end()) {
        const CanaryController& ctl = it->second;
        const CanaryStatus& status = ctl.status();
        if (status.stable_version != 0 || attempt == 1) {
          if (ctl.use_canary(client)) return {status.canary_version, true};
          return {status.stable_version, false};
        }
      }
    }
    // First sight of the model (or still nothing loaded): do its initial
    // registry scan synchronously so the first request can be served.
    reload_model(model);
  }
  return {0, false};
}

std::vector<BatchResult> EstimatorServer::flush_batch(
    const std::vector<BatchItem>& items) {
  std::vector<BatchResult> results(items.size());
  // Group by (model, routed version): one pinned predict_rows per group,
  // arrival order preserved within each. Prediction is pure per row, so
  // this grouping is invisible in the results (the bench's bit-identity
  // gate) -- only in the throughput.
  struct Group {
    std::string model;
    int version = 0;
    bool canary = false;
    std::vector<std::size_t> idx;
  };
  std::vector<Group> groups;
  std::map<std::pair<std::string, int>, std::size_t> group_of;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    const auto [version, canary_arm] = route(item.model, item.client);
    if (version == 0) {
      results[i] = {false, 0.0, kErrNoModel,
                    "no usable bundle for '" + item.model + "'"};
      record_trace(item, 0, kErrNoModel);
      continue;
    }
    const auto key = std::make_pair(item.model, version);
    const auto found = group_of.find(key);
    std::size_t g;
    if (found == group_of.end()) {
      g = groups.size();
      group_of.emplace(key, g);
      groups.push_back({item.model, version, canary_arm, {}});
    } else {
      g = found->second;
    }
    groups[g].idx.push_back(i);
  }

  for (const Group& group : groups) {
    const std::shared_ptr<const ModelBundle> bundle =
        service_.bundle(group.model, group.version);
    const std::size_t width =
        bundle != nullptr
            ? feature_names(bundle->estimator.features()).size()
            : 0;
    std::vector<std::size_t> keep;
    std::vector<std::vector<double>> rows;
    for (const std::size_t i : group.idx) {
      if (bundle != nullptr && items[i].row.size() != width) {
        results[i] = {false, 0.0, kErrBadRequest,
                      "expected " + std::to_string(width) + " features for '" +
                          group.model + "'"};
        record_trace(items[i], 0, kErrBadRequest);
        continue;
      }
      keep.push_back(i);
      rows.push_back(items[i].row);
    }
    if (keep.empty()) continue;
    const auto predict_start = std::chrono::steady_clock::now();
    std::optional<std::vector<double>> out;
    if (bundle != nullptr) {
      out = service_.predict_rows(group.model, rows, group.version);
    }
    if (out) {
      const std::uint64_t predict_ns = elapsed_ns(predict_start);
      for (std::size_t j = 0; j < keep.size(); ++j) {
        results[keep[j]] = {true, (*out)[j], 0, {}};
        record_trace(items[keep[j]], predict_ns, 0);
      }
      if (group.canary) note_canary(group.model, keep.size(), true);
      continue;
    }
    if (!group.canary) {
      for (const std::size_t i : keep) {
        results[i] = {false, 0.0, kErrNoModel,
                      "no usable bundle for '" + group.model + "'"};
        record_trace(items[i], 0, kErrNoModel);
      }
      continue;
    }
    // The canary failed at serve time. Clients never see a canary error:
    // record the failures (rollback bookkeeping) and re-serve every row
    // from the stable version.
    note_canary(group.model, keep.size(), false);
    int stable = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = models_.find(group.model);
      if (it != models_.end()) stable = it->second.status().stable_version;
    }
    std::optional<std::vector<double>> fallback;
    if (stable != 0) {
      fallback = service_.predict_rows(group.model, rows, stable);
    }
    const std::uint64_t predict_ns = elapsed_ns(predict_start);
    for (std::size_t j = 0; j < keep.size(); ++j) {
      if (fallback) {
        results[keep[j]] = {true, (*fallback)[j], 0, {}};
        record_trace(items[keep[j]], predict_ns, 0);
      } else {
        results[keep[j]] = {false, 0.0, kErrNoModel,
                            "no usable bundle for '" + group.model + "'"};
        record_trace(items[keep[j]], predict_ns, kErrNoModel);
      }
    }
  }
  return results;
}

void EstimatorServer::note_canary(const std::string& model, std::size_t count,
                                  bool ok) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(model);
  if (it == models_.end()) return;
  for (std::size_t i = 0; i < count; ++i) it->second.on_canary_result(ok);
}

void EstimatorServer::reload_model(const std::string& name) {
  // Directory scan before taking the lock; the per-version loads below go
  // through the service's pinned LRU (its own mutex, never nested the
  // other way around).
  const std::vector<RegistryEntry> entries = service_.registry().list();
  std::lock_guard<std::mutex> lock(mutex_);
  CanaryController& ctl =
      models_.try_emplace(name, options_.canary).first->second;
  // Entries arrive newest-version-first per name: try the newest candidate
  // the controller still wants, fall back version by version on load
  // failures (each one feeds the canary breaker), stop at the stable line.
  for (const RegistryEntry& entry : entries) {
    if (entry.name != name) continue;
    const int want = ctl.version_to_load(entry.version);
    if (want == 0) {
      if (entry.version <= ctl.status().stable_version) break;
      continue;  // bad or already-live version; consider older ones
    }
    if (service_.bundle(name, want) != nullptr) {
      ctl.on_load_ok(want);
      break;
    }
    ctl.on_load_failed(want);
  }
}

void EstimatorServer::reload_now() {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.reload_scans;
    names.reserve(models_.size());
    for (const auto& [name, ctl] : models_) names.push_back(name);
  }
  for (const std::string& name : names) reload_model(name);
}

void EstimatorServer::maintenance_loop() {
  const auto poll = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.reload_poll_seconds));
  const auto snapshot_every = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.stats_interval_seconds));
  auto next_snapshot = std::chrono::steady_clock::now() + snapshot_every;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(maint_mutex_);
      maint_cv_.wait_for(lock, poll, [this] { return maint_stop_; });
      if (maint_stop_) return;
    }
    reload_now();
    if (!options_.stats_json_path.empty() &&
        std::chrono::steady_clock::now() >= next_snapshot) {
      write_stats_snapshot();
      next_snapshot = std::chrono::steady_clock::now() + snapshot_every;
    }
  }
}

std::string EstimatorServer::handle_info(const Request& request) {
  int stable = 0;
  int canary = 0;
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = models_.find(request.model);
    if (it != models_.end()) {
      known = true;
      stable = it->second.status().stable_version;
      canary = it->second.status().canary_version;
    }
  }
  if (!known || stable == 0) {
    reload_model(request.model);
    std::lock_guard<std::mutex> lock(mutex_);
    const CanaryStatus& status = models_.at(request.model).status();
    stable = status.stable_version;
    canary = status.canary_version;
  }
  const std::shared_ptr<const ModelBundle> bundle =
      stable != 0 ? service_.bundle(request.model, stable) : nullptr;
  if (bundle == nullptr) {
    return format_err(kErrNoModel,
                      "no usable bundle for '" + request.model + "'",
                      request.trace);
  }
  std::string payload = "model=" + request.model;
  payload += " stable=v" + std::to_string(stable);
  payload += canary != 0 ? " canary=v" + std::to_string(canary)
                         : std::string(" canary=none");
  payload += " kind=" + std::string(to_string(bundle->estimator.kind()));
  payload +=
      " features=" + std::string(to_string(bundle->estimator.features()));
  payload += " width=" +
             std::to_string(feature_names(bundle->estimator.features()).size());
  return format_ok(payload, request.trace);
}

std::string EstimatorServer::handle_trace(const std::string& query,
                                          const std::string& trace) {
  std::optional<TraceRecord> record;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = traces_.find(query);
    if (it != traces_.end()) record = it->second;
  }
  if (!record) {
    return format_err(kErrNoModel, "no trace for '" + query + "'", trace);
  }
  std::string payload = "id=" + query;
  payload += " queue_us=" + std::to_string(record->queue_us);
  payload += " batch=" + std::to_string(record->batch);
  payload += " predict_us=" + std::to_string(record->predict_us);
  payload += record->code == 0
                 ? std::string(" verdict=ok")
                 : " verdict=err" + std::to_string(record->code);
  return format_ok(payload, trace);
}

void EstimatorServer::record_trace(const BatchItem& item,
                                   std::uint64_t predict_ns, int code) {
  if (item.trace.empty()) return;
  TraceRecord record;
  record.queue_us = item.queue_ns / 1000;
  record.batch = item.batch_size;
  record.predict_us = predict_ns / 1000;
  record.code = code;
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.trace_queue_ns.record(item.queue_ns);
  stats_.trace_batch.record(item.batch_size);
  stats_.trace_predict_ns.record(predict_ns);
  // A retried request re-uses its id (idempotent retry); latest wins and
  // the FIFO keeps the original eviction slot.
  const auto [it, inserted] = traces_.insert_or_assign(item.trace, record);
  (void)it;
  if (inserted) {
    trace_order_.push_back(item.trace);
    if (trace_order_.size() > kTraceCapacity) {
      traces_.erase(trace_order_.front());
      trace_order_.pop_front();
      ++stats_.trace_evicted;
    }
  }
}

EstimatorServer::StatsView EstimatorServer::collect_stats() {
  StatsView view;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    view.server = stats_;
    view.models = models_.size();
    for (const auto& [name, ctl] : models_) {
      const CanaryStatus& status = ctl.status();
      view.canaries_started += status.canaries_started;
      view.promotions += status.promotions;
      view.rollbacks += status.rollbacks;
    }
  }
  view.service = service_.snapshot();
  view.coalescer = coalescer_->stats();
  view.quota_admitted = quota_.admitted_total();
  view.quota_shed = quota_.shed_total();
  view.uptime_s =
      static_cast<double>(elapsed_ns(start_)) * 1e-9;
  view.qps = view.uptime_s > 0.0
                 ? static_cast<double>(view.server.requests) / view.uptime_s
                 : 0.0;
  return view;
}

std::vector<std::pair<const char*, std::uint64_t>>
EstimatorServer::StatsView::counters() const {
  return {
      {"requests", server.requests},
      {"ok", server.ok},
      {"err400", server.err_bad_request},
      {"err404", server.err_no_model},
      {"err429", server.err_over_quota},
      {"err500", server.err_internal},
      {"err503", server.err_shutdown},
      {"p50_us", server.request_ns.quantile_max(0.5) / 1000},
      {"p99_us", server.request_ns.quantile_max(0.99) / 1000},
      {"predict_p50_us", service.latency.quantile_max(0.5) / 1000},
      {"predict_p99_us", service.latency.quantile_max(0.99) / 1000},
      {"rows", service.rows},
      {"bundle_loads", service.bundle_loads},
      {"lru_hits", service.lru_hits},
      {"flushes", coalescer.flushes},
      {"full_flushes", coalescer.full_flushes},
      {"budget_flushes", coalescer.budget_flushes},
      {"batch_p50", coalescer.batch_fill.quantile_max(0.5)},
      {"batch_p99", coalescer.batch_fill.quantile_max(0.99)},
      {"queue_p50", coalescer.queue_depth.quantile_max(0.5)},
      {"queue_p99", coalescer.queue_depth.quantile_max(0.99)},
      {"admitted", quota_admitted},
      {"shed", quota_shed},
      {"connections", server.connections},
      {"reload_scans", server.reload_scans},
      {"models", models},
      {"canaries", canaries_started},
      {"promotions", promotions},
      {"rollbacks", rollbacks},
      {"traced", server.traced},
      {"trace_evicted", server.trace_evicted},
      {"trace_queue_p50_us", server.trace_queue_ns.quantile_max(0.5) / 1000},
      {"trace_queue_p99_us", server.trace_queue_ns.quantile_max(0.99) / 1000},
      {"trace_batch_p50", server.trace_batch.quantile_max(0.5)},
      {"trace_batch_p99", server.trace_batch.quantile_max(0.99)},
      {"trace_predict_p50_us",
       server.trace_predict_ns.quantile_max(0.5) / 1000},
      {"trace_predict_p99_us",
       server.trace_predict_ns.quantile_max(0.99) / 1000},
  };
}

std::string EstimatorServer::stats_payload() {
  const StatsView v = collect_stats();
  char head[96];
  std::snprintf(head, sizeof head, "uptime_s=%.3f qps=%.1f", v.uptime_s,
                v.qps);
  std::string out = head;
  for (const auto& [key, value] : v.counters()) {
    out += ' ';
    out += key;
    out += '=';
    out += std::to_string(value);
  }
  return out;
}

std::string EstimatorServer::stats_json() {
  const StatsView v = collect_stats();
  std::string json = "{\n \"schema_version\": 1,\n";
  json += " \"uptime_s\": " + format_double(v.uptime_s) + ",\n";
  json += " \"qps\": " + format_double(v.qps);
  for (const auto& [key, value] : v.counters()) {
    json += ",\n \"";
    json += key;
    json += "\": ";
    json += std::to_string(value);
  }
  json += "\n}\n";
  return json;
}

void EstimatorServer::write_stats_snapshot() {
  if (options_.stats_json_path.empty()) return;
  // Observability, not durability: skip the fsync (the heartbeat policy) --
  // a reader still sees old-or-new, never a torn file.
  (void)atomic_write_file(options_.stats_json_path, stats_json(), nullptr,
                          AtomicWriteOptions{.sync = false});
}

ServerStats EstimatorServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

CanaryStatus EstimatorServer::canary_status(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(model);
  return it == models_.end() ? CanaryStatus{} : it->second.status();
}

std::string EstimatorServer::last_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_error_;
}

}  // namespace mf
