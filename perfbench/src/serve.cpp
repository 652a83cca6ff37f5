// serve_estimate: ESTIMATE round trips against an in-process EstimatorServer
// on a Unix socket, shipped default ServerOptions, serving a bundle trained
// in set-up. Load is a closed loop of kClients ServeClients (below nproc,
// leaving a core for the coalescer's flush thread); each sends the real
// feature row of one labelled module at a time.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/cancel.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "srv/client.hpp"
#include "srv/server.hpp"
#include "training.hpp"

namespace bench {
namespace {

constexpr int kClients = 3;
constexpr int kWindows = 100;          ///< time windows of an untraced run
/// The serving tail percentile. Above ~p95 the round-trip distribution is
/// set by the host's scheduler: a few percent of requests wait 3-10 ms, and
/// that share moves p95-p99 by 40-70% between runs on a busy shared host.
constexpr double kTailQuantile = 0.90;
constexpr int kDigestRequests = 64;    ///< per client, digested responses
constexpr int kTraceRequests = 1500;   ///< per client, traced op set
const char* const kModel = "bench";

/// What one client thread saw.
struct ClientLog {
  std::vector<float> ms;
  std::vector<float> done_s;  ///< completion time since the load started
  std::vector<double> cfs;    ///< first kDigestRequests responses
  std::vector<std::string> failures;  ///< one line per failed request

  /// Count every request of this log as an op, its failures as failed.
  void report_ops(Report& report) const {
    for (const std::string& why : failures) report.op(why);
    for (std::size_t i = failures.size(); i < ms.size(); ++i) report.op("");
  }
  std::uint64_t retries = 0;
  // Traced runs only.
  double queue_s = 0.0;
  double batch_rows = 0.0;
  long traced = 0;
};

std::optional<double> field(const std::string& payload, const std::string& key) {
  std::istringstream in(payload);
  std::string token;
  while (in >> token) {
    if (token.rfind(key + "=", 0) == 0) {
      return std::strtod(token.c_str() + key.size() + 1, nullptr);
    }
  }
  return std::nullopt;
}

class ServeEstimate final : public Workload {
 public:
  explicit ServeEstimate(const Config& cfg)
      : registry_dir_(cfg.work_dir + "/registry"),
        socket_path_(cfg.work_dir + "/serve.sock") {
    std::filesystem::remove_all(registry_dir_);
    TrainedEstimator trained = train_estimator();
    for (const mf::LabeledModule& sample : trained.samples) {
      rows_.push_back(mf::extract_features(mf::FeatureSet::Additional,
                                           sample.report, sample.shape));
    }
    mf::ModelBundle bundle;
    bundle.name = kModel;
    bundle.provenance.dataset_rows =
        static_cast<std::int64_t>(trained.samples.size());
    bundle.estimator = std::move(trained.estimator);
    MF_CHECK_MSG(mf::ModelRegistry(registry_dir_).put(bundle).has_value(),
                 "cannot register the bundle");

    // Expected answers: in-process predict_rows on the same registry.
    local_ = std::make_unique<mf::EstimatorService>(registry_dir_);
    const std::optional<std::vector<double>> expected =
        local_->predict_rows(kModel, rows_);
    MF_CHECK_MSG(expected.has_value(), "in-process prediction failed");
    expected_ = *expected;

    mf::ServerOptions options;
    options.registry_dir = registry_dir_;
    options.socket_path = socket_path_;
    options.cancel = &cancel_;
    server_ = std::make_unique<mf::EstimatorServer>(options);
    daemon_ = std::thread([this] { (void)server_->run(); });

    // Warm-up: every client connects and is answered once.
    try {
      for (int c = 0; c < kClients; ++c) {
        mf::ServeClient client(client_options(c));
        MF_CHECK_MSG(client.estimate(tenant(c), kModel, rows_[0]).has_value(),
                     "daemon did not answer the warm-up request");
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~ServeEstimate() override { stop(); }
  ServeEstimate(const ServeEstimate&) = delete;
  ServeEstimate& operator=(const ServeEstimate&) = delete;

  void run(const Config& cfg, Report& report) override {
    const Clock::time_point start = Clock::now();
    const Clock::time_point until =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));
    const std::vector<ClientLog> logs = load(cfg, until, -1);

    // Each figure is the median over kWindows equal time windows of the
    // run, so a noise burst in one window does not move it.
    const double window_s = cfg.seconds / kWindows;
    std::vector<std::vector<double>> window_ms(kWindows);
    std::vector<double> all_ms;
    Digest digest;
    std::uint64_t retries = 0;
    for (const ClientLog& log : logs) {
      for (std::size_t i = 0; i < log.ms.size(); ++i) {
        const auto w = static_cast<std::size_t>(log.done_s[i] / window_s);
        window_ms[std::min<std::size_t>(w, kWindows - 1)].push_back(log.ms[i]);
        all_ms.push_back(log.ms[i]);
      }
      for (double cf : log.cfs) digest.f64(cf);
      log.report_ops(report);
      retries += log.retries;
    }
    std::vector<double> rps;
    std::vector<double> p50;
    std::vector<double> tail;
    std::size_t min_samples = std::numeric_limits<std::size_t>::max();
    for (const std::vector<double>& ms : window_ms) {
      rps.push_back(static_cast<double>(ms.size()) / window_s);
      p50.push_back(median(ms));
      tail.push_back(percentile(ms, kTailQuantile));
      min_samples = std::min(min_samples, ms.size());
    }
    report.add("ops_per_s", median(rps), "1/s");
    report.add("op_ms_p50", median(p50), "ms");
    report.add("op_ms_tail", median(tail), "ms");
    report.note("serve_rps", median(rps), "responses/s", "higher");
    report.note("serve_us_p50", 1e3 * median(p50), "us", "lower");
    report.note("serve_us_tail", 1e3 * median(tail), "us", "lower");
    report.note("serve_us_tail.percentile", 100.0 * kTailQuantile, "%");
    report.note("serve_us_tail.windows", kWindows, "count");
    report.note("serve_us_tail.min_window_samples",
                static_cast<double>(min_samples), "count");
    report.note("serve_us_p99.whole_run", 1e3 * percentile(all_ms, 0.99), "us",
                "lower");
    report.note("client_retries", static_cast<double>(retries), "count",
                "lower");
    report.digest = digest.value();
  }

  void run_traced(const Config& cfg, Report& report) override {
    const Clock::time_point far = Clock::now() + std::chrono::hours(1);
    Clock::time_point t0 = Clock::now();
    const std::vector<ClientLog> plain = load(cfg, far, kTraceRequests);
    const double untraced_s = seconds_since(t0);

    std::vector<Tracer> tracers;
    tracers.reserve(kClients);
    for (int c = 0; c < kClients; ++c) tracers.emplace_back(t0);
    t0 = Clock::now();
    const std::vector<ClientLog> traced =
        load(cfg, far, kTraceRequests, &tracers);
    const double traced_s = seconds_since(t0);

    Digest digest;
    long mismatches = 0;
    double queue_s = 0.0;
    double batch_rows = 0.0;
    long traced_n = 0;
    std::uint64_t retries = 0;
    for (int c = 0; c < kClients; ++c) {
      const ClientLog& a = plain[static_cast<std::size_t>(c)];
      const ClientLog& b = traced[static_cast<std::size_t>(c)];
      for (double cf : a.cfs) digest.f64(cf);
      a.report_ops(report);
      b.report_ops(report);
      mismatches += static_cast<long>(b.failures.size());
      queue_s += b.queue_s;
      batch_rows += b.batch_rows;
      traced_n += b.traced;
      retries += b.retries;
    }
    report.digest = digest.value();

    std::vector<const Tracer*> views;
    for (const Tracer& t : tracers) views.push_back(&t);
    const std::map<std::string, SpanTotals> totals = span_totals(views);
    const double op_wall = dump_spans(views, cfg.work_dir + "/spans.tsv");
    add_span_shares(report, totals, op_wall);
    const auto total = [&](const char* span) {
      const auto it = totals.find(span);
      return it == totals.end() ? 0.0 : it->second.total_s;
    };
    const double round_trip = total("srv.estimate");
    const double predict = total("serve.predict");
    report.add("trace.ops", static_cast<double>(kClients * kTraceRequests),
               "count");
    report.add("trace.overhead_share", traced_s / untraced_s - 1.0, "share");
    report.add("trace.replay_mismatches", static_cast<double>(mismatches),
               "count");
    report.add("srv.overhead_share", (round_trip - predict) / round_trip,
               "share");
    report.add("srv.queue_share", queue_s / round_trip, "share");
    report.add("srv.batch_rows_mean",
               traced_n > 0 ? batch_rows / static_cast<double>(traced_n) : 0.0,
               "rows");
    report.add("srv.retries", static_cast<double>(retries), "count");
    const double n = static_cast<double>(kClients * kTraceRequests);
    report.note("round_trip_us_mean", 1e6 * round_trip / n, "us");
    report.note("serve.predict_us_mean", 1e6 * predict / n, "us");
    report.note("srv.overhead_us_mean", 1e6 * (round_trip - predict) / n, "us");
    report.note("srv.queue_us_mean", 1e6 * queue_s / n, "us");
  }

 private:
  void stop() {
    cancel_.cancel();
    if (daemon_.joinable()) daemon_.join();
    server_.reset();
    std::error_code ec;
    std::filesystem::remove(socket_path_, ec);
  }

  static std::string tenant(int c) { return "tenant" + std::to_string(c); }

  mf::ClientOptions client_options(int c) const {
    mf::ClientOptions options;
    options.socket_path = socket_path_;
    options.client_name = tenant(c);
    return options;
  }

  /// Closed-loop load from kClients threads until `until`, or `count`
  /// requests each when count >= 0. Traced loads (one tracer per client)
  /// also ask the daemon's TRACE verb about each request and time
  /// predict_rows on the same row.
  std::vector<ClientLog> load(const Config& cfg, Clock::time_point until,
                              int count,
                              std::vector<Tracer>* tracers = nullptr) {
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<std::size_t>(c)];
        Tracer* tracer = tracers ? &(*tracers)[static_cast<std::size_t>(c)]
                                 : nullptr;
        mf::ServeClient client(client_options(c));
        mf::Rng rng(mf::task_seed(cfg.seed, "client:" + std::to_string(c)));
        for (int k = 0; count < 0 ? Clock::now() < until : k < count; ++k) {
          const std::size_t row = rng.index(rows_.size());
          std::string error;
          std::optional<double> cf;
          if (tracer != nullptr) tracer->set_op(k);
          const Clock::time_point t0 = Clock::now();
          {
            Scope op(tracer, "op");
            {
              Scope span(tracer, "srv.estimate");
              cf = client.estimate(tenant(c), kModel, rows_[row], &error);
            }
            if (tracer != nullptr) trace_one(tracer, client, rows_[row], log);
          }
          log.ms.push_back(static_cast<float>(1e3 * seconds_since(t0)));
          log.done_s.push_back(static_cast<float>(seconds_since(start)));
          if (cfg.inject == "response" && c == 0 && k == 0 && cf) {
            cf = std::nextafter(*cf, 10.0);  // self-test: corrupt one answer
          }
          if (cf && log.cfs.size() < kDigestRequests) log.cfs.push_back(*cf);
          if (!cf) {
            log.failures.push_back(tenant(c) + ": " + error);
          } else if (std::memcmp(&*cf, &expected_[row], sizeof(double)) != 0) {
            log.failures.push_back(tenant(c) +
                                   ": served CF differs from predict_rows");
          }
        }
        log.retries = client.stats().retries;
      });
    }
    for (std::thread& t : threads) t.join();
    return logs;
  }

  void trace_one(Tracer* tracer, mf::ServeClient& client,
                 const std::vector<double>& row, ClientLog& log) {
    const std::string id = client.last_trace_id();
    std::optional<std::string> payload;
    {
      Scope span(tracer, "srv.trace");
      payload = client.trace(id);
    }
    if (payload) {
      log.queue_s += 1e-6 * field(*payload, "queue_us").value_or(0.0);
      log.batch_rows += field(*payload, "batch").value_or(0.0);
      ++log.traced;
    }
    Scope span(tracer, "serve.predict");
    (void)local_->predict_rows(kModel, {row});
  }

  std::string registry_dir_;
  std::string socket_path_;
  std::vector<std::vector<double>> rows_;
  std::vector<double> expected_;
  std::unique_ptr<mf::EstimatorService> local_;
  mf::CancelToken cancel_;
  std::unique_ptr<mf::EstimatorServer> server_;
  std::thread daemon_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_estimate(const Config& cfg) {
  return std::make_unique<ServeEstimate>(cfg);
}

}  // namespace bench
