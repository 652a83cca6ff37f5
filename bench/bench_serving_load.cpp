// Serving-daemon load bench: coalesced batching throughput, tail latency,
// canary rollback, and chaos recovery under a real Unix-domain socket.
//
// Four claims are measured and *checked*, not just timed (MF_CHECK aborts
// on violation; the `bench_serving_load_quick` ctest entry relies on that):
//
//   1. Coalescing pays: many concurrent closed-loop clients sustain >= 5x
//      the QPS of one request-at-a-time client against the same daemon.
//      Each lone request must sit out the full coalesce window alone, while
//      concurrent clients share windows -- the speedup is amortisation, not
//      multicore (the gate holds on a 1-core container).
//   2. Batching is invisible in the bytes: every `OK <cf>` response parses
//      back (shortest round-trip format) to the bit-exact double the
//      bundle's estimator produces for that row in isolation, no matter
//      which rows shared a flush. Tail latency stays bounded: server-side
//      ESTIMATE p99 <= coalesce budget + scheduling slack (measured with a
//      log2 histogram, so the threshold allows its 2x bucket rounding).
//   3. A poisoned newer bundle version rolls back deterministically: with a
//      canary configured, a corrupt v2 trips the load breaker after
//      fail_threshold scans, traffic never leaves v1, and not a single ERR
//      response reaches any client before, during, or after the rollback.
//   4. A SIGKILLed daemon under `--supervised`-equivalent supervision costs
//      clients only latency: 8 closed-loop ServeClients under seeded
//      network chaos ride out a daemon kill with zero wrong answers and
//      zero gave-up requests, and the p99 of requests started after the
//      kill stays under a 10 s recovery bound.
//
// Every client in every phase is a ServeClient (src/srv/client.hpp): the
// retry/trace machinery the CLI uses is the machinery being measured.
//
// Results land in BENCH_SERVING.json. Plain main, like bench_serve: the
// daemon lifecycle does not fit the BM_ harness. The supervised phase
// re-executes this binary as the daemon child via the --serve-child hook
// (answered before anything else in main).

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "serve/registry.hpp"
#include "srv/client.hpp"
#include "srv/server.hpp"
#include "srv/supervised.hpp"

#include "bench_common.hpp"

namespace {

using namespace mf;
namespace fs = std::filesystem;

ModelBundle make_bundle(const std::string& name) {
  Dataset data;
  data.feature_names = feature_names(FeatureSet::Classical);
  Rng rng(7);
  for (std::size_t i = 0; i < 80; ++i) {
    std::vector<double> row(data.feature_names.size());
    double target = 0.4;
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = j % 2 == 0 ? rng.uniform(0.0, 4000.0) : rng.uniform(0.0, 1.0);
      target += row[j] * (j % 3 == 0 ? 2.5e-4 : 0.05);
    }
    data.add(std::move(row), target + rng.uniform(0.0, 0.2),
             "s" + std::to_string(i));
  }
  ModelBundle bundle;
  bundle.name = name;
  bundle.provenance.seed = 3;
  bundle.provenance.dataset_rows = 80;
  bundle.estimator =
      CfEstimator(EstimatorKind::LinearRegression, FeatureSet::Classical);
  bundle.estimator.train(data);
  return bundle;
}

std::vector<std::vector<double>> make_rows(std::size_t n, std::uint64_t seed) {
  const std::size_t dim = feature_names(FeatureSet::Classical).size();
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n);
  for (std::vector<double>& row : rows) {
    row.resize(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = j % 2 == 0 ? rng.uniform(0.0, 5000.0) : rng.uniform(0.0, 1.0);
    }
  }
  return rows;
}

/// Fault-free resilient-client options (phases 1-3: the transport is
/// healthy, the client machinery is just the normal access path).
ClientOptions plain_client_options(const std::string& socket_path,
                                   const std::string& name) {
  ClientOptions options;
  options.socket_path = socket_path;
  options.client_name = name;
  options.connect_deadline_s = 10.0;
  options.request_deadline_s = 60.0;
  return options;
}

double quantile_99(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index =
      std::min(values.size() - 1, (values.size() * 99) / 100);
  return values[index];
}

/// Trips `cancel` and joins `thread` when the scope ends, so a failed
/// MF_CHECK unwinds to main -- which removes the scratch directory --
/// instead of destroying a joinable thread.
class StopAndJoin {
 public:
  StopAndJoin(CancelToken& cancel, std::thread& thread)
      : cancel_(cancel), thread_(thread) {}
  StopAndJoin(const StopAndJoin&) = delete;
  StopAndJoin& operator=(const StopAndJoin&) = delete;
  ~StopAndJoin() {
    cancel_.cancel();
    if (thread_.joinable()) thread_.join();
  }

 private:
  CancelToken& cancel_;
  std::thread& thread_;
};

/// The four phases; every violated claim throws out of here (MF_CHECK).
int run(bool quick, const std::string& dir) {
  const std::string socket_path = dir + "/serve.sock";

  ModelRegistry registry(dir);
  const ModelBundle v1 = make_bundle("m");
  MF_CHECK(registry.put(v1).has_value());

  constexpr double kCoalesceUs = 1000.0;
  CancelToken cancel;
  ServerOptions options;
  options.registry_dir = dir;
  options.socket_path = socket_path;
  options.coalesce.coalesce_us = kCoalesceUs;
  options.coalesce.max_batch = 128;
  options.coalesce.queue_capacity = 512;
  options.canary.percent = 100;
  options.canary.fail_threshold = 3;
  options.reload_poll_seconds = 0.02;
  options.cancel = &cancel;
  EstimatorServer server(options);
  int daemon_code = 0;
  std::thread daemon([&server, &daemon_code] { daemon_code = server.run(); });
  const StopAndJoin stop_daemon(cancel, daemon);

  // -- 1. closed-loop baseline: one request at a time ----------------------
  // Every lone request waits out the full coalesce window by itself, so
  // this is the price of not batching.
  const std::size_t base_n = quick ? 300 : 2000;
  const auto base_rows = make_rows(base_n, 11);
  double base_qps = 0.0;
  {
    ServeClient client(plain_client_options(socket_path, "base"));
    Timer timer;
    for (std::size_t i = 0; i < base_n; ++i) {
      std::string error;
      const std::optional<double> cf =
          client.estimate("base", "m", base_rows[i], &error);
      MF_CHECK_MSG(cf.has_value(), "baseline request failed: " + error);
      MF_CHECK(*cf == v1.estimator.predict_row(base_rows[i]));
    }
    base_qps = static_cast<double>(base_n) / timer.seconds();
  }
  std::printf("closed-loop baseline: %zu requests, %.0f QPS "
              "(coalesce budget %.0f us paid per request)\n",
              base_n, base_qps, kCoalesceUs);

  // -- 2. concurrent load: windows amortise across clients -----------------
  const int clients = quick ? 16 : 32;
  const std::size_t per_client = quick ? 300 : 1500;
  std::atomic<std::uint64_t> identity_misses{0};
  std::atomic<std::uint64_t> errors{0};
  Timer load_timer;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const auto rows = make_rows(per_client, 100 + c);
        ServeClient client(plain_client_options(
            socket_path, "tenant" + std::to_string(c)));
        const std::string name = "tenant" + std::to_string(c);
        for (std::size_t i = 0; i < per_client; ++i) {
          std::string error;
          const std::optional<double> cf =
              client.estimate(name, "m", rows[i], &error);
          if (!cf.has_value()) {
            ++errors;
          } else if (*cf != v1.estimator.predict_row(rows[i])) {
            ++identity_misses;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double load_s = load_timer.seconds();
  const double load_qps =
      static_cast<double>(clients) * static_cast<double>(per_client) / load_s;
  const double speedup = load_qps / base_qps;
  std::printf("coalesced load: %d clients x %zu requests -> %.0f QPS, "
              "%.1fx the baseline (acceptance target >= 5x)\n",
              clients, per_client, load_qps, speedup);
  std::fflush(stdout);  // a failing gate must leave its timings in the log
  MF_CHECK_MSG(errors.load() == 0, "load phase saw ERR responses");
  MF_CHECK_MSG(identity_misses.load() == 0,
               "batched responses must be bit-identical to solo prediction");
  MF_CHECK_MSG(speedup >= 5.0,
               "coalesced batching must sustain >= 5x closed-loop QPS");

  // Server-side ESTIMATE p99 against the latency budget. The log2
  // histogram reports bucket upper bounds (within 2x), so the gate allows
  // budget + 50 ms scheduling slack, rounded by one bucket.
  const std::uint64_t p99_us = server.stats().request_ns.quantile_max(0.99) / 1000;
  const std::uint64_t p99_limit_us =
      2 * (static_cast<std::uint64_t>(kCoalesceUs) + 50000);
  std::printf("server-side ESTIMATE p99 <= %lu us (budget %.0f us, "
              "gate %lu us)\n",
              static_cast<unsigned long>(p99_us), kCoalesceUs,
              static_cast<unsigned long>(p99_limit_us));
  std::fflush(stdout);
  MF_CHECK_MSG(p99_us <= p99_limit_us,
               "ESTIMATE p99 exceeded the coalesce budget + slack");

  // -- 3. deterministic canary rollback ------------------------------------
  // A corrupt v2 appears while traffic flows. The canary load breaker must
  // condemn it after fail_threshold scans; every response before, during,
  // and after stays a v1 OK.
  {
    std::ofstream poison(dir + "/m-v2.mfb", std::ios::binary);
    poison << "macroflow-model-bundle 1\nnot a bundle at all\n";
  }
  std::uint64_t rollback_errors = 0;
  {
    ServeClient client(plain_client_options(socket_path, "rollback"));
    const auto rows = make_rows(quick ? 200 : 1000, 77);
    std::size_t i = 0;
    Timer rollback_timer;
    while (server.canary_status("m").rollbacks == 0) {
      MF_CHECK_MSG(rollback_timer.seconds() < 30.0,
                   "canary rollback never happened");
      std::string error;
      const std::optional<double> cf =
          client.estimate("t", "m", rows[i % rows.size()], &error);
      if (!cf.has_value() ||
          *cf != v1.estimator.predict_row(rows[i % rows.size()])) {
        ++rollback_errors;
      }
      ++i;
    }
    // Post-rollback: still v1, still zero errors.
    for (std::size_t j = 0; j < 50; ++j) {
      std::string error;
      const std::optional<double> cf =
          client.estimate("t", "m", rows[j], &error);
      if (!cf.has_value() || *cf != v1.estimator.predict_row(rows[j])) {
        ++rollback_errors;
      }
    }
  }
  const CanaryStatus canary = server.canary_status("m");
  std::printf("canary rollback: stable=v%d canary=v%d rollbacks=%lu, "
              "client-visible errors %lu (must be 0)\n",
              canary.stable_version, canary.canary_version,
              static_cast<unsigned long>(canary.rollbacks),
              static_cast<unsigned long>(rollback_errors));
  MF_CHECK_MSG(canary.rollbacks == 1, "exactly one rollback expected");
  MF_CHECK_MSG(canary.stable_version == 1, "traffic must stay on v1");
  MF_CHECK_MSG(canary.canary_version == 0, "canary must be retired");
  MF_CHECK_MSG(rollback_errors == 0,
               "rollback must be invisible to clients (zero ERRs)");

  // -- shutdown: SIGINT-equivalent trip, daemon drains and exits 130 -------
  cancel.cancel();
  daemon.join();
  MF_CHECK(daemon_code == 130);

  // -- 4. supervised chaos recovery ----------------------------------------
  // A fresh daemon under the serve supervisor (this binary re-executed via
  // --serve-child, inheriting the supervisor-owned listener), 8 chaos
  // clients, one SIGKILL under load. The poison v2 is retired first: this
  // phase measures transport faults, not canary routing.
  fs::remove(dir + "/m-v2.mfb");
  const std::string sup_socket = dir + "/sup.sock";
  CancelToken sup_cancel;
  SupervisedOptions sup;
  sup.socket_path = sup_socket;
  sup.child_args = {"--serve-child", dir, "{LISTEN_FD}",
                    dir + "/sup-stats.json"};
  sup.heartbeat_path = dir + "/sup-stats.json";
  sup.heartbeat_timeout_s = 30.0;
  sup.backoff_base_ms = 10.0;
  sup.backoff_cap_ms = 50.0;
  sup.grace_seconds = 3.0;
  sup.poll_ms = 5.0;
  sup.quiet = true;
  sup.cancel = &sup_cancel;
  std::atomic<pid_t> child_pid{-1};
  sup.on_spawn = [&child_pid](pid_t pid) { child_pid.store(pid); };
  SupervisedResult sup_result;
  std::thread supervisor([&] { sup_result = run_supervised(sup); });
  const StopAndJoin stop_supervisor(sup_cancel, supervisor);

  using SteadyClock = std::chrono::steady_clock;
  struct Sample {
    SteadyClock::time_point start;
    double latency_s = 0.0;
  };
  const int chaos_clients = 8;
  const std::size_t chaos_per_client = quick ? 150 : 600;
  std::vector<std::vector<Sample>> samples(chaos_clients);
  std::vector<ClientStats> chaos_stats(chaos_clients);
  std::vector<int> chaos_injected(chaos_clients, 0);
  std::atomic<std::uint64_t> chaos_wrong{0};
  std::atomic<std::uint64_t> chaos_gave_up{0};
  std::atomic<std::size_t> chaos_done{0};
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < chaos_clients; ++c) {
      threads.emplace_back([&, c] {
        const auto rows = make_rows(chaos_per_client, 500 + c);
        ClientOptions copts;
        copts.socket_path = sup_socket;
        copts.client_name = "chaos" + std::to_string(c);
        copts.connect_deadline_s = 20.0;
        copts.request_deadline_s = 60.0;
        copts.max_retries = 200;
        copts.backoff_base_ms = 1.0;
        copts.backoff_cap_ms = 20.0;
        copts.chaos.enabled = true;
        copts.chaos.seed = task_seed(2024, copts.client_name);
        copts.chaos.p_sever = 0.02;
        copts.chaos.p_truncate = 0.02;
        copts.chaos.p_duplicate = 0.02;
        copts.chaos.p_garbage = 0.02;
        ServeClient client(std::move(copts));
        samples[c].reserve(chaos_per_client);
        for (std::size_t i = 0; i < chaos_per_client; ++i) {
          const SteadyClock::time_point start = SteadyClock::now();
          std::string error;
          const std::optional<double> cf =
              client.estimate("t", "m", rows[i], &error);
          const double latency =
              std::chrono::duration<double>(SteadyClock::now() - start)
                  .count();
          if (!cf.has_value()) {
            ++chaos_gave_up;
          } else if (*cf != v1.estimator.predict_row(rows[i])) {
            ++chaos_wrong;
          }
          samples[c].push_back({start, latency});
          ++chaos_done;
        }
        chaos_stats[c] = client.stats();
        chaos_injected[c] = client.chaos_faults();
      });
    }
    // One daemon kill under load: what the recovery gate measures. Fire it
    // once a quarter of the traffic is through, so a substantial tail of
    // requests *starts* after the kill whatever the machine's speed.
    const std::size_t kill_after =
        static_cast<std::size_t>(chaos_clients) * chaos_per_client / 4;
    while (chaos_done.load() < kill_after) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The kill's checks wait until the client threads are joined: a check
    // that throws past running threads would terminate the process.
    const pid_t pid = child_pid.load();
    const bool killed = pid > 0 && ::kill(pid, SIGKILL) == 0;
    const SteadyClock::time_point kill_at = SteadyClock::now();
    // Hold the phase open until the supervisor has actually respawned --
    // cancelling first would race its poll loop and tear down a dead sock.
    for (int i = 0; killed && i < 2000 && child_pid.load() == pid; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const bool respawned = killed && child_pid.load() != pid;
    for (std::thread& thread : threads) thread.join();
    sup_cancel.cancel();
    supervisor.join();
    MF_CHECK_MSG(pid > 0, "supervised daemon never spawned");
    MF_CHECK_MSG(killed, "SIGKILL of the supervised daemon failed");
    MF_CHECK_MSG(respawned, "supervisor never respawned the killed daemon");

    std::vector<double> chaos_lat;
    std::vector<double> recovery_lat;
    for (const std::vector<Sample>& per_client_samples : samples) {
      for (const Sample& sample : per_client_samples) {
        chaos_lat.push_back(sample.latency_s);
        if (sample.start >= kill_at) recovery_lat.push_back(sample.latency_s);
      }
    }
    std::uint64_t retries = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t stray_lines = 0;
    std::uint64_t injected = 0;
    for (int c = 0; c < chaos_clients; ++c) {
      retries += chaos_stats[c].retries;
      reconnects += chaos_stats[c].reconnects;
      stray_lines += chaos_stats[c].stray_lines;
      injected += static_cast<std::uint64_t>(chaos_injected[c]);
    }
    const double p99_chaos_us = quantile_99(chaos_lat) * 1e6;
    const double recovery_p99_us = quantile_99(recovery_lat) * 1e6;
    std::printf(
        "chaos recovery: %d clients x %zu requests, %lu faults injected, "
        "%lu retries, %lu reconnects, %lu stray lines, %ld respawn(s)\n",
        chaos_clients, chaos_per_client, static_cast<unsigned long>(injected),
        static_cast<unsigned long>(retries),
        static_cast<unsigned long>(reconnects),
        static_cast<unsigned long>(stray_lines), sup_result.respawns);
    std::printf(
        "chaos latency: p99 %.0f us overall, %.0f us for the %zu requests "
        "started after the kill (recovery gate <= 10 s)\n",
        p99_chaos_us, recovery_p99_us, recovery_lat.size());
    MF_CHECK_MSG(sup_result.exit_code == 130,
                 "supervisor must exit 130 on cancellation");
    MF_CHECK_MSG(sup_result.respawns >= 1, "the killed daemon must respawn");
    MF_CHECK_MSG(chaos_wrong.load() == 0,
                 "chaos may cost latency, never a wrong answer");
    MF_CHECK_MSG(chaos_gave_up.load() == 0,
                 "every chaos request must eventually be answered");
    MF_CHECK_MSG(recovery_p99_us <= 10e6,
                 "post-kill recovery p99 exceeded 10 s");

    const ServerStats stats = server.stats();
    std::string json;
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        " \"baseline_qps\": %.1f,\n \"coalesced_qps\": %.1f,\n"
        " \"speedup\": %.2f,\n \"clients\": %d,\n"
        " \"requests\": %lu,\n \"p99_us\": %lu,\n"
        " \"p99_gate_us\": %lu,\n \"coalesce_us\": %.0f,\n"
        " \"rollbacks\": %lu,\n \"client_errors\": %lu,\n"
        " \"chaos_clients\": %d,\n \"chaos_faults\": %lu,\n"
        " \"retries\": %lu,\n \"reconnects\": %lu,\n"
        " \"stray_lines\": %lu,\n \"respawns\": %ld,\n"
        " \"p99_chaos_us\": %.0f,\n \"recovery_p99_us\": %.0f\n",
        base_qps, load_qps, speedup, clients,
        static_cast<unsigned long>(stats.requests),
        static_cast<unsigned long>(p99_us),
        static_cast<unsigned long>(p99_limit_us), kCoalesceUs,
        static_cast<unsigned long>(canary.rollbacks),
        static_cast<unsigned long>(rollback_errors), chaos_clients,
        static_cast<unsigned long>(injected),
        static_cast<unsigned long>(retries),
        static_cast<unsigned long>(reconnects),
        static_cast<unsigned long>(stray_lines), sup_result.respawns,
        p99_chaos_us, recovery_p99_us);
    json += buf;
    if (!bench::write_bench_json("BENCH_SERVING.json", json)) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Daemon-child mode first: the supervised phase re-executes this binary.
  if (const std::optional<int> code = maybe_run_serve_child(argc, argv)) {
    return *code;
  }
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::banner("serving daemon: coalesced batching, tail latency, canary "
                "rollback, chaos recovery",
                "estimator serving for the CF predictions of Section V");

  const std::string dir =
      (fs::temp_directory_path() /
       ("mf_bench_srv_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  int code = 1;
  try {
    code = run(quick, dir);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_serving_load: %s\n", error.what());
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return code;
}
