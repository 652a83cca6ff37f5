#pragma once
// Seeded connection-level fault injection for the serving tier
// (DESIGN.md section 14).
//
// The resilient client's correctness claim -- "under any wire failure the
// caller sees either the exact answer or a clean error, never a corrupt
// CF" -- is only worth something if the failures are actually dealt. This
// shim lives *inside* ServeClient (the same FaultInjector idiom as
// farm/chaos: pure draws from task_seed streams, no globals, no real
// randomness) and can disrupt either direction of a connection:
//
//   Sever      close the descriptor at an operation boundary;
//   Stall      sleep `stall_ms` before the operation (exercises deadlines);
//   Truncate   deliver only a strict prefix of the bytes, then sever --
//              the reader is left with a torn, unterminated line;
//   Duplicate  deliver the bytes twice (the id= filter must discard one);
//   Garbage    inject a junk line ahead of the real bytes.
//
// Determinism: the decision for operation `op` of connection `conn` in
// direction tx/rx is a pure function of (seed, conn, op, direction) -- one
// roll picked by the shared common/fault_draw.hpp kernel, like farm/chaos --
// so a chaos campaign replays fault-for-fault from its seed. Operation 0 of
// every connection never faults (each reconnect gets one clean boundary),
// and `max_faults` bounds the total disruption so campaigns provably
// terminate: once the budget is spent every draw degrades to None (Stall is
// benign and stays).

#include <cstdint>
#include <string>

namespace mf {

struct NetChaosOptions {
  bool enabled = false;
  std::uint64_t seed = 0;
  double p_sever = 0.0;
  double p_stall = 0.0;
  double p_truncate = 0.0;
  double p_duplicate = 0.0;
  double p_garbage = 0.0;
  double stall_ms = 2.0;
  /// Total disruptive actions (everything but None/Stall) this instance
  /// may take; <= 0 means unlimited.
  int max_faults = -1;
};

class NetChaos {
 public:
  enum class Action : std::uint8_t {
    None,
    Sever,
    Stall,
    Truncate,
    Duplicate,
    Garbage,
  };

  NetChaos() = default;
  explicit NetChaos(const NetChaosOptions& options) : options_(options) {}

  [[nodiscard]] bool enabled() const noexcept { return options_.enabled; }

  /// Pure decision for operation `op` of connection `conn`, direction
  /// `send` (true = bytes towards the server). No budget accounting.
  [[nodiscard]] Action draw(int conn, int op, bool send) const;

  /// draw() plus budget accounting: a disruptive decision consumes one
  /// unit of max_faults and degrades to None once the budget is spent.
  Action next(int conn, int op, bool send);

  [[nodiscard]] int faults_injected() const noexcept { return faults_; }
  [[nodiscard]] double stall_ms() const noexcept { return options_.stall_ms; }

  /// Deterministic junk line for Garbage (terminator included). Parses as
  /// no known verb and carries no id= echo, so a correct client/server
  /// discards it.
  [[nodiscard]] std::string garbage_line(int conn, int op) const;

 private:
  NetChaosOptions options_;
  int faults_ = 0;
};

}  // namespace mf
