#include "srv/net_chaos.hpp"

#include "common/fault_draw.hpp"
#include "common/rng.hpp"

namespace mf {

NetChaos::Action NetChaos::draw(int conn, int op, bool send) const {
  if (!options_.enabled || op <= 0) return Action::None;
  const double roll = fault_roll(
      options_.seed, "net-chaos:c" + std::to_string(conn) + ":o" +
                         std::to_string(op) + (send ? ":tx" : ":rx"));
  constexpr Action kBuckets[] = {Action::Sever,     Action::Stall,
                                 Action::Truncate,  Action::Duplicate,
                                 Action::Garbage,   Action::None};
  return kBuckets[fault_pick(
      roll, {options_.p_sever, options_.p_stall, options_.p_truncate,
             options_.p_duplicate, options_.p_garbage})];
}

NetChaos::Action NetChaos::next(int conn, int op, bool send) {
  Action action = draw(conn, op, send);
  if (action == Action::None || action == Action::Stall) return action;
  if (options_.max_faults > 0 && faults_ >= options_.max_faults) {
    return Action::None;
  }
  ++faults_;
  return action;
}

std::string NetChaos::garbage_line(int conn, int op) const {
  // Deterministic junk that tokenizes as an unknown verb: the server
  // answers `ERR 400 unknown verb ...` with no id= echo, which a tracing
  // client must count as a stray line and discard.
  Rng rng(task_seed(options_.seed, "net-chaos:garbage:c" +
                                       std::to_string(conn) + ":o" +
                                       std::to_string(op)));
  return "XCHAOS " + std::to_string(rng.u64()) + "\n";
}

}  // namespace mf
