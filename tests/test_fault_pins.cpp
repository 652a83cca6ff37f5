// Decision pins for the three seeded fault injectors.
//
// Every chaos suite relies on a decision stream that replays from its seed,
// so a change to how a roll is made or picked must not move one decision.
// The expected strings below were captured from the injectors before their
// draws were routed through common/fault_draw.hpp; each character is one
// decision for fixed seeds x keys x ordinals.

#include <gtest/gtest.h>

#include <string>

#include "farm/chaos.hpp"
#include "flow/tool_run.hpp"
#include "srv/net_chaos.hpp"

namespace mf {
namespace {

char code(FaultKind kind) {
  switch (kind) {
    case FaultKind::None: return '.';
    case FaultKind::Crash: return 'C';
    case FaultKind::Timeout: return 'T';
    case FaultKind::SpuriousInfeasible: return 'S';
  }
  return '?';
}

char code(FarmChaos::Action action) {
  switch (action) {
    case FarmChaos::Action::None: return '.';
    case FarmChaos::Action::Kill: return 'K';
    case FarmChaos::Action::Hang: return 'H';
    case FarmChaos::Action::Slow: return 's';
  }
  return '?';
}

char code(NetChaos::Action action) {
  switch (action) {
    case NetChaos::Action::None: return '.';
    case NetChaos::Action::Sever: return 'X';
    case NetChaos::Action::Stall: return 'w';
    case NetChaos::Action::Truncate: return 't';
    case NetChaos::Action::Duplicate: return 'd';
    case NetChaos::Action::Garbage: return 'g';
  }
  return '?';
}

std::string injector_stream(std::uint64_t seed, double crash, double timeout,
                            double spurious) {
  FaultInjectorOptions options;
  options.enabled = true;
  options.seed = seed;
  options.p_crash = crash;
  options.p_timeout = timeout;
  options.p_spurious_infeasible = spurious;
  const FaultInjector injector(options);
  std::string out;
  for (const char* block : {"mvau_0", "weights_14", "conv_3"}) {
    for (int k = 0; k < 32; ++k) out += code(injector.draw(block, k));
    out += '|';
  }
  return out;
}

std::string farm_stream(std::uint64_t seed) {
  FarmChaosOptions options;
  options.enabled = true;
  options.seed = seed;
  options.p_kill = 0.15;
  options.p_hang = 0.1;
  options.p_slow = 0.25;
  options.faults_per_shard = 2;  // attempts 2 and 3 are ineligible
  const FarmChaos chaos(options);
  std::string out;
  for (int shard = 0; shard < 2; ++shard) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      for (int ordinal = 0; ordinal < 12; ++ordinal) {
        out += code(chaos.draw(shard, attempt, ordinal));
      }
      out += '|';
    }
  }
  return out;
}

NetChaosOptions net_options(std::uint64_t seed) {
  NetChaosOptions options;
  options.enabled = true;
  options.seed = seed;
  options.p_sever = 0.05;
  options.p_stall = 0.1;
  options.p_truncate = 0.05;
  options.p_duplicate = 0.1;
  options.p_garbage = 0.1;
  return options;
}

std::string net_stream(std::uint64_t seed) {
  const NetChaos chaos(net_options(seed));
  std::string out;
  for (int conn = 0; conn < 3; ++conn) {
    for (const bool send : {true, false}) {
      for (int op = 0; op < 20; ++op) out += code(chaos.draw(conn, op, send));
      out += '|';
    }
  }
  return out;
}

TEST(FaultDrawPins, FaultInjectorDecisions) {
  EXPECT_EQ(injector_stream(0xfa017ULL, 0.1, 0.15, 0.2),
            ".S..SS.TC..SSTC.T..TCTT.T..S..C.|"
            "...C.ST.TCS.T.S..S.TT...T..TC.S.|"
            "..SC.C..CTTCS...CS..S...C......T|");
  EXPECT_EQ(injector_stream(7, 0.1, 0.15, 0.2),
            ".TCTS.S.....C.S..TC.S.CS.C..S...|"
            "....S..SS.CS.S.S.TCSS...TSS..ST.|"
            ".C..TC..CTCCS.S...ST...ST..C..C.|");
  // An empty middle bucket and probabilities summing to exactly 1.
  EXPECT_EQ(injector_stream(7, 0.5, 0.0, 0.5),
            "SCCCCSCSSCSSCSCSSCCSCSCCSCCSCCSS|"
            "SSSSCSSCCSCCSCSCSCCCCSSSCCCSSCCS|"
            "SCSSCCSSCCCCCCCSSSCCCSSCCSSCSSCS|");
}

TEST(FaultDrawPins, FarmChaosDecisions) {
  EXPECT_EQ(farm_stream(0xfa53ULL),
            ".s.s.K.sK.Hs|.K..H.KKss..|.ss..ss..s..|.ss......sss|"
            "....sss.sH..|.sss.....HHK|.s.s....sss.|.s..s..ss.s.|");
  EXPECT_EQ(farm_stream(11),
            ".sKss.K....s|..Ks...K....|..s...ss.s..|.s.....sss..|"
            ".Hss..s.KH..|.K.s.KsK.H..|.s..ss..sss.|.ss.s.ss...s|");
}

TEST(FaultDrawPins, NetChaosDecisions) {
  EXPECT_EQ(net_stream(42),
            "..g.w.g...t....t.d..|....X..X....t.wt.gt.|"
            "....d..g..d....g.wd.|.w.Xd..g...t..twtg..|"
            ".....d....w.gg...w..|..Xw.t..dg.t....g.w.|");
  EXPECT_EQ(net_stream(2024),
            "...X.......d...Xg.Xd|...t.d....gw.ggtw.X.|"
            ".w....dggg...g.....d|.Xg....wXgggttt.X.w.|"
            ".gwd.dw..d..g..d.g..|....wwdgwgg.X...dd..|");
}

TEST(FaultDrawPins, NetChaosBudgetAndGarbage) {
  NetChaosOptions options = net_options(42);
  options.max_faults = 4;
  NetChaos chaos(options);
  std::string out;
  for (int op = 0; op < 40; ++op) out += code(chaos.next(1, op, true));
  EXPECT_EQ(out, "....d..g..d....g.w.......ww.w....w...w..");
  EXPECT_EQ(chaos.faults_injected(), 4);
  EXPECT_EQ(chaos.garbage_line(1, 1), "XCHAOS 18098865274998248793\n");
  EXPECT_EQ(chaos.garbage_line(2, 5), "XCHAOS 10446964455996702805\n");
}

}  // namespace
}  // namespace mf
