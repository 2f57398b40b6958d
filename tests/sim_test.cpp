#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <sstream>

#include "netlist/builder.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
#include "sim/logic_sim.hpp"
#include "sim/vcd.hpp"
#include "support/rng.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

namespace terrors::sim {
namespace {

using netlist::EndpointClass;
using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;
using netlist::NetlistBuilder;
using netlist::Pipeline;
using netlist::PipelineConfig;
using netlist::Word;

struct AluFixture {
  NetlistBuilder b{support::Rng(1)};
  Word x, y, sum, and_w, xor_w, shl;
  GateId eq = netlist::kNoGate, carry = netlist::kNoGate;

  AluFixture() {
    x = b.input_word("x", 16);
    y = b.input_word("y", 16);
    auto add = b.ripple_adder(x, y);
    sum = add.sum;
    carry = add.carry_out;
    and_w = b.and_word(x, y);
    xor_w = b.xor_word(x, y);
    Word amt(x.begin(), x.begin() + 4);
    shl = b.shift_left(y, amt);
    eq = b.equals(x, y);
    b.netlist().finalize(1);
  }
};

class AluFunctional : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AluFunctional, MatchesIntegerSemantics) {
  AluFixture f;
  LogicSimulator sim(f.b.netlist());
  support::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFFFF;
    const std::uint64_t c = rng.next_u64() & 0xFFFF;
    sim.set_input_word(f.x, a);
    sim.set_input_word(f.y, c);
    sim.step();
    EXPECT_EQ(sim.value_word(f.sum), (a + c) & 0xFFFF);
    EXPECT_EQ(sim.value(f.carry), ((a + c) >> 16) & 1);
    EXPECT_EQ(sim.value_word(f.and_w), a & c);
    EXPECT_EQ(sim.value_word(f.xor_w), a ^ c);
    EXPECT_EQ(sim.value_word(f.shl), (c << (a & 0xF)) & 0xFFFF);
    EXPECT_EQ(sim.value(f.eq), a == c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluFunctional, ::testing::Values(11u, 22u, 33u, 44u));

class CarrySelectFunctional : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CarrySelectFunctional, MatchesIntegerAddition) {
  NetlistBuilder b{support::Rng(8)};
  auto x = b.input_word("x", 16);
  auto y = b.input_word("y", 16);
  auto cs = b.carry_select_adder(x, y, 4);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  support::Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFFFF;
    const std::uint64_t c = rng.next_u64() & 0xFFFF;
    sim.set_input_word(x, a);
    sim.set_input_word(y, c);
    sim.step();
    EXPECT_EQ(sim.value_word(cs.sum), (a + c) & 0xFFFF);
    EXPECT_EQ(sim.value(cs.carry_out), ((a + c) >> 16) & 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CarrySelectFunctional, ::testing::Values(3u, 7u));

TEST(LogicSim, CarrySelectPipelineComputesAdds) {
  netlist::PipelineConfig cfg;
  cfg.ex_adder = netlist::AdderKind::kCarrySelect;
  const Pipeline p = netlist::build_pipeline(cfg);
  LogicSimulator sim(p.netlist);
  const std::uint64_t a = 0xCAFEBABEull;
  const std::uint64_t c = 0x31415926ull;
  auto zero_all = [&] {
    for (GateId g : p.netlist.inputs()) sim.set_input(g, false);
  };
  zero_all();
  sim.step();
  zero_all();
  sim.set_input_word(p.ports.op_a, a);
  sim.set_input_word(p.ports.op_b, c);
  sim.step();
  zero_all();
  sim.step();
  zero_all();
  sim.step();
  sim.step();
  EXPECT_EQ(sim.value_word(p.taps.ex_result_reg), (a + c) & 0xFFFFFFFFull);
}

TEST(LogicSim, DecoderIsOneHot) {
  NetlistBuilder b(support::Rng(2));
  auto sel = b.input_word("sel", 3);
  auto dec = b.decoder(sel);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  for (std::uint64_t v = 0; v < 8; ++v) {
    sim.set_input_word(sel, v);
    sim.step();
    EXPECT_EQ(sim.value_word(dec), 1ull << v);
  }
}

TEST(LogicSim, DffCapturesPreviousCycleValue) {
  NetlistBuilder b(support::Rng(3));
  const GateId in = b.input("d");
  const GateId q = b.dff("q", EndpointClass::kControl);
  b.connect(q, in);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  sim.set_input(in, true);
  sim.step();  // cycle 1: input=1 settles, q still captured old 0
  EXPECT_FALSE(sim.value(q));
  sim.set_input(in, false);
  sim.step();  // cycle 2: q captures the 1 settled in cycle 1
  EXPECT_TRUE(sim.value(q));
  sim.step();
  EXPECT_FALSE(sim.value(q));
}

TEST(LogicSim, ActivationMatchesValueChanges) {
  NetlistBuilder b(support::Rng(4));
  auto x = b.input_word("x", 8);
  auto y = b.input_word("y", 8);
  auto add = b.ripple_adder(x, y);
  (void)add;
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  sim.set_input_word(x, 0);
  sim.set_input_word(y, 0);
  sim.step();
  sim.step();  // steady state: nothing changes
  std::size_t active = 0;
  for (GateId g = 0; g < b.netlist().size(); ++g) active += sim.activated(g) ? 1 : 0;
  EXPECT_EQ(active, 0u);
  // Flip one LSB: the carry chain of 0 + 1 has no propagation, so only a
  // handful of gates toggle.
  sim.set_input_word(x, 1);
  sim.step();
  EXPECT_TRUE(sim.activated(x[0]));
  EXPECT_TRUE(sim.activated(add.sum[0]));
  EXPECT_FALSE(sim.activated(add.sum[7]));
}

TEST(LogicSim, CarryChainActivationDependsOnOperands) {
  NetlistBuilder b(support::Rng(5));
  auto x = b.input_word("x", 16);
  auto y = b.input_word("y", 16);
  auto add = b.ripple_adder(x, y);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  sim.set_input_word(x, 0);
  sim.set_input_word(y, 0);
  sim.step();
  // 0xFFFF + 1 ripples the carry through every bit.
  sim.set_input_word(x, 0xFFFF);
  sim.step();
  sim.set_input_word(y, 1);
  sim.step();
  EXPECT_TRUE(sim.activated(add.sum[15]));
  EXPECT_TRUE(sim.activated(add.carry_out));
}

TEST(LogicSim, ForceStateOverridesDff) {
  NetlistBuilder b(support::Rng(6));
  const GateId in = b.input("d");
  const GateId q = b.dff("q", EndpointClass::kControl);
  b.connect(q, in);
  const GateId inv = b.gate(GateKind::kInv, q);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  sim.force_state(q, true);
  EXPECT_TRUE(sim.value(q));
  (void)inv;
}

TEST(Vcd, EmitsValidHeaderAndChanges) {
  NetlistBuilder b(support::Rng(7));
  const GateId in = b.input("toggler");
  const GateId q = b.dff("state", EndpointClass::kControl);
  b.connect(q, in);
  const GateId inv = b.gate(GateKind::kInv, q);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  std::ostringstream out;
  const std::vector<GateId> watched = {in, q, inv};
  VcdWriter vcd(out, b.netlist(), watched);
  const bool pattern[] = {true, true, false, true, false, false};
  std::vector<std::vector<int>> simulated;
  for (bool v : pattern) {
    sim.set_input(in, v);
    sim.step();
    vcd.sample(sim);
    simulated.push_back({sim.value(in), sim.value(q), sim.value(inv)});
  }
  const std::string s = out.str();
  EXPECT_NE(s.find("$timescale"), std::string::npos);
  EXPECT_NE(s.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(s.find("toggler"), std::string::npos);
  EXPECT_NE(s.find("#0"), std::string::npos);

  // Replay the value changes (one-character identifiers from '!', samples
  // 1000 ps apart): at every sample each watched net holds the value the
  // simulation settled to.
  std::map<std::size_t, std::vector<std::pair<std::size_t, int>>> changes;
  std::size_t sample = 0;
  bool body = false;
  std::istringstream is(s);
  for (std::string line; std::getline(is, line);) {
    if (!body) {
      body = line.rfind("$enddefinitions", 0) == 0;
      continue;
    }
    ASSERT_GE(line.size(), 2u) << line;
    if (line[0] == '#') {
      sample = std::stoull(line.substr(1)) / 1000;
    } else {
      changes[sample].emplace_back(static_cast<std::size_t>(line[1] - '!'), line[0] - '0');
    }
  }
  std::vector<int> dumped(watched.size(), -1);
  for (std::size_t t = 0; t < simulated.size(); ++t) {
    for (const auto& [i, v] : changes[t]) dumped[i] = v;
    EXPECT_EQ(dumped, simulated[t]) << "sample " << t;
  }
}

TEST(PipelineSim, AddFlowsThroughDatapath) {
  const Pipeline p = netlist::build_pipeline({});
  LogicSimulator sim(p.netlist);
  const std::uint64_t a = 0x12345678u;
  const std::uint64_t c = 0x0FEDCBA9u;

  auto drive_defaults = [&] {
    sim.set_input_word(p.ports.instr, 0);
    sim.set_input_word(p.ports.branch_target, 0);
    sim.set_input(p.ports.branch_taken, false);
    sim.set_input_word(p.ports.op_a, 0);
    sim.set_input_word(p.ports.op_b, 0);
    sim.set_input_word(p.ports.bypass_a, 0);
    sim.set_input_word(p.ports.bypass_b, 0);
    sim.set_input_word(p.ports.alu_sel, 0);  // add
    sim.set_input(p.ports.sel_imm, false);
    sim.set_input(p.ports.sub_mode, false);
    sim.set_input(p.ports.shift_dir, false);
    sim.set_input_word(p.ports.logic_sel, 0);
    sim.set_input_word(p.ports.mem_data, 0);
    sim.set_input(p.ports.mem_is_load, false);
    sim.set_input_word(p.ports.ctrl_noise, 0);
  };

  // Cycle 0: instruction enters FE (we only care about the datapath).
  drive_defaults();
  sim.step();
  // Cycle 1 (DE): register-file read values arrive.
  drive_defaults();
  sim.set_input_word(p.ports.op_a, a);
  sim.set_input_word(p.ports.op_b, c);
  sim.step();
  // Cycle 2 (RA): no bypassing.
  drive_defaults();
  sim.step();
  // Cycle 3 (EX): ALU add; result is captured at the end of this cycle.
  drive_defaults();
  sim.step();
  sim.step();  // result visible on ex_result_reg outputs in cycle 4
  EXPECT_EQ(sim.value_word(p.taps.ex_result_reg), (a + c) & 0xFFFFFFFFull);
  // Cycle 5: memory pass-through into me_result.
  sim.step();
  EXPECT_EQ(sim.value_word(p.taps.me_result_reg), (a + c) & 0xFFFFFFFFull);
}

TEST(PipelineSim, SubtractAndLogicOps) {
  const Pipeline p = netlist::build_pipeline({});
  LogicSimulator sim(p.netlist);
  const std::uint64_t a = 0xDEADBEEFull;
  const std::uint64_t c = 0x12345678ull;

  auto zero_all = [&] {
    for (GateId g : p.netlist.inputs()) sim.set_input(g, false);
  };
  // Subtract.
  zero_all();
  sim.step();
  zero_all();
  sim.set_input_word(p.ports.op_a, a);
  sim.set_input_word(p.ports.op_b, c);
  sim.step();
  zero_all();
  sim.step();
  zero_all();
  sim.set_input(p.ports.sub_mode, true);
  sim.set_input_word(p.ports.alu_sel, 0);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.value_word(p.taps.ex_result_reg), (a - c) & 0xFFFFFFFFull);

  // XOR (alu_sel = 1 selects the logic unit, logic_sel = 2 selects xor).
  zero_all();
  sim.step();
  zero_all();
  sim.set_input_word(p.ports.op_a, a);
  sim.set_input_word(p.ports.op_b, c);
  sim.step();
  zero_all();
  sim.step();
  zero_all();
  sim.set_input_word(p.ports.alu_sel, 1);
  sim.set_input_word(p.ports.logic_sel, 2);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.value_word(p.taps.ex_result_reg), (a ^ c) & 0xFFFFFFFFull);
}

// ---------------------------------------------------------------------------
// Oracle: the compiled simulator against a per-gate interpreter.

/// Reference simulator: walks the topological order gate by gate through
/// netlist::eval_gate and recomputes activation over every gate, in the
/// reset order of the compiled one (settle with every value 0, then write
/// the constants).
class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(const netlist::Netlist& nl) : nl_(nl) { reset(); }

  void reset() {
    values_.assign(nl_.size(), 0);
    pending_.assign(nl_.size(), 0);
    activated_.assign(nl_.size(), 0);
    settle();
    prev_ = values_;
    toggles_ = 0;
  }
  void set_input(GateId g, bool v) { pending_[g] = v ? 1 : 0; }
  void force_state(GateId dff, bool v) { values_[dff] = v ? 1 : 0; }
  void step() {
    prev_ = values_;
    for (GateId id : nl_.dffs()) values_[id] = prev_[nl_.gate(id).fanin[0]];
    for (GateId id : nl_.inputs()) values_[id] = pending_[id];
    settle();
    toggles_ = 0;
    for (GateId id = 0; id < nl_.size(); ++id) {
      activated_[id] = values_[id] != prev_[id] ? 1 : 0;
      toggles_ += activated_[id];
    }
  }

  [[nodiscard]] bool value(GateId g) const { return values_[g] != 0; }
  [[nodiscard]] const std::vector<std::uint8_t>& flags() const { return activated_; }
  [[nodiscard]] std::uint64_t toggles() const { return toggles_; }
  /// Activated gates: flip-flops, inputs, combinational gates in
  /// topological order, outputs.
  [[nodiscard]] std::vector<GateId> activated_list() const {
    std::vector<GateId> list;
    for (const auto* group : {&nl_.dffs(), &nl_.inputs(), &nl_.topo_order(), &nl_.outputs()}) {
      for (GateId g : *group)
        if (activated_[g] != 0) list.push_back(g);
    }
    return list;
  }

 private:
  void settle() {
    for (GateId id : nl_.topo_order()) {
      const Gate& g = nl_.gate(id);
      std::array<bool, 3> in{};
      for (int s = 0; s < g.arity(); ++s)
        in[static_cast<std::size_t>(s)] = values_[g.fanin[static_cast<std::size_t>(s)]] != 0;
      values_[id] = netlist::eval_gate(
                        g.kind, std::span<const bool>(in.data(), static_cast<std::size_t>(g.arity())))
                        ? 1
                        : 0;
    }
    for (GateId id : nl_.outputs()) values_[id] = values_[nl_.gate(id).fanin[0]];
    for (GateId id = 0; id < nl_.size(); ++id) {
      if (nl_.gate(id).kind == GateKind::kConst1) values_[id] = 1;
      if (nl_.gate(id).kind == GateKind::kConst0) values_[id] = 0;
    }
  }

  const netlist::Netlist& nl_;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> prev_;
  std::vector<std::uint8_t> pending_;
  std::vector<std::uint8_t> activated_;
  std::uint64_t toggles_ = 0;
};

/// Old-style arrival DP over the full netlist: sources by id, then every
/// combinational gate in topological order, skipping unflagged ones.
std::vector<double> reference_arrivals(const netlist::Netlist& nl,
                                       const std::vector<std::uint8_t>& flags,
                                       const timing::ChipSample* chip) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  auto delay = [&](GateId g) {
    return chip != nullptr ? static_cast<double>((*chip)[g]) : nl.gate(g).delay_ps;
  };
  std::vector<double> arr(nl.size(), kNegInf);
  for (GateId g = 0; g < nl.size(); ++g) {
    const Gate& gate = nl.gate(g);
    if (netlist::info(gate.kind).combinational || flags[g] == 0) continue;
    arr[g] = gate.kind == GateKind::kDff ? delay(g) : 0.0;
  }
  for (GateId g : nl.topo_order()) {
    if (flags[g] == 0) continue;
    const Gate& gate = nl.gate(g);
    double worst = kNegInf;
    for (int s = 0; s < gate.arity(); ++s)
      worst = std::max(worst, arr[gate.fanin[static_cast<std::size_t>(s)]]);
    if (worst != kNegInf) arr[g] = worst + delay(g);
  }
  return arr;
}

/// Lane `lane`'s activation flags, read from the simulator's toggle words.
std::vector<std::uint8_t> lane_flags(const LogicSimulator& sim, unsigned lane = 0) {
  std::vector<std::uint8_t> flags;
  for (std::uint64_t w : sim.toggles()) flags.push_back(static_cast<std::uint8_t>((w >> lane) & 1u));
  return flags;
}

/// Lane `lane`'s toggled gates in the reference's order: flip-flops,
/// primary inputs, combinational gates (topological order), outputs.
std::vector<GateId> lane_list(const LogicSimulator& sim, unsigned lane = 0) {
  const netlist::Netlist& nl = sim.nl();
  std::vector<GateId> list;
  for (const auto* group : {&nl.dffs(), &nl.inputs(), &nl.topo_order(), &nl.outputs()}) {
    for (GateId g : *group)
      if (((sim.toggles()[g] >> lane) & 1u) != 0) list.push_back(g);
  }
  return list;
}

/// Bitwise equality, so -inf entries compare equal and any drift shows.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Pipeline oracle_pipeline(bool carry_select) {
  PipelineConfig cfg;
  if (carry_select) cfg.ex_adder = netlist::AdderKind::kCarrySelect;
  return netlist::build_pipeline(cfg);
}

class CompiledSimOracle : public ::testing::TestWithParam<bool> {};

TEST_P(CompiledSimOracle, MatchesReferenceEveryCycle) {
  const Pipeline p = oracle_pipeline(GetParam());
  const netlist::Netlist& nl = p.netlist;
  LogicSimulator sim(nl);
  ReferenceSimulator ref(nl);
  obs::Counter& toggles = obs::MetricsRegistry::instance().counter("sim.gate_toggles");
  support::Rng rng(GetParam() ? 77u : 42u);
  constexpr int kCycles = 2500;
  std::size_t active_cycles = 0;
  for (int t = 0; t < kCycles; ++t) {
    if (t == kCycles / 2) {
      sim.reset();
      ref.reset();
    }
    // Hold each input with probability 3/4 so activity stays realistic.
    for (GateId g : nl.inputs()) {
      if ((rng.next_u64() & 3u) != 0) continue;
      const bool v = (rng.next_u64() & 1u) != 0;
      sim.set_input(g, v);
      ref.set_input(g, v);
    }
    if (t % 97 == 13) {
      const GateId dff = nl.dffs()[rng.next_u64() % nl.dffs().size()];
      const bool v = (rng.next_u64() & 1u) != 0;
      sim.force_state(dff, v);
      ref.force_state(dff, v);
    }
    const std::uint64_t before = toggles.value();
    sim.step();
    ref.step();
    ASSERT_EQ(toggles.value() - before, ref.toggles()) << "cycle " << t;
    ASSERT_EQ(lane_flags(sim), ref.flags()) << "cycle " << t;
    const std::vector<GateId> list = lane_list(sim);
    ASSERT_EQ(list, ref.activated_list()) << "cycle " << t;
    for (GateId g = 0; g < nl.size(); ++g) ASSERT_EQ(sim.value(g), ref.value(g)) << "gate " << g;
    active_cycles += list.empty() ? 0 : 1;
  }
  EXPECT_GT(active_cycles, static_cast<std::size_t>(kCycles) / 2);
}

TEST_P(CompiledSimOracle, EveryLiveLaneMatchesItsOwnReference) {
  const Pipeline p = oracle_pipeline(GetParam());
  const netlist::Netlist& nl = p.netlist;
  constexpr unsigned kLanes = LogicSimulator::kLanes;
  LogicSimulator sim(nl);
  std::vector<ReferenceSimulator> refs(kLanes, ReferenceSimulator(nl));
  obs::Counter& toggles = obs::MetricsRegistry::instance().counter("sim.gate_toggles");
  obs::Counter& cycles = obs::MetricsRegistry::instance().counter("sim.cycles");
  support::Rng rng(GetParam() ? 31u : 30u);
  constexpr int kCycles = 96;
  for (int t = 0; t < kCycles; ++t) {
    if (t == kCycles / 2) {
      sim.reset();
      for (auto& ref : refs) ref.reset();
    }
    // Lane l sits out one 12-cycle stretch in four; a dead lane keeps its
    // last inputs, like a lane whose stream has ended.
    std::uint64_t live = 0;
    for (unsigned l = 0; l < kLanes; ++l)
      if ((t / 12 + l) % 4 != 0) live |= std::uint64_t{1} << l;
    for (unsigned l = 0; l < kLanes; ++l) {
      if (((live >> l) & 1u) == 0) continue;
      for (GateId g : nl.inputs()) {
        if ((rng.next_u64() & 3u) != 0) continue;
        const bool v = (rng.next_u64() & 1u) != 0;
        sim.set_input(g, v, l);
        refs[l].set_input(g, v);
      }
      if (rng.next_u64() % 61 == 0) {
        const GateId dff = nl.dffs()[rng.next_u64() % nl.dffs().size()];
        const bool v = (rng.next_u64() & 1u) != 0;
        sim.force_state(dff, v, l);
        refs[l].force_state(dff, v);
      }
    }
    const std::uint64_t toggles_before = toggles.value();
    const std::uint64_t cycles_before = cycles.value();
    sim.step(live);
    std::uint64_t live_toggles = 0;
    for (auto& ref : refs) ref.step();
    ASSERT_EQ(cycles.value() - cycles_before, static_cast<std::uint64_t>(std::popcount(live)));
    const auto words = sim.toggles();
    for (unsigned l = 0; l < kLanes; ++l) {
      if (((live >> l) & 1u) == 0) continue;
      const ReferenceSimulator& ref = refs[l];
      live_toggles += ref.toggles();
      ASSERT_EQ(lane_list(sim, l), ref.activated_list()) << "cycle " << t << " lane " << l;
      for (GateId g = 0; g < nl.size(); ++g) {
        ASSERT_EQ(sim.value(g, l), ref.value(g)) << "cycle " << t << " lane " << l << " gate " << g;
        ASSERT_EQ(((words[g] >> l) & 1u) != 0, ref.flags()[g] != 0)
            << "cycle " << t << " lane " << l << " gate " << g;
      }
    }
    ASSERT_EQ(toggles.value() - toggles_before, live_toggles) << "cycle " << t;
    // The scalar accessor reads lane 0.
    if ((live & 1u) != 0) {
      for (GateId g = 0; g < nl.size(); ++g)
        ASSERT_EQ(sim.activated(g), refs[0].flags()[g] != 0) << "cycle " << t << " gate " << g;
    }
  }
}

TEST_P(CompiledSimOracle, ListDrivenArrivalsMatchFlagDrivenOnEveryGate) {
  const Pipeline p = oracle_pipeline(GetParam());
  const netlist::Netlist& nl = p.netlist;
  const timing::VariationModel vm(nl, timing::VariationConfig{});
  support::Rng chip_rng(5);
  const timing::ChipSample chip = vm.sample_chip(chip_rng);
  LogicSimulator sim(nl);
  support::Rng rng(GetParam() ? 9u : 8u);
  for (int t = 0; t < 200; ++t) {
    for (GateId g : nl.inputs()) sim.set_input(g, (rng.next_u64() & 1u) != 0);
    sim.step();
    const std::vector<std::uint8_t> flags = lane_flags(sim);
    for (const timing::ChipSample* c : {static_cast<const timing::ChipSample*>(nullptr), &chip}) {
      const std::vector<double> from_list = timing::activated_arrivals(nl, lane_list(sim), c);
      ASSERT_TRUE(same_bits(from_list, timing::activated_arrivals(nl, flags, c))) << "cycle " << t;
      ASSERT_TRUE(same_bits(from_list, reference_arrivals(nl, flags, c))) << "cycle " << t;
    }
  }
  // Arbitrary flags, constants included: the derived list keeps every
  // flagged source ahead of the logic that reads it.
  for (int t = 0; t < 20; ++t) {
    std::vector<std::uint8_t> flags(nl.size());
    for (auto& f : flags) f = (rng.next_u64() % 3u) != 0 ? 1 : 0;
    for (const timing::ChipSample* c : {static_cast<const timing::ChipSample*>(nullptr), &chip})
      ASSERT_TRUE(same_bits(timing::activated_arrivals(nl, flags, c), reference_arrivals(nl, flags, c)));
  }
}

INSTANTIATE_TEST_SUITE_P(Pipelines, CompiledSimOracle, ::testing::Bool(),
                         [](const auto& info) { return info.param ? "CarrySelect" : "Default"; });

}  // namespace
}  // namespace terrors::sim
