#include "sim/logic_sim.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace terrors::sim {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;

namespace {

/// 8-entry truth table of a combinational kind: bit (a | b<<1 | c<<2)
/// holds the output for fanin values (a, b, c); fanins past the kind's
/// arity are ignored.
std::uint8_t truth_table(GateKind kind) {
  const int arity = netlist::info(kind).arity;
  std::uint8_t tt = 0;
  for (unsigned idx = 0; idx < 8; ++idx) {
    const std::array<bool, 3> in = {(idx & 1u) != 0, (idx & 2u) != 0, (idx & 4u) != 0};
    if (netlist::eval_gate(kind, std::span<const bool>(in.data(), static_cast<std::size_t>(arity))))
      tt = static_cast<std::uint8_t>(tt | (1u << idx));
  }
  return tt;
}

}  // namespace

LogicSimulator::LogicSimulator(const netlist::Netlist& nl) : nl_(nl) {
  TE_REQUIRE(nl.finalized(), "simulator needs a finalized netlist");
  const auto pad = static_cast<GateId>(nl.size());
  const auto& topo = nl.topo_order();
  out_.reserve(topo.size());
  in0_.reserve(topo.size());
  in1_.reserve(topo.size());
  in2_.reserve(topo.size());
  tt_.reserve(topo.size());
  for (GateId id : topo) {
    const Gate& g = nl.gate(id);
    const int arity = g.arity();
    out_.push_back(id);
    in0_.push_back(g.fanin[0]);
    in1_.push_back(arity > 1 ? g.fanin[1] : pad);
    in2_.push_back(arity > 2 ? g.fanin[2] : pad);
    tt_.push_back(truth_table(g.kind));
  }
  for (GateId id : nl.dffs()) dffs_.emplace_back(id, nl.gate(id).fanin[0]);
  for (GateId id : nl.outputs()) outputs_.emplace_back(id, nl.gate(id).fanin[0]);
  for (GateId id = 0; id < nl.size(); ++id)
    if (nl.gate(id).kind == GateKind::kConst1) const1_.push_back(id);

  values_.assign(nl.size() + 1, 0);
  pending_inputs_.assign(nl.size(), 0);
  dff_next_.assign(dffs_.size(), 0);
  toggles_.assign(nl.size(), 0);
  reset();
}

void LogicSimulator::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  std::fill(pending_inputs_.begin(), pending_inputs_.end(), 0);
  cycle_ = 0;
  // Reset state is settled with every source at 0, constants included:
  // the constants are written only afterwards, so logic fed by kConst1
  // first sees its 1 in cycle 1.  Reset's own toggles are discarded.
  (void)settle(0);
  for (const auto& [port, driver] : outputs_) values_[port] = values_[driver];
  for (GateId id : const1_) values_[id] = ~std::uint64_t{0};
  std::fill(toggles_.begin(), toggles_.end(), 0);
}

void LogicSimulator::set_input(GateId input, bool v, unsigned lane) {
  TE_REQUIRE(nl_.gate(input).kind == GateKind::kInput, "set_input on a non-input gate");
  TE_REQUIRE(lane < kLanes, "lane out of range");
  // Staged: the value takes effect in the cycle started by the next step(),
  // so driving inputs never contaminates the previous cycle's settled state.
  const std::uint64_t bit = std::uint64_t{1} << lane;
  pending_inputs_[input] = v ? pending_inputs_[input] | bit : pending_inputs_[input] & ~bit;
}

void LogicSimulator::set_input_word(const std::vector<GateId>& word, std::uint64_t v,
                                    unsigned lane) {
  TE_REQUIRE(word.size() <= 64, "input word too wide");
  for (std::size_t i = 0; i < word.size(); ++i) set_input(word[i], ((v >> i) & 1ull) != 0, lane);
}

std::uint64_t LogicSimulator::value_word(const std::vector<GateId>& word) const {
  TE_REQUIRE(word.size() <= 64, "word too wide");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < word.size(); ++i)
    if (value(word[i])) v |= (1ull << i);
  return v;
}

void LogicSimulator::force_state(GateId dff, bool v, unsigned lane) {
  TE_REQUIRE(nl_.gate(dff).kind == GateKind::kDff, "force_state on a non-DFF gate");
  TE_REQUIRE(lane < kLanes, "lane out of range");
  const std::uint64_t bit = std::uint64_t{1} << lane;
  values_[dff] = v ? values_[dff] | bit : values_[dff] & ~bit;
}

std::uint64_t LogicSimulator::settle(std::uint64_t live) {
  // Before a gate is written its slot still holds last cycle's settled
  // value, so the toggle word needs no separate copy of the old state.
  // Every array is read through a local pointer: the stores below may
  // alias any member, which would force reloads inside the loop.
  std::uint64_t* v = values_.data();
  std::uint64_t* tog = toggles_.data();
  const GateId* out = out_.data();
  const GateId* in0 = in0_.data();
  const GateId* in1 = in1_.data();
  const GateId* in2 = in2_.data();
  const std::uint8_t* tt = tt_.data();
  const std::size_t n = out_.size();
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GateId o = out[i];
    const std::uint64_t a = v[in0[i]];
    const std::uint64_t b = v[in1[i]];
    const std::uint64_t c = v[in2[i]];
    // Three mux levels over the truth table's minterm masks: select on a,
    // then b, then c.
    const unsigned t = tt[i];
    auto m = [t](unsigned k) { return std::uint64_t{0} - ((t >> k) & 1u); };
    const std::uint64_t x0 = m(0) ^ ((m(0) ^ m(1)) & a);
    const std::uint64_t x1 = m(2) ^ ((m(2) ^ m(3)) & a);
    const std::uint64_t x2 = m(4) ^ ((m(4) ^ m(5)) & a);
    const std::uint64_t x3 = m(6) ^ ((m(6) ^ m(7)) & a);
    const std::uint64_t y0 = x0 ^ ((x0 ^ x1) & b);
    const std::uint64_t y1 = x2 ^ ((x2 ^ x3) & b);
    const std::uint64_t nv = y0 ^ ((y0 ^ y1) & c);
    const std::uint64_t toggled = nv ^ v[o];
    v[o] = nv;
    tog[o] = toggled;
    count += static_cast<std::uint64_t>(std::popcount(toggled & live));
  }
  return count;
}

void LogicSimulator::step(std::uint64_t live) {
  std::uint64_t* v = values_.data();
  std::uint64_t* tog = toggles_.data();
  std::uint64_t count = 0;
  auto update = [&](GateId g, std::uint64_t nv) {
    const std::uint64_t toggled = nv ^ v[g];
    v[g] = nv;
    tog[g] = toggled;
    count += static_cast<std::uint64_t>(std::popcount(toggled & live));
  };
  // 1. Flip-flops capture their data input's previous settled value; gather
  //    first so a flip-flop fed by another one reads its old state.
  for (std::size_t i = 0; i < dffs_.size(); ++i) dff_next_[i] = v[dffs_[i].second];
  for (std::size_t i = 0; i < dffs_.size(); ++i) update(dffs_[i].first, dff_next_[i]);
  // 2. Primary inputs take their newly driven values.
  for (GateId id : nl_.inputs()) update(id, pending_inputs_[id]);
  // 3. Combinational logic settles.
  count += settle(live);
  // 4. Primary outputs mirror their driver.
  for (const auto& [port, driver] : outputs_) update(port, v[driver]);
  ++cycle_;
  static std::atomic<std::uint64_t> next_step_id{1};
  step_id_ = next_step_id++;

  static obs::Counter& cycles_metric = obs::MetricsRegistry::instance().counter("sim.cycles");
  static obs::Counter& toggles_metric =
      obs::MetricsRegistry::instance().counter("sim.gate_toggles");
  cycles_metric.increment(static_cast<std::uint64_t>(std::popcount(live)));
  toggles_metric.increment(count);
}

}  // namespace terrors::sim
