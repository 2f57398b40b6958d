// Levelised two-value gate-level logic simulation, 64 streams at a time.
//
// The simulator realises Definition 3.2 of the paper: a gate is *activated*
// in a clock cycle iff, were the clock period sufficiently long, its output
// would eventually change.  On a glitch-free zero-delay abstraction this is
// exactly "the settled output value in cycle t differs from cycle t-1".
//
// The constructor compiles the finalised netlist once into a levelised
// structure-of-arrays program: per combinational gate, in topological
// order, an output slot, three fanin slots and an 8-entry truth table.
// Unused fanins read a constant-0 pad slot, so every gate evaluates the
// same branch-free way.
//
// Every value is a 64-bit word: bit l belongs to *lane* l, an independent
// stream with its own inputs and state.  One settle evaluates all 64 lanes
// with word operations, and a gate's per-cycle toggles (VCD(t) of Table 1)
// are the word cur ^ prev; toggles() is the simulator's one activation
// record.  Callers with one stream use lane 0 and the rest of the lanes
// simply idle.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace terrors::sim {

class LogicSimulator {
 public:
  static constexpr unsigned kLanes = 64;

  explicit LogicSimulator(const netlist::Netlist& nl);

  /// Reset all state, inputs, and history to 0 in every lane and settle.
  void reset();

  /// Drive a primary input of one lane for the upcoming cycle.
  void set_input(netlist::GateId input, bool value, unsigned lane = 0);
  /// Drive a word (little-endian) of primary inputs of one lane.
  void set_input_word(const std::vector<netlist::GateId>& word, std::uint64_t value,
                      unsigned lane = 0);

  /// Advance one clock cycle in every lane: flip-flops capture the previous
  /// cycle's settled D values, then combinational logic settles with the
  /// currently driven inputs.  `live` masks the lanes whose stream is
  /// still running; only they count toward sim.cycles and
  /// sim.gate_toggles.
  void step(std::uint64_t live = 1);

  /// Per gate, the lanes in which it toggled in the current cycle (bit l:
  /// lane l).  Valid until the next step() or reset().
  [[nodiscard]] std::span<const std::uint64_t> toggles() const { return toggles_; }

  /// Settled value of a gate's output in the current cycle.
  [[nodiscard]] bool value(netlist::GateId g, unsigned lane = 0) const {
    return ((values_[g] >> lane) & 1u) != 0;
  }
  /// Read a word (little-endian) of lane 0's settled values.
  [[nodiscard]] std::uint64_t value_word(const std::vector<netlist::GateId>& word) const;
  /// Whether the gate was activated in lane 0 in the current cycle (Def. 3.2).
  [[nodiscard]] bool activated(netlist::GateId g) const { return (toggles_[g] & 1u) != 0; }
  /// Cycles elapsed since reset.
  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  /// Process-unique id of the current cycle (0 before the first step), so
  /// consumers can tell one simulated cycle from another.
  [[nodiscard]] std::uint64_t step_id() const { return step_id_; }

  /// Force a flip-flop's current output in one lane (used to model
  /// error-correction induced state, e.g. a flushed pipeline).
  void force_state(netlist::GateId dff, bool value, unsigned lane = 0);

  [[nodiscard]] const netlist::Netlist& nl() const { return nl_; }

 private:
  /// Evaluate the compiled program, recording each gate's toggles;
  /// returns the number of toggles in the `live` lanes.
  std::uint64_t settle(std::uint64_t live);

  const netlist::Netlist& nl_;
  // Compiled combinational program, one entry per gate in topological order.
  std::vector<netlist::GateId> out_;
  std::vector<netlist::GateId> in0_;
  std::vector<netlist::GateId> in1_;
  std::vector<netlist::GateId> in2_;
  std::vector<std::uint8_t> tt_;  ///< bit (a | b<<1 | c<<2) is the output
  /// (q, d) per flip-flop and (port, driver) per primary output.
  std::vector<std::pair<netlist::GateId, netlist::GateId>> dffs_;
  std::vector<std::pair<netlist::GateId, netlist::GateId>> outputs_;
  std::vector<netlist::GateId> const1_;

  std::vector<std::uint64_t> values_;  ///< one word per gate, then the constant-0 pad
  std::vector<std::uint64_t> pending_inputs_;  ///< staged until the next step()
  std::vector<std::uint64_t> dff_next_;        ///< captured D values, in dffs_ order
  std::vector<std::uint64_t> toggles_;
  std::uint64_t cycle_ = 0;
  std::uint64_t step_id_ = 0;
};

}  // namespace terrors::sim
