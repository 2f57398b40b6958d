// Levelised two-value gate-level logic simulation.
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
// same branch-free way.  While it settles, each cycle also compacts the
// gates that toggled into a list (VCD(t) of Table 1), which the arrival
// DP walks instead of the whole netlist.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace terrors::sim {

class LogicSimulator {
 public:
  explicit LogicSimulator(const netlist::Netlist& nl);

  /// Reset all state, inputs, and history to 0 and settle.
  void reset();

  /// Drive a primary input for the upcoming cycle.
  void set_input(netlist::GateId input, bool value);
  /// Drive a word (little-endian) of primary inputs.
  void set_input_word(const std::vector<netlist::GateId>& word, std::uint64_t value);

  /// Advance one clock cycle: flip-flops capture the previous cycle's
  /// settled D values, then combinational logic settles with the currently
  /// driven inputs.  Activation flags are recomputed.
  void step();

  /// Settled value of a gate's output in the current cycle.
  [[nodiscard]] bool value(netlist::GateId g) const { return values_[g] != 0; }
  /// Read a word (little-endian) of settled values.
  [[nodiscard]] std::uint64_t value_word(const std::vector<netlist::GateId>& word) const;
  /// Whether the gate was activated in the current cycle (Def. 3.2).
  [[nodiscard]] bool activated(netlist::GateId g) const { return activated_[g] != 0; }
  /// Dense activation flags, indexed by gate id.
  [[nodiscard]] const std::vector<std::uint8_t>& activation_flags() const { return activated_; }
  /// The gates activated in the current cycle: toggled flip-flops (in
  /// Netlist::dffs() order), primary inputs (inputs() order), combinational
  /// gates (topological order), then primary outputs (outputs() order).
  /// Every source precedes the combinational gates that read it, which is
  /// the order timing::activated_arrivals needs.  Valid until the next
  /// step() or reset().
  [[nodiscard]] std::span<const netlist::GateId> activated_gates() const {
    return {activated_list_.data(), activated_count_};
  }
  /// Cycles elapsed since reset.
  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }

  /// Force a flip-flop's current output (used to model error-correction
  /// induced state, e.g. a flushed pipeline).
  void force_state(netlist::GateId dff, bool value);

  [[nodiscard]] const netlist::Netlist& nl() const { return nl_; }

 private:
  /// Evaluate the compiled program, appending the toggled gates to the
  /// list after its first `k` entries; returns the new length.
  std::size_t settle(std::size_t k);

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

  std::vector<std::uint8_t> values_;  ///< one slot per gate, then the constant-0 pad
  std::vector<std::uint8_t> pending_inputs_;  ///< staged until the next step()
  std::vector<std::uint8_t> dff_next_;        ///< captured D values, in dffs_ order
  std::vector<std::uint8_t> activated_;
  std::vector<netlist::GateId> activated_list_;  ///< capacity: every gate
  std::size_t activated_count_ = 0;
  std::uint64_t cycle_ = 0;
};

}  // namespace terrors::sim
