// Drives the gate-level pipeline netlist with instruction streams, up to
// one per simulator lane, handing out each cycle's activation (the VCD(t)
// input of Algorithm 1) as it is simulated.
//
// Each FetchSlot describes one instruction entering the fetch stage in one
// cycle; the driver applies the stage-appropriate primary inputs with the
// right skew (register-file values one cycle later, ALU selects three
// cycles later, memory data four cycles later) and sequences the PC inputs
// so the program counter register follows the architectural fetch stream.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dta/dts_analyzer.hpp"
#include "isa/executor.hpp"
#include "isa/isa.hpp"
#include "netlist/pipeline.hpp"
#include "sim/logic_sim.hpp"

namespace terrors::dta {

struct FetchSlot {
  std::uint32_t pc = 0;
  std::uint32_t word = 0;  ///< encoded instruction
  isa::ExContext ex;       ///< EX-stage operand values of this instruction
  std::uint32_t mem_data = 0;
  bool is_load = false;

  /// Build a slot from a static instruction and one dynamic context.
  static FetchSlot from_context(const isa::Instruction& inst, const isa::InstrDynContext& ctx);
  /// A pipeline bubble.
  static FetchSlot nop(std::uint32_t pc = 0);
};

/// ALU control-input values for an opcode, mirroring the netlist datapath.
struct ExDrive {
  std::uint8_t alu_sel = 3;  ///< 0 add/sub, 1 logic, 2 shift, 3 pass-B
  std::uint8_t logic_sel = 0;
  bool sel_imm = false;
  bool sub_mode = false;
  bool shift_dir = false;
};
[[nodiscard]] ExDrive ex_drive_for(isa::Opcode op);

class PipelineDriver {
 public:
  using CycleFn = std::function<void(const LaneCycle&)>;

  explicit PipelineDriver(const netlist::Pipeline& pipeline);

  /// Simulate up to 64 slot streams side by side, one per lane, from one
  /// reset; each runs for its slots plus `drain` trailing bubbles and its
  /// lane goes dead after that.  Every cycle goes to `on_cycle` as soon as
  /// it settles, so nothing per cycle is stored.
  void run_batch(std::span<const std::vector<FetchSlot>> streams, const CycleFn& on_cycle,
                 int drain = netlist::Pipeline::kStages);

  /// One stream, with every cycle kept: lane 0's toggle words per
  /// simulated cycle, in order; the instruction of slots[t] occupies
  /// pipeline stage s in cycle t + s.
  [[nodiscard]] std::vector<RecordedCycle> run(const std::vector<FetchSlot>& slots,
                                               int drain = netlist::Pipeline::kStages);

  [[nodiscard]] const netlist::Pipeline& pipeline() const { return p_; }
  /// The simulator, e.g. to read settled values from a run_batch callback.
  [[nodiscard]] const sim::LogicSimulator& simulator() const { return sim_; }

 private:
  void drive_cycle(const std::vector<FetchSlot>& slots, std::size_t t, unsigned lane);

  const netlist::Pipeline& p_;
  sim::LogicSimulator sim_;
};

}  // namespace terrors::dta
