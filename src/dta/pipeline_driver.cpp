#include "dta/pipeline_driver.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace terrors::dta {

using isa::Opcode;

FetchSlot FetchSlot::from_context(const isa::Instruction& inst, const isa::InstrDynContext& ctx) {
  FetchSlot s;
  s.pc = ctx.pc;
  s.word = isa::encode(inst);
  s.ex = ctx.cur;
  if (inst.op == Opcode::kLd) {
    s.is_load = true;
    s.mem_data = ctx.result;
  }
  return s;
}

FetchSlot FetchSlot::nop(std::uint32_t pc) {
  FetchSlot s;
  s.pc = pc;
  s.word = isa::encode(isa::Instruction{});
  s.ex = isa::ExContext{};
  return s;
}

ExDrive ex_drive_for(Opcode op) {
  ExDrive d;
  d.sel_imm = isa::uses_immediate(op);
  switch (isa::ex_unit(op)) {
    case isa::ExUnit::kAdder:
      d.alu_sel = 0;
      d.sub_mode = op == Opcode::kSub || op == Opcode::kSubi;
      break;
    case isa::ExUnit::kCompare:
      // Branches resolve on the RA-stage comparator; the EX ALU just
      // passes the B bus.
      d.alu_sel = 3;
      break;
    case isa::ExUnit::kLogic:
      d.alu_sel = 1;
      switch (op) {
        case Opcode::kAnd:
        case Opcode::kAndi:
          d.logic_sel = 0;
          break;
        case Opcode::kOr:
        case Opcode::kOri:
          d.logic_sel = 1;
          break;
        case Opcode::kXor:
        case Opcode::kXori:
          d.logic_sel = 2;
          break;
        case Opcode::kNot:
          d.logic_sel = 3;
          break;
        case Opcode::kMovi:
          d.alu_sel = 3;  // pass the immediate through the B bus
          break;
        default:
          break;
      }
      break;
    case isa::ExUnit::kShifter:
      d.alu_sel = 2;
      d.shift_dir = op == Opcode::kSrl || op == Opcode::kSrli;
      break;
    case isa::ExUnit::kNone:
      d.alu_sel = 3;
      break;
  }
  return d;
}

PipelineDriver::PipelineDriver(const netlist::Pipeline& pipeline)
    : p_(pipeline), sim_(pipeline.netlist) {}

void PipelineDriver::drive_cycle(const std::vector<FetchSlot>& slots, std::size_t t,
                                 unsigned lane) {
  const auto& ports = p_.ports;
  auto slot_at = [&](std::size_t idx) -> const FetchSlot* {
    return idx < slots.size() ? &slots[idx] : nullptr;
  };

  // Fetch-stage inputs: the instruction entering FE this cycle, and the PC
  // steering for the *next* fetch (the PC register captures at the end of
  // this cycle).
  static const FetchSlot kBubble = FetchSlot::nop();
  const FetchSlot& cur = slot_at(t) != nullptr ? *slot_at(t) : kBubble;
  sim_.set_input_word(ports.instr, cur.word, lane);
  const FetchSlot* next = slot_at(t + 1);
  const std::uint32_t next_pc = next != nullptr ? next->pc : cur.pc + 4;
  const bool sequential = next_pc == cur.pc + 4;
  sim_.set_input(ports.branch_taken, !sequential, lane);
  sim_.set_input_word(ports.branch_target, sequential ? 0 : next_pc, lane);

  // DE-stage inputs: register-file read values of the instruction fetched
  // at t-1.
  const FetchSlot* de = t >= 1 ? slot_at(t - 1) : nullptr;
  sim_.set_input_word(ports.op_a, de != nullptr ? de->ex.a : 0, lane);
  sim_.set_input_word(ports.op_b, de != nullptr ? de->ex.b : 0, lane);

  // RA-stage inputs: no forwarding (architectural values injected at DE).
  sim_.set_input_word(ports.bypass_a, 0, lane);
  sim_.set_input_word(ports.bypass_b, 0, lane);

  // EX-stage inputs for the instruction fetched at t-3.
  const FetchSlot* ex = t >= 3 ? slot_at(t - 3) : nullptr;
  const ExDrive d = ex_drive_for(ex != nullptr ? ex->ex.op : Opcode::kNop);
  sim_.set_input_word(ports.alu_sel, d.alu_sel, lane);
  sim_.set_input_word(ports.logic_sel, d.logic_sel, lane);
  sim_.set_input(ports.sel_imm, d.sel_imm, lane);
  sim_.set_input(ports.sub_mode, d.sub_mode, lane);
  sim_.set_input(ports.shift_dir, d.shift_dir, lane);

  // ME-stage inputs for the instruction fetched at t-4.
  const FetchSlot* me = t >= 4 ? slot_at(t - 4) : nullptr;
  sim_.set_input(ports.mem_is_load, me != nullptr && me->is_load, lane);
  sim_.set_input_word(ports.mem_data, me != nullptr ? me->mem_data : 0, lane);

  sim_.set_input_word(ports.ctrl_noise, 0, lane);
}

void PipelineDriver::run_batch(std::span<const std::vector<FetchSlot>> streams,
                               const CycleFn& on_cycle, int drain) {
  TE_REQUIRE(drain >= 0, "negative drain");
  TE_REQUIRE(streams.size() <= sim::LogicSimulator::kLanes, "more streams than lanes");
  sim_.reset();
  const std::size_t tail = static_cast<std::size_t>(drain);
  std::size_t total = 0;
  for (const auto& slots : streams) total = std::max(total, slots.size() + tail);
  for (std::size_t t = 0; t < total; ++t) {
    std::uint64_t live = 0;
    for (unsigned lane = 0; lane < streams.size(); ++lane) {
      if (t >= streams[lane].size() + tail) continue;
      drive_cycle(streams[lane], t, lane);
      live |= std::uint64_t{1} << lane;
    }
    sim_.step(live);
    on_cycle(LaneCycle{t, live, sim_.toggles(), sim_.step_id()});
  }
}

std::vector<RecordedCycle> PipelineDriver::run(const std::vector<FetchSlot>& slots, int drain) {
  std::vector<RecordedCycle> cycles;
  cycles.reserve(slots.size() + static_cast<std::size_t>(std::max(drain, 0)));
  run_batch(std::span(&slots, 1), [&](const LaneCycle& c) {
    RecordedCycle& r = cycles.emplace_back();
    r.t = c.t;
    r.step_id = c.step_id;
    r.toggles.resize(c.toggles.size());
    std::transform(c.toggles.begin(), c.toggles.end(), r.toggles.begin(),
                   [](std::uint64_t w) { return w & 1u; });
  }, drain);
  return cycles;
}

}  // namespace terrors::dta
