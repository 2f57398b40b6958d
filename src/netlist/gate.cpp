#include "netlist/gate.hpp"

#include "support/check.hpp"

namespace terrors::netlist {

bool eval_gate(GateKind kind, std::span<const bool> in) {
  TE_REQUIRE(static_cast<int>(in.size()) == info(kind).arity, "fanin arity mismatch");
  switch (kind) {
    case GateKind::kBuf:
      return in[0];
    case GateKind::kInv:
      return !in[0];
    case GateKind::kAnd2:
      return in[0] && in[1];
    case GateKind::kNand2:
      return !(in[0] && in[1]);
    case GateKind::kOr2:
      return in[0] || in[1];
    case GateKind::kNor2:
      return !(in[0] || in[1]);
    case GateKind::kXor2:
      return in[0] != in[1];
    case GateKind::kXnor2:
      return in[0] == in[1];
    case GateKind::kMux2:
      return in[2] ? in[1] : in[0];
    default:
      TE_REQUIRE(false, "eval_gate on non-combinational gate");
  }
  return false;  // unreachable
}

}  // namespace terrors::netlist
