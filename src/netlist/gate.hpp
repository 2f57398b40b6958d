// The gate library: a small standard-cell set sufficient to structurally
// elaborate an in-order integer pipeline (adders, shifters, mux trees,
// decoders, random control clouds) with per-kind nominal delays loosely
// modelled on a 45nm general-purpose library.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "support/check.hpp"

namespace terrors::netlist {

enum class GateKind : std::uint8_t {
  kInput,   ///< primary input (endpoint in the paper's sense: a path source)
  kConst0,  ///< constant 0
  kConst1,  ///< constant 1
  kBuf,
  kInv,
  kAnd2,
  kNand2,
  kOr2,
  kNor2,
  kXor2,
  kXnor2,
  kMux2,  ///< fanins: (a, b, sel) -> sel ? b : a
  kDff,   ///< fanin: (d); output is the captured state (a path endpoint)
  kOutput,  ///< primary output (endpoint); fanin: (d)
};

inline constexpr int kGateKindCount = 14;

/// Static properties of a gate kind.
struct GateKindInfo {
  std::string_view name;
  int arity;              ///< number of fanins
  double delay_ps;        ///< nominal propagation delay (DFF: clk-to-q)
  bool combinational;     ///< participates in combinational evaluation
};

// Nominal delays loosely follow the relative drive strengths of a 45nm
// general-purpose cell library; absolute values only matter up to the
// clock-period scale chosen by the timing spec.
inline constexpr std::array<GateKindInfo, kGateKindCount> kGateKindInfo = {{
    {"input", 0, 0.0, false},    // kInput
    {"const0", 0, 0.0, false},   // kConst0
    {"const1", 0, 0.0, false},   // kConst1
    {"buf", 1, 10.0, true},      // kBuf
    {"inv", 1, 7.0, true},       // kInv
    {"and2", 2, 16.0, true},     // kAnd2
    {"nand2", 2, 11.0, true},    // kNand2
    {"or2", 2, 18.0, true},      // kOr2
    {"nor2", 2, 13.0, true},     // kNor2
    {"xor2", 2, 24.0, true},     // kXor2
    {"xnor2", 2, 24.0, true},    // kXnor2
    {"mux2", 3, 22.0, true},     // kMux2
    {"dff", 1, 42.0, false},     // kDff (clk-to-q)
    {"output", 1, 0.0, false},   // kOutput
}};

/// Lookup table of gate-kind properties.
inline const GateKindInfo& info(GateKind kind) {
  const auto idx = static_cast<std::size_t>(kind);
  TE_REQUIRE(idx < kGateKindInfo.size(), "unknown gate kind");
  return kGateKindInfo[idx];
}

/// Evaluate the boolean function of a combinational gate kind.
/// `in` must have exactly info(kind).arity entries.
bool eval_gate(GateKind kind, std::span<const bool> in);

/// Setup time budget of flip-flops / primary outputs, in picoseconds.
inline constexpr double kSetupTimePs = 30.0;

}  // namespace terrors::netlist
