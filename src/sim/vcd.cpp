#include "sim/vcd.hpp"

#include <cmath>

#include "support/check.hpp"

namespace terrors::sim {

VcdWriter::VcdWriter(std::ostream& out, const netlist::Netlist& nl,
                     std::vector<netlist::GateId> watched, std::string timescale,
                     double period_ps)
    : out_(out), watched_(std::move(watched)), period_ps_(period_ps) {
  TE_REQUIRE(!watched_.empty(), "VCD writer needs at least one watched net");
  TE_REQUIRE(period_ps_ > 0.0, "VCD clock period must be positive");
  last_.assign(watched_.size(), -1);
  out_ << "$date reproduction run $end\n";
  out_ << "$version terrors VcdWriter $end\n";
  out_ << "$timescale " << timescale << " $end\n";
  out_ << "$scope module pipeline $end\n";
  for (std::size_t i = 0; i < watched_.size(); ++i) {
    const auto& name = nl.name(watched_[i]);
    out_ << "$var wire 1 " << identifier(i) << " "
         << (name.empty() ? std::string("g").append(std::to_string(watched_[i])) : name)
         << " $end\n";
  }
  out_ << "$upscope $end\n$enddefinitions $end\n";
}

std::string VcdWriter::identifier(std::size_t index) {
  // Printable-ASCII identifier code, base-94 starting at '!'.
  std::string id;
  do {
    id.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index != 0);
  return id;
}

void VcdWriter::sample(const LogicSimulator& sim) {
  bool emitted_time = false;
  for (std::size_t i = 0; i < watched_.size(); ++i) {
    const int v = sim.value(watched_[i]) ? 1 : 0;
    if (v == last_[i]) continue;
    if (!emitted_time) {
      out_ << "#" << static_cast<std::uint64_t>(std::llround(
                         static_cast<double>(sample_index_) * period_ps_))
           << "\n";
      emitted_time = true;
    }
    out_ << v << identifier(i) << "\n";
    last_[i] = v;
  }
  ++sample_index_;
}

}  // namespace terrors::sim
