#include "timing/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <vector>

#include "support/check.hpp"

namespace terrors::timing {

using netlist::GateId;
using netlist::GateKind;

namespace {

std::string gate_label(const netlist::Netlist& nl, GateId g) {
  const auto& name = nl.name(g);
  std::string kind{netlist::info(nl.gate(g).kind).name};
  if (name.empty()) return std::string("g").append(std::to_string(g)).append(" (" + kind + ")");
  return name + " (" + kind + ")";
}

}  // namespace

void write_path_report(std::ostream& out, const netlist::Netlist& nl, const TimingSpec& spec,
                       const TimingPath& path, const VariationModel* vm, bool show_gates) {
  TE_REQUIRE(!path.gates.empty(), "empty path");
  out << "  Startpoint: " << gate_label(nl, path.gates.front()) << "\n";
  out << "  Endpoint:   " << gate_label(nl, path.endpoint) << "  (stage "
      << static_cast<int>(nl.gate(path.endpoint).stage) << ")\n";
  if (show_gates) {
    out << "    " << std::left << std::setw(36) << "point" << std::right << std::setw(10)
        << "incr(ps)" << std::setw(12) << "arrival(ps)" << "\n";
    double arrival = 0.0;
    for (GateId g : path.gates) {
      const double incr = nl.gate(g).delay_ps;
      arrival += incr;
      out << "    " << std::left << std::setw(36) << gate_label(nl, g) << std::right
          << std::fixed << std::setprecision(1) << std::setw(10) << incr << std::setw(12)
          << arrival << "\n";
    }
  }
  const double slack = path.slack(spec);
  out << "    data arrival " << std::fixed << std::setprecision(1) << path.delay_ps
      << " ps, required " << (spec.period_ps - spec.setup_ps) << " ps, slack " << slack
      << " ps (" << (slack >= 0.0 ? "MET" : "VIOLATED") << ")\n";
  if (vm != nullptr) {
    const PathStat st = path_stat(path, *vm);
    const stat::Gaussian sl = st.slack(spec);
    out << "    SSTA: slack " << sl.mean << " +- " << sl.sd
        << " ps, Pr(violation) = " << std::setprecision(6) << sl.cdf(0.0) << "\n";
  }
}

void write_timing_report(std::ostream& out, const netlist::Netlist& nl, const TimingSpec& spec,
                         PathEnumerator& paths, const VariationModel* vm,
                         const ReportConfig& config) {
  TE_REQUIRE(!config.show_statistics || vm != nullptr,
             "statistics require a variation model");
  out << "Timing report @ " << std::fixed << std::setprecision(1) << spec.frequency_mhz()
      << " MHz (period " << spec.period_ps << " ps, setup " << spec.setup_ps << " ps)\n";
  out << "============================================================\n";

  // Collect the most critical paths across all capture endpoints.
  std::vector<const TimingPath*> worst;
  for (std::uint8_t s = 0; s < nl.stage_count(); ++s) {
    for (GateId e : nl.stage_endpoints(s)) {
      const auto& pe = paths.top_paths(e, config.paths_per_endpoint);
      for (const auto& p : pe) worst.push_back(&p);
    }
  }
  std::sort(worst.begin(), worst.end(),
            [](const TimingPath* a, const TimingPath* b) { return a->delay_ps > b->delay_ps; });
  const std::size_t n = std::min(config.max_paths, worst.size());
  out << "reporting " << n << " of " << worst.size() << " collected paths\n\n";
  for (std::size_t i = 0; i < n; ++i) {
    out << "Path " << (i + 1) << ":\n";
    write_path_report(out, nl, spec, *worst[i], config.show_statistics ? vm : nullptr,
                      config.show_gates);
    out << "\n";
  }
}

}  // namespace terrors::timing
