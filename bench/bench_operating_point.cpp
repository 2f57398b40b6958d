// Reproduces the Section 6.1 experimental setup numbers for our synthetic
// design: the guardbanded SSTA baseline frequency, the point of first
// failure (PoFF), the chosen working frequency, and the frequency ratios
// (the paper reports 718 MHz baseline, 810 MHz PoFF = 1.13x, and an
// 825 MHz = 1.15x working point for its 45nm LEON3 build).
//
// The dynamic worst arrival comes from the trained datapath model applied
// to the operand contexts the 12 workloads actually produce
// (perf::calibrate_operating_points).
#include <cstdio>

#include "bench/common.hpp"
#include "perf/calibration.hpp"

using namespace terrors;

int main(int argc, char** argv) {
  const auto rs = bench::parse_scale(argc, argv);
  const auto& pipe = bench::pipeline();
  const perf::Calibration cal = perf::calibrate_operating_points(pipe, rs.runs, rs.scale);
  const perf::OperatingPoints& op = cal.op;
  const perf::TsProcessorModel ts;

  std::printf("Operating point derivation (Section 6.1 analogue)\n");
  bench::hr(60);
  std::printf("  gates                      : %zu\n", pipe.netlist.stats().gates);
  std::printf("  static worst arrival       : %8.1f ps\n", cal.static_worst_ps);
  std::printf("  dynamic worst arrival      : %8.1f ps\n", cal.dynamic_worst_ps);
  std::printf("  mean activated EX arrival  : %8.1f ps  (%zu contexts)\n", cal.mean_ex_arrival_ps,
              cal.contexts);
  std::printf("  baseline frequency         : %8.1f MHz\n", op.baseline_mhz);
  std::printf("  point of first failure     : %8.1f MHz  (%.2fx baseline; paper: 1.13x)\n",
              op.poff_mhz, op.poff_mhz / op.baseline_mhz);
  std::printf("  working frequency          : %8.1f MHz  (%.2fx baseline; paper: 1.15x)\n",
              op.working_mhz, op.working_mhz / op.baseline_mhz);
  std::printf("  configured working spec    : %8.1f MHz (period %.1f ps)\n",
              bench::working_spec().frequency_mhz(), bench::working_spec().period_ps);
  std::printf("  break-even error rate      : %8.4f %%\n", 100.0 * ts.break_even_error_rate());
  std::printf("  published mapping checks   : 0.4%% -> %+.2f%%  (paper +4.93%%)\n",
              100.0 * ts.performance_improvement(0.004));
  std::printf("                               1.068%% -> %+.2f%% (paper -8.46%%)\n",
              100.0 * ts.performance_improvement(0.01068));
  return 0;
}
