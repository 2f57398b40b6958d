// The Section 6.1 operating-point derivation for this repository's
// pipeline: the netlist's static worst arrival (STA), the largest dynamic
// EX arrival the trained datapath model gives for the operand contexts a
// calibration slice of the 12 workloads produces, and the baseline, PoFF
// and working frequencies derive_operating_points() places from them.
// bench_operating_point prints it; perf_test pins it.
#pragma once

#include <cstddef>

#include "netlist/pipeline.hpp"
#include "perf/ts_model.hpp"

namespace terrors::perf {

struct Calibration {
  double static_worst_ps = 0.0;     ///< worst STA arrival over all endpoints
  double dynamic_worst_ps = 0.0;    ///< worst modelled activated EX arrival
  double mean_ex_arrival_ps = 0.0;  ///< mean over the activated contexts
  std::size_t contexts = 0;         ///< activated EX contexts scanned
  OperatingPoints op;
};

/// Each workload runs `runs` inputs (seed 42) at a quarter of `scale`.
[[nodiscard]] Calibration calibrate_operating_points(const netlist::Pipeline& pipeline,
                                                     std::size_t runs, double scale);

}  // namespace terrors::perf
