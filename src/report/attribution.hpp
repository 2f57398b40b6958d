// build_run_report / build_run_event: turn one analyze() call into a
// RunReport, or into the wide run event of the run journal (DESIGN §5g).
//
// Everything is read from the framework's retained records of that call
// (ErrorRateFramework::last) and its BenchmarkResult: per-block /
// per-edge error attribution from the marginals and the executor
// profile (each block's lambda term e_b * sum_k p_{b_k}, Eq. 10),
// per-SCC solve diagnostics from the solver's own record, per-stage and
// per-opcode control-DTS slack summaries from the shared path
// enumerator, the top culprit timing paths, and (optionally) a
// Monte-Carlo cross-check of the analytic count distribution.
//
// Building the report only reads: the analysis result is the same
// whether or not a report is built, and the only metric it touches is
// the report.builds counter.  Building the event touches none.
#pragma once

#include <cstddef>

#include "core/framework.hpp"
#include "obs/journal.hpp"
#include "report/run_report.hpp"

namespace terrors::report {

/// Culprit paths listed in the report (and per-endpoint stats depth).
inline constexpr std::size_t kTopCulpritPaths = 10;

/// Assemble the report for the analyze() call `fw` last ran (its
/// artifacts must still be held by ErrorRateFramework::last).
/// `mc_trials` > 0 adds a Monte-Carlo cross-check, which needs a profile
/// recorded with ExecutorConfig::record_block_trace; 0 disables it.  The
/// thread count recorded is the global pool's current width.
[[nodiscard]] RunReport build_run_report(core::ErrorRateFramework& fw, const isa::Program& program,
                                         const core::BenchmarkResult& result,
                                         std::size_t mc_trials);

/// The run event for the analyze() call `fw` last ran: identity and
/// shape, phase times and estimate from `result`, and the run's counter
/// deltas, pool cost and degradation sites from ErrorRateFramework::last.
/// A caller that writes more after the run (terrors analyze: report,
/// metrics, trace) adds those writes' counter deltas and re-derives the
/// sites before appending it with obs::append_event.
[[nodiscard]] obs::RunEvent build_run_event(const core::ErrorRateFramework& fw,
                                            const isa::Program& program,
                                            const core::BenchmarkResult& result);

}  // namespace terrors::report
