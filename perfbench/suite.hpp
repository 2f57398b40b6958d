// Shared pieces of the perfbench program: the workloads, their generated
// programs and inputs, fresh frameworks, one pass of analyze() calls, and
// the checks on what a pass returns.  Everything here calls the program's
// public API from outside; nothing under src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/framework.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"
#include "netlist/pipeline.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

using namespace terrors;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// The operating point and input shape of every workload (the CLI's
/// `analyze` defaults): 1300 ps, 4 input runs per program.
inline constexpr double kPeriodPs = 1300.0;
inline constexpr std::size_t kInputRuns = 4;
/// The seed the golden rows were recorded at.
inline constexpr std::uint64_t kGoldenSeed = 2026;

enum class CacheMode {
  kOff,           ///< no artifact cache
  kFreshPerPass,  ///< cache on, pointed at an empty directory every pass
  kWarm,          ///< cache filled during set-up; every analyze hits it
};

struct Workload {
  std::string name;
  double scale = 1e-4;      ///< fraction of Table 2's dynamic instructions
  std::size_t threads = 1;  ///< global pool width during timed passes
  CacheMode cache = CacheMode::kOff;
  /// The workload whose configuration cross-checks this one's estimates
  /// in one extra pass ("" = none).
  std::string cross;
  /// Golden file (under the golden directory) for kGoldenSeed.
  std::string golden;
};

/// min(4, hardware threads): the parallel width.
[[nodiscard]] std::size_t parallel_width();
[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// One generated program with its inputs and executor configuration.
struct Job {
  std::string name;
  isa::Program program;
  std::vector<isa::ProgramInput> inputs;
  isa::ExecutorConfig executor;
};
/// All 12 MiBench-like programs, in Table 2 order.
[[nodiscard]] std::vector<Job> make_jobs(double scale, std::uint64_t seed);

/// A framework ready for a pass: constructed (VariationModel, datapath
/// training or its cache load) and, when its analyses will characterise,
/// with the shared path set warmed.
[[nodiscard]] std::unique_ptr<core::ErrorRateFramework> make_framework(
    const netlist::Pipeline& pipeline, const Workload& w, std::string cache_dir, bool warm_paths);

/// obs::MetricsRegistry counters, by name.  Only registered counters are
/// present: a counter the program no longer registers is missing, not 0.
using Counters = std::map<std::string, std::uint64_t>;
[[nodiscard]] Counters read_counters();
[[nodiscard]] Counters counter_delta(const Counters& before, const Counters& after);

/// Every field of an estimate, as hex floats: equal strings mean
/// bit-identical results.
[[nodiscard]] std::string fingerprint(const core::ErrorRateEstimate& e,
                                      std::uint64_t instructions, std::size_t basic_blocks);
/// The golden row: name, rate_mean, rate_sd, dk_lambda, dk_count,
/// basic_blocks, instructions, with round-trip digits.
[[nodiscard]] std::string golden_row(const core::BenchmarkResult& r);

struct CallResult {
  double seconds = 0.0;
  std::string fingerprint;  ///< empty when the call threw
  std::string golden_row;
  std::string error;        ///< why the call failed ("" = it did not)
};

struct PassResult {
  double suite_s = 0.0;  ///< the calls' summed wall time
  std::vector<CallResult> calls;
  /// Counter deltas over the pass, plus the global pool's pool.tasks and
  /// pool.steal_or_wait.
  Counters counters;
};

/// One pass: the 12 analyze() calls back to back, each timed.  A call
/// that throws or comes back degraded is marked failed.
[[nodiscard]] PassResult run_pass(core::ErrorRateFramework& fw, const std::vector<Job>& jobs);

/// Collects the outcome of every check: per-call failures and problems
/// that concern a whole pass (counter drift, golden file unreadable).
class Checks {
 public:
  /// Count a call as attempted; `error` non-empty marks it failed.
  void call(const std::string& program, const std::string& error);
  /// Count every call of a pass as attempted.  A call fails when it
  /// threw or degraded, when its fingerprint differs from `reference`'s,
  /// or when its row differs from `golden`'s (either list may be empty:
  /// no such check).
  void pass(const PassResult& p, const std::vector<std::string>& reference,
            const std::vector<std::string>& golden, std::string_view what);
  /// Exact counters of `p` must equal `reference`'s.  `across_configs`
  /// also skips cache and pool counters, which differ by configuration.
  void counters(const Counters& p, const Counters& reference, std::string_view what,
                bool skip_scheduling, bool across_configs);
  void problem(std::string what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && problems_ == 0; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t problems_ = 0;
};

[[nodiscard]] std::vector<std::string> fingerprints(const PassResult& p);
/// Golden rows of a file written by write_golden (empty if unreadable).
[[nodiscard]] std::vector<std::string> read_golden(const std::string& path);
void write_golden(const PassResult& p, const std::string& path);

/// Sum of a registry histogram's observations.
[[nodiscard]] double histogram_sum(const char* name);
[[nodiscard]] double median(std::vector<double> v);
/// The value of `v` at the highest percentile that leaves at least ten
/// samples beyond it in a sample of `min_samples` (nearest rank; the
/// largest value when `min_samples` is ten or fewer).
[[nodiscard]] double tail(std::vector<double> v, std::size_t min_samples);
/// The percentile tail() picks for `min_samples`.
[[nodiscard]] double tail_percentile(std::size_t min_samples);

/// getrusage high-water mark of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Where a run keeps its files.
struct Paths {
  std::string golden_dir;  ///< holds the golden row files
  std::string work_dir;    ///< scratch space for cache directories
  std::string trace_out;   ///< the traced run writes its spans here
};

/// What set_up leaves for the timed passes, and how long it took.
struct Setup {
  std::unique_ptr<netlist::Pipeline> pipeline;
  std::unique_ptr<core::ErrorRateFramework> framework;  ///< prepared for pass 0
  std::string warm_cache_dir;                           ///< kWarm: the filled cache
  std::vector<std::string> cold_reference;              ///< kWarm: the cold fill's estimates
  Counters fill_counters;  ///< kWarm: counter deltas over the last cold fill
  double fill_store_s = 0.0;  ///< kWarm: cache store time of the last cold fill
  std::vector<double> seconds;                          ///< one per repetition
  std::vector<double> build_pipeline_seconds;           ///< one per repetition
};
struct SetupReps {
  int min = 1;
  int max = 1;
  double budget_s = 0.0;  ///< repeat past `min` only while under this total
};
/// Everything a workload does before its first timed pass: build the
/// pipeline, construct and prepare a framework, and for kWarm fill the
/// cache with one cold pass.  Repeated as `reps` says; each repetition is
/// timed and the last one's pipeline and framework are kept.
[[nodiscard]] Setup set_up(const Workload& w, const std::vector<Job>& jobs, const Paths& paths,
                           SetupReps reps, Checks& checks);

/// The cache directory a pass of `w` uses: none, the filled one, or a
/// fresh one named by `label`.
[[nodiscard]] std::string pass_cache_dir(const Workload& w, const Paths& paths,
                                         const Setup& setup, const std::string& label);

/// One pass under the configuration of `w.cross` (if any): its estimates
/// must be byte-identical to `reference` and its exact analysis counters
/// equal to `reference_counters`.
void cross_check(const Workload& w, const std::vector<Job>& jobs, const Setup& setup,
                 const Paths& paths, const std::vector<std::string>& reference,
                 const Counters& reference_counters, Checks& checks);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The traced run (layers.cpp): per-layer times from spans around calls
/// into each module, repeated for `seconds`; counter deltas; pool-scaling
/// and kernel probes.
[[nodiscard]] std::vector<Metric> run_layers(const Workload& w, const std::vector<Job>& jobs,
                                             Setup& setup, const Paths& paths, Checks& checks,
                                             const std::vector<std::string>& golden,
                                             std::uint64_t seed, double seconds);

}  // namespace perfbench
