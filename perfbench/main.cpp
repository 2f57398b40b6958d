// perfbench: the repository benchmark (README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --golden-dir DIR --work-dir DIR [--trace-out FILE] [--write-golden]
//
// One process with one closed-loop caller: back-to-back
// ErrorRateFramework::analyze() calls over the 12 generated MiBench-like
// programs, one fresh framework per pass, passes repeated for S seconds.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced decomposition instead and prints the per-layer metrics.
// Either way it checks every estimate, and the last line of stdout is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "suite.hpp"

using namespace perfbench;

namespace {

/// Set-up repetitions per timed run (setup_s is their median): at least 3,
/// and up to 15 while they have taken less than 2 s in all.
constexpr SetupReps kSetupReps{3, 15, 2.0};
/// Timed passes per run, at least; more while --seconds has not elapsed.
constexpr std::size_t kMinPasses = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  bool write_golden = false;
  Paths paths;
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--write-golden") {
      o.write_golden = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      o.trace = v == "1";
    } else if (a == "--golden-dir") {
      o.paths.golden_dir = v;
    } else if (a == "--work-dir") {
      o.paths.work_dir = v;
    } else if (a == "--trace-out") {
      o.paths.trace_out = v;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || o.paths.golden_dir.empty() || o.paths.work_dir.empty())
    return std::nullopt;
  return o;
}

/// Timed passes, the cross-configuration pass, and the end-to-end metrics.
std::vector<Metric> run_timed(const Workload& w, const Options& o, const std::vector<Job>& jobs,
                              Setup& setup, Checks& checks,
                              const std::vector<std::string>& golden) {
  // table2 passes must agree with the first pass; warm-long passes with
  // the cold analyses that filled the cache.
  std::vector<std::string> reference = setup.cold_reference;
  std::vector<PassResult> passes;
  std::unique_ptr<core::ErrorRateFramework> fw = std::move(setup.framework);
  const auto t_start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::string label = "pass-" + std::to_string(i);
    if (i > 0) {
      fw.reset();
      fw = make_framework(*setup.pipeline, w, pass_cache_dir(w, o.paths, setup, label),
                          w.cache != CacheMode::kWarm);
    }
    PassResult p = run_pass(*fw, jobs);
    std::printf("%s: suite %.4f s\n", label.c_str(), p.suite_s);
    if (reference.empty()) reference = fingerprints(p);
    checks.pass(p, reference, golden, label);
    if (i > 0) checks.counters(p.counters, passes[0].counters, label, w.threads > 1, false);
    passes.push_back(std::move(p));
    if (passes.size() >= kMinPasses && seconds_since(t_start) >= o.seconds) break;
  }
  fw.reset();
  if (o.write_golden) write_golden(passes[0], o.paths.golden_dir + "/" + w.golden);

  cross_check(w, jobs, setup, o.paths, reference, passes[0].counters, checks);

  // The latency metrics are per-pass statistics, medians over passes: the
  // 12 programs' latencies form separate clusters, so a percentile over
  // all calls at once can sit on the edge between two clusters and jump
  // from one to the other.  The tail is the percentile that leaves ten
  // calls beyond it in the smallest run, fixed so that runs completing
  // more passes stay comparable.
  const std::size_t min_calls = kMinPasses * jobs.size();
  std::vector<double> suite, pass_p50, pass_tail;
  for (const auto& p : passes) {
    suite.push_back(p.suite_s);
    std::vector<double> pass_calls;
    for (const auto& c : p.calls) pass_calls.push_back(c.seconds);
    pass_p50.push_back(median(pass_calls));
    pass_tail.push_back(tail(pass_calls, min_calls));
  }
  std::printf("passes: %zu, analyze calls: %zu\n", passes.size(), passes.size() * jobs.size());
  std::printf("analyze_tail_s: p%.1f call of each pass, median over %zu passes\n",
              tail_percentile(min_calls), passes.size());
  return {
      {"suite_s", median(suite), "s"},
      {"analyze_p50_s", median(pass_p50), "s"},
      {"analyze_tail_s", median(pass_tail), "s"},
      {"setup_s", median(setup.seconds), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

void print_result(Checks& checks, std::vector<Metric> metrics) {
  for (auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      checks.problem("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  std::printf("failed_frac: %llu of %llu analyze calls\n",
              static_cast<unsigned long long>(checks.failed()),
              static_cast<unsigned long long>(checks.attempted()));
  for (const auto& m : metrics)
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              checks.correct() ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opts = parse_options(argc, argv);
  if (!opts) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--golden-dir DIR --work-dir DIR [--trace-out FILE] [--write-golden]\n");
    return 2;
  }
  const Options& o = *opts;
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (o.write_golden && o.seed != kGoldenSeed) {
    std::fprintf(stderr, "perfbench: --write-golden needs --seed %llu\n",
                 static_cast<unsigned long long>(kGoldenSeed));
    return 2;
  }
  try {
    support::set_global_threads(w->threads);
    std::printf("workload %s: scale %g, pool width %zu, seed %llu\n", w->name.c_str(), w->scale,
                w->threads, static_cast<unsigned long long>(o.seed));
    const std::vector<Job> jobs = make_jobs(w->scale, o.seed);
    Checks checks;
    std::vector<std::string> golden;
    if (o.seed == kGoldenSeed && !o.write_golden) {
      golden = read_golden(o.paths.golden_dir + "/" + w->golden);
      if (golden.size() != jobs.size()) {
        checks.problem("golden file " + w->golden + " is missing or incomplete");
        golden.clear();
      }
    }
    Setup setup = set_up(*w, jobs, o.paths, o.trace ? SetupReps{} : kSetupReps, checks);
    const std::vector<Metric> metrics =
        o.trace ? run_layers(*w, jobs, setup, o.paths, checks, golden, o.seed, o.seconds)
                : run_timed(*w, o, jobs, setup, checks, golden);
    print_result(checks, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
