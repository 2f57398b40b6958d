#include "suite.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t parallel_width() {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"table2-serial", 1e-4, 1, CacheMode::kOff, "table2-par4", "table2-scale1e-4.txt"},
      {"table2-par4", 1e-4, parallel_width(), CacheMode::kFreshPerPass, "table2-serial",
       "table2-scale1e-4.txt"},
      {"warm-long", 1e-2, 1, CacheMode::kWarm, "", "warm-long-scale1e-2.txt"},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Job> make_jobs(double scale, std::uint64_t seed) {
  std::vector<Job> jobs;
  for (const auto& spec : workloads::mibench_specs()) {
    jobs.push_back({spec.name, workloads::generate_program(spec),
                    workloads::generate_inputs(spec, kInputRuns, seed),
                    workloads::executor_config_for(spec, kInputRuns, scale)});
  }
  return jobs;
}

namespace {
/// Framework configuration of a workload; `cache_dir` empty = cache off.
core::FrameworkConfig framework_config(const Workload& w, std::string cache_dir) {
  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{kPeriodPs};
  cfg.execution_scale = 1.0 / w.scale;
  cfg.cache_dir = std::move(cache_dir);
  return cfg;
}
}  // namespace

std::unique_ptr<core::ErrorRateFramework> make_framework(const netlist::Pipeline& pipeline,
                                                         const Workload& w, std::string cache_dir,
                                                         bool warm_paths) {
  auto fw = std::make_unique<core::ErrorRateFramework>(pipeline,
                                                       framework_config(w, std::move(cache_dir)));
  if (warm_paths) fw->characterizer().warm_paths();
  return fw;
}

Counters read_counters() { return obs::MetricsRegistry::instance().counter_values(); }

Counters counter_delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    d[name] = value - (it == before.end() ? 0 : it->second);
  }
  return d;
}

namespace {
/// Counters whose per-pass value depends on scheduling at pool width > 1;
/// every other counter is exact and must repeat between passes.
bool scheduling_dependent(std::string_view counter) {
  // Each worker owns its DP cache, so which entries collide depends on
  // which edges a worker happens to run; idle wake-ups depend on timing.
  return counter == "dta.dp_cache_collisions" || counter == "pool.steal_or_wait";
}
}  // namespace

std::string fingerprint(const core::ErrorRateEstimate& e, std::uint64_t instructions,
                        std::size_t basic_blocks) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%a %a %a %llu %a %a %a %a %a %a %a %llu %zu", e.lambda.mean,
                e.lambda.sd, e.lambda_empirical_sd,
                static_cast<unsigned long long>(e.total_instructions), e.dk_lambda, e.dk_count,
                e.b1_worst, e.b2_worst, e.sigma_chain, e.stein_sum_abs3, e.stein_sum4,
                static_cast<unsigned long long>(instructions), basic_blocks);
  return buf;
}

std::string golden_row(const core::BenchmarkResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%s %.17g %.17g %.17g %.17g %zu %llu", r.name.c_str(),
                r.estimate.rate_mean(), r.estimate.rate_sd(), r.estimate.dk_lambda,
                r.estimate.dk_count, r.basic_blocks,
                static_cast<unsigned long long>(r.instructions));
  return buf;
}

PassResult run_pass(core::ErrorRateFramework& fw, const std::vector<Job>& jobs) {
  PassResult p;
  const Counters before = read_counters();
  const auto pool_before = support::global_pool().stats();
  for (const Job& job : jobs) {
    CallResult c;
    fw.set_executor_config(job.executor);
    const auto t0 = Clock::now();
    try {
      const core::BenchmarkResult r = fw.analyze(job.program, job.inputs);
      c.seconds = seconds_since(t0);
      c.fingerprint = fingerprint(r.estimate, r.instructions, r.basic_blocks);
      c.golden_row = golden_row(r);
      if (r.degraded) c.error = "degraded";
    } catch (const std::exception& e) {
      c.seconds = seconds_since(t0);
      c.error = std::string("threw: ") + e.what();
    }
    p.suite_s += c.seconds;
    p.calls.push_back(std::move(c));
  }
  p.counters = counter_delta(before, read_counters());
  const auto pool_after = support::global_pool().stats();
  p.counters["pool.tasks"] = pool_after.tasks - pool_before.tasks;
  p.counters["pool.steal_or_wait"] = pool_after.steal_or_wait - pool_before.steal_or_wait;
  return p;
}

void Checks::call(const std::string& program, const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  std::printf("check: %s: %s\n", program.c_str(), error.c_str());
}

void Checks::pass(const PassResult& p, const std::vector<std::string>& reference,
                  const std::vector<std::string>& golden, std::string_view what) {
  const auto& specs = workloads::mibench_specs();
  for (std::size_t i = 0; i < p.calls.size(); ++i) {
    const CallResult& c = p.calls[i];
    std::string error = c.error;
    if (error.empty() && !reference.empty() && c.fingerprint != reference.at(i))
      error = std::string(what) + ": estimate not bit-identical to the reference";
    if (error.empty() && !golden.empty() && c.golden_row != golden.at(i))
      error = "row differs from the golden: got '" + c.golden_row + "', golden '" +
              golden.at(i) + "'";
    call(specs.at(i).name, error);
  }
}

void Checks::counters(const Counters& p, const Counters& reference, std::string_view what,
                      bool skip_scheduling, bool across_configs) {
  for (const auto& [name, value] : reference) {
    if (skip_scheduling && scheduling_dependent(name)) continue;
    if (across_configs && (name.rfind("cache.", 0) == 0 || name.rfind("pool.", 0) == 0))
      continue;
    const auto it = p.find(name);
    const std::uint64_t got = it == p.end() ? 0 : it->second;
    if (got != value) {
      problem("exact counter " + name + " is " + std::to_string(got) + " on the " +
              std::string(what) + ", " + std::to_string(value) + " on the reference");
    }
  }
}

void Checks::problem(std::string what) {
  ++problems_;
  std::printf("check: %s\n", what.c_str());
}

std::vector<std::string> fingerprints(const PassResult& p) {
  std::vector<std::string> out;
  for (const auto& c : p.calls) out.push_back(c.fingerprint);
  return out;
}

std::vector<std::string> read_golden(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') rows.push_back(line);
  }
  return rows;
}

void write_golden(const PassResult& p, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# name rate_mean rate_sd dk_lambda dk_count basic_blocks instructions\n";
  for (const auto& c : p.calls) out << c.golden_row << "\n";
}

namespace {
/// A new, empty cache directory under the work directory.
std::string fresh_cache_dir(const Paths& paths, const std::string& label) {
  const std::string dir = paths.work_dir + "/cache-" + label;
  std::filesystem::remove_all(dir);
  return dir;
}
}  // namespace

std::string pass_cache_dir(const Workload& w, const Paths& paths, const Setup& setup,
                           const std::string& label) {
  switch (w.cache) {
    case CacheMode::kOff:
      return "";
    case CacheMode::kWarm:
      return setup.warm_cache_dir;
    case CacheMode::kFreshPerPass:
      break;
  }
  return fresh_cache_dir(paths, label);
}

Setup set_up(const Workload& w, const std::vector<Job>& jobs, const Paths& paths,
             SetupReps reps, Checks& checks) {
  Setup s;
  double total_s = 0.0;
  for (int rep = 0; rep < reps.max && (rep < reps.min || total_s < reps.budget_s); ++rep) {
    s.framework.reset();
    s.pipeline.reset();
    const std::string dir =
        w.cache == CacheMode::kOff ? "" : fresh_cache_dir(paths, "setup-" + std::to_string(rep));
    const auto t0 = Clock::now();
    s.pipeline = std::make_unique<netlist::Pipeline>(netlist::build_pipeline({}));
    s.build_pipeline_seconds.push_back(seconds_since(t0));
    // Warm paths: table2 analyses characterise, and so does the cold fill.
    s.framework = make_framework(*s.pipeline, w, dir, /*warm_paths=*/true);
    if (w.cache == CacheMode::kWarm) {
      const double store_before = histogram_sum("cache.store_seconds");
      const PassResult fill = run_pass(*s.framework, jobs);
      s.fill_store_s = histogram_sum("cache.store_seconds") - store_before;
      s.fill_counters = fill.counters;
      if (rep == 0) s.cold_reference = fingerprints(fill);
      checks.pass(fill, s.cold_reference, {}, "cold fill");
      s.warm_cache_dir = dir;
      // Timed passes get their own framework over the filled cache; they
      // never characterise, so they need no warmed paths.
      s.framework = make_framework(*s.pipeline, w, dir, /*warm_paths=*/false);
    }
    s.seconds.push_back(seconds_since(t0));
    total_s += s.seconds.back();
  }
  return s;
}

void cross_check(const Workload& w, const std::vector<Job>& jobs, const Setup& setup,
                 const Paths& paths, const std::vector<std::string>& reference,
                 const Counters& reference_counters, Checks& checks) {
  if (w.cross.empty()) return;
  const Workload& other = *find_workload(w.cross);
  support::set_global_threads(other.threads);
  auto fw = make_framework(*setup.pipeline, other, pass_cache_dir(other, paths, setup, "cross"),
                           /*warm_paths=*/true);
  const PassResult c = run_pass(*fw, jobs);
  const std::string label = other.name + " cross-check";
  checks.pass(c, reference, {}, label);
  checks.counters(c.counters, reference_counters, label, true, true);
  support::set_global_threads(w.threads);
}

double histogram_sum(const char* name) {
  const auto stats = obs::MetricsRegistry::instance().histogram(name).stats();
  return stats.mean() * static_cast<double>(stats.count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v, std::size_t min_samples) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (min_samples <= 10) return v.back();
  // Nearest rank ceil(n * (m - 10) / m), in integers.
  const std::size_t n = v.size();
  const std::size_t rank = ((min_samples - 10) * n + min_samples - 1) / min_samples;
  return v[std::clamp<std::size_t>(rank, 1, n) - 1];
}

double tail_percentile(std::size_t min_samples) {
  if (min_samples <= 10) return 100.0;
  return 100.0 * static_cast<double>(min_samples - 10) / static_cast<double>(min_samples);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
