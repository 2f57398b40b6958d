// End-to-end integration tests: the full Figure 2 flow on real (scaled)
// workloads, checking cross-module invariants rather than exact values.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "netlist/pipeline.hpp"
#include "perf/ts_model.hpp"
#include "support/thread_pool.hpp"
#include "timing/sta.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

namespace terrors {
namespace {

const netlist::Pipeline& pipeline() {
  static const netlist::Pipeline p = netlist::build_pipeline({});
  return p;
}

core::FrameworkConfig small_config() {
  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  cfg.executor.max_instructions = 8000;
  cfg.error_model.mixed_samples = 32;
  return cfg;
}

class WorkloadEndToEnd : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkloadEndToEnd, ProducesValidEstimate) {
  const auto& spec = workloads::mibench_specs()[GetParam()];
  core::ErrorRateFramework fw(pipeline(), small_config());
  const isa::Program program = workloads::generate_program(spec);
  const auto r = fw.analyze(program, workloads::generate_inputs(spec, 2, 7));

  EXPECT_EQ(r.name, spec.name);
  EXPECT_EQ(r.basic_blocks, static_cast<std::size_t>(spec.basic_blocks));
  EXPECT_GT(r.instructions, 0u);

  const auto& est = r.estimate;
  EXPECT_GE(est.rate_mean(), 0.0);
  EXPECT_LE(est.rate_mean(), 0.2);  // sane magnitude at the working point
  EXPECT_GE(est.lambda.sd, 0.0);
  EXPECT_GE(est.dk_lambda, 0.0);
  EXPECT_LE(est.dk_lambda, 1.0);
  EXPECT_GE(est.dk_count, 0.0);
  EXPECT_LE(est.dk_count, 1.0);

  // CDF sanity at the mean: strictly between the bounds and roughly
  // centred.
  const double c = est.rate_cdf(est.rate_mean());
  EXPECT_GT(c, 0.05);
  EXPECT_LT(c, 0.95);

  // Every conditional probability is a probability, and p^e >= 0
  // distributions exist for executed blocks.
  for (const auto& bd : fw.last().conditionals) {
    if (!bd.executed) continue;
    for (const auto& instr : bd.instr) {
      for (std::size_t w = 0; w < instr.p_correct.size(); ++w) {
        EXPECT_GE(instr.p_correct[w], 0.0);
        EXPECT_LE(instr.p_correct[w], 1.0);
        EXPECT_GE(instr.p_error[w], 0.0);
        EXPECT_LE(instr.p_error[w], 1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FourWorkloads, WorkloadEndToEnd,
                         ::testing::Values(std::size_t{3}, std::size_t{0}, std::size_t{5},
                                           std::size_t{11}));

TEST(Integration, ErrorRateOrderingLightVsHeavy) {
  // patricia (pointer-chasing, narrow operands) must come out well below
  // gsm.decode (saturated telecom arithmetic) — the paper's headline
  // qualitative result.
  core::ErrorRateFramework fw(pipeline(), small_config());
  const auto& light_spec = workloads::mibench_specs()[3];
  const auto& heavy_spec = workloads::mibench_specs()[11];
  const auto light = fw.analyze(workloads::generate_program(light_spec),
                                workloads::generate_inputs(light_spec, 2, 7));
  const auto heavy = fw.analyze(workloads::generate_program(heavy_spec),
                                workloads::generate_inputs(heavy_spec, 2, 7));
  EXPECT_LT(light.estimate.rate_mean(), heavy.estimate.rate_mean());
}

TEST(Integration, SlowClockKillsErrors) {
  // At twice the critical-path delay nothing can fail.
  auto cfg = small_config();
  cfg.spec = timing::TimingSpec{4000.0};
  core::ErrorRateFramework fw(pipeline(), cfg);
  const auto& spec = workloads::mibench_specs()[11];
  const auto r =
      fw.analyze(workloads::generate_program(spec), workloads::generate_inputs(spec, 1, 7));
  EXPECT_LT(r.estimate.rate_mean(), 1e-6);
}

TEST(Integration, PerformanceModelAppliesToEstimates) {
  core::ErrorRateFramework fw(pipeline(), small_config());
  const perf::TsProcessorModel ts;
  const auto& spec = workloads::mibench_specs()[3];
  const auto r =
      fw.analyze(workloads::generate_program(spec), workloads::generate_inputs(spec, 1, 7));
  const double imp = ts.performance_improvement(std::min(1.0, r.estimate.rate_mean()));
  // Low-error benchmark at the working point: speculation must pay off.
  EXPECT_GT(imp, 0.0);
  EXPECT_LT(imp, ts.frequency_ratio - 1.0 + 1e-12);
}

TEST(Integration, TrainingTimeScalesWithBlocks) {
  // ghostscript (192 blocks) needs more characterisation work than
  // pgp.encode (49 blocks): check the per-edge characterisation produced
  // entries for every reachable block.
  core::ErrorRateFramework fw(pipeline(), small_config());
  const auto& spec = workloads::mibench_specs()[8];  // ghostscript
  const auto r =
      fw.analyze(workloads::generate_program(spec), workloads::generate_inputs(spec, 1, 7));
  (void)r;
  std::size_t characterized = 0;
  for (const auto& bc : fw.last().control) {
    for (const auto& edge : bc.per_edge) {
      for (const auto& d : edge.instr) characterized += d.has_value() ? 1 : 0;
    }
  }
  EXPECT_GT(characterized, 100u);
}

// The Table 2 rows pinned bit for bit: the 12 programs in the benchmark's
// table2 configuration (1300 ps, 4 input runs, scale 1e-4, input seed
// 2026), printed as the benchmark prints them and compared with its golden
// file, which this test only reads.  Any pool width must give the same rows.
class Table2Rows : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Table2Rows, MatchTheBenchmarkGolden) {
  std::ifstream in(std::string(TERRORS_SOURCE_DIR) + "/perfbench/golden/table2-scale1e-4.txt");
  ASSERT_TRUE(in) << "golden file not found";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') golden.push_back(line);

  constexpr double kScale = 1e-4;
  constexpr std::size_t kRuns = 4;
  support::set_global_threads(GetParam());
  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  cfg.execution_scale = 1.0 / kScale;
  core::ErrorRateFramework fw(pipeline(), cfg);
  std::vector<std::string> rows;
  for (const auto& spec : workloads::mibench_specs()) {
    fw.set_executor_config(workloads::executor_config_for(spec, kRuns, kScale));
    const auto r = fw.analyze(workloads::generate_program(spec),
                              workloads::generate_inputs(spec, kRuns, 2026));
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s %.17g %.17g %.17g %.17g %zu %llu", r.name.c_str(),
                  r.estimate.rate_mean(), r.estimate.rate_sd(), r.estimate.dk_lambda,
                  r.estimate.dk_count, r.basic_blocks,
                  static_cast<unsigned long long>(r.instructions));
    rows.push_back(buf);
  }
  support::set_global_threads(1);
  EXPECT_EQ(rows, golden);
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, Table2Rows, ::testing::Values(1u, 4u),
                         [](const auto& info) { return "Width" + std::to_string(info.param); });

// EXPERIMENTS.md's Table 2 "Measured" columns against the same golden rows,
// each value rounded as the table prints it (mean and SD in percent; a
// trailing '*' marks a footnote).
TEST(ExperimentsTable2, MatchesTheBenchmarkGolden) {
  std::ifstream golden_in(std::string(TERRORS_SOURCE_DIR) +
                          "/perfbench/golden/table2-scale1e-4.txt");
  ASSERT_TRUE(golden_in) << "golden file not found";
  std::map<std::string, std::array<double, 4>> golden;
  for (std::string line; std::getline(golden_in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::array<double, 4> v{};
    fields >> name >> v[0] >> v[1] >> v[2] >> v[3];
    golden[name] = v;
  }
  ASSERT_EQ(golden.size(), 12u);

  std::ifstream doc(std::string(TERRORS_SOURCE_DIR) + "/EXPERIMENTS.md");
  ASSERT_TRUE(doc) << "EXPERIMENTS.md not found";
  auto cells = [](const std::string& line) {
    std::vector<std::string> out;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, '|');) {
      const auto b = cell.find_first_not_of(' ');
      const auto e = cell.find_last_not_of(' ');
      out.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    return out;  // out[0] is the text before the first '|'
  };
  const std::array<const char*, 4> columns = {"Measured mean", "Measured SD", "Measured d_K(λ)",
                                              "Measured d_K(R_E)"};
  const std::array<double, 4> scale = {100.0, 100.0, 1.0, 1.0};
  std::array<std::size_t, 4> col{};
  bool in_table = false;
  std::size_t rows = 0;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("## ", 0) == 0) in_table = line.rfind("## Table 2", 0) == 0;
    if (!in_table || line.rfind("| ", 0) != 0) continue;
    const std::vector<std::string> c = cells(line);
    if (c[1] == "Benchmark") {
      for (std::size_t k = 0; k < columns.size(); ++k) {
        const auto it = std::find(c.begin(), c.end(), columns[k]);
        ASSERT_NE(it, c.end()) << "no column " << columns[k];
        col[k] = static_cast<std::size_t>(it - c.begin());
      }
      continue;
    }
    const auto g = golden.find(c[1]);
    if (g == golden.end()) continue;
    ++rows;
    for (std::size_t k = 0; k < columns.size(); ++k) {
      std::string printed = c[col[k]];
      if (!printed.empty() && printed.back() == '*') printed.pop_back();
      const auto dot = printed.find('.');
      ASSERT_NE(dot, std::string::npos) << c[1] << " " << columns[k] << ": " << printed;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.*f", static_cast<int>(printed.size() - dot - 1),
                    scale[k] * g->second[k]);
      EXPECT_EQ(printed, buf) << c[1] << " " << columns[k];
    }
  }
  EXPECT_EQ(rows, golden.size());
}

}  // namespace
}  // namespace terrors
