// Micro-benchmarks (google-benchmark) of the DTA machinery: logic
// simulation throughput, activated-arrival DP, Algorithm 1 stage queries
// as a function of the candidate-path budget k, path enumeration, and the
// statistical minimum.  These quantify the costs behind Table 2's
// training-time column.
#include <benchmark/benchmark.h>

#include "dta/dts_analyzer.hpp"
#include "dta/pipeline_driver.hpp"
#include "netlist/pipeline.hpp"
#include "sim/logic_sim.hpp"
#include "stat/clark.hpp"
#include "support/rng.hpp"
#include "timing/paths.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

using namespace terrors;

namespace {

const netlist::Pipeline& pipe() {
  static const netlist::Pipeline p = netlist::build_pipeline({});
  return p;
}

const timing::VariationModel& vm() {
  static const timing::VariationModel v(pipe().netlist, {});
  return v;
}

void BM_LogicSimCycle(benchmark::State& state) {
  sim::LogicSimulator sim(pipe().netlist);
  support::Rng rng(1);
  for (auto _ : state) {
    sim.set_input_word(pipe().ports.op_a, rng.next_u64() & 0xFFFFFFFF);
    sim.set_input_word(pipe().ports.op_b, rng.next_u64() & 0xFFFFFFFF);
    sim.step();
    benchmark::DoNotOptimize(sim.toggles().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pipe().netlist.size()));
}
BENCHMARK(BM_LogicSimCycle);

/// A lane batch's step: every lane live and driven with its own operands.
/// Items are lane-cycles (BM_LogicSimCycle counts one stream's gate
/// evaluations).
void BM_LogicSimCycle64Lanes(benchmark::State& state) {
  sim::LogicSimulator sim(pipe().netlist);
  support::Rng rng(1);
  for (auto _ : state) {
    for (unsigned lane = 0; lane < sim::LogicSimulator::kLanes; ++lane) {
      sim.set_input_word(pipe().ports.op_a, rng.next_u64() & 0xFFFFFFFF, lane);
      sim.set_input_word(pipe().ports.op_b, rng.next_u64() & 0xFFFFFFFF, lane);
    }
    sim.step(~std::uint64_t{0});
    benchmark::DoNotOptimize(sim.toggles().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sim::LogicSimulator::kLanes));
}
BENCHMARK(BM_LogicSimCycle64Lanes);

/// The full-netlist DP of one cycle, as graph-based DTA and the
/// deterministic query run it: only the toggled gates are visited.
void BM_ActivatedArrivalDP(benchmark::State& state) {
  dta::PipelineDriver driver(pipe());
  std::vector<dta::FetchSlot> slots;
  support::Rng rng(2);
  for (int i = 0; i < 2; ++i) {
    isa::InstrDynContext ctx;
    ctx.cur = {static_cast<std::uint32_t>(rng.next_u64()),
               static_cast<std::uint32_t>(rng.next_u64()), isa::ExUnit::kAdder,
               isa::Opcode::kAdd};
    ctx.pc = 0x1000 + 4u * static_cast<std::uint32_t>(i);
    isa::Instruction inst;
    inst.op = isa::Opcode::kAdd;
    slots.push_back(dta::FetchSlot::from_context(inst, ctx));
  }
  const auto cycles = driver.run(slots);
  for (auto _ : state) {
    auto arr = dta::activated_arrivals(pipe().netlist, cycles[4]);
    benchmark::DoNotOptimize(arr.data());
  }
}
BENCHMARK(BM_ActivatedArrivalDP);

void BM_StageDts(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  dta::DtsConfig cfg;
  cfg.top_k = k;
  dta::DtsAnalyzer analyzer(pipe().netlist, vm(), timing::TimingSpec{1300.0}, cfg);
  dta::PipelineDriver driver(pipe());
  std::vector<dta::FetchSlot> slots;
  support::Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    isa::InstrDynContext ctx;
    ctx.cur = {static_cast<std::uint32_t>(rng.next_u64()),
               static_cast<std::uint32_t>(rng.next_u64()), isa::ExUnit::kAdder,
               isa::Opcode::kAdd};
    ctx.pc = 0x1000 + 4u * static_cast<std::uint32_t>(i);
    isa::Instruction inst;
    inst.op = isa::Opcode::kAdd;
    slots.push_back(dta::FetchSlot::from_context(inst, ctx));
  }
  auto cycles = driver.run(slots);
  for (auto _ : state) {
    for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
      auto dts = analyzer.stage_dts(s, cycles[8], netlist::EndpointClass::kNone);
      benchmark::DoNotOptimize(dts);
    }
  }
}
BENCHMARK(BM_StageDts)->Arg(4)->Arg(16)->Arg(64);

void BM_PathEnumeration(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    timing::PathEnumerator pe(pipe().netlist);
    const auto& paths = pe.top_paths(pipe().taps.cc_reg[2], k);
    benchmark::DoNotOptimize(paths.size());
  }
}
BENCHMARK(BM_PathEnumeration)->Arg(16)->Arg(64)->Arg(256);

void BM_StatisticalMin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(5);
  std::vector<stat::Gaussian> vars(n);
  std::vector<double> cov(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    vars[i] = {rng.uniform(400.0, 700.0), rng.uniform(20.0, 60.0)};
    cov[i * n + i] = vars[i].variance();
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double c = 0.4 * vars[i].sd * vars[j].sd;
      cov[i * n + j] = cov[j * n + i] = c;
    }
  }
  for (auto _ : state) {
    auto g = stat::statistical_min(vars, cov);
    benchmark::DoNotOptimize(g.mean);
  }
}
BENCHMARK(BM_StatisticalMin)->Arg(4)->Arg(16)->Arg(64);

void BM_StaFull(benchmark::State& state) {
  for (auto _ : state) {
    timing::Sta sta(pipe().netlist);
    benchmark::DoNotOptimize(sta.max_frequency_mhz());
  }
}
BENCHMARK(BM_StaFull);

}  // namespace

BENCHMARK_MAIN();
