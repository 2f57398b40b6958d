#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>

#include "dta/control_characterizer.hpp"
#include "dta/datapath_model.hpp"
#include "dta/dts_analyzer.hpp"
#include "dta/graph_dta.hpp"
#include "dta/pipeline_driver.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "netlist/pipeline.hpp"
#include "sim/logic_sim.hpp"
#include "support/thread_pool.hpp"
#include "timing/sta.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

namespace terrors::dta {
namespace {

using isa::ExContext;
using isa::Opcode;
using netlist::EndpointClass;
using netlist::Pipeline;

const Pipeline& shared_pipeline() {
  static const Pipeline p = netlist::build_pipeline({});
  return p;
}

const timing::VariationModel& shared_vm() {
  static const timing::VariationModel vm(shared_pipeline().netlist, {});
  return vm;
}

isa::Instruction make(Opcode op, int rd = 0, int rs1 = 0, int rs2 = 0, int imm = 0) {
  isa::Instruction i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs1 = static_cast<std::uint8_t>(rs1);
  i.rs2 = static_cast<std::uint8_t>(rs2);
  i.imm = imm;
  return i;
}

TEST(DtsGaussian, MinOfDominatedPairIsTheWorse) {
  DtsGaussian a{{100.0, 5.0}, 3.0};
  DtsGaussian b{{500.0, 5.0}, 3.0};
  const DtsGaussian m = dts_min(a, b);
  EXPECT_NEAR(m.slack.mean, 100.0, 0.5);
}

TEST(DtsGaussian, GlobalCorrelationTightensMin) {
  // With full global correlation the min of two equal Gaussians stays at
  // the common mean; independent ones dip below it.
  DtsGaussian corr{{100.0, 10.0}, 10.0};
  DtsGaussian indep{{100.0, 10.0}, 0.0};
  const double m_corr = dts_min(corr, corr).slack.mean;
  const double m_indep = dts_min(indep, indep).slack.mean;
  EXPECT_GT(m_corr, m_indep);
  EXPECT_NEAR(m_corr, 100.0, 1e-6);
}

TEST(PipelineDriver, PcFollowsFetchStream) {
  PipelineDriver driver(shared_pipeline());
  std::vector<FetchSlot> slots;
  // Straight-line fetches then a jump to a far target.
  for (int i = 0; i < 8; ++i) slots.push_back(FetchSlot::nop(0x1000 + 4 * i));
  slots.push_back(FetchSlot::nop(0x8000));
  slots.push_back(FetchSlot::nop(0x8004));
  auto cycles = driver.run(slots);
  EXPECT_EQ(cycles.size(), slots.size() + Pipeline::kStages);
}

TEST(DtsAnalyzer, QuietCycleHasNoStageDts) {
  PipelineDriver driver(shared_pipeline());
  // All-bubble stream: after warmup the pipeline goes quiet.
  std::vector<FetchSlot> slots(20, FetchSlot::nop(0));
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i].pc = 4 * static_cast<std::uint32_t>(i);
  auto cycles = driver.run(slots, 0);
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(),
                       timing::TimingSpec{1200.0, netlist::kSetupTimePs});
  // Late cycles: the datapath is quiet (operands stopped changing), so the
  // EX stage's data endpoints see no activated paths.
  auto dts = analyzer.stage_dts(3, cycles.back(), EndpointClass::kData);
  EXPECT_FALSE(dts.has_value());
}

TEST(DtsAnalyzer, LongCarryChainLowersDts) {
  PipelineDriver driver(shared_pipeline());
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(),
                       timing::TimingSpec{1200.0, netlist::kSetupTimePs});

  auto measure = [&](std::uint32_t a, std::uint32_t b) {
    std::vector<FetchSlot> slots;
    for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
    isa::InstrDynContext ctx;
    ctx.cur = {a, b, isa::ExUnit::kAdder, Opcode::kAdd};
    ctx.pc = 0x100;
    slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
    auto cycles = driver.run(slots);
    auto dts = analyzer.stage_dts(3, cycles[slots.size() - 1 + 3], EndpointClass::kData);
    EXPECT_TRUE(dts.has_value());
    return dts->slack.mean;
  };

  const double short_chain = measure(0x1u, 0x1u);          // 2-bit carry
  const double long_chain = measure(0xFFFFFFFFu, 0x1u);    // full ripple
  EXPECT_LT(long_chain, short_chain - 100.0);
}

TEST(DtsAnalyzer, DeterministicDtsMatchesGaussianMeanClosely) {
  PipelineDriver driver(shared_pipeline());
  const timing::TimingSpec spec{1200.0, netlist::kSetupTimePs};
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(), spec);
  std::vector<FetchSlot> slots;
  for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  isa::InstrDynContext ctx;
  ctx.cur = {0x0FFFFFFFu, 0x1u, isa::ExUnit::kAdder, Opcode::kAdd};
  ctx.pc = 0x100;
  slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
  auto cycles = driver.run(slots);
  auto& cyc = cycles[slots.size() - 1 + 3];
  auto ssta = analyzer.stage_dts(3, cyc, EndpointClass::kData);
  auto det = analyzer.stage_dts_deterministic(3, cyc, EndpointClass::kData);
  ASSERT_TRUE(ssta.has_value());
  ASSERT_TRUE(det.has_value());
  // The statistical min sits at or below the deterministic nominal slack.
  EXPECT_LE(ssta->slack.mean, *det + 1.0);
  EXPECT_GT(ssta->slack.mean, *det - 6.0 * ssta->slack.sd);
}

TEST(DatapathModel, ChainLengthSemantics) {
  const ExContext bubble{};
  ExContext add1{(1u << 12) - 1u, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  const int l1 = DatapathModel::adder_chain_length(add1, bubble);
  EXPECT_GE(l1, 12);
  // Identical contexts: nothing toggles.
  EXPECT_EQ(DatapathModel::adder_chain_length(add1, add1), -1);
  // Small change: short chain.
  ExContext add2{1u, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  const int l2 = DatapathModel::adder_chain_length(add2, bubble);
  EXPECT_LT(l2, l1);
}

/// The carry chain as a bit-serial ripple, the oracle for the closed form
/// DatapathModel::adder_chain_length uses.
int reference_chain_length(const ExContext& cur, const ExContext& prev) {
  auto inputs = [](const ExContext& cx, std::uint32_t& a, std::uint32_t& b, bool& cin) {
    const bool sub = cx.op == Opcode::kSub || cx.op == Opcode::kSubi;
    a = cx.a;
    b = sub ? ~cx.b : cx.b;
    cin = sub;
  };
  auto carries = [](std::uint32_t a, std::uint32_t b, bool cin) {
    std::uint64_t out = 0;
    std::uint32_t c = cin ? 1u : 0u;
    for (int i = 0; i < 32; ++i) {
      const std::uint32_t ai = (a >> i) & 1u;
      const std::uint32_t bi = (b >> i) & 1u;
      c = (ai & bi) | (c & (ai ^ bi));
      out |= static_cast<std::uint64_t>(c) << i;
    }
    return out;
  };
  std::uint32_t a1 = 0, b1 = 0, a0 = 0, b0 = 0;
  bool c1 = false, c0 = false;
  inputs(cur, a1, b1, c1);
  inputs(prev, a0, b0, c0);
  if (a1 == a0 && b1 == b0 && c1 == c0) return -1;
  std::uint64_t toggles = carries(a1, b1, c1) ^ carries(a0, b0, c0);
  int best = 0;
  for (int run = 0; toggles != 0; toggles >>= 1) {
    run = (toggles & 1u) != 0 ? run + 1 : 0;
    best = std::max(best, run);
  }
  return best == 0 ? 1 : best + 1;
}

TEST(DatapathModel, ChainLengthMatchesRippleOracle) {
  const std::uint32_t edges[] = {0u,          1u,          2u,          0x7FFFFFFFu,
                                 0x80000000u, 0xFFFFFFFEu, 0xFFFFFFFFu, 0x0000FFFFu,
                                 0xFFFF0000u, 0x55555555u, 0xAAAAAAAAu, 0x00010000u};
  const Opcode ops[] = {Opcode::kAdd, Opcode::kAddi, Opcode::kSub, Opcode::kSubi};
  auto check = [](const ExContext& cur, const ExContext& prev) {
    ASSERT_EQ(DatapathModel::adder_chain_length(cur, prev), reference_chain_length(cur, prev))
        << std::hex << cur.a << " " << cur.b << " / " << prev.a << " " << prev.b;
  };
  for (std::uint32_t a : edges)
    for (std::uint32_t b : edges)
      for (Opcode op : ops)
        for (Opcode prev_op : ops)
          check({a, b, isa::ExUnit::kAdder, op}, {b, a, isa::ExUnit::kAdder, prev_op});
  support::Rng rng(2026);
  for (int i = 0; i < 20000; ++i) {
    const auto word = [&] {
      // Mix uniform words with long runs of ones, which make long chains.
      const std::uint64_t r = rng.next_u64();
      const auto w = static_cast<std::uint32_t>(r);
      return (r >> 62) == 0 ? w | 0xFFFFF000u : (r >> 62) == 1 ? w >> (r >> 59 & 31u) : w;
    };
    const Opcode op = ops[rng.next_u64() % 4];
    const Opcode prev_op = ops[rng.next_u64() % 4];
    check({word(), word(), isa::ExUnit::kAdder, op},
          {word(), word(), isa::ExUnit::kAdder, prev_op});
  }
}

/// A control characterisation in hex floats, one line per (block, edge).
std::vector<std::string> hex_rows(const std::vector<BlockControlDts>& control) {
  auto edge_row = [](const EdgeControlDts& e) {
    std::string row;
    char buf[96];
    for (const auto& d : e.instr) {
      if (d.has_value())
        std::snprintf(buf, sizeof buf, "%a %a %a;", d->slack.mean, d->slack.sd, d->global_loading);
      else
        std::snprintf(buf, sizeof buf, "-;");
      row += buf;
    }
    return row;
  };
  std::vector<std::string> rows;
  for (const auto& block : control) {
    for (const auto& e : block.per_edge) rows.push_back(edge_row(e));
    rows.push_back(edge_row(block.entry));
  }
  return rows;
}

TEST(ControlCharacterizer, AnyBatchCutEqualsOneEdgeAtATime) {
  const timing::TimingSpec spec{1300.0, netlist::kSetupTimePs};
  for (const std::size_t which : {1u, 3u, 9u}) {  // bitcount, patricia, stringsearch
    const auto& ws = workloads::mibench_specs()[which];
    const isa::Program program = workloads::generate_program(ws);
    const isa::Cfg cfg(program);
    isa::Executor ex(program, cfg, workloads::executor_config_for(ws, 1, 1e-4));
    ex.run(workloads::generate_inputs(ws, 1, 2026)[0]);
    const isa::ProgramProfile& profile = ex.profile();

    // One (block, edge) per stream: the reference.
    ControlCharacterizer one(shared_pipeline(), shared_vm(), spec);
    std::vector<BlockControlDts> per_edge(program.block_count());
    for (isa::BlockId b = 0; b < program.block_count(); ++b) {
      for (std::size_t j = 0; j < cfg.indegree(b); ++j)
        per_edge[b].per_edge.push_back(
            one.characterize_edge(program, cfg, profile, b, static_cast<std::ptrdiff_t>(j)));
      per_edge[b].entry = one.characterize_edge(program, cfg, profile, b, -1);
    }
    const std::vector<std::string> expected = hex_rows(per_edge);

    for (const std::size_t cut : {1u, 7u, 64u}) {
      ControlCharacterizer cc(shared_pipeline(), shared_vm(), spec);
      EXPECT_EQ(hex_rows(cc.characterize_in_batches(program, cfg, profile, cut)), expected)
          << ws.name << " at cut " << cut;
    }
    support::set_global_threads(4);
    ControlCharacterizer pooled(shared_pipeline(), shared_vm(), spec);
    EXPECT_EQ(hex_rows(pooled.characterize(program, cfg, profile)), expected)
        << ws.name << " at pool width 4";
    support::set_global_threads(1);
  }
}

// The analyzer's one arrival DP against the full-netlist DP: 64 seeded
// random streams of uneven length (so lanes die at different cycles), and
// for every live lane, cycle and endpoint class the cone DP must equal
// timing::activated_arrivals over that lane's flags bit for bit on every
// gate of the class's fan-in cone, and leave every other gate at -inf.
TEST(DtsAnalyzer, ConeArrivalsEqualTheFullNetlistDpOnEveryLiveLane) {
  const netlist::Netlist& nl = shared_pipeline().netlist;
  constexpr unsigned kLanes = sim::LogicSimulator::kLanes;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const Opcode ops[] = {Opcode::kAdd,  Opcode::kSub, Opcode::kAnd,  Opcode::kXor,
                        Opcode::kSll,  Opcode::kSrl, Opcode::kAddi, Opcode::kMovi,
                        Opcode::kLd,   Opcode::kSt,  Opcode::kBeq,  Opcode::kBlt};
  support::Rng rng(2026);
  std::vector<std::vector<FetchSlot>> streams(kLanes);
  for (auto& slots : streams) {
    std::uint32_t pc = 0x1000;
    const std::size_t n = 2 + rng.next_u64() % 24;
    for (std::size_t k = 0; k < n; ++k) {
      const Opcode op = ops[rng.next_u64() % std::size(ops)];
      isa::InstrDynContext ctx;
      ctx.cur = {static_cast<std::uint32_t>(rng.next_u64()),
                 static_cast<std::uint32_t>(rng.next_u64()), isa::ex_unit(op), op};
      ctx.result = static_cast<std::uint32_t>(rng.next_u64());
      // Mostly sequential fetch, sometimes a jump.
      pc = rng.next_u64() % 5 == 0 ? static_cast<std::uint32_t>(rng.next_u64()) & ~3u : pc + 4;
      ctx.pc = pc;
      slots.push_back(FetchSlot::from_context(
          make(op, 1 + static_cast<int>(rng.next_u64() % 31), static_cast<int>(rng.next_u64() % 32),
               static_cast<int>(rng.next_u64() % 32), static_cast<int>(rng.next_u64() % 256)),
          ctx));
    }
  }

  // Each class's fan-in cone, computed here from the netlist.
  const EndpointClass classes[] = {EndpointClass::kControl, EndpointClass::kData,
                                   EndpointClass::kNone};
  std::vector<std::vector<std::uint8_t>> cones;
  for (const EndpointClass cls : classes) {
    std::vector<std::uint8_t> in(nl.size(), 0);
    std::vector<netlist::GateId> stack;
    for (std::uint8_t s = 0; s < nl.stage_count(); ++s)
      for (netlist::GateId e : nl.stage_endpoints(s))
        if (cls == EndpointClass::kNone || nl.gate(e).endpoint_class == cls)
          stack.push_back(nl.gate(e).fanin[0]);
    while (!stack.empty()) {
      const netlist::GateId g = stack.back();
      stack.pop_back();
      if (in[g] != 0) continue;
      in[g] = 1;
      const netlist::Gate& gate = nl.gate(g);
      if (!netlist::info(gate.kind).combinational) continue;
      for (int k = 0; k < gate.arity(); ++k) stack.push_back(gate.fanin[static_cast<std::size_t>(k)]);
    }
    cones.push_back(std::move(in));
  }

  DtsAnalyzer analyzer(nl, shared_vm(), timing::TimingSpec{1300.0, netlist::kSetupTimePs});
  PipelineDriver driver(shared_pipeline());
  std::size_t checked = 0;
  bool failed = false;
  driver.run_batch(streams, [&](const LaneCycle& c) {
    if (failed) return;
    std::vector<std::vector<double>> expected(kLanes);
    for (unsigned l = 0; l < kLanes; ++l) {
      if (((c.live >> l) & 1u) == 0) continue;
      std::vector<std::uint8_t> flags(nl.size());
      for (netlist::GateId g = 0; g < nl.size(); ++g)
        flags[g] = static_cast<std::uint8_t>((c.toggles[g] >> l) & 1u);
      expected[l] = timing::activated_arrivals(nl, flags);
    }
    // Class outside, lanes inside: the order characterisation queries in,
    // so each lane's DP starts from the previous lane's table.
    for (std::size_t k = 0; k < std::size(classes); ++k) {
      for (unsigned l = 0; l < kLanes; ++l) {
        if (((c.live >> l) & 1u) == 0) continue;
        const std::vector<double>& got = analyzer.arrivals(CycleView(c, l), classes[k]);
        for (netlist::GateId g = 0; g < nl.size(); ++g) {
          const double want = cones[k][g] != 0 ? expected[l][g] : kNegInf;
          if (std::memcmp(&got[g], &want, sizeof(double)) != 0) {
            ADD_FAILURE() << "cycle " << c.t << " lane " << l << " class " << k << " gate " << g
                          << ": " << got[g] << " vs " << want;
            failed = true;
            return;
          }
        }
        ++checked;
      }
    }
  });
  // Every stream contributes its slots plus the drain, per class.
  std::size_t lane_cycles = 0;
  for (const auto& slots : streams) lane_cycles += slots.size() + Pipeline::kStages;
  EXPECT_EQ(checked, 3 * lane_cycles);
}

class DatapathModelFixture : public ::testing::Test {
 protected:
  static const DatapathModel& model() {
    static const DatapathModel m =
        DatapathModel::train(shared_pipeline(), shared_vm());
    return m;
  }
};

TEST_F(DatapathModelFixture, AdderDelayGrowsWithChainLength) {
  const auto& lin = model().adder_mean();
  EXPECT_GT(lin.per_unit, 10.0);  // each full-adder stage adds real delay
  EXPECT_GT(lin.at(32), lin.at(4) + 400.0);
}

TEST_F(DatapathModelFixture, PredictionTracksGateLevelMeasurement) {
  // Measure a chain length the training sweep did not use directly.
  PipelineDriver driver(shared_pipeline());
  const timing::TimingSpec spec{10000.0, netlist::kSetupTimePs};
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(), spec);
  std::vector<FetchSlot> slots;
  for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  const std::uint32_t a = (1u << 21) - 1u;
  isa::InstrDynContext ctx;
  ctx.cur = {a, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  ctx.pc = 0x100;
  slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
  auto cycles = driver.run(slots);
  auto dts = analyzer.stage_dts(3, cycles[slots.size() - 1 + 3], EndpointClass::kData);
  ASSERT_TRUE(dts.has_value());
  const double measured_arrival = spec.period_ps - spec.setup_ps - dts->slack.mean;

  const ExContext bubble{};
  auto predicted = model().ex_arrival(ctx.cur, bubble);
  ASSERT_TRUE(predicted.has_value());
  EXPECT_NEAR(predicted->slack.mean, measured_arrival, 0.12 * measured_arrival);
}

TEST_F(DatapathModelFixture, BatchedTrainingEqualsOneLanePerMeasurement) {
  // Each training sequence on its own (PipelineDriver::run, one stream),
  // folded into the parameters the way train() folds the lane batch.
  const timing::TimingSpec spec{10000.0, netlist::kSetupTimePs};
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(), spec);
  PipelineDriver driver(shared_pipeline());
  auto measure = [&](Opcode op, std::uint32_t a, std::uint32_t b) {
    std::vector<FetchSlot> slots;
    std::uint32_t pc = 0x2000;
    for (int i = 0; i < 6; ++i, pc += 4) slots.push_back(FetchSlot::nop(pc));
    isa::InstrDynContext prev;
    prev.cur = {0, 0, isa::ex_unit(op), op};
    prev.pc = pc;
    slots.push_back(FetchSlot::from_context(make(op), prev));
    isa::InstrDynContext cur;
    cur.cur = {a, b, isa::ex_unit(op), op};
    cur.pc = pc + 4;
    slots.push_back(FetchSlot::from_context(make(op), cur));
    auto cycles = driver.run(slots);
    const auto dts = analyzer.stage_dts(3, cycles[slots.size() - 1 + 3], EndpointClass::kData);
    if (!dts.has_value()) return std::optional<DtsGaussian>();
    DtsGaussian arr;
    arr.slack = {spec.period_ps - spec.setup_ps - dts->slack.mean, dts->slack.sd};
    arr.global_loading = dts->global_loading;
    return std::optional<DtsGaussian>(arr);
  };
  auto same = [](const DtsGaussian& x, const std::optional<DtsGaussian>& y) {
    return y.has_value() && std::memcmp(&x.slack.mean, &y->slack.mean, sizeof(double)) == 0 &&
           std::memcmp(&x.slack.sd, &y->slack.sd, sizeof(double)) == 0 &&
           std::memcmp(&x.global_loading, &y->global_loading, sizeof(double)) == 0;
  };
  const DatapathModel::Params p = model().params();
  EXPECT_TRUE(same(p.logic, measure(Opcode::kXor, 0xA5A5A5A5u, 0x5A5A5A5Au)));
  EXPECT_TRUE(same(p.shift, measure(Opcode::kSll, 0xDEADBEEFu, 17u)));
  // A movi that activates no EX path trains the pass-through on the logic unit.
  const auto pass = measure(Opcode::kMovi, 0, 0x1234u);
  EXPECT_TRUE(same(p.pass, pass.has_value() ? pass : std::optional<DtsGaussian>(p.logic)));

  // The adder fits: least squares over the sixteen chain lengths.
  double sx = 0, sxx = 0, sy[3] = {}, sxy[3] = {};
  for (int len = 2; len <= 32; len += 2) {
    const std::uint32_t a = len >= 32 ? 0xFFFFFFFFu : ((1u << len) - 1u);
    const DtsGaussian m = measure(Opcode::kAdd, a, 1u).value();
    const double x = DatapathModel::adder_chain_length({a, 1u, isa::ExUnit::kAdder, Opcode::kAdd},
                                                       {0, 0, isa::ExUnit::kAdder, Opcode::kAdd});
    const double y[3] = {m.slack.mean, m.slack.sd, m.global_loading};
    sx += x;
    sxx += x * x;
    for (int k = 0; k < 3; ++k) {
      sy[k] += y[k];
      sxy[k] += x * y[k];
    }
  }
  const DatapathModel::Linear* fits[3] = {&p.adder_mean, &p.adder_sd, &p.adder_gl};
  for (int k = 0; k < 3; ++k) {
    const double n = 16.0;
    const double per_unit = (n * sxy[k] - sx * sy[k]) / (n * sxx - sx * sx);
    EXPECT_EQ(fits[k]->per_unit, per_unit) << k;
    EXPECT_EQ(fits[k]->base, (sy[k] - per_unit * sx) / n) << k;
  }
}

TEST_F(DatapathModelFixture, FlushEmulationChangesErrorProbability) {
  // An instruction whose operands equal its predecessor's: after correct
  // execution nothing toggles (no error possible), after a flush the
  // bubble forces toggling.
  ExContext cur{0xFFFFFFu, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  ExContext prev = cur;
  EXPECT_FALSE(model().ex_arrival(cur, prev).has_value());
  const ExContext bubble{};
  EXPECT_TRUE(model().ex_arrival(cur, bubble).has_value());
}

TEST_F(DatapathModelFixture, SlackConversionUsesSpec) {
  ExContext cur{0xFFFFu, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  const ExContext bubble{};
  const timing::TimingSpec fast{800.0, netlist::kSetupTimePs};
  const timing::TimingSpec slow{2000.0, netlist::kSetupTimePs};
  auto s_fast = model().ex_slack(cur, bubble, fast);
  auto s_slow = model().ex_slack(cur, bubble, slow);
  ASSERT_TRUE(s_fast.has_value() && s_slow.has_value());
  EXPECT_NEAR(s_slow->slack.mean - s_fast->slack.mean, 1200.0, 1e-6);
}

TEST(ControlCharacterizer, CharacterizesLoopProgram) {
  // Build the counted loop from the ISA tests and characterise it.
  isa::Program p("loop");
  isa::BasicBlock b0;
  b0.instructions = {make(Opcode::kMovi, 1, 0, 0, 5), make(Opcode::kMovi, 2, 0, 0, 0)};
  isa::BasicBlock b1;
  b1.instructions = {make(Opcode::kAddi, 2, 2, 0, 3), make(Opcode::kSubi, 1, 1, 0, 1),
                     make(Opcode::kBne, 0, 1, 0)};
  isa::BasicBlock b2;
  b2.instructions = {make(Opcode::kSt, 0, 0, 2, 16)};
  p.add_block(b0);
  p.add_block(b1);
  p.add_block(b2);
  p.block(0).fallthrough = 1;
  p.block(1).taken = 1;
  p.block(1).fallthrough = 2;
  p.set_entry(0);
  const isa::Cfg cfg(p);
  isa::Executor ex(p, cfg);
  ex.run({});

  ControlCharacterizer cc(shared_pipeline(), shared_vm(),
                          timing::TimingSpec{1200.0, netlist::kSetupTimePs});
  auto result = cc.characterize(p, cfg, ex.profile());
  ASSERT_EQ(result.size(), 3u);
  // The loop body's self-edge was traversed; its instructions must have
  // control DTS values, and they must be plausibly positive at this clock.
  bool any = false;
  for (const auto& edge : result[1].per_edge) {
    for (const auto& d : edge.instr) {
      if (d.has_value()) {
        any = true;
        EXPECT_GT(d->slack.mean, -500.0);
        EXPECT_LT(d->slack.mean, 1200.0);
        EXPECT_GT(d->slack.sd, 0.0);
      }
    }
  }
  EXPECT_TRUE(any);
  // Unexecuted entry characterisations of non-entry blocks are empty.
  for (const auto& d : result[1].entry.instr) EXPECT_FALSE(d.has_value());
}

TEST(GraphDta, AggregatesWorstArrivals) {
  PipelineDriver driver(shared_pipeline());
  std::vector<FetchSlot> slots;
  for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  // Two adds with very different carry chains.
  for (std::uint32_t a : {0x3u, 0x0FFFFFFFu}) {
    isa::InstrDynContext ctx;
    ctx.cur = {a, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
    ctx.pc = 0x100;
    slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
  }
  auto cycles = driver.run(slots);
  GraphDta graph(shared_pipeline().netlist);
  for (auto& c : cycles) graph.observe(c);
  EXPECT_EQ(graph.cycles_observed(), cycles.size());
  // The long-chain add dominates the design-wide worst arrival.
  EXPECT_GT(graph.worst_arrival(), 800.0);
  // N-worst lists are sorted descending.
  const auto e = shared_pipeline().taps.cc_reg[2];
  const auto& worst = graph.worst_arrivals(e);
  for (std::size_t i = 1; i < worst.size(); ++i) EXPECT_LE(worst[i], worst[i - 1]);
  // Error-free frequency is below the frequency implied by the worst
  // observed arrival without margin.
  const double f = graph.error_free_frequency_mhz(netlist::kSetupTimePs, 1.05);
  EXPECT_LT(f, 1.0e6 / (graph.worst_arrival() + netlist::kSetupTimePs));
}

TEST(GraphDta, ErrorFreePointIsSafeForObservedActivity) {
  PipelineDriver driver(shared_pipeline());
  std::vector<FetchSlot> slots;
  support::Rng rng(17);
  for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  for (int i = 0; i < 20; ++i) {
    isa::InstrDynContext ctx;
    ctx.cur = {static_cast<std::uint32_t>(rng.next_u64()), static_cast<std::uint32_t>(rng.next_u64()),
               isa::ExUnit::kAdder, Opcode::kAdd};
    ctx.pc = 0x100 + 4u * static_cast<std::uint32_t>(i);
    slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
  }
  auto cycles = driver.run(slots);
  GraphDta graph(shared_pipeline().netlist);
  for (auto& c : cycles) graph.observe(c);
  const double f = graph.error_free_frequency_mhz();
  const timing::TimingSpec spec = timing::TimingSpec::from_frequency_mhz(f);
  // Deterministic DTS of every observed cycle is non-negative at f.
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(), spec);
  for (auto& c : cycles) {
    for (std::uint8_t s = 0; s < Pipeline::kStages; ++s) {
      const auto dts = analyzer.stage_dts_deterministic(s, c, EndpointClass::kNone);
      if (dts.has_value()) {
        EXPECT_GE(*dts, -1e-6);
      }
    }
  }
}

TEST(GraphDta, RequiresObservationBeforeFrequency) {
  GraphDta graph(shared_pipeline().netlist);
  EXPECT_THROW((void)graph.error_free_frequency_mhz(), std::invalid_argument);
}

}  // namespace
}  // namespace terrors::dta
