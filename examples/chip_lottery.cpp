// Chip lottery: what does process variation do to individual dies?
//
//   $ ./examples/chip_lottery [n_chips]
//
// Samples manufactured chips from the spatially correlated process
// variation model, runs static timing analysis on each, and bins them by
// maximum frequency — then shows how the same speculative operating point
// looks from the perspective of a slow, a typical, and a fast die by
// evaluating the deterministic dynamic slack of an instruction sequence on
// each.  This exercises the Monte-Carlo face of the SSTA machinery that
// the analytic estimator integrates over.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "dta/dts_analyzer.hpp"
#include "dta/pipeline_driver.hpp"
#include "netlist/pipeline.hpp"
#include "support/rng.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

using namespace terrors;

int main(int argc, char** argv) {
  const int n_chips = argc > 1 ? std::atoi(argv[1]) : 500;
  const netlist::Pipeline pipeline = netlist::build_pipeline({});
  const timing::VariationModel vm(pipeline.netlist, {});

  // --- frequency binning -----------------------------------------------------
  support::Rng rng(2026);
  std::vector<double> fmax;
  std::vector<timing::ChipSample> kept;  // slowest / median / fastest dies
  fmax.reserve(static_cast<std::size_t>(n_chips));
  std::vector<std::pair<double, timing::ChipSample>> all;
  for (int i = 0; i < n_chips; ++i) {
    timing::ChipSample chip = vm.sample_chip(rng);
    const timing::Sta sta(pipeline.netlist, &chip);
    const double f = sta.max_frequency_mhz();
    fmax.push_back(f);
    all.emplace_back(f, std::move(chip));
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(fmax.begin(), fmax.end());

  std::printf("sampled %d chips; static fmax distribution:\n", n_chips);
  std::printf("  slowest %.1f MHz | p25 %.1f | median %.1f | p75 %.1f | fastest %.1f MHz\n",
              fmax.front(), fmax[fmax.size() / 4], fmax[fmax.size() / 2],
              fmax[3 * fmax.size() / 4], fmax.back());

  // Histogram.
  const double lo = fmax.front();
  const double hi = fmax.back();
  const int bins = 12;
  std::vector<int> hist(bins, 0);
  for (double f : fmax) {
    int b = static_cast<int>((f - lo) / (hi - lo + 1e-9) * bins);
    ++hist[std::min(b, bins - 1)];
  }
  std::printf("\n");
  for (int b = 0; b < bins; ++b) {
    std::printf("  %7.1f MHz |", lo + (hi - lo) * (b + 0.5) / bins);
    const int stars = hist[b] * 50 / n_chips;
    for (int s = 0; s < stars + (hist[b] > 0 ? 1 : 0); ++s) std::putchar('#');
    std::printf(" %d\n", hist[b]);
  }

  // --- per-die dynamic slack at the speculative clock -------------------------
  const timing::TimingSpec spec{1300.0};
  dta::DtsAnalyzer analyzer(pipeline.netlist, vm, spec);
  dta::PipelineDriver driver(pipeline);
  std::vector<dta::FetchSlot> slots;
  for (int i = 0; i < 6; ++i) slots.push_back(dta::FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  isa::Instruction add;
  add.op = isa::Opcode::kAdd;
  isa::InstrDynContext ctx;
  ctx.cur = {0x00FFFFFFu, 0x1u, isa::ExUnit::kAdder, isa::Opcode::kAdd};  // 24-bit carry
  ctx.pc = 0x100;
  slots.push_back(dta::FetchSlot::from_context(add, ctx));
  auto cycles = driver.run(slots);
  auto& ex_cycle = cycles[slots.size() - 1 + 3];

  std::printf("\na 24-bit carry-chain add at %.1f MHz (period %.0f ps):\n",
              spec.frequency_mhz(), spec.period_ps);
  const char* labels[] = {"slowest die", "median die", "fastest die"};
  const timing::ChipSample* dies[] = {&all.front().second, &all[all.size() / 2].second,
                                      &all.back().second};
  for (int i = 0; i < 3; ++i) {
    const auto dts =
        analyzer.stage_dts_deterministic(3, ex_cycle, netlist::EndpointClass::kData,
                                         dies[i]);
    if (dts.has_value()) {
      std::printf("  %-12s: dynamic slack %+7.1f ps -> %s\n", labels[i], *dts,
                  *dts < 0.0 ? "TIMING ERROR (speculation must correct)" : "captured safely");
    }
  }
  const auto analytic = analyzer.stage_dts(3, ex_cycle, netlist::EndpointClass::kData);
  if (analytic.has_value()) {
    std::printf("  %-12s: slack %.1f +- %.1f ps, Pr(error) = %.4f\n", "SSTA (all)",
                analytic->slack.mean, analytic->slack.sd, analytic->slack.prob_below_zero());
  }
  return 0;
}
