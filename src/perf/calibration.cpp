#include "perf/calibration.hpp"

#include <algorithm>

#include "dta/datapath_model.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "timing/variation.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

namespace terrors::perf {

Calibration calibrate_operating_points(const netlist::Pipeline& pipeline, std::size_t runs,
                                       double scale) {
  const timing::VariationModel vm(pipeline.netlist, {});
  const timing::Sta sta(pipeline.netlist);
  Calibration c;
  for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s)
    for (auto e : pipeline.netlist.stage_endpoints(s))
      c.static_worst_ps = std::max(c.static_worst_ps, sta.endpoint_arrival(e));

  const dta::DatapathModel model = dta::DatapathModel::train(pipeline, vm);
  double sum = 0.0;
  for (const auto& spec : workloads::mibench_specs()) {
    const isa::Program program = workloads::generate_program(spec);
    const isa::Cfg cfg(program);
    isa::Executor ex(program, cfg, workloads::executor_config_for(spec, runs, scale / 4.0));
    for (const auto& in : workloads::generate_inputs(spec, runs, 42)) ex.run(in);
    auto scan = [&](const isa::EdgeSamples& es) {
      for (const auto& sample : es.samples) {
        for (const auto& ctx : sample.instrs) {
          const auto arr = model.ex_arrival(ctx.cur, ctx.prev);
          if (!arr.has_value()) continue;
          c.dynamic_worst_ps = std::max(c.dynamic_worst_ps, arr->slack.mean);
          sum += arr->slack.mean;
          ++c.contexts;
        }
      }
    };
    for (const auto& bp : ex.profile().blocks) {
      scan(bp.entry_samples);
      for (const auto& es : bp.edge_samples) scan(es);
    }
  }
  if (c.contexts > 0) c.mean_ex_arrival_ps = sum / static_cast<double>(c.contexts);

  const double sd_frac = vm.config().sigma;  // relative per-gate sigma
  c.op = derive_operating_points(c.static_worst_ps, sd_frac * c.static_worst_ps * 0.4,
                                 c.dynamic_worst_ps, netlist::kSetupTimePs);
  return c;
}

}  // namespace terrors::perf
