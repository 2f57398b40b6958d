#include "dta/control_characterizer.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace terrors::dta {

using isa::BlockId;
using isa::BlockSample;

ControlCharacterizer::ControlCharacterizer(const netlist::Pipeline& pipeline,
                                           const timing::VariationModel& vm,
                                           timing::TimingSpec spec, DtsConfig dts_config,
                                           ControlCharacterizerConfig config)
    : pipeline_(pipeline),
      vm_(vm),
      dts_config_(dts_config),
      analyzer_(pipeline.netlist, vm, spec, dts_config),
      driver_(pipeline),
      config_(config) {
  TE_REQUIRE(config.pred_tail >= 0 && config.warmup_nops >= 0, "negative context lengths");
}

namespace {

/// Whether the profile saw the block entered through predecessor edge
/// `edge` (-1: as the program start).
bool traversed(const isa::BlockProfile& bp, std::ptrdiff_t edge) {
  return edge < 0 ? bp.entry_count != 0 : bp.edge_counts[static_cast<std::size_t>(edge)] != 0;
}

/// The first recorded sample for an edge reservoir, or nullptr.
const BlockSample* representative(const isa::EdgeSamples& es) {
  return es.samples.empty() ? nullptr : &es.samples.front();
}

/// Build slots for one instruction sequence, reading contexts from a block
/// sample when available and falling back to zero-operand contexts.
void append_block_slots(std::vector<FetchSlot>& slots, const isa::BasicBlock& block,
                        std::uint32_t base_pc, const BlockSample* sample, std::size_t from,
                        std::size_t count) {
  for (std::size_t k = from; k < from + count && k < block.size(); ++k) {
    const isa::Instruction& inst = block.instructions[k];
    isa::InstrDynContext ctx;
    if (sample != nullptr && k < sample->instrs.size()) {
      ctx = sample->instrs[k];
    } else {
      ctx.cur.op = inst.op;
      ctx.cur.unit = isa::ex_unit(inst.op);
      ctx.pc = base_pc + static_cast<std::uint32_t>(k) * 4u;
    }
    slots.push_back(FetchSlot::from_context(inst, ctx));
  }
}

}  // namespace

EdgeControlDts ControlCharacterizer::characterize_edge(const isa::Program& program,
                                                       const isa::Cfg& cfg,
                                                       const isa::ProgramProfile& profile,
                                                       BlockId block, std::ptrdiff_t edge) {
  EdgeControlDts out;
  const Task task{block, edge, &out};
  characterize_batch(analyzer_, driver_, program, cfg, profile, std::span(&task, 1));
  return out;
}

void ControlCharacterizer::characterize_batch(DtsAnalyzer& analyzer, PipelineDriver& driver,
                                              const isa::Program& program, const isa::Cfg& cfg,
                                              const isa::ProgramProfile& profile,
                                              std::span<const Task> tasks) const {
  obs::ScopedSpan span("dta.batch");
  constexpr std::size_t kStages = netlist::Pipeline::kStages;
  // One lane per traversed task: its fetch stream, and where the block
  // starts in it.
  struct Lane {
    EdgeControlDts* out;
    std::size_t first_block_slot;
  };
  std::vector<Lane> lanes;
  std::vector<std::vector<FetchSlot>> streams;
  static obs::Counter& edges_metric =
      obs::MetricsRegistry::instance().counter("dta.edges_characterized");
  static obs::Counter& slots_metric =
      obs::MetricsRegistry::instance().counter("dta.slots_driven");

  for (const Task& task : tasks) {
    const isa::BasicBlock& blk = program.block(task.block);
    const isa::BlockProfile& bp = profile.blocks[task.block];
    task.out->instr.assign(blk.size(), std::nullopt);

    TE_REQUIRE(task.edge < 0 || static_cast<std::size_t>(task.edge) < cfg.indegree(task.block),
               "edge index out of range");
    if (!traversed(bp, task.edge)) continue;

    const BlockSample* sample = nullptr;
    const BlockSample* pred_sample = nullptr;
    BlockId pred = isa::kNoBlock;
    if (task.edge < 0) {
      sample = representative(bp.entry_samples);
    } else {
      const auto j = static_cast<std::size_t>(task.edge);
      sample = representative(bp.edge_samples[j]);
      pred = cfg.predecessors(task.block)[j].from;
      // Any sample of the predecessor block supplies tail contexts.
      const isa::BlockProfile& pp = profile.blocks[pred];
      pred_sample = representative(pp.entry_samples);
      for (const auto& es : pp.edge_samples) {
        if (pred_sample != nullptr) break;
        pred_sample = representative(es);
      }
    }

    // Assemble the fetch stream: warm-up bubbles, predecessor tail, block.
    std::vector<FetchSlot>& slots = streams.emplace_back();
    for (int i = 0; i < config_.warmup_nops; ++i)
      slots.push_back(FetchSlot::nop(0x100u + 4u * static_cast<std::uint32_t>(i)));
    if (pred != isa::kNoBlock) {
      const isa::BasicBlock& pb = program.block(pred);
      const std::size_t tail = std::min<std::size_t>(static_cast<std::size_t>(config_.pred_tail),
                                                     pb.size());
      append_block_slots(slots, pb, 0x400u, pred_sample, pb.size() - tail, tail);
    }
    const std::size_t first_block_slot = slots.size();
    std::uint32_t base_pc = 0x1000u;
    if (sample != nullptr && !sample->instrs.empty()) base_pc = sample->instrs.front().pc;
    append_block_slots(slots, blk, base_pc, sample, 0, blk.size());
    lanes.push_back({task.out, first_block_slot});
    edges_metric.increment();
    slots_metric.increment(slots.size());
  }
  span.counter("lanes", static_cast<double>(lanes.size()));
  if (lanes.empty()) return;

  // Algorithm 2, cycle by cycle: in cycle t, instruction k of a lane sits
  // in stage s = t - first_block_slot - k.  Its stages arrive in stage
  // order, so the instruction DTS (min over the stages it traverses)
  // folds as they come.
  std::size_t cycles = 0;
  driver.run_batch(streams, [&](const LaneCycle& c) {
    ++cycles;
    for (unsigned l = 0; l < lanes.size(); ++l) {
      if (((c.live >> l) & 1u) == 0) continue;
      const Lane& lane = lanes[l];
      std::vector<std::optional<DtsGaussian>>& instr = lane.out->instr;
      const CycleView view(c, l);
      for (std::size_t s = 0; s < kStages && lane.first_block_slot + s <= c.t; ++s) {
        const std::size_t k = c.t - lane.first_block_slot - s;
        if (k >= instr.size()) continue;
        const auto stage = analyzer.stage_dts(static_cast<std::uint8_t>(s), view,
                                              netlist::EndpointClass::kControl);
        if (!stage.has_value()) continue;
        instr[k] = instr[k].has_value() ? dts_min(*instr[k], *stage) : *stage;
      }
    }
  });
  span.counter("cycles", static_cast<double>(cycles));
}

void ControlCharacterizer::warm_paths() {
  if (paths_warmed_) return;
  analyzer_.paths().warm(control_endpoints(), dts_config_.top_k);
  paths_warmed_ = true;
}

std::vector<netlist::GateId> ControlCharacterizer::control_endpoints() const {
  const netlist::Netlist& nl = pipeline_.netlist;
  std::vector<netlist::GateId> endpoints;
  for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
    for (netlist::GateId e : nl.stage_endpoints(s)) {
      if (nl.gate(e).endpoint_class == netlist::EndpointClass::kControl) endpoints.push_back(e);
    }
  }
  return endpoints;
}

std::vector<ControlCharacterizer::Task> ControlCharacterizer::make_tasks(
    const isa::Program& program, const isa::Cfg& cfg, const isa::ProgramProfile& profile,
    std::vector<BlockControlDts>& out) {
  out.assign(program.block_count(), {});
  std::vector<Task> tasks;
  auto add = [&](BlockId b, std::ptrdiff_t edge, EdgeControlDts& slot) {
    slot.instr.assign(program.block(b).size(), std::nullopt);
    if (traversed(profile.blocks[b], edge)) tasks.push_back({b, edge, &slot});
  };
  for (BlockId b = 0; b < program.block_count(); ++b) {
    out[b].per_edge.resize(cfg.indegree(b));
    for (std::size_t j = 0; j < cfg.indegree(b); ++j)
      add(b, static_cast<std::ptrdiff_t>(j), out[b].per_edge[j]);
    add(b, -1, out[b].entry);
  }
  return tasks;
}

std::vector<BlockControlDts> ControlCharacterizer::characterize_in_batches(
    const isa::Program& program, const isa::Cfg& cfg, const isa::ProgramProfile& profile,
    std::size_t lanes) {
  TE_REQUIRE(profile.blocks.size() == program.block_count(), "profile does not match program");
  TE_REQUIRE(lanes >= 1 && lanes <= sim::LogicSimulator::kLanes, "batch cut out of range");
  std::vector<BlockControlDts> out;
  const std::vector<Task> tasks = make_tasks(program, cfg, profile, out);
  for (std::size_t i = 0; i < tasks.size(); i += lanes) {
    characterize_batch(analyzer_, driver_, program, cfg, profile,
                       std::span(tasks).subspan(i, std::min(lanes, tasks.size() - i)));
  }
  return out;
}

std::vector<BlockControlDts> ControlCharacterizer::characterize(
    const isa::Program& program, const isa::Cfg& cfg, const isa::ProgramProfile& profile) {
  TE_REQUIRE(profile.blocks.size() == program.block_count(), "profile does not match program");
  obs::ScopedSpan span("dta.characterize");
  span.counter("blocks", static_cast<double>(program.block_count()));
  support::ThreadPool& pool = support::global_pool();
  if (pool.size() <= 1) {
    // Serial path: the characterizer-owned analyzer and driver.
    return characterize_in_batches(program, cfg, profile, sim::LogicSimulator::kLanes);
  }

  // Results land in pre-sized slots, so batches write disjoint memory and
  // ordering never depends on schedule.
  std::vector<BlockControlDts> out;
  const std::vector<Task> tasks = make_tasks(program, cfg, profile, out);
  span.counter("tasks", static_cast<double>(tasks.size()));
  const std::size_t width = pool.size();
  const std::size_t cut = std::clamp<std::size_t>((tasks.size() + width - 1) / width, 1,
                                                  sim::LogicSimulator::kLanes);

  // Pre-warm the shared enumerator once with every control endpoint, then
  // freeze it for the parallel region: workers only read the path lists.
  timing::PathEnumerator& shared_paths = analyzer_.paths();
  warm_paths();
  shared_paths.set_frozen(true);

  struct WorkerCtx {
    DtsAnalyzer analyzer;
    PipelineDriver driver;
    WorkerCtx(const netlist::Pipeline& pipeline, const timing::VariationModel& vm,
              timing::TimingSpec spec, DtsConfig dts_config, timing::PathEnumerator& paths)
        : analyzer(pipeline.netlist, vm, spec, dts_config, paths), driver(pipeline) {}
  };
  std::vector<std::unique_ptr<WorkerCtx>> ctxs(width);
  const timing::TimingSpec spec = analyzer_.spec();

  try {
    pool.parallel_for((tasks.size() + cut - 1) / cut, [&](std::size_t i, std::size_t w) {
      auto& ctx = ctxs[w];
      if (!ctx)
        ctx = std::make_unique<WorkerCtx>(pipeline_, vm_, spec, dts_config_, shared_paths);
      characterize_batch(ctx->analyzer, ctx->driver, program, cfg, profile,
                         std::span(tasks).subspan(i * cut, std::min(cut, tasks.size() - i * cut)));
    });
  } catch (...) {
    shared_paths.set_frozen(false);
    throw;
  }
  shared_paths.set_frozen(false);
  return out;
}

}  // namespace terrors::dta
