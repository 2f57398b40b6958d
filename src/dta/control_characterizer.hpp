// Control-network DTS characterisation (Section 4): for every basic block
// and every incoming CFG edge, the pipeline netlist executes the
// predecessor's tail followed by the block, and Algorithm 2 (minimum of
// Algorithm 1's stage DTS across the stages each instruction traverses)
// yields one control-network DTS per instruction.  The control network's
// activated paths depend on the instruction stream, not on operand values,
// which is why this expensive gate-level step runs only once per
// (block, edge) — the paper's key efficiency argument.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dta/dts_analyzer.hpp"
#include "dta/pipeline_driver.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"
#include "netlist/pipeline.hpp"
#include "timing/variation.hpp"

namespace terrors::dta {

/// Control DTS of every instruction of a block entered via one edge;
/// nullopt entries mean "no activated control path" (cannot fail).
struct EdgeControlDts {
  std::vector<std::optional<DtsGaussian>> instr;
};

struct BlockControlDts {
  std::vector<EdgeControlDts> per_edge;  ///< aligned with Cfg::predecessors
  EdgeControlDts entry;                  ///< entered as program start
};

struct ControlCharacterizerConfig {
  int pred_tail = 4;     ///< predecessor instructions replayed for context
  int warmup_nops = 4;   ///< bubbles after reset before the context
};

class ControlCharacterizer {
 public:
  ControlCharacterizer(const netlist::Pipeline& pipeline, const timing::VariationModel& vm,
                       timing::TimingSpec spec, DtsConfig dts_config = {},
                       ControlCharacterizerConfig config = {});

  /// Characterise all (block, edge) pairs of the program, using the
  /// executor profile's sampled contexts as representative operand values.
  /// Unexecuted edges get empty (nullopt) characterisations.
  ///
  /// The traversed (block, edge) pairs run in lane batches of up to 64,
  /// cut from their list in (block, edge) order: 64 per batch at pool
  /// width 1, min(64, ceil(pairs / width)) on a wider pool so every worker
  /// has work.
  /// Each pooled worker owns a DtsAnalyzer + PipelineDriver over this
  /// characterizer's shared, pre-warmed (frozen) PathEnumerator, and every
  /// result lands in its pre-sized slot indexed by (block, edge).  A lane's
  /// result is a pure function of its own stream, so the bytes are the
  /// same for any cut and any worker count.
  [[nodiscard]] std::vector<BlockControlDts> characterize(const isa::Program& program,
                                                          const isa::Cfg& cfg,
                                                          const isa::ProgramProfile& profile);

  /// characterize() on the calling thread with an explicit cut: batches
  /// of `lanes` traversed pairs (1..64) in (block, edge) order.  Any cut
  /// gives the same result; characterize() picks its cut from the pool
  /// width.
  [[nodiscard]] std::vector<BlockControlDts> characterize_in_batches(
      const isa::Program& program, const isa::Cfg& cfg, const isa::ProgramProfile& profile,
      std::size_t lanes);

  /// Characterise a single (block, edge) pair; edge == -1 means entry.
  [[nodiscard]] EdgeControlDts characterize_edge(const isa::Program& program, const isa::Cfg& cfg,
                                                 const isa::ProgramProfile& profile,
                                                 isa::BlockId block, std::ptrdiff_t edge);

  [[nodiscard]] DtsAnalyzer& analyzer() { return analyzer_; }

  /// Pre-enumerate the shared path set over every control endpoint.
  /// Idempotent; characterize() calls it before its parallel fan-out, and
  /// the artifact cache uses it to materialise the path set for export.
  /// After a PathEnumerator::import_warmed this is a cheap no-op pass.
  void warm_paths();

  /// Control-class capture endpoints of every stage (the set Algorithm 2
  /// queries), for pre-warming the shared path enumerator.
  [[nodiscard]] std::vector<netlist::GateId> control_endpoints() const;

 private:
  /// One (block, edge) pair to characterise and the slot its result goes to.
  struct Task {
    isa::BlockId block;
    std::ptrdiff_t edge;  ///< -1 = entry
    EdgeControlDts* out;
  };

  /// Size `out` with every (block, edge) uncharacterised (all nullopt),
  /// and return a Task for each one the profile traversed, in (block,
  /// edge) order.
  static std::vector<Task> make_tasks(const isa::Program& program, const isa::Cfg& cfg,
                                      const isa::ProgramProfile& profile,
                                      std::vector<BlockControlDts>& out);

  /// Characterise up to 64 tasks in one lane batch (a "dta.batch" span).
  /// The body every path shares: a pure function of its arguments plus
  /// the (deterministic, order-independent) analyzer caches.
  void characterize_batch(DtsAnalyzer& analyzer, PipelineDriver& driver,
                          const isa::Program& program, const isa::Cfg& cfg,
                          const isa::ProgramProfile& profile, std::span<const Task> tasks) const;

  const netlist::Pipeline& pipeline_;
  const timing::VariationModel& vm_;
  DtsConfig dts_config_;
  DtsAnalyzer analyzer_;
  PipelineDriver driver_;
  ControlCharacterizerConfig config_;
  bool paths_warmed_ = false;
};

}  // namespace terrors::dta
