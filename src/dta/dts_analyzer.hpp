// Algorithm 1 of the paper: dynamic timing slack of a pipeline stage in a
// given clock cycle, as the (statistical) minimum slack over the most
// critical *activated* paths of the stage's endpoints.
//
// Under SSTA every slack is a Gaussian.  Following Section 3, the critical-
// path scan runs twice per endpoint — once ordering candidate paths by
// worst-case (1st percentile) slack and once by best-case (99th
// percentile) slack — and the stage DTS is the statistical minimum of the
// collected activated paths (greedy pairwise Clark minimum with full path
// covariance, after Sinha et al. [21]).
//
// Engineering notes (documented deviations):
//  * Candidate path lists are enumerated lazily in decreasing nominal
//    delay and capped (PathConfig); ripple-carry endpoints have
//    exponentially many near-identical paths.  When no candidate is
//    activated, an exact activated-subgraph longest-path DP reconstructs
//    the most critical activated path (by nominal delay) and that path
//    joins AP.  This matches the deterministic semantics exactly and is a
//    principled approximation under SSTA.
//  * Besides the Gaussian DTS we propagate the path's chip-global variance
//    loading through the Clark combinations, so later minima against the
//    datapath model can account for the dominant cross-network
//    correlation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "stat/clark.hpp"
#include "stat/gaussian.hpp"
#include "timing/paths.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

namespace terrors::dta {

/// A Gaussian DTS that remembers how much of its variance is the
/// chip-global variation component (for cross-network correlation).
struct DtsGaussian {
  stat::Gaussian slack;
  double global_loading = 0.0;  ///< ps of slack sd attributable to Z0

  /// Correlation with another DtsGaussian through the global component.
  [[nodiscard]] double global_corr(const DtsGaussian& other) const;
};

/// Statistical minimum of two DtsGaussians using their global correlation.
DtsGaussian dts_min(const DtsGaussian& a, const DtsGaussian& b);

/// One simulated cycle of a lane batch, as PipelineDriver::run_batch hands
/// it out.  Lane l carries stream l; the instruction of its slot u
/// occupies pipeline stage s in cycle u + s.
struct LaneCycle {
  std::size_t t = 0;       ///< cycle index since reset
  std::uint64_t live = 0;  ///< lanes whose stream (slots + drain) covers cycle t
  /// Per gate, the lanes in which it toggled (bit l: lane l).
  std::span<const std::uint64_t> toggles;
  std::uint64_t step_id = 0;  ///< sim::LogicSimulator::step_id of the cycle
};

/// Non-owning view of one cycle of one stream, the input of a stage query:
/// one live lane of a LaneCycle.
class CycleView {
 public:
  CycleView(const LaneCycle& cycle, unsigned lane) : cycle_(cycle), lane_(lane) {}

  /// Whether gate `g` toggled in this cycle (Def. 3.2).
  [[nodiscard]] bool activated(netlist::GateId g) const {
    return ((cycle_.toggles[g] >> lane_) & 1u) != 0;
  }
  [[nodiscard]] const LaneCycle& cycle() const { return cycle_; }
  [[nodiscard]] unsigned lane() const { return lane_; }

 private:
  LaneCycle cycle_;
  unsigned lane_ = 0;
};

/// One cycle of a one-stream run, as PipelineDriver::run returns it: an
/// owned copy of lane 0's toggle words, read through its lane-0 CycleView.
struct RecordedCycle {
  std::size_t t = 0;
  std::vector<std::uint64_t> toggles;  ///< bit 0 of each toggle word
  std::uint64_t step_id = 0;

  operator CycleView() const {  // NOLINT(google-explicit-constructor)
    return {LaneCycle{t, 1, toggles, step_id}, 0};
  }
};

/// Longest activated arrival at every gate's output in the view's cycle:
/// timing::activated_arrivals over the full netlist, on nominal or chip
/// delays.  For consumers without a DtsAnalyzer (graph-based DTA, the
/// deterministic query).
[[nodiscard]] std::vector<double> activated_arrivals(const netlist::Netlist& nl,
                                                     const CycleView& cycle,
                                                     const timing::ChipSample* chip = nullptr);

struct DtsConfig {
  std::size_t top_k = 24;  ///< candidate paths examined per endpoint and pass
  double percentile_low = 0.01;
  double percentile_high = 0.99;
  stat::MinOrdering ordering = stat::MinOrdering::kGreedyTightness;
  /// Paths whose mean slack exceeds the best mean by more than
  /// prune_sigmas * (their combined sd) cannot win the minimum; drop them.
  double prune_sigmas = 6.0;
};

class DtsAnalyzer {
 public:
  DtsAnalyzer(const netlist::Netlist& nl, const timing::VariationModel& vm,
              timing::TimingSpec spec, DtsConfig config = {},
              timing::PathConfig path_config = {});

  /// Borrowing variant: share a pre-warmed (and frozen, when used
  /// concurrently) PathEnumerator instead of owning one.  Worker-local
  /// analyzers in the parallel characterisation use this so the expensive
  /// path enumeration happens once per process, not once per worker.
  DtsAnalyzer(const netlist::Netlist& nl, const timing::VariationModel& vm,
              timing::TimingSpec spec, DtsConfig config, timing::PathEnumerator& shared_paths);

  /// DTS of `stage` for the given cycle, restricted to endpoints of class
  /// `cls` (kNone = all endpoints).  nullopt when no endpoint of the stage
  /// has an activated path (the stage cannot fail in this cycle).
  [[nodiscard]] std::optional<DtsGaussian> stage_dts(std::uint8_t stage, const CycleView& cycle,
                                                     netlist::EndpointClass cls);

  /// Deterministic DTS (no process variation): slack of the longest
  /// activated path ending in the stage, on nominal or chip delays.
  /// Used for Monte-Carlo validation.
  [[nodiscard]] std::optional<double> stage_dts_deterministic(
      std::uint8_t stage, const CycleView& cycle, netlist::EndpointClass cls,
      const timing::ChipSample* chip = nullptr) const;

  /// Longest activated arrival per gate for the view's lane, from the DP
  /// over the fan-in cone of `cls`'s endpoints: exact on every cone gate,
  /// -inf on every other gate.  Kept for the latest (cycle, lane, class),
  /// so the queries of one cycle share it; valid until the next call.
  const std::vector<double>& arrivals(const CycleView& cycle, netlist::EndpointClass cls);

  [[nodiscard]] const timing::TimingSpec& spec() const { return spec_; }
  void set_spec(timing::TimingSpec spec) { spec_ = spec; }
  [[nodiscard]] const DtsConfig& config() const { return config_; }
  [[nodiscard]] timing::PathEnumerator& paths() { return *paths_; }

  /// The endpoint's enumerated candidate paths paired with their SSTA
  /// statistics, in enumeration (non-increasing nominal delay) order,
  /// capped at min(k, config().top_k).  Shares the per-endpoint cache the
  /// stage_dts queries build, so after an analysis this is a pure lookup.
  /// Pointers stay valid until the next call that extends the same
  /// endpoint's cache.  The report subsystem uses this to surface the
  /// culprit timing paths behind the error attribution.
  struct EndpointPath {
    const timing::TimingPath* path = nullptr;
    const timing::PathStat* stat = nullptr;
  };
  [[nodiscard]] std::vector<EndpointPath> endpoint_path_stats(netlist::GateId endpoint,
                                                              std::size_t k);

 private:
  /// Per-endpoint cache of candidate-path statistics and the two
  /// percentile orderings (they do not depend on the cycle).
  struct EndpointCache {
    std::size_t built = 0;  ///< candidates processed so far
    std::vector<timing::PathStat> stats;
    std::vector<std::size_t> order_low;   ///< by worst-case slack
    std::vector<std::size_t> order_high;  ///< by best-case slack
  };

  /// Per-endpoint state, one slot per capture endpoint in
  /// stage_endpoints() order (stage 0 first).
  struct EndpointSlot {
    EndpointCache cache;
    /// top_paths(endpoint, top_k), borrowed from the enumerator on first
    /// use; the list object outlives this analyzer.
    const std::vector<timing::TimingPath>* candidates = nullptr;
  };

  /// The endpoint's most critical activated path (nullptr: none), the
  /// other activated paths it found appended to alternates_.
  const timing::PathStat* endpoint_critical_activated(netlist::GateId endpoint,
                                                      const CycleView& cycle,
                                                      netlist::EndpointClass cls);
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  void init_slots();
  /// The endpoint's slot, with its cache extended to the current list.
  EndpointSlot& endpoint_slot(netlist::GateId endpoint);
  /// Statistical minimum over ap_: drop the paths that cannot win, then
  /// Clark's greedy pairwise minimum with full path covariance.
  DtsGaussian ap_min();

  const netlist::Netlist& nl_;
  const timing::VariationModel& vm_;
  timing::TimingSpec spec_;
  DtsConfig config_;
  std::unique_ptr<timing::PathEnumerator> owned_paths_;  ///< null when borrowing
  timing::PathEnumerator* paths_;
  std::vector<std::uint32_t> slot_of_;  ///< gate id -> index into slots_
  std::vector<EndpointSlot> slots_;
  /// DP-fallback path statistics keyed by the FNV hash of (endpoint, gate
  /// sequence), the endpoint in its own round: activated carry chains recur
  /// across cycles.  The entry stores the gates so a hash collision is
  /// detected instead of silently returning the wrong path's statistics.
  struct DpEntry {
    std::vector<netlist::GateId> gates;  ///< source -> endpoint-D order
    timing::PathStat stat;
  };
  using DpCache = std::unordered_map<std::uint64_t, DpEntry>;
  DpCache dp_cache_;
  /// Entries a collision displaced during the current query, kept in
  /// their nodes: the AP set may still point into them.
  std::vector<DpCache::node_type> displaced_;

  // Per-query scratch, reused across queries.
  std::vector<const timing::PathStat*> ap_;  ///< AP: primaries, then alternates_
  std::vector<const timing::PathStat*> alternates_;
  std::vector<netlist::GateId> backtrack_;  ///< DP path, endpoint-D first
  std::vector<stat::Gaussian> slacks_;
  std::vector<std::size_t> keep_;
  std::vector<stat::Gaussian> vars_;
  std::vector<double> cov_;

  /// The arrival DP over one class's fan-in cone, compiled: per gate in DP
  /// order (sources by id, then logic in topological order) its fanins,
  /// padded with the slot past the last gate, which holds -inf.
  struct Cone {
    std::vector<netlist::GateId> gate;
    std::vector<std::array<netlist::GateId, 3>> fanin;
    std::vector<double> delay;   ///< the gate's delay; 0 for non-DFF sources
    std::vector<double> launch;  ///< sources: their launch arrival; logic: -inf
  };
  const Cone& cone(netlist::EndpointClass cls);

  // The arrival DP.  Once per (cycle, class), the cone's activated
  // gates are sorted into one list per live lane; each lane's DP then walks
  // only its own list.
  std::array<Cone, 3> cones_;  ///< per class, built on first use
  /// Lane l's list (indices into the cone, in DP order) at l * cone size.
  std::unique_ptr<std::uint32_t[]> lane_lists_;
  std::size_t lane_lists_size_ = 0;
  std::array<std::uint32_t, 64> lane_counts_{};
  std::uint64_t lists_step_ = 0;  ///< step_id the lists are for; 0 = none
  netlist::EndpointClass lists_cls_ = netlist::EndpointClass::kNone;
  /// One slot per gate, then a -inf pad; -inf except on dp_lane_'s list.
  std::vector<double> dp_arrivals_;
  bool dp_valid_ = false;  ///< dp_arrivals_ holds lane dp_lane_ of the lists' cycle
  unsigned dp_lane_ = 0;
};

}  // namespace terrors::dta
