#include "dta/dts_analyzer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "sim/logic_sim.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace terrors::dta {

using netlist::EndpointClass;
using netlist::GateId;
using stat::Gaussian;
using timing::PathStat;
using timing::TimingPath;

double DtsGaussian::global_corr(const DtsGaussian& other) const {
  const double denom = slack.sd * other.slack.sd;
  if (denom == 0.0) return 0.0;
  return support::clamp(global_loading * other.global_loading / denom, -1.0, 1.0);
}

DtsGaussian dts_min(const DtsGaussian& a, const DtsGaussian& b) {
  const stat::ClarkResult r = stat::clark_min(a.slack, b.slack, a.global_corr(b));
  DtsGaussian out;
  out.slack = r.value;
  // Clark's linear covariance propagation applies to factor loadings too.
  out.global_loading = r.tightness * a.global_loading + (1.0 - r.tightness) * b.global_loading;
  out.global_loading = std::min(out.global_loading, out.slack.sd);
  return out;
}

// ---------------------------------------------------------------------------

std::vector<double> activated_arrivals(const netlist::Netlist& nl, const CycleView& cycle,
                                       const timing::ChipSample* chip) {
  return timing::activated_arrivals(
      nl, timing::activated_gates_if(nl, [&](GateId g) { return cycle.activated(g); }), chip);
}

// ---------------------------------------------------------------------------

DtsAnalyzer::DtsAnalyzer(const netlist::Netlist& nl, const timing::VariationModel& vm,
                         timing::TimingSpec spec, DtsConfig config,
                         timing::PathConfig path_config)
    : nl_(nl),
      vm_(vm),
      spec_(spec),
      config_(config),
      owned_paths_(std::make_unique<timing::PathEnumerator>(nl, path_config)),
      paths_(owned_paths_.get()) {
  TE_REQUIRE(config.top_k > 0, "top_k must be positive");
  TE_REQUIRE(config.percentile_low > 0.0 && config.percentile_high < 1.0 &&
                 config.percentile_low < config.percentile_high,
             "bad percentile configuration");
  init_slots();
}

DtsAnalyzer::DtsAnalyzer(const netlist::Netlist& nl, const timing::VariationModel& vm,
                         timing::TimingSpec spec, DtsConfig config,
                         timing::PathEnumerator& shared_paths)
    : nl_(nl), vm_(vm), spec_(spec), config_(config), paths_(&shared_paths) {
  TE_REQUIRE(config.top_k > 0, "top_k must be positive");
  TE_REQUIRE(config.percentile_low > 0.0 && config.percentile_high < 1.0 &&
                 config.percentile_low < config.percentile_high,
             "bad percentile configuration");
  init_slots();
}

void DtsAnalyzer::init_slots() {
  slot_of_.assign(nl_.size(), kNoSlot);
  std::uint32_t next = 0;
  for (std::uint8_t s = 0; s < nl_.stage_count(); ++s) {
    for (GateId e : nl_.stage_endpoints(s)) slot_of_[e] = next++;
  }
  slots_.resize(next);
}

DtsAnalyzer::EndpointSlot& DtsAnalyzer::endpoint_slot(GateId endpoint) {
  TE_REQUIRE(endpoint < slot_of_.size() && slot_of_[endpoint] != kNoSlot,
             "paths end at capture endpoints");
  EndpointSlot& slot = slots_[slot_of_[endpoint]];
  if (slot.candidates == nullptr) slot.candidates = &paths_->top_paths(endpoint, config_.top_k);
  EndpointCache& c = slot.cache;
  const auto& candidates = *slot.candidates;
  if (c.built == candidates.size()) return slot;
  for (std::size_t i = c.built; i < candidates.size(); ++i)
    c.stats.push_back(timing::path_stat(candidates[i], vm_));
  c.built = candidates.size();
  // Two fixed orderings (Section 3): by worst-case (1st pct) slack — i.e.
  // largest 99th-percentile delay — and by best-case (99th pct) slack.
  const double z = support::normal_quantile(config_.percentile_high);
  c.order_low.resize(c.built);
  c.order_high.resize(c.built);
  for (std::size_t i = 0; i < c.built; ++i) c.order_low[i] = c.order_high[i] = i;
  std::sort(c.order_low.begin(), c.order_low.end(), [&](std::size_t a, std::size_t b) {
    return c.stats[a].mean + z * std::sqrt(c.stats[a].variance()) >
           c.stats[b].mean + z * std::sqrt(c.stats[b].variance());
  });
  std::sort(c.order_high.begin(), c.order_high.end(), [&](std::size_t a, std::size_t b) {
    return c.stats[a].mean - z * std::sqrt(c.stats[a].variance()) >
           c.stats[b].mean - z * std::sqrt(c.stats[b].variance());
  });
  return slot;
}

std::vector<DtsAnalyzer::EndpointPath> DtsAnalyzer::endpoint_path_stats(GateId endpoint,
                                                                        std::size_t k) {
  const EndpointSlot& slot = endpoint_slot(endpoint);
  const std::size_t n = std::min(k, slot.cache.built);
  std::vector<EndpointPath> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back({&(*slot.candidates)[i], &slot.cache.stats[i]});
  return out;
}

DtsGaussian DtsAnalyzer::ap_min() {
  // Prune paths that cannot win the minimum slack: path i is irrelevant
  // when its mean slack exceeds the best one by more than prune_sigmas
  // combined standard deviations.
  const std::vector<const PathStat*>& paths = ap_;
  double best_mean = std::numeric_limits<double>::infinity();
  std::size_t dominant = 0;
  slacks_.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    slacks_[i] = paths[i]->slack(spec_);
    if (slacks_[i].mean < best_mean) {
      best_mean = slacks_[i].mean;
      dominant = i;
    }
  }
  const double sd_best = slacks_[dominant].sd;
  keep_.clear();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (slacks_[i].mean - best_mean <= config_.prune_sigmas * (slacks_[i].sd + sd_best) + 1e-9)
      keep_.push_back(i);
  }
  TE_CHECK(!keep_.empty(), "pruning removed all paths");

  const std::size_t n = keep_.size();
  vars_.clear();
  for (std::size_t i : keep_) vars_.push_back(slacks_[i]);
  cov_.resize(n * n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u; v < n; ++v) {
      const double c = u == v ? paths[keep_[u]]->variance()
                              : timing::path_cov(*paths[keep_[u]], *paths[keep_[v]], vm_);
      cov_[u * n + v] = c;
      cov_[v * n + u] = c;
    }
  }
  DtsGaussian out;
  out.slack = stat::statistical_min(vars_, cov_, config_.ordering);
  // Global loading of the result: approximate with the dominant (minimum
  // mean slack) path's loading, clipped to the result spread.
  out.global_loading = std::min(paths[dominant]->g_loading, out.slack.sd);
  return out;
}

const DtsAnalyzer::Cone& DtsAnalyzer::cone(EndpointClass cls) {
  Cone& c = cones_[static_cast<std::size_t>(cls)];
  if (!c.gate.empty()) return c;
  // The fan-in cone of the class's endpoints.  It is closed under fan-in,
  // so the DP gives every gate in it the arrival the full-netlist DP would.
  std::vector<std::uint8_t> in(nl_.size(), 0);
  std::vector<GateId> stack;
  for (std::uint8_t s = 0; s < nl_.stage_count(); ++s) {
    for (GateId e : nl_.stage_endpoints(s)) {
      if (cls != EndpointClass::kNone && nl_.gate(e).endpoint_class != cls) continue;
      stack.push_back(nl_.gate(e).fanin[0]);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (in[g] != 0) continue;
    in[g] = 1;
    const netlist::Gate& gate = nl_.gate(g);
    if (!netlist::info(gate.kind).combinational) continue;
    for (int k = 0; k < gate.arity(); ++k) stack.push_back(gate.fanin[static_cast<std::size_t>(k)]);
  }
  const auto pad = static_cast<GateId>(nl_.size());
  auto add = [&](GateId g) {
    const netlist::Gate& gate = nl_.gate(g);
    const bool source = !netlist::info(gate.kind).combinational;
    std::array<GateId, 3> fanin = {pad, pad, pad};
    for (int k = 0; !source && k < gate.arity(); ++k)
      fanin[static_cast<std::size_t>(k)] = gate.fanin[static_cast<std::size_t>(k)];
    // As timing::activated_arrivals: flip-flops launch at clk-to-q, the
    // other sources at 0.
    const double delay = source && gate.kind != netlist::GateKind::kDff ? 0.0 : gate.delay_ps;
    c.gate.push_back(g);
    c.fanin.push_back(fanin);
    c.delay.push_back(delay);
    c.launch.push_back(source ? delay : -std::numeric_limits<double>::infinity());
  };
  for (GateId g = 0; g < nl_.size(); ++g)
    if (in[g] != 0 && !netlist::info(nl_.gate(g).kind).combinational) add(g);
  for (GateId g : nl_.topo_order())
    if (in[g] != 0) add(g);
  return c;
}

const std::vector<double>& DtsAnalyzer::arrivals(const CycleView& cycle, EndpointClass cls) {
  const LaneCycle& lanes = cycle.cycle();
  const unsigned lane = cycle.lane();
  TE_REQUIRE(((lanes.live >> lane) & 1u) != 0, "arrival DP of a dead lane");
  const bool same_lists = lanes.step_id == lists_step_ && cls == lists_cls_;
  if (same_lists && dp_valid_ && lane == dp_lane_) return dp_arrivals_;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  if (dp_valid_) {
    // Put the previous lane's gates back to -inf.
    const Cone& old = cones_[static_cast<std::size_t>(lists_cls_)];
    const std::uint32_t* list = &lane_lists_[dp_lane_ * old.gate.size()];
    for (std::uint32_t j = 0; j < lane_counts_[dp_lane_]; ++j)
      dp_arrivals_[old.gate[list[j]]] = kNegInf;
    dp_valid_ = false;
  }
  const Cone& c = cone(cls);
  const std::size_t n = c.gate.size();
  if (!same_lists) {
    // Left uninitialised: a list is read only up to its count, and pages
    // no lane reaches stay out of the resident set.
    if (lane_lists_size_ < sim::LogicSimulator::kLanes * n) {
      lane_lists_size_ = sim::LogicSimulator::kLanes * n;
      lane_lists_ = std::make_unique_for_overwrite<std::uint32_t[]>(lane_lists_size_);
    }
    lane_counts_.fill(0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint64_t w = lanes.toggles[c.gate[i]] & lanes.live; w != 0; w &= w - 1) {
        const auto l = static_cast<unsigned>(std::countr_zero(w));
        lane_lists_[l * n + lane_counts_[l]++] = static_cast<std::uint32_t>(i);
      }
    }
    lists_step_ = lanes.step_id;
    lists_cls_ = cls;
  }
  dp_arrivals_.resize(nl_.size() + 1, kNegInf);
  // Gates off the list stay at -inf, so only activated fanins contribute; a
  // logic gate none of whose fanins is activated stays at -inf as well
  // (-inf + d == -inf).
  double* arr = dp_arrivals_.data();
  const std::uint32_t* list = &lane_lists_[lane * n];
  for (std::uint32_t j = 0; j < lane_counts_[lane]; ++j) {
    const std::uint32_t i = list[j];
    const auto& f = c.fanin[i];
    const double latest = std::max(std::max(arr[f[0]], arr[f[1]]), arr[f[2]]);
    arr[c.gate[i]] = std::max(latest + c.delay[i], c.launch[i]);
  }
  dp_lane_ = lane;
  dp_valid_ = true;
  return dp_arrivals_;
}

const PathStat* DtsAnalyzer::endpoint_critical_activated(GateId endpoint, const CycleView& cycle,
                                                         EndpointClass cls) {
  const GateId d = nl_.gate(endpoint).fanin[0];
  // Fast reject: if the endpoint's data input did not toggle, no activated
  // path ends here and the endpoint cannot capture a wrong value.
  if (!cycle.activated(d)) return nullptr;

  const EndpointSlot& slot = endpoint_slot(endpoint);
  const EndpointCache& cache = slot.cache;
  const auto& candidates = *slot.candidates;

  auto is_activated = [&](const TimingPath& p) {
    for (GateId g : p.gates) {
      if (!cycle.activated(g)) return false;
    }
    return true;
  };
  auto first_activated = [&](const std::vector<std::size_t>& order) -> const PathStat* {
    for (std::size_t i : order) {
      if (is_activated(candidates[i])) return &cache.stats[i];
    }
    return nullptr;
  };
  const PathStat* found_low = first_activated(cache.order_low);
  const PathStat* found_high = first_activated(cache.order_high);

  // Exact DP over the activated subgraph: needed as fallback when the
  // capped candidate list contains no activated path, and as insurance
  // when the list's guard tripped before the true activated critical path.
  const std::vector<double>& act_arr = arrivals(cycle, cls);
  const double dp_arrival = act_arr[d];
  TE_CHECK(dp_arrival > -std::numeric_limits<double>::infinity(),
           "D input activated but no activated path found by DP");

  // At most three activated paths: the two percentile scans' and the DP's.
  std::array<const PathStat*, 3> ap{};
  std::size_t n = 0;
  double best_found_delay = -std::numeric_limits<double>::infinity();
  if (found_low != nullptr) {
    ap[n++] = found_low;
    best_found_delay = std::max(best_found_delay, found_low->mean);
  }
  if (found_high != nullptr && found_high != found_low) ap[n++] = found_high;

  if (n == 0 || dp_arrival > best_found_delay + 1e-6) {
    // Reconstruct the DP's maximising activated path (memoised: activated
    // carry chains recur across cycles).
    GateId g = d;
    backtrack_.clear();
    std::uint64_t h = (0xCBF29CE484222325ull ^ endpoint) * 0x100000001B3ull;
    for (;;) {
      backtrack_.push_back(g);
      h = (h ^ g) * 0x100000001B3ull;
      const netlist::Gate& gate = nl_.gate(g);
      if (!netlist::info(gate.kind).combinational) break;
      GateId best = netlist::kNoGate;
      double best_arr = -std::numeric_limits<double>::infinity();
      for (int s = 0; s < gate.arity(); ++s) {
        const GateId f = gate.fanin[static_cast<std::size_t>(s)];
        if (act_arr[f] > best_arr) {
          best_arr = act_arr[f];
          best = f;
        }
      }
      TE_CHECK(best != netlist::kNoGate, "activated DP chain broke during backtrack");
      g = best;
    }
    static obs::Counter& dp_fallbacks =
        obs::MetricsRegistry::instance().counter("dta.dp_fallbacks");
    dp_fallbacks.increment();
    auto it = dp_cache_.find(h);
    if (it == dp_cache_.end() || !std::equal(it->second.gates.begin(), it->second.gates.end(),
                                             backtrack_.rbegin(), backtrack_.rend())) {
      // Miss, or a hash collision (different gate sequence behind the same
      // FNV key): (re)compute and store the verified entry.  A displaced
      // entry's node lives until the query ends, as AP may point into it.
      if (it != dp_cache_.end()) {
        static obs::Counter& collisions =
            obs::MetricsRegistry::instance().counter("dta.dp_cache_collisions");
        collisions.increment();
        displaced_.push_back(dp_cache_.extract(it));
      }
      TimingPath p;
      p.endpoint = endpoint;
      p.gates.assign(backtrack_.rbegin(), backtrack_.rend());
      p.delay_ps = dp_arrival;
      DpEntry entry;
      entry.stat = timing::path_stat(p, vm_);
      entry.gates = std::move(p.gates);
      it = dp_cache_.emplace(h, std::move(entry)).first;
    }
    ap[n++] = &it->second.stat;
  }

  // The nominal-worst (largest mean delay) path is the endpoint's primary
  // AP member; the others join AP after every endpoint's primary.
  std::size_t worst = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (ap[i]->mean > ap[worst]->mean) worst = i;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i != worst) alternates_.push_back(ap[i]);
  }
  return ap[worst];
}

std::optional<DtsGaussian> DtsAnalyzer::stage_dts(std::uint8_t stage, const CycleView& cycle,
                                                  EndpointClass cls) {
  TE_REQUIRE(stage < nl_.stage_count(), "stage out of range");
  static obs::Counter& queries = obs::MetricsRegistry::instance().counter("dta.stage_dts_queries");
  queries.increment();
  ap_.clear();
  alternates_.clear();
  displaced_.clear();
  for (GateId e : nl_.stage_endpoints(stage)) {
    if (cls != EndpointClass::kNone && nl_.gate(e).endpoint_class != cls) continue;
    if (const PathStat* st = endpoint_critical_activated(e, cycle, cls)) ap_.push_back(st);
  }
  ap_.insert(ap_.end(), alternates_.begin(), alternates_.end());
  if (ap_.empty()) return std::nullopt;
  return ap_min();
}

std::optional<double> DtsAnalyzer::stage_dts_deterministic(std::uint8_t stage,
                                                           const CycleView& cycle,
                                                           EndpointClass cls,
                                                           const timing::ChipSample* chip) const {
  TE_REQUIRE(stage < nl_.stage_count(), "stage out of range");
  const std::vector<double> arr = activated_arrivals(nl_, cycle, chip);
  double worst = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (GateId e : nl_.stage_endpoints(stage)) {
    if (cls != EndpointClass::kNone && nl_.gate(e).endpoint_class != cls) continue;
    const double a = arr[nl_.gate(e).fanin[0]];
    if (a == -std::numeric_limits<double>::infinity()) continue;
    worst = std::max(worst, a);
    any = true;
  }
  if (!any) return std::nullopt;
  return spec_.period_ps - spec_.setup_ps - worst;
}

}  // namespace terrors::dta
