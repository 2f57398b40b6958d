#include "dta/dts_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
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

DtsGaussian statistical_path_min(const std::vector<PathStat>& paths,
                                 const timing::VariationModel& vm,
                                 const timing::TimingSpec& spec, const DtsConfig& config) {
  TE_REQUIRE(!paths.empty(), "statistical_path_min over an empty AP set");

  // Prune paths that cannot win the minimum slack: path i is irrelevant
  // when its mean slack exceeds the best one by more than prune_sigmas
  // combined standard deviations.
  double best_mean = std::numeric_limits<double>::infinity();
  std::size_t dominant = 0;
  std::vector<Gaussian> slacks(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    slacks[i] = paths[i].slack(spec);
    if (slacks[i].mean < best_mean) {
      best_mean = slacks[i].mean;
      dominant = i;
    }
  }
  const double sd_best = slacks[dominant].sd;
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (slacks[i].mean - best_mean <= config.prune_sigmas * (slacks[i].sd + sd_best) + 1e-9)
      keep.push_back(i);
  }
  TE_CHECK(!keep.empty(), "pruning removed all paths");

  std::vector<Gaussian> vars;
  vars.reserve(keep.size());
  for (std::size_t i : keep) vars.push_back(slacks[i]);
  std::vector<double> cov(keep.size() * keep.size());
  for (std::size_t u = 0; u < keep.size(); ++u) {
    for (std::size_t v = u; v < keep.size(); ++v) {
      const double c = u == v ? paths[keep[u]].variance()
                              : timing::path_cov(paths[keep[u]], paths[keep[v]], vm);
      cov[u * keep.size() + v] = c;
      cov[v * keep.size() + u] = c;
    }
  }
  DtsGaussian out;
  out.slack = stat::statistical_min(vars, cov, config.ordering);
  // Global loading of the result: approximate with the dominant (minimum
  // mean slack) path's loading, clipped to the result spread.
  out.global_loading = std::min(paths[dominant].g_loading, out.slack.sd);
  return out;
}

// ---------------------------------------------------------------------------

CycleActivation::CycleActivation(const netlist::Netlist& nl, std::vector<std::uint8_t> flags,
                                 std::vector<GateId> activated)
    : nl_(nl),
      flags_(std::move(flags)),
      arrivals_once_(std::make_unique<std::once_flag>()),
      activated_(std::move(activated)) {
  TE_REQUIRE(flags_.size() == nl.size(), "activation flag size mismatch");
}

CycleActivation::CycleActivation(const netlist::Netlist& nl, std::vector<std::uint8_t> flags)
    : CycleActivation(nl, flags, timing::activated_gates(nl, flags)) {}

const std::vector<double>& CycleActivation::arrivals() const {
  std::call_once(*arrivals_once_, [this] {
    arrivals_ = timing::activated_arrivals(nl_, activated_);
    std::vector<GateId>().swap(activated_);
  });
  return arrivals_;
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

std::optional<PathStat> DtsAnalyzer::endpoint_critical_activated(GateId endpoint,
                                                                 CycleActivation& cycle) {
  const auto& flags = cycle.flags();
  const GateId d = nl_.gate(endpoint).fanin[0];
  // Fast reject: if the endpoint's data input did not toggle, no activated
  // path ends here and the endpoint cannot capture a wrong value.
  if (flags[d] == 0) return std::nullopt;

  const EndpointSlot& slot = endpoint_slot(endpoint);
  const EndpointCache& cache = slot.cache;
  const auto& candidates = *slot.candidates;

  auto is_activated = [&](const TimingPath& p) {
    for (GateId g : p.gates) {
      if (flags[g] == 0) return false;
    }
    return true;
  };

  std::ptrdiff_t found_low = -1;
  std::ptrdiff_t found_high = -1;
  for (std::size_t i : cache.order_low) {
    if (is_activated(candidates[i])) {
      found_low = static_cast<std::ptrdiff_t>(i);
      break;
    }
  }
  for (std::size_t i : cache.order_high) {
    if (is_activated(candidates[i])) {
      found_high = static_cast<std::ptrdiff_t>(i);
      break;
    }
  }

  // Exact DP over the activated subgraph: needed as fallback when the
  // capped candidate list contains no activated path, and as insurance
  // when the list's guard tripped before the true activated critical path.
  const auto& act_arr = cycle.arrivals();
  const double dp_arrival = act_arr[d];
  TE_CHECK(dp_arrival > -std::numeric_limits<double>::infinity(),
           "D input activated but no activated path found by DP");

  std::vector<PathStat> ap;
  double best_found_delay = -std::numeric_limits<double>::infinity();
  if (found_low >= 0) {
    ap.push_back(cache.stats[static_cast<std::size_t>(found_low)]);
    best_found_delay =
        std::max(best_found_delay, cache.stats[static_cast<std::size_t>(found_low)].mean);
  }
  if (found_high >= 0 && found_high != found_low)
    ap.push_back(cache.stats[static_cast<std::size_t>(found_high)]);

  if (ap.empty() || dp_arrival > best_found_delay + 1e-6) {
    // Reconstruct the DP's maximising activated path (memoised: activated
    // carry chains recur across cycles).
    GateId g = d;
    std::vector<GateId> rev;
    std::uint64_t h = (0xCBF29CE484222325ull ^ endpoint) * 0x100000001B3ull;
    for (;;) {
      rev.push_back(g);
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
    TimingPath p;
    p.endpoint = endpoint;
    p.gates.assign(rev.rbegin(), rev.rend());
    p.delay_ps = dp_arrival;
    auto it = dp_cache_.find(h);
    if (it == dp_cache_.end() || it->second.gates != p.gates) {
      // Miss, or a hash collision (different gate sequence behind the same
      // FNV key): (re)compute and store the verified entry.
      if (it != dp_cache_.end()) {
        static obs::Counter& collisions =
            obs::MetricsRegistry::instance().counter("dta.dp_cache_collisions");
        collisions.increment();
      }
      DpEntry entry;
      entry.gates = p.gates;
      entry.stat = timing::path_stat(p, vm_);
      it = dp_cache_.insert_or_assign(h, std::move(entry)).first;
    }
    ap.push_back(it->second.stat);
  }

  // Reduce this endpoint's contributions to a single most-critical stat?
  // No: return them all; the caller accumulates AP across endpoints.  To
  // keep the interface simple we fold them here with the statistical min
  // when there are several.
  if (ap.size() == 1) return std::move(ap[0]);
  // Keep the path with minimum mean slack as representative but widen to
  // the statistical min by folding the others in at the caller level is
  // equivalent; to stay faithful we return the nominal-worst path and rely
  // on the caller's AP union already containing near-duplicates.
  std::size_t worst = 0;
  for (std::size_t i = 1; i < ap.size(); ++i) {
    if (ap[i].mean > ap[worst].mean) worst = i;
  }
  // Also merge the alternates into the caller's AP through last_ap_ later:
  // the caller re-collects all of them via collect_ap_.
  for (std::size_t i = 0; i < ap.size(); ++i) {
    if (i != worst) pending_alternates_.push_back(std::move(ap[i]));
  }
  return std::move(ap[worst]);
}

std::optional<DtsGaussian> DtsAnalyzer::stage_dts(std::uint8_t stage, CycleActivation& cycle,
                                                  EndpointClass cls) {
  TE_REQUIRE(stage < nl_.stage_count(), "stage out of range");
  static obs::Counter& queries = obs::MetricsRegistry::instance().counter("dta.stage_dts_queries");
  queries.increment();
  last_ap_.clear();
  pending_alternates_.clear();
  for (GateId e : nl_.stage_endpoints(stage)) {
    if (cls != EndpointClass::kNone && nl_.gate(e).endpoint_class != cls) continue;
    auto st = endpoint_critical_activated(e, cycle);
    if (st.has_value()) last_ap_.push_back(std::move(*st));
  }
  for (auto& alt : pending_alternates_) last_ap_.push_back(std::move(alt));
  pending_alternates_.clear();
  if (last_ap_.empty()) return std::nullopt;
  return statistical_path_min(last_ap_, vm_, spec_, config_);
}

std::optional<DtsGaussian> DtsAnalyzer::endpoint_dts(GateId endpoint, CycleActivation& cycle) {
  pending_alternates_.clear();
  auto st = endpoint_critical_activated(endpoint, cycle);
  if (!st.has_value()) return std::nullopt;
  std::vector<PathStat> ap;
  ap.push_back(std::move(*st));
  for (auto& alt : pending_alternates_) ap.push_back(std::move(alt));
  pending_alternates_.clear();
  return statistical_path_min(ap, vm_, spec_, config_);
}

std::optional<double> DtsAnalyzer::stage_dts_deterministic(std::uint8_t stage,
                                                           const std::vector<std::uint8_t>& activated,
                                                           EndpointClass cls,
                                                           const timing::ChipSample* chip) const {
  TE_REQUIRE(stage < nl_.stage_count(), "stage out of range");
  const std::vector<double> arr = timing::activated_arrivals(nl_, activated, chip);
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
