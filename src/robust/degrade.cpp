#include "robust/degrade.hpp"

#include "obs/metrics.hpp"

namespace terrors::robust {

namespace {
constexpr std::string_view kSitePrefix = "robust.degraded.";
}  // namespace

void note_degraded(std::string_view site) {
  static obs::Counter& total = obs::MetricsRegistry::instance().counter("robust.degraded");
  total.increment();
  obs::MetricsRegistry::instance()
      .counter(std::string(kSitePrefix) + std::string(site))
      .increment();
}

std::vector<std::string> degraded_sites(const std::map<std::string, std::uint64_t>& deltas) {
  std::vector<std::string> sites;  // std::map order keeps them sorted
  for (const auto& [name, delta] : deltas) {
    if (delta != 0 && name.size() > kSitePrefix.size() && name.rfind(kSitePrefix, 0) == 0) {
      sites.push_back(name.substr(kSitePrefix.size()));
    }
  }
  return sites;
}

}  // namespace terrors::robust
