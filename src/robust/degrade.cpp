#include "robust/degrade.hpp"

#include "obs/metrics.hpp"

namespace terrors::robust {

DegradationLog& DegradationLog::instance() {
  static DegradationLog log;
  return log;
}

void DegradationLog::begin_run(const std::vector<std::string>& carried) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_ = {carried.begin(), carried.end()};
}

void DegradationLog::note(std::string_view site) {
  static obs::Counter& total = obs::MetricsRegistry::instance().counter("robust.degraded");
  total.increment();
  obs::MetricsRegistry::instance()
      .counter("robust.degraded." + std::string(site))
      .increment();
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.emplace(site);
}

bool DegradationLog::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !sites_.empty();
}

std::vector<std::string> DegradationLog::sites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {sites_.begin(), sites_.end()};
}

void note_degraded(std::string_view site) { DegradationLog::instance().note(site); }

}  // namespace terrors::robust
