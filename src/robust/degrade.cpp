#include "robust/degrade.hpp"

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/run_context.hpp"

namespace terrors::robust {

DegradationLog& DegradationLog::instance() {
  static DegradationLog log;
  return log;
}

void DegradationLog::begin_run() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
}

void DegradationLog::note(std::string_view site, std::string_view detail) {
  static obs::Counter& total = obs::MetricsRegistry::instance().counter("robust.degraded");
  total.increment();
  obs::MetricsRegistry::instance()
      .counter("robust.degraded." + std::string(site))
      .increment();

  bool first = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    first = sites_.emplace(site).second;
  }
  if (first) {
    // Tag the warning with the active run so a shared log file attributes
    // degradation to the analyze() call that suffered it.
    std::vector<obs::LogField> fields = {{"site", std::string(site)},
                                         {"detail", std::string(detail)}};
    if (const std::string run = obs::current_run_id(); !run.empty()) {
      fields.push_back({"run", run});
    }
    obs::log_warn("robust", "degraded mode: serving best-effort result", fields);
  }
}

bool DegradationLog::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !sites_.empty();
}

std::vector<std::string> DegradationLog::sites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {sites_.begin(), sites_.end()};
}

void note_degraded(std::string_view site, std::string_view detail) {
  DegradationLog::instance().note(site, detail);
}

}  // namespace terrors::robust
