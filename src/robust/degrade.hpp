// Graceful-degradation bookkeeping (DESIGN §5f).
//
// When a peripheral subsystem fails mid-analysis — a cache read throws,
// an SCC system is singular, a worker task needs a serial retry — the
// framework keeps serving a best-effort estimate but must *say so*.
// DegradationLog is the single place those events land:
//
//   * `robust.degraded` (total) and `robust.degraded.<site>` counters,
//   * the run's sorted site set, which the framework copies into
//     BenchmarkResult, the run report's `degraded` section and the run
//     journal event.
//
// begin_run() is called at the top of Framework::analyze (seeded with
// the sites the framework's construction noted); the site set is
// per-run, counters are cumulative like every other metric.
#pragma once

#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace terrors::robust {

class DegradationLog {
 public:
  static DegradationLog& instance();

  /// Start a new per-run site set holding `carried` (sites noted before
  /// the run began); counters are untouched.
  void begin_run(const std::vector<std::string>& carried = {});

  /// Record one degradation event at `site` ("cache", "solver", "pool",
  /// "io"): adds the site to the run's set and bumps `robust.degraded` +
  /// `robust.degraded.<site>`.
  void note(std::string_view site);

  [[nodiscard]] bool degraded() const;
  /// Sorted unique site tags of the current run ("cache", "solver", ...).
  [[nodiscard]] std::vector<std::string> sites() const;

 private:
  DegradationLog() = default;

  mutable std::mutex mutex_;
  std::set<std::string> sites_;
};

/// Shorthand for DegradationLog::instance().note(site).
void note_degraded(std::string_view site);

}  // namespace terrors::robust
