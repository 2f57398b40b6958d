// Graceful-degradation record (DESIGN §5f).
//
// When a peripheral subsystem fails mid-analysis — a cache read throws,
// an SCC system is singular, a worker task needs a serial retry — the
// framework keeps serving a best-effort estimate but must *say so*.
// The counters are that record: note_degraded(site) bumps
// `robust.degraded` (total) and `robust.degraded.<site>`, and a run's
// sites are the tags whose counter moved during the run, read from the
// run's counter deltas (obs::MetricsScope) by degraded_sites().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace terrors::robust {

/// Record one degradation event at `site` ("cache", "solver", "pool",
/// "io"): bumps `robust.degraded` and `robust.degraded.<site>`.
void note_degraded(std::string_view site);

/// Sorted site tags whose `robust.degraded.<tag>` delta is nonzero in
/// `deltas` (counter name -> delta, e.g. MetricsScope::deltas()).
[[nodiscard]] std::vector<std::string> degraded_sites(
    const std::map<std::string, std::uint64_t>& deltas);

}  // namespace terrors::robust
