// Folded-stack readers (DESIGN §5g): where does analyze time go?
//
// `terrors analyze --profile FILE` writes Tracer::write_folded output:
// one "root;child;leaf count" line per recorded span path, where count
// is the path's exclusive time in microseconds — the collapsed-stack
// format flamegraph.pl and speedscope consume directly.  `terrors
// profile FILE` parses such a file and renders the top hotspots with
// inclusive/exclusive totals.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace terrors::obs {

/// Parse folded-stack text (inverse of Tracer::write_folded; blank lines
/// are skipped, repeated stacks add up).  Throws std::runtime_error on a
/// malformed line, including a count that does not fit 64 bits.
[[nodiscard]] std::map<std::string, std::uint64_t> parse_folded(std::istream& is);

/// Per-span aggregate over a folded-stack map: inclusive = count of the
/// stacks with the span anywhere on them, exclusive = with it on top.
struct SpanHotspot {
  std::string name;
  std::uint64_t inclusive = 0;
  std::uint64_t exclusive = 0;
};

/// Hotspots sorted by inclusive count (desc), ties by name.
[[nodiscard]] std::vector<SpanHotspot> hotspots_from_folded(
    const std::map<std::string, std::uint64_t>& folded);

/// Render the top-N hotspot table (`terrors profile`).
void write_hotspots(const std::map<std::string, std::uint64_t>& folded, std::ostream& os,
                    std::size_t top);

}  // namespace terrors::obs
