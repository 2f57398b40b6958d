// The wide-event run journal (DESIGN §5g): one self-describing JSONL
// line per analyze() call, appended to a log file that outlives the
// process.  The caller appends it after the run's last write:
// report::build_run_event assembles the event from the finished run,
// and append_event writes it.
//
// Philosophy: instead of scattering a run's story across log lines and
// metric families, emit ONE wide event carrying everything — identity
// (run id, program), shape (period, threads, instructions), cost (phase
// wall times, per-run counter deltas, peak RSS), outcome (headline
// lambda / error rate, degradation sites).  `terrors stats` and `terrors
// tail` aggregate and render the file; nothing ever reads it on the
// analysis path, so journaling is bit-invisible to the estimate.
//
// `terrors analyze` resolves the journal path as `--journal FILE` >
// TERRORS_JOURNAL > off (resolve_journal_path); embedders pick a path
// and call build_run_event + append_event themselves.
//
// Appends are atomic in the practical sense: the full line is built in
// memory and written with a single O_APPEND write, so concurrent
// processes sharing a journal interleave whole events, never bytes.
//
// Schema evolution mirrors run reports: kind + schema_version lead every
// event, and readers (report/journal_stats.hpp) reject versions they do
// not understand.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace terrors::obs {

inline constexpr int kJournalSchemaVersion = 1;
/// Distinguishes run events from the repo's other JSON documents.
inline constexpr const char* kJournalKind = "terrors_run_event";

/// One analyze() call, wide.  Field order below is the JSON key order.
struct RunEvent {
  int schema_version = kJournalSchemaVersion;
  std::string run_id;            ///< 16-hex-digit deterministic id
  std::uint64_t unix_ms = 0;     ///< wall-clock append time (not deterministic)
  std::string program;
  std::string config_hash;       ///< 16-hex netlist+config component of the key
  std::string program_hash;      ///< 16-hex program component of the key
  double period_ps = 0.0;
  std::size_t threads = 1;
  std::uint64_t runs = 0;        ///< input datasets analyzed
  std::uint64_t instructions = 0;

  // Phase wall times (seconds).
  double simulation_seconds = 0.0;
  double training_seconds = 0.0;
  double estimation_seconds = 0.0;

  // Run-scoped counter deltas (MetricsScope::deltas()): cache.*, pool
  // retries, degradation events, sim cycles — whatever the run touched.
  std::map<std::string, std::uint64_t> counters;

  // Pool scheduling cost of this run: tasks scheduled, and tasks retried
  // (the pool.task_retries delta).
  std::uint64_t pool_tasks = 0;
  std::uint64_t pool_retries = 0;

  // Outcome.
  double lambda_mean = 0.0;
  double rate_mean = 0.0;
  double rate_sd = 0.0;
  bool degraded = false;
  std::vector<std::string> degraded_sites;  ///< sorted unique site tags

  std::uint64_t peak_rss_bytes = 0;

  [[nodiscard]] double analyze_seconds() const {
    return simulation_seconds + training_seconds + estimation_seconds;
  }
};

/// Serialise one event as a single JSON line (no trailing newline).
[[nodiscard]] std::string event_line(const RunEvent& event);

/// Append one event (plus '\n') to `path`, creating the file if needed.
/// Throws std::runtime_error when the file cannot be opened or written —
/// callers on the analysis path degrade instead of failing the run.
void append_event(const std::string& path, const RunEvent& event);

/// Journal path resolution: explicit flag value > TERRORS_JOURNAL > "".
[[nodiscard]] std::string resolve_journal_path(const std::string& flag_value);

/// Peak resident set size of this process in bytes (getrusage; 0 where
/// unsupported).  Monotone over the process lifetime.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace terrors::obs
