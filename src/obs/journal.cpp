#include "obs/journal.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace terrors::obs {
namespace {

/// One O_APPEND write per line: concurrent writers sharing the file
/// interleave whole events, never bytes.
void append_line(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("cannot open journal '" + path + "'");
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  out.flush();
  if (!out) throw std::runtime_error("append to journal '" + path + "' failed");
}

}  // namespace

std::string event_line(const RunEvent& event) {
  std::ostringstream os;
  os << "{\"kind\":";
  json_string(os, kJournalKind);
  os << ",\"schema_version\":";
  json_number(os, static_cast<std::uint64_t>(event.schema_version));
  os << ",\"run_id\":";
  json_string(os, event.run_id);
  os << ",\"unix_ms\":";
  json_number(os, event.unix_ms);
  os << ",\"program\":";
  json_string(os, event.program);
  os << ",\"config_hash\":";
  json_string(os, event.config_hash);
  os << ",\"program_hash\":";
  json_string(os, event.program_hash);
  os << ",\"period_ps\":";
  json_number(os, event.period_ps);
  os << ",\"threads\":";
  json_number(os, static_cast<std::uint64_t>(event.threads));
  os << ",\"runs\":";
  json_number(os, event.runs);
  os << ",\"instructions\":";
  json_number(os, event.instructions);
  os << ",\"phases\":{\"simulation_seconds\":";
  json_number(os, event.simulation_seconds);
  os << ",\"training_seconds\":";
  json_number(os, event.training_seconds);
  os << ",\"estimation_seconds\":";
  json_number(os, event.estimation_seconds);
  os << ",\"analyze_seconds\":";
  json_number(os, event.analyze_seconds());
  os << "},\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : event.counters) {
    if (!first) os << ",";
    first = false;
    json_string(os, name);
    os << ":";
    json_number(os, value);
  }
  os << "},\"pool\":{\"tasks\":";
  json_number(os, event.pool_tasks);
  os << ",\"retries\":";
  json_number(os, event.pool_retries);
  os << "},\"estimate\":{\"lambda_mean\":";
  json_number(os, event.lambda_mean);
  os << ",\"rate_mean\":";
  json_number(os, event.rate_mean);
  os << ",\"rate_sd\":";
  json_number(os, event.rate_sd);
  os << "},\"degraded\":" << (event.degraded ? "true" : "false");
  os << ",\"degraded_sites\":[";
  for (std::size_t i = 0; i < event.degraded_sites.size(); ++i) {
    if (i != 0) os << ",";
    json_string(os, event.degraded_sites[i]);
  }
  os << "],\"peak_rss_bytes\":";
  json_number(os, event.peak_rss_bytes);
  os << "}";
  return os.str();
}

void append_event(const std::string& path, const RunEvent& event) {
  append_line(path, event_line(event) + "\n");
  static Counter& events = MetricsRegistry::instance().counter("journal.events");
  events.increment();
}

std::string resolve_journal_path(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  if (const char* env = std::getenv("TERRORS_JOURNAL"); env != nullptr && env[0] != '\0') {
    return env;
  }
  return {};
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace terrors::obs
