#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace terrors::obs {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::string(name)).first->second;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + histograms_.size();
}

std::map<std::string, std::uint64_t> MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c.value());
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    json_string(os, name);
    os << ":";
    json_number(os, c.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    json_string(os, name);
    const auto& s = h.stats();
    os << ":{\"count\":";
    json_number(os, static_cast<std::uint64_t>(s.count()));
    os << ",\"mean\":";
    json_number(os, s.empty() ? 0.0 : s.mean());
    os << ",\"stddev\":";
    json_number(os, s.empty() ? 0.0 : s.stddev());
    os << ",\"min\":";
    json_number(os, s.empty() ? 0.0 : s.min());
    os << ",\"max\":";
    json_number(os, s.empty() ? 0.0 : s.max());
    os << "}";
  }
  os << "}}\n";
}

std::uint64_t MetricsScope::delta(std::string_view name) const {
  const std::uint64_t now = registry_->counter(name).value();
  const auto it = baseline_.find(std::string(name));
  const std::uint64_t before = it == baseline_.end() ? 0 : it->second;
  return now >= before ? now - before : 0;
}

std::map<std::string, std::uint64_t> MetricsScope::deltas() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, now] : registry_->counter_values()) {
    const auto it = baseline_.find(name);
    const std::uint64_t before = it == baseline_.end() ? 0 : it->second;
    if (now > before) out.emplace(name, now - before);
  }
  return out;
}

}  // namespace terrors::obs
