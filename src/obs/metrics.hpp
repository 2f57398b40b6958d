// Process-wide registry of named counters and histograms.
//
// Counters are relaxed atomics so the hot layers (logic simulation, path
// enumeration, Clark combinations) can increment them unconditionally at
// negligible cost; histograms reuse support::MomentAccumulator, giving
// mean / sd / central moments / min / max without storing samples.
// Nothing is ever printed unless a caller asks for write_json() (the
// CLI's --metrics flag, the bench JSON reports), so default output is
// untouched.
//
// Hot-path idiom — resolve the handle once, then increment:
//
//   static obs::Counter& cycles = obs::MetricsRegistry::instance().counter("sim.cycles");
//   cycles.increment();
//
// Registration is mutex-protected and handles are stable for the process
// lifetime; increments themselves are lock-free.  Both metric kinds are
// safe under the thread pool: counters are relaxed atomics, histograms
// serialise observe() behind a per-histogram mutex — they sit off the
// per-cycle hot paths (cache load/store timings, solver residuals), so a
// short critical section is cheaper than sharding.
//
// Per-run views are layered on top by MetricsScope: the registry can
// snapshot every counter, and a scope deltas the snapshot against live
// values — process-lifetime handles stay lock-free while each analyze()
// still reports its own per-run numbers (BenchmarkResult's cache counts
// and degradation sites, the run event's counter deltas).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "support/accumulator.hpp"

namespace terrors::obs {

class Counter {
 public:
  void increment(std::uint64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Histogram {
 public:
  void observe(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    acc_.add(v);
  }
  /// Consistent copy of the moment statistics (mutex-guarded: concurrent
  /// observe() calls from pool workers never expose a half-updated
  /// accumulator to a reader).
  [[nodiscard]] support::MomentAccumulator stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return acc_;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    acc_.reset();
  }

 private:
  mutable std::mutex mutex_;
  support::MomentAccumulator acc_;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create; the returned reference is valid forever.
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every registered metric (registrations stay).
  void reset();
  /// Total number of registered metrics across both kinds.
  [[nodiscard]] std::size_t size() const;

  /// Point-in-time snapshot of every registered counter, for per-run
  /// delta views (obs::MetricsScope).  Names are sorted (std::map).
  [[nodiscard]] std::map<std::string, std::uint64_t> counter_values() const;

  /// {"counters":{...},"histograms":{name:{count,mean,stddev,min,max}}}
  /// This is the registry's one export format.
  void write_json(std::ostream& os) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;  ///< guards map mutation, not metric updates
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Per-run view over the cumulative registry counters: snapshots every
/// counter at construction, exposes (live - snapshot) deltas.  Counters
/// registered after construction delta against zero.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry& registry)
      : registry_(&registry), baseline_(registry.counter_values()) {}

  /// Delta of one counter since the scope opened (0 if never registered).
  [[nodiscard]] std::uint64_t delta(std::string_view name) const;

  /// All counters with a nonzero delta since the scope opened, sorted by
  /// name.  This is the "wide event" payload: self-describing, and only
  /// as wide as what the run actually touched.
  [[nodiscard]] std::map<std::string, std::uint64_t> deltas() const;

 private:
  MetricsRegistry* registry_;
  std::map<std::string, std::uint64_t> baseline_;
};

}  // namespace terrors::obs
