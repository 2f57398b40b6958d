// The traced run: per-layer numbers measured from outside the program.
//
// It calls, per program, the public functions analyze() calls, in the
// same order — isa::Cfg and Executor::run per input, then the control
// characterisation (characterize_edge per (block, edge) at pool width 1),
// InstructionErrorModel::build, MarginalSolver::solve and
// estimate_error_rate — and records a span around each call.  Its
// estimate must equal the untraced analyze() result bit for bit.  Where
// analyze() took the control artifact from the cache (warm-long), the
// decomposition reuses that call's artifact via ErrorRateFramework::last()
// and charges the cache histograms' load time instead of recomputing it.
//
// Counts are deltas of obs::MetricsRegistry counters over one untraced
// pass.  Two probes complete the picture: control characterisation at
// pool widths 1, 2 and min(4, nproc), and the logic-simulation and
// stage-DTS kernels driven by each workload's own sampled contexts.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>

#include "core/error_model.hpp"
#include "core/estimator.hpp"
#include "core/marginal.hpp"
#include "dta/control_characterizer.hpp"
#include "dta/datapath_model.hpp"
#include "dta/pipeline_driver.hpp"
#include "obs/metrics.hpp"
#include "suite.hpp"

namespace perfbench {
namespace {

/// Spans around calls into the program, held in memory and written out
/// when the run ends.  Single-threaded: spans nest strictly.
class SpanLog {
 public:
  std::size_t open(std::string name, std::string program) {
    spans_.push_back({std::move(name), std::move(program), now(), 0.0, current_, 0.0});
    current_ = static_cast<std::ptrdiff_t>(spans_.size()) - 1;
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    Span& s = spans_[id];
    s.end = now();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].children += s.end - s.start;
    current_ = s.parent;
  }

  template <class F>
  decltype(auto) time(std::string name, std::string program, F&& f) {
    struct Closer {
      SpanLog& log;
      std::size_t id;
      ~Closer() { log.close(id); }
    } closer{*this, open(std::move(name), std::move(program))};
    return f();
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Summed duration of the spans called `name`, from span `first` on.
  [[nodiscard]] double total(std::string_view name, std::size_t first = 0) const {
    double t = 0.0;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      if (spans_[i].name == name) t += spans_[i].end - spans_[i].start;
    }
    return t;
  }

  /// Per span name: calls, total time, and self time (span minus the
  /// part its child spans cover).
  struct Summary {
    std::size_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, Summary> summary() const {
    std::map<std::string, Summary> out;
    for (const auto& s : spans_) {
      Summary& e = out[s.name];
      ++e.calls;
      e.total_s += s.end - s.start;
      e.self_s += s.end - s.start - s.children;
    }
    return out;
  }

  void write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    os.precision(17);
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ", \"self\": {";
    bool first = true;
    for (const auto& [name, e] : summary()) {
      os << (first ? "" : ", ") << "\"" << name << "\": {\"calls\": " << e.calls
         << ", \"total_s\": " << e.total_s << ", \"self_s\": " << e.self_s << "}";
      first = false;
    }
    os << "}, \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"parent\": " << s.parent
         << ", \"name\": \"" << s.name << "\", \"program\": \"" << s.program
         << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end << "}";
    }
    os << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::string program;
    double start = 0.0;  ///< seconds since the log was created
    double end = 0.0;
    std::ptrdiff_t parent = -1;
    double children = 0.0;  ///< summed durations of direct children
  };
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::ptrdiff_t current_ = -1;
};

/// One program's analyze(), decomposed.
struct Analysis {
  std::unique_ptr<isa::Cfg> cfg;
  std::unique_ptr<isa::Executor> executor;
  std::vector<dta::BlockControlDts> control;
  std::string fingerprint;
};

/// Width-1 control characterisation through characterize_edge, in the
/// order of ControlCharacterizer::characterize's serial path.  Each call
/// becomes a "dta.edge" span in `log` and/or a time in `edge_seconds`.
std::vector<dta::BlockControlDts> characterize_per_edge(dta::ControlCharacterizer& ch,
                                                        const Job& job, const isa::Cfg& cfg,
                                                        const isa::ProgramProfile& profile,
                                                        SpanLog* log,
                                                        std::vector<double>* edge_seconds) {
  auto edge = [&](isa::BlockId b, std::ptrdiff_t e) {
    const auto t0 = Clock::now();
    auto call = [&] { return ch.characterize_edge(job.program, cfg, profile, b, e); };
    dta::EdgeControlDts out = log ? log->time("dta.edge", job.name, call) : call();
    if (edge_seconds) edge_seconds->push_back(seconds_since(t0));
    return out;
  };
  std::vector<dta::BlockControlDts> out(job.program.block_count());
  for (isa::BlockId b = 0; b < job.program.block_count(); ++b) {
    out[b].per_edge.resize(cfg.indegree(b));
    for (std::size_t j = 0; j < cfg.indegree(b); ++j)
      out[b].per_edge[j] = edge(b, static_cast<std::ptrdiff_t>(j));
    out[b].entry = edge(b, -1);
  }
  return out;
}

bool same_dts(const std::optional<dta::DtsGaussian>& a, const std::optional<dta::DtsGaussian>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->slack.mean == b->slack.mean && a->slack.sd == b->slack.sd &&
                a->global_loading == b->global_loading);
}

bool same_control(const std::vector<dta::BlockControlDts>& a,
                  const std::vector<dta::BlockControlDts>& b) {
  auto same_edge = [](const dta::EdgeControlDts& x, const dta::EdgeControlDts& y) {
    return std::equal(x.instr.begin(), x.instr.end(), y.instr.begin(), y.instr.end(), same_dts);
  };
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_edge(a[i].entry, b[i].entry)) return false;
    if (!std::equal(a[i].per_edge.begin(), a[i].per_edge.end(), b[i].per_edge.begin(),
                    b[i].per_edge.end(), same_edge))
      return false;
  }
  return true;
}

/// analyze() of one program as a sequence of timed public calls.  With
/// `cached` set, the control characterisation is that artifact.
Analysis decompose(core::ErrorRateFramework& fw, const Job& job, SpanLog& log,
                   const std::vector<dta::BlockControlDts>* cached) {
  const core::FrameworkConfig& cfg = fw.config();
  Analysis a;
  const std::size_t root = log.open("analyze", job.name);
  a.cfg = std::make_unique<isa::Cfg>(job.program);
  a.executor = std::make_unique<isa::Executor>(job.program, *a.cfg, job.executor);
  log.time("isa.executor", job.name, [&] {
    for (const auto& in : job.inputs) a.executor->run(in);
  });
  const isa::ProgramProfile& profile = a.executor->profile();
  if (cached != nullptr) {
    a.control = *cached;
  } else if (support::global_pool().size() <= 1) {
    a.control = log.time("dta.characterize", job.name, [&] {
      return characterize_per_edge(fw.characterizer(), job, *a.cfg, profile, &log, nullptr);
    });
  } else {
    a.control = log.time("dta.characterize", job.name, [&] {
      return fw.characterizer().characterize(job.program, *a.cfg, profile);
    });
  }
  const core::InstructionErrorModel model(fw.datapath_model(), cfg.spec, cfg.error_model);
  const auto conditionals = log.time("core.error_model", job.name, [&] {
    return model.build(job.program, *a.cfg, profile, a.control);
  });
  const core::MarginalSolver solver(job.program, *a.cfg, profile);
  const auto marginals =
      log.time("core.solve", job.name, [&] { return solver.solve(conditionals); });
  core::EstimatorInputs in;
  in.program = &job.program;
  in.profile = &profile;
  in.conditionals = &conditionals;
  in.marginals = &marginals;
  in.execution_scale = cfg.execution_scale;
  in.chen_stein_radius = cfg.chen_stein_radius;
  const core::ErrorRateEstimate estimate =
      log.time("core.estimate", job.name, [&] { return core::estimate_error_rate(in); });
  log.close(root);
  a.fingerprint = fingerprint(estimate, profile.total_instructions, job.program.block_count());
  return a;
}

const isa::BlockSample* first_sample(const isa::BlockProfile& bp) {
  if (!bp.entry_samples.samples.empty()) return &bp.entry_samples.samples.front();
  for (const auto& es : bp.edge_samples) {
    if (!es.samples.empty()) return &es.samples.front();
  }
  return nullptr;
}

}  // namespace

std::vector<Metric> run_layers(const Workload& w, const std::vector<Job>& jobs, Setup& setup,
                               const Paths& paths, Checks& checks,
                               const std::vector<std::string>& golden, std::uint64_t seed,
                               double seconds) {
  SpanLog log;
  const netlist::Pipeline& pipeline = *setup.pipeline;
  std::vector<Metric> metrics;
  auto add = [&](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };

  // Untraced pass: the time the decomposition is compared against, and
  // the per-pass counts.
  const double load_before = histogram_sum("cache.load_seconds");
  const double store_before = histogram_sum("cache.store_seconds");
  const PassResult untraced = run_pass(*setup.framework, jobs);
  const double cache_load_s = histogram_sum("cache.load_seconds") - load_before;
  const double cache_store_s = histogram_sum("cache.store_seconds") - store_before;
  std::printf("untraced pass: suite %.4f s\n", untraced.suite_s);
  const std::vector<std::string> reference =
      setup.cold_reference.empty() ? fingerprints(untraced) : setup.cold_reference;
  checks.pass(untraced, reference, golden, "untraced pass");
  setup.framework.reset();
  cross_check(w, jobs, setup, paths, reference, untraced.counters, checks);

  // Traced passes, each on a fresh framework prepared like a timed pass's,
  // repeated until `seconds` have gone by.  Layer times are medians over
  // the passes; the probes below use the last pass's analyses.
  std::unique_ptr<core::ErrorRateFramework> fw;
  std::vector<Analysis> analyses;
  std::map<std::string, std::vector<double>> pass_s;  ///< per span name, one entry per pass
  const char* const layers[] = {"isa.executor", "dta.characterize", "core.error_model",
                                "core.solve", "core.estimate"};
  const auto t_traced = Clock::now();
  for (int pass = 0; pass == 0 || seconds_since(t_traced) < seconds; ++pass) {
    fw.reset();
    const std::string label = "traced-" + std::to_string(pass);
    fw = make_framework(pipeline, w, pass_cache_dir(w, paths, setup, label),
                        w.cache != CacheMode::kWarm);
    analyses.clear();
    const std::size_t first_span = log.size();
    double analyze_load_s = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Job& job = jobs[i];
      const std::vector<dta::BlockControlDts>* cached = nullptr;
      if (w.cache == CacheMode::kWarm) {
        fw->set_executor_config(job.executor);
        const double before = histogram_sum("cache.load_seconds");
        const core::BenchmarkResult r = fw->analyze(job.program, job.inputs);
        analyze_load_s += histogram_sum("cache.load_seconds") - before;
        const bool hit = r.cache_hits > 0 && r.cache_misses == 0;
        checks.call(job.name, !hit ? "warm analyze missed the cache"
                              : fingerprint(r.estimate, r.instructions, r.basic_blocks) !=
                                        reference[i]
                                  ? "warm analyze differs from the cold one"
                                  : "");
        cached = &fw->last().control;
      }
      analyses.push_back(decompose(*fw, job, log, cached));
      checks.call(job.name, analyses.back().fingerprint == reference[i]
                                ? ""
                                : "traced decomposition not bit-identical to analyze()");
    }
    // The decomposition charges the cache load analyze() did for it.
    double layer_sum = analyze_load_s;
    for (const char* name : layers) {
      pass_s[name].push_back(log.total(name, first_span));
      layer_sum += pass_s[name].back();
    }
    pass_s["layers"].push_back(layer_sum);
    pass_s["traced"].push_back(log.total("analyze", first_span) + analyze_load_s);
  }
  std::printf("traced passes: %zu\n", pass_s["traced"].size());

  // Set-up layers, each timed on its own.
  add("netlist.build_s", setup.build_pipeline_seconds.front(), "s");
  log.time("dta.datapath_train", "", [&] {
    const auto t0 = Clock::now();
    (void)dta::DatapathModel::train(pipeline, fw->variation_model(), fw->config().dts);
    add("dta.datapath_train_s", seconds_since(t0), "s");
  });

  // Pool-scaling probe: characterise every program at widths 1, 2 and
  // min(4, nproc), each on a fresh characterizer; every width must give
  // the decomposition's control tables.
  const core::FrameworkConfig& cfg = fw->config();
  const std::size_t wide = parallel_width();
  std::map<std::size_t, double> char_s;
  std::vector<double> edge_s;
  for (const std::size_t width : std::set<std::size_t>{1, std::min<std::size_t>(2, wide), wide}) {
    support::set_global_threads(width);
    dta::ControlCharacterizer ch(pipeline, fw->variation_model(), cfg.spec, cfg.dts,
                                 cfg.characterizer);
    if (width == 1) {
      const Counters before = read_counters();
      const auto t0 = Clock::now();
      log.time("timing.warm_paths", "", [&] { ch.warm_paths(); });
      add("timing.warm_paths_s", seconds_since(t0), "s");
      const Counters d = counter_delta(before, read_counters());
      for (const char* name : {"timing.path_expansions", "timing.paths_enumerated"}) {
        if (const auto it = d.find(name); it != d.end())
          add(name, static_cast<double>(it->second), "count");
        else
          std::printf("missing counter: %s\n", name);
      }
    } else {
      ch.warm_paths();
    }
    const auto t0 = Clock::now();
    log.time("probe.characterize.w" + std::to_string(width), "", [&] {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Analysis& a = analyses[i];
        const auto& profile = a.executor->profile();
        const auto control =
            width == 1 ? characterize_per_edge(ch, jobs[i], *a.cfg, profile, nullptr, &edge_s)
                       : ch.characterize(jobs[i].program, *a.cfg, profile);
        if (!same_control(control, a.control))
          checks.problem("characterisation at width " + std::to_string(width) + " of " +
                         jobs[i].name + " differs from the analysis' control tables");
      }
    });
    char_s[width] = seconds_since(t0);
  }
  support::set_global_threads(w.threads);
  add("dta.edge_p50_s", median(edge_s), "s");
  add("dta.edge_tail_s", tail(edge_s, edge_s.size()), "s");
  add("support.parallel_eff_2t", char_s.count(2) ? char_s[1] / (2.0 * char_s[2]) : 1.0, "ratio");
  add("support.parallel_eff_4t",
      char_s[1] / (static_cast<double>(wide) * char_s[wide]), "ratio");
  std::printf("pool-scaling probe: characterize %.3f s at width 1", char_s[1]);
  for (const auto& [width, s] : char_s) {
    if (width > 1) std::printf(", %.3f s at width %zu", s, width);
  }
  std::printf("\n");

  // Kernel probes: every executed block's first sampled context becomes a
  // fetch stream (FetchSlot::from_context); time PipelineDriver::run per
  // simulated cycle and DtsAnalyzer::stage_dts per query.
  {
    dta::ControlCharacterizer ch(pipeline, fw->variation_model(), cfg.spec, cfg.dts,
                                 cfg.characterizer);
    ch.warm_paths();
    dta::PipelineDriver driver(pipeline);
    double sim_s = 0.0;
    double query_s = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t queries = 0;
    log.time("probe.kernels", "", [&] {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const isa::Program& program = jobs[i].program;
        const auto& profile = analyses[i].executor->profile();
        for (isa::BlockId b = 0; b < program.block_count(); ++b) {
          const isa::BlockSample* sample = first_sample(profile.blocks[b]);
          if (sample == nullptr) continue;
          // The stream characterize_edge builds for an entry: warm-up
          // bubbles, then the block; queries follow Algorithm 2 (each
          // instruction at every stage it traverses).
          const isa::BasicBlock& block = program.block(b);
          std::vector<dta::FetchSlot> slots;
          for (int k = 0; k < cfg.characterizer.warmup_nops; ++k)
            slots.push_back(dta::FetchSlot::nop(0x100u + 4u * static_cast<std::uint32_t>(k)));
          const std::size_t first = slots.size();
          for (std::size_t k = 0; k < block.size() && k < sample->instrs.size(); ++k)
            slots.push_back(dta::FetchSlot::from_context(block.instructions[k], sample->instrs[k]));
          auto t0 = Clock::now();
          auto activations = driver.run(slots);
          sim_s += seconds_since(t0);
          cycles += activations.size();
          t0 = Clock::now();
          for (std::size_t t = first; t < slots.size(); ++t) {
            for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
              if (t + s >= activations.size()) break;
              (void)ch.analyzer().stage_dts(s, activations[t + s],
                                            netlist::EndpointClass::kControl);
              ++queries;
            }
          }
          query_s += seconds_since(t0);
        }
      }
    });
    add("sim.cycle_ns", 1e9 * sim_s / static_cast<double>(std::max<std::uint64_t>(1, cycles)),
        "ns");
    add("dta.stage_query_ns",
        1e9 * query_s / static_cast<double>(std::max<std::uint64_t>(1, queries)), "ns");
    std::printf("kernel probes: %llu cycles, %llu stage queries\n",
                static_cast<unsigned long long>(cycles), static_cast<unsigned long long>(queries));
  }

  // Layer times of the traced passes.
  std::uint64_t instructions = 0;
  for (const auto& a : analyses) instructions += a.executor->profile().total_instructions;
  const double executor_s = median(pass_s["isa.executor"]);
  add("isa.executor_s", executor_s, "s");
  add("isa.minstr_per_s", static_cast<double>(instructions) / executor_s / 1e6, "Minstr/s");
  add("dta.characterize_s", median(pass_s["dta.characterize"]), "s");
  add("core.error_model_s", median(pass_s["core.error_model"]), "s");
  add("core.solve_s", median(pass_s["core.solve"]), "s");
  add("core.estimate_s", median(pass_s["core.estimate"]), "s");

  // Counts over the untraced pass.  A counter the program no longer
  // registers is reported missing, never as 0.  The event counters below
  // are registered on their first event, so for them absence means none.
  const Counters registered = read_counters();
  const std::set<std::string> event_counters = {"dta.dp_cache_collisions", "solver.refinements",
                                                "solver.fixed_point_fallbacks"};
  auto count = [&](const std::string& name, const char* unit = "count") -> std::optional<double> {
    const bool pool = name.rfind("pool.", 0) == 0;
    if (!pool && !registered.count(name) && !event_counters.count(name)) {
      std::printf("missing counter: %s\n", name.c_str());
      return std::nullopt;
    }
    const auto it = untraced.counters.find(name);
    const double v = it == untraced.counters.end() ? 0.0 : static_cast<double>(it->second);
    add(name, v, unit);
    return v;
  };
  for (const char* name :
       {"dta.edges_characterized", "dta.slots_driven", "dta.dp_cache_collisions", "sim.cycles",
        "sim.gate_toggles", "stat.clark_min_calls", "solver.linear_solves",
        "solver.sccs_processed", "solver.refinements", "solver.fixed_point_fallbacks",
        "cache.hits", "cache.misses", "pool.tasks"})
    (void)count(name);
  const auto queries = count("dta.stage_dts_queries");
  const auto fallbacks = count("dta.dp_fallbacks");
  if (queries && fallbacks)
    add("dta.dp_fallbacks_per_query", *queries > 0 ? *fallbacks / *queries : 0.0, "ratio");
  (void)count("cache.bytes_read", "bytes");
  (void)count("cache.bytes_written", "bytes");
  add("cache.load_s", cache_load_s, "s");
  add("cache.store_s", cache_store_s, "s");
  // warm-long's set-up fill is a first cached run: the cache writes its
  // timed passes never do.
  const auto written = setup.fill_counters.find("cache.bytes_written");
  add("cache.fill_bytes_written",
      written == setup.fill_counters.end() ? 0.0 : static_cast<double>(written->second), "bytes");
  add("cache.fill_store_s", setup.fill_store_s, "s");

  // Trace self-check: the timed layer calls should cover analyze()'s
  // wall time, and a traced pass should cost about what analyze() does.
  add("trace.coverage", median(pass_s["layers"]) / untraced.suite_s, "ratio");
  add("trace.overhead_frac", median(pass_s["traced"]) / untraced.suite_s - 1.0, "ratio");

  std::printf("%-28s %6s %12s %12s\n", "span", "calls", "total_s", "self_s");
  for (const auto& [name, e] : log.summary())
    std::printf("%-28s %6zu %12.6f %12.6f\n", name.c_str(), e.calls, e.total_s, e.self_s);
  if (!paths.trace_out.empty()) log.write_json(paths.trace_out, w.name, seed);
  return metrics;
}

}  // namespace perfbench
