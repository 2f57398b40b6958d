#include "core/framework.hpp"

#include <chrono>
#include <optional>
#include <utility>

#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/degrade.hpp"
#include "robust/hooks.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace terrors::core {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// One cache path for every artifact: load→decode on a hit, and
// compute→encode→store on a miss or a rejected payload; with no cache it
// only computes.  Degradation policy (DESIGN §5f): the cache is an
// accelerator, never a dependency.  A throwing load is a miss
// (recompute), a throwing store loses only warm-start time; both are
// recorded, neither fails analyze().
template <typename Decode, typename Encode, typename Compute>
auto memoized(const cache::ArtifactCache* c, std::string_view kind, std::uint64_t key,
              Decode decode, Encode encode, Compute compute) -> decltype(compute()) {
  if (c == nullptr) return compute();
  std::optional<std::vector<std::uint8_t>> bytes;
  try {
    bytes = c->load(kind, key);
  } catch (const std::exception&) {
    robust::note_degraded("cache");
  }
  if (bytes) {
    cache::ByteReader r(*bytes);
    if (auto value = decode(r)) return std::move(*value);
  }
  auto value = compute();
  cache::ByteWriter w;
  encode(value, w);
  try {
    c->store(kind, key, w.bytes());
  } catch (const std::exception&) {
    robust::note_degraded("cache");
  }
  return value;
}
}  // namespace

ErrorRateFramework::ErrorRateFramework(const netlist::Pipeline& pipeline, FrameworkConfig config)
    : pipeline_(pipeline), config_(config), vm_(pipeline.netlist, config.variation) {
  obs::ScopedSpan span("framework.init");

  // Component hashes feed both cache keys and run ids, so they are
  // computed whether or not the cache is enabled.
  netlist_hash_ = cache::hash_netlist(pipeline_.netlist);
  variation_hash_ = cache::hash_variation(config_.variation);
  dts_hash_ = cache::hash_dts_config(config_.dts);
  charcfg_hash_ = cache::hash_characterizer_config(config_.characterizer);

  if (const std::string dir = cache::resolve_cache_dir(config_.cache_dir); !dir.empty()) {
    cache_ = std::make_unique<cache::ArtifactCache>(dir);
  }

  // The datapath artifact's load or store may degrade before any run
  // exists; what it notes is handed to the next analyze() (see analyze).
  const obs::MetricsScope init_metrics(obs::MetricsRegistry::instance());

  // Datapath-model training is spec-independent (arrival-form parameters),
  // so its key omits the timing spec.
  datapath_ = std::make_unique<dta::DatapathModel>(memoized(
      cache_.get(), "datapath",
      cache::combine({cache::kModelVersion, netlist_hash_, variation_hash_, dts_hash_}),
      [](cache::ByteReader& r) -> std::optional<dta::DatapathModel> {
        if (auto params = cache::decode_datapath(r)) {
          return dta::DatapathModel::from_params(*params);
        }
        return std::nullopt;
      },
      [](const dta::DatapathModel& model, cache::ByteWriter& w) {
        cache::encode_datapath(model.params(), w);
      },
      [&] { return dta::DatapathModel::train(pipeline_, vm_, config_.dts); }));

  for (const auto& [name, delta] : init_metrics.deltas()) {
    if (name.rfind("robust.", 0) == 0) init_robust_counters_.emplace(name, delta);
  }

  characterizer_ = std::make_unique<dta::ControlCharacterizer>(
      pipeline_, vm_, config_.spec, config_.dts, config_.characterizer);
}

std::uint64_t ErrorRateFramework::config_key() const {
  return cache::combine({cache::kModelVersion, netlist_hash_, variation_hash_, dts_hash_,
                         charcfg_hash_, cache::hash_spec(config_.spec)});
}

void ErrorRateFramework::set_spec(timing::TimingSpec spec) {
  config_.spec = spec;
  // The characterizer's analyzer caches paths, which are spec-independent;
  // only the slack conversion uses the spec.
  characterizer_->analyzer().set_spec(spec);
}

BenchmarkResult ErrorRateFramework::analyze(const isa::Program& program,
                                            const std::vector<isa::ProgramInput>& inputs) {
  TE_REQUIRE(!inputs.empty(), "analyze() needs at least one input dataset");
  static obs::Counter& analyze_calls =
      obs::MetricsRegistry::instance().counter("core.analyze_calls");
  static obs::Counter& instr_metric =
      obs::MetricsRegistry::instance().counter("core.instructions_simulated");
  analyze_calls.increment();

  // The pool's fault / retry hooks are wired before any parallel region
  // can run.
  robust::install_pool_hooks();

  obs::ScopedSpan span("analyze");
  span.counter("inputs", static_cast<double>(inputs.size()));

  // Run identity (DESIGN §5g): the same inputs at the same ordinal give
  // the same id, so a run correlates across its report and run event
  // without any nondeterministic token.
  const std::uint64_t run_key = cache::combine(
      {cache::kModelVersion, netlist_hash_, variation_hash_, dts_hash_, charcfg_hash_,
       cache::hash_spec(config_.spec), cache::hash_program(program), analyze_ordinal_++});
  const obs::MetricsScope run_metrics(obs::MetricsRegistry::instance());

  BenchmarkResult result;
  result.name = program.name();
  result.run_id = cache::format_key(run_key);
  result.basic_blocks = program.block_count();

  const support::ThreadPool::Stats pool_before = support::global_pool().stats();

  last_ = Artifacts{};
  last_.cfg = std::make_unique<isa::Cfg>(program);
  last_.executor = std::make_unique<isa::Executor>(program, *last_.cfg, config_.executor);

  // --- simulation phase (the paper's instrumented native execution) -----
  {
    obs::ScopedSpan phase("simulation");
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& in : inputs) last_.executor->run(in);
    result.simulation_seconds = seconds_since(t0);
    phase.counter("instructions",
                  static_cast<double>(last_.executor->profile().total_instructions));
  }
  result.instructions = last_.executor->profile().total_instructions;
  instr_metric.increment(result.instructions);

  // --- training phase (gate-level control-network characterisation) -----
  {
    obs::ScopedSpan phase("training");
    const auto t0 = std::chrono::steady_clock::now();

    // A control-table hit skips gate-level characterisation entirely; the
    // key covers everything the tables depend on (see cache/key.hpp), and
    // the decoder additionally rejects artifacts whose recorded spec is
    // not bit-identical to the current one.
    const std::uint64_t control_key =
        cache_ ? cache::combine({cache::kModelVersion, netlist_hash_, variation_hash_,
                                 dts_hash_, charcfg_hash_, cache::hash_spec(config_.spec),
                                 cache::hash_program(program),
                                 cache::hash_profile(last_.executor->profile())})
               : 0;
    last_.control = memoized(
        cache_.get(), "control", control_key,
        [&](cache::ByteReader& r) { return cache::decode_control(r, config_.spec); },
        [&](const std::vector<dta::BlockControlDts>& control, cache::ByteWriter& w) {
          cache::encode_control(control, config_.spec, w);
        },
        [&] {
          if (cache_ && !paths_cache_checked_) {
            // Seed the shared enumerator from the path artifact if present;
            // warm_paths() then warms only what's missing.  The path set is
            // spec- and variation-independent (nominal STA ordering only).
            paths_cache_checked_ = true;
            timing::PathEnumerator& paths = characterizer_->analyzer().paths();
            memoized(
                cache_.get(), "paths",
                cache::combine({cache::kModelVersion, netlist_hash_,
                                cache::hash_path_config(paths.config()),
                                static_cast<std::uint64_t>(config_.dts.top_k)}),
                [&](cache::ByteReader& r) {
                  // An artifact the enumerator rejects is recomputed.
                  auto warmed = cache::decode_paths(r);
                  if (warmed) {
                    try {
                      paths.import_warmed(*warmed);
                    } catch (const std::exception&) {
                      warmed.reset();
                    }
                  }
                  return warmed;
                },
                [](const std::vector<timing::PathEnumerator::WarmedEndpoint>& warmed,
                   cache::ByteWriter& w) { cache::encode_paths(warmed, w); },
                [&] {
                  characterizer_->warm_paths();
                  return paths.export_warmed();
                });
            characterizer_->warm_paths();
          }
          return characterizer_->characterize(program, *last_.cfg,
                                              last_.executor->profile());
        });
    result.training_seconds = seconds_since(t0);
  }

  // --- estimation ---------------------------------------------------------
  {
    obs::ScopedSpan phase("estimation");
    const auto t0 = std::chrono::steady_clock::now();
    {
      obs::ScopedSpan build_span("error_model.build");
      const InstructionErrorModel model(*datapath_, config_.spec, config_.error_model);
      last_.conditionals =
          model.build(program, *last_.cfg, last_.executor->profile(), last_.control);
    }
    const MarginalSolver solver(program, *last_.cfg, last_.executor->profile());
    last_.marginals = solver.solve(last_.conditionals, &last_.sccs);

    obs::ScopedSpan estimate_span("estimate");
    EstimatorInputs est_in;
    est_in.program = &program;
    est_in.profile = &last_.executor->profile();
    est_in.conditionals = &last_.conditionals;
    est_in.marginals = &last_.marginals;
    est_in.execution_scale = config_.execution_scale;
    est_in.chen_stein_radius = config_.chen_stein_radius;
    result.estimate = estimate_error_rate(est_in);
    result.estimation_seconds = seconds_since(t0);
  }

  // The run's record: its counter deltas (plus, on the first run, what
  // construction noted) and pool cost; degradation sites derive from it.
  last_.counters = run_metrics.deltas();
  for (const auto& [name, delta] : std::exchange(init_robust_counters_, {})) {
    last_.counters[name] += delta;
  }
  last_.pool_tasks = support::global_pool().stats().tasks - pool_before.tasks;
  result.cache_hits = run_metrics.delta("cache.hits");
  result.cache_misses = run_metrics.delta("cache.misses");
  result.degraded_sites = robust::degraded_sites(last_.counters);
  result.degraded = !result.degraded_sites.empty();
  return result;
}

}  // namespace terrors::core
