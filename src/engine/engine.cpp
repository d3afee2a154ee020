#include "engine/engine.hpp"

#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"

namespace mcmcpar::engine {

Engine::Engine(ExecResources resources, const StrategyRegistry* registry)
    : resources_(resources),
      registry_(registry != nullptr ? registry : &StrategyRegistry::builtin()) {
}

std::unique_ptr<Strategy> Engine::make(
    const std::string& strategy,
    const std::vector<std::string>& options) const {
  return registry_->create(strategy, resources_, options);
}

RunReport Engine::run(const std::string& strategy, const Problem& problem,
                      const RunBudget& budget, const RunHooks& hooks,
                      const std::vector<std::string>& options,
                      const std::string& label) const {
  const std::unique_ptr<Strategy> instance = make(strategy, options);
  obs::Span jobSpan("engine", "job:" + strategy);
  if (!label.empty()) jobSpan.arg("label", label);
  {
    obs::Span prepareSpan("engine", "prepare:" + strategy);
    instance->prepare(problem);
  }
  RunReport report = instance->run(budget, hooks);
  obs::Registry::global()
      .counter("mcmcpar_engine_runs_total", "Strategy runs completed.",
               {{"strategy", strategy}})
      .add();
  return report;
}

std::uint64_t deriveJobSeed(std::uint64_t masterSeed,
                            std::size_t jobIndex) noexcept {
  // Chained SplitMix64 absorption: the master seed is mixed through one
  // bijection, the index through a second, so no (seed, index) pair can
  // collide with another index under the same seed.
  rng::SplitMix64 root(masterSeed);
  rng::SplitMix64 mixed(root.next() +
                        0x9E3779B97F4A7C15ULL *
                            (static_cast<std::uint64_t>(jobIndex) + 1));
  return mixed.next();
}

}  // namespace mcmcpar::engine
