#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/periodic_sampler.hpp"
#include "core/pipeline.hpp"
#include "img/image.hpp"
#include "mcmc/diagnostics.hpp"
#include "mcmc/mc3.hpp"
#include "mcmc/move_registry.hpp"
#include "mcmc/run_hooks.hpp"
#include "model/circle.hpp"
#include "model/likelihood.hpp"
#include "model/prior.hpp"
#include "shard/report.hpp"
#include "spec/speculative.hpp"
#include "stream/report.hpp"

namespace mcmcpar::par {
class PoolBudget;
}  // namespace mcmcpar::par

namespace mcmcpar::engine {

/// Observer callbacks are shared with the low-level drivers; the engine
/// façade re-exports them so callers only include this header.
using mcmc::RunHooks;
using mcmc::RunProgress;

/// The task every strategy solves: find circular artifacts in a filtered
/// intensity image under a circle prior and pixel likelihood. The image is
/// borrowed and must outlive the Strategy.
struct Problem {
  const img::ImageF* filtered = nullptr;
  model::PriorParams prior;
  model::LikelihoodParams likelihood;
  mcmc::MoveSetParams moves;

  /// Estimate the expected artifact count from the image with eq. 5 before
  /// sampling (overrides prior.expectedCount).
  bool estimateCount = true;
  float theta = 0.5f;  ///< eq. 5 threshold

  /// Warm start: circles carried from a closely-related earlier run (e.g.
  /// the previous frame of a sequence). When non-empty, strategies that
  /// build their state through the common seeding path (serial,
  /// speculative, periodic) commit these circles against the *current*
  /// image — re-scoring them under the new likelihood — and then add only
  /// a quarter of the usual random initial circles so new objects can
  /// still appear. Strategies with bespoke multi-state initialisation (mc3,
  /// partition pipelines, sharded) ignore it.
  std::vector<model::Circle> warmStart;
};

/// Execution resources shared by every strategy — the one place the
/// `threads`/`seed` knobs live, replacing the per-strategy copies.
struct ExecResources {
  unsigned threads = 0;  ///< worker threads (0 = hardware, via par::resolveThreadCount)
  /// Read by nothing. It stays only because the tests and perfbench/src
  /// initialise ExecResources positionally as {threads, false, seed};
  /// delete it together with those initialisers.
  bool useOpenMp = false;
  std::uint64_t seed = 1;

  /// When set (borrowed, e.g. by serve::Server or a sharded job's tiles),
  /// strategies resolve `threads` through a par::PoolLease against this
  /// shared budget instead of the whole machine, so concurrent jobs cannot
  /// oversubscribe the box.
  par::PoolBudget* poolBudget = nullptr;
};

/// How much work to do, strategy-independent. Partition pipelines derive
/// their own per-partition budgets (eq. 5 rule); for them `iterations` acts
/// as a per-partition ceiling instead (0 = no ceiling).
struct RunBudget {
  std::uint64_t iterations = 50000;
  std::uint64_t traceInterval = 0;  ///< posterior trace cadence (0 = auto)
};

/// Strategy-specific diagnostics carried alongside the common fields.
using ReportExtras =
    std::variant<std::monostate, spec::SpeculativeStats, mcmc::Mc3Stats,
                 core::PeriodicReport, core::PipelineReport,
                 shard::ShardReport, stream::StreamReport>;

/// The uniform outcome of any strategy run: common diagnostics every
/// front-end can print side by side, plus a typed extras variant for the
/// strategy-specific numbers (speculation waste, swap rates, phase and
/// partition breakdowns).
struct RunReport {
  std::string strategy;            ///< registry name that produced this run
  std::uint64_t iterations = 0;    ///< logical chain iterations performed
  double wallSeconds = 0.0;
  double acceptanceRate = 0.0;     ///< aggregate over all proposals
  std::vector<model::Circle> circles;  ///< final configuration
  double logPosterior = 0.0;       ///< of the final whole-image model
  std::optional<std::uint64_t> iterationsToConverge;  ///< plateau detector
  bool cancelled = false;          ///< stopped early via RunHooks
  unsigned threadsUsed = 1;
  mcmc::Diagnostics diagnostics;
  ReportExtras extras;
};

/// A parallelisation architecture behind a uniform two-step protocol:
/// `prepare(problem)` binds the image and builds the chain state(s), then
/// `run(budget, hooks)` executes and reports. Strategies are single-use:
/// one prepare, then one run.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// The registry key this strategy was created under.
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Bind the problem: estimate counts, build model state(s). Throws
  /// EngineError on an unusable problem (e.g. null image).
  virtual void prepare(const Problem& problem) = 0;

  /// Execute. Throws EngineError when called before prepare().
  [[nodiscard]] virtual RunReport run(const RunBudget& budget,
                                      const RunHooks& hooks = {}) = 0;
};

class StrategyRegistry;

/// The façade: one object that can execute any registered strategy by name
/// on shared resources. Engine::run is the one strategy runner: a served
/// job (serve::Server), a shard tile on the local backend and a sequence
/// frame (stream::SequenceRunner) all go through it, so each run gets the
/// same trace spans and counts in `mcmcpar_engine_runs_total`.
/// examples/quickstart.cpp shows the shortest path.
class Engine {
 public:
  /// `registry` defaults to the built-in six-strategy registry and is
  /// borrowed (must outlive the Engine).
  explicit Engine(ExecResources resources = {},
                  const StrategyRegistry* registry = nullptr);

  /// Create a strategy by name (see StrategyRegistry::create).
  [[nodiscard]] std::unique_ptr<Strategy> make(
      const std::string& strategy,
      const std::vector<std::string>& options = {}) const;

  /// Create, prepare and run one strategy inside an `engine` trace span
  /// `job:<strategy>` (with a `label` argument when `label` is not empty)
  /// that encloses a `prepare:<strategy>` span; a run that returns adds one
  /// to `mcmcpar_engine_runs_total{strategy}`. Throws what creation,
  /// prepare or the run throws.
  [[nodiscard]] RunReport run(const std::string& strategy,
                              const Problem& problem, const RunBudget& budget,
                              const RunHooks& hooks = {},
                              const std::vector<std::string>& options = {},
                              const std::string& label = {}) const;

  [[nodiscard]] const StrategyRegistry& registry() const noexcept {
    return *registry_;
  }
  [[nodiscard]] const ExecResources& resources() const noexcept {
    return resources_;
  }

 private:
  ExecResources resources_;
  const StrategyRegistry* registry_;
};

/// The per-job seed rule for jobs without an explicit seed: a
/// SplitMix64-style mix of a master seed and the job's index (a served job
/// id, a shard tile, a sequence frame), collision-free across indices.
[[nodiscard]] std::uint64_t deriveJobSeed(std::uint64_t masterSeed,
                                          std::size_t jobIndex) noexcept;

}  // namespace mcmcpar::engine
