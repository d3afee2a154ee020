#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <istream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/concurrency.hpp"
#include "par/thread_pool.hpp"
#include "rng/splitmix64.hpp"
#include "shard/tiling.hpp"

namespace mcmcpar::engine {

std::uint64_t deriveJobSeed(std::uint64_t batchSeed,
                            std::size_t jobIndex) noexcept {
  // Chained SplitMix64 absorption: the batch seed is mixed through one
  // bijection, the index through a second, so no (seed, index) pair can
  // collide with another index under the same seed.
  rng::SplitMix64 root(batchSeed);
  rng::SplitMix64 mixed(root.next() +
                        0x9E3779B97F4A7C15ULL *
                            (static_cast<std::uint64_t>(jobIndex) + 1));
  return mixed.next();
}

BatchRunner::BatchRunner(const StrategyRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &StrategyRegistry::builtin()) {}

BatchResult BatchRunner::run(const std::vector<BatchJob>& jobs,
                             const BatchOptions& options,
                             const BatchHooks& hooks) const {
  const std::size_t n = jobs.size();
  BatchResult result;
  result.reports.resize(n);
  result.errors.assign(n, "");

  // Either a private budget for this one call, or the caller's long-lived
  // one (a sharded job runs its tiles inside its server's budget).
  std::optional<par::PoolBudget> ownedBudget;
  par::PoolBudget* budgetPtr = options.sharedBudget;
  if (budgetPtr == nullptr) {
    ownedBudget.emplace(options.resources.threads);
    budgetPtr = &*ownedBudget;
  }
  par::PoolBudget& budget = *budgetPtr;

  // One runner per budgeted thread, never more runners than jobs.
  unsigned concurrency = static_cast<unsigned>(
      std::min<std::size_t>(budget.total(), std::max<std::size_t>(n, 1)));

  // The shared budget: job-runner threads are charged up front, strategies
  // lease their internal workers from the remainder. A shared budget may be
  // partially drained by concurrent holders — run with what it grants (at
  // least the calling thread) and return it on every exit path.
  const unsigned charged = budget.tryAcquire(concurrency);
  if (options.sharedBudget != nullptr) {
    concurrency = std::max(charged, 1u);
  }
  struct BudgetReturn {
    par::PoolBudget& budget;
    unsigned charged;
    ~BudgetReturn() { budget.release(charged); }
  } budgetReturn{budget, charged};

  // Validate and instantiate every strategy before any work starts: an
  // unknown name or bad option fails the batch as one EngineError instead
  // of surfacing halfway through a long run.
  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ExecResources resources = options.resources;
    resources.poolBudget = &budget;
    resources.seed = jobs[i].seed.value_or(
        deriveJobSeed(options.resources.seed, i));
    try {
      strategies.push_back(
          registry_->create(jobs[i].strategy, resources, jobs[i].options));
    } catch (const EngineError& e) {
      const std::string label =
          jobs[i].label.empty() ? "" : " (" + jobs[i].label + ")";
      throw EngineError("batch job #" + std::to_string(i) + label + ": " +
                        e.what());
    }
  }

  std::atomic<bool> batchCancelled{false};
  const auto shouldStop = [&]() -> bool {
    if (batchCancelled.load(std::memory_order_relaxed)) return true;
    const bool stop = hooks.cancelRequested && hooks.cancelRequested();
    if (stop) batchCancelled.store(true, std::memory_order_relaxed);
    return stop;
  };

  std::mutex doneMutex;
  const auto runJob = [&](std::size_t i) {
    RunReport& report = result.reports[i];
    if (shouldStop()) {
      // Never started: an empty cancelled report keeps the output vector
      // index-aligned without inventing chain results.
      report.strategy = jobs[i].strategy;
      report.cancelled = true;
      report.threadsUsed = 0;
    } else {
      RunHooks jobHooks;
      jobHooks.cancelRequested = shouldStop;
      try {
        obs::Span jobSpan("engine", "job:" + jobs[i].strategy);
        jobSpan.arg("label", jobs[i].label.empty() ? std::to_string(i)
                                                   : jobs[i].label);
        strategies[i]->prepare(jobs[i].problem);
        report = strategies[i]->run(jobs[i].budget, jobHooks);
        obs::Registry::global()
            .counter("mcmcpar_engine_runs_total", "Strategy runs completed.",
                     {{"strategy", jobs[i].strategy}})
            .add();
      } catch (const std::exception& e) {
        // EngineError and anything else: one bad job must not sink the batch.
        report = RunReport{};
        report.strategy = jobs[i].strategy;
        report.threadsUsed = 0;
        result.errors[i] = e.what();
      }
    }
    if (hooks.onJobDone) {
      const std::scoped_lock lock(doneMutex);
      hooks.onJobDone(i, report);
    }
  };

  if (concurrency <= 1) {
    for (std::size_t i = 0; i < n; ++i) runJob(i);
  } else {
    // concurrency-1 workers plus the calling thread: parallelFor's caller
    // helps drain the queue, so exactly `concurrency` jobs run at once.
    par::ThreadPool pool(concurrency - 1);
    pool.parallelFor(n, runJob);
  }
  return result;
}

RunReport BatchRunner::runOne(const BatchJob& job,
                              const ExecResources& resources,
                              const RunHooks& hooks) const {
  ExecResources jobResources = resources;
  if (job.seed) jobResources.seed = *job.seed;
  const std::unique_ptr<Strategy> strategy =
      registry_->create(job.strategy, jobResources, job.options);
  obs::Span jobSpan("engine", "job:" + job.strategy);
  jobSpan.arg("label", job.label);
  {
    obs::Span prepareSpan("engine", "prepare:" + job.strategy);
    strategy->prepare(job.problem);
  }
  RunReport report = strategy->run(job.budget, hooks);
  obs::Registry::global()
      .counter("mcmcpar_engine_runs_total", "Strategy runs completed.",
               {{"strategy", job.strategy}})
      .add();
  return report;
}

namespace {

/// Parse the value of a job directive token `@key=value`; errors name the
/// directive exactly as written ("option '@iters': expected ...").
std::uint64_t directiveU64(const std::string& key, const std::string& value) {
  const OptionMap parsed = OptionMap::parse({key + "=" + value});
  return parsed.u64(key, 0);
}

double directiveDbl(const std::string& key, const std::string& value) {
  const OptionMap parsed = OptionMap::parse({key + "=" + value});
  return parsed.dbl(key, 0.0);
}

}  // namespace

ManifestEntry parseManifestLine(const std::string& line) {
  std::istringstream tokens(line);
  ManifestEntry entry;
  if (!(tokens >> entry.image) || !(tokens >> entry.strategy)) {
    throw EngineError(
        "expected '<image.pgm|synth> <strategy> [@directive=value ...] "
        "[key=value ...]', got '" +
        line + "'");
  }
  std::string shardTiles;
  std::optional<std::uint64_t> shardHalo;
  std::string token;
  while (tokens >> token) {
    if (token.front() != '@') {
      entry.options.push_back(token);
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq < 2) {
      throw EngineError("malformed job directive '" + token +
                        "': expected @directive=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "@iters") {
      const std::uint64_t iters = directiveU64(key, value);
      // Reject the degenerate and the absurd at parse time: @iters=0 would
      // "succeed" with an empty model, and values beyond kMaxJobIterations
      // overflow downstream budget arithmetic (frames x budget, tile
      // splits) long after admission.
      if (iters == 0 || iters > kMaxJobIterations) {
        throw EngineError("directive '@iters': expected a value in [1, " +
                          std::to_string(kMaxJobIterations) + "], got '" +
                          value + "'");
      }
      entry.iterations = iters;
    } else if (key == "@seed") {
      entry.seed = directiveU64(key, value);
    } else if (key == "@trace") {
      entry.trace = directiveU64(key, value);
    } else if (key == "@label") {
      entry.label = value;
    } else if (key == "@radius" || key == "@radius-std" ||
               key == "@radius-min" || key == "@radius-max" ||
               key == "@count") {
      const double parsed = directiveDbl(key, value);
      if (parsed <= 0.0) {
        throw EngineError("directive '" + key +
                          "': expected a value > 0, got '" + value + "'");
      }
      if (key == "@radius") {
        entry.radius = parsed;
      } else if (key == "@radius-std") {
        entry.radiusStd = parsed;
      } else if (key == "@radius-min") {
        entry.radiusMin = parsed;
      } else if (key == "@radius-max") {
        entry.radiusMax = parsed;
      } else {
        entry.expectedCount = parsed;
      }
    } else if (key == "@image") {
      if (value != "inline") {
        throw EngineError("directive '@image': the only supported value is "
                          "'inline', got '" +
                          value + "'");
      }
      entry.inlineImage = true;
    } else if (key == "@oneshot") {
      entry.oneshot = directiveU64(key, value) != 0;
    } else if (key == "@shard") {
      // "auto" flows through to the sharded strategy's adaptive grid; a
      // fixed KxL is validated right here like the tiles= option would.
      if (value != "auto") {
        int gx = 0;
        int gy = 0;
        try {
          shard::parseTileCount(value, gx, gy);
        } catch (const std::invalid_argument& e) {
          throw EngineError(std::string("directive '@shard': ") + e.what());
        }
      }
      shardTiles = value;
    } else if (key == "@halo") {
      shardHalo = directiveU64(key, value);
    } else if (key == "@sequence") {
      if (value.empty()) {
        throw EngineError(
            "directive '@sequence': expected a frame count or glob pattern");
      }
      entry.sequence = value;
    } else if (key == "@warm-start") {
      entry.warmStart = directiveU64(key, value) != 0;
    } else if (key == "@track") {
      entry.track = directiveU64(key, value) != 0;
    } else if (key == "@client") {
      std::string name = value;
      const std::size_t star = name.find('*');
      if (star != std::string::npos) {
        const std::string weightText = name.substr(star + 1);
        name = name.substr(0, star);
        const std::uint64_t weight = directiveU64(key, weightText);
        if (weight == 0 || weight > 1000) {
          throw EngineError(
              "directive '@client': weight must be in [1, 1000], got '" +
              weightText + "'");
        }
        entry.clientWeight = static_cast<unsigned>(weight);
      }
      if (name.empty() || name.size() > 64 ||
          name.find_first_not_of(
              "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
              "abcdefghijklmnopqrstuvwxyz0123456789._-") !=
              std::string::npos) {
        throw EngineError(
            "directive '@client': expected NAME[*W] with NAME of 1-64 "
            "chars from [A-Za-z0-9._-], got '" +
            value + "'");
      }
      entry.client = name;
    } else {
      throw EngineError("unknown job directive '" + key +
                        "' (expected @iters, @seed, @trace, @label, "
                        "@radius, @radius-std, @radius-min, @radius-max, "
                        "@count, @image, @oneshot, @shard, @halo, "
                        "@sequence, @warm-start, @track or @client)");
    }
  }
  // Validate option tokens through the same parser --opt uses, so a stray
  // trailing token fails right here with the identical descriptive message
  // instead of being deferred (strategy-unknown keys still surface at
  // creation via OptionMap::requireConsumed).
  (void)OptionMap::parse(entry.options);

  if (shardHalo && shardTiles.empty()) {
    throw EngineError("directive '@halo' requires '@shard=KxL'");
  }
  if (entry.sequence.empty() && (entry.warmStart || entry.track)) {
    throw EngineError(
        "directives '@warm-start' and '@track' require '@sequence'");
  }
  if (!entry.sequence.empty() && !shardTiles.empty()) {
    throw EngineError(
        "directive '@sequence' cannot be combined with '@shard'");
  }
  if (!shardTiles.empty()) {
    // Desugar into the shard coordinator: the named strategy becomes the
    // inner per-tile one and bare options are forwarded to it, so one
    // directive turns any job line into a sharded run (docs/PROTOCOL.md).
    if (entry.strategy == "sharded") {
      throw EngineError(
          "directive '@shard' cannot be combined with the 'sharded' "
          "strategy; pass tiles=KxL as a strategy option instead");
    }
    std::vector<std::string> options;
    options.reserve(entry.options.size() + 3);
    options.push_back("tiles=" + shardTiles);
    if (shardHalo) options.push_back("halo=" + std::to_string(*shardHalo));
    options.push_back("strategy=" + entry.strategy);
    for (const std::string& option : entry.options) {
      options.push_back("inner." + option);
    }
    entry.strategy = "sharded";
    entry.options = std::move(options);
  }
  return entry;
}

std::vector<ManifestEntry> parseBatchManifest(std::istream& in) {
  std::vector<ManifestEntry> entries;
  std::string line;
  std::size_t lineNumber = 0;
  while (std::getline(in, line)) {
    ++lineNumber;
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first) || first.front() == '#') continue;
    try {
      entries.push_back(parseManifestLine(line));
    } catch (const EngineError& e) {
      throw EngineError("manifest line " + std::to_string(lineNumber) + ": " +
                        e.what());
    }
  }
  return entries;
}

}  // namespace mcmcpar::engine
