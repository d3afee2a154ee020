#include "core/periodic_sampler.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "core/split_merge.hpp"
#include "mcmc/sampler.hpp"
#include "par/concurrency.hpp"
#include "par/task_scheduler.hpp"
#include "par/virtual_clock.hpp"
#include "partition/grid.hpp"
#include "partition/legality.hpp"
#include "spec/speculative.hpp"

namespace mcmcpar::core {

namespace {

/// Worker-side outcome of one partition's slice of a local phase.
struct SessionResult {
  double logPostDelta = 0.0;
  double coveredGainDelta = 0.0;
  mcmc::Diagnostics diagnostics;
  std::uint64_t iterations = 0;
  double seconds = 0.0;
};

/// Run `iterations` local moves against the shared state restricted to one
/// partition, accumulating the scalar state-cache deltas locally so that
/// concurrent sessions never write shared scalars (the geometry they touch
/// is kept disjoint by partition::inPlaceSafetyMargin).
SessionResult runLocalSessionShared(model::ModelState& state,
                                    const mcmc::MoveRegistry& registry,
                                    const mcmc::RegionConstraint& rc,
                                    const std::vector<model::CircleId>& cand,
                                    std::uint64_t iterations,
                                    rng::Stream stream) {
  SessionResult result;
  const par::WallTimer timer;
  const mcmc::SelectionContext ctx{&cand, &rc};
  model::PixelLikelihood& lik = state.likelihoodMutable();
  model::Configuration& cfg = state.configMutable();

  for (std::uint64_t i = 0; i < iterations; ++i) {
    const mcmc::Move& move = registry.sampleLocal(stream);
    mcmc::PendingMove pending = move.propose(state, ctx, stream);
    assert((!pending.valid() || pending.op == mcmc::PendingMove::Op::Replace) &&
           "local moves must be dimension-preserving replaces");
    const bool accepted = mcmc::decideMove(state, pending, stream);
    if (accepted) {
      double delta = lik.applyRemove(cfg.get(pending.id0));
      delta += lik.applyAdd(pending.c0);
      result.coveredGainDelta += delta;
      result.logPostDelta += pending.logPosteriorDelta;
      cfg.replace(pending.id0, pending.c0);
    }
    result.diagnostics.record(move.name(), accepted);
  }
  result.iterations = iterations;
  result.seconds = timer.seconds();
  return result;
}

/// Run one partition's slice against a detached sub-state.
SessionResult runLocalSessionSub(SubState& sub,
                                 const mcmc::MoveRegistry& registry,
                                 std::uint64_t iterations,
                                 rng::Stream stream) {
  SessionResult result;
  const par::WallTimer timer;
  const mcmc::SelectionContext ctx{&sub.candidates, &sub.constraint};
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const mcmc::Move& move = registry.sampleLocal(stream);
    const mcmc::PendingMove pending = move.propose(*sub.state, ctx, stream);
    const bool accepted = mcmc::acceptAndCommit(*sub.state, pending, stream);
    result.diagnostics.record(move.name(), accepted);
  }
  result.iterations = iterations;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace

rng::Stream partitionStream(const rng::Stream& master, std::uint64_t phase,
                            std::uint64_t partition) noexcept {
  return master.derive(phase).derive(partition + 1);
}

struct PeriodicSampler::Impl {
  model::ModelState& state;
  const mcmc::MoveRegistry& registry;
  PeriodicParams params;
  rng::Stream master;
  par::PoolLease inlineLease;  ///< the one-thread lease a null lease means
  par::PoolLease* lease;
  std::unique_ptr<spec::SpeculativeExecutor> specExec;
  std::uint64_t phaseCounter = 0;

  Impl(model::ModelState& s, const mcmc::MoveRegistry& r,
       const PeriodicParams& p, std::uint64_t seed, par::PoolLease* l)
      : state(s),
        registry(r),
        params(p),
        master(seed),
        lease(l != nullptr ? l : &inlineLease) {
    if (params.specLanesGlobal > 1) {
      specExec = std::make_unique<spec::SpeculativeExecutor>(
          state, registry, params.specLanesGlobal,
          master.derive(0xC0FFEE).bits(), lease);
    }
  }

  [[nodiscard]] double effectiveMargin() const {
    if (params.margin >= 0.0) return params.margin;
    switch (params.executor) {
      case LocalExecutor::InPlacePool:
        return partition::inPlaceSafetyMargin(state);
      default:
        return 0.0;
    }
  }

  [[nodiscard]] std::vector<model::Bounds> makePartitions(rng::Stream& stream) const {
    const model::Bounds domain = state.bounds();
    if (params.layout == PartitionLayout::RandomCross) {
      if (!params.randomiseLayout) {
        return partition::crossPartitions(domain,
                                          (domain.x0 + domain.x1) / 2.0,
                                          (domain.y0 + domain.y1) / 2.0);
      }
      return partition::randomCrossPartitions(domain, stream);
    }
    partition::GridSpec spec;
    spec.spacingX = params.gridSpacingX > 0.0 ? params.gridSpacingX
                                              : domain.width() / 2.0;
    spec.spacingY = params.gridSpacingY > 0.0 ? params.gridSpacingY
                                              : domain.height() / 2.0;
    if (!params.randomiseLayout) {
      return partition::gridPartitions(domain, spec);
    }
    return partition::gridPartitions(domain, spec.withRandomOffset(stream));
  }

  /// One global phase of `zg` Mg iterations. Returns real seconds; adds
  /// virtual seconds to vclock.
  void runGlobalPhase(std::uint64_t zg, rng::Stream& stream,
                      PeriodicReport& report, par::VirtualClock& vclock) {
    const par::WallTimer timer;
    if (specExec) {
      const std::uint64_t roundsBefore = specExec->stats().rounds;
      const std::uint64_t propsBefore = specExec->stats().proposalsEvaluated;
      const std::uint64_t itersBefore = specExec->stats().logicalIterations;
      specExec->run(zg, spec::MovePhase::GlobalOnly);
      const double seconds = timer.seconds();
      const double rounds =
          static_cast<double>(specExec->stats().rounds - roundsBefore);
      const double props = static_cast<double>(
          specExec->stats().proposalsEvaluated - propsBefore);
      // An n-lane SMP pays one proposal per round; serial evaluation paid
      // `props` of them in `seconds`.
      vclock.advance(props > 0.0 ? seconds * rounds / props : seconds);
      report.globalIterations += specExec->stats().logicalIterations - itersBefore;
      report.globalSeconds += seconds;
      return;
    }
    const mcmc::SelectionContext ctx{};
    for (std::uint64_t i = 0; i < zg; ++i) {
      const mcmc::Move& move = registry.sampleGlobal(stream);
      const mcmc::StepResult r = mcmc::attemptMove(state, move, ctx, stream);
      report.diagnostics.record(move.name(), r.accepted);
    }
    const double seconds = timer.seconds();
    report.globalIterations += zg;
    report.globalSeconds += seconds;
    vclock.advance(seconds);
  }

  /// One local phase of `zl` Ml iterations spread over fresh partitions.
  void runLocalPhase(std::uint64_t zl, rng::Stream& phaseStream,
                     PeriodicReport& report, par::VirtualClock& vclock) {
    const par::WallTimer phaseTimer;
    const double margin = effectiveMargin();
    const auto partitions = makePartitions(phaseStream);

    // Build constraints + modifiable candidate lists; allocate iterations
    // proportionally to modifiable features (§V).
    std::vector<mcmc::RegionConstraint> constraints;
    std::vector<std::vector<model::CircleId>> candidates;
    std::vector<std::size_t> counts;
    constraints.reserve(partitions.size());
    for (const model::Bounds& b : partitions) {
      constraints.push_back(mcmc::RegionConstraint{b, margin});
      candidates.push_back(
          partition::modifiableCircles(state, constraints.back()));
      counts.push_back(candidates.back().size());
      report.modifiableTotal += candidates.back().size();
    }
    std::vector<std::size_t> shareBasis = counts;
    if (params.allocation == PeriodicParams::Allocation::UniformPerPartition) {
      // Naive equal shares — but a partition with nothing to modify cannot
      // consume iterations, so zero-count partitions still get nothing.
      for (std::size_t& c : shareBasis) c = c > 0 ? 1 : 0;
    }
    const auto allocation = partition::allocateIterations(zl, shareBasis);

    std::vector<rng::Stream> streams;
    streams.reserve(partitions.size());
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      streams.push_back(partitionStream(master, phaseCounter, i));
    }

    const double setupSeconds = phaseTimer.seconds();
    report.overheadSeconds += setupSeconds;
    vclock.advance(setupSeconds);

    std::vector<SessionResult> results(partitions.size());
    const par::WallTimer bodyTimer;
    double splitMergeOverhead = 0.0;

    switch (params.executor) {
      case LocalExecutor::Serial: {
        for (std::size_t i = 0; i < partitions.size(); ++i) {
          if (allocation[i] == 0) continue;
          results[i] =
              runLocalSessionShared(state, registry, constraints[i],
                                    candidates[i], allocation[i], streams[i]);
        }
        break;
      }
      case LocalExecutor::InPlacePool: {
        lease->parallelFor(partitions.size(), [&](std::size_t i) {
          if (allocation[i] == 0) return;
          results[i] =
              runLocalSessionShared(state, registry, constraints[i],
                                    candidates[i], allocation[i], streams[i]);
        });
        break;
      }
      case LocalExecutor::SplitMergeSerial: {
        // Split: crop + copy each partition (sequential master work).
        const par::WallTimer splitTimer;
        std::vector<SubState> subs;
        std::vector<std::size_t> active;
        subs.reserve(partitions.size());
        for (std::size_t i = 0; i < partitions.size(); ++i) {
          if (allocation[i] == 0) continue;
          subs.push_back(buildSubState(
              state,
              partition::roundToPixels(partitions[i],
                                       static_cast<int>(state.bounds().x1),
                                       static_cast<int>(state.bounds().y1)),
              margin));
          active.push_back(i);
        }
        const double splitSeconds = splitTimer.seconds();

        for (std::size_t k = 0; k < subs.size(); ++k) {
          results[active[k]] = runLocalSessionSub(
              subs[k], registry, allocation[active[k]], streams[active[k]]);
        }

        // Merge back (sequential master work).
        const par::WallTimer mergeTimer;
        for (SubState& sub : subs) mergeSubState(state, sub);
        splitMergeOverhead = splitSeconds + mergeTimer.seconds();
        break;
      }
    }

    // Fold worker deltas (shared-state sessions only; split/merge folded
    // through mergeSubState already).
    const bool sharedState =
        params.executor != LocalExecutor::SplitMergeSerial;
    std::vector<double> taskSeconds;
    taskSeconds.reserve(results.size());
    for (SessionResult& r : results) {
      if (r.iterations == 0) continue;
      if (sharedState) {
        state.adjustLogPosterior(r.logPostDelta);
        state.likelihoodMutable().adjustCoveredGain(r.coveredGainDelta);
      }
      report.diagnostics.merge(r.diagnostics);
      report.localIterations += r.iterations;
      ++report.partitionsProcessed;
      taskSeconds.push_back(r.seconds);
    }

    const double bodySeconds = bodyTimer.seconds();
    report.localSeconds += bodySeconds;
    report.overheadSeconds += splitMergeOverhead;

    // Virtual accounting: partitions run concurrently on virtualThreads;
    // split/merge and setup remain sequential master work.
    if (params.virtualThreads > 0) {
      vclock.advance(splitMergeOverhead);
      vclock.advanceParallel(taskSeconds, params.virtualThreads);
    } else {
      vclock.advance(bodySeconds);
    }
  }

  PeriodicReport run(const mcmc::RunHooks& hooks) {
    PeriodicReport report;
    par::VirtualClock vclock;
    const par::WallTimer wall;

    const double qg = registry.qGlobal();
    const std::uint64_t zg = std::max<std::uint64_t>(1, params.globalPhaseIterations);
    const std::uint64_t zl = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(zg) * (1.0 - qg) / qg));

    rng::Stream phaseStream = master.derive(0xFEED);
    std::uint64_t done = 0;
    std::uint64_t nextTrace = params.traceInterval;
    while (done < params.totalIterations) {
      if (hooks.cancelled()) {
        report.cancelled = true;
        break;
      }
      const std::uint64_t beforeGlobal = report.globalIterations;
      runGlobalPhase(zg, phaseStream, report, vclock);
      done += report.globalIterations - beforeGlobal;
      if (done >= params.totalIterations) {
        ++report.phases;
        ++phaseCounter;
        break;
      }

      const std::uint64_t thisLocal =
          std::min<std::uint64_t>(zl, params.totalIterations - done);
      if (thisLocal > 0) {
        const std::uint64_t beforeLocal = report.localIterations;
        runLocalPhase(thisLocal, phaseStream, report, vclock);
        done += report.localIterations - beforeLocal;
      }

      ++report.phases;
      ++phaseCounter;
      hooks.progress(done, params.totalIterations, "periodic-phase");

      if (params.traceInterval != 0 && done >= nextTrace) {
        report.diagnostics.tracePoint(done, state.logPosterior(),
                                      state.config().size());
        hooks.trace(report.diagnostics.trace().back());
        nextTrace += params.traceInterval;
      }
      if (params.resyncPhaseInterval != 0 &&
          report.phases % params.resyncPhaseInterval == 0) {
        state.resynchronise();
      }
    }

    state.resynchronise();
    if (specExec) report.diagnostics.merge(specExec->diagnostics());
    report.wallSeconds = wall.seconds();
    report.virtualSeconds = vclock.now();
    return report;
  }
};

PeriodicSampler::PeriodicSampler(model::ModelState& state,
                                 const mcmc::MoveRegistry& registry,
                                 const PeriodicParams& params,
                                 std::uint64_t seed, par::PoolLease* lease)
    : impl_(std::make_unique<Impl>(state, registry, params, seed, lease)) {}

PeriodicSampler::~PeriodicSampler() = default;

PeriodicReport PeriodicSampler::run(const mcmc::RunHooks& hooks) {
  return impl_->run(hooks);
}

}  // namespace mcmcpar::core
