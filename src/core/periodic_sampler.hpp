#pragma once

#include <cstdint>
#include <memory>

#include "mcmc/diagnostics.hpp"
#include "mcmc/move_registry.hpp"
#include "mcmc/run_hooks.hpp"
#include "model/posterior.hpp"
#include "par/concurrency.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::core {

/// How the local (Ml) phases execute their partitions.
enum class LocalExecutor : std::uint8_t {
  /// One after another on the calling thread. Reference semantics; also the
  /// basis for virtual-time accounting (per-partition costs are measured
  /// undisturbed).
  Serial,
  /// Shared-memory concurrency on the sampler's par::PoolLease (its
  /// parallelFor); workers mutate the shared state under the legality
  /// margin (partition::inPlaceSafetyMargin) and accumulate scalar deltas
  /// thread-locally.
  InPlacePool,
  /// As InPlacePool but on an OpenMP team of the lease's thread count.
  InPlaceOmp,
  /// Deep-copied sub-states (crop + copy, run, merge back) executed
  /// serially: the faithful "duplicate ... and merge" path of §VII whose
  /// overhead Fig. 2 measures; required for virtual-time cluster modelling.
  SplitMergeSerial,
};

/// How partitions are laid out each local phase.
enum class PartitionLayout : std::uint8_t {
  /// §VII: four rectangles meeting at a uniformly random interior cross
  /// point (grid spacing larger than the image).
  RandomCross,
  /// §V: uniform grid of the given spacing with per-phase random offsets.
  UniformGrid,
};

/// Parameters of the periodic-partitioning sampler. The real threads are
/// not a parameter: they are the par::PoolLease the sampler is given.
struct PeriodicParams {
  std::uint64_t totalIterations = 100000;  ///< N (global + local combined)
  /// z: Mg iterations per global phase. The local phase then performs
  /// z (1-qg)/qg iterations so long-run move probabilities are unchanged.
  std::uint64_t globalPhaseIterations = 130;

  PartitionLayout layout = PartitionLayout::RandomCross;
  double gridSpacingX = 0.0;  ///< UniformGrid spacing (0 = half the domain)
  double gridSpacingY = 0.0;

  /// Legality margin; negative = automatic (safety margin for in-place
  /// executors, 0 for split/merge, 0 for serial).
  double margin = -1.0;

  LocalExecutor executor = LocalExecutor::Serial;

  /// When > 0, also account a virtual wall clock for an SMP with this many
  /// threads (see par::VirtualClock). Adds makespan(partition costs) per
  /// local phase plus the measured split/merge overhead. The per-partition
  /// costs are measured undisturbed only under a serial executor; nothing
  /// enforces one, and the engine's `executor=auto` picks InPlacePool on a
  /// multi-thread lease, where the costs are measured under concurrency.
  unsigned virtualThreads = 0;

  /// Speculative lanes during global phases (eq. 3), evaluated on the
  /// sampler's lease; 1 disables.
  unsigned specLanesGlobal = 1;

  /// Ablation: when false, the partition layout is fixed across phases
  /// (centre cross / zero grid offset) instead of re-randomised — §V warns
  /// this imposes persistent boundary bias; bench_ablations measures it.
  bool randomiseLayout = true;

  /// Ablation: how local iterations are divided among partitions.
  enum class Allocation : std::uint8_t {
    ProportionalToFeatures,  ///< the paper's rule (modifiable-count shares)
    UniformPerPartition,     ///< naive equal shares
  };
  Allocation allocation = Allocation::ProportionalToFeatures;

  std::uint64_t traceInterval = 0;       ///< posterior trace cadence (0=off)
  std::uint64_t resyncPhaseInterval = 64;  ///< drift-cancel cadence in phases
};

/// Outcome of a periodic run.
struct PeriodicReport {
  mcmc::Diagnostics diagnostics;
  std::uint64_t globalIterations = 0;
  std::uint64_t localIterations = 0;
  std::uint64_t phases = 0;             ///< number of global/local cycles
  double wallSeconds = 0.0;             ///< real elapsed time of run()
  double globalSeconds = 0.0;           ///< real time inside global phases
  double localSeconds = 0.0;            ///< real time inside local phases
  double overheadSeconds = 0.0;         ///< split/merge + bookkeeping
  double virtualSeconds = 0.0;          ///< modeled SMP wall time (if enabled)
  std::uint64_t partitionsProcessed = 0;
  std::uint64_t modifiableTotal = 0;    ///< sum over phases of modifiable counts
  bool cancelled = false;               ///< stopped early via RunHooks
};

/// The per-(phase, partition) RNG stream used by the local phases.
///
/// Two-level derivation: the phase tag and the partition tag are mixed in
/// separate derive() steps, so no (phase, partition) pair ever shares a
/// stream with another — unlike the previous flat `phase * 0x10000 + i + 1`
/// tag, which collided as soon as a phase had 65535+ partitions (e.g.
/// (phase 0, partition 65536) vs (phase 1, partition 0)).
[[nodiscard]] rng::Stream partitionStream(const rng::Stream& master,
                                          std::uint64_t phase,
                                          std::uint64_t partition) noexcept;

/// The paper's periodic-partitioning MCMC driver (§V): alternates
/// sequential global-move phases with partition-parallel local-move phases,
/// re-randomising the partition grid every cycle and allocating local
/// iterations to partitions in proportion to their modifiable features.
class PeriodicSampler {
 public:
  /// `lease` holds the real threads: the InPlacePool partitions and the
  /// global-phase speculative lanes run on its parallelFor, and the
  /// InPlaceOmp team has its thread count. Null means one thread, the
  /// caller. The lease is borrowed and must outlive the sampler.
  PeriodicSampler(model::ModelState& state, const mcmc::MoveRegistry& registry,
                  const PeriodicParams& params, std::uint64_t seed,
                  par::PoolLease* lease = nullptr);
  ~PeriodicSampler();

  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  /// Run until totalIterations logical iterations have been performed.
  /// Cancellation is polled at phase boundaries; a cancelled run still
  /// resynchronises the state and returns a consistent partial report.
  PeriodicReport run(const mcmc::RunHooks& hooks = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mcmcpar::core
