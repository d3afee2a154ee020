#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mcmc/diagnostics.hpp"
#include "mcmc/move_registry.hpp"
#include "mcmc/run_hooks.hpp"
#include "model/posterior.hpp"
#include "par/concurrency.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::mcmc {

/// Parameters of Metropolis-coupled MCMC.
struct Mc3Params {
  /// Number of parallel chains; chain 0 is the cold chain, the only one
  /// sampled. Must be >= 1 (1 degenerates to plain MCMC).
  unsigned chains = 4;

  /// Inverse temperature of chain k is 1 / (1 + k * heatStep) — the
  /// incremental-heating scheme of Altekar et al. [9].
  double heatStep = 0.2;

  /// Every `swapInterval` per-chain iterations, one random adjacent pair is
  /// proposed for a state swap under the modified MH test.
  std::uint64_t swapInterval = 100;
};

/// Swap bookkeeping.
struct Mc3Stats {
  std::uint64_t swapProposed = 0;
  std::uint64_t swapAccepted = 0;
  std::uint64_t iterationsPerChain = 0;

  [[nodiscard]] double swapRate() const noexcept {
    return swapProposed == 0 ? 0.0
                             : static_cast<double>(swapAccepted) /
                                   static_cast<double>(swapProposed);
  }
};

/// Metropolis-coupled MCMC — (MC)^3, the "conventional approach" of §IV.
///
/// All but the cold chain target the *heated* posterior pi(x)^beta with
/// beta < 1, making them accept freely and roam the state space; periodic
/// state swaps let the cold chain take the occasional large jump across
/// modes. Unlike the paper's partitioning schemes, (MC)^3 aims at faster
/// *convergence*, not at distributing the per-iteration workload — this
/// implementation exists as the related-work baseline so the two kinds of
/// speedup can be compared (bench_mc3_convergence).
///
/// Heated acceptance: a move with posterior delta d and proposal/Jacobian
/// remainder r accepts with log-probability beta * d + r; a swap between
/// chains i and j accepts with (beta_i - beta_j) * (logP_j - logP_i).
class Mc3Sampler {
 public:
  /// Every chain gets its own ModelState initialised with `initialCircles`
  /// random circles from its own substream. The chains of an interval step
  /// with `lease->parallelFor` (they are independent between swaps, so this
  /// is exact task parallelism): concurrently when the lease has more than
  /// one thread, in order on the calling thread when it is null. The lease
  /// is borrowed and must outlive the sampler.
  Mc3Sampler(const img::ImageF& filtered, const model::PriorParams& prior,
             const model::LikelihoodParams& likelihood,
             const MoveRegistry& registry, const Mc3Params& params,
             std::size_t initialCircles, std::uint64_t seed,
             par::PoolLease* lease = nullptr);
  ~Mc3Sampler();

  Mc3Sampler(const Mc3Sampler&) = delete;
  Mc3Sampler& operator=(const Mc3Sampler&) = delete;

  /// Advance every chain by `iterations` iterations (swaps interleaved).
  /// Cancellation is polled at swap intervals; returns the per-chain
  /// iterations performed by this call.
  std::uint64_t run(std::uint64_t iterations, std::uint64_t traceInterval = 0,
                    const RunHooks& hooks = {});

  /// The cold chain (inverse temperature 1) — the only one to sample.
  [[nodiscard]] const model::ModelState& coldChain() const;
  [[nodiscard]] model::ModelState& coldChain();

  [[nodiscard]] const Mc3Stats& stats() const noexcept;
  /// Cold-chain trace/acceptance diagnostics.
  [[nodiscard]] const Diagnostics& coldDiagnostics() const;

  [[nodiscard]] unsigned chainCount() const noexcept;
  /// Inverse temperature of chain k.
  [[nodiscard]] double beta(unsigned k) const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One tempered MH step against `state` with inverse temperature `beta`:
/// propose from the registry, accept with beta-scaled posterior delta.
/// Exposed for tests. Returns whether the state changed.
bool temperedStep(model::ModelState& state, const MoveRegistry& registry,
                  double beta, rng::Stream& stream,
                  Diagnostics* diagnostics = nullptr);

}  // namespace mcmcpar::mcmc
