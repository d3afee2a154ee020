#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mcmcpar::mcmc {

/// One sampled point of the chain's trajectory.
struct TracePoint {
  std::uint64_t iteration = 0;
  double logPosterior = 0.0;
  std::size_t circleCount = 0;
};

/// Per-move proposal/acceptance counters plus a log-posterior trace.
///
/// Rejection rates feed the speculative-moves prediction (eqs. 3-4 need
/// pgr and plr); the trace feeds the convergence detector.
class Diagnostics {
 public:
  /// Record a proposal outcome for the named move. Called once per
  /// iteration with Move::name(): the transparent comparator finds an
  /// existing entry without building a std::string.
  void record(std::string_view moveName, bool accepted);

  /// Append a trace point.
  void tracePoint(std::uint64_t iteration, double logPosterior,
                  std::size_t circleCount);

  struct MoveStats {
    std::uint64_t proposed = 0;
    std::uint64_t accepted = 0;

    [[nodiscard]] double acceptanceRate() const noexcept {
      return proposed == 0 ? 0.0
                           : static_cast<double>(accepted) /
                                 static_cast<double>(proposed);
    }
    [[nodiscard]] double rejectionRate() const noexcept {
      return proposed == 0 ? 0.0 : 1.0 - acceptanceRate();
    }
  };

  using MoveStatsMap = std::map<std::string, MoveStats, std::less<>>;

  [[nodiscard]] const MoveStatsMap& perMove() const noexcept {
    return stats_;
  }
  [[nodiscard]] const std::vector<TracePoint>& trace() const noexcept {
    return trace_;
  }

  /// Aggregate counts over a set of move names (empty = all moves).
  [[nodiscard]] MoveStats aggregate(
      const std::vector<std::string>& names = {}) const;

  [[nodiscard]] std::uint64_t totalProposed() const noexcept {
    return aggregate().proposed;
  }

  /// Merge another diagnostics object into this one (per-partition workers
  /// keep local diagnostics that the executor folds together; traces are
  /// concatenated and re-sorted by iteration).
  void merge(const Diagnostics& other);

  void clear();

 private:
  MoveStatsMap stats_;
  std::vector<TracePoint> trace_;
};

}  // namespace mcmcpar::mcmc
