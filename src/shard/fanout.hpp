#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "shard/endpoints.hpp"
#include "shard/remote.hpp"
#include "shard/report.hpp"

/// The socket backend's fan-out as a single-threaded, clock-free state
/// machine: events in, actions out, no I/O and no sleeps. Time is a number
/// the caller passes in; endpoint load and liveness live in the caller's
/// EndpointPool, whose PING probes stay with the caller. shard/strategy.cpp
/// drives it over sockets; tests/test_scheduling.cpp with fake time.
namespace mcmcpar::shard {

/// What the straggler-hedging policy sees about one outstanding tile.
/// Taking whichever replica lands first is safe because remote tiles are
/// bit-identical and the stitcher is deterministic.
struct HedgeInputs {
  double elapsedSeconds = 0.0;    ///< since the tile's current submission
  double predictedSeconds = 0.0;  ///< calibrated §IX estimate for the tile
  /// Observed median tile time scaled to this tile's budget (<= 0 until
  /// the first sibling completes). Preferred over the prediction: it
  /// reflects this fleet's real speed, not the committed calibration.
  double observedSeconds = 0.0;
  double hedgeFactor = 0.0;  ///< hedge-factor option; <= 0 disables
  bool idleEndpointAvailable = false;  ///< an alive, load-free endpoint
  bool alreadyHedged = false;          ///< one replica per tile, at most
};

/// The reference time the factor multiplies: the observed median when any
/// sibling has completed, the calibrated prediction before that.
[[nodiscard]] constexpr double hedgeReferenceSeconds(
    double predictedSeconds, double observedSeconds) noexcept {
  return observedSeconds > 0.0 ? observedSeconds : predictedSeconds;
}

/// True when the tile should be re-issued on an idle endpoint: hedging is
/// enabled, this tile has no replica yet, an idle endpoint exists, and the
/// tile has been outstanding longer than hedgeFactor x the reference time.
[[nodiscard]] constexpr bool shouldHedge(const HedgeInputs& in) noexcept {
  if (in.hedgeFactor <= 0.0 || in.alreadyHedged ||
      !in.idleEndpointAvailable) {
    return false;
  }
  const double reference =
      hedgeReferenceSeconds(in.predictedSeconds, in.observedSeconds);
  if (reference <= 0.0) return false;
  return in.elapsedSeconds > in.hedgeFactor * reference;
}

/// A tile's placement or its one straggler hedge (indexes Tile::flights).
enum class Replica : std::uint8_t { Primary = 0, Hedge = 1 };

struct FanoutAction {
  enum class Kind : std::uint8_t {
    Submit,    ///< connect + UPLOAD + SUBMIT the tile on `endpoint`
    Poll,      ///< STATUS the flight (REPORT once it is terminal)
    Cancel,    ///< best-effort CANCEL of the flight's remote job
    Finished,  ///< the tile is resolved: result or error recorded
  };
  Kind kind = Kind::Finished;
  std::size_t tile = 0;
  Replica replica = Replica::Primary;
  std::size_t endpoint = 0;  ///< pool index (unused by Finished)
  /// Cancel only: the sibling won and this replica is dropped for good
  /// (else it already failed, or it stays polled through the wind-down).
  bool abandoned = false;

  friend bool operator==(const FanoutAction&,
                         const FanoutAction&) = default;
};

class Fanout {
 public:
  /// Tiles are placed in index order. `predictedSeconds` is each tile's
  /// §IX estimate (the hedging reference until a sibling finishes);
  /// `hedgeFactor <= 0` disables hedging; a flight outstanding longer than
  /// `timeoutSeconds` fails like a transport error.
  Fanout(EndpointPool& pool, std::vector<std::uint64_t> budgets,
         std::vector<double> predictedSeconds, double hedgeFactor,
         double timeoutSeconds);

  // ---- events ----
  void submitted(std::size_t tile, Replica replica, double now);
  void submitFailed(std::size_t tile, Replica replica,
                    remote::FailureKind kind, const std::string& error) {
    fail(tile, replica, kind, error, /*running=*/false);
  }
  /// The flight reached done, failed or cancelled; a non-empty
  /// `result.error` (a failed remote job) fails the tile, never requeues.
  void finished(std::size_t tile, Replica replica, TileRun result,
                double now);
  /// STATUS or REPORT failed (transport error, ERR reply).
  void pollFailed(std::size_t tile, Replica replica, remote::FailureKind kind,
                  const std::string& error) {
    fail(tile, replica, kind, error, /*running=*/true);
  }
  /// One poll pass: the one-time wind-down CANCEL, then per tile in order
  /// a poll of each live flight and the hedging check.
  void tick(double now);
  /// Sticky: no requeues or hedges from here on; the next tick cancels.
  void cancelRequested() noexcept { cancelled_ = true; }

  // ---- actions ----
  /// The next action, or nullopt when nothing is due before the next tick.
  /// A Poll whose flight is still running feeds no event back.
  [[nodiscard]] std::optional<FanoutAction> next();
  [[nodiscard]] bool done() const noexcept {
    return resolved_ == tiles_.size();
  }

  /// Per tile the winning result stamped with endpoint, attempts and
  /// hedged flag (or the error that failed it), plus the requeue and hedge
  /// counts. endpointsDead is the caller's: its PING probes can revive one.
  [[nodiscard]] const ShardReport& report() const noexcept { return report_; }
  /// Transport failures that marked an endpoint dead (possibly repeatedly).
  [[nodiscard]] std::size_t deadMarks() const noexcept { return deadMarks_; }

 private:
  struct Flight {
    bool live = false;
    std::size_t endpoint = 0;
    double started = 0.0;
  };
  struct Tile {
    Flight flights[2];
    std::vector<char> tried;  ///< endpoints tried this placement round
    unsigned attempts = 0;
    bool hedged = false;  ///< at most one hedge per tile, ever
  };

  [[nodiscard]] Flight& flight(std::size_t tile, Replica r) {
    return tiles_[tile].flights[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::optional<FanoutAction> place(std::size_t tile);
  [[nodiscard]] std::optional<FanoutAction> hedge(std::size_t tile);
  void fail(std::size_t tile, Replica replica, remote::FailureKind kind,
            const std::string& error, bool running);
  /// Resolve with the report row as it stands; an error dooms the run.
  void resolve(std::size_t tile);
  [[nodiscard]] double observedSeconds(std::size_t tile) const;

  EndpointPool& pool_;
  std::vector<std::uint64_t> budgets_;
  std::vector<double> predicted_;
  double hedgeFactor_;
  double timeoutSeconds_;
  std::vector<Tile> tiles_;
  ShardReport report_;
  std::size_t deadMarks_ = 0;
  /// Steps still to take, front first. A Submit step picks its endpoint
  /// only when reached, so placement sees the latest load; a Poll or hedge
  /// step whose flight or tile has moved on by then is dropped. An event's
  /// follow-ups go to the front, so a requeue is placed before the pass
  /// moves on to the next tile.
  std::deque<FanoutAction> steps_;
  std::vector<double> observedPerIter_;  ///< resolved, successful tiles
  double now_ = 0.0;                     ///< time of the latest tick
  std::size_t resolved_ = 0;
  bool doomed_ = false;  ///< a tile failed: the run cannot be stitched
  bool cancelled_ = false;
  bool broadcast_ = false;  ///< the wind-down CANCEL went out
};

}  // namespace mcmcpar::shard
