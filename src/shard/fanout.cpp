#include "shard/fanout.hpp"

#include <algorithm>
#include <utility>

namespace mcmcpar::shard {

namespace {

using Kind = FanoutAction::Kind;

Replica sibling(Replica r) noexcept {
  return r == Replica::Primary ? Replica::Hedge : Replica::Primary;
}

}  // namespace

Fanout::Fanout(EndpointPool& pool, std::vector<std::uint64_t> budgets,
               std::vector<double> predictedSeconds, double hedgeFactor,
               double timeoutSeconds)
    : pool_(pool),
      budgets_(std::move(budgets)),
      predicted_(std::move(predictedSeconds)),
      hedgeFactor_(hedgeFactor),
      timeoutSeconds_(timeoutSeconds),
      tiles_(budgets_.size()) {
  report_.tiles.resize(tiles_.size());
  // Submit every tile before polling any, so the fleet runs them
  // concurrently.
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    tiles_[i].tried.assign(pool_.size(), 0);
    steps_.push_back({Kind::Submit, i, Replica::Primary});
  }
}

std::optional<FanoutAction> Fanout::next() {
  while (!steps_.empty()) {
    const FanoutAction step = steps_.front();
    steps_.pop_front();
    if (step.kind == Kind::Submit) {
      std::optional<FanoutAction> action = step.replica == Replica::Primary
                                               ? place(step.tile)
                                               : hedge(step.tile);
      if (action) return action;
      continue;
    }
    if (step.kind != Kind::Poll) return step;
    const Flight& f = flight(step.tile, step.replica);
    if (!f.live) continue;  // the flight or its tile has moved on
    // A wedged server must not stall the pass forever: an overdue flight
    // fails like a transport error.
    if (now_ - f.started <= timeoutSeconds_) {
      return FanoutAction{Kind::Poll, step.tile, step.replica, f.endpoint};
    }
    fail(step.tile, step.replica, remote::FailureKind::EndpointDown,
         "tile exceeded the " + std::to_string(timeoutSeconds_) +
             " s timeout",
         /*running=*/true);
  }
  return std::nullopt;
}

// Least-loaded placement among endpoints this round has not tried. A
// deterministic rejection dooms the run, so once one is recorded the
// remaining tiles are not handed to the fleet at all.
std::optional<FanoutAction> Fanout::place(std::size_t tile) {
  Tile& t = tiles_[tile];
  std::string& error = report_.tiles[tile].error;
  if (doomed_) {
    error = "not submitted: an earlier tile already failed";
    resolve(tile);
    return std::nullopt;
  }
  const std::optional<std::size_t> picked = pool_.pick(t.tried);
  if (!picked) {
    std::vector<Endpoint> fleet;
    for (std::size_t e = 0; e < pool_.size(); ++e) {
      fleet.push_back(pool_.endpoint(e));
    }
    error = "no usable endpoint left (fleet: " + formatEndpointList(fleet) +
            ", " + std::to_string(pool_.deadCount()) + " marked dead)";
    resolve(tile);
    return std::nullopt;
  }
  t.tried[*picked] = 1;
  ++t.attempts;
  flight(tile, Replica::Primary).endpoint = *picked;
  return FanoutAction{Kind::Submit, tile, Replica::Primary, *picked};
}

// Straggler hedging (shouldHedge): a replica of a slow tile on an idle
// endpoint; whichever replica lands first wins.
std::optional<FanoutAction> Fanout::hedge(std::size_t tile) {
  Tile& t = tiles_[tile];
  const Flight& primary = flight(tile, Replica::Primary);
  if (t.hedged || !primary.live || doomed_ || cancelled_) {
    return std::nullopt;
  }
  HedgeInputs inputs;
  inputs.elapsedSeconds = now_ - primary.started;
  inputs.predictedSeconds = predicted_[tile];
  inputs.observedSeconds = observedSeconds(tile);
  inputs.hedgeFactor = hedgeFactor_;
  inputs.idleEndpointAvailable = pool_.hasIdle(primary.endpoint);
  inputs.alreadyHedged = t.hedged;
  if (!shouldHedge(inputs)) return std::nullopt;
  // A hedge rides spare capacity only: never the primary's endpoint, never
  // one with work in flight.
  std::vector<char> exclude(pool_.size(), 0);
  for (std::size_t e = 0; e < pool_.size(); ++e) {
    exclude[e] = e == primary.endpoint || pool_.load(e) > 0 ? 1 : 0;
  }
  const std::optional<std::size_t> picked = pool_.pick(exclude);
  if (!picked) return std::nullopt;
  ++t.attempts;
  flight(tile, Replica::Hedge).endpoint = *picked;
  return FanoutAction{Kind::Submit, tile, Replica::Hedge, *picked};
}

void Fanout::submitted(std::size_t tile, Replica replica, double now) {
  Flight& f = flight(tile, replica);
  f.live = true;
  f.started = now;
  if (replica == Replica::Hedge) {
    tiles_[tile].hedged = true;
    ++report_.hedgesIssued;
  }
}

void Fanout::finished(std::size_t tile, Replica replica, TileRun result,
                      double now) {
  Flight& winner = flight(tile, replica);
  Flight& loser = flight(tile, sibling(replica));
  winner.live = false;
  pool_.release(winner.endpoint);
  if (replica == Replica::Hedge) ++report_.hedgesWon;
  if (result.error.empty() && !result.cancelled && budgets_[tile] > 0) {
    observedPerIter_.push_back((now - winner.started) /
                               static_cast<double>(budgets_[tile]));
  }
  result.endpoint = pool_.endpoint(winner.endpoint).label();
  result.hedged = replica == Replica::Hedge;
  report_.tiles[tile] = std::move(result);
  resolve(tile);
  if (loser.live) {
    // Replicas are bit-identical, so the loser's work is redundant: cancel
    // it so the fleet stops burning its budget (unless the wind-down
    // broadcast already did).
    loser.live = false;
    pool_.release(loser.endpoint);
    if (!broadcast_) {
      steps_.push_front({Kind::Cancel, tile, sibling(replica),
                         loser.endpoint, /*abandoned=*/true});
    }
  }
}

// A flight failed. While its sibling still runs, the tile stays covered
// and the failure costs nothing; otherwise the tile is requeued, unless
// the failure is deterministic or the run is doomed or cancelled. A busy
// endpoint is skipped without being marked dead.
void Fanout::fail(std::size_t tile, Replica replica, remote::FailureKind kind,
                  const std::string& error, bool running) {
  Flight& f = flight(tile, replica);
  f.live = false;
  pool_.release(f.endpoint);
  // A hedge is best-effort: a refused one leaves the primary standing and
  // must never doom a healthy run.
  if (replica == Replica::Hedge && !running) return;
  if (kind == remote::FailureKind::EndpointDown) {
    pool_.markDead(f.endpoint);
    ++deadMarks_;
  }
  if (flight(tile, sibling(replica)).live) return;
  if (kind == remote::FailureKind::Fatal || doomed_ || cancelled_) {
    report_.tiles[tile].error = error;
    resolve(tile);
    return;
  }
  ++report_.requeues;
  steps_.push_front({Kind::Submit, tile, Replica::Primary});
  if (!running) return;  // a refused submission retries within its round
  // The job may still be running on a live-but-unreachable host: cancel it
  // first. Retrying is safe regardless, since the Stitcher is
  // deterministic and the requeued tile reproduces the same result. The
  // fresh round excludes only the endpoint that just failed: a live host
  // that merely refused an earlier round deserves another chance.
  Tile& t = tiles_[tile];
  t.tried.assign(pool_.size(), 0);
  t.tried[f.endpoint] = 1;
  steps_.push_front({Kind::Cancel, tile, replica, f.endpoint});
}

void Fanout::tick(double now) {
  now_ = now;
  // Any tile failure dooms the run (a missing region cannot be stitched),
  // so once one is recorded, or the caller cancels, every live flight gets
  // one CANCEL; polling continues until the remotes acknowledge, which
  // bounds the wind-down at one remote cancel quantum instead of the
  // tiles' full budgets.
  if ((doomed_ || cancelled_) && !broadcast_) {
    broadcast_ = true;
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
      for (const Replica r : {Replica::Primary, Replica::Hedge}) {
        if (flight(i, r).live) {
          steps_.push_back({Kind::Cancel, i, r, flight(i, r).endpoint});
        }
      }
    }
  }
  // A resolved tile has no live flight, so its steps are dropped on arrival.
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    steps_.push_back({Kind::Poll, i, Replica::Primary});
    steps_.push_back({Kind::Poll, i, Replica::Hedge});
    steps_.push_back({Kind::Submit, i, Replica::Hedge});  // the hedge check
  }
}

void Fanout::resolve(std::size_t tile) {
  ++resolved_;
  report_.tiles[tile].attempts = std::max(tiles_[tile].attempts, 1u);
  if (!report_.tiles[tile].error.empty()) doomed_ = true;
  steps_.push_front({Kind::Finished, tile});
}

// HedgeInputs::observedSeconds: the median per-iteration cost seen so far.
double Fanout::observedSeconds(std::size_t tile) const {
  if (observedPerIter_.empty() || budgets_[tile] == 0) return 0.0;
  std::vector<double> sorted = observedPerIter_;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2] * static_cast<double>(budgets_[tile]);
}

}  // namespace mcmcpar::shard
