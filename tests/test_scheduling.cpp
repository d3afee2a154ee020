// Predictor-driven scheduling (§IX): the deficit-round-robin admission
// scheduler, the straggler-hedging policy, the shard fan-out state machine,
// the density-adaptive tile decomposition and the committed cost
// calibration — all driven with scripted costs and fake clocks so the
// schedules assert EXACTLY, plus live socket regressions for hedging
// (bit-identity, latency) and weighted-fair starvation.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/runtime_predictor.hpp"
#include "engine/batch.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "img/synth.hpp"
#include "serve/fair_queue.hpp"
#include "serve/job_queue.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "shard/endpoints.hpp"
#include "shard/fanout.hpp"
#include "shard/report.hpp"
#include "shard/tiling.hpp"

namespace mcmcpar::shard {

// Readable failure diffs for the fan-out action sequences below.
void PrintTo(const FanoutAction& a, std::ostream* os) {
  static const char* const kKinds[] = {"Submit", "Poll", "Cancel",
                                       "Finished"};
  *os << kKinds[static_cast<int>(a.kind)] << "(tile " << a.tile << ", "
      << (a.replica == Replica::Hedge ? "hedge" : "primary") << ", endpoint "
      << a.endpoint << (a.abandoned ? ", abandoned" : "") << ")";
}

}  // namespace mcmcpar::shard

namespace mcmcpar {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// DeficitScheduler: exact schedules from scripted costs
// ---------------------------------------------------------------------------

/// Drain the scheduler and return the dispatched job ids in order.
std::vector<std::uint64_t> drain(serve::DeficitScheduler& scheduler) {
  std::vector<std::uint64_t> order;
  while (auto job = scheduler.dispatchNext()) order.push_back(job->id);
  return order;
}

TEST(DeficitScheduler, SingleClientIsPlainFifo) {
  serve::DeficitScheduler scheduler(0.25);
  scheduler.enqueue("solo", 1, 3.0);
  scheduler.enqueue("solo", 2, 0.1);
  scheduler.enqueue("solo", 3, 7.5);
  EXPECT_EQ(scheduler.size(), 3u);
  EXPECT_EQ(drain(scheduler), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(scheduler.empty());
}

TEST(DeficitScheduler, EqualWeightsEqualCostsInterleavePerfectly) {
  // Classic DRR with quantum 1 and unit costs: a and b alternate starting
  // from a (first in round order), never two of the same client in a row.
  serve::DeficitScheduler scheduler(1.0);
  for (std::uint64_t id : {1, 2, 3, 4}) scheduler.enqueue("a", id, 1.0);
  for (std::uint64_t id : {11, 12, 13, 14}) scheduler.enqueue("b", id, 1.0);
  EXPECT_EQ(drain(scheduler),
            (std::vector<std::uint64_t>{1, 11, 2, 12, 3, 13, 4, 14}));
}

TEST(DeficitScheduler, WeightTriplesAClientsShare) {
  // b at weight 3 earns 3 units of credit per round: after the opening
  // alternation it drains a burst before a's next turn. The exact classic
  // DRR schedule (quantum 1, unit costs) is hand-traceable:
  //   round 1 credits a=1 b=3 -> a serves; b's banked credit then serves
  //   11, 12, 13 back to back; round 2 credits again -> a, then b's last.
  serve::DeficitScheduler scheduler(1.0);
  scheduler.setWeight("b", 3);
  for (std::uint64_t id : {1, 2, 3, 4}) scheduler.enqueue("a", id, 1.0);
  for (std::uint64_t id : {11, 12, 13, 14}) scheduler.enqueue("b", id, 1.0);
  EXPECT_EQ(drain(scheduler),
            (std::vector<std::uint64_t>{1, 11, 12, 13, 2, 14, 3, 4}));
}

TEST(DeficitScheduler, CheapJobsOvertakeExpensiveOnes) {
  // Cost-aware DRR: heavy needs 4 rounds of credit per job (cost 4,
  // quantum 1), light needs 1 — so light's whole backlog mostly clears
  // before heavy's first job fits its deficit.
  serve::DeficitScheduler scheduler(1.0);
  scheduler.enqueue("heavy", 1, 4.0);
  scheduler.enqueue("heavy", 2, 4.0);
  for (std::uint64_t id : {11, 12, 13, 14}) {
    scheduler.enqueue("light", id, 1.0);
  }
  EXPECT_EQ(drain(scheduler),
            (std::vector<std::uint64_t>{11, 12, 13, 1, 14, 2}));
}

TEST(DeficitScheduler, DeficitAccountingIsExact) {
  serve::DeficitScheduler scheduler(1.0);
  scheduler.enqueue("heavy", 1, 4.0);
  scheduler.enqueue("heavy", 2, 4.0);
  scheduler.enqueue("light", 11, 1.0);

  // Dispatch 1: light needs 1 round, heavy 4 -> one round credited to
  // both, light serves and (queue drained) forfeits its leftover credit.
  const auto first = scheduler.dispatchNext();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 11u);
  EXPECT_EQ(first->client, "light");
  EXPECT_DOUBLE_EQ(first->costSeconds, 1.0);

  auto views = scheduler.snapshot();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].client, "heavy");
  EXPECT_DOUBLE_EQ(views[0].deficit, 1.0);  // one round banked, unspent
  EXPECT_EQ(views[0].queued, 2u);
  EXPECT_DOUBLE_EQ(views[0].costQueued, 8.0);

  // Dispatch 2: heavy needs 3 more rounds; after serving, deficit is
  // exactly 1 + 3 - 4 = 0.
  const auto second = scheduler.dispatchNext();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 1u);
  views = scheduler.snapshot();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_DOUBLE_EQ(views[0].deficit, 0.0);
  EXPECT_DOUBLE_EQ(views[0].costQueued, 4.0);
}

TEST(DeficitScheduler, DrainingForfeitsCreditAndRejoiningStartsAtZero) {
  serve::DeficitScheduler scheduler(1.0);
  scheduler.enqueue("a", 1, 1.0);
  ASSERT_TRUE(scheduler.dispatchNext().has_value());
  EXPECT_TRUE(scheduler.empty());
  EXPECT_TRUE(scheduler.snapshot().empty());  // left the round entirely

  // Rejoining must not bank the credit from the earlier round.
  scheduler.enqueue("a", 2, 5.0);
  const auto views = scheduler.snapshot();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_DOUBLE_EQ(views[0].deficit, 0.0);
}

TEST(DeficitScheduler, RemoveCancelsQueuedJobsExactly) {
  serve::DeficitScheduler scheduler(1.0);
  scheduler.enqueue("a", 1, 1.0);
  scheduler.enqueue("a", 2, 1.0);
  scheduler.enqueue("b", 11, 1.0);

  EXPECT_FALSE(scheduler.remove("a", 99));       // unknown id
  EXPECT_FALSE(scheduler.remove("ghost", 1));    // unknown client
  EXPECT_FALSE(scheduler.remove("b", 1));        // right id, wrong client
  EXPECT_TRUE(scheduler.remove("a", 1));
  EXPECT_FALSE(scheduler.remove("a", 1));        // already gone
  EXPECT_EQ(scheduler.size(), 2u);

  // Removing b's only job drops b from the round.
  EXPECT_TRUE(scheduler.remove("b", 11));
  const auto views = scheduler.snapshot();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].client, "a");
  EXPECT_EQ(drain(scheduler), (std::vector<std::uint64_t>{2}));
}

TEST(DeficitScheduler, WeightsClampAndZeroCostsStillCharge) {
  serve::DeficitScheduler scheduler(1.0);
  scheduler.setWeight("a", 0);
  EXPECT_EQ(scheduler.weight("a"), 1u);
  scheduler.setWeight("a", 5000);
  EXPECT_EQ(scheduler.weight("a"), 1000u);
  EXPECT_EQ(scheduler.weight("unknown"), 1u);

  // A zero predicted cost is floored to a sliver so free jobs still
  // consume bandwidth instead of starving other clients.
  scheduler.enqueue("a", 1, 0.0);
  const auto job = scheduler.dispatchNext();
  ASSERT_TRUE(job.has_value());
  EXPECT_GT(job->costSeconds, 0.0);
}

// ---------------------------------------------------------------------------
// Hedging policy: a pure function driven by a fake clock
// ---------------------------------------------------------------------------

TEST(HedgePolicy, ReferencePrefersObservedMedianOverPrediction) {
  EXPECT_DOUBLE_EQ(shard::hedgeReferenceSeconds(2.0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(shard::hedgeReferenceSeconds(2.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(shard::hedgeReferenceSeconds(2.0, -1.0), 2.0);
}

TEST(HedgePolicy, FiresStrictlyAboveFactorTimesReference) {
  shard::HedgeInputs in;
  in.predictedSeconds = 2.0;
  in.hedgeFactor = 1.5;
  in.idleEndpointAvailable = true;

  in.elapsedSeconds = 3.0;  // == 1.5 * 2.0: the boundary does not fire
  EXPECT_FALSE(shard::shouldHedge(in));
  in.elapsedSeconds = 3.0001;
  EXPECT_TRUE(shard::shouldHedge(in));

  // The observed fleet median overrides the calibrated prediction: a
  // fleet measured at 0.4 s/tile hedges a 0.61 s straggler even though
  // the (stale) prediction said 2 s.
  in.observedSeconds = 0.4;
  in.elapsedSeconds = 0.61;
  EXPECT_TRUE(shard::shouldHedge(in));
  in.elapsedSeconds = 0.59;
  EXPECT_FALSE(shard::shouldHedge(in));
}

TEST(HedgePolicy, GuardsDisableHedging) {
  shard::HedgeInputs in;
  in.predictedSeconds = 1.0;
  in.elapsedSeconds = 100.0;
  in.hedgeFactor = 2.0;
  in.idleEndpointAvailable = true;

  shard::HedgeInputs disabled = in;
  disabled.hedgeFactor = 0.0;  // the default: hedging off
  EXPECT_FALSE(shard::shouldHedge(disabled));

  shard::HedgeInputs busyFleet = in;
  busyFleet.idleEndpointAvailable = false;  // never queue behind real work
  EXPECT_FALSE(shard::shouldHedge(busyFleet));

  shard::HedgeInputs already = in;
  already.alreadyHedged = true;  // at most one replica per tile
  EXPECT_FALSE(shard::shouldHedge(already));

  shard::HedgeInputs blind = in;
  blind.predictedSeconds = 0.0;  // no reference -> no trigger threshold
  blind.observedSeconds = 0.0;
  EXPECT_FALSE(shard::shouldHedge(blind));

  EXPECT_TRUE(shard::shouldHedge(in));  // all guards pass -> fires
}

// ---------------------------------------------------------------------------
// Fan-out state machine: every hedge, requeue and dead-endpoint interleaving
// driven with scripted events and fake time — no sockets, threads or sleeps
// ---------------------------------------------------------------------------

using shard::FanoutAction;
using shard::Replica;
using Kind = FanoutAction::Kind;
using shard::remote::FailureKind;
constexpr Replica kPrimary = Replica::Primary;
constexpr Replica kHedge = Replica::Hedge;

FanoutAction submitAt(std::size_t tile, std::size_t endpoint,
                      Replica replica = kPrimary) {
  return {Kind::Submit, tile, replica, endpoint};
}
FanoutAction pollAt(std::size_t tile, std::size_t endpoint,
                    Replica replica = kPrimary) {
  return {Kind::Poll, tile, replica, endpoint};
}
FanoutAction cancelAt(std::size_t tile, std::size_t endpoint,
                      Replica replica = kPrimary, bool abandoned = false) {
  return {Kind::Cancel, tile, replica, endpoint, abandoned};
}
FanoutAction finishedTile(std::size_t tile) {
  return {Kind::Finished, tile};
}

/// Every action due before the next tick (no replies fed in between).
std::vector<FanoutAction> drain(shard::Fanout& fanout) {
  std::vector<FanoutAction> actions;
  while (auto action = fanout.next()) actions.push_back(*action);
  return actions;
}

/// A fleet of `n` never-probed endpoints (all alive, all idle).
shard::EndpointPool fleet(std::size_t n) {
  std::vector<shard::Endpoint> endpoints;
  for (std::size_t i = 0; i < n; ++i) {
    endpoints.push_back({"127.0.0.1", static_cast<std::uint16_t>(9001 + i)});
  }
  return shard::EndpointPool(endpoints);
}

shard::TileRun doneRun(std::uint64_t iterations) {
  shard::TileRun run;
  run.iterations = iterations;
  return run;
}

/// Place `tiles` unit-predicted 1000-iteration tiles (submitted at t=0) on
/// `pool`, asserting least-loaded placement in tile order.
shard::Fanout placed(shard::EndpointPool& pool, std::size_t tiles,
                     double hedgeFactor = 0.0, double timeout = 600.0) {
  shard::Fanout fanout(pool, std::vector<std::uint64_t>(tiles, 1000),
                       std::vector<double>(tiles, 1.0), hedgeFactor, timeout);
  for (std::size_t i = 0; i < tiles; ++i) {
    const auto action = fanout.next();
    EXPECT_TRUE(action.has_value());
    if (!action) break;
    EXPECT_EQ(*action, submitAt(i, i % pool.size()));
    fanout.submitted(i, kPrimary, 0.0);
  }
  return fanout;
}

TEST(FanoutMachine, PlacesEveryTileLeastLoadedBeforePollingAny) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = placed(pool, 3);
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{});
  EXPECT_EQ(pool.load(0), 2u);
  EXPECT_EQ(pool.load(1), 1u);
  fanout.tick(0.02);
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               pollAt(0, 0), pollAt(1, 1), pollAt(2, 0)}));
  fanout.finished(1, kPrimary, doneRun(1000), 0.5);
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{finishedTile(1)});
  EXPECT_EQ(pool.load(1), 0u);
  EXPECT_FALSE(fanout.done());
}

TEST(FanoutMachine, HedgeFiresStrictlyAboveFactorTimesReference) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = placed(pool, 1, /*hedgeFactor=*/2.0);
  fanout.tick(2.0);  // == 2.0 x the 1 s prediction: the boundary holds
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{pollAt(0, 0)});
  fanout.tick(2.001);
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               pollAt(0, 0), submitAt(0, 1, kHedge)}));
  fanout.submitted(0, kHedge, 2.001);
  fanout.tick(2.02);  // at most one hedge per tile
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               pollAt(0, 0), pollAt(0, 1, kHedge)}));
  EXPECT_EQ(fanout.report().hedgesIssued, 1u);
}

TEST(FanoutMachine, HedgeNeverFiresWithoutAnIdleEndpoint) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = placed(pool, 2, /*hedgeFactor=*/2.0);
  fanout.tick(100.0);  // both stragglers, but every endpoint is busy
  EXPECT_EQ(drain(fanout),
            (std::vector<FanoutAction>{pollAt(0, 0), pollAt(1, 1)}));
  // Tile 1 finishing frees endpoint 1; the observed median (0.5 s) is now
  // the reference, so tile 0 hedges there on the next pass.
  fanout.finished(1, kPrimary, doneRun(1000), 0.5);
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{finishedTile(1)});
  fanout.tick(100.02);
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               pollAt(0, 0), submitAt(0, 1, kHedge)}));
}

/// One tile on endpoint 0 with a live hedge on endpoint 1.
shard::Fanout hedgedTile(shard::EndpointPool& pool) {
  shard::Fanout fanout = placed(pool, 1, /*hedgeFactor=*/2.0);
  fanout.tick(3.0);
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               pollAt(0, 0), submitAt(0, 1, kHedge)}));
  fanout.submitted(0, kHedge, 3.0);
  fanout.tick(4.0);
  return fanout;
}

TEST(FanoutMachine, HedgeWinsAndThePrimaryGetsExactlyOneCancel) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = hedgedTile(pool);
  EXPECT_EQ(fanout.next(), pollAt(0, 0));  // still running: no event
  EXPECT_EQ(fanout.next(), pollAt(0, 1, kHedge));
  fanout.finished(0, kHedge, doneRun(1000), 4.0);
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               cancelAt(0, 0, kPrimary, /*abandoned=*/true),
                               finishedTile(0)}));
  EXPECT_TRUE(fanout.done());
  const shard::TileRun& tile = fanout.report().tiles[0];
  EXPECT_TRUE(tile.hedged);
  EXPECT_EQ(tile.endpoint, "127.0.0.1:9002");
  EXPECT_EQ(tile.attempts, 2u);
  EXPECT_EQ(fanout.report().hedgesWon, 1u);
  EXPECT_EQ(pool.load(0) + pool.load(1), 0u);
}

TEST(FanoutMachine, PrimaryWinsAndTheHedgeIsAbandoned) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = hedgedTile(pool);
  EXPECT_EQ(fanout.next(), pollAt(0, 0));
  fanout.finished(0, kPrimary, doneRun(1000), 4.0);
  // The queued poll of the hedge is dropped, not sent.
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               cancelAt(0, 1, kHedge, /*abandoned=*/true),
                               finishedTile(0)}));
  EXPECT_FALSE(fanout.report().tiles[0].hedged);
  EXPECT_EQ(fanout.report().tiles[0].endpoint, "127.0.0.1:9001");
  EXPECT_EQ(fanout.report().hedgesWon, 0u);
}

TEST(FanoutMachine, PrimaryFailingUnderARunningHedgeIsNotRequeued) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = hedgedTile(pool);
  EXPECT_EQ(fanout.next(), pollAt(0, 0));
  fanout.pollFailed(0, kPrimary, FailureKind::EndpointDown, "EOF");
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{pollAt(0, 1, kHedge)});
  EXPECT_FALSE(pool.alive(0));
  EXPECT_EQ(fanout.report().requeues, 0u);
  fanout.tick(5.0);
  EXPECT_EQ(fanout.next(), pollAt(0, 1, kHedge));
  fanout.finished(0, kHedge, doneRun(1000), 5.0);
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{finishedTile(0)});
  EXPECT_TRUE(fanout.report().tiles[0].error.empty());
}

TEST(FanoutMachine, BothReplicasFailingRequeuesExcludingOnlyTheLastFailure) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = hedgedTile(pool);
  EXPECT_EQ(fanout.next(), pollAt(0, 0));
  fanout.pollFailed(0, kPrimary, FailureKind::EndpointBusy,
                    "ERR SHUTTING_DOWN");
  EXPECT_EQ(fanout.next(), pollAt(0, 1, kHedge));
  fanout.pollFailed(0, kHedge, FailureKind::EndpointBusy,
                    "ERR SHUTTING_DOWN");
  // Fresh round: endpoint 0, tried in the first round, gets another chance.
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               cancelAt(0, 1, kHedge), submitAt(0, 0)}));
  EXPECT_EQ(fanout.report().requeues, 1u);
  EXPECT_TRUE(pool.alive(0));
  EXPECT_TRUE(pool.alive(1));
}

TEST(FanoutMachine, BusyEndpointIsSkippedWithoutBeingMarkedDead) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout(pool, {1000}, {1.0}, 0.0, 600.0);
  EXPECT_EQ(fanout.next(), submitAt(0, 0));
  fanout.submitFailed(0, kPrimary, FailureKind::EndpointBusy,
                      "SUBMIT rejected: ERR QUEUE_FULL queue is full");
  EXPECT_EQ(fanout.next(), submitAt(0, 1));
  EXPECT_TRUE(pool.alive(0));
  EXPECT_EQ(pool.load(0), 0u);
  EXPECT_EQ(fanout.report().requeues, 1u);
  EXPECT_EQ(fanout.deadMarks(), 0u);
}

TEST(FanoutMachine, DownEndpointIsMarkedDeadAndItsTileRequeued) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = placed(pool, 2);
  fanout.tick(1.0);
  EXPECT_EQ(fanout.next(), pollAt(0, 0));
  fanout.pollFailed(0, kPrimary, FailureKind::EndpointDown,
                    "connection reset");
  // The requeue is placed before the pass moves on to tile 1.
  EXPECT_EQ(fanout.next(), cancelAt(0, 0));
  EXPECT_EQ(fanout.next(), submitAt(0, 1));
  fanout.submitted(0, kPrimary, 1.0);
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{pollAt(1, 1)});
  EXPECT_FALSE(pool.alive(0));
  EXPECT_EQ(fanout.deadMarks(), 1u);
  EXPECT_EQ(fanout.report().requeues, 1u);
  fanout.finished(0, kPrimary, doneRun(1000), 2.0);
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{finishedTile(0)});
  EXPECT_EQ(fanout.report().tiles[0].attempts, 2u);
  EXPECT_EQ(fanout.report().tiles[0].endpoint, "127.0.0.1:9002");
}

TEST(FanoutMachine, FatalRejectionDoomsTheRunAndCancelsEachReplicaOnce) {
  shard::EndpointPool pool = fleet(3);
  shard::Fanout fanout = placed(pool, 2, /*hedgeFactor=*/2.0);
  fanout.tick(3.0);  // tile 0 straggles onto the idle endpoint 2; tile 1
                     // then finds no idle endpoint left
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               pollAt(0, 0), submitAt(0, 2, kHedge),
                               pollAt(1, 1)}));
  fanout.submitted(0, kHedge, 3.0);
  fanout.tick(4.0);
  EXPECT_EQ(fanout.next(), pollAt(0, 0));
  EXPECT_EQ(fanout.next(), pollAt(0, 2, kHedge));
  EXPECT_EQ(fanout.next(), pollAt(1, 1));
  fanout.pollFailed(1, kPrimary, FailureKind::Fatal, "ERR UNKNOWN_JOB 2");
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{finishedTile(1)});
  EXPECT_EQ(fanout.report().tiles[1].error, "ERR UNKNOWN_JOB 2");

  fanout.tick(5.0);
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               cancelAt(0, 0), cancelAt(0, 2, kHedge),
                               pollAt(0, 0), pollAt(0, 2, kHedge)}));
  fanout.tick(5.02);  // the broadcast is one-time
  EXPECT_EQ(fanout.next(), pollAt(0, 0));
  shard::TileRun cancelled;
  cancelled.cancelled = true;
  fanout.finished(0, kPrimary, cancelled, 5.02);
  // The hedge already got its CANCEL from the broadcast: it is dropped
  // without a second one.
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{finishedTile(0)});
  EXPECT_TRUE(fanout.done());
  EXPECT_EQ(fanout.report().requeues, 0u);
  EXPECT_EQ(pool.load(0) + pool.load(1) + pool.load(2), 0u);
}

TEST(FanoutMachine, DoomStopsFurtherSubmissions) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout(pool, {1000, 1000}, {1.0, 1.0}, 0.0, 600.0);
  EXPECT_EQ(fanout.next(), submitAt(0, 0));
  fanout.submitFailed(0, kPrimary, FailureKind::Fatal, "ERR BAD_JOB x");
  EXPECT_EQ(drain(fanout),
            (std::vector<FanoutAction>{finishedTile(0), finishedTile(1)}));
  EXPECT_EQ(fanout.report().tiles[1].error,
            "not submitted: an earlier tile already failed");
  EXPECT_EQ(fanout.report().tiles[1].attempts, 1u);
  EXPECT_TRUE(fanout.done());
}

TEST(FanoutMachine, CancelMidRunBroadcastsAndStopsHedgesAndRequeues) {
  shard::EndpointPool pool = fleet(3);
  shard::Fanout fanout = placed(pool, 2, /*hedgeFactor=*/2.0);
  fanout.cancelRequested();
  fanout.tick(100.0);  // a straggler with an idle endpoint, yet no hedge
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               cancelAt(0, 0), cancelAt(1, 1), pollAt(0, 0),
                               pollAt(1, 1)}));
  fanout.tick(100.02);
  EXPECT_EQ(fanout.next(), pollAt(0, 0));
  shard::TileRun cancelled;
  cancelled.cancelled = true;
  fanout.finished(0, kPrimary, cancelled, 100.02);
  EXPECT_EQ(fanout.next(), finishedTile(0));
  EXPECT_EQ(fanout.next(), pollAt(1, 1));
  fanout.pollFailed(1, kPrimary, FailureKind::EndpointDown, "EOF");
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{finishedTile(1)});
  EXPECT_TRUE(fanout.report().tiles[0].cancelled);
  EXPECT_EQ(fanout.report().tiles[1].error, "EOF");
  EXPECT_EQ(fanout.report().hedgesIssued, 0u);
  EXPECT_EQ(fanout.report().requeues, 0u);
}

TEST(FanoutMachine, TimeoutCountsAsATransportFailure) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = placed(pool, 1, 0.0, /*timeout=*/10.0);
  fanout.tick(10.0);  // not yet strictly over
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{pollAt(0, 0)});
  fanout.tick(10.5);
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{cancelAt(0, 0),
                                                      submitAt(0, 1)}));
  EXPECT_FALSE(pool.alive(0));
  EXPECT_EQ(fanout.deadMarks(), 1u);
  EXPECT_EQ(fanout.report().requeues, 1u);
}

TEST(FanoutMachine, NoUsableEndpointLeftFailsTheTileWithTheFleetInTheError) {
  shard::EndpointPool pool(
      {{"127.0.0.1", 9001, 2}, {"127.0.0.1", 9002, 1}});
  shard::Fanout fanout(pool, {1000}, {1.0}, 0.0, 600.0);
  EXPECT_EQ(fanout.next(), submitAt(0, 0));
  fanout.submitFailed(0, kPrimary, FailureKind::EndpointDown,
                      "cannot connect to 127.0.0.1:9001");
  EXPECT_EQ(fanout.next(), submitAt(0, 1));
  fanout.submitFailed(0, kPrimary, FailureKind::EndpointBusy,
                      "SUBMIT rejected: ERR QUEUE_FULL");
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{finishedTile(0)});
  EXPECT_EQ(fanout.report().tiles[0].error,
            "no usable endpoint left (fleet: 127.0.0.1:9001*2,"
            "127.0.0.1:9002, 1 marked dead)");
  EXPECT_EQ(fanout.report().tiles[0].attempts, 2u);
  EXPECT_TRUE(fanout.done());
}

TEST(FanoutMachine, FailedRemoteJobFailsTheTileInsteadOfRequeueing) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = placed(pool, 2);
  fanout.tick(1.0);
  EXPECT_EQ(fanout.next(), pollAt(0, 0));
  shard::TileRun failed;
  failed.error = "remote job failed";
  fanout.finished(0, kPrimary, failed, 1.0);
  EXPECT_EQ(drain(fanout),
            (std::vector<FanoutAction>{finishedTile(0), pollAt(1, 1)}));
  fanout.tick(1.02);  // doomed: tile 1 is wound down
  EXPECT_EQ(drain(fanout),
            (std::vector<FanoutAction>{cancelAt(1, 1), pollAt(1, 1)}));
  EXPECT_EQ(fanout.report().requeues, 0u);
}

TEST(FanoutMachine, HedgeSubmitFailureLeavesThePrimaryStanding) {
  shard::EndpointPool pool = fleet(2);
  shard::Fanout fanout = placed(pool, 1, /*hedgeFactor=*/2.0);
  fanout.tick(3.0);
  EXPECT_EQ(drain(fanout), (std::vector<FanoutAction>{
                               pollAt(0, 0), submitAt(0, 1, kHedge)}));
  fanout.submitFailed(0, kHedge, FailureKind::Fatal, "ERR BAD_JOB x");
  EXPECT_EQ(drain(fanout), std::vector<FanoutAction>{});
  EXPECT_FALSE(fanout.done());
  EXPECT_EQ(pool.load(1), 0u);
  EXPECT_TRUE(pool.alive(1));
  EXPECT_EQ(fanout.report().hedgesIssued, 0u);
}

// ---------------------------------------------------------------------------
// Cost calibration (§IX): committed constants and the measured-ratio band
// ---------------------------------------------------------------------------

TEST(CostCalibration, PredictionIsLinearInIterationsAndActivity) {
  const core::CostCalibration& cal = core::defaultCostCalibration();
  EXPECT_GT(cal.secondsPerIteration, 0.0);
  EXPECT_GT(cal.densityWeight, 0.0);

  const double base = core::predictCostSeconds(1000, 0.0);
  EXPECT_DOUBLE_EQ(base, 1000.0 * cal.secondsPerIteration);
  EXPECT_DOUBLE_EQ(core::predictCostSeconds(2000, 0.0), 2.0 * base);
  EXPECT_DOUBLE_EQ(core::predictCostSeconds(1000, 1.0),
                   base * (1.0 + cal.densityWeight));
  // Activity clamps to [0, 1]: garbage inputs cannot explode a budget split.
  EXPECT_DOUBLE_EQ(core::predictCostSeconds(1000, 7.0),
                   core::predictCostSeconds(1000, 1.0));
  EXPECT_DOUBLE_EQ(core::predictCostSeconds(1000, -3.0), base);
  EXPECT_DOUBLE_EQ(core::predictCostSeconds(0, 0.5), 0.0);
}

TEST(CostCalibration, CommittedConstantTracksMeasuredSerialRuntime) {
  // Regression band for the committed secondsPerIteration: a real serial
  // run on a 512x512 scene must land within a generous factor of the
  // prediction. The band absorbs debug-vs-release builds, sanitizer
  // overhead and machine speed — what it catches is silent decade-scale
  // drift after kernel rewrites, which would quietly corrupt every
  // admission and budget-split decision derived from the constant.
  const img::Scene scene =
      img::generateScene(img::cellScene(512, 512, 20, 9.0, 31));
  engine::Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 9.0;
  problem.prior.radiusStd = 1.0;
  problem.prior.radiusMin = 4.0;
  problem.prior.radiusMax = 15.0;

  const std::uint64_t iterations = 10000;
  const engine::Engine engine(engine::ExecResources{1, false, 17});
  const engine::RunReport report = engine.run(
      "serial", problem, engine::RunBudget{iterations, 0}, {}, {});
  ASSERT_GT(report.wallSeconds, 0.0);

  const double predicted = core::predictCostSeconds(iterations, 0.0);
  const double ratio = report.wallSeconds / predicted;
  EXPECT_GT(ratio, 1.0 / 50.0)
      << "measured " << report.wallSeconds << "s vs predicted " << predicted
      << "s — recalibrate CostCalibration::secondsPerIteration";
  EXPECT_LT(ratio, 50.0)
      << "measured " << report.wallSeconds << "s vs predicted " << predicted
      << "s — recalibrate CostCalibration::secondsPerIteration";
}

// ---------------------------------------------------------------------------
// Adaptive tiling: invariants over 500 random densities
// ---------------------------------------------------------------------------

bool rectsOverlap(const partition::IRect& a, const partition::IRect& b) {
  return a.x0 < b.x0 + b.w && b.x0 < a.x0 + a.w &&  //
         a.y0 < b.y0 + b.h && b.y0 < a.y0 + a.h;
}

TEST(AdaptiveTiling, InvariantsHoldAcrossRandomDensities) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 500; ++trial) {
    shard::DensityMap density;
    density.width = 40 + static_cast<int>(rng() % 261);   // 40..300
    density.height = 40 + static_cast<int>(rng() % 261);
    density.blockSize = 8 * (1 + static_cast<int>(rng() % 3));  // 8/16/24
    density.blocksX =
        (density.width + density.blockSize - 1) / density.blockSize;
    density.blocksY =
        (density.height + density.blockSize - 1) / density.blockSize;
    density.activity.resize(static_cast<std::size_t>(density.blocksX) *
                            density.blocksY);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    for (double& a : density.activity) a = uniform(rng);

    const int maxTiles = 1 + static_cast<int>(rng() % 12);
    const int halo = static_cast<int>(rng() % 21);
    const int minTileSize = 8 + static_cast<int>(rng() % 41);
    const shard::TileGrid grid = shard::makeAdaptiveTileGrid(
        density, maxTiles, halo, minTileSize);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 std::to_string(density.width) + "x" +
                 std::to_string(density.height) + " maxTiles=" +
                 std::to_string(maxTiles) + " minTileSize=" +
                 std::to_string(minTileSize));

    // Shape: a flat adaptive list, capped by maxTiles.
    ASSERT_FALSE(grid.tiles.empty());
    EXPECT_TRUE(grid.adaptive);
    EXPECT_LE(static_cast<int>(grid.tiles.size()), maxTiles);
    EXPECT_EQ(grid.gridX, static_cast<int>(grid.tiles.size()));
    EXPECT_EQ(grid.gridY, 1);

    long long coreArea = 0;
    const int minW = std::min(minTileSize, density.width);
    const int minH = std::min(minTileSize, density.height);
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      const shard::TileSpec& tile = grid.tiles[i];
      EXPECT_EQ(tile.ix, static_cast<int>(i));
      EXPECT_EQ(tile.iy, 0);
      // Cores stay inside the image and honour the minimum tile size.
      EXPECT_GE(tile.core.x0, 0);
      EXPECT_GE(tile.core.y0, 0);
      EXPECT_LE(tile.core.x0 + tile.core.w, density.width);
      EXPECT_LE(tile.core.y0 + tile.core.h, density.height);
      EXPECT_GE(tile.core.w, minW);
      EXPECT_GE(tile.core.h, minH);
      coreArea += tile.core.area();
      // The halo contains the core and clips to the image.
      EXPECT_LE(tile.halo.x0, tile.core.x0);
      EXPECT_LE(tile.halo.y0, tile.core.y0);
      EXPECT_GE(tile.halo.x0 + tile.halo.w, tile.core.x0 + tile.core.w);
      EXPECT_GE(tile.halo.y0 + tile.halo.h, tile.core.y0 + tile.core.h);
      EXPECT_GE(tile.halo.x0, 0);
      EXPECT_GE(tile.halo.y0, 0);
      EXPECT_LE(tile.halo.x0 + tile.halo.w, density.width);
      EXPECT_LE(tile.halo.y0 + tile.halo.h, density.height);
      // Disjoint cores (pairwise; with the exact area sum below this
      // proves the cores tile the image).
      for (std::size_t j = i + 1; j < grid.tiles.size(); ++j) {
        EXPECT_FALSE(rectsOverlap(tile.core, grid.tiles[j].core))
            << "tiles " << i << " and " << j << " overlap";
      }
    }
    EXPECT_EQ(coreArea,
              static_cast<long long>(density.width) * density.height);

    // The decomposition is a pure function of its inputs.
    const shard::TileGrid again = shard::makeAdaptiveTileGrid(
        density, maxTiles, halo, minTileSize);
    ASSERT_EQ(again.tiles.size(), grid.tiles.size());
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      EXPECT_EQ(again.tiles[i], grid.tiles[i]);
    }
  }
}

TEST(AdaptiveTiling, BalancesADenseCornerBetterThanFixedGrids) {
  // A 512x512 image with all content in the top-left 128x128: the fixed
  // 2x2 grid piles the whole content surcharge onto one tile, while the
  // adaptive split at the same tile count must cut the predicted
  // bottleneck (the max per-tile workload — the parallel wall floor).
  shard::DensityMap density;
  density.width = 512;
  density.height = 512;
  density.blockSize = 16;
  density.blocksX = 32;
  density.blocksY = 32;
  density.activity.assign(32 * 32, 0.0);
  for (int by = 0; by < 8; ++by) {
    for (int bx = 0; bx < 8; ++bx) density.activity[by * 32 + bx] = 1.0;
  }
  const double densityWeight = core::defaultCostCalibration().densityWeight;

  const auto maxWorkload = [&](const shard::TileGrid& grid) {
    double worst = 0.0;
    for (const shard::TileSpec& tile : grid.tiles) {
      worst = std::max(
          worst, shard::regionWorkload(density, tile.core, densityWeight));
    }
    return worst;
  };

  const shard::TileGrid fixed = shard::makeTileGrid(512, 512, 2, 2, 0);
  const shard::TileGrid adaptive =
      shard::makeAdaptiveTileGrid(density, 4, 0, 32, densityWeight);
  ASSERT_EQ(adaptive.tiles.size(), 4u);
  EXPECT_LT(maxWorkload(adaptive), 0.8 * maxWorkload(fixed));
}

TEST(AdaptiveTiling, RejectsDegenerateInputs) {
  shard::DensityMap empty;
  EXPECT_THROW((void)shard::makeAdaptiveTileGrid(empty, 4, 0),
               std::invalid_argument);
  shard::DensityMap density;
  density.width = 64;
  density.height = 64;
  density.blockSize = 16;
  density.blocksX = 4;
  density.blocksY = 4;
  density.activity.assign(16, 0.0);
  EXPECT_THROW((void)shard::makeAdaptiveTileGrid(density, 0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)shard::makeAdaptiveTileGrid(density, 4, -1),
               std::invalid_argument);
  EXPECT_THROW((void)shard::makeAdaptiveTileGrid(density, 4, 0, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The sharded strategy with tiles=auto, end to end on the local backend
// ---------------------------------------------------------------------------

img::Scene schedScene() {
  return img::generateScene(img::cellScene(96, 96, 6, 8.0, 17));
}

engine::Problem schedProblem(const img::Scene& scene) {
  engine::Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 1.0;
  problem.prior.radiusMin = 4.0;
  problem.prior.radiusMax = 14.0;
  return problem;
}

TEST(AdaptiveSharded, AutoGridRunsLocallyAndIsDeterministic) {
  const img::Scene scene = schedScene();
  const engine::Engine engine(engine::ExecResources{2, false, 21});
  const std::vector<std::string> options = {
      "tiles=auto", "max-tiles=4", "min-tile-size=24", "halo=12",
      "min-tile-iters=500"};
  const engine::RunReport report = engine.run(
      "sharded", schedProblem(scene), engine::RunBudget{8000, 0}, {},
      options);

  EXPECT_FALSE(report.cancelled);
  EXPECT_GE(report.iterations, 8000u);
  const auto& extras = std::get<shard::ShardReport>(report.extras);
  EXPECT_TRUE(extras.adaptive);
  EXPECT_EQ(extras.backend, "local");
  EXPECT_GE(extras.tiles.size(), 2u);
  EXPECT_LE(extras.tiles.size(), 4u);
  EXPECT_EQ(extras.gridX, static_cast<int>(extras.tiles.size()));
  std::uint64_t tileIters = 0;
  for (const shard::TileRun& tile : extras.tiles) {
    EXPECT_TRUE(tile.error.empty()) << tile.error;
    EXPECT_FALSE(tile.hedged);  // hedging is socket-only
    tileIters += tile.iterations;
  }
  EXPECT_EQ(tileIters, report.iterations);
  EXPECT_EQ(extras.hedgesIssued, 0u);
  EXPECT_EQ(extras.hedgesWon, 0u);

  const engine::RunReport again = engine.run(
      "sharded", schedProblem(scene), engine::RunBudget{8000, 0}, {},
      options);
  ASSERT_EQ(again.circles.size(), report.circles.size());
  for (std::size_t i = 0; i < report.circles.size(); ++i) {
    EXPECT_EQ(again.circles[i], report.circles[i]) << i;
  }
  EXPECT_DOUBLE_EQ(again.logPosterior, report.logPosterior);
}

TEST(AdaptiveSharded, RejectsBadSchedulingOptionsAtCreation) {
  const engine::StrategyRegistry& registry =
      engine::StrategyRegistry::builtin();
  EXPECT_NO_THROW((void)registry.create("sharded", {}, {"tiles=auto"}));
  EXPECT_NO_THROW((void)registry.create(
      "sharded", {}, {"tiles=auto", "max-tiles=8", "min-tile-size=16"}));
  EXPECT_THROW((void)registry.create("sharded", {}, {"max-tiles=5000"}),
               engine::EngineError);
  EXPECT_THROW((void)registry.create("sharded", {}, {"min-tile-size=0"}),
               engine::EngineError);
  EXPECT_THROW((void)registry.create("sharded", {}, {"hedge-factor=-1"}),
               engine::EngineError);
  EXPECT_THROW((void)registry.create("sharded", {}, {"hedge-factor=soon"}),
               engine::EngineError);
  EXPECT_NO_THROW((void)registry.create("sharded", {}, {"hedge-factor=0"}));
}

// ---------------------------------------------------------------------------
// @client / @iters manifest grammar
// ---------------------------------------------------------------------------

TEST(ClientDirective, ParsesNameAndOptionalWeight) {
  const engine::ManifestEntry plain =
      engine::parseManifestLine("synth serial @client=alice");
  EXPECT_EQ(plain.client, "alice");
  EXPECT_FALSE(plain.clientWeight.has_value());

  const engine::ManifestEntry weighted =
      engine::parseManifestLine("synth serial @client=batch-42.night*3");
  EXPECT_EQ(weighted.client, "batch-42.night");
  ASSERT_TRUE(weighted.clientWeight.has_value());
  EXPECT_EQ(*weighted.clientWeight, 3u);

  const engine::ManifestEntry none =
      engine::parseManifestLine("synth serial");
  EXPECT_TRUE(none.client.empty());
  EXPECT_FALSE(none.clientWeight.has_value());
}

TEST(ClientDirective, RejectsBadNamesAndWeights) {
  for (const std::string& bad :
       {std::string("@client="), std::string("@client=*2"),
        std::string("@client=has space"), std::string("@client=uh/oh"),
        std::string("@client=a*0"), std::string("@client=a*1001"),
        std::string("@client=a*big"), std::string("@client=a*2*3"),
        "@client=" + std::string(65, 'x')}) {
    EXPECT_THROW(
        (void)engine::parseManifestLine("synth serial " + bad),
        engine::EngineError)
        << bad;
  }
  // 64 chars is the inclusive limit.
  EXPECT_NO_THROW((void)engine::parseManifestLine(
      "synth serial @client=" + std::string(64, 'x')));
}

TEST(ItersDirective, RejectsZeroAndAbsurdBudgetsAtParseTime) {
  // @iters=0 would "succeed" with an empty model; huge values would pin a
  // worker for centuries. Both reject at admission with the bounds named.
  for (const std::string& bad :
       {std::string("0"),
        std::to_string(engine::kMaxJobIterations + 1),
        std::string("99999999999999999999")}) {
    try {
      (void)engine::parseManifestLine("synth serial @iters=" + bad);
      FAIL() << "@iters=" << bad << " accepted";
    } catch (const engine::EngineError& e) {
      EXPECT_NE(std::string(e.what()).find("@iters"), std::string::npos)
          << e.what();
    }
  }
  // Both ends of the legal range parse.
  EXPECT_EQ(*engine::parseManifestLine("synth serial @iters=1").iterations,
            1u);
  EXPECT_EQ(*engine::parseManifestLine(
                 "synth serial @iters=" +
                 std::to_string(engine::kMaxJobIterations))
                 .iterations,
            engine::kMaxJobIterations);
}

TEST(ItersDirective, BatchManifestDiagnosticsCarryLineNumbers) {
  std::istringstream manifest(
      "synth serial @iters=100\n"
      "synth serial @iters=0\n");
  try {
    (void)engine::parseBatchManifest(manifest);
    FAIL() << "zero @iters accepted through the batch path";
  } catch (const engine::EngineError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("manifest line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("@iters"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// JobQueue: weighted-fair admission end to end (in process)
// ---------------------------------------------------------------------------

serve::JobSpec specFor(const std::string& client, unsigned weight = 0) {
  serve::JobSpec spec;
  spec.image = "synth";
  spec.strategy = "serial";
  spec.client = client;
  if (weight != 0) spec.clientWeight = weight;
  return spec;
}

TEST(JobQueueFairness, DispatchFollowsTheDeficitSchedule) {
  // Mirror of CheapJobsOvertakeExpensiveOnes through the real queue
  // (quantum 0.25): heavy jobs cost 1.0 (4 rounds each), light 0.25
  // (1 round), so the whole light backlog overtakes heavy's queue.
  serve::JobQueue queue;
  std::vector<std::uint64_t> heavy;
  std::vector<std::uint64_t> light;
  heavy.push_back(queue.submit(specFor("heavy"), 1.0));
  heavy.push_back(queue.submit(specFor("heavy"), 1.0));
  for (int i = 0; i < 3; ++i) {
    light.push_back(queue.submit(specFor("light"), 0.25));
  }

  std::vector<std::uint64_t> order;
  while (auto id = queue.waitNext(0ms)) order.push_back(*id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{light[0], light[1], light[2],
                                               heavy[0], heavy[1]}));

  // Dispatch stamps the queue wait and the per-client accounting.
  const auto status = queue.status(light[0]);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->client, "light");
  EXPECT_DOUBLE_EQ(status->predictedCostSeconds, 0.25);
  EXPECT_GE(status->queueSeconds, 0.0);

  const auto clients = queue.clientStats();
  ASSERT_EQ(clients.size(), 2u);  // sorted by name: heavy, light
  EXPECT_EQ(clients[0].client, "heavy");
  EXPECT_EQ(clients[0].submitted, 2u);
  EXPECT_EQ(clients[0].served, 2u);
  EXPECT_EQ(clients[0].queued, 0u);
  EXPECT_NEAR(clients[0].costServed, 2.0, 1e-9);
  EXPECT_NEAR(clients[0].costQueued, 0.0, 1e-9);
  EXPECT_EQ(clients[1].client, "light");
  EXPECT_EQ(clients[1].served, 3u);
  EXPECT_NEAR(clients[1].costServed, 0.75, 1e-9);
}

TEST(JobQueueFairness, WeightsApplyAndDefaultClientIsOneBucket) {
  serve::JobQueue queue;
  // b at weight 3, unit costs, quantum 0.25 -> the DeficitScheduler trace
  // from WeightTriplesAClientsShare scaled down: a, b, b, b, a, b, a, a.
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  for (int i = 0; i < 4; ++i) a.push_back(queue.submit(specFor("a"), 0.25));
  for (int i = 0; i < 4; ++i) {
    b.push_back(queue.submit(specFor("b", 3), 0.25));
  }
  std::vector<std::uint64_t> order;
  while (auto id = queue.waitNext(0ms)) order.push_back(*id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{a[0], b[0], b[1], b[2], a[1],
                                               b[3], a[2], a[3]}));

  // No @client anywhere -> one "default" bucket, plain FIFO.
  serve::JobQueue fifo;
  std::vector<std::uint64_t> ids;
  ids.push_back(fifo.submit(specFor(""), 5.0));
  ids.push_back(fifo.submit(specFor(""), 0.01));
  ids.push_back(fifo.submit(specFor(""), 2.0));
  std::vector<std::uint64_t> fifoOrder;
  while (auto id = fifo.waitNext(0ms)) fifoOrder.push_back(*id);
  EXPECT_EQ(fifoOrder, ids);
  const auto status = fifo.status(ids[0]);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->client, "default");
}

TEST(JobQueueFairness, CancelRemovesFromTheScheduleAndAccounting) {
  serve::JobQueue queue;
  const std::uint64_t doomed = queue.submit(specFor("c"), 1.0);
  const std::uint64_t kept = queue.submit(specFor("c"), 1.0);
  EXPECT_EQ(queue.cancel(doomed), serve::CancelOutcome::QueuedCancelled);

  const auto next = queue.waitNext(0ms);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, kept);
  EXPECT_FALSE(queue.waitNext(0ms).has_value());

  const auto status = queue.status(doomed);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, serve::JobState::Cancelled);
  // A job cancelled while queued spent its whole life waiting.
  EXPECT_DOUBLE_EQ(status->queueSeconds, status->latencySeconds);

  const auto clients = queue.clientStats();
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0].submitted, 2u);
  EXPECT_EQ(clients[0].served, 1u);
  EXPECT_EQ(clients[0].queued, 0u);
  EXPECT_NEAR(clients[0].costQueued, 0.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Live socket regressions: straggler hedging and starvation
// ---------------------------------------------------------------------------

/// The numeric value after `"key": ` in a one-line JSON reply (NaN when
/// absent) — enough for the protocol's flat number fields.
double jsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::stod(json.substr(pos + needle.size()));
}

TEST(HedgedShardedRun, BeatsAStragglerAndStaysBitIdentical) {
  // A fleet with one artificially slow endpoint (listed first, so the
  // only tile lands on it): the coordinator must hedge onto the idle fast
  // endpoint well before the straggler wakes, take the replica's result,
  // and produce exactly the circles an unhedged local run produces —
  // hedging may only ever change latency, never output.
  constexpr unsigned kDelayMs = 3000;
  serve::ServerOptions slowOptions;
  slowOptions.threads = 2;
  slowOptions.startDelayMs = kDelayMs;
  serve::Server slowServer(slowOptions);
  serve::SocketFrontend slowSocket(slowServer, 0);
  serve::ServerOptions fastOptions;
  fastOptions.threads = 2;
  serve::Server fastServer(fastOptions);
  serve::SocketFrontend fastSocket(fastServer, 0);

  const img::Scene scene = schedScene();
  const engine::Engine engine(engine::ExecResources{2, false, 7});
  const std::vector<std::string> common = {"tiles=1x1", "halo=12",
                                           "min-tile-iters=500"};
  std::vector<std::string> hedged = common;
  hedged.push_back("backend=socket");
  hedged.push_back("hedge-factor=0.25");
  hedged.push_back("timeout=30");
  hedged.push_back("endpoints=127.0.0.1:" +
                   std::to_string(slowSocket.port()) + ",127.0.0.1:" +
                   std::to_string(fastSocket.port()));

  const auto started = std::chrono::steady_clock::now();
  const engine::RunReport report =
      engine.run("sharded", schedProblem(scene), engine::RunBudget{4000, 0},
                 {}, hedged);
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  EXPECT_FALSE(report.cancelled);
  const auto& extras = std::get<shard::ShardReport>(report.extras);
  EXPECT_EQ(extras.hedgesIssued, 1u);
  EXPECT_EQ(extras.hedgesWon, 1u);
  ASSERT_EQ(extras.tiles.size(), 1u);
  EXPECT_TRUE(extras.tiles[0].hedged);
  EXPECT_TRUE(extras.tiles[0].error.empty()) << extras.tiles[0].error;
  EXPECT_EQ(extras.tiles[0].endpoint,
            "127.0.0.1:" + std::to_string(fastSocket.port()));
  // "Faster": an unhedged run could not finish before the straggler's
  // start delay elapsed; the hedged run must.
  EXPECT_LT(wallSeconds, kDelayMs / 1000.0);

  // Bit-identity against the unhedged local backend.
  const engine::RunReport reference = engine.run(
      "sharded", schedProblem(scene), engine::RunBudget{4000, 0}, {},
      common);
  ASSERT_EQ(report.circles.size(), reference.circles.size());
  for (std::size_t i = 0; i < reference.circles.size(); ++i) {
    EXPECT_EQ(report.circles[i], reference.circles[i]) << i;
  }
  EXPECT_DOUBLE_EQ(report.logPosterior, reference.logPosterior);
  EXPECT_EQ(report.iterations, reference.iterations);

  slowSocket.stop();
  slowServer.shutdown(5.0);
  fastSocket.stop();
  fastServer.shutdown(5.0);
}

TEST(WeightedFairServer, LightClientIsNotStarvedByAHeavyBacklog) {
  // One worker; a heavy client floods the queue with expensive jobs, then
  // a light client submits small ones. Under FIFO the light jobs would
  // wait out the whole heavy backlog; under cost-aware DRR every light
  // job dispatches before the remaining heavy ones, so each light queue
  // wait is strictly below each remaining heavy wait.
  serve::ServerOptions options;
  options.threads = 1;
  options.maxConcurrentJobs = 1;
  options.synthWidth = 64;
  options.synthHeight = 64;
  options.synthCells = 3;
  options.radius = 8.0;
  serve::Server server(options);
  serve::SocketFrontend frontend(server, 0);
  serve::Client client;
  client.connect("127.0.0.1", frontend.port(), 30.0);

  // A long-running plug keeps the worker busy until every submission is
  // queued, making the dispatch order a pure scheduler decision.
  const std::uint64_t plug =
      client.submit("synth serial @iters=500000000 @client=heavy");
  std::vector<std::uint64_t> heavy;
  for (int i = 0; i < 3; ++i) {
    heavy.push_back(
        client.submit("synth serial @iters=20000 @client=heavy"));
  }
  std::vector<std::uint64_t> light;
  for (int i = 0; i < 3; ++i) {
    light.push_back(client.submit("synth serial @iters=500 @client=light"));
  }
  EXPECT_EQ(client.request("CANCEL " + std::to_string(plug))
                .rfind("OK", 0),
            0u);

  double lightWorst = 0.0;
  for (const std::uint64_t id : light) {
    EXPECT_EQ(client.wait(id), "done");
    const std::string result =
        client.request("RESULT " + std::to_string(id));
    ASSERT_EQ(result.rfind("OK ", 0), 0u) << result;
    EXPECT_NE(result.find("\"client\": \"light\""), std::string::npos)
        << result;
    lightWorst = std::max(lightWorst, jsonNumber(result, "queue_seconds"));
  }
  double heavyBest = std::numeric_limits<double>::infinity();
  for (const std::uint64_t id : heavy) {
    EXPECT_EQ(client.wait(id), "done");
    const std::string result =
        client.request("RESULT " + std::to_string(id));
    ASSERT_EQ(result.rfind("OK ", 0), 0u) << result;
    heavyBest = std::min(heavyBest, jsonNumber(result, "queue_seconds"));
  }
  EXPECT_LT(lightWorst, heavyBest);

  // STATS exposes the per-client buckets.
  const std::string stats = client.request("STATS");
  EXPECT_NE(stats.find("\"clients\": {"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"heavy\": {"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"light\": {"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cost_served\": "), std::string::npos) << stats;

  frontend.stop();
  server.shutdown(10.0);
}

}  // namespace
}  // namespace mcmcpar
