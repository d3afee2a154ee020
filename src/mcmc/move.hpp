#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "model/posterior.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::mcmc {

/// The paper's move taxonomy (§V): global moves (Mg) touch properties shared
/// across the whole image (here: the circle count) and cannot run in
/// parallel; local moves (Ml) fine-tune a single feature and may run
/// concurrently in distant partitions.
enum class MoveKind : std::uint8_t { Global, Local };

/// Restriction of move proposals to one partition of the image.
///
/// A feature is *modifiable* iff its disc, expanded by `margin`, lies
/// strictly inside `rect`; proposals must keep it so. This is the paper's
/// legality rule: "no feature may be created or moved such that any part of
/// it (or its prior/likelihood considered area) intersects with its
/// partition's boundary". The margin also keeps the in-place executor free
/// of torn reads: concurrent phases never read each other's geometry
/// (partition::inPlaceSafetyMargin).
struct RegionConstraint {
  model::Bounds rect;
  double margin = 0.0;

  [[nodiscard]] bool allowsCircle(const model::Circle& c) const noexcept {
    return rect.containsDisc(c, margin);
  }

  /// Legal centre interval along x for a circle of radius r ([lo, hi];
  /// empty when lo > hi).
  [[nodiscard]] double centreXLo(double r) const noexcept { return rect.x0 + margin + r; }
  [[nodiscard]] double centreXHi(double r) const noexcept { return rect.x1 - margin - r; }
  [[nodiscard]] double centreYLo(double r) const noexcept { return rect.y0 + margin + r; }
  [[nodiscard]] double centreYHi(double r) const noexcept { return rect.y1 - margin - r; }

  /// Largest radius whose disc (plus margin) fits at centre (x, y).
  [[nodiscard]] double maxRadiusAt(double x, double y) const noexcept;

  /// The whole-domain constraint (margin 0) for unconstrained sampling.
  [[nodiscard]] static RegionConstraint wholeDomain(const model::ModelState& state) noexcept {
    return RegionConstraint{state.bounds(), 0.0};
  }
};

/// What a move proposal may select from: `candidates` limits the pick to a
/// pre-filtered id list (the executor's modifiable set for a partition);
/// nullptr means all alive circles. `region` constrains geometry; nullptr
/// means the whole domain.
struct SelectionContext {
  const std::vector<model::CircleId>* candidates = nullptr;
  const RegionConstraint* region = nullptr;
};

/// A fully evaluated move proposal, ready for the accept/reject coin flip.
///
/// Proposals are evaluated read-only against the current state (this is what
/// makes speculative execution possible, §IV/[11]) and committed separately.
///
/// Deferred exact deltas: add, delete and the replace-type moves may carry
/// an estimated posterior delta (ModelState::estimate*, exact whenever a
/// disc they change shares a pixel with another). decideMove settles most
/// rejections on the estimate and its error bound, and refines to the exact
/// delta before every acceptance and every close call, so a chain's draws,
/// decisions and committed deltas are the exact path's, bit for bit. Split
/// and merge are always exact.
struct PendingMove {
  enum class Op : std::uint8_t { None, Add, Delete, Replace, Merge, Split };

  Op op = Op::None;
  /// log of the Metropolis-Hastings acceptance ratio (eq. 1), including
  /// posterior ratio, proposal ratio and any reversible-jump Jacobian.
  double logAlpha = -std::numeric_limits<double>::infinity();
  /// The log-posterior change this move would cause (the posterior part of
  /// logAlpha). Commit paths fold it into the cached posterior instead of
  /// re-evaluating, and the in-place parallel executor accumulates it
  /// thread-locally.
  double logPosteriorDelta = 0.0;
  /// True while logPosteriorDelta is an estimate:
  /// |logPosteriorDelta - exact| <= deltaError.
  bool estimated = false;
  double deltaError = 0.0;
  /// The proposal terms of logAlpha = ((logPosteriorDelta + logQRev) -
  /// logQFwd), kept so refinement rebuilds it with the same expression
  /// (add, delete and replace-type moves only).
  double logQRev = 0.0;
  double logQFwd = 0.0;
  /// The inverse temperature mc3 tempered logAlpha with, if any.
  std::optional<double> beta;
  model::CircleId id0 = model::kInvalidCircle;
  model::CircleId id1 = model::kInvalidCircle;
  model::Circle c0;
  model::Circle c1;

  /// False when no feasible proposal could be generated (empty selection,
  /// no merge partner, geometry out of bounds); counts as a rejected
  /// iteration, which preserves the move-probability bookkeeping.
  [[nodiscard]] bool valid() const noexcept { return op != Op::None; }
};

/// Abstract move type. Implementations are stateless (all chain state lives
/// in ModelState; all randomness comes from the passed Stream), so one Move
/// instance may be shared by concurrent samplers.
class Move {
 public:
  virtual ~Move();

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual MoveKind kind() const noexcept = 0;

  /// Generate and evaluate one proposal. Read-only on `state`.
  [[nodiscard]] virtual PendingMove propose(const model::ModelState& state,
                                            const SelectionContext& ctx,
                                            rng::Stream& stream) const = 0;
};

/// Set a proposal's posterior delta from `delta` and its logAlpha to
/// ((delta + logQRev) - logQFwd).
void setPosteriorDelta(PendingMove& pending,
                       const model::ModelState::DeltaEstimate& delta,
                       double logQRev, double logQFwd) noexcept;

/// Temper the posterior part of logAlpha by `beta` (mc3): proposal ratios
/// and Jacobians belong to the transition kernel, not to the target.
void temper(PendingMove& pending, double beta) noexcept;

/// Bound on |logAlpha - exact logAlpha| for an estimated proposal, covering
/// the delta's error and the rounding of logAlpha's (and tempering's)
/// additions.
[[nodiscard]] double logAlphaError(const PendingMove& pending) noexcept;

/// Replace an estimated delta by the exact ModelState::delta* value and
/// rebuild logAlpha (and its tempering) with the move's own expression: the
/// exact path's bits. No-op for an exact proposal.
void refine(const model::ModelState& state, PendingMove& pending);

/// The MH accept/reject decision, the one every executor uses. Draws the
/// uniform exactly when the exact path would (logAlpha < 0). An estimated
/// proposal is rejected without further work when log u clears its upper
/// bound logAlpha + logAlphaError; otherwise, and before every acceptance,
/// it is refined first. Returns true to accept; `pending` is then exact.
[[nodiscard]] bool decideMove(const model::ModelState& state,
                              PendingMove& pending, rng::Stream& stream);

/// Commit an accepted proposal to the state (an estimated one is refined
/// first). Precondition: pending.valid().
void commitPending(model::ModelState& state, const PendingMove& pending);

/// decideMove, then commitPending on acceptance. Returns true when the
/// state changed.
bool acceptAndCommit(model::ModelState& state, PendingMove pending,
                     rng::Stream& stream);

/// Uniformly pick a circle id from the selection context (candidate list or
/// whole configuration); kInvalidCircle when nothing is selectable.
[[nodiscard]] model::CircleId pickCircle(const model::ModelState& state,
                                         const SelectionContext& ctx,
                                         rng::Stream& stream) noexcept;

/// Number of selectable circles in the context.
[[nodiscard]] std::size_t selectableCount(const model::ModelState& state,
                                          const SelectionContext& ctx) noexcept;

}  // namespace mcmcpar::mcmc
