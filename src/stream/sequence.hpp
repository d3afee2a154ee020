#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "img/image.hpp"
#include "stream/report.hpp"

namespace mcmcpar::engine {
class StrategyRegistry;
}  // namespace mcmcpar::engine

namespace mcmcpar::stream {

/// One frame of a sequence: the image plus a display label (a path, an
/// upload id, or "synth.<k>"). The image is shared so the serve layer can
/// pin cache entries for the duration of a job.
struct Frame {
  std::shared_ptr<const img::ImageF> image;
  std::string label;
};

/// What to run over an ordered frame sequence.
struct SequenceSpec {
  std::vector<Frame> frames;
  std::string strategy = "serial";   ///< registry key run on each frame
  std::vector<std::string> options;  ///< strategy key=value options
  /// Problem template: prior/likelihood/moves/theta apply to every frame;
  /// `filtered` and `warmStart` are overwritten per frame.
  engine::Problem problem;
  engine::RunBudget budget;  ///< per-frame budget
  bool warmStart = true;     ///< seed frame N from frame N-1's circles
  bool track = true;          ///< run the cross-frame Tracker
  double trackMinIoU = 0.25;  ///< IoU gate for track association
};

/// Observer callbacks for a sequence run.
struct SequenceHooks {
  /// Fired after each frame completes, with the per-frame summary and that
  /// frame's full engine report.
  std::function<void(const FrameResult&, const engine::RunReport&)> onFrame;
  /// Polled between frames and threaded into each frame's run, so a cancel
  /// lands mid-frame, not just at frame boundaries.
  std::function<bool()> cancelRequested;
};

/// Runs an ordered frame sequence through one registry strategy,
/// warm-starting each frame's chain from the previous frame's final
/// configuration and tracking objects across frames. Deliberately NOT a
/// registry strategy itself: a sequence is a workload over many images,
/// while a Strategy solves one image — the registry contract (one
/// `prepare(problem)` with one `filtered` image) cannot express it.
class SequenceRunner {
 public:
  /// `registry` defaults to the built-in catalogue and is borrowed.
  explicit SequenceRunner(const engine::StrategyRegistry* registry = nullptr)
      : registry_(registry) {}

  /// Run the whole sequence. Frame K's seed is
  /// engine::deriveJobSeed(resources.seed, K), so one (seed, frames) pair
  /// is one reproducible unit regardless of strategy. The returned report
  /// carries the last frame's circles/logPosterior, summed iterations, and
  /// a stream::StreamReport in `extras`. Throws engine::EngineError on an
  /// empty sequence, a null frame image, or an unknown strategy.
  [[nodiscard]] engine::RunReport run(const SequenceSpec& spec,
                                      const engine::ExecResources& resources,
                                      const SequenceHooks& hooks = {}) const;

 private:
  const engine::StrategyRegistry* registry_;
};

/// Parse the `@sequence=N` form: a pure decimal frame count >= 1. Returns
/// nullopt for anything else (which is then treated as a glob pattern).
[[nodiscard]] std::optional<std::uint64_t> parseFrameCount(
    const std::string& value);

/// Expand a `@sequence=<glob>` pattern into sorted matching paths.
/// Wildcards (`*`, `?`, `[...]`) are honoured in the filename component
/// only; a pattern without wildcards is returned as-is. A missing
/// directory yields an empty list.
[[nodiscard]] std::vector<std::string> expandFrameGlob(
    const std::string& pattern);

}  // namespace mcmcpar::stream
