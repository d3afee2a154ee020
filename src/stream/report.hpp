#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// Diagnostics types of the streaming frame-sequence subsystem. Kept free
/// of engine dependencies so engine::RunReport can carry a StreamReport in
/// its extras variant while the runner itself (stream/sequence.*) builds on
/// top of the engine layer.
namespace mcmcpar::stream {

/// Outcome of one frame of a sequence run.
struct FrameResult {
  std::size_t index = 0;  ///< 0-based position in the sequence
  std::string label;      ///< frame path, upload id, or "synth.<k>"
  std::uint64_t iterations = 0;
  double wallSeconds = 0.0;    ///< the frame's strategy prepare plus run
  double acceptanceRate = 0.0;
  double logPosterior = 0.0;   ///< of this frame's final model
  std::size_t circles = 0;     ///< detections in this frame
  std::size_t carried = 0;     ///< warm-start circles injected from frame-1
  std::size_t tracksBorn = 0;  ///< new track ids opened on this frame
  std::size_t tracksEnded = 0;  ///< tracks that failed to match this frame
  bool cancelled = false;
};

/// Lifetime of one tracked object across the sequence. Frames are
/// inclusive: a track seen only on frame 3 has firstFrame == lastFrame == 3.
struct TrackSummary {
  std::uint64_t id = 0;  ///< stable id, assigned in birth order from 1
  std::size_t firstFrame = 0;
  std::size_t lastFrame = 0;
  [[nodiscard]] std::size_t length() const noexcept {
    return lastFrame - firstFrame + 1;
  }
};

/// The aggregate outcome of a SequenceRunner run: per-frame results plus
/// the tracker's per-object lifetimes. Carried as engine::RunReport::extras
/// for sequence jobs.
struct StreamReport {
  std::string innerStrategy;  ///< registry key run on each frame
  bool warmStart = true;      ///< frames N>0 seeded from frame N-1
  bool tracking = true;       ///< Tracker ran across frames
  std::size_t frameCount = 0;  ///< frames requested
  double p50FrameSeconds = 0.0;  ///< median per-frame latency
  std::vector<FrameResult> perFrame;  ///< frames actually completed
  std::vector<TrackSummary> tracks;   ///< empty when tracking is off
};

}  // namespace mcmcpar::stream
