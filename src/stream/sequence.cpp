#include "stream/sequence.hpp"

#include <fnmatch.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <utility>

#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/virtual_clock.hpp"
#include "stream/tracker.hpp"

namespace mcmcpar::stream {

namespace {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace

engine::RunReport SequenceRunner::run(const SequenceSpec& spec,
                                      const engine::ExecResources& resources,
                                      const SequenceHooks& hooks) const {
  if (spec.frames.empty()) {
    throw engine::EngineError("sequence: no frames to run");
  }
  for (const Frame& frame : spec.frames) {
    if (!frame.image) {
      throw engine::EngineError("sequence: null frame image (" + frame.label +
                                ")");
    }
  }
  const par::WallTimer total;
  StreamReport streamReport;
  streamReport.innerStrategy = spec.strategy;
  streamReport.warmStart = spec.warmStart;
  streamReport.tracking = spec.track;
  streamReport.frameCount = spec.frames.size();

  Tracker tracker(spec.trackMinIoU);
  engine::RunReport report;
  report.strategy = spec.strategy;
  report.threadsUsed = 0;

  std::vector<model::Circle> carried;
  std::vector<double> frameSeconds;
  bool cancelled = false;

  for (std::size_t k = 0; k < spec.frames.size(); ++k) {
    if (hooks.cancelRequested && hooks.cancelRequested()) {
      cancelled = true;
      break;
    }
    const Frame& frame = spec.frames[k];

    engine::Problem problem = spec.problem;
    problem.filtered = frame.image.get();
    problem.warmStart.clear();
    std::size_t carriedCount = 0;
    if (spec.warmStart && k > 0) {
      problem.warmStart = carried;
      carriedCount = carried.size();
    }

    engine::ExecResources frameResources = resources;
    frameResources.seed = engine::deriveJobSeed(resources.seed, k);

    engine::RunHooks frameHooks;
    frameHooks.cancelRequested = hooks.cancelRequested;

    const par::WallTimer timer;
    engine::RunReport frameReport;
    {
      obs::Span frameSpan("stream", "frame:" + std::to_string(k));
      frameSpan.arg("label", frame.label);
      frameSpan.arg("carried", std::to_string(carriedCount));
      frameReport = engine::Engine(frameResources, registry_)
                        .run(spec.strategy, problem, spec.budget, frameHooks,
                             spec.options, frame.label);
    }
    const double seconds = timer.seconds();
    frameSeconds.push_back(seconds);
    obs::Registry& metrics = obs::Registry::global();
    metrics
        .histogram("mcmcpar_stream_frame_seconds",
                   "Per-frame wall time of sequence runs.",
                   obs::latencyBuckets())
        .observe(seconds);
    metrics
        .counter("mcmcpar_stream_frames_total", "Sequence frames completed.")
        .add();
    if (carriedCount > 0) {
      metrics
          .counter("mcmcpar_stream_warm_frames_total",
                   "Frames warm-started from the previous frame's circles.")
          .add();
      metrics
          .counter("mcmcpar_stream_carried_circles_total",
                   "Circles carried across frames by warm starts.")
          .add(static_cast<std::uint64_t>(carriedCount));
    }
    carried = frameReport.circles;

    FrameResult result;
    result.index = k;
    result.label = frame.label;
    result.iterations = frameReport.iterations;
    result.wallSeconds = seconds;
    result.acceptanceRate = frameReport.acceptanceRate;
    result.logPosterior = frameReport.logPosterior;
    result.circles = frameReport.circles.size();
    result.carried = carriedCount;
    result.cancelled = frameReport.cancelled;
    if (spec.track) {
      const Tracker::FrameUpdate update = tracker.update(k, frameReport.circles);
      result.tracksBorn = update.born;
      result.tracksEnded = update.ended;
    }

    report.iterations += frameReport.iterations;
    report.diagnostics.merge(frameReport.diagnostics);
    report.threadsUsed = std::max(report.threadsUsed, frameReport.threadsUsed);
    report.circles = std::move(frameReport.circles);
    report.logPosterior = frameReport.logPosterior;

    streamReport.perFrame.push_back(result);
    if (hooks.onFrame) hooks.onFrame(streamReport.perFrame.back(), frameReport);
    if (frameReport.cancelled) {
      cancelled = true;
      break;
    }
  }

  if (report.threadsUsed == 0) report.threadsUsed = 1;
  report.cancelled = cancelled;
  report.wallSeconds = total.seconds();
  const mcmc::Diagnostics::MoveStats aggregate = report.diagnostics.aggregate();
  report.acceptanceRate = aggregate.acceptanceRate();
  streamReport.p50FrameSeconds = median(std::move(frameSeconds));
  if (spec.track) streamReport.tracks = tracker.tracks();
  report.extras = std::move(streamReport);
  return report;
}

std::optional<std::uint64_t> parseFrameCount(const std::string& value) {
  if (value.empty() || value.size() > 9) return std::nullopt;
  for (char c : value) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return std::nullopt;
  }
  const std::uint64_t count = std::stoull(value);
  if (count == 0) return std::nullopt;
  return count;
}

std::vector<std::string> expandFrameGlob(const std::string& pattern) {
  namespace fs = std::filesystem;
  if (pattern.find_first_of("*?[") == std::string::npos) return {pattern};

  const fs::path full(pattern);
  fs::path dir = full.parent_path();
  if (dir.empty()) dir = ".";
  const std::string name = full.filename().string();

  std::vector<std::string> matches;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string base = it->path().filename().string();
    if (::fnmatch(name.c_str(), base.c_str(), 0) == 0) {
      matches.push_back(it->path().string());
    }
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

}  // namespace mcmcpar::stream
