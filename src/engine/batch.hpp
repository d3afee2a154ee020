#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace mcmcpar::par {
class PoolBudget;
}  // namespace mcmcpar::par

namespace mcmcpar::engine {

class StrategyRegistry;

/// One unit of work in a batch: an image (borrowed through Problem) run
/// under one strategy with its own options and budget.
struct BatchJob {
  std::string strategy;  ///< registry key ("serial", "mc3", ...)
  std::vector<std::string> options;  ///< strategy `key=value` options
  Problem problem;
  RunBudget budget;
  std::string label;  ///< caller's tag (image path, request id); "" = index

  /// Per-job master seed. Unset jobs derive a distinct seed from the batch
  /// seed and the job index, so identical jobs still explore independently.
  std::optional<std::uint64_t> seed;
};

/// Knobs of one BatchRunner::run call.
struct BatchOptions {
  /// Shared execution resources. `threads` is the *total* worker budget of
  /// the whole batch (0 = hardware concurrency): jobs run concurrently
  /// inside it, one per budgeted thread, and strategies lease their
  /// internal workers from what is left, so the box is never
  /// oversubscribed. `seed` is the batch master seed that per-job seeds
  /// derive from.
  ExecResources resources;

  /// When set (borrowed), the batch charges its job-runner threads against
  /// this long-lived budget instead of constructing a private one, and
  /// returns them when the run ends — so a sharded job fans its tiles out
  /// inside the budget of the server or batch that runs it.
  /// `resources.threads` is ignored in favour of the budget's total.
  par::PoolBudget* sharedBudget = nullptr;
};

/// Observer callbacks of a batch run. All optional.
struct BatchHooks {
  /// A job finished (completed, failed or cancelled); `report` is its final
  /// RunReport. Serialised: never invoked concurrently.
  std::function<void(std::size_t jobIndex, const RunReport& report)> onJobDone;

  /// Cancels the whole batch (sticky, like RunHooks::cancelRequested):
  /// running jobs stop at their next quantum, queued jobs never start.
  std::function<bool()> cancelRequested;
};

/// A batch outcome: one RunReport per submitted job, index-aligned with the
/// input vector regardless of completion order, plus index-aligned error
/// messages ("" for jobs that did not fail).
struct BatchResult {
  std::vector<RunReport> reports;
  std::vector<std::string> errors;
};

/// Executes N independent jobs concurrently under one shared thread budget.
///
/// Jobs are validated up front (unknown strategies or malformed options
/// fail the whole batch before any work starts), dispatched in submission
/// order over an internal par::ThreadPool, and reported in submission
/// order. Each job runs under a wrapped RunHooks that propagates batch
/// cancellation; a cancelled batch keeps every already-finished report
/// intact.
class BatchRunner {
 public:
  /// `registry` defaults to the built-in six-strategy registry and is
  /// borrowed (must outlive the runner).
  explicit BatchRunner(const StrategyRegistry* registry = nullptr);

  /// Run the batch. Throws EngineError if any job names an unknown
  /// strategy or carries invalid options; failures *during* a job are
  /// captured per job instead (BatchResult::errors).
  [[nodiscard]] BatchResult run(const std::vector<BatchJob>& jobs,
                                const BatchOptions& options = {},
                                const BatchHooks& hooks = {}) const;

  /// The incremental-admission path: execute one job on the calling thread
  /// against shared resources, without the whole-batch barrier of run().
  /// Long-running front-ends (serve::Server) call this from persistent
  /// workers, passing a `resources.poolBudget` reused across requests.
  /// Unlike run(), every failure — unknown strategy, bad options, a failure
  /// mid-run — throws EngineError; the caller owns per-job capture.
  [[nodiscard]] RunReport runOne(const BatchJob& job,
                                 const ExecResources& resources,
                                 const RunHooks& hooks = {}) const;

 private:
  const StrategyRegistry* registry_;
};

/// One job line — the shared grammar of `mcmcpar_run --batch` manifests and
/// the serve protocol's SUBMIT payload (normative spec: docs/PROTOCOL.md):
///   <image.pgm | synth> <strategy> [@directive=value ...] [key=value ...]
/// `@`-prefixed tokens are job-level directives (@iters, @seed, @trace,
/// @label, @radius, @radius-std/min/max, @count, @image, @oneshot, @shard,
/// @halo, @sequence, @warm-start, @track, @client); bare key=value tokens
/// go to the strategy. Blank lines and lines starting with '#' are skipped
/// by the manifest reader.
///
/// `@shard=KxL [@halo=N]` is grammar-level sugar making the job a shard
/// coordinator: the parser rewrites the entry to the "sharded" strategy
/// (local backend) with the named strategy as its inner one and every bare
/// option forwarded as `inner.<key>=<value>` — so a served job can itself
/// fan out across the serving layer's shared budget.
struct ManifestEntry {
  std::string image;     ///< PGM path, "synth", or an UPLOAD id (inline)
  std::string strategy;  ///< registry key
  std::vector<std::string> options;  ///< key=value strategy options
  std::optional<std::uint64_t> iterations;  ///< @iters: per-job budget
  std::optional<std::uint64_t> seed;        ///< @seed: per-job master seed
  std::optional<std::uint64_t> trace;       ///< @trace: trace cadence
  std::string label;  ///< @label: caller's tag ("" = image path)

  /// @radius: per-job circle-prior radius mean, overriding the front-end's
  /// default (--radius). Unless the explicit @radius-std/@radius-min/
  /// @radius-max directives are present, std/min/max derive from the mean
  /// by the shared rule. The shard coordinator's socket backend sets all
  /// four so remote tiles sample under the coordinator's exact prior, not
  /// the remote server's default.
  std::optional<double> radius;
  std::optional<double> radiusStd;  ///< @radius-std
  std::optional<double> radiusMin;  ///< @radius-min
  std::optional<double> radiusMax;  ///< @radius-max

  /// @count: fixed expected artifact count — disables the per-image eq. 5
  /// estimate (Problem.estimateCount) on the serving side, the way a local
  /// caller sets estimateCount=false with a fixed prior.expectedCount.
  std::optional<double> expectedCount;

  /// @image=inline: the image token names an UPLOAD id on the submitting
  /// connection instead of a path. Only the socket front-end can satisfy
  /// it; `--batch` manifests have no connection, so serve::Server rejects
  /// such entries there.
  bool inlineImage = false;

  /// @oneshot=1: resolve the image with cache bypass — a miss is served
  /// but not inserted, so single-use jobs don't evict warm entries.
  bool oneshot = false;

  /// @sequence: non-empty makes the job a frame-sequence run
  /// (stream::SequenceRunner) instead of a single image. A pure decimal
  /// value N names N frames `<image>.0` .. `<image>.N-1` — UPLOAD ids
  /// when combined with @image=inline, or a generated drifting scene when
  /// the image token is "synth". Any other value is a filesystem glob
  /// whose sorted matches are the frames (the image token is then only a
  /// display label). See docs/PROTOCOL.md.
  std::string sequence;

  /// @warm-start=0|1 (sequence only; default on): seed frame N's chain
  /// from frame N-1's final configuration.
  std::optional<bool> warmStart;

  /// @track=0|1 (sequence only; default on): assign stable object ids
  /// across frames and report per-track lifetimes.
  std::optional<bool> track;

  /// @client=NAME[*W]: the weighted-fair admission bucket this job bills
  /// against on the serving side (docs/PROTOCOL.md). NAME is 1-64 chars of
  /// [A-Za-z0-9._-]; the optional *W (1-1000) sets the client's scheduling
  /// weight. Jobs without the directive share the "default" bucket, which
  /// keeps a single-client server plain FIFO.
  std::string client;
  std::optional<unsigned> clientWeight;
};

/// Upper bound accepted for @iters. Beyond this the budget arithmetic
/// (budget x frames, workload-proportional tile splits) risks overflow,
/// and no legitimate job approaches it — reject at parse time with a line
/// diagnostic instead of misbehaving hours into a run. @iters=0 is equally
/// rejected: a zero-iteration job would "succeed" with an empty model.
inline constexpr std::uint64_t kMaxJobIterations = 10'000'000'000ULL;

/// Parse one job line. Throws EngineError on fewer than two fields, unknown
/// or malformed `@` directives, and malformed option tokens — option tokens
/// are validated through the same OptionMap parser the CLI's --opt flag
/// uses, so a stray trailing token fails here with the identical message
/// instead of surfacing later (or never).
[[nodiscard]] ManifestEntry parseManifestLine(const std::string& line);

/// Parse a batch manifest: parseManifestLine on every non-blank,
/// non-comment line, with "manifest line N:" prefixed to any error.
[[nodiscard]] std::vector<ManifestEntry> parseBatchManifest(std::istream& in);

/// The per-job seed rule used for jobs without an explicit seed: a
/// SplitMix64-style mix of the batch seed and the job index, collision-free
/// across indices. Exposed so tests and tools can predict it.
[[nodiscard]] std::uint64_t deriveJobSeed(std::uint64_t batchSeed,
                                          std::size_t jobIndex) noexcept;

}  // namespace mcmcpar::engine
