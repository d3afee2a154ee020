#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace mcmcpar::serve {

/// One job line — the grammar of the serve protocol's SUBMIT payload, of
/// `mcmcpar_run --batch` manifests and of the job each other `mcmcpar_run`
/// mode submits to its in-process server (normative spec: docs/PROTOCOL.md):
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
struct JobSpec {
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
[[nodiscard]] JobSpec parseManifestLine(const std::string& line);

/// Parse a batch manifest: parseManifestLine on every non-blank,
/// non-comment line, with "manifest line N:" prefixed to any error.
[[nodiscard]] std::vector<JobSpec> parseBatchManifest(std::istream& in);

}  // namespace mcmcpar::serve
