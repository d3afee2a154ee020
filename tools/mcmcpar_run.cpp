// mcmcpar_run — the uniform CLI front-end of the engine façade: execute any
// registered strategy (or all of them) on a synthetic scene or a PGM image
// and print one comparable RunReport row per strategy. Every mode is one or
// more job lines (docs/PROTOCOL.md) served by an in-process serve::Server
// built from the flags, so a job runs here exactly as a SUBMIT runs it.
//
//   mcmcpar_run --list
//   mcmcpar_run --strategy serial --iterations 20000
//   mcmcpar_run --strategy all --iterations 5000 --width 192 --cells 10
//   mcmcpar_run --strategy mc3 --opt chains=6 --opt swap-interval=50
//   mcmcpar_run --strategy periodic --opt executor=split-serial --progress
//   mcmcpar_run --batch jobs.txt --threads 8 --iterations 10000
//   mcmcpar_run --shard 2x2 --strategy serial --image big.pgm --opt halo=16

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/table_writer.hpp"
#include "engine/registry.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "stream/sequence.hpp"

using namespace mcmcpar;

namespace {

struct CliOptions {
  std::string strategy = "serial";
  std::vector<std::string> strategyOptions;
  engine::ExecResources resources;
  engine::RunBudget budget{20000, 0};
  int width = 192;
  int height = 192;
  int cells = 10;
  double radius = 9.0;
  std::string imagePath;  // when set, run on this PGM instead of a scene
  std::string batchPath;  // when set, serve the manifest in-process
  std::string shardTiles;  // --shard KxL: run through the shard coordinator
  std::string sequence;   // --sequence N|GLOB: streaming frame-sequence run
  bool noWarmStart = false;    // --no-warm-start: cold-start every frame
  bool noTrack = false;        // --no-track: skip the cross-frame tracker
  unsigned maxJobs = 0;   // --jobs: concurrent-job cap (0 = thread budget)
  double deadline = 0.0;  // --deadline: whole-batch wall limit in seconds
  std::string traceOut;   // --trace-out: Chrome trace JSON destination
  bool list = false;
  bool progress = false;
  bool help = false;
};

void printUsage() {
  std::printf(
      "usage: mcmcpar_run [options]\n"
      "  --list              print the strategy registry and exit\n"
      "  --strategy NAME     strategy to run, or 'all' (default: serial)\n"
      "  --opt key=value     strategy-specific option (repeatable)\n"
      "  --iterations N      iteration budget (default: 20000)\n"
      "  --trace N           trace cadence (default: ~200 points)\n"
      "  --seed N            master seed (default: 1)\n"
      "  --threads N         worker threads, 0 = hardware (default: 0)\n"
      "  --omp               prefer OpenMP executors where available\n"
      "  --width N/--height N/--cells N/--radius X  synthetic scene shape\n"
      "  --image FILE.pgm    run on a PGM image instead of a synthetic scene\n"
      "  --shard KxL|auto    run through the 'sharded' coordinator: split the\n"
      "                      image into KxL tiles ('auto' = density-adaptive\n"
      "                      grid) with --strategy on each tile; shard knobs\n"
      "                      (halo=N backend=local|socket hedge-factor=X\n"
      "                      endpoints=h:p[*W],... endpoints-file=PATH)\n"
      "                      and inner.key=value options go through --opt\n"
      "  --sequence N|GLOB   streaming run over an ordered frame sequence:\n"
      "                      a decimal N generates N synthetic drifting\n"
      "                      frames from the scene knobs; anything else is\n"
      "                      a PGM glob (sorted). Frame K warm-starts from\n"
      "                      frame K-1 and objects are tracked across frames\n"
      "  --no-warm-start     sequence: cold-start every frame\n"
      "  --no-track          sequence: skip the cross-frame tracker\n"
      "  --progress          print progress beats from RunHooks\n"
      "  --batch FILE        serve a job manifest through an in-process\n"
      "                      server; each line is a SUBMIT job line\n"
      "                      '<image.pgm|synth> <strategy> [@directive=v ...]\n"
      "                      [k=v ...]' (grammar: docs/PROTOCOL.md)\n"
      "  --jobs N            batch: concurrent-job cap (0 = thread budget)\n"
      "  --deadline X        batch: wall-clock deadline in seconds\n"
      "  --trace-out FILE    write a Chrome trace-event JSON timeline of the\n"
      "                      run (open in chrome://tracing or Perfetto);\n"
      "                      sharded runs show fan-out, per-tile flights,\n"
      "                      hedges and the stitch as nested spans\n"
      "exit status: 0 when no job failed (a job --deadline cancels is not a\n"
      "failure), 1 when a job failed while running, 2 on a usage error or a\n"
      "job the server rejects at admission\n");
}

/// Flag values go through engine::flagU64/flagDouble (the whole token
/// must convert, no silent "20k" -> 20 truncation); they throw EngineError
/// naming the flag, which main() reports before exiting 2.
int intFlag(const char* flag, const char* text) {
  return static_cast<int>(engine::flagU64(flag, text, 0, 0x7FFFFFFFull));
}

std::optional<CliOptions> parseArgs(int argc, char** argv) {
  CliOptions cli;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value after %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--list") == 0) {
      cli.list = true;
    } else if (std::strcmp(arg, "--progress") == 0) {
      cli.progress = true;
    } else if (std::strcmp(arg, "--omp") == 0) {
      cli.resources.useOpenMp = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      cli.help = true;
      return cli;
    } else if (std::strcmp(arg, "--strategy") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.strategy = v;
    } else if (std::strcmp(arg, "--opt") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.strategyOptions.emplace_back(v);
    } else if (std::strcmp(arg, "--iterations") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.budget.iterations = engine::flagU64(arg, v);
    } else if (std::strcmp(arg, "--trace") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.budget.traceInterval = engine::flagU64(arg, v);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.resources.seed = engine::flagU64(arg, v);
    } else if (std::strcmp(arg, "--threads") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.resources.threads = static_cast<unsigned>(intFlag(arg, v));
    } else if (std::strcmp(arg, "--width") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.width = intFlag(arg, v);
    } else if (std::strcmp(arg, "--height") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.height = intFlag(arg, v);
    } else if (std::strcmp(arg, "--cells") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.cells = intFlag(arg, v);
    } else if (std::strcmp(arg, "--radius") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.radius = engine::flagDouble(arg, v);
    } else if (std::strcmp(arg, "--image") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.imagePath = v;
    } else if (std::strcmp(arg, "--batch") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.batchPath = v;
    } else if (std::strcmp(arg, "--shard") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.shardTiles = v;
    } else if (std::strcmp(arg, "--sequence") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.sequence = v;
    } else if (std::strcmp(arg, "--no-warm-start") == 0) {
      cli.noWarmStart = true;
    } else if (std::strcmp(arg, "--no-track") == 0) {
      cli.noTrack = true;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.maxJobs = static_cast<unsigned>(intFlag(arg, v));
    } else if (std::strcmp(arg, "--deadline") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.deadline = engine::flagDouble(arg, v);
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.traceOut = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", arg);
      printUsage();
      return std::nullopt;
    }
  }
  return cli;
}

void printRegistry(const engine::StrategyRegistry& registry) {
  analysis::Table table({"name", "paper", "extras", "summary"});
  for (const std::string& name : registry.names()) {
    const engine::StrategyInfo& info = registry.info(name);
    table.addRow({info.name, info.paperSection, info.extrasType, info.summary});
  }
  table.print(std::cout);
  std::printf("\nper-strategy options (--opt key=value):\n");
  for (const std::string& name : registry.names()) {
    const engine::StrategyInfo& info = registry.info(name);
    std::printf("  %-12s %s\n", info.name.c_str(),
                info.optionsHelp.empty() ? "-" : info.optionsHelp.c_str());
  }
}

/// One line summarising the strategy-specific extras of a report.
void printExtras(const engine::RunReport& report) {
  if (const auto* spec =
          std::get_if<spec::SpeculativeStats>(&report.extras)) {
    std::printf("  [%s] %llu rounds, %.2f iters/round, %.0f%% waste\n",
                report.strategy.c_str(),
                static_cast<unsigned long long>(spec->rounds),
                spec->meanConsumedPerRound(), 100.0 * spec->wasteFraction());
  } else if (const auto* mc3 = std::get_if<mcmc::Mc3Stats>(&report.extras)) {
    std::printf("  [%s] swap rate %.2f (%llu/%llu)\n", report.strategy.c_str(),
                mc3->swapRate(),
                static_cast<unsigned long long>(mc3->swapAccepted),
                static_cast<unsigned long long>(mc3->swapProposed));
  } else if (const auto* periodic =
                 std::get_if<core::PeriodicReport>(&report.extras)) {
    std::printf(
        "  [%s] %llu phases, %llu global + %llu local iters, "
        "overhead %.3f s\n",
        report.strategy.c_str(),
        static_cast<unsigned long long>(periodic->phases),
        static_cast<unsigned long long>(periodic->globalIterations),
        static_cast<unsigned long long>(periodic->localIterations),
        periodic->overheadSeconds);
  } else if (const auto* pipeline =
                 std::get_if<core::PipelineReport>(&report.extras)) {
    std::printf(
        "  [%s] %zu partitions, parallel runtime %.3f s, "
        "load-balanced (%u cpus) %.3f s\n",
        report.strategy.c_str(), pipeline->partitions.size(),
        pipeline->parallelRuntime, pipeline->loadBalancedThreads,
        pipeline->loadBalancedRuntime);
  } else if (const auto* sharded =
                 std::get_if<shard::ShardReport>(&report.extras)) {
    char gridLabel[32];
    if (sharded->adaptive) {
      std::snprintf(gridLabel, sizeof(gridLabel), "auto(%d)",
                    sharded->gridX);
    } else {
      std::snprintf(gridLabel, sizeof(gridLabel), "%dx%d", sharded->gridX,
                    sharded->gridY);
    }
    std::printf(
        "  [%s] %s tiles (halo %d, %s/%s), slowest tile %.3f s of "
        "%.3f s total, stitch dropped %zu halo + %zu duplicate(s) in "
        "%.3f s\n",
        report.strategy.c_str(), gridLabel, sharded->halo,
        sharded->backend.c_str(), sharded->innerStrategy.c_str(),
        sharded->maxTileSeconds, sharded->sumTileSeconds,
        sharded->haloDropped, sharded->duplicatesRemoved,
        sharded->mergeSeconds);
    if (sharded->requeues > 0 || sharded->endpointsDead > 0) {
      std::printf("  [%s] %zu requeue(s), %zu dead endpoint(s)\n",
                  report.strategy.c_str(), sharded->requeues,
                  sharded->endpointsDead);
    }
    if (sharded->hedgesIssued > 0) {
      std::printf("  [%s] %zu hedge(s) issued, %zu hedge(s) won\n",
                  report.strategy.c_str(), sharded->hedgesIssued,
                  sharded->hedgesWon);
    }
    for (const shard::TileRun& tile : sharded->tiles) {
      std::printf("    %-10s %llu iters, %zu found -> %zu kept, logP %.1f",
                  tile.label.c_str(),
                  static_cast<unsigned long long>(tile.iterations),
                  tile.circlesFound, tile.circlesKept, tile.logPosterior);
      if (!tile.endpoint.empty()) {
        std::printf(" @%s", tile.endpoint.c_str());
        if (tile.attempts > 1) std::printf(" (attempt %u)", tile.attempts);
        if (tile.hedged) std::printf(" (hedged)");
      }
      std::printf("\n");
    }
  } else if (const auto* seq =
                 std::get_if<stream::StreamReport>(&report.extras)) {
    std::printf(
        "  [%s] %zu/%zu frame(s), warm-start %s, p50 frame %.3f s, "
        "%zu track(s)\n",
        seq->innerStrategy.c_str(), seq->perFrame.size(), seq->frameCount,
        seq->warmStart ? "on" : "off", seq->p50FrameSeconds,
        seq->tracks.size());
    for (const stream::TrackSummary& track : seq->tracks) {
      std::printf("    track %llu: frames %zu..%zu (%zu frame(s))\n",
                  static_cast<unsigned long long>(track.id), track.firstFrame,
                  track.lastFrame, track.length());
    }
  }
}

/// --trace-out guard: arms the global tracer for the whole run and writes
/// the collected spans as Chrome trace-event JSON on every exit path.
class TraceOutput {
 public:
  explicit TraceOutput(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) obs::Tracer::global().setEnabled(true);
  }
  ~TraceOutput() {
    if (path_.empty()) return;
    obs::Tracer::global().setEnabled(false);
    std::string error;
    if (obs::Tracer::global().writeJson(path_, &error)) {
      std::fprintf(stderr, "trace written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "--trace-out: %s\n", error.c_str());
    }
  }
  TraceOutput(const TraceOutput&) = delete;
  TraceOutput& operator=(const TraceOutput&) = delete;

 private:
  std::string path_;
};

/// The job line(s) of a mode other than --batch. A single run is one line
/// seeded with --seed; --strategy all is one line per registry name;
/// --shard makes the line a "sharded" coordinator over --strategy; and
/// --sequence makes it a @sequence job.
std::vector<serve::JobSpec> cliJobs(const CliOptions& cli,
                                    const engine::StrategyRegistry& registry) {
  serve::JobSpec base;
  base.image = cli.imagePath.empty() ? "synth" : cli.imagePath;
  base.strategy = cli.strategy;
  base.options = cli.strategyOptions;
  base.seed = cli.resources.seed;
  if (!cli.sequence.empty()) {
    // A frame count names the server's drifting synth scene; a glob's
    // image token is only the job's display label.
    if (!stream::parseFrameCount(cli.sequence)) base.image = cli.sequence;
    base.sequence = cli.sequence;
    if (cli.noWarmStart) base.warmStart = false;
    if (cli.noTrack) base.track = false;
  }
  if (!cli.shardTiles.empty()) {
    // Not @shard=: that would forward the shard's own knobs (halo=...) as
    // inner.<key> options of the per-tile strategy.
    base.strategy = "sharded";
    base.options = {"tiles=" + cli.shardTiles};
    if (cli.strategy != "sharded") {
      base.options.push_back("strategy=" + cli.strategy);
    }
    base.options.insert(base.options.end(), cli.strategyOptions.begin(),
                        cli.strategyOptions.end());
  }
  if (cli.strategy != "all") return {base};
  std::vector<serve::JobSpec> jobs;
  for (const std::string& name : registry.names()) {
    jobs.push_back(base);
    jobs.back().strategy = name;
  }
  return jobs;
}

/// What one served job ended as.
struct Outcome {
  serve::JobStatus status;
  engine::RunReport report;
};

/// Block until job `id` (the `index`-th) is terminal; with --progress,
/// echo its progress and frame events to stderr as they arrive.
Outcome awaitJob(const serve::Server& server, std::uint64_t id,
                 std::size_t index, bool progress) {
  std::uint64_t seq = 0;
  for (bool terminal = false; !terminal;) {
    const auto events = server.events(id, seq, std::chrono::seconds(1));
    if (!events) break;  // not a job of this server
    for (const serve::JobEvent& event : *events) {
      seq = event.seq;
      terminal = terminal || serve::terminalState(event.type).has_value();
      if (!progress) continue;
      if (event.type == serve::JobEvent::Type::Progress && event.total > 0) {
        std::fprintf(stderr, "  job %zu ... %llu%%\n", index,
                     static_cast<unsigned long long>(100 * event.done /
                                                     event.total));
      } else if (event.type == serve::JobEvent::Type::Frame) {
        std::fprintf(stderr, "  job %zu ... frame %llu/%llu\n", index,
                     static_cast<unsigned long long>(event.done + 1),
                     static_cast<unsigned long long>(event.total));
      }
    }
  }
  Outcome outcome{server.status(id).value_or(serve::JobStatus{}),
                  server.result(id).value_or(engine::RunReport{})};
  if (progress) {
    std::fprintf(stderr, "  job %zu (%s) %s\n", index,
                 outcome.status.strategy.c_str(),
                 serve::toString(outcome.status.state));
  }
  return outcome;
}

/// Serve `jobs` in order through `server`. A batch admits every line up
/// front, and --deadline then bounds the drain; every other mode admits a
/// job only after the previous one ended, so their times stay comparable.
/// nullopt when the server rejects a line (reported on stderr; the jobs
/// already admitted are cancelled).
std::optional<std::vector<Outcome>> serveJobs(
    serve::Server& server, const std::vector<serve::JobSpec>& jobs,
    const CliOptions& cli) {
  const bool batch = !cli.batchPath.empty();
  std::vector<std::uint64_t> ids;
  const auto admit = [&](std::size_t i) {
    try {
      ids.push_back(server.submit(jobs[i]));
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: job %zu (%s): %s\n",
                   batch ? cli.batchPath.c_str() : "mcmcpar_run", i,
                   jobs[i].image.c_str(), e.what());
      server.shutdown(0.0);
      return false;
    }
  };
  if (batch) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!admit(i)) return std::nullopt;
    }
    if (cli.deadline > 0.0) server.shutdown(cli.deadline);
  }
  std::vector<Outcome> outcomes;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!batch && !admit(i)) return std::nullopt;
    outcomes.push_back(awaitJob(server, ids[i], i, cli.progress));
  }
  server.shutdown(0.0);
  return outcomes;
}

/// --batch: one row per manifest line, whatever its status.
void printBatch(const std::vector<Outcome>& outcomes, double seconds) {
  analysis::Table table({"#", "image", "strategy", "status", "seconds",
                         "iters", "circles", "logP"});
  std::size_t ok = 0;
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const serve::JobStatus& status = outcomes[i].status;
    const engine::RunReport& report = outcomes[i].report;
    const char* state = "ok";
    if (status.state == serve::JobState::Failed) {
      state = "failed";
    } else if (status.state == serve::JobState::Cancelled) {
      state = "cancelled";
      ++cancelled;
    } else {
      ++ok;
    }
    table.addRow(
        {analysis::Table::integer(static_cast<long long>(i)), status.label,
         status.strategy, state, analysis::Table::num(report.wallSeconds, 3),
         analysis::Table::integer(static_cast<long long>(report.iterations)),
         analysis::Table::integer(
             static_cast<long long>(report.circles.size())),
         analysis::Table::num(report.logPosterior, 1)});
  }
  table.print(std::cout);
  std::printf("\n");
  for (const Outcome& outcome : outcomes) printExtras(outcome.report);
  std::printf(
      "\nbatch: %zu jobs (%zu ok, %zu cancelled, %zu failed) in %.3f s\n",
      outcomes.size(), ok, cancelled, outcomes.size() - ok - cancelled,
      seconds);
}

/// A single run, --strategy all and --shard: one comparable row per
/// strategy, with F1 against the synth scene's truth.
void printRuns(const CliOptions& cli, const std::vector<Outcome>& outcomes,
               const std::vector<model::Circle>& truth) {
  if (truth.empty()) {
    std::printf("image: %s\n\n", cli.imagePath.c_str());
  } else {
    std::printf("scene: %dx%d with %zu artifacts of radius ~%.1f\n\n",
                cli.width, cli.height, truth.size(), cli.radius);
  }
  analysis::Table table({"strategy", "seconds", "iters", "accept", "circles",
                         "logP", "converge@", truth.empty() ? "-" : "F1"});
  for (const Outcome& outcome : outcomes) {
    if (outcome.status.state == serve::JobState::Failed) continue;
    const engine::RunReport& report = outcome.report;
    std::string f1 = "-";
    if (!truth.empty()) {
      f1 = analysis::Table::num(
          analysis::scoreCircles(report.circles, truth, cli.radius * 0.75).f1,
          3);
    }
    table.addRow(
        {report.strategy, analysis::Table::num(report.wallSeconds, 3),
         analysis::Table::integer(static_cast<long long>(report.iterations)),
         analysis::Table::num(report.acceptanceRate, 3),
         analysis::Table::integer(
             static_cast<long long>(report.circles.size())),
         analysis::Table::num(report.logPosterior, 1),
         report.iterationsToConverge
             ? analysis::Table::integer(
                   static_cast<long long>(*report.iterationsToConverge))
             : "-",
         f1});
  }
  table.print(std::cout);
  std::printf("\n");
  for (const Outcome& outcome : outcomes) printExtras(outcome.report);
}

/// --sequence: the per-frame table plus track lifetimes.
void printSequence(const CliOptions& cli, const engine::RunReport& report) {
  const auto* seq = std::get_if<stream::StreamReport>(&report.extras);
  if (seq == nullptr) return;  // the job failed before its first frame
  if (stream::parseFrameCount(cli.sequence)) {
    std::printf("sequence: %zu synthetic drifting frames (%dx%d, %d cells)\n\n",
                seq->frameCount, cli.width, cli.height, cli.cells);
  } else {
    std::printf("sequence: %zu frames matching %s\n\n", seq->frameCount,
                cli.sequence.c_str());
  }
  analysis::Table table({"frame", "label", "seconds", "iters", "accept",
                         "circles", "carried", "born", "ended", "logP"});
  for (const stream::FrameResult& frame : seq->perFrame) {
    table.addRow(
        {analysis::Table::integer(static_cast<long long>(frame.index)),
         frame.label, analysis::Table::num(frame.wallSeconds, 3),
         analysis::Table::integer(static_cast<long long>(frame.iterations)),
         analysis::Table::num(frame.acceptanceRate, 3),
         analysis::Table::integer(static_cast<long long>(frame.circles)),
         analysis::Table::integer(static_cast<long long>(frame.carried)),
         analysis::Table::integer(static_cast<long long>(frame.tracksBorn)),
         analysis::Table::integer(static_cast<long long>(frame.tracksEnded)),
         analysis::Table::num(frame.logPosterior, 1)});
  }
  table.print(std::cout);
  std::printf("\n");
  printExtras(report);
}

/// The mode combinations that have no meaning; prints why.
bool validModes(const CliOptions& cli) {
  std::string error;
  if (!cli.sequence.empty() &&
      (!cli.batchPath.empty() || !cli.shardTiles.empty())) {
    error = "--sequence cannot be combined with --batch or --shard";
  } else if (!cli.batchPath.empty() && !cli.shardTiles.empty()) {
    // Silently running the manifest unsharded would be worse than an
    // error; shard batch jobs per line via the @shard directive instead.
    error = "--shard cannot be combined with --batch; put '@shard=" +
            cli.shardTiles + "' on the manifest lines to shard";
  } else if (cli.batchPath.empty() && cli.strategy == "all") {
    if (!cli.sequence.empty()) {
      error = "--sequence cannot be combined with --strategy all";
    } else if (!cli.shardTiles.empty()) {
      error = "--shard cannot be combined with --strategy all";
    } else if (!cli.strategyOptions.empty()) {
      error =
          "--opt is strategy-specific and cannot be combined with "
          "--strategy all";
    }
  }
  if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
  return error.empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<CliOptions> parsed;
  try {
    parsed = parseArgs(argc, argv);
  } catch (const engine::EngineError& e) {  // a malformed flag value
    std::fprintf(stderr, "%s\n", e.what());
  }
  if (!parsed) return 2;
  const CliOptions& cli = *parsed;
  if (cli.help) {
    printUsage();
    return 0;
  }

  const engine::StrategyRegistry& registry = engine::StrategyRegistry::builtin();
  if (cli.list) {
    printRegistry(registry);
    return 0;
  }
  if (!validModes(cli)) return 2;

  std::vector<serve::JobSpec> jobs;
  if (!cli.batchPath.empty()) {
    std::ifstream manifest(cli.batchPath);
    if (!manifest) {
      std::fprintf(stderr, "cannot open manifest %s\n", cli.batchPath.c_str());
      return 2;
    }
    try {
      jobs = serve::parseBatchManifest(manifest);
    } catch (const engine::EngineError& e) {
      std::fprintf(stderr, "%s: %s\n", cli.batchPath.c_str(), e.what());
      return 2;
    }
    // Seeded by manifest position, not by server job id, so a job's answer
    // does not depend on how its line is submitted.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!jobs[i].seed) {
        jobs[i].seed = engine::deriveJobSeed(cli.resources.seed, i);
      }
    }
  } else {
    jobs = cliJobs(cli, registry);
  }

  const TraceOutput traceOutput(cli.traceOut);
  serve::ServerOptions options;
  options.threads = cli.resources.threads;
  options.maxConcurrentJobs = cli.maxJobs;
  options.defaultBudget = cli.budget;
  options.seed = cli.resources.seed;
  options.useOpenMp = cli.resources.useOpenMp;
  options.radius = cli.radius;
  options.synthWidth = cli.width;
  options.synthHeight = cli.height;
  options.synthCells = cli.cells;
  options.retainJobs = jobs.size();  // no result is pruned before it prints
  serve::Server server(options);

  const auto started = std::chrono::steady_clock::now();
  const std::optional<std::vector<Outcome>> outcomes =
      serveJobs(server, jobs, cli);
  if (!outcomes) return 2;
  if (!cli.batchPath.empty()) {
    printBatch(*outcomes, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count());
  } else if (!cli.sequence.empty()) {
    printSequence(cli, outcomes->front().report);
  } else {
    printRuns(cli, *outcomes,
              cli.imagePath.empty() ? server.synthTruth()
                                    : std::vector<model::Circle>{});
  }

  int status = 0;
  for (std::size_t i = 0; i < outcomes->size(); ++i) {
    const serve::JobStatus& job = (*outcomes)[i].status;
    if (job.state != serve::JobState::Failed) continue;
    std::fprintf(stderr, "job %zu failed: %s\n", i, job.error.c_str());
    status = 1;
  }
  return status;
}
