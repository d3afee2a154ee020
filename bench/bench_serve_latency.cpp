// SERVE — measure what the persistent front-end buys over one-shot
// execution: per-request latency against a warm serve::Server (resident
// PoolBudget, cached image decode) versus cold-start baselines that pay
// the full setup per request: an in-process image reload + engine rebuild,
// and a fresh mcmcpar_run process when the binary is reachable. This is the
// one place the repo times a fresh process; sustained serve throughput is
// perfbench's serve-mix workload (jobs_per_s, slo_rps).
// Emits BENCH_serve.json.
//
//   bench_serve_latency [--runs=N] [--seed=N] [--paper-scale]
//                       [--out=FILE] [--run-bin=PATH]
//     --runs=N       sequential requests per mode (default 12; paper 24)
//     --out=FILE     JSON output path (default BENCH_serve.json)
//     --run-bin=PATH mcmcpar_run binary for the fresh-process baseline
//                    (default ./tools/mcmcpar_run, skipped if absent)

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "img/pnm_io.hpp"
#include "par/virtual_clock.hpp"
#include "serve/server.hpp"

using namespace mcmcpar;
namespace fs = std::filesystem;

namespace {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

void printMode(const char* name, const std::vector<double>& latencies) {
  std::printf("  %-14s %3zu requests: p50 %7.3f ms, p95 %7.3f ms\n", name,
              latencies.size(), 1e3 * percentile(latencies, 0.50),
              1e3 * percentile(latencies, 0.95));
}

void jsonMode(std::ostream& out, const char* name,
              const std::vector<double>& latencies, bool last) {
  out << "    \"" << name << "\": {\"requests\": " << latencies.size()
      << ", \"p50_seconds\": " << percentile(latencies, 0.50)
      << ", \"p95_seconds\": " << percentile(latencies, 0.95) << "}"
      << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_serve.json";
  std::string runBin = "./tools/mcmcpar_run";
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      outPath = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--run-bin=", 10) == 0) {
      runBin = argv[i] + 10;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const bench::Options opt = bench::parseOptions(
      static_cast<int>(passthrough.size()), passthrough.data(),
      " [--out=FILE] [--run-bin=PATH]");
  const int requests = opt.runs > 0 ? opt.runs : (opt.paperScale ? 24 : 12);
  const int size = opt.paperScale ? 384 : 160;
  const int cells = opt.paperScale ? 40 : 8;
  const std::uint64_t iterations = opt.paperScale ? 20000 : 4000;

  // The workload image, written to disk so every mode pays (or amortises)
  // the same PGM decode.
  const fs::path imagePath =
      fs::temp_directory_path() /
      ("bench_serve_" + std::to_string(opt.seed) + ".pgm");
  {
    const img::Scene scene = img::generateScene(
        img::cellScene(size, size, cells, 10.0, opt.seed));
    img::writePgm(img::toU8(scene.image), imagePath.string());
  }
  const std::string jobLine = imagePath.string() + " serial @iters=" +
                              std::to_string(iterations);

  std::printf("SERVE: %d sequential requests/mode, %llu iters each, "
              "%dx%d image\n\n",
              requests, static_cast<unsigned long long>(iterations), size,
              size);

  // --- warm: one persistent server, cache primed by a warm-up request ----
  serve::ServerOptions serverOptions;
  serverOptions.seed = opt.seed;
  serverOptions.radius = 10.0;
  serverOptions.defaultBudget = engine::RunBudget{iterations, 0};
  serve::Server server(serverOptions);

  // Event-driven completion (no status polling): block on the job's event
  // log until its terminal event, so the measured latency is the server's,
  // not a poll interval's.
  const auto runOnServer = [&](const std::string& line) {
    const std::uint64_t id = server.submitLine(line);
    std::uint64_t afterSeq = 0;
    while (true) {
      const auto batch = server.events(id, afterSeq, std::chrono::seconds(1));
      if (!batch) return false;  // pruned: cannot happen at this volume
      if (batch->empty()) continue;
      afterSeq = batch->back().seq;
      if (const auto state = serve::terminalState(batch->back().type)) {
        return *state == serve::JobState::Done;
      }
    }
  };
  (void)runOnServer(jobLine);  // warm-up: decode into the cache

  std::vector<double> warm;
  bool allOk = true;
  for (int i = 0; i < requests; ++i) {
    const par::WallTimer timer;
    allOk &= runOnServer(jobLine);
    warm.push_back(timer.seconds());
  }
  printMode("warm-server", warm);

  // --- cold in-process: re-read the image and rebuild per request --------
  std::vector<double> coldReload;
  for (int i = 0; i < requests; ++i) {
    const par::WallTimer timer;
    const img::ImageF image = img::toF(img::readPgm(imagePath.string()));
    engine::Problem problem;
    problem.filtered = &image;
    problem.prior.radiusMean = 10.0;
    problem.prior.radiusStd = 10.0 / 8.0;
    problem.prior.radiusMin = 5.0;
    problem.prior.radiusMax = 18.0;
    const engine::Engine engine(
        engine::ExecResources{0, false, opt.seed + static_cast<unsigned>(i)});
    const engine::RunReport report = engine.run(
        "serial", problem, engine::RunBudget{iterations, 0});
    allOk &= !report.cancelled;
    coldReload.push_back(timer.seconds());
  }
  printMode("cold-reload", coldReload);

  // --- cold process: a fresh mcmcpar_run per request ---------------------
  std::vector<double> coldProcess;
  if (fs::exists(runBin)) {
    const std::string command = runBin + " --image " + imagePath.string() +
                                " --strategy serial --iterations " +
                                std::to_string(iterations) +
                                " > /dev/null 2>&1";
    for (int i = 0; i < requests; ++i) {
      const par::WallTimer timer;
      if (std::system(command.c_str()) != 0) {
        allOk = false;
        break;
      }
      coldProcess.push_back(timer.seconds());
    }
    printMode("cold-process", coldProcess);
  } else {
    std::printf("  %-14s skipped (%s not found)\n", "cold-process",
                runBin.c_str());
  }

  const serve::ServerStats stats = server.stats();
  std::printf("\ncache: %llu hit(s), %llu miss(es) across %llu jobs\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.jobs.submitted));

  const double warmP50 = percentile(warm, 0.50);
  const double coldP50 = percentile(
      coldProcess.empty() ? coldReload : coldProcess, 0.50);
  std::printf("warm p50 %.3f ms vs %s p50 %.3f ms: %s\n", 1e3 * warmP50,
              coldProcess.empty() ? "cold-reload" : "cold-process",
              1e3 * coldP50,
              warmP50 < coldP50 ? "warm wins" : "WARM DID NOT WIN");

  std::ofstream out(outPath);
  out << "{\n"
      << "  \"bench\": \"serve_latency\",\n"
      << "  \"iterations_per_request\": " << iterations << ",\n"
      << "  \"image\": \"" << size << "x" << size << "\",\n"
      << "  \"modes\": {\n";
  jsonMode(out, "warm_server", warm, false);
  jsonMode(out, "cold_reload", coldReload, coldProcess.empty());
  if (!coldProcess.empty()) jsonMode(out, "cold_process", coldProcess, true);
  out << "  },\n"
      << "  \"cache_hits\": " << stats.cache.hits << ",\n"
      << "  \"cache_misses\": " << stats.cache.misses << ",\n"
      << "  \"warm_beats_cold_start\": "
      << (warmP50 < coldP50 ? "true" : "false") << "\n"
      << "}\n";
  std::printf("wrote %s\n", outPath.c_str());

  std::error_code ec;
  fs::remove(imagePath, ec);
  return allOk ? 0 : 1;
}
