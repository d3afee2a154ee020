// perfbench_runner — runs one workload of the benchmark and prints its
// result as one JSON line (the last line of standard output):
//
//   perfbench_runner --workload chain|shard-socket|serve-mix --seed N
//                    --seconds X --trace 0|1 --serve-bin PATH --out-dir DIR
//                    [--corrupt]
//
// Untraced runs print the end-to-end metrics. Traced runs print the
// per-layer metrics: every other request of the workload records spans
// (obs.trace_overhead_frac compares them with the rest), then single-layer
// probes and short traced runs of the other two workloads supply the
// metrics those are the source of. --corrupt injects one wrong answer,
// which the output checks must catch (the self-test uses it).
// perfbench/run.py builds this runner and is the command to run.

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common.hpp"

using namespace perfbench;

namespace {

constexpr int kSetups = 5;              ///< setup_s is the median of these
constexpr double kProbeSeconds = 2.0;   ///< other workloads in traced runs
const char* const kWorkloads[] = {"chain", "shard-socket", "serve-mix"};

std::unique_ptr<Workload> makeWorkload(const Options& options) {
  if (options.workload == "chain") return makeChain(options);
  if (options.workload == "shard-socket") return makeShardSocket(options);
  if (options.workload == "serve-mix") return makeServeMix(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

Options parseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      options.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--serve-bin") {
      options.serveBin = value;
    } else if (flag == "--out-dir") {
      options.outDir = value;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (options.serveBin.empty() || options.outDir.empty()) {
    throw std::invalid_argument("--serve-bin and --out-dir are required");
  }
  return options;
}

/// Short traced runs of the other workloads, for the layer metrics they
/// are the source of.
void addOtherWorkloads(const Options& options, Metrics& layers,
                       Checks& checks) {
  for (const char* name : kWorkloads) {
    if (options.workload == name) continue;
    Options other = options;
    other.workload = name;
    other.corrupt = false;
    std::unique_ptr<Workload> workload = makeWorkload(other);
    workload->setup();
    Metrics endToEnd, probed;
    workload->measure(kProbeSeconds, endToEnd, probed, checks);
    workload->teardown();
    // The tracing overhead reported is the workload under test's.
    probed.erase("obs.trace_overhead_frac");
    layers.merge(probed);
  }
}

void printResult(const Checks& checks, const Metrics& metrics) {
  bool finite = true;
  std::string body;
  for (const auto& [name, metric] : metrics.all()) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      finite = false;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    body += (body.empty() ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  for (const std::string& message : checks.messages()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", message.c_str());
  }
  const bool correct = finite && checks.failed() == 0 && checks.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()), body.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parseArgs(argc, argv);
    std::unique_ptr<Workload> workload = makeWorkload(options);
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      const Clock::time_point t0 = Clock::now();
      workload->setup();
      setups.push_back(since(t0));
    }

    Metrics endToEnd, layers;
    Checks checks;
    Trace& trace = Trace::get();
    trace.enable(options.trace);
    workload->measure(options.seconds, endToEnd, layers, checks);
    workload->teardown();
    endToEnd.set("setup_s", median(setups), "s");

    if (!options.trace) {
      printResult(checks, endToEnd);
      return 0;
    }
    probeLayers(options, layers);
    addOtherWorkloads(options, layers, checks);
    trace.enable(false);
    layers.set("obs.trace_dropped", static_cast<double>(trace.dropped()),
               "count");
    layers.set("error_rate",
               static_cast<double>(checks.failed()) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, checks.attempted())),
               "ratio");
    std::fprintf(stderr, "perfbench: self time per layer over %zu spans:\n",
                 trace.spanCount());
    for (const auto& [layer, seconds] : trace.selfSeconds()) {
      std::fprintf(stderr, "  %-10s %10.4f s\n", layer.c_str(), seconds);
    }
    const std::string tracePath =
        options.outDir + "/trace-" + options.workload + ".json";
    std::string error;
    if (!trace.write(tracePath, &error)) {
      throw std::runtime_error("cannot write the trace: " + error);
    }
    std::fprintf(stderr, "perfbench: Chrome trace written to %s\n",
                 tracePath.c_str());
    printResult(checks, layers);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
