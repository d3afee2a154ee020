#pragma once

// Shared plumbing of the benchmark runner: metric sets, order statistics,
// per-request output checks, the span recorder used by traced runs, and
// the process helpers that start and stop mcmcpar_serve endpoints.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "img/synth.hpp"
#include "model/circle.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics with units, in name order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_[name] = Metric{value, unit};
  }
  /// Add every entry of `other`. Each metric has exactly one source, so a
  /// name both sets carry is a bug: throws std::logic_error.
  void merge(const Metrics& other) {
    for (const auto& [name, metric] : other.entries_) {
      if (!entries_.emplace(name, metric).second) {
        throw std::logic_error("metric " + name + " has two sources");
      }
    }
  }
  void erase(const std::string& name) { entries_.erase(name); }
  [[nodiscard]] const std::map<std::string, Metric>& all() const {
    return entries_;
  }

 private:
  std::map<std::string, Metric> entries_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Per-request answer accounting: every attempted request either checks
/// out or counts as failed (an error, a refusal or a wrong answer).
class Checks {
 public:
  /// Record one request; an empty `error` means its answer checked out.
  void record(const std::string& error);
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] std::vector<std::string> messages() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;  ///< the first few failures
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Spans the benchmark records around its own calls into each layer. Spans
/// of one request share an id; nested spans on one thread are children of
/// the span that encloses them, so a layer's self time is its span time
/// minus its children's. The spans also go to an obs::Tracer of the
/// benchmark's own, which renders the Chrome trace.
///
/// In a traced run only requests with an odd id record spans (id 0, work
/// outside any request, always does). Traced and untraced requests thus
/// interleave under the same host conditions, and obs.trace_overhead_frac
/// compares their latencies.
class Trace {
 public:
  static Trace& get();

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Whether spans of `request` are recorded.
  [[nodiscard]] bool traced(std::uint64_t request) const {
    return enabled_ && (request == 0 || request % 2 == 1);
  }

  /// RAII span: [construction, destruction) on the calling thread.
  class Scope {
   public:
    Scope(const char* layer, std::string name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool armed_;
    const char* layer_;
    std::string name_;
    std::uint64_t request_;
    Clock::time_point start_;
  };

  /// Self seconds per layer over every span recorded so far.
  [[nodiscard]] std::map<std::string, double> selfSeconds() const;
  [[nodiscard]] std::size_t spanCount() const;
  [[nodiscard]] std::uint64_t dropped() const { return tracer_.dropped(); }
  /// Write the Chrome trace JSON (chrome://tracing, Perfetto).
  bool write(const std::string& path, std::string* error);

 private:
  struct Span {
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t thread = 0;
  };
  void add(const char* layer, const std::string& name, std::uint64_t request,
           Clock::time_point start, Clock::time_point end);

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mcmcpar::obs::Tracer tracer_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// One timed request: its input (or class), whether it recorded spans, and
/// its latency.
struct Timed {
  std::size_t group = 0;
  bool traced = false;
  double seconds = 0.0;
};

/// obs.trace_overhead_frac of an interleaved traced run: over the groups
/// with both traced and untraced requests, the sum of the traced median
/// latencies over the sum of the untraced ones, minus one. NaN when no
/// group has both.
[[nodiscard]] double traceOverheadFrac(const std::vector<Timed>& requests);

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

/// One mcmcpar_serve process listening on an ephemeral port.
struct ServerProcess {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Start `bin --listen 0 <args>` with its output in `logPath`, wait for its
/// `LISTENING <port>` line and answer a PING. Throws std::runtime_error.
[[nodiscard]] ServerProcess startServer(const std::string& bin,
                                        const std::vector<std::string>& args,
                                        const std::string& logPath);

/// SHUTDOWN the server and wait for it to exit (SIGKILL after 15 s).
void stopServer(ServerProcess& server);

/// Client-side costs of one server's serve layer, timed from here through
/// serve::Client: PING and METRICS round trips, and how long a WAIT
/// returns after a tiny job ends (serve.client_wait_stall_ms).
void probeServer(std::uint16_t port, Metrics& layers);

/// CPU seconds (user + system) of a live child process.
[[nodiscard]] double processCpuSeconds(pid_t pid);
/// Peak resident set (VmHWM) of a live process, in MiB; pid 0 = this one.
[[nodiscard]] double processPeakRssMb(pid_t pid);
/// CPU seconds of this process, all threads.
[[nodiscard]] double selfCpuSeconds();
/// CPU seconds over wall seconds times the host's hardware threads
/// (par.cpu_util).
[[nodiscard]] double cpuUtilisation(double cpuSeconds, double wallSeconds);

// ---------------------------------------------------------------------------
// Inputs and answers
// ---------------------------------------------------------------------------

/// The §VII-style scene every workload draws from: `count` nuclei of mean
/// radius `radius` on a width x height image.
[[nodiscard]] mcmcpar::img::Scene makeScene(int width, int height, int count,
                                            double radius, std::uint64_t seed);

/// Detection F1 of `found` against the scene's ground truth
/// (analysis::matchCircles, centres within half a radius).
[[nodiscard]] double f1Score(const std::vector<mcmcpar::model::Circle>& found,
                             const std::vector<mcmcpar::img::SceneCircle>& truth,
                             double radius);

/// Bitwise equality of two circle lists (the determinism checks).
[[nodiscard]] bool sameCircles(const std::vector<mcmcpar::model::Circle>& a,
                               const std::vector<mcmcpar::model::Circle>& b);

/// The number after `"key": ` in a one-line JSON object such as a STATS
/// or job reply (the first occurrence); NaN when absent.
[[nodiscard]] double jsonNumber(const std::string& json,
                                const std::string& key);

/// A derived 64-bit seed: independent streams per (seed, tag).
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serveBin;  ///< path of the mcmcpar_serve executable
  std::string outDir;    ///< scratch space for PGM pools, logs and traces
  bool corrupt = false;  ///< self-test: inject one wrong answer
};

/// A workload: set up once (several times, for the setup_s median), then
/// measured for a stretch of seconds, untraced or traced.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Make the workload ready: inputs generated, servers answering, caches
  /// warm. Calling it again tears down and rebuilds everything.
  virtual void setup() = 0;
  /// Stop every process the workload started (idempotent).
  virtual void teardown() = 0;
  /// Run the measured loop for at least `seconds`. Adds every end-to-end
  /// metric to `endToEnd`; traced loops also add the layer metrics this
  /// workload is the source of, obs.trace_overhead_frac among them.
  virtual void measure(double seconds, Metrics& endToEnd, Metrics& layers,
                       Checks& checks) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> makeChain(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> makeShardSocket(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> makeServeMix(const Options& options);

/// Direct probes of single layers (τ per move, delta costs, RNG draw,
/// parallelFor, tracker, PGM decode, stitch, REPORT parse) on inputs made
/// from the seed; they are the only source of these metrics.
void probeLayers(const Options& options, Metrics& layers);

/// A closed-loop run (one job in flight at a time), made of passes: one
/// job per input (chain: per architecture; shard-socket: per scene).
struct ClosedLoopSample {
  struct Pass {
    double iterations = 0.0;  ///< logical iterations its jobs completed
    double seconds = 0.0;     ///< wall
    double cpuSeconds = 0.0;  ///< of every process in the run
    double jobs = 0.0;
    double withinLimit = 0.0;  ///< jobs inside the latency limit
  };
  std::vector<Timed> jobs;  ///< every completed job, grouped by input
  std::vector<Pass> passes;
  double f1 = 0.0;
  double peakRssMb = 0.0;
};

/// End-to-end metrics of a closed loop. Iterations and jobs completed ÷
/// wall, the jobs inside the latency limit ÷ wall (slo_rps: with one job
/// in flight, the rate that met the limit) and CPU seconds per million
/// iterations are each the median over the run's passes, so a burst of
/// load from outside that slows one pass does not move them. The latency
/// percentiles are those of `latencies`.
void addClosedLoopMetrics(const ClosedLoopSample& sample,
                          const std::vector<double>& latencies,
                          Metrics& endToEnd);

}  // namespace perfbench
