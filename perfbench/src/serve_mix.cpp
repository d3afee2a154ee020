// `serve-mix`: an open loop of tiny jobs against one mcmcpar_serve (four
// threads, a small image cache). One connection SUBMITs on a seeded
// Poisson schedule; three connections observe completion with
// serve::Client::wait and serve::Client::report, so the latency is the one
// a user of serve::Client sees. Request classes:
//   hit       path job on one of the few popular PGMs of the pool
//   miss      path job on the long tail of the pool, which overflows the
//             cache, so these decode on admission
//   upload    UPLOAD <id> ... oneshot, then SUBMIT ... @image=inline
//   sequence  four uploaded drifting frames, @sequence=4 with warm start
//             and tracking
// hit and upload bill the `light` fairness bucket (weight 3), miss and
// sequence the `heavy` one (weight 1). After the main phase at a fixed
// rate, a short ladder of higher rates finds the highest rate whose p90
// latency meets the limit without a growing backlog (slo_rps).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>

#include "img/pnm_io.hpp"
#include "serve/socket.hpp"
#include "shard/remote.hpp"
#include "common.hpp"

namespace perfbench {

using namespace mcmcpar;

namespace {

/// Main-phase requests per second.
constexpr double kRate = 30.0;
constexpr double kLatencyLimit = 0.1;  ///< seconds, p90
/// A run whose generator sent its requests later than this (p90) is
/// invalid.
constexpr double kLagLimit = 0.005;
/// The SLO ladder: kLadderFrom + kLadderStep * k requests per second,
/// tried in order until one misses the limit.
constexpr double kLadderFrom = 35.0;
constexpr double kLadderStep = 5.0;
constexpr int kLadderRungs = 16;
constexpr double kRungSeconds = 3.0;
constexpr double kRadius = 7.0;
constexpr int kPoolSize = 48;  ///< PGM files on disk, ~7 MB decoded
constexpr int kHotSet = 4;     ///< most popular: the `hit` class
constexpr int kUploads = 16;
constexpr int kSequences = 2;
constexpr int kFrames = 4;
constexpr std::uint64_t kIters = 1500;
constexpr std::uint64_t kSequenceIters = 1000;  ///< per frame
constexpr int kObservers = 3;
constexpr double kF1Floor = 0.4;  ///< on the main phase's mean F1

enum Class { kHit, kMiss, kUpload, kSequence };
const char* const kClassNames[] = {"hit", "miss", "upload", "sequence"};

struct Item {
  img::Scene scene;     ///< for pool files: the pixels before 8-bit encoding
  std::string path;     ///< pool files only
};

struct Request {
  Class cls = kHit;
  int item = 0;
  double due = 0.0;  ///< seconds after the phase start
  // Filled in by the generator and the observers.
  std::uint64_t request = 0;  ///< the id its spans share
  std::uint64_t id = 0;       ///< the server's job id
  double lag = 0.0, upload = 0.0, submit = 0.0, done = 0.0, report = 0.0;
  double queue = 0.0, run = 0.0;
  double reportBytes = 0.0;
  std::uint64_t iterations = 0;
  double f1 = 0.0;
  int missedFrameEvents = 0;  ///< sequence jobs: FRAME events not streamed
  std::string error;

  [[nodiscard]] double latency() const { return done - due; }
  [[nodiscard]] bool heavy() const { return cls == kMiss || cls == kSequence; }
};

struct Phase {
  std::vector<Request> requests;
  double wallSeconds = 0.0;
  std::size_t backlogEnd = 0;  ///< unfinished requests when sending ended
  double cpuSeconds = 0.0;
  double peakRssMb = 0.0;  ///< of this process and the server, at the end
};

class ServeMix final : public Workload {
 public:
  explicit ServeMix(const Options& options) : options_(options) {}
  ~ServeMix() override { teardown(); }

  void setup() override {
    teardown();
    pool_.clear();
    uploads_.clear();
    sequences_.clear();
    for (int i = 0; i < kPoolSize; ++i) {
      const int size = 128 + 32 * (i % 5);
      Item item{makeScene(size, size, std::max(4, size * size / 4000),
                          kRadius, deriveSeed(options_.seed, 1000 + i)),
                options_.outDir + "/pool-" + std::to_string(i) + ".pgm"};
      // The server decodes 8-bit pixels; score against that image.
      img::writePgm(img::toU8(item.scene.image), item.path);
      pool_.push_back(std::move(item));
    }
    for (int k = 0; k < kUploads; ++k) {
      uploads_.push_back(makeScene(192, 192, 9, kRadius,
                                   deriveSeed(options_.seed, 2000 + k)));
    }
    for (int k = 0; k < kSequences; ++k) {
      img::DriftSpec spec;
      spec.scene = img::cellScene(160, 160, 6, kRadius,
                                  deriveSeed(options_.seed, 3000 + k));
      spec.frames = kFrames;
      sequences_.push_back(img::generateDriftingSequence(spec));
    }
    server_ = startServer(options_.serveBin,
                          {"--threads", "4", "--cache-mb", "2", "--seed",
                           std::to_string(options_.seed), "--radius", "7",
                           "--iterations", std::to_string(kIters)},
                          options_.outDir + "/serve-mix.log");
    answers_.clear();
    // Warm-up: one request of every class, in order, before any timing.
    std::vector<Request> warm;
    for (int c = kHit; c <= kSequence; ++c) {
      Request r;
      r.cls = static_cast<Class>(c);
      r.item = c == kMiss ? kPoolSize - 1 : 0;
      warm.push_back(r);
    }
    Checks ignored;
    (void)runSchedule(std::move(warm), ignored);
  }

  void teardown() override { stopServer(server_); }

  void measure(double seconds, Metrics& endToEnd, Metrics& layers,
               Checks& checks) override {
    corruptNext_ = options_.corrupt;
    const std::string statsBefore = request("STATS");
    Phase main = runSchedule(schedule(kRate, seconds, 1), checks);
    const std::string statsAfter = request("STATS");
    const double slo = ladder(std::min(kRungSeconds, seconds / 10), checks);

    std::vector<double> latency, lag;
    std::vector<Timed> timed;
    std::map<std::pair<int, int>, double> inputF1;  ///< one per input
    std::uint64_t iterations = 0;
    double completed = 0.0;
    for (const Request& r : main.requests) {
      latency.push_back(r.error.empty() ? r.latency()
                                        : std::numeric_limits<double>::infinity());
      lag.push_back(r.lag);
      timed.push_back({static_cast<std::size_t>(r.cls),
                       Trace::get().traced(r.request), latency.back()});
      if (r.error.empty()) {
        inputF1[{r.cls, r.item}] = r.f1;
        completed += 1.0;
      }
      iterations += r.iterations;
    }
    std::vector<double> f1;
    for (const auto& [input, score] : inputF1) f1.push_back(score);
    checks.record(mean(f1) >= kF1Floor
                      ? ""
                      : "serve-mix: mean F1 " + std::to_string(mean(f1)) +
                            " below the floor");
    // Latency is timed from when a request was due, so a late generator
    // would hide part of it: such a run is invalid.
    const double lagP90 = quantile(lag, 0.9);
    checks.record(lagP90 <= kLagLimit
                      ? ""
                      : "serve-mix: the generator ran late, p90 lag " +
                            std::to_string(1e3 * lagP90) + " ms");
    endToEnd.set("iters_per_s", static_cast<double>(iterations) / main.wallSeconds,
                 "it/s");
    endToEnd.set("jobs_per_s", completed / main.wallSeconds, "1/s");
    endToEnd.set("latency_p50_s", median(latency), "s");
    endToEnd.set("latency_p90_s", quantile(latency, 0.9), "s");
    endToEnd.set("slo_rps", slo, "1/s");
    endToEnd.set("f1", mean(f1), "ratio");
    endToEnd.set("cpu_per_miter_s",
                 main.cpuSeconds / (static_cast<double>(iterations) / 1e6), "s");
    endToEnd.set("peak_rss_mb",
                 main.peakRssMb,
                 "MB");
    if (Trace::get().enabled()) {
      addLayers(main, statsBefore, statsAfter, layers);
      layers.set("load.gen_lag_p90_ms", 1e3 * lagP90, "ms");
      layers.set("obs.trace_overhead_frac", traceOverheadFrac(timed),
                 "ratio");
    }
  }

 private:
  /// A seeded Poisson arrival schedule of `seconds` at `rate` per second.
  [[nodiscard]] std::vector<Request> schedule(double rate, double seconds,
                                              std::uint64_t tag) const {
    rng::Stream stream(deriveSeed(options_.seed, 5000 + tag));
    // Zipf(1) popularity over the pool; rank = index.
    std::vector<double> weights;
    for (int i = 0; i < kPoolSize; ++i) weights.push_back(1.0 / (i + 1));
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    std::vector<Request> requests;
    for (double t = stream.exponential(rate); t < seconds;
         t += stream.exponential(rate)) {
      Request r;
      r.due = t;
      const double u = stream.uniform();
      if (u < 0.68) {
        double pick = stream.uniform() * total;
        while (r.item < kPoolSize - 1 && pick >= weights[r.item]) {
          pick -= weights[r.item++];
        }
        r.cls = r.item < kHotSet ? kHit : kMiss;
      } else if (u < 0.96) {
        r.cls = kUpload;
        r.item = static_cast<int>(stream.below(kUploads));
      } else {
        r.cls = kSequence;
        r.item = static_cast<int>(stream.below(kSequences));
      }
      requests.push_back(r);
    }
    return requests;
  }

  /// Send every request at its due time on one connection while
  /// kObservers connections WAIT for and REPORT the admitted jobs.
  Phase runSchedule(std::vector<Request> requests, Checks& checks) {
    Phase phase;
    phase.requests = std::move(requests);
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<std::size_t> admitted;
    bool sending = true;
    std::size_t finished = 0;

    const double cpu0 = selfCpuSeconds() + processCpuSeconds(server_.pid);
    const Clock::time_point start = Clock::now();
    const auto now = [&] { return since(start); };
    serve::Client client;
    client.connect("127.0.0.1", server_.port, 60.0);
    std::vector<std::jthread> observers;
    for (int o = 0; o < kObservers; ++o) {
      observers.emplace_back([&] {
        try {
          serve::Client observer;
          observer.connect("127.0.0.1", server_.port, 60.0);
          while (true) {
            std::size_t index = 0;
            {
              std::unique_lock lock(mutex);
              ready.wait(lock, [&] { return !admitted.empty() || !sending; });
              if (admitted.empty()) return;
              index = admitted.front();
              admitted.pop_front();
            }
            observe(observer, phase.requests[index], now);
            const std::lock_guard lock(mutex);
            ++finished;
          }
        } catch (const std::exception& e) {
          // Requests left unobserved fail below.
          std::fprintf(stderr, "perfbench: observer: %s\n", e.what());
        }
      });
    }

    for (std::size_t i = 0; i < phase.requests.size(); ++i) {
      Request& r = phase.requests[i];
      r.request = ++requests_;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(r.due)));
      r.lag = now() - r.due;
      send(client, r, now);
      const std::lock_guard lock(mutex);
      if (r.id != 0) {
        admitted.push_back(i);
        ready.notify_one();
      } else {
        ++finished;
      }
    }
    {
      const std::lock_guard lock(mutex);
      phase.backlogEnd = phase.requests.size() - finished;
      sending = false;
    }
    ready.notify_all();
    observers.clear();  // joins
    phase.wallSeconds = now();
    phase.cpuSeconds =
        selfCpuSeconds() + processCpuSeconds(server_.pid) - cpu0;
    phase.peakRssMb =
        std::max(processPeakRssMb(0), processPeakRssMb(server_.pid));
    for (Request& r : phase.requests) {
      if (r.error.empty() && r.done == 0.0) {
        r.error = std::string(kClassNames[r.cls]) + ": never observed";
        r.done = std::numeric_limits<double>::infinity();
      }
      checks.record(r.error);
    }
    return phase;
  }

  /// UPLOAD (upload and sequence classes) and SUBMIT one request.
  void send(serve::Client& client, Request& r,
            const std::function<double()>& now) {
    const std::uint64_t n = r.request;
    const std::uint64_t seed =
        deriveSeed(options_.seed, 10000 + 100 * r.cls + r.item);
    std::string line;
    try {
      double t = now();
      if (r.cls == kUpload) {
        Trace::Scope span("serve", "UPLOAD", n);
        const std::string id = "u" + std::to_string(r.item);
        (void)client.upload(id, uploads_[r.item].image, /*oneshot=*/true);
        line = id + " serial @image=inline";
      } else if (r.cls == kSequence) {
        Trace::Scope span("serve", "UPLOAD frames", n);
        const std::string id = "s" + std::to_string(r.item);
        for (int f = 0; f < kFrames; ++f) {
          (void)client.upload(id + "." + std::to_string(f),
                              sequences_[r.item][f].image, /*oneshot=*/true);
        }
        line = id + " serial @image=inline @sequence=4 @warm-start=1 @track=1";
      } else {
        line = pool_[r.item].path + " serial";
      }
      r.upload = now() - t;
      line += " @seed=" + std::to_string(seed) + " @iters=" +
              std::to_string(r.cls == kSequence ? kSequenceIters : kIters) +
              (r.heavy() ? " @client=heavy" : " @client=light*3");
      t = now();
      {
        Trace::Scope span("serve", "SUBMIT", n);
        r.id = client.submit(line);
      }
      r.submit = now() - t;
    } catch (const std::exception& e) {
      r.error = std::string(kClassNames[r.cls]) + ": " + e.what();
      r.done = std::numeric_limits<double>::infinity();
    }
  }

  /// WAIT for one admitted job and REPORT it (done = the REPORT in hand),
  /// then check the answer.
  void observe(serve::Client& client, Request& r,
               const std::function<double()>& now) {
    try {
      std::string state;
      int frames = 0;
      {
        Trace::Scope span("serve", "Client::wait", r.request);
        state = client.wait(r.id, [&](const std::string& event) {
          std::istringstream tokens(event);
          std::string word, id, type;
          tokens >> word >> id >> type;
          frames += type == "FRAME";
        });
      }
      std::string json;
      const Clock::time_point reportStart = Clock::now();
      {
        Trace::Scope span("serve", "Client::report", r.request);
        json = client.report(r.id);
      }
      r.report = since(reportStart);
      r.done = now();
      r.reportBytes = static_cast<double>(json.size());
      if (corruptNext_.exchange(false)) json.resize(json.size() / 2);
      shard::remote::TileReportJson report;
      {
        Trace::Scope span("shard", "parseReportJson", r.request);
        report = shard::remote::parseReportJson(json);
      }
      r.queue = jsonNumber(json, "queue_seconds");
      r.run = jsonNumber(json, "wall_seconds");
      r.iterations = report.iterations;
      if (r.cls == kSequence) r.missedFrameEvents = kFrames - frames;
      r.error = check(r, state, report, json);
    } catch (const std::exception& e) {
      r.error = std::string(kClassNames[r.cls]) + ": " + e.what();
      r.done = std::numeric_limits<double>::infinity();
    }
  }

  /// The answer checks: the job ended `done`, its REPORT parsed, it ran its
  /// iteration budget, its circles lie in its image, sequence jobs returned
  /// four frames and tracks, and a repeat of an input reproduces its first
  /// answer exactly. (Jobs this small can legitimately miss every nucleus,
  /// so the F1 floor applies to the phase mean instead. Under load a WAIT
  /// occasionally streams fewer FRAME events than the job has frames; that
  /// is counted as stream.frame_events_missed, not as a wrong answer.)
  std::string check(Request& r, const std::string& state,
                    const shard::remote::TileReportJson& report,
                    const std::string& json) {
    const std::string name = kClassNames[r.cls];
    if (state != "done" || report.state != "done") {
      return name + ": job ended " + state;
    }
    const std::uint64_t budget =
        r.cls == kSequence ? kFrames * kSequenceIters : kIters;
    if (report.iterations != budget) {
      return name + ": ran " + std::to_string(report.iterations) +
             " iterations, budget " + std::to_string(budget);
    }
    const img::Scene& image = r.cls == kSequence ? sequences_[r.item].back()
                              : r.cls == kUpload ? uploads_[r.item]
                                                 : pool_[r.item].scene;
    for (const model::Circle& c : report.circles) {
      if (c.x < 0 || c.y < 0 || c.x >= image.image.width() ||
          c.y >= image.image.height() || c.r <= 0) {
        return name + ": circle outside its image";
      }
    }
    const std::vector<img::SceneCircle>* truth = nullptr;
    if (r.cls == kSequence) {
      std::size_t frames = 0;
      for (std::size_t at = json.find("\"frame\": "); at != std::string::npos;
           at = json.find("\"frame\": ", at + 1)) {
        ++frames;
      }
      if (frames != kFrames ||
          json.find("\"tracks\": [[") == std::string::npos) {
        return "sequence: expected 4 frames and tracks";
      }
      truth = &sequences_[r.item].back().truth;
    } else if (r.cls == kUpload) {
      truth = &uploads_[r.item].truth;
    } else {
      truth = &pool_[r.item].scene.truth;
    }
    r.f1 = f1Score(report.circles, *truth, kRadius);
    const std::lock_guard lock(answersMutex_);
    const auto [it, first] = answers_.try_emplace(
        std::make_pair(r.cls, r.item), std::make_pair(report.circles,
                                                      report.logPosterior));
    if (!first && (!sameCircles(it->second.first, report.circles) ||
                   it->second.second != report.logPosterior)) {
      return name + ": answer differs from the first one for its input";
    }
    return "";
  }

  /// Rungs above the main rate, each drained before the next; returns the
  /// rate where p90 latency crosses the limit, interpolated between the
  /// last rung that met it and the first that did not.
  double ladder(double rungSeconds, Checks& checks) {
    double passRate = kRate, passP90 = 0.0;
    for (int k = 0; k < kLadderRungs; ++k) {
      const double rate = kLadderFrom + kLadderStep * k;
      const Phase rung =
          runSchedule(schedule(rate, rungSeconds, 100 + k), checks);
      std::vector<double> latency;
      for (const Request& r : rung.requests) latency.push_back(r.latency());
      const double p90 = quantile(latency, 0.9);
      // Requests in flight at a rung that meets the limit number about
      // rate x latency (Little's law); twice the limit's worth means a
      // queue is building up.
      const bool backlogGrew =
          static_cast<double>(rung.backlogEnd) > 2.0 * rate * kLatencyLimit;
      std::fprintf(stderr,
                   "perfbench: serve-mix rung %.1f/s: p90 %.4f s, backlog %zu\n",
                   rate, p90, rung.backlogEnd);
      if (p90 <= kLatencyLimit && !backlogGrew) {
        passRate = rate;
        passP90 = p90;
        continue;
      }
      if (backlogGrew || p90 <= passP90) return passRate;
      const double share = (kLatencyLimit - passP90) / (p90 - passP90);
      return passRate + (rate - passRate) * std::clamp(share, 0.0, 1.0);
    }
    return passRate;
  }

  void addLayers(const Phase& main, const std::string& statsBefore,
                 const std::string& statsAfter, Metrics& layers) {
    std::vector<double> upload, submit, report, bytes, run, frame;
    std::vector<double> queue[2], perClass[4];
    double latencySum = 0.0, attributed = 0.0, missedFrameEvents = 0.0;
    for (const Request& r : main.requests) {
      missedFrameEvents += r.missedFrameEvents;
      if (r.cls == kUpload || r.cls == kSequence) upload.push_back(r.upload);
      submit.push_back(r.submit);
      report.push_back(r.report);
      bytes.push_back(r.reportBytes);
      run.push_back(r.run);
      queue[r.heavy()].push_back(r.queue);
      perClass[r.cls].push_back(r.latency());
      if (r.cls == kSequence) frame.push_back(r.latency() / kFrames);
      latencySum += r.latency();
      attributed += r.lag + r.upload + r.submit + r.queue + r.run + r.report;
    }
    const auto ms = [&](const char* name, const std::vector<double>& v) {
      layers.set(std::string("serve.") + name + "_ms_p50", 1e3 * median(v), "ms");
      layers.set(std::string("serve.") + name + "_ms_p90",
                 1e3 * quantile(v, 0.9), "ms");
    };
    ms("upload", upload);
    ms("submit", submit);
    ms("report", report);
    layers.set("serve.report_kb", mean(bytes) / 1024.0, "KB");
    for (int h = 0; h < 2; ++h) {
      const std::string bucket = h ? "heavy" : "light";
      layers.set("serve.queue_s_p50." + bucket, median(queue[h]), "s");
      layers.set("serve.queue_s_p90." + bucket, quantile(queue[h], 0.9), "s");
    }
    layers.set("serve.job_run_s_p50", median(run), "s");
    for (int c = 0; c < 4; ++c) {
      layers.set(std::string("serve.latency_p50_s.") + kClassNames[c],
                 median(perClass[c]), "s");
    }
    layers.set("serve.unattributed_frac", 1.0 - attributed / latencySum,
               "ratio");
    layers.set("serve.backlog_end", static_cast<double>(main.backlogEnd),
               "count");
    const auto delta = [&](const char* key) {
      return jsonNumber(statsAfter, key) - jsonNumber(statsBefore, key);
    };
    const double lookups = delta("cache_hits") + delta("cache_misses");
    layers.set("serve.cache_hit_rate",
               lookups > 0.0 ? delta("cache_hits") / lookups : 0.0, "ratio");
    layers.set("serve.cache_misses", delta("cache_misses"), "count");
    layers.set("serve.cache_evictions", delta("cache_evictions"), "count");
    layers.set("stream.frame_s", median(frame), "s");
    layers.set("stream.frame_events_missed", missedFrameEvents, "count");
    probeServer(server_.port, layers);
  }

  [[nodiscard]] std::string request(const std::string& line) const {
    serve::Client client;
    client.connect("127.0.0.1", server_.port, 30.0);
    return client.request(line);
  }

  Options options_;
  std::vector<Item> pool_;
  std::vector<img::Scene> uploads_;
  std::vector<std::vector<img::Scene>> sequences_;
  ServerProcess server_;
  std::mutex answersMutex_;
  std::map<std::pair<int, int>,
           std::pair<std::vector<model::Circle>, double>> answers_;
  std::atomic<bool> corruptNext_{false};  ///< self-test: break one REPORT
  std::uint64_t requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeServeMix(const Options& options) {
  return std::make_unique<ServeMix>(options);
}

}  // namespace perfbench
