#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/metrics.hpp"
#include "serve/socket.hpp"

extern char** environ;

namespace perfbench {

using namespace mcmcpar;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// --- Checks -----------------------------------------------------------------

void Checks::record(const std::string& error) {
  const std::lock_guard lock(mutex_);
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (messages_.size() < 20) messages_.push_back(error);
}

std::uint64_t Checks::attempted() const {
  const std::lock_guard lock(mutex_);
  return attempted_;
}

std::uint64_t Checks::failed() const {
  const std::lock_guard lock(mutex_);
  return failed_;
}

std::vector<std::string> Checks::messages() const {
  const std::lock_guard lock(mutex_);
  return messages_;
}

// --- Trace ------------------------------------------------------------------

namespace {

std::uint64_t threadNumber() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t number = next.fetch_add(1);
  return number;
}

}  // namespace

Trace& Trace::get() {
  static Trace trace;
  return trace;
}

Trace::Scope::Scope(const char* layer, std::string name, std::uint64_t request)
    : armed_(Trace::get().traced(request)),
      layer_(layer),
      name_(std::move(name)),
      request_(request),
      start_(armed_ ? Clock::now() : Clock::time_point{}) {}

Trace::Scope::~Scope() {
  if (armed_) Trace::get().add(layer_, name_, request_, start_, Clock::now());
}

void Trace::add(const char* layer, const std::string& name,
                std::uint64_t request, Clock::time_point start,
                Clock::time_point end) {
  const auto offset = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - epoch_).count();
  };
  obs::TraceArgs args;
  if (request != 0) args.emplace_back("req", std::to_string(request));
  tracer_.setEnabled(true);
  tracer_.record(layer, name, start, end, std::move(args));
  const std::lock_guard lock(mutex_);
  spans_.push_back(Span{layer, offset(start), offset(end), threadNumber()});
}

std::map<std::string, double> Trace::selfSeconds() const {
  std::vector<Span> spans;
  {
    const std::lock_guard lock(mutex_);
    spans = spans_;
  }
  // Spans on one thread nest (they are RAII scopes), so walking them in
  // start order with a stack finds each span's direct parent.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
    while (!stack.empty() && (spans[stack.back()].thread != spans[i].thread ||
                              spans[stack.back()].end <= spans[i].start)) {
      stack.pop_back();
    }
    if (!stack.empty()) self[stack.back()] -= spans[i].end - spans[i].start;
    stack.push_back(i);
  }
  std::map<std::string, double> perLayer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    perLayer[spans[i].layer] += self[i];
  }
  return perLayer;
}

std::size_t Trace::spanCount() const {
  const std::lock_guard lock(mutex_);
  return spans_.size();
}

bool Trace::write(const std::string& path, std::string* error) {
  return tracer_.writeJson(path, error);
}

double traceOverheadFrac(const std::vector<Timed>& requests) {
  std::map<std::size_t, std::vector<double>> sides[2];  ///< [traced][group]
  for (const Timed& r : requests) sides[r.traced][r.group].push_back(r.seconds);
  double traced = 0.0, untraced = 0.0;
  for (const auto& [group, latencies] : sides[1]) {
    const auto other = sides[0].find(group);
    if (other == sides[0].end()) continue;
    traced += median(latencies);
    untraced += median(other->second);
  }
  return untraced > 0.0 ? traced / untraced - 1.0 : std::nan("");
}

// --- Processes --------------------------------------------------------------

ServerProcess startServer(const std::string& bin,
                          const std::vector<std::string>& args,
                          const std::string& logPath) {
  std::vector<std::string> argv = {bin, "--listen", "0"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> cargv;
  for (std::string& arg : argv) cargv.push_back(arg.data());
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  ServerProcess server;
  const int rc = posix_spawn(&server.pid, bin.c_str(), &actions, nullptr,
                             cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + bin + ": " + std::strerror(rc));
  }

  const Clock::time_point t0 = Clock::now();
  while (server.port == 0) {
    std::ifstream log(logPath);
    std::string line;
    while (std::getline(log, line)) {
      if (line.rfind("LISTENING ", 0) == 0) {
        server.port = static_cast<std::uint16_t>(std::stoi(line.substr(10)));
      }
    }
    if (server.port != 0) break;
    int status = 0;
    if (waitpid(server.pid, &status, WNOHANG) == server.pid) {
      server.pid = -1;
      throw std::runtime_error(bin + " exited before listening (see " +
                               logPath + ")");
    }
    if (since(t0) > 20.0) {
      stopServer(server);
      throw std::runtime_error(bin + " did not listen within 20 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  serve::Client client;
  client.connect("127.0.0.1", server.port, 10.0);
  if (client.request("PING") != "OK pong") {
    stopServer(server);
    throw std::runtime_error("server did not answer PING");
  }
  return server;
}

void stopServer(ServerProcess& server) {
  if (server.pid <= 0) return;
  if (server.port != 0) {
    try {
      serve::Client client;
      client.connect("127.0.0.1", server.port, 5.0);
      (void)client.request("SHUTDOWN");
    } catch (const std::exception&) {
      // Already gone or wedged: the wait below settles it either way.
    }
  }
  const Clock::time_point t0 = Clock::now();
  int status = 0;
  while (waitpid(server.pid, &status, WNOHANG) == 0) {
    if (since(t0) > 15.0) {
      kill(server.pid, SIGKILL);
      waitpid(server.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.pid = -1;
  server.port = 0;
}

void probeServer(std::uint16_t port, Metrics& layers) {
  serve::Client client;
  client.connect("127.0.0.1", port, 30.0);
  std::vector<double> ping, scrape, stall;
  for (int i = 0; i < 20; ++i) {
    const Clock::time_point t = Clock::now();
    Trace::Scope span("serve", "PING");
    (void)client.request("PING");
    ping.push_back(since(t));
  }
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t = Clock::now();
    Trace::Scope span("obs", "Client::metrics");
    (void)client.metrics();
    scrape.push_back(since(t));
  }
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t id = client.submit("synth serial @iters=200");
    const Clock::time_point t = Clock::now();
    {
      Trace::Scope span("serve", "Client::wait");
      (void)client.wait(id);
    }
    const double waited = since(t);
    const std::string result = client.request("RESULT " + std::to_string(id));
    stall.push_back(waited - jsonNumber(result, "latency_seconds"));
  }
  layers.set("serve.ping_ms_p50", 1e3 * median(ping), "ms");
  layers.set("obs.metrics_scrape_ms", 1e3 * median(scrape), "ms");
  layers.set("serve.client_wait_stall_ms", 1e3 * median(stall), "ms");
}

double processCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double processPeakRssMb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double selfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double cpuUtilisation(double cpuSeconds, double wallSeconds) {
  return cpuSeconds /
         (wallSeconds * std::max(1u, std::thread::hardware_concurrency()));
}

// --- Inputs and answers -----------------------------------------------------

img::Scene makeScene(int width, int height, int count, double radius,
                     std::uint64_t seed) {
  return img::generateScene(
      img::cellScene(width, height, count, radius, seed));
}

double f1Score(const std::vector<model::Circle>& found,
               const std::vector<img::SceneCircle>& truth, double radius) {
  std::vector<model::Circle> reference;
  reference.reserve(truth.size());
  for (const img::SceneCircle& t : truth) {
    reference.push_back(model::Circle{t.x, t.y, t.r});
  }
  return analysis::scoreCircles(found, reference, 0.5 * radius).f1;
}

bool sameCircles(const std::vector<model::Circle>& a,
                 const std::vector<model::Circle>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y || a[i].r != b[i].r) return false;
  }
  return true;
}

double jsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFull;  // fits every seed parser
}

void addClosedLoopMetrics(const ClosedLoopSample& s,
                          const std::vector<double>& latencies, Metrics& m) {
  std::vector<double> iterations, jobs, withinLimit, cpu;
  for (const ClosedLoopSample::Pass& pass : s.passes) {
    iterations.push_back(pass.iterations / pass.seconds);
    jobs.push_back(pass.jobs / pass.seconds);
    withinLimit.push_back(pass.withinLimit / pass.seconds);
    cpu.push_back(pass.cpuSeconds / (pass.iterations / 1e6));
  }
  m.set("iters_per_s", median(iterations), "it/s");
  m.set("jobs_per_s", median(jobs), "1/s");
  m.set("latency_p50_s", median(latencies), "s");
  m.set("latency_p90_s", quantile(latencies, 0.9), "s");
  m.set("slo_rps", median(withinLimit), "1/s");
  m.set("f1", s.f1, "ratio");
  m.set("cpu_per_miter_s", median(cpu), "s");
  m.set("peak_rss_mb", s.peakRssMb, "MB");
}

}  // namespace perfbench
