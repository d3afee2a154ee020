// Unit and integration tests of the observability layer (src/obs/):
// histogram bucket semantics, concurrent-increment exactness (the TSan CI
// job runs this binary), snapshot consistency, Prometheus exposition
// goldens, the naming-scheme gate, Chrome trace JSON shape and span
// nesting, and the socket METRICS round trip against a live server
// (including the tracer's drop counter).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

namespace mcmcpar::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket semantics
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundsAreInclusiveUpperEdges) {
  Histogram h({0.1, 1.0});
  h.observe(0.05);  // <= 0.1
  h.observe(0.1);   // == 0.1: still the first bucket (Prometheus `le`)
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // == 1.0: still the second bucket
  h.observe(2.0);   // overflow -> +Inf
  const Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.05 + 0.1 + 0.5 + 1.0 + 2.0);
}

TEST(Histogram, RejectsEmptyAndUnsortedBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 0.5}), std::invalid_argument);
  EXPECT_THROW(Histogram({0.5, 0.5}), std::invalid_argument);
}

TEST(Histogram, LatencyBucketsAreAscending) {
  const std::vector<double> edges = latencyBuckets();
  ASSERT_GE(edges.size(), 2u);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: striped counters and histograms lose nothing
// ---------------------------------------------------------------------------

TEST(Metrics, ConcurrentCounterIncrementsAreExact) {
  Registry registry;
  Counter& counter =
      registry.counter("mcmcpar_test_hits_total", "stress counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ConcurrentHistogramObservationsAreExact) {
  Histogram h({1.0, 10.0});
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(0.5);
    });
  }
  for (std::thread& t : threads) t.join();
  const Histogram::Snapshot snap = h.snapshot();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(snap.count, expected);
  EXPECT_EQ(snap.counts[0], expected);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 * static_cast<double>(expected));
}

TEST(Metrics, SnapshotBucketCountsSumToTotal) {
  Histogram h(latencyBuckets());
  for (int i = 0; i < 1000; ++i) {
    h.observe(static_cast<double>(i) * 0.001);
  }
  const Histogram::Snapshot snap = h.snapshot();
  std::uint64_t sum = 0;
  for (const std::uint64_t c : snap.counts) sum += c;
  EXPECT_EQ(sum, snap.count);
  EXPECT_EQ(snap.count, 1000u);
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(Registry, GetOrCreateIsPointerStable) {
  Registry registry;
  Counter& a = registry.counter("mcmcpar_test_requests_total", "first");
  Counter& b = registry.counter("mcmcpar_test_requests_total", "second");
  EXPECT_EQ(&a, &b);
  Counter& labelled = registry.counter("mcmcpar_test_requests_total", "",
                                       {{"kind", "x"}});
  EXPECT_NE(&a, &labelled);
  // Label order must not matter.
  Counter& ab = registry.counter("mcmcpar_test_pairs_total", "",
                                 {{"a", "1"}, {"b", "2"}});
  Counter& ba = registry.counter("mcmcpar_test_pairs_total", "",
                                 {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
}

TEST(Registry, EnforcesTheNamingScheme) {
  Registry registry;
  // Counters must end _total, live under mcmcpar_, stay lowercase.
  EXPECT_THROW(registry.counter("mcmcpar_test_requests", ""),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("requests_total", ""), std::invalid_argument);
  EXPECT_THROW(registry.counter("mcmcpar_Bad_total", ""),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("mcmcpar_test__x_total", ""),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("mcmcpar_test_total_", ""),
               std::invalid_argument);
  // Gauges must NOT end _total; histograms need a unit suffix.
  EXPECT_THROW(registry.gauge("mcmcpar_test_depth_total", ""),
               std::invalid_argument);
  EXPECT_THROW(registry.histogram("mcmcpar_test_latency", "", {1.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(registry.histogram("mcmcpar_test_latency_seconds", "",
                                     std::vector<double>{1.0}));
  EXPECT_NO_THROW(registry.histogram("mcmcpar_test_payload_bytes", "",
                                     std::vector<double>{1.0}));
}

TEST(Registry, RejectsTypeCollisions) {
  Registry registry;
  (void)registry.counter("mcmcpar_test_things_total", "");
  EXPECT_THROW(registry.gauge("mcmcpar_test_things_total", ""),
               std::invalid_argument);
  (void)registry.histogram("mcmcpar_test_wait_seconds", "",
                           std::vector<double>{1.0, 2.0});
  // Same name with different bounds is a programming error, not a series.
  EXPECT_THROW(registry.histogram("mcmcpar_test_wait_seconds", "",
                                  std::vector<double>{5.0}),
               std::invalid_argument);
}

TEST(Registry, ValidMetricNameMatchesTheDocumentedScheme) {
  EXPECT_TRUE(validMetricName("mcmcpar_serve_jobs_total"));
  EXPECT_TRUE(validMetricName("mcmcpar_x9"));
  EXPECT_FALSE(validMetricName("mcmcpar_"));
  EXPECT_FALSE(validMetricName("mcmcpar_9x"));
  EXPECT_FALSE(validMetricName("other_serve_jobs_total"));
  EXPECT_FALSE(validMetricName("mcmcpar_serve__jobs"));
  EXPECT_FALSE(validMetricName("mcmcpar_serve_jobs_"));
  EXPECT_FALSE(validMetricName("mcmcpar_Serve_jobs"));
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(Registry, RendersPrometheusExpositionGolden) {
  Registry registry;
  registry.counter("mcmcpar_test_requests_total", "Requests handled.").add(3);
  registry
      .counter("mcmcpar_test_requests_total", "", {{"command", "PING"}})
      .add(2);
  registry.gauge("mcmcpar_test_depth", "Queue depth.").set(4.5);
  Histogram& h = registry.histogram("mcmcpar_test_wait_seconds",
                                    "Wait time.", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(3.0);

  const std::string expected =
      "# HELP mcmcpar_test_depth Queue depth.\n"
      "# TYPE mcmcpar_test_depth gauge\n"
      "mcmcpar_test_depth 4.5\n"
      "# HELP mcmcpar_test_requests_total Requests handled.\n"
      "# TYPE mcmcpar_test_requests_total counter\n"
      "mcmcpar_test_requests_total 3\n"
      "mcmcpar_test_requests_total{command=\"PING\"} 2\n"
      "# HELP mcmcpar_test_wait_seconds Wait time.\n"
      "# TYPE mcmcpar_test_wait_seconds histogram\n"
      "mcmcpar_test_wait_seconds_bucket{le=\"0.1\"} 1\n"
      "mcmcpar_test_wait_seconds_bucket{le=\"1\"} 2\n"
      "mcmcpar_test_wait_seconds_bucket{le=\"+Inf\"} 3\n"
      "mcmcpar_test_wait_seconds_sum 3.55\n"
      "mcmcpar_test_wait_seconds_count 3\n";
  EXPECT_EQ(registry.renderPrometheus(), expected);
}

TEST(Registry, EscapesLabelValues) {
  Registry registry;
  registry
      .counter("mcmcpar_test_odd_total", "",
               {{"path", "a\"b\\c\nd"}})
      .add();
  const std::string text = registry.renderPrometheus();
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos) << text;
}

TEST(Registry, CollectorsContributeOnEveryScrape) {
  Registry registry;
  std::atomic<int> scrapes{0};
  const std::uint64_t token = registry.addCollector([&](Collection& out) {
    ++scrapes;
    out.gauge("mcmcpar_test_live", "Live value.", {}, 7.0);
    out.counter("mcmcpar_test_served_total", "Served.", {{"k", "v"}}, 9.0);
  });
  const std::string text = registry.renderPrometheus();
  EXPECT_NE(text.find("mcmcpar_test_live 7\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE mcmcpar_test_served_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mcmcpar_test_served_total{k=\"v\"} 9\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(scrapes.load(), 1);
  registry.removeCollector(token);
  EXPECT_EQ(registry.renderPrometheus().find("mcmcpar_test_live"),
            std::string::npos);
  EXPECT_EQ(scrapes.load(), 1);
}

TEST(Registry, ValueLooksUpSamplesIncludingHistogramSeries) {
  Registry registry;
  registry.counter("mcmcpar_test_hits_total", "").add(5);
  registry.histogram("mcmcpar_test_rt_seconds", "", {1.0}).observe(0.5);
  EXPECT_EQ(registry.value("mcmcpar_test_hits_total"), 5.0);
  EXPECT_EQ(registry.value("mcmcpar_test_rt_seconds_count"), 1.0);
  EXPECT_EQ(registry.value("mcmcpar_test_rt_seconds_sum"), 0.5);
  EXPECT_FALSE(registry.value("mcmcpar_test_absent_total").has_value());
  EXPECT_FALSE(
      registry.value("mcmcpar_test_hits_total", {{"no", "label"}})
          .has_value());
}

TEST(Registry, GlobalCarriesBuildInfoAndUptime) {
  const std::string text = Registry::global().renderPrometheus();
  EXPECT_NE(text.find("mcmcpar_build_info{"), std::string::npos);
  EXPECT_NE(text.find("version=\""), std::string::npos);
  EXPECT_NE(text.find("avx2=\""), std::string::npos);
  EXPECT_NE(text.find("simd=\""), std::string::npos);
  EXPECT_NE(text.find("mcmcpar_process_uptime_seconds "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans -> Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// Extracts the numeric field `key` of the (single) event named `name`.
double eventField(const std::string& json, const std::string& name,
                  const std::string& key) {
  const std::size_t at = json.find("\"name\": \"" + name + "\"");
  EXPECT_NE(at, std::string::npos) << json;
  if (at == std::string::npos) return -1.0;
  // Fields of one event object: scan back to its opening brace, then
  // forward to the key (events are rendered as single-line objects).
  const std::size_t open = json.rfind('{', at);
  const std::size_t pos = json.find("\"" + key + "\": ", open);
  EXPECT_NE(pos, std::string::npos) << json;
  if (pos == std::string::npos) return -1.0;
  return std::stod(json.substr(pos + key.size() + 4));
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(false);
  (void)tracer.drainJson();  // flush anything earlier tests left behind
  {
    Span span("test", "invisible");
    span.arg("k", "v");
  }
  const std::string json = tracer.drainJson();
  EXPECT_EQ(json.find("invisible"), std::string::npos) << json;
}

TEST(Trace, SpansNestAndRenderWellFormedJson) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  (void)tracer.drainJson();
  {
    Span outer("test", "outer");
    outer.arg("layer", "1");
    {
      Span inner("test", "inner");
      inner.arg("layer", "2");
    }
  }
  tracer.setEnabled(false);
  const std::string json = tracer.drainJson();

  // Shape: one JSON object with displayTimeUnit and a traceEvents array of
  // complete ("ph": "X") events.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\": \"ms\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos) << json;
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\": \"test\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\": {\"layer\": \"2\"}"), std::string::npos)
      << json;

  // Nesting: the inner interval is contained in the outer one.
  const double outerTs = eventField(json, "outer", "ts");
  const double outerDur = eventField(json, "outer", "dur");
  const double innerTs = eventField(json, "inner", "ts");
  const double innerDur = eventField(json, "inner", "dur");
  EXPECT_GE(innerTs, outerTs);
  EXPECT_LE(innerTs + innerDur, outerTs + outerDur + 1e-6);

  // Both ran on the calling thread: same track.
  EXPECT_EQ(eventField(json, "outer", "tid"), eventField(json, "inner", "tid"));
}

TEST(Trace, SyntheticTracksGetTheRequestedTid) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  (void)tracer.drainJson();
  const auto start = Tracer::Clock::now();
  tracer.record("test", "tile-flight", start,
                start + std::chrono::milliseconds(2),
                {{"endpoint", "127.0.0.1:1"}}, /*track=*/142);
  tracer.setEnabled(false);
  const std::string json = tracer.drainJson();
  EXPECT_EQ(eventField(json, "tile-flight", "tid"), 142.0);
  EXPECT_NE(json.find("\"endpoint\": \"127.0.0.1:1\""), std::string::npos)
      << json;
}

TEST(Trace, EscapesJsonStrings) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  (void)tracer.drainJson();
  {
    Span span("test", "quo\"ted\\name");
    span.arg("k", "line\nbreak");
  }
  tracer.setEnabled(false);
  const std::string json = tracer.drainJson();
  EXPECT_NE(json.find("quo\\\"ted\\\\name"), std::string::npos) << json;
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos) << json;
}

TEST(Trace, TracersKeepSeparateThreadBuffers) {
  Tracer& global = Tracer::global();
  global.setEnabled(true);
  (void)global.drainJson();
  Tracer local;
  local.setEnabled(true);
  const auto start = Tracer::Clock::now();
  // Same thread, global tracer first: the local tracer must still get a
  // buffer of its own rather than writing into the global one's.
  global.record("test", "global-event", start, start);
  local.record("test", "local-event", start, start);
  global.setEnabled(false);
  const std::string localJson = local.drainJson();
  const std::string globalJson = global.drainJson();
  EXPECT_NE(localJson.find("local-event"), std::string::npos) << localJson;
  EXPECT_EQ(localJson.find("global-event"), std::string::npos) << localJson;
  EXPECT_NE(globalJson.find("global-event"), std::string::npos) << globalJson;
  EXPECT_EQ(globalJson.find("local-event"), std::string::npos) << globalJson;
}

}  // namespace
}  // namespace mcmcpar::obs

// ---------------------------------------------------------------------------
// METRICS over a live socket
// ---------------------------------------------------------------------------

namespace mcmcpar::serve {
namespace {

/// The value of the first sample line of `name{labels...}` in an
/// exposition body, or -1 when absent.
double sampleValue(const std::string& text, const std::string& prefix) {
  std::size_t at = 0;
  while ((at = text.find(prefix, at)) != std::string::npos) {
    const bool lineStart = at == 0 || text[at - 1] == '\n';
    if (lineStart) {
      const std::size_t space = text.find(' ', at);
      if (space != std::string::npos) {
        return std::stod(text.substr(space + 1));
      }
    }
    at += prefix.size();
  }
  return -1.0;
}

TEST(SocketMetrics, ExposesThePrometheusFamiliesEndToEnd) {
  ServerOptions options;
  options.threads = 2;
  options.synthWidth = 64;
  options.synthHeight = 64;
  options.synthCells = 3;
  options.radius = 8.0;
  Server server(options);
  SocketFrontend frontend(server, /*port=*/0);
  Client client;
  client.connect("127.0.0.1", frontend.port(), 30.0);

  EXPECT_EQ(client.request("PING"), "OK pong");
  const std::uint64_t id = client.submit("synth serial @iters=300");
  EXPECT_EQ(client.wait(id), "done");
  (void)client.report(id);

  const std::string first = client.metrics();
  // Valid exposition: HELP/TYPE headers and the tentpole families.
  EXPECT_EQ(first.rfind("# HELP", 0), 0u) << first.substr(0, 200);
  EXPECT_EQ(first.back(), '\n');
  for (const char* family :
       {"# TYPE mcmcpar_serve_commands_total counter",
        "# TYPE mcmcpar_serve_command_seconds histogram",
        "# TYPE mcmcpar_serve_queue_wait_seconds histogram",
        "# TYPE mcmcpar_serve_job_run_seconds histogram",
        "# TYPE mcmcpar_serve_cache_hits_total counter",
        "# TYPE mcmcpar_serve_cache_misses_total counter",
        "# TYPE mcmcpar_serve_active_connections gauge",
        "# TYPE mcmcpar_build_info gauge"}) {
    EXPECT_NE(first.find(family), std::string::npos) << family;
  }
  // Per-command accounting covers the previously uncounted REPORT/WAIT.
  EXPECT_GE(sampleValue(first, "mcmcpar_serve_commands_total{command=\"PING\"}"),
            1.0);
  EXPECT_GE(sampleValue(first, "mcmcpar_serve_commands_total{command=\"WAIT\"}"),
            1.0);
  EXPECT_GE(
      sampleValue(first, "mcmcpar_serve_commands_total{command=\"REPORT\"}"),
      1.0);
  // The dispatched job left a queue-wait observation and a latency sample.
  EXPECT_GE(sampleValue(first, "mcmcpar_serve_queue_wait_seconds_count"), 1.0);
  EXPECT_GE(
      sampleValue(first,
                  "mcmcpar_serve_command_seconds_count{command=\"SUBMIT\"}"),
      1.0);

  // Monotonicity across scrapes: the second scrape counted the first.
  const std::string second = client.metrics();
  const std::string key = "mcmcpar_serve_commands_total{command=\"METRICS\"}";
  EXPECT_GE(sampleValue(second, key), sampleValue(first, key) + 1.0);
  EXPECT_GE(sampleValue(second, "mcmcpar_serve_commands_total{"
                                "command=\"PING\"}"),
            sampleValue(first, "mcmcpar_serve_commands_total{"
                               "command=\"PING\"}"));
  server.shutdown(10.0);
}

TEST(SocketMetrics, TraceDropsAreAMonotonicCounterInTheExposition) {
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  SocketFrontend frontend(server, /*port=*/0);
  Client client;
  client.connect("127.0.0.1", frontend.port(), 30.0);

  // Every tracer shares the drop counter the server's METRICS renders; a
  // 4-event buffer overflows without a million spans.
  obs::Tracer tracer(/*maxEventsPerBuffer=*/4);
  const std::string key = "mcmcpar_trace_events_dropped_total";
  const double before = sampleValue(client.metrics(), key);
  ASSERT_GE(before, 0.0) << "counter missing from the exposition";

  tracer.setEnabled(true);
  const auto start = obs::Tracer::Clock::now();
  for (int i = 0; i < 7; ++i) tracer.record("test", "overflow", start, start);
  EXPECT_EQ(sampleValue(client.metrics(), key), before + 3.0);
  EXPECT_EQ(tracer.dropped(), static_cast<std::uint64_t>(before) + 3u);

  // Draining empties the buffer but leaves the counter alone; the refilled
  // buffer overflows again and the count keeps climbing.
  (void)tracer.drainJson();
  EXPECT_EQ(sampleValue(client.metrics(), key), before + 3.0);
  for (int i = 0; i < 5; ++i) tracer.record("test", "refill", start, start);
  EXPECT_EQ(sampleValue(client.metrics(), key), before + 4.0);
  tracer.setEnabled(false);
  server.shutdown(10.0);
}

TEST(SocketMetrics, StatsAndMetricsAgreeOnTheCacheHitRate) {
  ServerOptions options;
  options.threads = 2;
  options.synthWidth = 64;
  options.synthHeight = 64;
  options.synthCells = 3;
  options.radius = 8.0;
  Server server(options);
  SocketFrontend frontend(server, /*port=*/0);
  Client client;
  client.connect("127.0.0.1", frontend.port(), 30.0);

  const std::string stats = client.request("STATS");
  EXPECT_NE(stats.find("\"cache_hit_rate\": "), std::string::npos) << stats;
  const std::string metrics = client.metrics();
  const double ratio = sampleValue(metrics, "mcmcpar_serve_cache_hit_ratio");
  // Both render ImageCacheStats::hitRate() — one source, no drift. With no
  // traffic yet, both are exactly zero.
  EXPECT_EQ(ratio, 0.0);
  EXPECT_NE(stats.find("\"cache_hit_rate\": 0"), std::string::npos) << stats;
  server.shutdown(10.0);
}

}  // namespace
}  // namespace mcmcpar::serve
