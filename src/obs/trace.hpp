#pragma once

/// Span tracer emitting Chrome trace-event JSON (chrome://tracing /
/// Perfetto "traceEvents" format).
///
/// Disabled by default: the only cost on an untraced process is one
/// relaxed atomic load per span. When enabled (`--trace-out` in the CLIs),
/// each thread appends completed spans to its own buffer (one per thread
/// and tracer) under a per-buffer mutex — threads never contend with each
/// other, only with a drain in progress. `drainJson()` moves all buffered
/// events out and renders the JSON document.
///
/// A thread buffer holds at most `maxEventsPerBuffer` events; past that,
/// events are dropped and counted in the monotonic
/// `mcmcpar_trace_events_dropped_total` counter of `Registry::global()`,
/// so a METRICS scrape shows that a timeline is incomplete.
///
/// Spans on one thread nest naturally (same `tid`, contained intervals).
/// Work whose lifetime is observed from a polling loop rather than a call
/// stack — shard tile flights — is recorded retrospectively with
/// `record(...)` on a synthetic track id so every tile gets its own row
/// in the timeline.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace mcmcpar::obs {

/// JSON string escaping (quotes, backslashes, control characters as
/// \uXXXX): trace args here, and every JSON payload of the serve protocol.
[[nodiscard]] std::string jsonEscape(const std::string& text);

/// One key/value argument attached to a span (rendered as JSON strings).
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  static constexpr std::size_t kDefaultMaxEventsPerBuffer = 1u << 20;

  /// Drops are counted in the process registry's
  /// `mcmcpar_trace_events_dropped_total`, which every tracer shares. A
  /// smaller `maxEventsPerBuffer` lets tests overflow a buffer cheaply.
  explicit Tracer(std::size_t maxEventsPerBuffer = kDefaultMaxEventsPerBuffer);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-wide tracer used by all library instrumentation.
  static Tracer& global();

  void setEnabled(bool on) noexcept;
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records a completed span. `track < 0` uses the calling thread's row;
  /// `track >= 0` is an explicit synthetic row (e.g. one per shard tile).
  void record(std::string category, std::string name, Clock::time_point start,
              Clock::time_point end, TraceArgs args = {},
              std::int64_t track = -1);

  /// Drains every thread buffer and renders the Chrome trace JSON
  /// document. Buffers are left empty; the time origin is preserved so
  /// successive drains stay on one timeline.
  std::string drainJson();

  /// Drains to `path`; returns false (with `error` set) on I/O failure.
  bool writeJson(const std::string& path, std::string* error = nullptr);

  /// Events dropped because a thread buffer hit its cap, by every tracer
  /// in the process: the registry's monotonic counter (drains do not reset
  /// it).
  std::uint64_t dropped() const noexcept { return dropped_.value(); }

 private:
  struct Event {
    std::string category;
    std::string name;
    double tsMicros = 0.0;
    double durMicros = 0.0;
    std::uint64_t tid = 0;
    TraceArgs args;
  };
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<Event> events;
    std::uint64_t tid = 0;
  };
  ThreadBuffer& buffer();

  std::atomic<bool> enabled_{false};
  Counter& dropped_;
  std::size_t maxEventsPerBuffer_;
  static inline std::atomic<std::uint64_t> nextId_{1};
  std::uint64_t id_;
  Clock::time_point epoch_;
  std::mutex registryMutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::uint64_t nextTid_ = 1;
};

/// RAII span: records [construction, destruction) on the current thread's
/// track of the global tracer. A no-op (one atomic load) when tracing is
/// disabled — cheap enough to leave in hot paths.
class Span {
 public:
  Span(std::string category, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches an argument shown in the trace viewer's detail pane.
  void arg(std::string key, std::string value);

 private:
  bool armed_;
  Tracer::Clock::time_point start_;
  std::string category_;
  std::string name_;
  TraceArgs args_;
};

}  // namespace mcmcpar::obs
