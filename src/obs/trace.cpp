#include "obs/trace.hpp"

#include <cstdio>
#include <sstream>

namespace mcmcpar::obs {

std::string jsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string fmtMicros(double micros) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", micros);
  return buffer;
}

}  // namespace

Tracer::Tracer(std::size_t maxEventsPerBuffer)
    : dropped_(Registry::global().counter(
          "mcmcpar_trace_events_dropped_total",
          "Trace events dropped because a thread buffer was full.")),
      maxEventsPerBuffer_(maxEventsPerBuffer),
      id_(nextId_.fetch_add(1, std::memory_order_relaxed)),
      epoch_(Clock::now()) {}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();
  return *instance;
}

void Tracer::setEnabled(bool on) noexcept {
  enabled_.store(on, std::memory_order_relaxed);
}

Tracer::ThreadBuffer& Tracer::buffer() {
  // One buffer per (thread, tracer). The tracer owns its buffers; a thread
  // finds its own by the tracer's process-unique id, so a tracer created
  // at a destroyed one's address never picks up a dangling buffer.
  struct Slot {
    std::uint64_t tracer;
    ThreadBuffer* buffer;
  };
  thread_local std::vector<Slot> slots;
  for (const Slot& slot : slots) {
    if (slot.tracer == id_) return *slot.buffer;
  }
  auto buf = std::make_shared<ThreadBuffer>();
  {
    const std::lock_guard<std::mutex> lock(registryMutex_);
    buf->tid = nextTid_++;
    buffers_.push_back(buf);
  }
  slots.push_back({id_, buf.get()});
  return *buf;
}

void Tracer::record(std::string category, std::string name,
                    Clock::time_point start, Clock::time_point end,
                    TraceArgs args, std::int64_t track) {
  if (!enabled()) return;
  Event event;
  event.category = std::move(category);
  event.name = std::move(name);
  event.tsMicros =
      std::chrono::duration<double, std::micro>(start - epoch_).count();
  event.durMicros =
      std::chrono::duration<double, std::micro>(end - start).count();
  if (event.durMicros < 0.0) event.durMicros = 0.0;
  event.args = std::move(args);

  ThreadBuffer& buf = buffer();
  const std::lock_guard<std::mutex> lock(buf.mutex);
  event.tid = track >= 0 ? static_cast<std::uint64_t>(track) : buf.tid;
  if (buf.events.size() >= maxEventsPerBuffer_) {
    dropped_.add();
    return;
  }
  buf.events.push_back(std::move(event));
}

std::string Tracer::drainJson() {
  std::vector<Event> events;
  {
    const std::lock_guard<std::mutex> lock(registryMutex_);
    for (const auto& buf : buffers_) {
      const std::lock_guard<std::mutex> bufLock(buf->mutex);
      events.insert(events.end(), std::make_move_iterator(buf->events.begin()),
                    std::make_move_iterator(buf->events.end()));
      buf->events.clear();
    }
  }

  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i != 0) out << ",";
    out << "\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid        //
        << ", \"ts\": " << fmtMicros(e.tsMicros)                     //
        << ", \"dur\": " << fmtMicros(e.durMicros)                   //
        << ", \"cat\": \"" << jsonEscape(e.category) << "\""         //
        << ", \"name\": \"" << jsonEscape(e.name) << "\"";
    if (!e.args.empty()) {
      out << ", \"args\": {";
      for (std::size_t j = 0; j < e.args.size(); ++j) {
        if (j != 0) out << ", ";
        out << "\"" << jsonEscape(e.args[j].first) << "\": \""
            << jsonEscape(e.args[j].second) << "\"";
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

bool Tracer::writeJson(const std::string& path, std::string* error) {
  const std::string json = drainJson();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (!file) {
    if (error) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != json.size() || !closed) {
    if (error) *error = "short write to '" + path + "'";
    return false;
  }
  return true;
}

Span::Span(std::string category, std::string name)
    : armed_(Tracer::global().enabled()),
      start_(armed_ ? Tracer::Clock::now() : Tracer::Clock::time_point{}),
      category_(std::move(category)),
      name_(std::move(name)) {}

Span::~Span() {
  if (!armed_) return;
  Tracer::global().record(std::move(category_), std::move(name_), start_,
                          Tracer::Clock::now(), std::move(args_));
}

void Span::arg(std::string key, std::string value) {
  if (!armed_) return;
  args_.emplace_back(std::move(key), std::move(value));
}

}  // namespace mcmcpar::obs
