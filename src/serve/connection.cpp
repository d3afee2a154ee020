#include "serve/connection.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "engine/options.hpp"
#include "img/pnm_io.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace mcmcpar::serve {

namespace {

/// Binary-frame bounds: a declared dimension past kMaxFrameDim or payload
/// past kMaxFrameBytes is rejected (TOO_LARGE) without reading the body; a
/// payload within bounds is fully consumed even when the frame is rejected,
/// so the connection stays usable.
constexpr std::uint64_t kMaxFrameDim = 1u << 16;
constexpr std::uint64_t kMaxFrameBytes = 1u << 30;

/// Uploads retained per connection; the oldest is dropped past the cap.
constexpr std::size_t kMaxUploadsPerConnection = 64;

/// Reply lines as they go on the wire: protocol::okLine/errLine plus the
/// newline.
namespace response {

std::string okLine(const std::string& payload) {
  return protocol::okLine(payload) + "\n";
}

std::string errLine(const std::string& code, const std::string& message) {
  return protocol::errLine(code, message) + "\n";
}

}  // namespace response

/// The command word metrics are labelled with. Returns a member of the
/// fixed protocol vocabulary (or "UNKNOWN") rather than the raw token, so
/// a garbage-spewing client cannot create unbounded label cardinality.
const char* commandWord(const std::string& line) {
  static constexpr const char* kCommands[] = {
      "PING",   "SUBMIT", "UPLOAD",  "STATUS",   "RESULT", "REPORT",
      "CANCEL", "WAIT",   "STATS",   "METRICS",  "SHUTDOWN"};
  const std::size_t space = line.find_first_of(" \t");
  const std::string word =
      space == std::string::npos ? line : line.substr(0, space);
  for (const char* known : kCommands) {
    if (word == known) return known;
  }
  return "UNKNOWN";
}

/// Parse a strict decimal id or size (engine::parseU64: no sign, no
/// whitespace); false on anything else.
bool parseId(const std::string& text, std::uint64_t& id) {
  const std::optional<std::uint64_t> value = engine::parseU64(text);
  if (value) id = *value;
  return value.has_value();
}

}  // namespace

void Connection::receive(std::string_view bytes) {
  // Straight into an open body, so a frame's payload is copied once.
  if (upload_ && input_.empty()) bytes.remove_prefix(fillBody(bytes));
  input_.append(bytes);
}

bool Connection::step(Clock::time_point now) {
  if (closed_) return false;
  if (upload_) return stepUpload(now);
  if (wait_) return stepWait();
  const std::size_t newline = input_.find('\n');
  if (newline == std::string::npos) {
    closed_ = eof_;  // the peer is done: an unfinished line is dropped
    return false;
  }
  std::string line = input_.substr(0, newline);
  input_.erase(0, newline + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return true;
  // UPLOAD is the one command followed by a binary body, so it cannot go
  // through the line dispatcher: its reply waits for the body.
  const char* command = commandWord(line);
  std::string reply = std::strcmp(command, "UPLOAD") == 0
                          ? uploadHeader(line, now)
                          : dispatch(line, now);
  if (!upload_ && !wait_) finish(command, now, std::move(reply));
  return true;
}

void Connection::finish(const char* command, Clock::time_point start,
                        std::string reply) {
  output_ += reply;
  finished_ = Finished{command, start};
}

std::string Connection::uploadHeader(const std::string& line,
                                     Clock::time_point now) {
  std::istringstream tokens(line);
  std::string command, id, wText, hText, nText, extra;
  tokens >> command >> id >> wText >> hText >> nText;
  std::uint64_t width = 0;
  std::uint64_t height = 0;
  std::uint64_t nbytes = 0;
  bool headerOk = !id.empty() && parseId(wText, width) &&
                  parseId(hText, height) && parseId(nText, nbytes);
  bool oneshot = false;
  if (headerOk && tokens >> extra) {
    if (extra == "oneshot" && !(tokens >> extra)) {
      oneshot = true;
    } else {
      headerOk = false;
    }
  }
  if (!headerOk) {
    // The body length is unknowable from a malformed header, so the stream
    // cannot be resynchronised: reply and drop the connection.
    closed_ = true;
    return response::errLine(
        protocol::kErrBadFrame,
        "expected 'UPLOAD <id> <w> <h> <nbytes> [oneshot]', got '" + line +
            "'");
  }

  // A well-formed header declares the body length, so a rejected frame can
  // still be drained and the connection kept: discard the payload (bounded
  // by kMaxFrameBytes — past that, close instead of reading a gigabyte).
  const std::uint64_t pixels = width * height;
  const std::size_t cacheCapacity = server_.options().cacheBytes;
  std::string rejection;
  if (width == 0 || height == 0 || nbytes == 0) {
    rejection = response::errLine(
        protocol::kErrBadFrame,
        "zero-size frame: w, h and nbytes must all be > 0");
  } else if (width > kMaxFrameDim || height > kMaxFrameDim ||
             nbytes > kMaxFrameBytes) {
    rejection = response::errLine(
        protocol::kErrTooLarge,
        "frame exceeds protocol bounds (max dimension " +
            std::to_string(kMaxFrameDim) + ", max payload " +
            std::to_string(kMaxFrameBytes) + " bytes)");
  } else if (nbytes != pixels && nbytes != 4 * pixels) {
    rejection = response::errLine(
        protocol::kErrBadFrame,
        "nbytes " + nText + " matches neither w*h (gray8, " +
            std::to_string(pixels) + ") nor 4*w*h (float32, " +
            std::to_string(4 * pixels) + ")");
  } else if (cacheCapacity != 0 && pixels * sizeof(float) > cacheCapacity) {
    rejection = response::errLine(
        protocol::kErrTooLarge,
        "decoded image (" + std::to_string(pixels * sizeof(float)) +
            " bytes) exceeds the server's image cache capacity (" +
            std::to_string(cacheCapacity) + " bytes)");
  }
  if (!rejection.empty() && nbytes > kMaxFrameBytes) {
    closed_ = true;
    return rejection;
  }
  upload_ = Upload{id,
                   nText,
                   static_cast<int>(width),
                   static_cast<int>(height),
                   oneshot,
                   std::string(rejection.empty() ? nbytes : 0, '\0'),
                   nbytes,
                   std::move(rejection),
                   now};
  return "";
}

std::size_t Connection::fillBody(std::string_view bytes) {
  Upload& upload = *upload_;
  const auto take = static_cast<std::size_t>(
      std::min<std::uint64_t>(upload.remaining, bytes.size()));
  if (upload.rejection.empty()) {
    std::memcpy(upload.body.data() + (upload.body.size() - upload.remaining),
                bytes.data(), take);
  }
  upload.remaining -= take;
  return take;
}

bool Connection::stepUpload(Clock::time_point now) {
  input_.erase(0, fillBody(input_));
  if (upload_->remaining > 0 && !eof_ && now < *deadline()) return false;
  Upload upload = std::move(*upload_);
  upload_.reset();
  if (upload.remaining > 0) {
    // The peer closed, or the deadline passed, mid-frame: the stream is
    // desynchronised.
    closed_ = true;
    if (upload.rejection.empty()) {
      upload.rejection = response::errLine(
          protocol::kErrBadFrame,
          "truncated frame: connection delivered fewer than the declared " +
              upload.nText + " payload bytes");
    }
  }
  if (!upload.rejection.empty()) {
    finish("UPLOAD", upload.start, std::move(upload.rejection));
    return true;
  }

  const std::string& body = upload.body;
  const std::size_t pixels =
      static_cast<std::size_t>(upload.width) * upload.height;
  const bool floatFrame = body.size() == 4 * pixels;
  const std::uint64_t hash =
      ImageCache::hashFrame(upload.width, upload.height, floatFrame ? 4 : 1,
                            body.data(), body.size());
  img::ImageF image(upload.width, upload.height);
  if (floatFrame) {
    std::memcpy(image.pixels().data(), body.data(), body.size());
  } else {
    for (std::size_t i = 0; i < pixels; ++i) {
      image.pixels()[i] = static_cast<float>(
                              static_cast<unsigned char>(body[i])) /
                          255.0f;
    }
  }
  std::shared_ptr<const img::ImageF> interned =
      server_.internUpload(hash, std::move(image), upload.oneshot);

  if (uploads_.find(upload.id) == uploads_.end()) {
    uploadOrder_.push_back(upload.id);
    if (uploadOrder_.size() > kMaxUploadsPerConnection) {
      uploads_.erase(uploadOrder_.front());
      uploadOrder_.erase(uploadOrder_.begin());
    }
  }
  uploads_[upload.id] = std::move(interned);
  finish("UPLOAD", upload.start,
         response::okLine(upload.id + " " + ImageCache::hashHex(hash)));
  return true;
}

bool Connection::stepWait() {
  // WAIT replays the job's event log from ADMITTED, then follows it until
  // the terminal event. A step's batch leaves in one send; the terminal
  // batch goes with the `OK <id> <state>` line, so the reply's tail is
  // never split.
  Wait& wait = *wait_;
  const std::optional<std::vector<JobEvent>> batch = server_.events(
      wait.cursor.id, wait.cursor.afterSeq, std::chrono::milliseconds(0));
  if (!batch) {
    finish("WAIT", wait.start,
           response::errLine(protocol::kErrUnknownJob,
                             "job " + wait.idText + " no longer retained"));
    wait_.reset();
    return true;
  }
  if (batch->empty()) return false;
  for (const JobEvent& event : *batch) {
    output_ += protocol::eventLine(event) + '\n';
  }
  wait.cursor.afterSeq = batch->back().seq;
  if (const std::optional<JobState> finalState =
          terminalState(batch->back().type)) {
    finish("WAIT", wait.start,
           response::okLine(wait.idText + " " + toString(*finalState)));
    wait_.reset();
  }
  return true;
}

std::string Connection::dispatch(const std::string& line,
                                 Clock::time_point now) {
  std::istringstream tokens(line);
  std::string command;
  tokens >> command;

  if (command == "PING") return response::okLine("pong");

  if (command == "SUBMIT") {
    std::string payload;
    std::getline(tokens, payload);
    try {
      const JobSpec entry = parseManifestLine(payload);
      std::shared_ptr<const img::ImageF> inlineImage;
      std::vector<std::shared_ptr<const img::ImageF>> inlineFrames;
      if (entry.inlineImage && !entry.sequence.empty()) {
        // An inline sequence names its frames `<image>.0` .. `<image>.N-1`
        // in this connection's upload namespace; gather them in order.
        const std::optional<std::uint64_t> count =
            stream::parseFrameCount(entry.sequence);
        if (!count) {
          return response::errLine(
              protocol::kErrBadJob,
              "@sequence with @image=inline requires a decimal frame "
              "count, got '" +
                  entry.sequence + "'");
        }
        for (std::uint64_t k = 0; k < *count; ++k) {
          const std::string frameId =
              entry.image + "." + std::to_string(k);
          const auto it = uploads_.find(frameId);
          if (it == uploads_.end()) {
            return response::errLine(
                protocol::kErrBadJob,
                "@sequence: no upload named '" + frameId +
                    "' on this connection (send UPLOAD frames first)");
          }
          inlineFrames.push_back(it->second);
        }
      } else if (entry.inlineImage) {
        const auto it = uploads_.find(entry.image);
        if (it == uploads_.end()) {
          return response::errLine(
              protocol::kErrBadJob,
              "@image=inline: no upload named '" + entry.image +
                  "' on this connection (send an UPLOAD frame first)");
        }
        inlineImage = it->second;
      }
      const std::uint64_t id = server_.submit(entry, std::move(inlineImage),
                                              std::move(inlineFrames));
      return response::okLine(std::to_string(id));
    } catch (const QueueFullError& e) {
      return response::errLine(protocol::kErrQueueFull, e.what());
    } catch (const engine::EngineError& e) {
      return response::errLine(server_.draining() ? protocol::kErrShuttingDown
                                                  : protocol::kErrBadJob,
                               e.what());
    } catch (const img::PnmError& e) {
      return response::errLine(protocol::kErrBadJob, e.what());
    } catch (const std::exception& e) {
      // Any other parser/admission exception must reject the request, not
      // escape the poll loop and terminate the whole server.
      return response::errLine(protocol::kErrBadJob, e.what());
    }
  }

  if (command == "STATUS" || command == "RESULT" || command == "REPORT" ||
      command == "CANCEL" || command == "WAIT") {
    std::string idText;
    tokens >> idText;
    std::uint64_t id = 0;
    if (!parseId(idText, id)) {
      return response::errLine(protocol::kErrBadRequest,
                               "expected '" + command + " <id>'");
    }
    const std::optional<JobStatus> status = server_.status(id);
    if (!status) {
      return response::errLine(protocol::kErrUnknownJob,
                               "no such job " + idText);
    }

    if (command == "STATUS") {
      return response::okLine(idText + " " + toString(status->state) + " " +
                              std::to_string(status->progressDone) + " " +
                              std::to_string(status->progressTotal));
    }
    if (command == "RESULT" || command == "REPORT") {
      const std::optional<engine::RunReport> report = server_.result(id);
      if (!report) {
        return response::errLine(
            protocol::kErrPending,
            "job " + idText + " is " + toString(status->state));
      }
      return response::okLine(
          idText + " " +
          (command == "REPORT" ? protocol::reportJson(*status, *report)
                               : protocol::jobJson(*status, *report)));
    }
    if (command == "CANCEL") {
      switch (server_.cancel(id)) {
        case CancelOutcome::QueuedCancelled:
          return response::okLine(idText + " cancelled");
        case CancelOutcome::RunningFlagged:
          return response::okLine(idText + " cancelling");
        case CancelOutcome::AlreadyTerminal:
          return response::okLine(idText + " already-terminal");
        case CancelOutcome::Unknown:
          break;
      }
      return response::errLine(protocol::kErrUnknownJob,
                               "no such job " + idText);
    }

    // WAIT: open a cursor at the log's start; stepWait() follows it.
    wait_ = Wait{WaitCursor{id, 0}, idText, now};
    return "";
  }

  if (command == "STATS") {
    return response::okLine(protocol::statsJson(server_.stats()));
  }

  if (command == "METRICS") {
    // Byte-framed like UPLOAD in reverse: `OK <nbytes>` then exactly
    // nbytes of Prometheus text exposition, so line-oriented clients can
    // skip the body while scrapers read it verbatim (docs/PROTOCOL.md).
    const std::string body = obs::Registry::global().renderPrometheus();
    return response::okLine(std::to_string(body.size())) + body;
  }

  if (command == "SHUTDOWN") {
    closed_ = true;
    shutdown_ = true;
    return response::okLine("draining");
  }

  return response::errLine(protocol::kErrBadRequest,
                           "unknown command '" + command + "'");
}

}  // namespace mcmcpar::serve
