#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <sstream>

#include "engine/options.hpp"
#include "img/pnm_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace mcmcpar::serve {

namespace {

/// Receive timeout applied to every server-side connection so handler
/// threads poll the stopping flag instead of blocking in recv forever.
constexpr int kPollMillis = 200;

/// Binary-frame bounds: a declared dimension past kMaxFrameDim or payload
/// past kMaxFrameBytes is rejected (TOO_LARGE) without reading the body; a
/// payload within bounds is fully consumed even when the frame is rejected,
/// so the connection stays usable. kFrameReadMillis bounds how long the
/// server waits for a slow/truncated body before giving up on it.
constexpr std::uint64_t kMaxFrameDim = 1u << 16;
constexpr std::uint64_t kMaxFrameBytes = 1u << 30;
constexpr int kFrameReadMillis = 30000;

/// Uploads retained per connection; the oldest is dropped past the cap.
constexpr std::size_t kMaxUploadsPerConnection = 64;

/// Disable Nagle's algorithm: a reply that went out as two small writes
/// with no read between them would otherwise hold the second until the
/// first is ACKed, which the peer delays by up to ~40 ms.
void setNoDelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void setRecvTimeout(int fd, long millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool sendAll(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool sendLine(int fd, const std::string& line) {
  return sendAll(fd, line + "\n");
}

/// Reply lines as they go on the wire: protocol::okLine/errLine plus the
/// newline. The handlers return these bytes, so handleConnection can write
/// each reply with one send.
namespace response {

std::string okLine(const std::string& payload) {
  return protocol::okLine(payload) + "\n";
}

std::string errLine(const std::string& code, const std::string& message) {
  return protocol::errLine(code, message) + "\n";
}

}  // namespace response

/// Read exactly `want` bytes of a frame body into `out` (or discard them
/// when `out` is null), draining `buffer` (bytes received past the header
/// line) first. False on EOF, error, stop, or the frame-read deadline.
bool readBody(int fd, std::string& buffer, char* out, std::size_t want,
              const std::atomic<bool>& stopping) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kFrameReadMillis);
  std::size_t got = 0;
  char scratch[65536];
  if (!buffer.empty()) {
    const std::size_t take = std::min(want, buffer.size());
    if (out != nullptr) std::memcpy(out, buffer.data(), take);
    buffer.erase(0, take);
    got = take;
  }
  while (got < want) {
    if (stopping.load() || std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    char* dst = out != nullptr ? out + got : scratch;
    const std::size_t room =
        out != nullptr ? want - got : std::min(want - got, sizeof(scratch));
    const ssize_t n = ::recv(fd, dst, room, 0);
    if (n == 0) return false;  // client closed mid-frame
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;  // poll tick: re-check stopping_ and the deadline
      }
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

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

/// +1 on a gauge for this scope (active connection tracking survives every
/// exit path of the handler).
class GaugeScope {
 public:
  explicit GaugeScope(obs::Gauge& gauge) : gauge_(gauge) { gauge_.add(1.0); }
  ~GaugeScope() { gauge_.add(-1.0); }
  GaugeScope(const GaugeScope&) = delete;
  GaugeScope& operator=(const GaugeScope&) = delete;

 private:
  obs::Gauge& gauge_;
};

/// Parse a strict decimal id or size (engine::parseU64: no sign, no
/// whitespace); false on anything else.
bool parseId(const std::string& text, std::uint64_t& id) {
  const std::optional<std::uint64_t> value = engine::parseU64(text);
  if (value) id = *value;
  return value.has_value();
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketFrontend
// ---------------------------------------------------------------------------

SocketFrontend::SocketFrontend(Server& server, std::uint16_t port,
                               std::function<void()> onShutdown)
    : server_(server), onShutdown_(std::move(onShutdown)) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    throw ProtocolError(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  (void)setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listenFd_, 64) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw ProtocolError("cannot listen on 127.0.0.1:" + std::to_string(port) +
                        ": " + reason);
  }
  socklen_t len = sizeof(addr);
  (void)getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  setRecvTimeout(listenFd_, kPollMillis);  // accept() polls via SO_RCVTIMEO

  acceptor_ = std::jthread([this] { acceptLoop(); });
}

SocketFrontend::~SocketFrontend() { stop(); }

void SocketFrontend::stop() {
  if (stopping_.exchange(true)) return;
  const int fd = listenFd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::list<std::unique_ptr<Connection>> connections;
  {
    const std::scoped_lock lock(connectionsMutex_);
    connections.swap(connections_);
  }
  connections.clear();  // joins: handlers see stopping_ within kPollMillis
}

void SocketFrontend::acceptLoop() {
  while (!stopping_.load()) {
    const int listenFd = listenFd_.load();
    if (listenFd < 0) break;
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      continue;  // EAGAIN (poll tick) or transient error
    }
    setRecvTimeout(fd, kPollMillis);
    setNoDelay(fd);
    const std::scoped_lock lock(connectionsMutex_);
    // Reap handlers that already finished (their join is instantaneous).
    for (auto it = connections_.begin(); it != connections_.end();) {
      it = (*it)->done.load() ? connections_.erase(it) : std::next(it);
    }
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    connection->thread = std::jthread([this, fd, raw] {
      handleConnection(fd);
      raw->done.store(true);
    });
    connections_.push_back(std::move(connection));
  }
}

void SocketFrontend::handleConnection(int fd) {
  obs::Registry& registry = obs::Registry::global();
  const GaugeScope connectionGauge(
      registry.gauge("mcmcpar_serve_active_connections",
                     "Socket connections currently open."));
  std::string buffer;
  char chunk[4096];
  bool keepOpen = true;
  ConnectionState state;
  while (keepOpen && !stopping_.load()) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) break;  // client closed
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;  // poll tick: re-check stopping_
        }
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    // UPLOAD is the one command followed by a binary body, so it cannot go
    // through the line dispatcher: the body is consumed here, from `buffer`
    // (bytes already received) plus the socket.
    const char* command = commandWord(line);
    const auto commandStart = std::chrono::steady_clock::now();
    obs::Span commandSpan("serve", std::string("cmd:") + command);
    const std::string reply =
        line.rfind("UPLOAD", 0) == 0 &&
                (line.size() == 6 || line[6] == ' ' || line[6] == '\t')
            ? handleUpload(line, fd, buffer, state, keepOpen)
            : dispatch(line, fd, state, keepOpen);
    const bool sent = reply.empty() || sendAll(fd, reply);
    // Every command is counted and timed — including REPORT and WAIT,
    // which the pre-registry stats never saw. WAIT's latency spans its
    // whole event stream by design.
    registry
        .counter("mcmcpar_serve_commands_total",
                 "Socket commands handled, by command word.",
                 {{"command", command}})
        .add();
    registry
        .histogram("mcmcpar_serve_command_seconds",
                   "Wall time from parsing a command to its final reply.",
                   obs::latencyBuckets(), {{"command", command}})
        .observe(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - commandStart)
                     .count());
    if (!sent) break;
  }
  ::close(fd);
}

std::string SocketFrontend::handleUpload(const std::string& line, int fd,
                                         std::string& buffer,
                                         ConnectionState& state,
                                         bool& keepOpen) {
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
    keepOpen = false;
    return response::errLine(
        protocol::kErrBadFrame,
        "expected 'UPLOAD <id> <w> <h> <nbytes> [oneshot]', got '" + line +
            "'");
  }

  // A well-formed header declares the body length, so a rejected frame can
  // still be drained and the connection kept: discard the payload (bounded
  // by kMaxFrameBytes — past that, close instead of reading a gigabyte).
  const auto reject = [&](const char* code, const std::string& message) {
    if (nbytes > kMaxFrameBytes ||
        !readBody(fd, buffer, nullptr, nbytes, stopping_)) {
      keepOpen = false;
    }
    return response::errLine(code, message);
  };

  if (width == 0 || height == 0 || nbytes == 0) {
    return reject(protocol::kErrBadFrame,
                  "zero-size frame: w, h and nbytes must all be > 0");
  }
  if (width > kMaxFrameDim || height > kMaxFrameDim ||
      nbytes > kMaxFrameBytes) {
    return reject(protocol::kErrTooLarge,
                  "frame exceeds protocol bounds (max dimension " +
                      std::to_string(kMaxFrameDim) + ", max payload " +
                      std::to_string(kMaxFrameBytes) + " bytes)");
  }
  const std::uint64_t pixels = width * height;
  if (nbytes != pixels && nbytes != 4 * pixels) {
    return reject(protocol::kErrBadFrame,
                  "nbytes " + nText + " matches neither w*h (gray8, " +
                      std::to_string(pixels) + ") nor 4*w*h (float32, " +
                      std::to_string(4 * pixels) + ")");
  }
  const std::size_t cacheCapacity = server_.options().cacheBytes;
  if (cacheCapacity != 0 && pixels * sizeof(float) > cacheCapacity) {
    return reject(protocol::kErrTooLarge,
                  "decoded image (" + std::to_string(pixels * sizeof(float)) +
                      " bytes) exceeds the server's image cache capacity (" +
                      std::to_string(cacheCapacity) + " bytes)");
  }

  std::string body(static_cast<std::size_t>(nbytes), '\0');
  if (!readBody(fd, buffer, body.data(), body.size(), stopping_)) {
    keepOpen = false;  // truncated mid-frame: the stream is desynchronised
    return response::errLine(protocol::kErrBadFrame,
                             "truncated frame: connection delivered fewer "
                             "than the declared " +
                                 nText + " payload bytes");
  }

  const int w = static_cast<int>(width);
  const int h = static_cast<int>(height);
  const bool floatFrame = nbytes == 4 * pixels;
  const std::uint64_t hash = ImageCache::hashFrame(
      w, h, floatFrame ? 4 : 1, body.data(), body.size());
  img::ImageF image(w, h);
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
      server_.internUpload(hash, std::move(image), oneshot);

  if (state.uploads.find(id) == state.uploads.end()) {
    state.uploadOrder.push_back(id);
    if (state.uploadOrder.size() > kMaxUploadsPerConnection) {
      state.uploads.erase(state.uploadOrder.front());
      state.uploadOrder.erase(state.uploadOrder.begin());
    }
  }
  state.uploads[id] = std::move(interned);
  return response::okLine(id + " " + ImageCache::hashHex(hash));
}

std::string SocketFrontend::dispatch(const std::string& line, int fd,
                                     ConnectionState& state, bool& keepOpen) {
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
          const auto it = state.uploads.find(frameId);
          if (it == state.uploads.end()) {
            return response::errLine(
                protocol::kErrBadJob,
                "@sequence: no upload named '" + frameId +
                    "' on this connection (send UPLOAD frames first)");
          }
          inlineFrames.push_back(it->second);
        }
      } else if (entry.inlineImage) {
        const auto it = state.uploads.find(entry.image);
        if (it == state.uploads.end()) {
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
      // escape the connection thread and terminate the whole server.
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

    // WAIT: replay the job's event log from ADMITTED, then follow it until
    // the terminal event. Each batch leaves in one send; the terminal batch
    // returns with the `OK <id> <state>` line, so the reply's tail is never
    // split.
    std::uint64_t afterSeq = 0;
    while (!stopping_.load()) {
      const std::optional<std::vector<JobEvent>> batch =
          server_.events(id, afterSeq, std::chrono::milliseconds(kPollMillis));
      if (!batch) {
        return response::errLine(protocol::kErrUnknownJob,
                                 "job " + idText + " no longer retained");
      }
      if (batch->empty()) continue;
      std::string out;
      for (const JobEvent& event : *batch) {
        out += protocol::eventLine(event) + '\n';
      }
      afterSeq = batch->back().seq;
      if (const std::optional<JobState> finalState =
              terminalState(batch->back().type)) {
        return out + response::okLine(idText + " " + toString(*finalState));
      }
      if (!sendAll(fd, out)) {
        keepOpen = false;
        break;
      }
    }
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
    keepOpen = false;
    if (!shutdownFired_.exchange(true) && onShutdown_) onShutdown_();
    return response::okLine("draining");
  }

  return response::errLine(protocol::kErrBadRequest,
                           "unknown command '" + command + "'");
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::~Client() { close(); }

void Client::connect(const std::string& host, std::uint16_t port,
                     double readTimeoutSeconds) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw ProtocolError(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw ProtocolError("invalid host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string reason = std::strerror(errno);
    close();
    throw ProtocolError("cannot connect to " + host + ":" +
                        std::to_string(port) + ": " + reason);
  }
  if (readTimeoutSeconds > 0.0) {
    setRecvTimeout(fd_, std::lround(readTimeoutSeconds * 1000.0));
  }
  setNoDelay(fd_);
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

void Client::send(const std::string& line) {
  if (fd_ < 0) throw ProtocolError("not connected");
  if (!sendLine(fd_, line)) {
    throw ProtocolError("send failed: " + std::string(std::strerror(errno)));
  }
}

void Client::receive(const char* closedMessage, const char* timeoutMessage) {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return;
    }
    if (n == 0) throw ProtocolError(closedMessage);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw ProtocolError(timeoutMessage);
    }
    throw ProtocolError("recv failed: " + std::string(std::strerror(errno)));
  }
}

std::string Client::readLine() {
  if (fd_ < 0) throw ProtocolError("not connected");
  std::size_t newline = buffer_.find('\n');
  while (newline == std::string::npos) {
    receive("server closed the connection", "timed out waiting for a reply");
    newline = buffer_.find('\n');
  }
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

std::string Client::request(const std::string& line) {
  send(line);
  return readLine();
}

std::uint64_t Client::submit(const std::string& jobLine) {
  const std::string reply = request("SUBMIT " + jobLine);
  std::istringstream tokens(reply);
  std::string status, idText;
  tokens >> status >> idText;
  std::uint64_t id = 0;
  if (status == "ERR") throw RejectedError("SUBMIT rejected: " + reply);
  if (status != "OK" || !parseId(idText, id)) {
    throw ProtocolError("SUBMIT rejected: " + reply);
  }
  return id;
}

std::string Client::upload(const std::string& id, const img::ImageU8& image,
                           bool oneshot) {
  return uploadFrame(id, image.width(), image.height(),
                     image.pixels().data(), image.pixelCount(), oneshot);
}

std::string Client::upload(const std::string& id, const img::ImageF& image,
                           bool oneshot) {
  return uploadFrame(id, image.width(), image.height(),
                     image.pixels().data(),
                     image.pixelCount() * sizeof(float), oneshot);
}

std::string Client::uploadFrame(const std::string& id, int width, int height,
                                const void* data, std::size_t nbytes,
                                bool oneshot) {
  if (fd_ < 0) throw ProtocolError("not connected");
  if (id.empty() || id.find_first_of(" \t\r\n") != std::string::npos) {
    throw ProtocolError("upload id must be non-empty without whitespace, "
                        "got '" +
                        id + "'");
  }
  std::string frame = "UPLOAD " + id + " " + std::to_string(width) + " " +
                      std::to_string(height) + " " + std::to_string(nbytes) +
                      (oneshot ? " oneshot" : "") + "\n";
  frame.append(static_cast<const char*>(data), nbytes);
  if (!sendAll(fd_, frame)) {
    throw ProtocolError("send failed: " + std::string(std::strerror(errno)));
  }
  const std::string reply = readLine();
  std::istringstream tokens(reply);
  std::string status, replyId, hash;
  tokens >> status >> replyId >> hash;
  if (status == "ERR") throw RejectedError("UPLOAD rejected: " + reply);
  if (status != "OK" || replyId != id || hash.size() != 16) {
    throw ProtocolError("UPLOAD rejected: " + reply);
  }
  return hash;
}

std::string Client::metrics() {
  const std::string header = request("METRICS");
  std::istringstream tokens(header);
  std::string status, sizeText;
  tokens >> status >> sizeText;
  std::uint64_t nbytes = 0;
  if (status != "OK" || !parseId(sizeText, nbytes)) {
    throw ProtocolError("METRICS failed: " + header);
  }
  const auto want = static_cast<std::size_t>(nbytes);
  while (buffer_.size() < want) {
    receive("server closed mid-METRICS body",
            "timed out reading the METRICS body");
  }
  std::string body = buffer_.substr(0, want);
  buffer_.erase(0, want);
  return body;
}

std::string Client::report(std::uint64_t id) {
  const std::string reply = request("REPORT " + std::to_string(id));
  const std::string prefix = "OK " + std::to_string(id) + " ";
  if (reply.rfind(prefix, 0) != 0) {
    throw ProtocolError("REPORT failed: " + reply);
  }
  return reply.substr(prefix.size());
}

std::string Client::wait(
    std::uint64_t id, const std::function<void(const std::string&)>& onEvent) {
  send("WAIT " + std::to_string(id));
  while (true) {
    const std::string line = readLine();
    if (line.rfind("EVENT ", 0) == 0) {
      if (onEvent) onEvent(line);
      continue;
    }
    std::istringstream tokens(line);
    std::string status, idText, state;
    tokens >> status >> idText >> state;
    if (status != "OK") throw ProtocolError("WAIT failed: " + line);
    return state;
  }
}

}  // namespace mcmcpar::serve
