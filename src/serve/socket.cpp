#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "engine/options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/connection.hpp"

namespace mcmcpar::serve {

namespace {

using Clock = std::chrono::steady_clock;

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

/// Trace rows of the command spans, one per connection: its commands run
/// one after another, while an UPLOAD body or a WAIT stream overlaps other
/// connections' commands on the loop thread (synthetic rows, like the
/// shard coordinator's tile flights).
constexpr std::int64_t kConnectionTrackBase = 1 << 20;

/// One accepted socket and the machine that speaks its protocol.
struct Peer {
  int fd = -1;
  std::int64_t track = 0;
  Connection machine;
  std::string outbox;   ///< reply bytes the kernel has not taken yet
  bool broken = false;  ///< a send or recv failed: close without flushing
};

/// Send the outbox with one send; what the kernel would not take waits
/// for POLLOUT.
void flush(Peer& peer) {
  if (peer.outbox.empty()) return;
  const ssize_t n = ::send(peer.fd, peer.outbox.data(), peer.outbox.size(),
                           MSG_NOSIGNAL);
  if (n >= 0) {
    peer.outbox.erase(0, static_cast<std::size_t>(n));
  } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    peer.broken = true;
  }
}

/// Hand one chunk of what the socket holds to the machine. False once it
/// holds nothing more (EOF, an error, or no data).
bool receive(Peer& peer) {
  char chunk[65536];
  const ssize_t n = ::recv(peer.fd, chunk, sizeof(chunk), 0);
  if (n > 0) {
    peer.machine.receive({chunk, static_cast<std::size_t>(n)});
    return true;
  }
  if (n == 0) {
    peer.machine.receiveEof();
  } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    peer.broken = true;
  }
  return false;
}

/// Every command is counted, timed and traced from its start to the moment
/// its final reply went to the kernel. WAIT's time spans its whole event
/// stream by design.
void record(const Peer& peer, const Connection::Finished& done) {
  const Clock::time_point end = Clock::now();
  obs::Registry& registry = obs::Registry::global();
  registry
      .counter("mcmcpar_serve_commands_total",
               "Socket commands handled, by command word.",
               {{"command", done.command}})
      .add();
  registry
      .histogram("mcmcpar_serve_command_seconds",
                 "Wall time from parsing a command to its final reply.",
                 obs::latencyBuckets(), {{"command", done.command}})
      .observe(std::chrono::duration<double>(end - done.start).count());
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.record("serve", std::string("cmd:") + done.command, done.start,
                  end, {}, peer.track);
  }
}

obs::Gauge& activeConnections() {
  return obs::Registry::global().gauge("mcmcpar_serve_active_connections",
                                       "Socket connections currently open.");
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketFrontend
// ---------------------------------------------------------------------------

SocketFrontend::SocketFrontend(Server& server, std::uint16_t port,
                               std::function<void()> onShutdown)
    : server_(server), onShutdown_(std::move(onShutdown)) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
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
      ::listen(listenFd_, 64) < 0 ||
      (wakeFd_ = ::eventfd(0, EFD_NONBLOCK)) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listenFd_);
    throw ProtocolError("cannot listen on 127.0.0.1:" + std::to_string(port) +
                        ": " + reason);
  }
  socklen_t len = sizeof(addr);
  (void)getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  (void)activeConnections();  // in the exposition before the first accept
  watcher_ = server_.addEventWatcher([this] { wake(); });
  loop_ = std::jthread([this](const std::stop_token& stop) { run(stop); });
}

SocketFrontend::~SocketFrontend() { stop(); }

void SocketFrontend::stop() {
  if (!loop_.joinable()) return;
  loop_.request_stop();
  wake();
  loop_.join();
  server_.removeEventWatcher(watcher_);
  ::close(wakeFd_);
}

void SocketFrontend::wake() const {
  const std::uint64_t one = 1;
  // Fails only when the counter is saturated, i.e. a wake is pending.
  [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void SocketFrontend::run(const std::stop_token& stop) {
  obs::Gauge& active = activeConnections();
  std::vector<std::unique_ptr<Peer>> peers;
  std::vector<pollfd> fds;
  std::int64_t accepted = 0;
  bool shutdownFired = false;

  // Run the peer's machine until it needs more bytes or events, sending
  // each step's output with one send. A peer whose kernel buffer is full
  // runs nothing more until POLLOUT has drained its outbox.
  const auto service = [&](Peer& peer) {
    while (peer.outbox.empty() && !peer.broken &&
           peer.machine.step(Clock::now())) {
      if (peer.machine.takeShutdown() && !shutdownFired) {
        shutdownFired = true;
        if (onShutdown_) onShutdown_();
      }
      peer.outbox = peer.machine.takeOutput();
      flush(peer);
      if (const auto done = peer.machine.takeFinished()) record(peer, *done);
    }
  };

  while (!stop.stop_requested()) {
    fds.assign({pollfd{listenFd_, POLLIN, 0}, pollfd{wakeFd_, POLLIN, 0}});
    std::optional<Clock::time_point> due;
    for (const auto& peer : peers) {
      short events = 0;
      if (!peer->outbox.empty()) {
        events = POLLOUT;
      } else {
        if (peer->machine.reading()) events = POLLIN;
        if (const auto deadline = peer->machine.deadline()) {
          due = std::min(due.value_or(*deadline), *deadline);
        }
      }
      fds.push_back(pollfd{peer->fd, events, 0});
    }
    // Sleep until a socket, the event watcher or stop() wakes the loop, or
    // the earliest UPLOAD body deadline passes.
    const auto timeout =
        due ? std::max<std::int64_t>(
                  0, std::chrono::ceil<std::chrono::milliseconds>(
                         *due - Clock::now())
                         .count())
            : -1;
    if (::poll(fds.data(), fds.size(), static_cast<int>(timeout)) < 0) {
      continue;  // EINTR
    }

    if ((fds[1].revents & POLLIN) != 0) {
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n = ::read(wakeFd_, &count, sizeof(count));
    }
    // Every peer is serviced on every wake: an open WAIT follows its log,
    // and a body past its deadline fails. Input is serviced a chunk at a
    // time, so an UPLOAD body lands in place once its header has run, and
    // at most 1 MB a wake, so one sender cannot starve the others.
    for (std::size_t i = 0; i < peers.size(); ++i) {
      Peer& peer = *peers[i];
      const short revents = fds[i + 2].revents;
      if ((revents & POLLIN) != 0) {
        for (int reads = 0;
             reads < 16 && peer.machine.reading() && receive(peer); ++reads) {
          service(peer);
        }
      } else if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        peer.broken = true;
      }
      if ((revents & POLLOUT) != 0) flush(peer);
      service(peer);
    }
    std::erase_if(peers, [&](const std::unique_ptr<Peer>& peer) {
      const bool done = peer->broken ||
                        (peer->machine.closed() && peer->outbox.empty());
      if (done) {
        ::close(peer->fd);
        active.add(-1.0);
      }
      return done;
    });
    if ((fds[0].revents & POLLIN) != 0) {
      int fd = -1;
      while ((fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_NONBLOCK)) >=
             0) {
        setNoDelay(fd);
        peers.push_back(std::make_unique<Peer>(
            fd, kConnectionTrackBase + accepted++, Connection(server_)));
        active.add(1.0);
      }
    }
  }

  // stop(): every open WAIT follows its log once more, so a job the drain
  // ended still sends its terminal events, and what is queued goes out as
  // far as the kernel takes it.
  for (const auto& peer : peers) {
    flush(*peer);
    service(*peer);
    ::close(peer->fd);
  }
  active.add(-static_cast<double>(peers.size()));
  ::close(listenFd_);
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
  if (!sendAll(fd_, line + "\n")) {
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
  if (status == "ERR") throw RejectedError("SUBMIT rejected: " + reply);
  const std::optional<std::uint64_t> id = engine::parseU64(idText);
  if (status != "OK" || !id) throw ProtocolError("SUBMIT rejected: " + reply);
  return *id;
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
  const std::optional<std::uint64_t> nbytes = engine::parseU64(sizeText);
  if (status != "OK" || !nbytes) {
    throw ProtocolError("METRICS failed: " + header);
  }
  const auto want = static_cast<std::size_t>(*nbytes);
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
