#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "serve/server.hpp"

namespace mcmcpar::serve {

/// Client-side failure of the serve protocol (connection refused, EOF,
/// or an ERR reply surfaced through Client's convenience helpers).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The server answered SUBMIT or UPLOAD with ERR: the request arrived and
/// was refused, unlike a connection failure.
class RejectedError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

/// The TCP front-end: the socket protocol of docs/PROTOCOL.md §3 (the
/// normative command grammar, replies and error codes) on 127.0.0.1,
/// served by one thread running a poll(2) loop over the listener, a wake
/// fd and every connection. Each connection is a serve::Connection
/// machine, which turns the bytes read into Server calls and reply bytes;
/// an open WAIT is a cursor into its job's event log, advanced when the
/// server's event watcher wakes the loop. One thread, whatever the number
/// of connections or open WAITs.
class SocketFrontend {
 public:
  /// Bind 127.0.0.1:`port` (0 = pick an ephemeral port) and start the
  /// loop thread. `onShutdown` is invoked (once) from the loop thread when
  /// a client issues SHUTDOWN; it must not block — typically it wakes the
  /// main thread, which then calls Server::shutdown and stop().
  /// Throws ProtocolError when the socket cannot be bound.
  SocketFrontend(Server& server, std::uint16_t port,
                 std::function<void()> onShutdown = {});
  ~SocketFrontend();

  SocketFrontend(const SocketFrontend&) = delete;
  SocketFrontend& operator=(const SocketFrontend&) = delete;

  /// The bound port (the resolved one when constructed with 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Follow every open WAIT one last time and send what is queued (as
  /// much as the kernel takes), then close every connection and the
  /// listener and join the loop thread. Idempotent; the destructor calls
  /// it. Call it from one thread.
  void stop();

 private:
  void run(const std::stop_token& stop);
  void wake() const;

  Server& server_;
  std::function<void()> onShutdown_;
  int listenFd_ = -1;  ///< the loop thread closes it
  int wakeFd_ = -1;    ///< eventfd: stop() and the event watcher
  std::uint64_t watcher_ = 0;
  std::uint16_t port_ = 0;
  std::jthread loop_;  ///< last member: joins before the rest tears down
};

/// A tiny blocking client of the serve socket protocol — what
/// `mcmcpar_submit`, the tests and the benches use.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to 127.0.0.1:`port` (or `host`). Throws ProtocolError.
  /// `readTimeoutSeconds` bounds every readLine so a wedged server fails
  /// loudly instead of hanging the caller (0 = wait forever).
  void connect(const std::string& host, std::uint16_t port,
               double readTimeoutSeconds = 120.0);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Send one command line ('\n' appended).
  void send(const std::string& line);

  /// Read the next reply line (without the newline). Throws ProtocolError
  /// on EOF or timeout.
  [[nodiscard]] std::string readLine();

  /// send() + readLine() for single-reply commands.
  [[nodiscard]] std::string request(const std::string& line);

  /// SUBMIT a job line, returning the admitted id. Throws RejectedError on
  /// an ERR reply (message carries the server's code and text).
  [[nodiscard]] std::uint64_t submit(const std::string& jobLine);

  /// UPLOAD a binary image frame under `id` (no whitespace), making it
  /// addressable as `<id> ... @image=inline` on this connection. The 8-bit
  /// overload sends gray8 (nbytes = w*h); the float overload sends exact
  /// float32 pixels (nbytes = 4*w*h, native byte order — coordinator and
  /// endpoint must share endianness). `oneshot` asks the server not to
  /// insert the frame into its image cache. Returns the server's content
  /// hash (16 hex digits); throws RejectedError on an ERR reply.
  std::string upload(const std::string& id, const img::ImageU8& image,
                     bool oneshot = false);
  std::string upload(const std::string& id, const img::ImageF& image,
                     bool oneshot = false);

  /// WAIT for a job, forwarding EVENT lines to `onEvent` (may be null).
  /// Returns the final state word of the `OK <id> <state>` terminator.
  [[nodiscard]] std::string wait(
      std::uint64_t id,
      const std::function<void(const std::string&)>& onEvent = {});

  /// REPORT a terminal job: the full result JSON including the detected
  /// circle list (`circles_detail`). Throws ProtocolError on an ERR reply.
  [[nodiscard]] std::string report(std::uint64_t id);

  /// METRICS: the server's Prometheus text exposition body (the `OK
  /// <nbytes>` framing line is consumed). Throws ProtocolError on ERR.
  [[nodiscard]] std::string metrics();

 private:
  std::string uploadFrame(const std::string& id, int width, int height,
                          const void* data, std::size_t nbytes, bool oneshot);
  /// Receive at least one more byte into buffer_. Throws ProtocolError
  /// with `closedMessage` on EOF, `timeoutMessage` on the read timeout.
  void receive(const char* closedMessage, const char* timeoutMessage);

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace mcmcpar::serve
