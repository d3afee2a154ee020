#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/server.hpp"

/// One client connection of the socket protocol (docs/PROTOCOL.md §3) as a
/// single-threaded machine with no socket and no clock: bytes in; reply
/// bytes, Server calls and an open WAIT's cursor out. Time is a value the
/// caller passes in. serve/socket.cpp drives every connection from one
/// poll(2) loop; tests/test_connection.cpp feeds bytes directly.
namespace mcmcpar::serve {

class Connection {
 public:
  using Clock = std::chrono::steady_clock;  ///< the type only; never read
  /// How long an UPLOAD body may take to arrive after its header.
  static constexpr std::chrono::seconds kFrameReadTimeout{30};

  /// An open WAIT: the job, and the seq of the last event written.
  struct WaitCursor {
    std::uint64_t id = 0;
    std::uint64_t afterSeq = 0;
  };
  /// A command whose final reply was queued: its word ("UNKNOWN" outside
  /// the vocabulary) and when it began. An UPLOAD begins at its header and
  /// a WAIT at its line, so their time spans the body or the event stream.
  struct Finished {
    const char* command = nullptr;
    Clock::time_point start;
  };

  explicit Connection(Server& server) : server_(server) {}

  /// Bytes from the peer. Only an open UPLOAD body consumes them here.
  void receive(std::string_view bytes);
  /// The peer shut its sending side: what is buffered still runs, then the
  /// connection closes (an unfinished line is dropped; an unfinished body
  /// is a truncated frame).
  void receiveEof() noexcept { eof_ = true; }

  /// Do the next unit of work at `now`: finish or fail an UPLOAD body,
  /// follow an open WAIT by one batch of its job's logged events, or run
  /// the next buffered command. Commands after a WAIT stay buffered until
  /// its `OK`. False when nothing can run before more bytes, more events or
  /// a later `now`.
  bool step(Clock::time_point now);

  /// The reply bytes queued since the last call, in protocol order.
  [[nodiscard]] std::string takeOutput() { return std::exchange(output_, {}); }
  /// The command the last step() finished, if it finished one.
  [[nodiscard]] std::optional<Finished> takeFinished() {
    return std::exchange(finished_, std::nullopt);
  }
  /// True once, after the step that ran SHUTDOWN.
  [[nodiscard]] bool takeShutdown() { return std::exchange(shutdown_, false); }

  [[nodiscard]] std::optional<WaitCursor> cursor() const {
    return wait_ ? std::optional(wait_->cursor) : std::nullopt;
  }
  /// When the open UPLOAD body must be complete (nullopt: none is open). A
  /// step at or past it fails the frame.
  [[nodiscard]] std::optional<Clock::time_point> deadline() const {
    return upload_ ? std::optional(upload_->start + kFrameReadTimeout)
                   : std::nullopt;
  }
  /// No command will run again: send takeOutput(), then close.
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  /// Whether the peer's bytes are still wanted.
  [[nodiscard]] bool reading() const noexcept { return !eof_ && !closed_; }

 private:
  /// The UPLOAD body being read: collected into `body`, or, for a frame
  /// whose well-formed header was rejected, drained and then answered with
  /// `rejection`.
  struct Upload {
    std::string id;
    std::string nText;  ///< nbytes as the client wrote it
    int width = 0;
    int height = 0;
    bool oneshot = false;
    std::string body;
    std::uint64_t remaining = 0;  ///< payload bytes still to arrive
    std::string rejection;
    Clock::time_point start;
  };
  struct Wait {
    WaitCursor cursor;
    std::string idText;  ///< the id as the client wrote it
    Clock::time_point start;
  };

  /// Run one command line; returns its wire-ready reply ("" when it opened
  /// a WAIT).
  [[nodiscard]] std::string dispatch(const std::string& line,
                                     Clock::time_point now);
  /// Check an UPLOAD header (PROTOCOL.md §3, checks 1–5). Returns the reply
  /// when no body is to be read, else opens upload_ and returns "".
  [[nodiscard]] std::string uploadHeader(const std::string& line,
                                         Clock::time_point now);
  /// Move what the open body still lacks out of `bytes`; returns the count.
  std::size_t fillBody(std::string_view bytes);
  bool stepUpload(Clock::time_point now);
  bool stepWait();
  void finish(const char* command, Clock::time_point start, std::string reply);

  Server& server_;
  std::string input_;   ///< received bytes no step has consumed
  std::string output_;  ///< reply bytes not yet taken
  std::optional<Upload> upload_;
  std::optional<Wait> wait_;
  std::optional<Finished> finished_;
  /// The upload namespace: addressable only from this connection and gone
  /// with it (a job that consumed an upload keeps it pinned through the
  /// server). Bounded, oldest dropped, so an id-churning client cannot grow
  /// server memory.
  std::map<std::string, std::shared_ptr<const img::ImageF>> uploads_;
  std::vector<std::string> uploadOrder_;  ///< insertion order, for the cap
  bool eof_ = false;
  bool closed_ = false;
  bool shutdown_ = false;
};

}  // namespace mcmcpar::serve
