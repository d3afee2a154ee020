// serve::Connection, the socket protocol's per-connection machine, driven
// with no socket: bytes in, reply bytes out, time passed in by the test.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <regex>
#include <string>
#include <vector>

#include "img/synth.hpp"
#include "rng/stream.hpp"
#include "serve/connection.hpp"
#include "serve/server.hpp"

namespace mcmcpar::serve {
namespace {

using namespace std::chrono_literals;
using Clock = Connection::Clock;

ServerOptions tinyServer() {
  ServerOptions options;
  options.threads = 2;
  options.synthWidth = 64;
  options.synthHeight = 64;
  options.synthCells = 3;
  options.radius = 8.0;
  options.defaultBudget = engine::RunBudget{400, 0};
  return options;
}

/// Step until nothing can run, collecting the output. An open WAIT blocks
/// on its job's log (as the socket driver's watcher would wake it) until
/// the WAIT ends.
void settle(Server& server, Connection& connection, std::string& out,
            Clock::time_point now = {}) {
  while (true) {
    while (connection.step(now)) out += connection.takeOutput();
    const auto cursor = connection.cursor();
    if (!cursor) return;
    (void)server.events(cursor->id, cursor->afterSeq, 20s);
  }
}

/// Feed `chunks` to a fresh connection, settling after each, then EOF.
std::string feed(Server& server, const std::vector<std::string>& chunks) {
  Connection connection(server);
  std::string out;
  for (const std::string& chunk : chunks) {
    connection.receive(chunk);
    settle(server, connection, out);
  }
  connection.receiveEof();
  settle(server, connection, out);
  EXPECT_TRUE(connection.closed());
  return out;
}

std::string uploadFrame(const std::string& id, const img::ImageF& image,
                        bool asFloat) {
  std::string frame = "UPLOAD " + id + " " + std::to_string(image.width()) +
                      " " + std::to_string(image.height()) + " ";
  if (asFloat) {
    const std::size_t n = image.pixelCount() * sizeof(float);
    frame += std::to_string(n) + " oneshot\n";
    frame.append(reinterpret_cast<const char*>(image.pixels().data()), n);
  } else {
    const img::ImageU8 bytes = img::toU8(image);
    frame += std::to_string(bytes.pixelCount()) + "\n";
    frame.append(reinterpret_cast<const char*>(bytes.pixels().data()),
                 bytes.pixelCount());
  }
  return frame;
}

img::ImageF scene(int size, std::uint64_t seed) {
  return img::generateScene(img::cellScene(size, size, 3, 8.0, seed)).image;
}

/// The wall-clock parts of the replies made comparable: every
/// `"..._seconds": <number>` becomes `*`, and a METRICS body (after its
/// `OK <nbytes>` line) becomes `<metrics>`.
std::string normalise(const std::string& out) {
  std::string kept;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t end = out.find('\n', pos);
    if (end == std::string::npos) {
      kept += out.substr(pos);
      break;
    }
    const std::string line = out.substr(pos, end - pos);
    pos = end + 1;
    if (std::regex_match(line, std::regex("OK [0-9]+")) &&
        out.compare(pos, 6, "# HELP") == 0) {
      pos += std::stoull(line.substr(3));
      kept += "OK <metrics>\n";
      continue;
    }
    kept += line + '\n';
  }
  return std::regex_replace(
      kept, std::regex(R"re(("[a-z_]*seconds"): [-+0-9.e]+)re"), "$1: *");
}

/// The PROTOCOL.md §4 transcripts plus a pipelined mix of every command,
/// as one byte stream.
std::string transcript() {
  std::string in = "PING\r\n";
  in += uploadFrame("cells.pgm", scene(64, 5), /*asFloat=*/false);
  in += uploadFrame("tile", scene(48, 9), /*asFloat=*/true);
  for (int k = 0; k < 3; ++k) {
    in += uploadFrame("cam." + std::to_string(k), scene(40, 20 + k), true);
  }
  in += "STATS\n";
  in += "SUBMIT synth serial @iters=400 @label=demo\nWAIT 1\nRESULT 1\n";
  in += "SUBMIT cells.pgm serial @iters=600 @image=inline\nWAIT 2\n";
  in += "REPORT 2\n\n";
  in += "SUBMIT tile serial @iters=300 @image=inline\nWAIT 3\nSTATUS 3\n";
  in += "SUBMIT cam serial @iters=300 @sequence=3 @image=inline\nWAIT 4\n";
  in += "REPORT 4\nMETRICS\nCANCEL 1\nBOGUS\nSTATUS x\nSHUTDOWN\nPING\n";
  return in;
}

TEST(ConnectionMachine, TranscriptRepliesDoNotDependOnWhereTheInputSplits) {
  const std::string in = transcript();
  std::vector<std::string> bytes;
  for (const char c : in) bytes.emplace_back(1, c);
  std::vector<std::string> pieces;
  rng::Stream rng(2024);
  for (std::size_t pos = 0; pos < in.size();) {
    const std::size_t len = 1 + rng.below(700);
    pieces.push_back(in.substr(pos, len));
    pos += len;
  }

  std::vector<std::string> outputs;
  for (const auto& chunks :
       {std::vector<std::string>{in}, bytes, pieces}) {
    Server server(tinyServer());  // fresh, so job ids and counts repeat
    outputs.push_back(feed(server, chunks));
    server.shutdown(5.0);
  }
  EXPECT_EQ(normalise(outputs[0]), normalise(outputs[1]));
  EXPECT_EQ(normalise(outputs[0]), normalise(outputs[2]));

  const std::string& out = outputs[0];
  EXPECT_EQ(out.rfind("OK pong\nOK cells.pgm ", 0), 0u) << out.substr(0, 80);
  for (const char* expected :
       {"\nOK tile ", "\nOK cam.2 ", "\nOK {\"submitted\": 0,",
        "\nOK 1\nEVENT 1 ADMITTED seq=1\nEVENT 1 STARTED seq=2\n",
        "\nEVENT 1 DONE seq=", "\nOK 1 done\nOK 1 {\"id\": 1, \"label\": "
                               "\"demo\"",
        "\nOK 2 done\nOK 2 {", "\"circles_detail\": [",
        "\nOK 3 done\nOK 3 done 300 300\n", "\nEVENT 4 FRAME frame=2/3 seq=",
        "\"tracks\": [", "\nOK 1 already-terminal\n",
        "\nERR BAD_REQUEST unknown command 'BOGUS'\n",
        "\nERR BAD_REQUEST expected 'STATUS <id>'\n"}) {
    EXPECT_NE(out.find(expected), std::string::npos) << expected;
  }
  // SHUTDOWN answers and closes: the PING after it never runs.
  EXPECT_EQ(out.size() - out.rfind("\nOK draining\n"), 13u);
}

TEST(ConnectionMachine, SplitFeedsMatchOnEveryUploadAndEndOfStreamPath) {
  // No job runs here, so the outputs compare byte for byte.
  std::string in = "UPLOAD z 0 4 0\nUPLOAD m 4 4 20\nPING\nPING\nPING\nPING\n";
  in += uploadFrame("g", scene(32, 3), false) + "PING\nUPLOAD t 4 4 16\nABC";
  std::vector<std::string> bytes;
  for (const char c : in) bytes.emplace_back(1, c);
  Server server(tinyServer());
  const std::string whole = feed(server, {in});
  EXPECT_EQ(feed(server, bytes), whole);
  EXPECT_EQ(whole.substr(0, whole.find("\nOK g ")),
            "ERR BAD_FRAME zero-size frame: w, h and nbytes must all be > 0\n"
            "ERR BAD_FRAME nbytes 20 matches neither w*h (gray8, 16) nor "
            "4*w*h (float32, 64)");
  EXPECT_NE(whole.find("\nOK pong\nERR BAD_FRAME truncated frame: "),
            std::string::npos)
      << whole;
  server.shutdown(5.0);
}

// PROTOCOL.md §3, UPLOAD checks 1–5: a malformed header closes the
// connection; a well-formed header that is rejected drains its declared
// body (here, bytes that would parse as commands) and keeps it.
TEST(ConnectionMachine, UploadValidationDrainsRejectedBodiesAndKeepsTheLine) {
  ServerOptions options = tinyServer();
  options.cacheBytes = 64;  // 8x8 decodes to 256 bytes
  Server server(options);
  const auto run = [&](const std::string& in) {
    Connection connection(server);
    connection.receive(in);
    std::string out;
    settle(server, connection, out);
    return std::make_pair(out, connection.closed());
  };

  for (const char* header : {"UPLOAD only-an-id\nPING\n",
                             "UPLOAD a 1 1 1 extra\nPING\n",
                             "UPLOAD a 1 x 1\nPING\n"}) {
    const auto [out, closed] = run(header);
    EXPECT_EQ(out.rfind("ERR BAD_FRAME expected 'UPLOAD <id> <w> <h> "
                        "<nbytes> [oneshot]', got '",
                        0),
              0u)
        << out;
    EXPECT_EQ(out.find("OK pong"), std::string::npos) << out;
    EXPECT_TRUE(closed);
  }

  std::string commands;  // 64 bytes that answer if read as commands
  while (commands.size() < 64) commands += "PING\n";
  commands.resize(64);
  struct Case {
    std::string in;
    const char* reply;
  };
  for (const Case& c :
       {Case{"UPLOAD z 0 8 64\n" + commands, "ERR BAD_FRAME zero-size"},
        Case{"UPLOAD w 70000 1 64\n" + commands, "ERR TOO_LARGE frame exceeds"},
        Case{"UPLOAD n 5 5 64\n" + std::string(64, 'P'),
             "ERR BAD_FRAME nbytes 64 matches neither"},
        Case{"UPLOAD c 8 8 64\n" + commands,
             "ERR TOO_LARGE decoded image (256 bytes)"}}) {
    const auto [out, closed] = run(c.in + "PING\n");
    EXPECT_EQ(out.rfind(c.reply, 0), 0u) << out;
    EXPECT_EQ(out.substr(out.find('\n') + 1), "OK pong\n") << out;
    EXPECT_FALSE(closed);
  }

  // Past 2^30 bytes a rejected body is not drained: reply and close.
  for (const Case& c :
       {Case{"UPLOAD h 1 1 2000000000\n", "ERR TOO_LARGE frame exceeds"},
        Case{"UPLOAD z 0 1 2000000000\n", "ERR BAD_FRAME zero-size"}}) {
    const auto [out, closed] = run(c.in + "PING\n");
    EXPECT_EQ(out.rfind(c.reply, 0), 0u) << out;
    EXPECT_EQ(out.find("OK pong"), std::string::npos) << out;
    EXPECT_TRUE(closed);
  }
  server.shutdown(5.0);
}

TEST(ConnectionMachine, EofMidBodyIsATruncatedFrame) {
  Server server(tinyServer());
  Connection collecting(server);
  collecting.receive("UPLOAD t 4 4 16\nABC");
  EXPECT_TRUE(collecting.step({}));  // the header opens the body
  EXPECT_FALSE(collecting.step({}));
  collecting.receiveEof();
  EXPECT_TRUE(collecting.step({}));
  EXPECT_EQ(collecting.takeOutput(),
            "ERR BAD_FRAME truncated frame: connection delivered fewer than "
            "the declared 16 payload bytes\n");
  EXPECT_TRUE(collecting.closed());

  // A rejected frame cut short answers its rejection, then closes.
  Connection draining(server);
  draining.receive("UPLOAD n 4 4 20\nABC");
  draining.receiveEof();
  EXPECT_TRUE(draining.step({}));
  EXPECT_TRUE(draining.step({}));
  EXPECT_EQ(draining.takeOutput().rfind("ERR BAD_FRAME nbytes 20", 0), 0u);
  EXPECT_TRUE(draining.closed());
  server.shutdown(5.0);
}

TEST(ConnectionMachine, FrameDeadlineIsATimestampTheCallerDrives) {
  Server server(tinyServer());
  Connection connection(server);
  const Clock::time_point start = Clock::time_point{} + 1000s;
  EXPECT_FALSE(connection.deadline());
  connection.receive("UPLOAD t 4 4 16\nABC");
  EXPECT_TRUE(connection.step(start));  // the header opens the body
  ASSERT_TRUE(connection.deadline());
  EXPECT_EQ(*connection.deadline(), start + 30s);
  EXPECT_FALSE(connection.step(start + 29s));
  connection.receive("DEFG");
  EXPECT_FALSE(connection.step(start + 29999ms));
  EXPECT_EQ(connection.takeOutput(), "");
  EXPECT_TRUE(connection.step(start + 30s));
  EXPECT_EQ(connection.takeOutput().rfind("ERR BAD_FRAME truncated frame", 0),
            0u);
  const auto finished = connection.takeFinished();
  ASSERT_TRUE(finished);
  EXPECT_STREQ(finished->command, "UPLOAD");
  EXPECT_EQ(finished->start, start);
  EXPECT_TRUE(connection.closed());
  EXPECT_FALSE(connection.deadline());
  server.shutdown(5.0);
}

TEST(ConnectionMachine, CommandsAfterAWaitAnswerAfterItsOk) {
  Server server(tinyServer());
  const std::uint64_t id = server.submitLine("synth serial @iters=100000000");
  const std::string idText = std::to_string(id);
  Connection connection(server);
  const Clock::time_point waitStart = Clock::time_point{} + 5s;
  connection.receive("WAIT " + idText + "\nPING\nSTATUS " + idText + "\n");
  std::string out;
  while (connection.step(waitStart)) out += connection.takeOutput();
  ASSERT_TRUE(connection.cursor());
  EXPECT_EQ(connection.cursor()->id, id);
  EXPECT_GE(connection.cursor()->afterSeq, 1u);
  EXPECT_EQ(out.rfind("EVENT " + idText + " ADMITTED seq=1\n", 0), 0u) << out;
  EXPECT_EQ(out.find("OK"), std::string::npos) << out;
  EXPECT_FALSE(connection.takeFinished());

  EXPECT_NE(server.cancel(id), CancelOutcome::Unknown);
  settle(server, connection, out);
  const std::string tail = "OK " + idText + " cancelled\nOK pong\nOK " +
                           idText + " cancelled ";
  EXPECT_NE(out.find("\nEVENT " + idText + " CANCELLED seq="),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(tail), std::string::npos) << out;
  EXPECT_FALSE(connection.cursor());
  server.shutdown(5.0);
}

TEST(ConnectionMachine, WaitTimeSpansItsWholeStream) {
  Server server(tinyServer());
  const std::uint64_t id = server.submitLine("synth serial @iters=300");
  Connection connection(server);
  const Clock::time_point start = Clock::time_point{} + 7s;
  connection.receive("WAIT " + std::to_string(id) + "\n");
  EXPECT_TRUE(connection.step(start));
  EXPECT_FALSE(connection.takeFinished());
  std::string out;
  settle(server, connection, out, start + 60s);
  EXPECT_EQ(out.substr(out.rfind("OK")), "OK " + std::to_string(id) +
                                             " done\n");
  // The last step finished the WAIT, stamped with the WAIT line's time.
  const auto finished = connection.takeFinished();
  ASSERT_TRUE(finished);
  EXPECT_STREQ(finished->command, "WAIT");
  EXPECT_EQ(finished->start, start);
  server.shutdown(5.0);
}

TEST(ConnectionMachine, UploadNamespaceKeepsTheNewest64) {
  Server server(tinyServer());
  std::string in;
  for (int k = 0; k <= 64; ++k) {
    in += "UPLOAD u" + std::to_string(k) + " 2 2 4\n" + std::string(4, 'x');
  }
  in += "SUBMIT u0 serial @image=inline\nSUBMIT u1 serial @image=inline\n";
  Connection connection(server);
  connection.receive(in);
  std::string out;
  settle(server, connection, out);
  EXPECT_NE(out.find("ERR BAD_JOB @image=inline: no upload named 'u0'"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.substr(out.rfind('\n', out.size() - 2) + 1), "OK 1\n");
  server.shutdown(5.0);
}

TEST(ConnectionMachine, ShutdownIsReportedOnceAndClosesTheConnection) {
  Server server(tinyServer());
  Connection connection(server);
  connection.receive("PING\r\nSHUTDOWN\nPING\n");
  EXPECT_TRUE(connection.step({}));
  EXPECT_EQ(connection.takeOutput(), "OK pong\n");
  EXPECT_STREQ(connection.takeFinished()->command, "PING");  // \r stripped
  EXPECT_FALSE(connection.takeShutdown());
  EXPECT_TRUE(connection.step({}));
  EXPECT_EQ(connection.takeOutput(), "OK draining\n");
  EXPECT_TRUE(connection.takeShutdown());
  EXPECT_FALSE(connection.takeShutdown());
  EXPECT_TRUE(connection.closed());
  EXPECT_FALSE(connection.step({}));
  EXPECT_EQ(connection.takeOutput(), "");
  server.shutdown(5.0);
}

}  // namespace
}  // namespace mcmcpar::serve
