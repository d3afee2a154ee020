// mcmcpar_submit — the tiny client of the mcmcpar_serve socket protocol
// (docs/PROTOCOL.md). Submits a job line, streams its progress events and
// prints the result JSON; or issues a single administrative command.
//
//   mcmcpar_submit --port 7333 synth serial @iters=5000
//   mcmcpar_submit --port 7333 --no-wait cells.pgm mc3 chains=4
//   mcmcpar_submit --port 7333 --upload cells.pgm mc3 chains=4
//   mcmcpar_submit --port 7333 --status 3
//   mcmcpar_submit --port 7333 --stats
//   mcmcpar_submit --port 7333 --shutdown
//
// Exit status: 0 = job done (or command OK), 1 = job failed/cancelled or
// the server replied ERR, 2 = usage or connection error.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/options.hpp"
#include "img/pnm_io.hpp"
#include "img/synth.hpp"
#include "serve/socket.hpp"

using namespace mcmcpar;

namespace {

/// The protocol's bound on one UPLOAD frame dimension (docs/PROTOCOL.md).
constexpr std::uint64_t kMaxFrameDim = 1u << 16;

void printUsage() {
  std::printf(
      "usage: mcmcpar_submit --port PORT [--host H] [options] "
      "<job line tokens...>\n"
      "  --port PORT         server port (required)\n"
      "  --host H            server address (default: 127.0.0.1)\n"
      "  --no-wait           submit and print the id without waiting\n"
      "  --progress          print EVENT lines to stderr while waiting\n"
      "  --timeout X         read timeout in seconds (default: 300; 0 = none)\n"
      "  --upload            read the first job token as a local PGM, push\n"
      "                      its pixels over the connection as a binary\n"
      "                      UPLOAD frame and submit with @image=inline --\n"
      "                      the server never touches the filesystem\n"
      "  --oneshot           with --upload: bypass the server's image cache\n"
      "                      (one-off inputs should not evict warm entries)\n"
      "  --sequence N        generate N synthetic drifting frames locally,\n"
      "                      push each as a float32 UPLOAD frame (cam.0 ..\n"
      "                      cam.N-1) and submit the job line as a streaming\n"
      "                      '@sequence=N @image=inline' job; the job tokens\n"
      "                      are just '<strategy> [options...]' (N <= 64,\n"
      "                      the per-connection upload cap)\n"
      "  --seq-size W        sequence: square frame size (default: 160)\n"
      "  --seq-cells N       sequence: circles per frame (default: 6)\n"
      "  --seed N            sequence: scene seed (default: 1)\n"
      "single commands (instead of a job line):\n"
      "  --wait ID           wait for an already-submitted job and print its\n"
      "                      result; exits 0 only when it ends 'done', so\n"
      "                      scripts can gate on jobs queued with --no-wait\n"
      "  --status ID / --result ID / --report ID / --cancel ID / --stats /\n"
      "  --ping / --shutdown print the server's raw reply\n"
      "  --metrics           print the server's Prometheus text exposition\n"
      "                      (the METRICS command; docs/PROTOCOL.md)\n"
      "\nA job line is '<image.pgm|synth> <strategy> [@directive=value ...]"
      " [key=value ...]'\n(docs/PROTOCOL.md).\n");
}

/// Strip directories and replace protocol-hostile characters so a local
/// path becomes a safe upload id ("data/run 1/cells.pgm" -> "cells.pgm").
/// Upload ids are single whitespace-free tokens in the job line grammar.
std::string uploadIdFor(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string id = slash == std::string::npos ? path : path.substr(slash + 1);
  for (char& c : id) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' &&
        c != '_' && c != '-') {
      c = '_';
    }
  }
  return id.empty() ? "upload" : id;
}

/// WAIT on `id`, then print its RESULT JSON. Exit status 0 only when the
/// job ended `done` — failed and cancelled jobs gate shell scripts and CI.
int waitAndReport(mcmcpar::serve::Client& client, std::uint64_t id,
                  bool progress) {
  std::function<void(const std::string&)> onEvent;
  if (progress) {
    onEvent = [](const std::string& event) {
      std::fprintf(stderr, "%s\n", event.c_str());
    };
  }
  const std::string state = client.wait(id, onEvent);
  const std::string reply = client.request("RESULT " + std::to_string(id));
  if (reply.rfind("OK ", 0) != 0) {
    std::fprintf(stderr, "%s\n", reply.c_str());
    return 1;
  }
  // Reply is "OK <id> <json>": print just the JSON payload.
  const std::size_t json = reply.find('{');
  std::printf("%s\n", json == std::string::npos ? reply.c_str()
                                                : reply.c_str() + json);
  return state == "done" ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  unsigned port = 0;
  bool wait = true;
  bool progress = false;
  bool upload = false;
  bool oneshot = false;
  std::uint64_t sequenceFrames = 0;  // --sequence N (0 = not a sequence)
  int seqSize = 160;
  int seqCells = 6;
  std::uint64_t seed = 1;
  double timeoutSeconds = 300.0;
  std::optional<std::string> command;   // raw single-command request
  std::optional<std::uint64_t> waitId;  // --wait ID
  std::vector<std::string> jobTokens;

  // Numeric flag values parse strictly (engine::flagU64/flagDouble); a
  // malformed one is a usage error, reported before any connection attempt.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value after %s\n", arg.c_str());
          return nullptr;
        }
        return argv[++i];
      };
      if (arg == "--help") {
        printUsage();
        return 0;
      } else if (arg == "--host") {
        const char* v = value();
        if (v == nullptr) return 2;
        host = v;
      } else if (arg == "--port") {
        const char* v = value();
        if (v == nullptr) return 2;
        port = static_cast<unsigned>(engine::flagU64(arg, v, 1, 65535));
      } else if (arg == "--no-wait") {
        wait = false;
      } else if (arg == "--progress") {
        progress = true;
      } else if (arg == "--upload") {
        upload = true;
      } else if (arg == "--oneshot") {
        oneshot = true;
      } else if (arg == "--sequence") {
        const char* v = value();
        if (v == nullptr) return 2;
        sequenceFrames = engine::flagU64(arg, v, 1);
      } else if (arg == "--seq-size") {
        const char* v = value();
        if (v == nullptr) return 2;
        seqSize = static_cast<int>(engine::flagU64(arg, v, 1, kMaxFrameDim));
      } else if (arg == "--seq-cells") {
        const char* v = value();
        if (v == nullptr) return 2;
        seqCells = static_cast<int>(engine::flagU64(arg, v, 0, 0x7FFFFFFFull));
      } else if (arg == "--seed") {
        const char* v = value();
        if (v == nullptr) return 2;
        seed = engine::flagU64(arg, v);
      } else if (arg == "--timeout") {
        const char* v = value();
        if (v == nullptr) return 2;
        timeoutSeconds = engine::flagDouble(arg, v, 0.0);
      } else if (arg == "--wait") {
        const char* v = value();
        if (v == nullptr) return 2;
        waitId = engine::flagU64(arg, v, 1);
      } else if (arg == "--status" || arg == "--result" || arg == "--report" ||
                 arg == "--cancel") {
        const char* v = value();
        if (v == nullptr) return 2;
        std::string verb = arg.substr(2);
        for (char& c : verb) c = static_cast<char>(std::toupper(c));
        command = verb + " " + v;
      } else if (arg == "--stats") {
        command = "STATS";
      } else if (arg == "--metrics") {
        command = "METRICS";
      } else if (arg == "--ping") {
        command = "PING";
      } else if (arg == "--shutdown") {
        command = "SHUTDOWN";
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "unknown option: %s\n\n", arg.c_str());
        printUsage();
        return 2;
      } else {
        jobTokens.push_back(arg);
      }
    }
  } catch (const engine::EngineError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "--port is required (1-65535)\n");
    return 2;
  }
  if (!command && !waitId && jobTokens.empty()) {
    printUsage();
    return 2;
  }
  if (oneshot && !upload) {
    std::fprintf(stderr, "--oneshot only makes sense with --upload\n");
    return 2;
  }
  if (upload && jobTokens.empty()) {
    std::fprintf(stderr,
                 "--upload needs a job line whose first token is a local "
                 "PGM path\n");
    return 2;
  }
  if (sequenceFrames > 0) {
    if (upload) {
      std::fprintf(stderr,
                   "--sequence generates and uploads its own frames; drop "
                   "--upload\n");
      return 2;
    }
    // The server caps per-connection uploads; more frames than that would
    // silently evict frame 0 before SUBMIT could gather it.
    if (sequenceFrames > 64) {
      std::fprintf(stderr, "--sequence: at most 64 inline frames\n");
      return 2;
    }
    if (jobTokens.empty()) {
      std::fprintf(stderr,
                   "--sequence needs job tokens: <strategy> [options...]\n");
      return 2;
    }
  }

  // Read the image before dialling the server: a bad path should not cost a
  // connection, and PnmError is a usage error (exit 2), not a job failure.
  img::ImageU8 pixels;
  if (upload) {
    try {
      pixels = img::readPgm(jobTokens[0]);
    } catch (const img::PnmError& e) {
      std::fprintf(stderr, "--upload: %s\n", e.what());
      return 2;
    }
  }

  serve::Client client;
  try {
    client.connect(host, static_cast<std::uint16_t>(port), timeoutSeconds);

    if (waitId) return waitAndReport(client, *waitId, progress);

    if (command == "METRICS") {
      // METRICS is byte-framed (OK <nbytes> + raw body), not line-framed;
      // Client::metrics consumes the framing and returns just the body.
      std::fputs(client.metrics().c_str(), stdout);
      return 0;
    }
    if (command) {
      const std::string reply = client.request(*command);
      std::printf("%s\n", reply.c_str());
      return reply.rfind("OK", 0) == 0 ? 0 : 1;
    }

    if (upload) {
      const std::string frameId = uploadIdFor(jobTokens[0]);
      const std::string hash = client.upload(frameId, pixels, oneshot);
      std::fprintf(stderr, "uploaded %s as '%s' (%dx%d, hash %s)%s\n",
                   jobTokens[0].c_str(), frameId.c_str(), pixels.width(),
                   pixels.height(), hash.c_str(),
                   oneshot ? " [oneshot]" : "");
      jobTokens[0] = frameId;
      jobTokens.push_back("@image=inline");
    }

    if (sequenceFrames > 0) {
      // Generate the drifting frames client-side and push each one as an
      // exact float32 frame — the server sees only pixels, never a path.
      img::DriftSpec drift;
      drift.scene = img::cellScene(seqSize, seqSize, seqCells, 9.0, seed);
      drift.frames = static_cast<int>(sequenceFrames);
      const std::vector<img::Scene> scenes =
          img::generateDriftingSequence(drift);
      for (std::size_t k = 0; k < scenes.size(); ++k) {
        const std::string frameId = "cam." + std::to_string(k);
        (void)client.upload(frameId, scenes[k].image, oneshot);
      }
      std::fprintf(stderr, "uploaded %zu drifting frames (%dx%d) as cam.*\n",
                   scenes.size(), seqSize, seqSize);
      jobTokens.insert(jobTokens.begin(), "cam");
      jobTokens.push_back("@sequence=" +
                          std::to_string(sequenceFrames));
      jobTokens.push_back("@image=inline");
    }

    std::string jobLine;
    for (const std::string& token : jobTokens) {
      if (!jobLine.empty()) jobLine += ' ';
      jobLine += token;
    }
    const std::uint64_t id = client.submit(jobLine);
    if (!wait) {
      std::printf("%llu\n", static_cast<unsigned long long>(id));
      return 0;
    }
    std::fprintf(stderr, "job %llu admitted\n",
                 static_cast<unsigned long long>(id));
    return waitAndReport(client, id, progress);
  } catch (const serve::RejectedError& e) {  // the server answered ERR
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
