#include "serve/job_line.hpp"

#include <istream>
#include <sstream>
#include <stdexcept>

#include "engine/options.hpp"
#include "shard/tiling.hpp"

namespace mcmcpar::serve {

using engine::EngineError;
using engine::OptionMap;

namespace {

/// Parse the value of a job directive token `@key=value`; errors name the
/// directive exactly as written ("option '@iters': expected ...").
std::uint64_t directiveU64(const std::string& key, const std::string& value) {
  const OptionMap parsed = OptionMap::parse({key + "=" + value});
  return parsed.u64(key, 0);
}

double directiveDbl(const std::string& key, const std::string& value) {
  const OptionMap parsed = OptionMap::parse({key + "=" + value});
  return parsed.dbl(key, 0.0);
}

}  // namespace

JobSpec parseManifestLine(const std::string& line) {
  std::istringstream tokens(line);
  JobSpec entry;
  if (!(tokens >> entry.image) || !(tokens >> entry.strategy)) {
    throw EngineError(
        "expected '<image.pgm|synth> <strategy> [@directive=value ...] "
        "[key=value ...]', got '" +
        line + "'");
  }
  std::string shardTiles;
  std::optional<std::uint64_t> shardHalo;
  std::string token;
  while (tokens >> token) {
    if (token.front() != '@') {
      entry.options.push_back(token);
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq < 2) {
      throw EngineError("malformed job directive '" + token +
                        "': expected @directive=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "@iters") {
      const std::uint64_t iters = directiveU64(key, value);
      // Reject the degenerate and the absurd at parse time: @iters=0 would
      // "succeed" with an empty model, and values beyond kMaxJobIterations
      // overflow downstream budget arithmetic (frames x budget, tile
      // splits) long after admission.
      if (iters == 0 || iters > kMaxJobIterations) {
        throw EngineError("directive '@iters': expected a value in [1, " +
                          std::to_string(kMaxJobIterations) + "], got '" +
                          value + "'");
      }
      entry.iterations = iters;
    } else if (key == "@seed") {
      entry.seed = directiveU64(key, value);
    } else if (key == "@trace") {
      entry.trace = directiveU64(key, value);
    } else if (key == "@label") {
      entry.label = value;
    } else if (key == "@radius" || key == "@radius-std" ||
               key == "@radius-min" || key == "@radius-max" ||
               key == "@count") {
      const double parsed = directiveDbl(key, value);
      if (parsed <= 0.0) {
        throw EngineError("directive '" + key +
                          "': expected a value > 0, got '" + value + "'");
      }
      if (key == "@radius") {
        entry.radius = parsed;
      } else if (key == "@radius-std") {
        entry.radiusStd = parsed;
      } else if (key == "@radius-min") {
        entry.radiusMin = parsed;
      } else if (key == "@radius-max") {
        entry.radiusMax = parsed;
      } else {
        entry.expectedCount = parsed;
      }
    } else if (key == "@image") {
      if (value != "inline") {
        throw EngineError("directive '@image': the only supported value is "
                          "'inline', got '" +
                          value + "'");
      }
      entry.inlineImage = true;
    } else if (key == "@oneshot") {
      entry.oneshot = directiveU64(key, value) != 0;
    } else if (key == "@shard") {
      // "auto" flows through to the sharded strategy's adaptive grid; a
      // fixed KxL is validated right here like the tiles= option would.
      if (value != "auto") {
        int gx = 0;
        int gy = 0;
        try {
          shard::parseTileCount(value, gx, gy);
        } catch (const std::invalid_argument& e) {
          throw EngineError(std::string("directive '@shard': ") + e.what());
        }
      }
      shardTiles = value;
    } else if (key == "@halo") {
      shardHalo = directiveU64(key, value);
    } else if (key == "@sequence") {
      if (value.empty()) {
        throw EngineError(
            "directive '@sequence': expected a frame count or glob pattern");
      }
      entry.sequence = value;
    } else if (key == "@warm-start") {
      entry.warmStart = directiveU64(key, value) != 0;
    } else if (key == "@track") {
      entry.track = directiveU64(key, value) != 0;
    } else if (key == "@client") {
      std::string name = value;
      const std::size_t star = name.find('*');
      if (star != std::string::npos) {
        const std::string weightText = name.substr(star + 1);
        name = name.substr(0, star);
        const std::uint64_t weight = directiveU64(key, weightText);
        if (weight == 0 || weight > 1000) {
          throw EngineError(
              "directive '@client': weight must be in [1, 1000], got '" +
              weightText + "'");
        }
        entry.clientWeight = static_cast<unsigned>(weight);
      }
      if (name.empty() || name.size() > 64 ||
          name.find_first_not_of(
              "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
              "abcdefghijklmnopqrstuvwxyz0123456789._-") !=
              std::string::npos) {
        throw EngineError(
            "directive '@client': expected NAME[*W] with NAME of 1-64 "
            "chars from [A-Za-z0-9._-], got '" +
            value + "'");
      }
      entry.client = name;
    } else {
      throw EngineError("unknown job directive '" + key +
                        "' (expected @iters, @seed, @trace, @label, "
                        "@radius, @radius-std, @radius-min, @radius-max, "
                        "@count, @image, @oneshot, @shard, @halo, "
                        "@sequence, @warm-start, @track or @client)");
    }
  }
  // Validate option tokens through the same parser --opt uses, so a stray
  // trailing token fails right here with the identical descriptive message
  // instead of being deferred (strategy-unknown keys still surface at
  // creation via OptionMap::requireConsumed).
  (void)OptionMap::parse(entry.options);

  if (shardHalo && shardTiles.empty()) {
    throw EngineError("directive '@halo' requires '@shard=KxL'");
  }
  if (entry.sequence.empty() && (entry.warmStart || entry.track)) {
    throw EngineError(
        "directives '@warm-start' and '@track' require '@sequence'");
  }
  if (!entry.sequence.empty() && !shardTiles.empty()) {
    throw EngineError(
        "directive '@sequence' cannot be combined with '@shard'");
  }
  if (!shardTiles.empty()) {
    // Desugar into the shard coordinator: the named strategy becomes the
    // inner per-tile one and bare options are forwarded to it, so one
    // directive turns any job line into a sharded run (docs/PROTOCOL.md).
    if (entry.strategy == "sharded") {
      throw EngineError(
          "directive '@shard' cannot be combined with the 'sharded' "
          "strategy; pass tiles=KxL as a strategy option instead");
    }
    std::vector<std::string> options;
    options.reserve(entry.options.size() + 3);
    options.push_back("tiles=" + shardTiles);
    if (shardHalo) options.push_back("halo=" + std::to_string(*shardHalo));
    options.push_back("strategy=" + entry.strategy);
    for (const std::string& option : entry.options) {
      options.push_back("inner." + option);
    }
    entry.strategy = "sharded";
    entry.options = std::move(options);
  }
  return entry;
}

std::vector<JobSpec> parseBatchManifest(std::istream& in) {
  std::vector<JobSpec> entries;
  std::string line;
  std::size_t lineNumber = 0;
  while (std::getline(in, line)) {
    ++lineNumber;
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first) || first.front() == '#') continue;
    try {
      entries.push_back(parseManifestLine(line));
    } catch (const EngineError& e) {
      throw EngineError("manifest line " + std::to_string(lineNumber) + ": " +
                        e.what());
    }
  }
  return entries;
}

}  // namespace mcmcpar::serve
