#include "engine/options.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace mcmcpar::engine {

namespace {

[[noreturn]] void badValue(const std::string& key, const std::string& value,
                           const char* expected) {
  throw EngineError("option '" + key + "': expected " + expected + ", got '" +
                    value + "'");
}

}  // namespace

std::optional<std::uint64_t> parseU64(std::string_view text) noexcept {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parseDouble(std::string_view text) noexcept {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::uint64_t flagU64(std::string_view flag, std::string_view text,
                      std::uint64_t min, std::uint64_t max) {
  const std::optional<std::uint64_t> value = parseU64(text);
  if (!value || *value < min || *value > max) {
    const bool bounded =
        min != 0 || max != std::numeric_limits<std::uint64_t>::max();
    throw EngineError(std::string(flag) + ": expected an unsigned integer" +
                      (bounded ? " in [" + std::to_string(min) + ", " +
                                     std::to_string(max) + "]"
                               : std::string()) +
                      ", got '" + std::string(text) + "'");
  }
  return *value;
}

double flagDouble(std::string_view flag, std::string_view text, double min) {
  const std::optional<double> value = parseDouble(text);
  if (!value || *value < min) {
    char bound[48] = "";
    if (min > std::numeric_limits<double>::lowest()) {
      std::snprintf(bound, sizeof(bound), " >= %g", min);
    }
    throw EngineError(std::string(flag) + ": expected a finite number" +
                      bound + ", got '" + std::string(text) + "'");
  }
  return *value;
}

OptionMap OptionMap::parse(const std::vector<std::string>& pairs) {
  OptionMap map;
  for (const std::string& pair : pairs) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw EngineError("malformed option '" + pair +
                        "': expected key=value");
    }
    const std::string key = pair.substr(0, eq);
    const auto existing = map.values_.find(key);
    if (existing != map.values_.end()) {
      throw EngineError("option '" + key + "' given twice ('" + key + "=" +
                        existing->second + "' and '" + pair +
                        "'); each key may appear once");
    }
    map.values_[key] = pair.substr(eq + 1);
  }
  return map;
}

std::vector<std::string> OptionMap::keysWithPrefix(
    const std::string& prefix) const {
  std::vector<std::string> keys;
  for (auto it = values_.lower_bound(prefix);
       it != values_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    keys.push_back(it->first);
  }
  return keys;
}

std::string OptionMap::str(const std::string& key,
                           const std::string& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  return it->second;
}

std::uint64_t OptionMap::u64(const std::string& key,
                             std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  const std::optional<std::uint64_t> value = parseU64(it->second);
  if (!value) badValue(key, it->second, "an unsigned integer");
  return *value;
}

unsigned OptionMap::uns(const std::string& key, unsigned fallback) const {
  const std::uint64_t value = u64(key, fallback);
  if (value > 0xFFFFFFFFull) {
    badValue(key, values_.at(key), "a 32-bit unsigned integer");
  }
  return static_cast<unsigned>(value);
}

double OptionMap::dbl(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  const std::optional<double> value = parseDouble(it->second);
  if (!value) badValue(key, it->second, "a number");
  return *value;
}

bool OptionMap::flag(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  const std::string& text = it->second;
  if (text == "true" || text == "1" || text == "on" || text == "yes") {
    return true;
  }
  if (text == "false" || text == "0" || text == "off" || text == "no") {
    return false;
  }
  badValue(key, text, "a boolean (true/false/1/0/on/off/yes/no)");
}

void OptionMap::requireConsumed(const std::string& context) const {
  std::string unknown;
  for (const auto& [key, value] : values_) {
    if (consumed_.count(key) != 0) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "'" + key + "'";
  }
  if (!unknown.empty()) {
    throw EngineError(context + ": unknown option(s) " + unknown);
  }
}

}  // namespace mcmcpar::engine
