#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcmcpar::engine {

/// Every façade failure (unknown strategy, malformed or unknown option,
/// out-of-range value, protocol misuse) surfaces as this exception with a
/// message naming the strategy/option/value involved.
class EngineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strict number parsing: the one parser behind OptionMap, socket job ids
/// and every command-line flag. The whole of `text` must convert — no
/// sign on an unsigned, no whitespace, no trailing bytes, no overflow, and
/// a double must be finite. nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parseU64(
    std::string_view text) noexcept;
[[nodiscard]] std::optional<double> parseDouble(std::string_view text) noexcept;

/// The same for the value of a command-line flag: throws EngineError
/// "<flag>: expected ..., got '<text>'" when `text` does not parse or lies
/// outside [min, max].
[[nodiscard]] std::uint64_t flagU64(
    std::string_view flag, std::string_view text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
[[nodiscard]] double flagDouble(
    std::string_view flag, std::string_view text,
    double min = std::numeric_limits<double>::lowest());

/// Strategy options parsed from `key=value` strings (the registry's uniform
/// configuration channel: CLI flags, config files and server requests all
/// funnel through it).
///
/// Typed getters record which keys were read; `requireConsumed()` then turns
/// leftovers into a descriptive EngineError, so a typo like `lanes=4` against
/// the serial strategy fails loudly instead of being silently ignored.
class OptionMap {
 public:
  OptionMap() = default;

  /// Parse `key=value` pairs. Throws EngineError on entries without '=',
  /// with an empty key, or with a duplicated key.
  [[nodiscard]] static OptionMap parse(const std::vector<std::string>& pairs);

  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  /// Stored keys starting with `prefix`, in lexicographic order. Listing
  /// does not mark them consumed — read each through a typed getter.
  [[nodiscard]] std::vector<std::string> keysWithPrefix(
      const std::string& prefix) const;

  /// Typed access with defaults; all throw EngineError when the stored
  /// value does not parse as the requested type.
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const;
  [[nodiscard]] unsigned uns(const std::string& key, unsigned fallback) const;
  [[nodiscard]] double dbl(const std::string& key, double fallback) const;
  [[nodiscard]] bool flag(const std::string& key, bool fallback) const;

  /// Throws EngineError listing keys never read by any getter — i.e. options
  /// the strategy named `context` does not understand.
  void requireConsumed(const std::string& context) const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace mcmcpar::engine
