#ifndef FLOWER_TOOLS_FLAG_PARSER_H_
#define FLOWER_TOOLS_FLAG_PARSER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace flower::tools {

/// Bound of a count flag with no limit of its own (`--seeds`): the
/// int64_t range.
inline constexpr uint64_t kMaxCountFlag = std::numeric_limits<int64_t>::max();

/// Bound of a tenant count (`flower-sim --fleet-tenants`,
/// `fleet_scale --flows`): ten times a 100,000-tenant fleet. A larger
/// count is refused as a flag instead of failing to allocate; whether
/// a fleet below it fits in memory is not checked.
inline constexpr uint64_t kMaxTenantsFlag = 1'000'000;

/// Minimal `--key=value` / `--flag` command-line parser for the CLI
/// tools (no external dependencies). Values are read by
/// common/parse.h's rules.
class FlagParser {
 public:
  /// Parses argv. Errors: arguments not starting with `--`, or
  /// duplicate keys.
  static Result<FlagParser> Parse(int argc, const char* const* argv);

  bool Has(const std::string& key) const { return flags_.count(key) > 0; }

  /// OK when every flag given is one of `options` (flags that take a
  /// value) or `switches`, and every switch given a value has one
  /// ParseBool accepts. Otherwise InvalidArgument naming the first flag
  /// that is not ("unknown flag: --tpyo"). Programs call it before
  /// reading any flag.
  Status CheckKnown(const std::vector<std::string>& options,
                    const std::vector<std::string>& switches) const;

  /// Typed getters with defaults; errors when present but unparsable.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  Result<double> GetDouble(const std::string& key, double fallback) const;
  /// Decimal digits only, at most `max`.
  Result<uint64_t> GetUnsigned(const std::string& key, uint64_t fallback,
                               uint64_t max) const;
  /// A switch: true when given bare, else its value as CheckKnown
  /// checked it.
  bool GetBool(const std::string& key, bool fallback = false) const;

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace flower::tools

#endif  // FLOWER_TOOLS_FLAG_PARSER_H_
