#include "tools/flag_parser.h"

#include <algorithm>

#include "common/parse.h"

namespace flower::tools {

Result<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      return Status::InvalidArgument("unexpected argument: '" + arg +
                                     "' (flags are --key=value)");
    }
    std::string body = arg.substr(2);
    std::string key = body, value = "true";
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      key = body.substr(0, eq);
      value = body.substr(eq + 1);
    }
    if (parser.flags_.count(key) > 0) {
      return Status::InvalidArgument("duplicate flag: --" + key);
    }
    parser.flags_[key] = value;
  }
  return parser;
}

Status FlagParser::CheckKnown(const std::vector<std::string>& options,
                              const std::vector<std::string>& switches) const {
  auto listed = [](const std::vector<std::string>& keys,
                   const std::string& key) {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  };
  for (const auto& [key, value] : flags_) {
    const bool is_switch = listed(switches, key);
    if (!is_switch && !listed(options, key)) {
      return Status::InvalidArgument("unknown flag: --" + key);
    }
    if (is_switch && !ParseBool(value).ok()) {
      return Status::InvalidArgument("--" + key +
                                     " expects true, false, 1 or 0, got '" +
                                     value + "'");
    }
  }
  return Status::OK();
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

Result<double> FlagParser::GetDouble(const std::string& key,
                                     double fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  Result<double> value = ParseDouble(it->second);
  if (!value.ok()) {
    return Status::InvalidArgument("--" + key + " expects a number, got '" +
                                   it->second + "'");
  }
  return value;
}

Result<uint64_t> FlagParser::GetUnsigned(const std::string& key,
                                         uint64_t fallback,
                                         uint64_t max) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  Result<uint64_t> value = ParseUnsigned(it->second, max);
  if (!value.ok()) {
    return Status::InvalidArgument("--" + key + " expects an integer in [0, " +
                                   std::to_string(max) + "], got '" +
                                   it->second + "'");
  }
  return value;
}

bool FlagParser::GetBool(const std::string& key, bool fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : ParseBool(it->second).ValueOr(true);
}

}  // namespace flower::tools
