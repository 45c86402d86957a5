#include "common/parse.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string>

namespace flower {

Result<double> ParseDouble(std::string_view text) {
  // strtod reads up to a NUL, so the text is copied to terminate it,
  // and skips leading blanks, so the first byte is checked here.
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || std::isspace(static_cast<unsigned char>(copy[0])) ||
      end != copy.c_str() + copy.size()) {
    return Status::InvalidArgument("not a number");
  }
  return value;
}

Result<uint64_t> ParseUnsigned(std::string_view text, uint64_t max) {
  // from_chars takes no blank and, for an unsigned type, no sign, and
  // refuses a value past 2^64 - 1.
  uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last || value > max) {
    return Status::InvalidArgument("not an unsigned integer in range");
  }
  return value;
}

Result<bool> ParseBool(std::string_view text) {
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  return Status::InvalidArgument("not true, false, 1 or 0");
}

}  // namespace flower
