#ifndef FLOWER_COMMON_PARSE_H_
#define FLOWER_COMMON_PARSE_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"

namespace flower {

// The one rule for reading a value from text that comes from outside
// the program: command-line flags, rate-trace cells, partition specs
// and capture bundles. Each function reads the whole text, with
// nothing before or after the value (no blank), and returns
// InvalidArgument otherwise; callers replace the error with one that
// names their field.

/// One floating-point number as the C library reads it (decimal or
/// hexadecimal, "inf" or "nan"). "1e400" reads as inf: whether a value
/// must be finite is the caller's check.
Result<double> ParseDouble(std::string_view text);

/// Decimal digits only (no sign), at most `max`.
Result<uint64_t> ParseUnsigned(std::string_view text, uint64_t max);

/// "true" or "1", "false" or "0".
Result<bool> ParseBool(std::string_view text);

}  // namespace flower

#endif  // FLOWER_COMMON_PARSE_H_
