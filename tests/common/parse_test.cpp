#include "common/parse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>

namespace flower {
namespace {

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

TEST(ParseTest, DoubleTakesOneStrtodNumberAndNothingElse) {
  const struct {
    std::string_view text;
    bool ok;
    double value;
  } cases[] = {
      {"0", true, 0.0},
      {"800.5", true, 800.5},
      {"-3", true, -3.0},
      {"+7", true, 7.0},
      {"1e-9", true, 1e-9},
      {"0.23695682625001072", true, 0.23695682625001072},
      {"inf", true, HUGE_VAL},
      {"1e400", true, HUGE_VAL},  // Out of range reads as inf.
      {"", false, 0.0},
      {" 1", false, 0.0},
      {"1 ", false, 0.0},
      {"\t1", false, 0.0},
      {"1\n", false, 0.0},
      {"4x", false, 0.0},
      {"fast", false, 0.0},
      {"1,5", false, 0.0},
      {"--1", false, 0.0},
  };
  for (const auto& c : cases) {
    Result<double> parsed = ParseDouble(c.text);
    ASSERT_EQ(parsed.ok(), c.ok) << "'" << c.text << "'";
    if (c.ok) {
      EXPECT_EQ(*parsed, c.value) << "'" << c.text << "'";
    } else {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // NaN reads, and fails every comparison a caller writes.
  Result<double> nan = ParseDouble("nan");
  ASSERT_TRUE(nan.ok());
  EXPECT_TRUE(std::isnan(*nan));
  // A view stops where it says, whatever follows it in memory.
  const std::string text = "12345";
  EXPECT_EQ(*ParseDouble(std::string_view(text).substr(0, 2)), 12.0);
}

TEST(ParseTest, UnsignedIsDigitsOnlyUpToMax) {
  const struct {
    std::string_view text;
    uint64_t max;
    bool ok;
    uint64_t value;
  } cases[] = {
      {"0", kU64Max, true, 0},
      {"42", kU64Max, true, 42},
      {"007", kU64Max, true, 7},
      {"18446744073709551615", kU64Max, true, kU64Max},
      {"18446744073709551616", kU64Max, false, 0},    // max + 1
      {"123456789012345678901", kU64Max, false, 0},   // 21 digits
      {"256", 256, true, 256},
      {"257", 256, false, 0},
      {"2147483647", 2147483647, true, 2147483647},
      {"2147483648", 2147483647, false, 0},
      {"1", 0, false, 0},
      {"0", 0, true, 0},
      {"", kU64Max, false, 0},
      {" 2", kU64Max, false, 0},
      {"2 ", kU64Max, false, 0},
      {"+7", kU64Max, false, 0},
      {"-1", kU64Max, false, 0},
      {"-0", kU64Max, false, 0},
      {"1e3", kU64Max, false, 0},
      {"1.0", kU64Max, false, 0},
      {"0x10", kU64Max, false, 0},
      {"nan", kU64Max, false, 0},
  };
  for (const auto& c : cases) {
    Result<uint64_t> parsed = ParseUnsigned(c.text, c.max);
    ASSERT_EQ(parsed.ok(), c.ok) << "'" << c.text << "' max " << c.max;
    if (c.ok) {
      EXPECT_EQ(*parsed, c.value) << "'" << c.text << "'";
    } else {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ParseTest, BoolIsTrueFalseOneOrZero) {
  const struct {
    std::string_view text;
    bool ok;
    bool value;
  } cases[] = {
      {"true", true, true},   {"1", true, true},     {"false", true, false},
      {"0", true, false},     {"", false, false},    {"no", false, false},
      {"off", false, false},  {"yes", false, false}, {"TRUE", false, false},
      {" true", false, false}, {"true ", false, false}, {"2", false, false},
  };
  for (const auto& c : cases) {
    Result<bool> parsed = ParseBool(c.text);
    ASSERT_EQ(parsed.ok(), c.ok) << "'" << c.text << "'";
    if (c.ok) {
      EXPECT_EQ(*parsed, c.value) << "'" << c.text << "'";
    }
  }
}

}  // namespace
}  // namespace flower
