#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "workload/arrival.h"

namespace flower::workload {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string Path(const char* name) {
    return ::testing::TempDir() + "/" + name;
  }
  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream f(path);
    f << content;
  }
};

TEST_F(TraceIoTest, RoundTrip) {
  TimeSeries ts;
  ts.AppendUnchecked(0.0, 100.0);
  ts.AppendUnchecked(60.0, 250.5);
  ts.AppendUnchecked(120.0, 90.25);
  std::string path = Path("roundtrip.csv");
  ASSERT_TRUE(SaveRateTraceCsv(ts, path).ok());
  auto loaded = LoadRateTraceCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_DOUBLE_EQ((*loaded)[1].time, 60.0);
  EXPECT_DOUBLE_EQ((*loaded)[1].value, 250.5);
  EXPECT_DOUBLE_EQ((*loaded)[2].value, 90.25);
}

TEST_F(TraceIoTest, HeaderAndBlankLinesSkipped) {
  std::string path = Path("header.csv");
  WriteFile(path, "time_sec,rate\n\n0,10\n30,20\n");
  auto loaded = LoadRateTraceCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
}

TEST_F(TraceIoTest, CrlfLineEndingsHandled) {
  std::string path = Path("crlf.csv");
  WriteFile(path, "0,10\r\n30,20\r\n");
  auto loaded = LoadRateTraceCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_DOUBLE_EQ((*loaded)[1].value, 20.0);
}

TEST_F(TraceIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadRateTraceCsv("/nonexistent/x.csv").status().code(),
            StatusCode::kNotFound);
}

TEST_F(TraceIoTest, MalformedRowsRejected) {
  std::string p1 = Path("bad1.csv");
  WriteFile(p1, "0,10\nnot-a-number,5\n");
  EXPECT_EQ(LoadRateTraceCsv(p1).status().code(),
            StatusCode::kInvalidArgument);
  std::string p2 = Path("bad2.csv");
  WriteFile(p2, "0,10\n5\n");
  EXPECT_EQ(LoadRateTraceCsv(p2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TraceIoTest, NonMonotonicTimesRejected) {
  std::string path = Path("nonmono.csv");
  WriteFile(path, "60,10\n0,20\n");
  EXPECT_EQ(LoadRateTraceCsv(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TraceIoTest, NonFiniteOrNegativeRowsRejectedByRow) {
  const struct {
    const char* name;
    const char* content;
  } cases[] = {
      {"rate_nan.csv", "time_sec,rate\n0,100\n60,nan\n"},
      {"rate_inf.csv", "time_sec,rate\n0,100\n60,inf\n"},
      {"rate_negative.csv", "time_sec,rate\n0,100\n60,-5\n"},
      {"time_nan.csv", "time_sec,rate\n0,100\nnan,10\n"},
      {"time_inf.csv", "time_sec,rate\n0,100\ninf,10\n"},
  };
  for (const auto& c : cases) {
    std::string path = Path(c.name);
    WriteFile(path, c.content);
    Status st = LoadRateTraceCsv(path).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(st.message().find("row 3"), std::string::npos)
        << c.name << ": " << st;
  }
}

TEST_F(TraceIoTest, HeaderOnlyIsFailedPrecondition) {
  std::string path = Path("empty.csv");
  WriteFile(path, "time_sec,rate\n");
  EXPECT_EQ(LoadRateTraceCsv(path).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(TraceIoTest, LoadedTraceDrivesTraceArrival) {
  std::string path = Path("drive.csv");
  WriteFile(path, "0,100\n600,400\n");
  auto loaded = LoadRateTraceCsv(path);
  ASSERT_TRUE(loaded.ok());
  TraceArrival arrival(*loaded);
  EXPECT_DOUBLE_EQ(arrival.RatePerSec(0.0), 100.0);
  EXPECT_DOUBLE_EQ(arrival.RatePerSec(700.0), 400.0);
}

}  // namespace
}  // namespace flower::workload
