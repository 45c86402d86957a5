#include "workload/trace_io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/csv.h"
#include "common/parse.h"

namespace flower::workload {

namespace {

/// A cell's number: blanks around it are trimmed (a trace written
/// "0, 10" loads), then ParseDouble reads the rest.
Result<double> ParseCell(std::string_view cell) {
  constexpr std::string_view kBlanks = " \t\n\v\f\r";
  const size_t first = cell.find_first_not_of(kBlanks);
  if (first == std::string_view::npos) return ParseDouble("");
  return ParseDouble(
      cell.substr(first, cell.find_last_not_of(kBlanks) - first + 1));
}

}  // namespace

Result<TimeSeries> LoadRateTraceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("LoadRateTraceCsv: cannot open " + path);
  }
  TimeSeries out;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream ls(line);
    std::string t_str, v_str;
    if (!std::getline(ls, t_str, ',') || !std::getline(ls, v_str)) {
      return Status::InvalidArgument("LoadRateTraceCsv: malformed row " +
                                     std::to_string(line_no));
    }
    Result<double> t = ParseCell(t_str), v = ParseCell(v_str);
    if (!t.ok() || !v.ok()) {
      if (line_no == 1) continue;  // Header row.
      return Status::InvalidArgument("LoadRateTraceCsv: non-numeric row " +
                                     std::to_string(line_no));
    }
    // A NaN or negative rate means nothing to the record generator, and
    // a NaN or infinite time is never reached.
    if (!std::isfinite(*t) || !std::isfinite(*v) || *v < 0.0) {
      return Status::InvalidArgument(
          "LoadRateTraceCsv: row " + std::to_string(line_no) +
          " needs a finite time and a finite rate >= 0");
    }
    Status st = out.Append(*t, *v);
    if (!st.ok()) {
      return Status::InvalidArgument(
          "LoadRateTraceCsv: non-monotonic time at row " +
          std::to_string(line_no));
    }
  }
  if (out.empty()) {
    return Status::FailedPrecondition("LoadRateTraceCsv: no data rows in " +
                                      path);
  }
  return out;
}

Status SaveRateTraceCsv(const TimeSeries& series, const std::string& path) {
  std::ofstream outf(path);
  if (!outf) {
    return Status::InvalidArgument("SaveRateTraceCsv: cannot write " + path);
  }
  CsvWriter csv(&outf);
  csv.WriteRow({"time_sec", "rate"});
  for (const Sample& s : series.samples()) {
    csv.WriteNumericRow({s.time, s.value});
  }
  return Status::OK();
}

}  // namespace flower::workload
