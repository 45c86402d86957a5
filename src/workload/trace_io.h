#ifndef FLOWER_WORKLOAD_TRACE_IO_H_
#define FLOWER_WORKLOAD_TRACE_IO_H_

#include <string>

#include "common/result.h"
#include "common/time_series.h"

namespace flower::workload {

/// Loads a rate trace from a CSV file with rows `time_sec,rate` (an
/// optional non-numeric header row is skipped; blank lines ignored).
/// Rows must be in non-decreasing time order. Errors: unreadable file,
/// malformed rows, a non-finite time, a non-finite or negative rate,
/// non-monotonic times, or no data rows.
Result<TimeSeries> LoadRateTraceCsv(const std::string& path);

/// Writes a series as `time_sec,rate` CSV (with a header). Errors:
/// unwritable path.
Status SaveRateTraceCsv(const TimeSeries& series, const std::string& path);

}  // namespace flower::workload

#endif  // FLOWER_WORKLOAD_TRACE_IO_H_
