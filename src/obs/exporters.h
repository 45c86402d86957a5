#ifndef FLOWER_OBS_EXPORTERS_H_
#define FLOWER_OBS_EXPORTERS_H_

#include <functional>
#include <ostream>
#include <string>

#include "common/status.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace flower::obs {

/// Shared JSON formatting used by every JSONL sink in obs (exporters,
/// the health monitor). Not a stable public API.
namespace internal {
std::string JsonEscape(const std::string& s);
/// JSON has no NaN/Infinity literals; they render as null.
std::string JsonNum(double v);
std::string LabelsToJson(const LabelSet& labels);
}  // namespace internal

/// JSON-lines sink: one {"type":"decision",...} object per retained
/// record, oldest first.
void WriteDecisionJsonl(std::ostream& os, const DecisionLog& log);

/// JSON-lines sink: one {"type":"counter"|"gauge"|"histogram",...}
/// object per line, all stamped with `at` (sim seconds).
void WriteSnapshotJsonl(std::ostream& os, const MetricsSnapshot& snapshot,
                        SimTime at);

/// OpenMetrics / Prometheus text exposition of a metrics snapshot:
/// a `# TYPE` header per family, counters suffixed `_total`, histograms
/// as cumulative `_bucket{le="..."}` series plus `_sum`/`_count`, and a
/// terminating `# EOF`. Instrument names are sanitized to the metric
/// charset ([a-zA-Z0-9_:]; every other byte becomes '_'), so
/// "loop.sensed_y" exports as "loop_sensed_y". Label values escape
/// `\`, `"`, and newline, per the exposition format. Scrape-compatible
/// with Prometheus and lintable by tools/check_openmetrics.py.
void WriteSnapshotOpenMetrics(std::ostream& os,
                              const MetricsSnapshot& snapshot);

/// Chrome trace_event JSON (object format), loadable in Perfetto or
/// chrome://tracing, rendered from the causal spans: an `otherData`
/// header with the span totals (recorded, retained, evicted), then
/// process/thread-name `M` metadata for the fleet pid, every registered
/// scope and every named track, then for each retained span, oldest
/// first:
///  - an 'X' slice named after its kind (kFault: an 'i' instant), with
///    args id/parent/follows/label/value/outcome. Decide slices also
///    carry y, y_r, error, gain and law from the decision record whose
///    span_id matches;
///  - 'C' counters: <loop>.y from sense spans, <loop>.u and
///    <loop>.gain from decide spans, <planner>.front_size from
///    generation spans;
///  - 's'/'f' flow arrows from its parent (cat "causal") and from its
///    follows-from predecessor (cat "follows").
/// Span and flow ids are written as decimal strings, so readers that
/// parse JSON numbers as doubles (JavaScript viewers) get them back
/// exactly at any id offset; the decision JSONL's span_id field carries
/// the same digits.
void WriteChromeTrace(std::ostream& os, const SpanCollector& spans,
                      const DecisionLog& decisions);

/// Opens `path` for writing and runs `writer(stream)`; IO errors become
/// a non-OK Status.
Status ExportToFile(const std::string& path,
                    const std::function<void(std::ostream&)>& writer);

}  // namespace flower::obs

#endif  // FLOWER_OBS_EXPORTERS_H_
