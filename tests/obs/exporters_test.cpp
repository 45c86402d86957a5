#include "obs/exporters.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace flower::obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

ControlDecisionRecord SampleRecord() {
  ControlDecisionRecord r;
  r.time = 120.0;
  r.sensed_y = 78.5;
  r.reference = 60.0;
  r.error = 18.5;
  r.gain = 0.115;
  r.raw_u = 5.13;
  r.clamped_u = 5.0;
  r.stale_sensor = true;
  r.outcome = StepOutcome::kActuated;
  r.fault_mask = 4;
  r.health_mask = 3;
  r.span_id = 42;
  return r;
}

/// A log whose loop 0 is the "analytics" adaptive-gain loop, holding
/// `records` oldest first.
DecisionLog LogOf(std::initializer_list<ControlDecisionRecord> records) {
  DecisionLog log;
  EXPECT_TRUE(
      log.loops().Register({"analytics", "analytics", "adaptive-gain"}).ok());
  for (const ControlDecisionRecord& r : records) log.Append(r);
  return log;
}

TEST(DecisionJsonlTest, OneObjectPerLine) {
  std::ostringstream os;
  WriteDecisionJsonl(os, LogOf({SampleRecord(), SampleRecord()}));
  auto lines = Lines(os.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"decision\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"loop\":\"analytics\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"gain\":0.115"), std::string::npos);
  EXPECT_NE(lines[0].find("\"stale\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"outcome\":\"actuated\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"fault_mask\":4"), std::string::npos);
  EXPECT_NE(lines[0].find("\"health_mask\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"span_id\":42"), std::string::npos);
}

TEST(DecisionJsonlTest, NanBecomesNull) {
  ControlDecisionRecord r = SampleRecord();
  r.gain = std::numeric_limits<double>::quiet_NaN();
  std::ostringstream os;
  WriteDecisionJsonl(os, LogOf({r}));
  EXPECT_NE(os.str().find("\"gain\":null"), std::string::npos);
}

TEST(SnapshotSinksTest, CoverAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("steps", {{"loop", "analytics"}})->Increment(3);
  registry.GetGauge("gain")->Set(0.25);
  registry.GetHistogram("lat")->Record(2.0);
  MetricsSnapshot snap = registry.Snapshot();

  std::ostringstream jsonl;
  WriteSnapshotJsonl(jsonl, snap, 3600.0);
  auto json_lines = Lines(jsonl.str());
  ASSERT_EQ(json_lines.size(), 3u);  // One per instrument.
  EXPECT_EQ(json_lines[0],
            "{\"type\":\"counter\",\"time\":3600,\"name\":\"steps\","
            "\"labels\":{\"loop\":\"analytics\"},\"value\":3}");
  EXPECT_EQ(json_lines[1],
            "{\"type\":\"gauge\",\"time\":3600,\"name\":\"gain\","
            "\"labels\":{},\"value\":0.25}");
  EXPECT_NE(json_lines[2].find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json_lines[2].find("\"count\":1"), std::string::npos);
}

TEST(OpenMetricsTest, FamiliesSuffixesAndEof) {
  MetricsRegistry registry;
  registry.GetCounter("loop.steps", {{"loop", "analytics"}})->Increment(3);
  registry.GetCounter("loop.steps", {{"loop", "ingestion"}})->Increment(1);
  registry.GetGauge("slo.burn_fast", {{"slo", "flow/latency"}})->Set(2.5);
  Histogram* h = registry.GetHistogram("lat");
  h->Record(2.0);
  h->Record(4.0);

  std::ostringstream os;
  WriteSnapshotOpenMetrics(os, registry.Snapshot());
  const std::string text = os.str();
  auto lines = Lines(text);

  // Dots sanitize to underscores; counters get _total; one TYPE line per
  // family even with several label sets.
  EXPECT_NE(text.find("# TYPE loop_steps counter"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE loop_steps counter"),
            text.rfind("# TYPE loop_steps counter"));
  EXPECT_NE(text.find("loop_steps_total{loop=\"analytics\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("loop_steps_total{loop=\"ingestion\"} 1"),
            std::string::npos);
  // Label values keep their raw characters (only name chars sanitize).
  EXPECT_NE(text.find("slo_burn_fast{slo=\"flow/latency\"} 2.5"),
            std::string::npos);
  // Histogram: cumulative buckets ending at le="+Inf" == _count.
  EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 6"), std::string::npos);
  EXPECT_NE(text.find("lat_count 2"), std::string::npos);
  size_t inf_bucket = text.find("lat_bucket{le=\"+Inf\"}");
  size_t first_bucket = text.find("lat_bucket{");
  EXPECT_LT(first_bucket, inf_bucket);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "# EOF");
}

TEST(OpenMetricsTest, EscapesLabelValuesAndHelpText) {
  MetricsRegistry registry;
  registry
      .GetCounter("reqs", {{"path", "c:\\tmp\n\"quoted\""}})
      ->Increment();

  std::ostringstream os;
  WriteSnapshotOpenMetrics(os, registry.Snapshot());
  const std::string text = os.str();

  // Label values: backslash, double quote, and newline are escaped, in
  // that raw byte order.
  EXPECT_NE(text.find("path=\"c:\\\\tmp\\n\\\"quoted\\\"\""),
            std::string::npos)
      << text;
  // The registry carries no HELP text, so none is exported.
  EXPECT_EQ(text.find("# HELP"), std::string::npos) << text;
  // No raw newline leaked mid-line: every line is a comment, a sample,
  // or EOF.
  for (const std::string& line : Lines(text)) {
    EXPECT_TRUE(!line.empty());
    EXPECT_EQ(line.find('\r'), std::string::npos);
  }
}

// One control step, end to end: a span evicted from a 5-slot ring, a
// sense, its decide (joined to the decision record), a failed
// actuation and its retry (causal + follows arrows), a fault instant
// and a planner generation with a label that needs escaping.
TEST(ChromeTraceTest, WrapperMetadataAndPhases) {
  SpanCollector spans(5);
  spans.set_enabled(true);
  EXPECT_EQ(spans.RegisterScope("flow \"x\""), 2);
  spans.SetTrackName(kTracePid, 1, "loop:analytics");
  spans.SetTrackName(kTracePid, kFaultInjectorTid, "fault-injector");
  spans.Emit(SpanKind::kPlan, "old", 0.0, 0.0, kTracePid, 0);
  SpanId sense = spans.Emit(SpanKind::kSense, "analytics", 120.0, 0.0,
                            kTracePid, 1, 0, 0, 78.5);
  SpanId decide = spans.Emit(
      SpanKind::kDecide, "analytics", 120.0, 0.0, kTracePid, 1, sense, 0,
      5.0, static_cast<uint8_t>(StepOutcome::kActuationFailed));
  SpanId failed = spans.Emit(
      SpanKind::kActuate, "analytics", 120.0, 0.0, kTracePid, 1, decide, 0,
      5.0, static_cast<uint8_t>(StepOutcome::kActuationFailed));
  spans.Emit(SpanKind::kActuate, "analytics", 122.5, 0.0, kTracePid, 1,
             decide, failed, 5.0);
  spans.Emit(SpanKind::kFault, "sensor-spike:analytics", 120.0, 0.0,
             kTracePid, kFaultInjectorTid);
  ASSERT_EQ(decide, 3u);

  ControlDecisionRecord rec = SampleRecord();
  rec.span_id = decide;
  std::ostringstream os;
  WriteChromeTrace(os, spans, LogOf({rec}));

  const std::string expected =
      R"({"displayTimeUnit":"ms","otherData":{"spans_recorded":6,)"
      R"("spans_retained":5,"spans_evicted":1},"traceEvents":[)"
      "\n"
      R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
      R"("args":{"name":"flower"}},)"
      "\n"
      R"({"name":"process_name","ph":"M","pid":2,"tid":0,)"
      R"("args":{"name":"flow \"x\""}},)"
      "\n"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
      R"("args":{"name":"loop:analytics"}},)"
      "\n"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":99,)"
      R"("args":{"name":"fault-injector"}},)"
      "\n"
      R"({"name":"sense","cat":"span","ph":"X","pid":1,"tid":1,)"
      R"("ts":120000000,"dur":0,"args":{"id":"2","label":"analytics",)"
      R"("value":78.5,"outcome":0}},)"
      "\n"
      R"({"name":"analytics.y","cat":"counter","ph":"C","pid":1,"tid":1,)"
      R"("ts":120000000,"args":{"value":78.5}},)"
      "\n"
      R"({"name":"decide","cat":"span","ph":"X","pid":1,"tid":1,)"
      R"("ts":120000000,"dur":0,"args":{"id":"3","parent":"2",)"
      R"("label":"analytics","value":5,"outcome":"actuation-failed",)"
      R"("y":78.5,"y_r":60,"error":18.5,"gain":0.115,)"
      R"("law":"adaptive-gain"}},)"
      "\n"
      R"({"name":"analytics.u","cat":"counter","ph":"C","pid":1,"tid":1,)"
      R"("ts":120000000,"args":{"value":5}},)"
      "\n"
      R"({"name":"analytics.gain","cat":"counter","ph":"C","pid":1,)"
      R"("tid":1,"ts":120000000,"args":{"value":0.115}},)"
      "\n"
      R"({"name":"causal","cat":"causal","ph":"s","pid":1,"tid":1,)"
      R"("ts":120000000,"id":"6"},)"
      "\n"
      R"({"name":"causal","cat":"causal","ph":"f","pid":1,"tid":1,)"
      R"("ts":120000000,"bp":"e","id":"6"},)"
      "\n"
      R"({"name":"actuate","cat":"span","ph":"X","pid":1,"tid":1,)"
      R"("ts":120000000,"dur":0,"args":{"id":"4","parent":"3",)"
      R"("label":"analytics","value":5,"outcome":"actuation-failed"}},)"
      "\n"
      R"({"name":"causal","cat":"causal","ph":"s","pid":1,"tid":1,)"
      R"("ts":120000000,"id":"8"},)"
      "\n"
      R"({"name":"causal","cat":"causal","ph":"f","pid":1,"tid":1,)"
      R"("ts":120000000,"bp":"e","id":"8"},)"
      "\n"
      R"({"name":"actuate","cat":"span","ph":"X","pid":1,"tid":1,)"
      R"("ts":122500000,"dur":0,"args":{"id":"5","parent":"3",)"
      R"("follows":"4","label":"analytics","value":5,)"
      R"("outcome":"actuated"}},)"
      "\n"
      R"({"name":"causal","cat":"causal","ph":"s","pid":1,"tid":1,)"
      R"("ts":120000000,"id":"10"},)"
      "\n"
      R"({"name":"causal","cat":"causal","ph":"f","pid":1,"tid":1,)"
      R"("ts":122500000,"bp":"e","id":"10"},)"
      "\n"
      R"({"name":"follows","cat":"follows","ph":"s","pid":1,"tid":1,)"
      R"("ts":120000000,"id":"11"},)"
      "\n"
      R"({"name":"follows","cat":"follows","ph":"f","pid":1,"tid":1,)"
      R"("ts":122500000,"bp":"e","id":"11"},)"
      "\n"
      R"({"name":"fault","cat":"span","ph":"i","pid":1,"tid":99,)"
      R"("ts":120000000,"s":"t","args":{"id":"6",)"
      R"("label":"sensor-spike:analytics","value":0,"outcome":0}})"
      "\n]}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(ChromeTraceTest, EscapesStrings) {
  SpanCollector spans;
  spans.set_enabled(true);
  spans.SetTrackName(kTracePid, kPlannerTid, "planner:a\"b\\c\nd");
  spans.Emit(SpanKind::kGeneration, "a\"b\\c\nd", 0.0, 0.25, kTracePid,
             kPlannerTid, 0, 0, 3.0);
  std::ostringstream os;
  WriteChromeTrace(os, spans, DecisionLog());
  const std::string text = os.str();
  EXPECT_NE(text.find(R"("args":{"name":"planner:a\"b\\c\nd"})"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(R"("label":"a\"b\\c\nd")"), std::string::npos);
  // The generation's front size renders as a counter named after the
  // (escaped) planner label.
  EXPECT_NE(text.find(R"("name":"a\"b\\c\nd.front_size")"),
            std::string::npos);
  // No raw newline leaked: every event line opens an object.
  std::vector<std::string> lines = Lines(text);
  for (size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].front(), '{') << lines[i];
  }
}

TEST(ExportToFileTest, WritesAndReportsErrors) {
  const std::string path = ::testing::TempDir() + "/obs_export_test.txt";
  Status ok = ExportToFile(path, [](std::ostream& os) { os << "hello"; });
  ASSERT_TRUE(ok.ok()) << ok;
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "hello");
  std::remove(path.c_str());

  Status bad = ExportToFile("/nonexistent-dir/x/y.json",
                            [](std::ostream& os) { os << "x"; });
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace flower::obs
