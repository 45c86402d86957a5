#include "obs/exporters.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <unordered_map>

namespace flower::obs {

namespace internal {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// JSON has no NaN/Infinity literals; export them as null.
std::string JsonNum(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

std::string LabelsToJson(const LabelSet& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(k) + "\":\"" + JsonEscape(v) + '"';
  }
  out += '}';
  return out;
}

}  // namespace internal

namespace {

using internal::JsonEscape;
using internal::JsonNum;
using internal::LabelsToJson;

// Chrome-trace timestamps are microseconds; the trace timeline is the
// simulation clock, 1 sim second = 1 trace second.
double SimToTraceUs(SimTime t) { return t * 1e6; }

// OpenMetrics metric-name charset; every other byte maps to '_'.
std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (i > 0 && c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string SanitizeLabelName(const std::string& name) {
  std::string out = SanitizeMetricName(name);
  // Label names additionally may not contain ':'.
  for (char& c : out) {
    if (c == ':') c = '_';
  }
  return out;
}

// Label *values* keep arbitrary text, escaped per the exposition format.
std::string OpenMetricsEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// Rendered {label="value",...} block with an optional trailing `le`
// pair (histogram bucket rows); empty string for no labels and no le.
std::string OpenMetricsLabels(const LabelSet& labels,
                              const std::string& le = "") {
  if (labels.empty() && le.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += SanitizeLabelName(k);
    out += "=\"";
    out += OpenMetricsEscape(v);
    out += '"';
  }
  if (!le.empty()) {
    if (!first) out += ',';
    out += "le=\"";
    out += le;
    out += '"';
  }
  out += '}';
  return out;
}

std::string OpenMetricsNum(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

}  // namespace

void WriteDecisionJsonl(std::ostream& os, const DecisionLog& log) {
  for (size_t i = 0; i < log.size(); ++i) {
    const ControlDecisionRecord& r = log.at(i);
    const LoopInfo& loop = log.loop(r);
    os << "{\"type\":\"decision\",\"time\":" << JsonNum(r.time)
       << ",\"loop\":\"" << JsonEscape(loop.name) << "\",\"layer\":\""
       << JsonEscape(loop.layer) << "\",\"law\":\"" << JsonEscape(loop.law)
       << "\",\"sensed_y\":" << JsonNum(r.sensed_y)
       << ",\"reference\":" << JsonNum(r.reference)
       << ",\"error\":" << JsonNum(r.error) << ",\"gain\":" << JsonNum(r.gain)
       << ",\"raw_u\":" << JsonNum(r.raw_u)
       << ",\"clamped_u\":" << JsonNum(r.clamped_u) << ",\"stale\":"
       << (r.stale_sensor ? "true" : "false") << ",\"outcome\":\""
       << StepOutcomeToString(r.outcome)
       << "\",\"fault_mask\":" << static_cast<int>(r.fault_mask)
       << ",\"health_mask\":" << static_cast<int>(r.health_mask)
       << ",\"span_id\":" << r.span_id << "}\n";
  }
}

void WriteSnapshotJsonl(std::ostream& os, const MetricsSnapshot& snapshot,
                        SimTime at) {
  for (const CounterSample& c : snapshot.counters) {
    os << "{\"type\":\"counter\",\"time\":" << JsonNum(at) << ",\"name\":\""
       << JsonEscape(c.name) << "\",\"labels\":" << LabelsToJson(c.labels)
       << ",\"value\":" << c.value << "}\n";
  }
  for (const GaugeSample& g : snapshot.gauges) {
    os << "{\"type\":\"gauge\",\"time\":" << JsonNum(at) << ",\"name\":\""
       << JsonEscape(g.name) << "\",\"labels\":" << LabelsToJson(g.labels)
       << ",\"value\":" << JsonNum(g.value) << "}\n";
  }
  for (const HistogramSample& h : snapshot.histograms) {
    os << "{\"type\":\"histogram\",\"time\":" << JsonNum(at) << ",\"name\":\""
       << JsonEscape(h.name) << "\",\"labels\":" << LabelsToJson(h.labels)
       << ",\"count\":" << h.count << ",\"sum\":" << JsonNum(h.sum)
       << ",\"min\":" << JsonNum(h.min) << ",\"max\":" << JsonNum(h.max)
       << ",\"p50\":" << JsonNum(h.p50) << ",\"p99\":" << JsonNum(h.p99)
       << "}\n";
  }
}

void WriteSnapshotOpenMetrics(std::ostream& os,
                              const MetricsSnapshot& snapshot) {
  // Snapshot samples arrive sorted by (name, labels), so one family's
  // series are contiguous; a TYPE header is emitted whenever the
  // sanitized family name changes.
  std::string prev;
  for (const CounterSample& c : snapshot.counters) {
    std::string fam = SanitizeMetricName(c.name);
    if (fam != prev) {
      os << "# TYPE " << fam << " counter\n";
      prev = fam;
    }
    os << fam << "_total" << OpenMetricsLabels(c.labels) << ' ' << c.value
       << '\n';
  }
  prev.clear();
  for (const GaugeSample& g : snapshot.gauges) {
    std::string fam = SanitizeMetricName(g.name);
    if (fam != prev) {
      os << "# TYPE " << fam << " gauge\n";
      prev = fam;
    }
    os << fam << OpenMetricsLabels(g.labels) << ' ' << OpenMetricsNum(g.value)
       << '\n';
  }
  prev.clear();
  for (const HistogramSample& h : snapshot.histograms) {
    std::string fam = SanitizeMetricName(h.name);
    if (fam != prev) {
      os << "# TYPE " << fam << " histogram\n";
      prev = fam;
    }
    // Exposition buckets are cumulative; the registry's are disjoint.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      bool overflow = std::isinf(h.bounds[i]);
      os << fam << "_bucket"
         << OpenMetricsLabels(h.labels,
                              overflow ? "+Inf" : OpenMetricsNum(h.bounds[i]))
         << ' ' << cumulative << '\n';
    }
    os << fam << "_sum" << OpenMetricsLabels(h.labels) << ' '
       << OpenMetricsNum(h.sum) << '\n';
    os << fam << "_count" << OpenMetricsLabels(h.labels) << ' ' << h.count
       << '\n';
  }
  os << "# EOF\n";
}

void WriteChromeTrace(std::ostream& os, const SpanCollector& spans,
                      const DecisionLog& decisions) {
  std::unordered_map<SpanId, const ControlDecisionRecord*> by_span;
  by_span.reserve(decisions.size());
  for (size_t i = 0; i < decisions.size(); ++i) {
    const ControlDecisionRecord& d = decisions.at(i);
    if (d.span_id != 0) by_span[d.span_id] = &d;
  }
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_recorded\":"
     << spans.total_started() << ",\"spans_retained\":" << spans.size()
     << ",\"spans_evicted\":" << spans.evicted() << "},\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  // Process / thread-name metadata first so Perfetto labels the lanes:
  // the fleet pid, then one process group per registered scope.
  auto meta = [&](const char* what, int pid, int tid,
                  const std::string& name) {
    sep();
    os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << JsonEscape(name)
       << "\"}}";
  };
  meta("process_name", kTracePid, 0, "flower");
  for (const auto& [pid, name] : spans.process_names()) {
    meta("process_name", pid, 0, name);
  }
  for (const auto& [track, name] : spans.track_names()) {
    meta("thread_name", track.first, track.second, name);
  }
  // Opens one event on `r`'s lane at its start; the caller closes it.
  auto open = [&](const std::string& name, const char* cat, char ph,
                  const SpanRecord& r) {
    sep();
    os << "{\"name\":\"" << JsonEscape(name) << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"" << ph << "\",\"pid\":" << r.pid
       << ",\"tid\":" << r.tid << ",\"ts\":" << JsonNum(SimToTraceUs(r.start));
  };
  auto counter = [&](const SpanRecord& r, const char* suffix, double v) {
    if (!std::isfinite(v)) return;
    open(r.label + suffix, "counter", 'C', r);
    os << ",\"args\":{\"value\":" << JsonNum(v) << "}}";
  };
  // Flow-event ids must be unique per arrow; parent/child edges use
  // 2*child_id, follows-from edges 2*child_id+1.
  auto flow = [&](const SpanRecord& from, const SpanRecord& to,
                  const char* cat, uint64_t flow_id) {
    open(cat, cat, 's', from);
    os << ",\"id\":\"" << flow_id << "\"}";
    open(cat, cat, 'f', to);
    os << ",\"bp\":\"e\",\"id\":\"" << flow_id << "\"}";
  };
  for (SpanId id = spans.first_retained(); id != 0 && id < spans.end_id();
       ++id) {
    const SpanRecord* r = spans.Find(id);
    if (r == nullptr) continue;
    // Faults are instants; every other span is a slice of its
    // virtual-time duration.
    const bool instant = r->kind == SpanKind::kFault;
    open(SpanKindToString(r->kind), "span", instant ? 'i' : 'X', *r);
    if (instant) {
      os << ",\"s\":\"t\"";
    } else {
      os << ",\"dur\":" << JsonNum(SimToTraceUs(r->end - r->start));
    }
    os << ",\"args\":{\"id\":\"" << r->id << '"';
    if (r->parent != 0) os << ",\"parent\":\"" << r->parent << '"';
    if (r->follows != 0) os << ",\"follows\":\"" << r->follows << '"';
    os << ",\"label\":\"" << JsonEscape(r->label)
       << "\",\"value\":" << JsonNum(r->value) << ",\"outcome\":";
    if (r->kind == SpanKind::kDecide || r->kind == SpanKind::kActuate) {
      os << '"' << StepOutcomeToString(static_cast<StepOutcome>(r->outcome))
         << '"';
    } else {
      os << static_cast<int>(r->outcome);
    }
    auto joined = r->kind == SpanKind::kDecide ? by_span.find(r->id)
                                                : by_span.end();
    const ControlDecisionRecord* d =
        joined == by_span.end() ? nullptr : joined->second;
    if (d != nullptr) {
      os << ",\"y\":" << JsonNum(d->sensed_y)
         << ",\"y_r\":" << JsonNum(d->reference)
         << ",\"error\":" << JsonNum(d->error)
         << ",\"gain\":" << JsonNum(d->gain) << ",\"law\":\""
         << JsonEscape(decisions.loop(*d).law) << '"';
    }
    os << "}}";
    if (r->kind == SpanKind::kSense) counter(*r, ".y", r->value);
    if (r->kind == SpanKind::kDecide) counter(*r, ".u", r->value);
    if (d != nullptr) counter(*r, ".gain", d->gain);
    if (r->kind == SpanKind::kGeneration) counter(*r, ".front_size", r->value);
    if (const SpanRecord* p = spans.Find(r->parent)) {
      flow(*p, *r, "causal", 2 * r->id);
    }
    if (const SpanRecord* f = spans.Find(r->follows)) {
      flow(*f, *r, "follows", 2 * r->id + 1);
    }
  }
  os << "\n]}\n";
}

Status ExportToFile(const std::string& path,
                    const std::function<void(std::ostream&)>& writer) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("ExportToFile: cannot open '" + path +
                                   "' for writing");
  }
  writer(out);
  out.flush();
  if (!out) {
    return Status::Internal("ExportToFile: write to '" + path + "' failed");
  }
  return Status::OK();
}

}  // namespace flower::obs
