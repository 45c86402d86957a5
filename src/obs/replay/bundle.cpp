#include "obs/replay/bundle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/parse.h"
#include "obs/exporters.h"

namespace flower::obs::replay {

namespace {

// ---------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------

/// Doubles with full round-trip precision; JSON has no non-finite
/// literals, so those are encoded as tagged strings the loader accepts.
std::string Num(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// 64-bit values as decimal strings: a JSON number is a double and
/// silently loses bits above 2^53 (seeds and hashes exceed that
/// routinely).
std::string U64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%llu\"",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Str(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += internal::JsonEscape(s);
  out += '"';
  return out;
}

void WriteBundle(std::ostream& os, const CaptureBundle& b) {
  os << "{\n";
  os << " \"schema_version\": " << b.schema_version << ",\n";
  os << " \"tenant_id\": " << Str(b.tenant_id) << ",\n";
  os << " \"tenant_index\": " << b.tenant_index << ",\n";
  os << " \"seed\": " << U64(b.seed) << ",\n";
  os << " \"fingerprint\": " << U64(b.fingerprint) << ",\n";
  os << " \"window_start\": " << Num(b.window_start) << ",\n";
  os << " \"trigger\": {\"fired\": " << (b.trigger.fired ? "true" : "false")
     << ", \"time\": " << Num(b.trigger.time)
     << ", \"reason\": " << Str(b.trigger.reason)
     << ", \"span_id\": " << U64(b.trigger.span_id)
     << ", \"burn_fast\": " << Num(b.trigger.burn_fast)
     << ", \"burn_slow\": " << Num(b.trigger.burn_slow) << "},\n";
  os << " \"recorder\": {\"decision_capacity\": " << b.recorder.decision_capacity
     << ", \"grant_capacity\": " << b.recorder.grant_capacity
     << ", \"replan_capacity\": " << b.recorder.replan_capacity
     << ", \"checkpoint_every\": " << b.recorder.checkpoint_every
     << ", \"checkpoint_capacity\": " << b.recorder.checkpoint_capacity
     << "},\n";
  os << " \"chain_hash\": " << U64(b.chain_hash) << ",\n";
  os << " \"total_decisions\": " << b.total_decisions << ",\n";

  os << " \"spec\": [";
  for (size_t i = 0; i < b.spec.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n  {\"k\": " << Str(b.spec[i].first)
       << ", \"v\": " << Str(b.spec[i].second) << "}";
  }
  os << "\n ],\n";

  os << " \"faults\": [";
  for (size_t i = 0; i < b.faults.size(); ++i) {
    const RecordedFault& f = b.faults[i];
    if (i > 0) os << ",";
    os << "\n  {\"kind\": " << Str(f.kind) << ", \"target\": " << Str(f.target)
       << ", \"start\": " << Num(f.start) << ", \"end\": " << Num(f.end)
       << ", \"probability\": " << Num(f.probability)
       << ", \"delay_sec\": " << Num(f.delay_sec)
       << ", \"factor\": " << Num(f.factor)
       << ", \"offset\": " << Num(f.offset) << "}";
  }
  os << "\n ],\n";

  os << " \"grants\": [";
  for (size_t i = 0; i < b.grants.size(); ++i) {
    const GrantEntry& g = b.grants[i];
    if (i > 0) os << ",";
    os << "\n  {\"index\": " << g.index << ", \"time\": " << Num(g.time)
       << ", \"demand_usd\": " << Num(g.demand_usd)
       << ", \"grant_usd\": " << Num(g.grant_usd) << "}";
  }
  os << "\n ],\n";

  os << " \"replans\": [";
  for (size_t i = 0; i < b.replans.size(); ++i) {
    const ReplanEntry& r = b.replans[i];
    if (i > 0) os << ",";
    os << "\n  {\"index\": " << r.index << ", \"time\": " << Num(r.time)
       << ", \"budget_usd\": " << Num(r.budget_usd) << ", \"shares\": [";
    for (int j = 0; j < r.num_shares; ++j) {
      if (j > 0) os << ", ";
      os << Num(r.shares[j]);
    }
    os << "], \"applied\": " << (r.applied ? "true" : "false") << "}";
  }
  os << "\n ],\n";

  os << " \"checkpoints\": [";
  for (size_t i = 0; i < b.checkpoints.size(); ++i) {
    const HashCheckpoint& c = b.checkpoints[i];
    if (i > 0) os << ",";
    os << "\n  {\"index\": " << c.index << ", \"time\": " << Num(c.time)
       << ", \"chain\": " << U64(c.chain) << "}";
  }
  os << "\n ],\n";

  os << " \"decisions\": [";
  for (size_t i = 0; i < b.decisions.size(); ++i) {
    const RecordedDecision& d = b.decisions[i];
    const ControlDecisionRecord& r = d.record;
    if (i > 0) os << ",";
    os << "\n  {\"index\": " << d.index << ", \"time\": " << Num(r.time)
       << ", \"loop\": " << Str(b.LoopName(r.loop))
       << ", \"y\": " << Num(r.sensed_y) << ", \"raw_u\": " << Num(r.raw_u)
       << ", \"u\": " << Num(r.clamped_u)
       << ", \"out\": " << static_cast<int>(r.outcome)
       << ", \"line_hash\": " << U64(d.line_hash)
       << ", \"chain\": " << U64(d.chain) << "}";
  }
  os << "\n ]\n";
  os << "}\n";
}

// ---------------------------------------------------------------------
// Parsing: a minimal recursive-descent JSON reader (the repo vendors no
// JSON library). Supports exactly what WriteBundle emits plus the usual
// escapes; numbers parse as doubles, 64-bit fields arrive as strings.
// ---------------------------------------------------------------------

/// Deepest nesting of arrays and objects the reader takes. A bundle
/// nests four deep (the root, "replans", an entry, its "shares"); the
/// bound keeps the recursion's stack use fixed whatever the input.
constexpr int kMaxJsonDepth = 16;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    FLOWER_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing characters");
    return v;
  }

 private:
  Status Err(const std::string& what) {
    return Status::InvalidArgument("bundle JSON: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  /// `depth` counts the arrays and objects around the value.
  Status ParseValue(JsonValue* out, int depth) {
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    if ((c == '{' || c == '[') && depth == kMaxJsonDepth) {
      return Err("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    if (c == '{') return ParseObject(out, depth + 1);
    if (c == '[') return ParseArray(out, depth + 1);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') {
      const char* word = c == 't' ? "true" : "false";
      size_t len = c == 't' ? 4 : 5;
      if (text_.compare(pos_, len, word) != 0) return Err("bad literal");
      pos_ += len;
      out->type = JsonValue::Type::kBool;
      out->boolean = c == 't';
      return Status::OK();
    }
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) return Err("bad literal");
      pos_ += 4;
      out->type = JsonValue::Type::kNull;
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key");
      }
      std::string key;
      FLOWER_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Err("expected ':'");
      ++pos_;
      JsonValue value;
      FLOWER_RETURN_NOT_OK(ParseValue(&value, depth));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Err("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Err("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      JsonValue value;
      FLOWER_RETURN_NOT_OK(ParseValue(&value, depth));
      out->array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Err("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Err("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad \\u escape");
          }
          // The writer only escapes control bytes, so non-ASCII code
          // points never appear; keep the low byte.
          out->push_back(static_cast<char>(code & 0xFF));
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
    return Err("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected a value");
    Result<double> v =
        ParseDouble(std::string_view(text_).substr(start, pos_ - start));
    if (!v.ok()) return Err("malformed number");
    out->type = JsonValue::Type::kNumber;
    out->number = *v;
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Typed extraction.
// ---------------------------------------------------------------------

const JsonValue* Find(const JsonValue& obj, const std::string& key) {
  if (obj.type != JsonValue::Type::kObject) return nullptr;
  for (const auto& [k, v] : obj.object) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<double> AsDouble(const JsonValue& v, const std::string& what) {
  if (v.type == JsonValue::Type::kNumber) return v.number;
  if (v.type == JsonValue::Type::kString) {
    if (v.str == "nan") return std::nan("");
    if (v.str == "inf") return std::numeric_limits<double>::infinity();
    if (v.str == "-inf") return -std::numeric_limits<double>::infinity();
  }
  return Status::InvalidArgument("bundle JSON: '" + what + "' is not a number");
}

/// An unsigned integer no larger than `max`: a string of digits only
/// (no sign, no whitespace), or an integral JSON number below 2^64.
Result<uint64_t> AsUnsigned(const JsonValue& v, const std::string& what,
                            uint64_t max) {
  bool ok = false;
  uint64_t out = 0;
  if (v.type == JsonValue::Type::kString) {
    Result<uint64_t> parsed = ParseUnsigned(v.str, max);
    ok = parsed.ok();
    out = parsed.ValueOr(0);
  } else if (v.type == JsonValue::Type::kNumber) {
    // 0x1p64 (2^64) is the first double past uint64_t's range; NaN
    // fails the first comparison.
    ok = v.number >= 0.0 && v.number < 0x1p64 &&
         v.number == std::floor(v.number);
    if (ok) out = static_cast<uint64_t>(v.number);
  }
  if (!ok || out > max) {
    return Status::InvalidArgument("bundle JSON: '" + what +
                                   "' is not an unsigned integer in range");
  }
  return out;
}

Result<uint64_t> AsU64(const JsonValue& v, const std::string& what) {
  return AsUnsigned(v, what, std::numeric_limits<uint64_t>::max());
}

Result<size_t> AsSize(const JsonValue& v, const std::string& what) {
  FLOWER_ASSIGN_OR_RETURN(
      uint64_t n, AsUnsigned(v, what, std::numeric_limits<size_t>::max()));
  return static_cast<size_t>(n);
}

Result<std::string> AsString(const JsonValue& v, const std::string& what) {
  if (v.type != JsonValue::Type::kString) {
    return Status::InvalidArgument("bundle JSON: '" + what +
                                   "' is not a string");
  }
  return v.str;
}

Result<bool> AsBool(const JsonValue& v, const std::string& what) {
  if (v.type != JsonValue::Type::kBool) {
    return Status::InvalidArgument("bundle JSON: '" + what +
                                   "' is not a bool");
  }
  return v.boolean;
}

#define BUNDLE_FIELD(target, obj, key, conv)                               \
  do {                                                                     \
    const JsonValue* field = Find(obj, key);                               \
    if (field == nullptr) {                                                \
      return Status::InvalidArgument("bundle JSON: missing '" +            \
                                     std::string(key) + "'");              \
    }                                                                      \
    FLOWER_ASSIGN_OR_RETURN(target, conv(*field, key));                    \
  } while (0)

Result<RecordedFault> ParseFault(const JsonValue& v) {
  RecordedFault f;
  BUNDLE_FIELD(f.kind, v, "kind", AsString);
  BUNDLE_FIELD(f.target, v, "target", AsString);
  BUNDLE_FIELD(f.start, v, "start", AsDouble);
  BUNDLE_FIELD(f.end, v, "end", AsDouble);
  BUNDLE_FIELD(f.probability, v, "probability", AsDouble);
  BUNDLE_FIELD(f.delay_sec, v, "delay_sec", AsDouble);
  BUNDLE_FIELD(f.factor, v, "factor", AsDouble);
  BUNDLE_FIELD(f.offset, v, "offset", AsDouble);
  return f;
}

/// A recorded amount that must be finite and >= 0 (dollars, shares);
/// written so NaN fails it.
Status CheckAmount(double v, const char* entry, uint64_t index,
                   const char* field) {
  if (std::isfinite(v) && v >= 0.0) return Status::OK();
  return Status::InvalidArgument("bundle JSON: " + std::string(entry) + " " +
                                 std::to_string(index) + ": '" + field +
                                 "' must be finite and >= 0");
}

Result<GrantEntry> ParseGrant(const JsonValue& v) {
  GrantEntry g;
  BUNDLE_FIELD(g.index, v, "index", AsU64);
  BUNDLE_FIELD(g.time, v, "time", AsDouble);
  BUNDLE_FIELD(g.demand_usd, v, "demand_usd", AsDouble);
  BUNDLE_FIELD(g.grant_usd, v, "grant_usd", AsDouble);
  FLOWER_RETURN_NOT_OK(CheckAmount(g.demand_usd, "grant", g.index,
                                   "demand_usd"));
  FLOWER_RETURN_NOT_OK(CheckAmount(g.grant_usd, "grant", g.index,
                                   "grant_usd"));
  return g;
}

Result<ReplanEntry> ParseReplan(const JsonValue& v) {
  ReplanEntry r;
  BUNDLE_FIELD(r.index, v, "index", AsU64);
  BUNDLE_FIELD(r.time, v, "time", AsDouble);
  BUNDLE_FIELD(r.budget_usd, v, "budget_usd", AsDouble);
  BUNDLE_FIELD(r.applied, v, "applied", AsBool);
  FLOWER_RETURN_NOT_OK(CheckAmount(r.budget_usd, "replan", r.index,
                                   "budget_usd"));
  const JsonValue* shares = Find(v, "shares");
  if (shares == nullptr || shares->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("bundle JSON: missing 'shares'");
  }
  r.num_shares = 0;
  for (const JsonValue& s : shares->array) {
    if (r.num_shares >= ReplanEntry::kMaxShares) break;
    FLOWER_ASSIGN_OR_RETURN(r.shares[r.num_shares], AsDouble(s, "shares"));
    FLOWER_RETURN_NOT_OK(CheckAmount(r.shares[r.num_shares], "replan",
                                     r.index, "shares"));
    ++r.num_shares;
  }
  return r;
}

Result<HashCheckpoint> ParseCheckpoint(const JsonValue& v) {
  HashCheckpoint c;
  BUNDLE_FIELD(c.index, v, "index", AsU64);
  BUNDLE_FIELD(c.time, v, "time", AsDouble);
  BUNDLE_FIELD(c.chain, v, "chain", AsU64);
  return c;
}

/// Parses one decision row, interning its loop name into `loops`.
Result<RecordedDecision> ParseDecision(const JsonValue& v,
                                       std::vector<std::string>* loops) {
  RecordedDecision d;
  ControlDecisionRecord& r = d.record;
  BUNDLE_FIELD(d.index, v, "index", AsU64);
  BUNDLE_FIELD(r.time, v, "time", AsDouble);
  BUNDLE_FIELD(r.sensed_y, v, "y", AsDouble);
  BUNDLE_FIELD(r.raw_u, v, "raw_u", AsDouble);
  BUNDLE_FIELD(r.clamped_u, v, "u", AsDouble);
  BUNDLE_FIELD(d.line_hash, v, "line_hash", AsU64);
  BUNDLE_FIELD(d.chain, v, "chain", AsU64);
  uint64_t outcome = 0;
  BUNDLE_FIELD(outcome, v, "out", AsU64);
  // kActuationFailed is the last StepOutcome.
  if (outcome > static_cast<uint64_t>(StepOutcome::kActuationFailed)) {
    return Status::InvalidArgument("bundle JSON: unknown decision outcome " +
                                   std::to_string(outcome));
  }
  r.outcome = static_cast<StepOutcome>(outcome);
  std::string loop;
  BUNDLE_FIELD(loop, v, "loop", AsString);
  size_t id = std::find(loops->begin(), loops->end(), loop) - loops->begin();
  if (id > std::numeric_limits<LoopId>::max()) {
    return Status::InvalidArgument("bundle JSON: too many distinct loops");
  }
  if (id == loops->size()) loops->push_back(std::move(loop));
  r.loop = static_cast<LoopId>(id);
  return d;
}

/// Holds every decision row to the hashes recorded with it: the row's
/// canonical line must hash to its `line_hash`, and each row must
/// extend the digest chain of the row before it (decision 0 extends
/// the empty chain), so an edited field cannot replay to a match.
Status VerifyDecisions(const CaptureBundle& b) {
  const RecordedDecision* prev = nullptr;
  for (const RecordedDecision& d : b.decisions) {
    const std::string at = "bundle JSON: decision " + std::to_string(d.index);
    char line[kDigestLineCapacity];
    const size_t len =
        FormatDigestLine(d.record, b.LoopName(d.record.loop), line);
    if (FnvMix(kFnvOffsetBasis, line, len) != d.line_hash) {
      return Status::InvalidArgument(at + ": 'line_hash' does not match "
                                          "the row");
    }
    if (prev != nullptr && d.index != prev->index + 1) {
      return Status::InvalidArgument(at + ": 'index' does not follow " +
                                     std::to_string(prev->index));
    }
    if (prev != nullptr || d.index == 0) {
      const uint64_t before = prev != nullptr ? prev->chain : kFnvOffsetBasis;
      if (FnvMix(before, line, len) != d.chain) {
        return Status::InvalidArgument(at + ": 'chain' does not extend the "
                                            "chain before it");
      }
    }
    prev = &d;
  }
  return Status::OK();
}

/// Holds the bundle's summary to its rows: `total_decisions` and
/// `chain_hash` are those of the last retained decision, or 0 and the
/// empty chain when none is retained. A summary that disagrees would
/// report a divergence with no first mismatch.
Status VerifySummary(const CaptureBundle& b) {
  const bool none = b.decisions.empty();
  const bool total_ok = none ? b.total_decisions == 0
                             : b.total_decisions != 0 &&
                                   b.total_decisions - 1 ==
                                       b.decisions.back().index;
  if (!total_ok) {
    return Status::InvalidArgument(
        "bundle JSON: 'total_decisions' is " +
        std::to_string(b.total_decisions) + ", but the rows " +
        (none ? std::string("are empty")
              : "end at decision " +
                    std::to_string(b.decisions.back().index)));
  }
  if (b.chain_hash != (none ? kFnvOffsetBasis : b.decisions.back().chain)) {
    return Status::InvalidArgument(
        "bundle JSON: 'chain_hash' is not the chain of the last decision");
  }
  return Status::OK();
}

}  // namespace

const std::string& CaptureBundle::LoopName(LoopId id) const {
  static const std::string kUnknown;
  return id < loops.size() ? loops[id] : kUnknown;
}

CaptureBundle BundleFromRecorder(const FlightRecorder& recorder) {
  CaptureBundle b;
  b.tenant_id = recorder.tenant_id();
  b.tenant_index = recorder.tenant_index();
  b.seed = recorder.seed();
  b.fingerprint = recorder.Fingerprint();
  b.window_start = recorder.window_start();
  b.trigger = recorder.trigger();
  b.recorder = recorder.config();
  b.spec = recorder.spec();
  b.faults = recorder.faults();
  b.grants = recorder.Grants();
  b.replans = recorder.Replans();
  for (size_t id = 0; id < recorder.num_loops(); ++id) {
    b.loops.push_back(recorder.LoopName(static_cast<LoopId>(id)));
  }
  b.decisions = recorder.Decisions();
  b.checkpoints = recorder.Checkpoints();
  b.chain_hash = recorder.chain_hash();
  b.total_decisions = recorder.total_decisions();
  if (b.trigger.fired) {
    // The bundle contract is the [window_start, t_trigger] window: a
    // recorder snapshotted *after* its trigger (an explicit dump at the
    // end of a run whose alert fired mid-way) may hold entries the
    // replay — which stops at the trigger — can never reproduce. Trim
    // them and rewind the chain verdict to the last in-window decision.
    auto past = [&b](SimTime t) { return t > b.trigger.time; };
    while (!b.decisions.empty() && past(b.decisions.back().record.time)) {
      b.decisions.pop_back();
    }
    while (!b.grants.empty() && past(b.grants.back().time)) {
      b.grants.pop_back();
    }
    while (!b.replans.empty() && past(b.replans.back().time)) {
      b.replans.pop_back();
    }
    while (!b.checkpoints.empty() && past(b.checkpoints.back().time)) {
      b.checkpoints.pop_back();
    }
    if (b.decisions.empty()) {
      // The whole in-window tail was evicted by post-trigger recording;
      // nothing is comparable step-by-step.
      b.total_decisions = 0;
      b.chain_hash = kFnvOffsetBasis;
    } else {
      b.total_decisions = b.decisions.back().index + 1;
      b.chain_hash = b.decisions.back().chain;
    }
  }
  return b;
}

uint64_t BundleFingerprint(const CaptureBundle& bundle) {
  FlightRecorder scratch{RecorderConfig{1, 1, 1, 1, 1}};
  scratch.SetIdentity(bundle.tenant_id, bundle.tenant_index, bundle.seed);
  scratch.SetSpec(bundle.spec);
  for (const RecordedFault& f : bundle.faults) scratch.AddFault(f);
  return scratch.Fingerprint();
}

Status WriteBundleJson(const CaptureBundle& bundle, const std::string& path) {
  return ExportToFile(path,
                      [&](std::ostream& os) { WriteBundle(os, bundle); });
}

Result<CaptureBundle> LoadBundleJson(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open capture bundle '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  FLOWER_ASSIGN_OR_RETURN(JsonValue root, JsonParser(text).Parse());
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("bundle JSON: top level is not an object");
  }

  CaptureBundle b;
  uint64_t schema = 0;
  BUNDLE_FIELD(schema, root, "schema_version", AsU64);
  if (schema != static_cast<uint64_t>(kBundleSchemaVersion)) {
    std::string msg = "capture bundle schema v";
    msg += std::to_string(schema);
    msg += schema > static_cast<uint64_t>(kBundleSchemaVersion)
               ? " is newer than this build understands (v"
               : " is older than this build replays (v";
    msg += std::to_string(kBundleSchemaVersion);
    msg += "); recapture it with this build";
    return Status::InvalidArgument(msg);
  }
  b.schema_version = static_cast<int>(schema);
  BUNDLE_FIELD(b.tenant_id, root, "tenant_id", AsString);
  BUNDLE_FIELD(b.tenant_index, root, "tenant_index", AsSize);
  BUNDLE_FIELD(b.seed, root, "seed", AsU64);
  BUNDLE_FIELD(b.fingerprint, root, "fingerprint", AsU64);
  BUNDLE_FIELD(b.window_start, root, "window_start", AsDouble);
  BUNDLE_FIELD(b.chain_hash, root, "chain_hash", AsU64);
  BUNDLE_FIELD(b.total_decisions, root, "total_decisions", AsU64);

  const JsonValue* trigger = Find(root, "trigger");
  if (trigger == nullptr) {
    return Status::InvalidArgument("bundle JSON: missing 'trigger'");
  }
  BUNDLE_FIELD(b.trigger.fired, *trigger, "fired", AsBool);
  BUNDLE_FIELD(b.trigger.time, *trigger, "time", AsDouble);
  BUNDLE_FIELD(b.trigger.reason, *trigger, "reason", AsString);
  BUNDLE_FIELD(b.trigger.span_id, *trigger, "span_id", AsU64);
  BUNDLE_FIELD(b.trigger.burn_fast, *trigger, "burn_fast", AsDouble);
  BUNDLE_FIELD(b.trigger.burn_slow, *trigger, "burn_slow", AsDouble);

  const JsonValue* recorder = Find(root, "recorder");
  if (recorder == nullptr) {
    return Status::InvalidArgument("bundle JSON: missing 'recorder'");
  }
  RecorderConfig& rc = b.recorder;
  BUNDLE_FIELD(rc.decision_capacity, *recorder, "decision_capacity", AsSize);
  BUNDLE_FIELD(rc.grant_capacity, *recorder, "grant_capacity", AsSize);
  BUNDLE_FIELD(rc.replan_capacity, *recorder, "replan_capacity", AsSize);
  BUNDLE_FIELD(rc.checkpoint_every, *recorder, "checkpoint_every", AsSize);
  BUNDLE_FIELD(rc.checkpoint_capacity, *recorder, "checkpoint_capacity",
               AsSize);

  const JsonValue* spec = Find(root, "spec");
  if (spec == nullptr || spec->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("bundle JSON: missing 'spec'");
  }
  for (const JsonValue& pair : spec->array) {
    std::string k, v;
    BUNDLE_FIELD(k, pair, "k", AsString);
    BUNDLE_FIELD(v, pair, "v", AsString);
    b.spec.emplace_back(std::move(k), std::move(v));
  }

  const JsonValue* arr = Find(root, "faults");
  if (arr == nullptr || arr->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("bundle JSON: missing 'faults'");
  }
  for (const JsonValue& v : arr->array) {
    FLOWER_ASSIGN_OR_RETURN(RecordedFault f, ParseFault(v));
    b.faults.push_back(std::move(f));
  }

  arr = Find(root, "grants");
  if (arr == nullptr || arr->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("bundle JSON: missing 'grants'");
  }
  for (const JsonValue& v : arr->array) {
    FLOWER_ASSIGN_OR_RETURN(GrantEntry g, ParseGrant(v));
    b.grants.push_back(g);
  }

  arr = Find(root, "replans");
  if (arr == nullptr || arr->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("bundle JSON: missing 'replans'");
  }
  for (const JsonValue& v : arr->array) {
    FLOWER_ASSIGN_OR_RETURN(ReplanEntry r, ParseReplan(v));
    b.replans.push_back(r);
  }

  arr = Find(root, "checkpoints");
  if (arr == nullptr || arr->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("bundle JSON: missing 'checkpoints'");
  }
  for (const JsonValue& v : arr->array) {
    FLOWER_ASSIGN_OR_RETURN(HashCheckpoint c, ParseCheckpoint(v));
    b.checkpoints.push_back(c);
  }

  arr = Find(root, "decisions");
  if (arr == nullptr || arr->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("bundle JSON: missing 'decisions'");
  }
  for (const JsonValue& v : arr->array) {
    FLOWER_ASSIGN_OR_RETURN(RecordedDecision d, ParseDecision(v, &b.loops));
    b.decisions.push_back(d);
  }
  FLOWER_RETURN_NOT_OK(VerifyDecisions(b));
  FLOWER_RETURN_NOT_OK(VerifySummary(b));
  return b;
}

}  // namespace flower::obs::replay
