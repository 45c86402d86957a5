#include "obs/replay/bundle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/parse.h"
#include "obs/exporters.h"

namespace flower::obs::replay {

namespace {

// ---------------------------------------------------------------------
// The record tables: what a bundle holds, stated once for the writer,
// the reader and the fingerprint.
// ---------------------------------------------------------------------

// A table passes each field as a reference to its member, whose type
// gives the encoding (a string, a bool, a double, an integer count, a
// FaultKind by name, a StepOutcome by number), or as one of the
// encodings below. `T` is const when a table is walked to write.

/// A 64-bit value stored as a quoted decimal string: a JSON number is a
/// double and silently loses bits above 2^53 (seeds and hashes exceed
/// that routinely).
template <typename T>
struct Decimal {
  T& value;
};

/// A recorded amount (dollars, share bounds): a double that must be
/// finite and >= 0.
template <typename T>
struct Amount {
  T& value;
};

/// A decision's loop id, stored as the loop's name: a bundle and its
/// replay may number loops differently. Reading interns the name into
/// the bundle's loop table.
template <typename T>
struct LoopByName {
  T& id;
};

/// A re-plan's share bounds: an array of at most
/// ReplanEntry::kMaxShares amounts.
template <typename T, typename N>
struct Shares {
  T& values;
  N& count;
};

/// `R` is a `T`, const or not.
template <typename R, typename T>
concept RecordOf = std::same_as<std::remove_const_t<R>, T>;

// One table per record: `VisitFields(record, visit)` calls
// `visit(key, field)` once for each key, in the order a bundle stores
// them.

template <RecordOf<TriggerInfo> R, typename Visit>
void VisitFields(R& t, Visit&& visit) {
  visit("fired", t.fired);
  visit("time", t.time);
  visit("reason", t.reason);
  visit("span_id", Decimal{t.span_id});
  visit("burn_fast", t.burn_fast);
  visit("burn_slow", t.burn_slow);
}

template <RecordOf<RecorderConfig> R, typename Visit>
void VisitFields(R& c, Visit&& visit) {
  visit("decision_capacity", c.decision_capacity);
  visit("grant_capacity", c.grant_capacity);
  visit("replan_capacity", c.replan_capacity);
  visit("checkpoint_every", c.checkpoint_every);
  visit("checkpoint_capacity", c.checkpoint_capacity);
}

/// A spec row: one (key, value) pair of the partition spec.
template <RecordOf<std::pair<std::string, std::string>> R, typename Visit>
void VisitFields(R& row, Visit&& visit) {
  visit("k", row.first);
  visit("v", row.second);
}

template <RecordOf<FaultSpec> R, typename Visit>
void VisitFields(R& f, Visit&& visit) {
  visit("kind", f.kind);
  visit("target", f.target);
  visit("start", f.start);
  visit("end", f.end);
  visit("probability", f.probability);
  visit("delay_sec", f.delay_sec);
  visit("factor", f.factor);
  visit("offset", f.offset);
}

template <RecordOf<GrantEntry> R, typename Visit>
void VisitFields(R& g, Visit&& visit) {
  visit("index", g.index);
  visit("time", g.time);
  visit("demand_usd", Amount{g.demand_usd});
  visit("grant_usd", Amount{g.grant_usd});
}

template <RecordOf<ReplanEntry> R, typename Visit>
void VisitFields(R& r, Visit&& visit) {
  visit("index", r.index);
  visit("time", r.time);
  visit("budget_usd", Amount{r.budget_usd});
  visit("shares", Shares{r.shares, r.num_shares});
  visit("applied", r.applied);
}

template <RecordOf<HashCheckpoint> R, typename Visit>
void VisitFields(R& c, Visit&& visit) {
  visit("index", c.index);
  visit("time", c.time);
  visit("chain", Decimal{c.chain});
}

template <RecordOf<RecordedDecision> R, typename Visit>
void VisitFields(R& d, Visit&& visit) {
  visit("index", d.index);
  visit("time", d.record.time);
  visit("loop", LoopByName{d.record.loop});
  visit("y", d.record.sensed_y);
  visit("raw_u", d.record.raw_u);
  visit("u", d.record.clamped_u);
  visit("out", d.record.outcome);
  visit("line_hash", Decimal{d.line_hash});
  visit("chain", Decimal{d.chain});
}

/// The key a reader checks before any other: a bundle of another
/// schema may hold other keys.
constexpr char kSchemaKey[] = "schema_version";

/// The root record. Its nested records and arrays are walked by their
/// own tables.
template <RecordOf<CaptureBundle> R, typename Visit>
void VisitFields(R& b, Visit&& visit) {
  visit(kSchemaKey, b.schema_version);
  visit("tenant_id", b.tenant_id);
  visit("tenant_index", b.tenant_index);
  visit("seed", Decimal{b.seed});
  visit("fingerprint", Decimal{b.fingerprint});
  visit("window_start", b.window_start);
  visit("trigger", b.trigger);
  visit("recorder", b.recorder);
  visit("chain_hash", Decimal{b.chain_hash});
  visit("total_decisions", b.total_decisions);
  visit("spec", b.spec);
  visit("faults", b.faults);
  visit("grants", b.grants);
  visit("replans", b.replans);
  visit("checkpoints", b.checkpoints);
  visit("decisions", b.decisions);
}

/// `R` is a record with a table.
template <typename R>
concept Record = requires(R& r) {
  VisitFields(r, [](const char*, const auto&) {});
};

// ---------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------

/// Doubles with full round-trip precision; JSON has no non-finite
/// literals, so those are encoded as tagged strings the reader accepts.
std::string Num(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Writes a bundle by its tables: the root one field per line, every
/// other record inline, and each array element on its own line.
class Writer {
 public:
  Writer(std::ostream& os, const CaptureBundle& bundle)
      : os_(os), bundle_(bundle) {}

  void Root() {
    Fields(bundle_, "{\n ", ",\n ");
    os_ << "\n}\n";
  }

 private:
  /// Writes `record`'s fields, `first` before the first and `sep`
  /// before each later one.
  template <typename R>
  void Fields(const R& record, const char* first, const char* sep) {
    const char* before = first;
    VisitFields(record, [&](const char* key, const auto& field) {
      os_ << before << '"' << key << "\": ";
      Value(field);
      before = sep;
    });
  }

  void Value(const std::string& s) {
    os_ << '"' << internal::JsonEscape(s) << '"';
  }
  void Value(bool b) { os_ << (b ? "true" : "false"); }
  void Value(double v) { os_ << Num(v); }
  template <std::integral T>
  void Value(T count) {
    os_ << count;
  }
  void Value(FaultKind kind) { Value(std::string(FaultKindToString(kind))); }
  void Value(StepOutcome outcome) { os_ << static_cast<int>(outcome); }
  template <typename T>
  void Value(Decimal<T> d) {
    os_ << '"' << static_cast<unsigned long long>(d.value) << '"';
  }
  template <typename T>
  void Value(Amount<T> a) {
    os_ << Num(a.value);
  }
  template <typename T>
  void Value(LoopByName<T> loop) {
    Value(bundle_.LoopName(loop.id));
  }
  template <typename T, typename N>
  void Value(Shares<T, N> shares) {
    os_ << '[';
    for (int i = 0; i < shares.count; ++i) {
      os_ << (i > 0 ? ", " : "") << Num(shares.values[i]);
    }
    os_ << ']';
  }
  template <Record R>
  void Value(const R& record) {
    Fields(record, "{", ", ");
    os_ << '}';
  }
  template <Record R>
  void Value(const std::vector<R>& rows) {
    os_ << '[';
    for (size_t i = 0; i < rows.size(); ++i) {
      os_ << (i > 0 ? ",\n  " : "\n  ");
      Value(rows[i]);
    }
    os_ << "\n ]";
  }

  std::ostream& os_;
  const CaptureBundle& bundle_;
};

// ---------------------------------------------------------------------
// Parsing: a minimal recursive-descent JSON reader (the repo vendors no
// JSON library). Supports exactly what the Writer emits (no `null`)
// plus the usual escapes; numbers parse as doubles, 64-bit fields
// arrive as strings.
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
// Reading: each object holds each of its table's keys once and nothing
// else, and each value is in the encoding its table names.
// ---------------------------------------------------------------------

/// Where a value sits: its record (root, trigger, decisions[3], ...)
/// and its key.
struct At {
  const std::string& record;
  const std::string& key;
};

/// InvalidArgument "bundle JSON: <record>: '<key>' <what>".
Status Bad(At at, const std::string& what) {
  std::string message = "bundle JSON: ";
  message.append(at.record).append(": '").append(at.key).append("' ");
  return Status::InvalidArgument(message.append(what));
}

/// A count: an integral JSON number no larger than `max`.
Status ReadCount(const JsonValue& v, At at, uint64_t max, uint64_t* out) {
  // 0x1p64 (2^64) is the first double past uint64_t's range; NaN fails
  // the first comparison.
  if (!(v.type == JsonValue::Type::kNumber && v.number >= 0.0 &&
        v.number < 0x1p64 && v.number == std::floor(v.number) &&
        static_cast<uint64_t>(v.number) <= max)) {
    return Bad(at, "is not an integer in range");
  }
  *out = static_cast<uint64_t>(v.number);
  return Status::OK();
}

/// Reads a bundle by its tables.
class Reader {
 public:
  explicit Reader(CaptureBundle* bundle) : bundle_(bundle) {}

  Status Root(const JsonValue& root) { return Fields(root, "root", *bundle_); }

 private:
  template <typename R>
  Status Fields(const JsonValue& object, const std::string& record, R& r) {
    if (object.type != JsonValue::Type::kObject) {
      std::string message = "bundle JSON: ";
      return Status::InvalidArgument(
          message.append(record).append(" is not an object"));
    }
    const auto& members = object.object;
    std::vector<bool> taken(members.size(), false);
    Status status;
    VisitFields(r, [&](const std::string& key, auto&& field) {
      if (!status.ok()) return;
      const JsonValue* value = nullptr;
      for (size_t i = 0; i < members.size(); ++i) {
        if (members[i].first != key) continue;
        if (value != nullptr) {
          status = Bad({record, key}, "appears twice");
          return;
        }
        value = &members[i].second;
        taken[i] = true;
      }
      status = value == nullptr ? Bad({record, key}, "is missing")
                                : Read(*value, {record, key}, field);
    });
    FLOWER_RETURN_NOT_OK(status);
    for (size_t i = 0; i < members.size(); ++i) {
      if (!taken[i]) return Bad({record, members[i].first}, "is unknown");
    }
    return Status::OK();
  }

  Status Read(const JsonValue& v, At at, std::string& out) {
    if (v.type != JsonValue::Type::kString) return Bad(at, "is not a string");
    out = v.str;
    return Status::OK();
  }

  Status Read(const JsonValue& v, At at, bool& out) {
    if (v.type != JsonValue::Type::kBool) return Bad(at, "is not a bool");
    out = v.boolean;
    return Status::OK();
  }

  Status Read(const JsonValue& v, At at, double& out) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (v.type == JsonValue::Type::kNumber) {
      out = v.number;
    } else if (v.type == JsonValue::Type::kString &&
               (v.str == "nan" || v.str == "inf" || v.str == "-inf")) {
      out = v.str == "nan" ? std::nan("") : v.str == "inf" ? kInf : -kInf;
    } else {
      return Bad(at, "is not a number");
    }
    return Status::OK();
  }

  template <std::integral T>
  Status Read(const JsonValue& v, At at, T& out) {
    uint64_t count = 0;
    FLOWER_RETURN_NOT_OK(ReadCount(
        v, at, static_cast<uint64_t>(std::numeric_limits<T>::max()), &count));
    out = static_cast<T>(count);
    return Status::OK();
  }

  Status Read(const JsonValue& v, At at, FaultKind& out) {
    std::string name;
    FLOWER_RETURN_NOT_OK(Read(v, at, name));
    Result<FaultKind> kind = ParseFaultKind(name);
    if (!kind.ok()) return Bad(at, "names no fault kind: '" + name + "'");
    out = *kind;
    return Status::OK();
  }

  Status Read(const JsonValue& v, At at, StepOutcome& out) {
    // kActuationFailed is the last StepOutcome.
    uint64_t outcome = 0;
    FLOWER_RETURN_NOT_OK(ReadCount(
        v, at, static_cast<uint64_t>(StepOutcome::kActuationFailed),
        &outcome));
    out = static_cast<StepOutcome>(outcome);
    return Status::OK();
  }

  template <typename T>
  Status Read(const JsonValue& v, At at, Decimal<T> d) {
    Result<uint64_t> parsed =
        ParseUnsigned(v.str, std::numeric_limits<uint64_t>::max());
    if (v.type != JsonValue::Type::kString || !parsed.ok()) {
      return Bad(at, "is not a quoted decimal integer in range");
    }
    d.value = *parsed;
    return Status::OK();
  }

  template <typename T>
  Status Read(const JsonValue& v, At at, Amount<T> a) {
    FLOWER_RETURN_NOT_OK(Read(v, at, a.value));
    // Written so NaN fails it.
    if (std::isfinite(a.value) && a.value >= 0.0) return Status::OK();
    return Bad(at, "must be finite and >= 0");
  }

  template <typename T>
  Status Read(const JsonValue& v, At at, LoopByName<T> loop) {
    std::string name;
    FLOWER_RETURN_NOT_OK(Read(v, at, name));
    std::vector<std::string>& loops = bundle_->loops;
    const size_t id =
        std::find(loops.begin(), loops.end(), name) - loops.begin();
    if (id > std::numeric_limits<LoopId>::max()) {
      return Bad(at, "names more loops than a LoopId numbers");
    }
    if (id == loops.size()) loops.push_back(std::move(name));
    loop.id = static_cast<LoopId>(id);
    return Status::OK();
  }

  template <typename T, typename N>
  Status Read(const JsonValue& v, At at, Shares<T, N> shares) {
    if (v.type != JsonValue::Type::kArray ||
        v.array.size() > static_cast<size_t>(ReplanEntry::kMaxShares)) {
      return Bad(at, "is not an array of at most " +
                         std::to_string(ReplanEntry::kMaxShares) + " amounts");
    }
    shares.count = 0;
    for (const JsonValue& share : v.array) {
      Amount amount{shares.values[shares.count++]};
      FLOWER_RETURN_NOT_OK(Read(share, at, amount));
    }
    return Status::OK();
  }

  template <Record R>
  Status Read(const JsonValue& v, At at, R& record) {
    return Fields(v, at.key, record);
  }

  template <Record R>
  Status Read(const JsonValue& v, At at, std::vector<R>& rows) {
    if (v.type != JsonValue::Type::kArray) return Bad(at, "is not an array");
    rows.resize(v.array.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      std::string row = at.key;
      row.append("[").append(std::to_string(i)).append("]");
      FLOWER_RETURN_NOT_OK(Fields(v.array[i], row, rows[i]));
    }
    return Status::OK();
  }

  CaptureBundle* bundle_;
};

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

/// FNV-1a of `s`'s bytes, continuing from `seed`.
uint64_t FnvStr(uint64_t seed, std::string_view s) {
  return FnvMix(seed, s.data(), s.size());
}

/// FNV-1a of `v`'s %.17g text.
uint64_t FnvF64(uint64_t seed, double v) {
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  return FnvMix(seed, buf, static_cast<size_t>(n));
}

/// FNV-1a of `v`'s decimal text.
uint64_t FnvU64(uint64_t seed, uint64_t v) {
  char buf[24];
  int n = std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(v));
  return FnvMix(seed, buf, static_cast<size_t>(n));
}

}  // namespace

const std::string& CaptureBundle::LoopName(LoopId id) const {
  static const std::string kUnknown;
  return id < loops.size() ? loops[id] : kUnknown;
}

uint64_t FingerprintInputs(
    const std::string& tenant_id, size_t tenant_index, uint64_t seed,
    const std::vector<std::pair<std::string, std::string>>& spec,
    const std::vector<FaultSpec>& faults) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvStr(h, tenant_id);
  h = FnvU64(h, tenant_index);
  h = FnvU64(h, seed);
  for (const auto& [key, value] : spec) {
    h = FnvStr(h, key);
    h = FnvMix(h, "=", 1);
    h = FnvStr(h, value);
    h = FnvMix(h, ";", 1);
  }
  // Each fault's fields in table order: a kind by its name, a target as
  // is, a double as %.17g.
  for (const FaultSpec& f : faults) {
    VisitFields(f, [&h](const char*, const auto& field) {
      using T = std::remove_cvref_t<decltype(field)>;
      if constexpr (std::is_same_v<T, FaultKind>) {
        h = FnvStr(h, FaultKindToString(field));
      } else if constexpr (std::is_same_v<T, std::string>) {
        h = FnvStr(h, field);
      } else {
        static_assert(std::is_same_v<T, double>);
        h = FnvF64(h, field);
      }
    });
  }
  return h;
}

CaptureBundle BundleFromRecorder(const FlightRecorder& recorder) {
  CaptureBundle b;
  b.tenant_id = recorder.tenant_id();
  b.tenant_index = recorder.tenant_index();
  b.seed = recorder.seed();
  b.window_start = recorder.window_start();
  b.trigger = recorder.trigger();
  b.recorder = recorder.config();
  b.spec = recorder.spec();
  b.faults = recorder.faults();
  b.fingerprint =
      FingerprintInputs(b.tenant_id, b.tenant_index, b.seed, b.spec, b.faults);
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

Status WriteBundleJson(const CaptureBundle& bundle, const std::string& path) {
  return ExportToFile(
      path, [&](std::ostream& os) { Writer(os, bundle).Root(); });
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

  // The schema check comes first: a bundle of another schema may hold
  // other keys. A missing or repeated version is the table's to refuse.
  const auto schema_at = std::find_if(
      root.object.begin(), root.object.end(),
      [](const auto& member) { return member.first == kSchemaKey; });
  if (schema_at != root.object.end()) {
    uint64_t schema = 0;
    const std::string record = "root", key = kSchemaKey;
    FLOWER_RETURN_NOT_OK(ReadCount(schema_at->second, {record, key},
                                   std::numeric_limits<uint64_t>::max(),
                                   &schema));
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
  }

  CaptureBundle b;
  FLOWER_RETURN_NOT_OK(Reader(&b).Root(root));
  FLOWER_RETURN_NOT_OK(VerifyDecisions(b));
  FLOWER_RETURN_NOT_OK(VerifySummary(b));
  return b;
}

}  // namespace flower::obs::replay
