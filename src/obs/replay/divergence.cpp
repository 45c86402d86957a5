#include "obs/replay/divergence.h"

#include <cstdio>
#include <sstream>

namespace flower::obs::replay {

namespace {

/// Field-by-field diff of a recorded vs replayed decision, for the
/// report's `detail` line.
std::string DescribeMismatch(const ControlDecisionRecord& rec,
                             const std::string& rec_loop,
                             const ControlDecisionRecord& rep,
                             const std::string& rep_loop) {
  std::ostringstream os;
  char buf[128];
  auto field = [&](const char* name, double a, double b) {
    if (a == b) return;
    std::snprintf(buf, sizeof(buf), "%s recorded=%.6f replayed=%.6f; ", name,
                  a, b);
    os << buf;
  };
  if (rec_loop != rep_loop) {
    os << "loop recorded=" << rec_loop << " replayed=" << rep_loop << "; ";
  }
  field("t", rec.time, rep.time);
  field("y", rec.sensed_y, rep.sensed_y);
  field("raw_u", rec.raw_u, rep.raw_u);
  field("u", rec.clamped_u, rep.clamped_u);
  if (rec.outcome != rep.outcome) {
    os << "out recorded=" << static_cast<int>(rec.outcome)
       << " replayed=" << static_cast<int>(rep.outcome) << "; ";
  }
  std::string s = os.str();
  if (s.empty()) s = "line hashes differ (formatting-level drift); ";
  s.pop_back();  // trailing space
  s.pop_back();  // trailing ';'
  return s;
}

}  // namespace

DivergenceReport CompareReplay(const CaptureBundle& recorded,
                               const FlightRecorder& replayed) {
  DivergenceReport r;
  r.fingerprint_match = recorded.fingerprint == replayed.Fingerprint();
  r.recorded_total = recorded.total_decisions;
  r.replayed_total = replayed.total_decisions();

  const std::vector<RecordedDecision> rep = replayed.Decisions();
  const uint64_t rep_first = r.replayed_total - rep.size();
  auto find_replayed = [&](uint64_t index) -> const RecordedDecision* {
    if (index < rep_first || index >= r.replayed_total) return nullptr;
    return &rep[static_cast<size_t>(index - rep_first)];
  };

  if (r.replayed_total < r.recorded_total) r.diverged = true;

  // Step through the recorded decision tail, oldest first. The first
  // line-hash mismatch is *the* divergence point; a chain mismatch on a
  // matching line means the drift predates the retained tail.
  bool drift_before_tail = false;
  for (const RecordedDecision& rec : recorded.decisions) {
    if (rec.index >= r.recorded_total) continue;
    const RecordedDecision* cur = find_replayed(rec.index);
    const std::string& rec_loop = recorded.LoopName(rec.record.loop);
    if (cur == nullptr) {
      if (rec.index >= r.replayed_total) {
        r.diverged = true;
        r.has_first_mismatch = true;
        r.first_mismatch_index = rec.index;
        r.first_mismatch_time = rec.record.time;
        r.loop = rec_loop;
        r.detail = "replay ended before this decision";
        break;
      }
      continue;  // evicted from the replayed ring
    }
    if (cur->line_hash != rec.line_hash) {
      r.diverged = true;
      r.has_first_mismatch = true;
      r.first_mismatch_index = rec.index;
      r.first_mismatch_time = rec.record.time;
      r.loop = rec_loop;
      r.detail = DescribeMismatch(rec.record, rec_loop, cur->record,
                                  replayed.LoopName(cur->record.loop));
      break;
    }
    if (cur->chain != rec.chain) {
      r.diverged = true;
      drift_before_tail = true;
      break;
    }
  }

  // Chain verdict after exactly the recorded number of decisions (the
  // replay may legitimately run a few more same-instant steps).
  if (r.recorded_total > 0) {
    const RecordedDecision* last = find_replayed(r.recorded_total - 1);
    if (last != nullptr) {
      r.chain_match = last->chain == recorded.chain_hash;
    } else if (r.replayed_total == r.recorded_total) {
      r.chain_match = replayed.chain_hash() == recorded.chain_hash;
    } else if (r.replayed_total < r.recorded_total) {
      r.chain_match = false;
    }
    // (recorded index evicted from a larger replayed ring cannot happen
    // in practice: replay uses at-least-recorded capacities.)
  }
  if (!r.chain_match) r.diverged = true;

  // When the drift predates the retained tail, hash checkpoints can
  // still pin it to a window of `checkpoint_every` decisions.
  if (drift_before_tail || (!r.chain_match && !r.has_first_mismatch)) {
    bool have_good = false;
    HashCheckpoint last_good{};
    for (const HashCheckpoint& cp : recorded.checkpoints) {
      const RecordedDecision* cur = find_replayed(cp.index);
      if (cur == nullptr) continue;
      if (cur->chain == cp.chain) {
        last_good = cp;
        have_good = true;
        continue;
      }
      r.localized_by_checkpoint = true;
      r.suspect_window_start = have_good ? last_good.time : 0.0;
      r.suspect_window_end = cp.time;
      break;
    }
  }
  return r;
}

std::string DivergenceReport::ToString() const {
  std::ostringstream os;
  char buf[192];
  os << (diverged ? "DIVERGED" : "MATCH") << ": replayed " << replayed_total
     << " decisions against " << recorded_total << " recorded\n";
  os << "  fingerprint: " << (fingerprint_match ? "match" : "MISMATCH")
     << "  digest chain: " << (chain_match ? "match" : "MISMATCH") << "\n";
  if (has_first_mismatch) {
    std::snprintf(buf, sizeof(buf),
                  "  first mismatch: decision #%llu at t=%.3f loop=%s\n",
                  static_cast<unsigned long long>(first_mismatch_index),
                  first_mismatch_time, loop.c_str());
    os << buf;
    os << "    " << detail << "\n";
  }
  if (localized_by_checkpoint) {
    std::snprintf(buf, sizeof(buf),
                  "  drift predates the decision tail; checkpoint-localized "
                  "to t=[%.3f, %.3f]\n",
                  suspect_window_start, suspect_window_end);
    os << buf;
  }
  return os.str();
}

}  // namespace flower::obs::replay
