#ifndef FLOWER_STORM_TOPOLOGY_H_
#define FLOWER_STORM_TOPOLOGY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"
#include "common/vec_deque.h"

namespace flower::storm {

/// A unit of data flowing through a topology. `origin_time` is stamped
/// when the tuple enters the topology (spout emission) and is used to
/// measure complete latency; `entity_id` carries the application key
/// (e.g. the clicked URL id).
struct Tuple {
  SimTime origin_time = 0.0;
  int64_t entity_id = 0;
  int32_t size_bytes = 256;
  /// Application value: 1.0 for raw events, an aggregate (e.g. a window
  /// count) for tuples emitted by aggregating bolts.
  double value = 1.0;
  /// Which stream/spout the tuple originated from (the spout's index in
  /// declaration order) — lets join bolts distinguish their inputs.
  int32_t source = 0;
};

/// Application logic of one bolt, in one of two equivalent forms. A
/// bolt overrides exactly one of them; each default runs the other, and
/// a bolt that overrides neither aborts on its first input.
///
/// - `Execute` runs one input tuple and pushes its outputs through
///   `emit`.
/// - `ExecuteBatch` runs the inputs `in[0 .. n)` in order and appends
///   their outputs to `*out`. The cluster calls it once per contiguous
///   run of a bolt's input (its backlog, then the tick's arrivals),
///   with every tuple the tick's budget admits.
///
/// A retryable status (e.g. Throttled from a storage sink) leaves its
/// tuple queued and pauses this bolt until the next scheduler tick —
/// backpressure from the storage layer into the analytics layer.
/// Any other failure consumes the tuple.
class BoltLogic {
 public:
  virtual ~BoltLogic() = default;

  virtual Status Execute(const Tuple& input, SimTime now,
                         const std::function<void(Tuple)>& emit);

  /// Returns how many inputs were consumed: `n`, or the index of the
  /// first input whose status is retryable (that input and the rest are
  /// not run). `*status` receives the first non-OK status of the inputs
  /// run, and is left untouched when all of them succeed.
  virtual size_t ExecuteBatch(const Tuple* in, size_t n, SimTime now,
                              VecDeque<Tuple>* out, Status* status);

 private:
  /// Outputs of one default `Execute`, reused across calls.
  VecDeque<Tuple> execute_out_;
  /// Set while the default `Execute` runs `ExecuteBatch`: the default
  /// `ExecuteBatch` finding it set means neither form is overridden.
  bool in_default_execute_ = false;
};

/// Stateless pass-through logic with fixed selectivity: every input
/// emits `selectivity` outputs on average (fractional selectivity
/// accumulates; e.g. 0.25 emits one tuple every four inputs).
class StatelessBolt final : public BoltLogic {
 public:
  explicit StatelessBolt(double selectivity = 1.0)
      : selectivity_(selectivity) {}
  size_t ExecuteBatch(const Tuple* in, size_t n, SimTime now,
                      VecDeque<Tuple>* out, Status* status) override;

 private:
  double selectivity_;
  double pending_emits_ = 0.0;
};

/// Declaration of one bolt: name, per-tuple CPU cost (abstract work
/// units, matched against the cluster's compute capacity), and logic.
struct BoltSpec {
  std::string name;
  double cpu_cost_per_tuple = 1000.0;
  std::shared_ptr<BoltLogic> logic;
};

/// A spout's pull function: appends up to `max` tuples from the
/// upstream source to `*out` (the flow layer wires this to Kinesis
/// GetRecordsInto). The caller owns and clears the buffer, so a
/// steady-state pull reuses warm capacity instead of allocating a
/// fresh vector per tick.
using SpoutFn = std::function<void(size_t max, std::vector<Tuple>* out)>;

/// A DAG of spouts and bolts.
///
/// Build with `AddSpout` (one or more) then `AddBolt(spec, parents)`,
/// where each parent names a spout or a previously added bolt — so the
/// topology supports fan-out (one parent, many children), fan-in /
/// joins (one bolt, many parents), and multiple source streams. The
/// topology owns per-bolt input queues; execution is driven by the
/// Cluster's scheduler ticks.
class Topology {
 public:
  explicit Topology(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a source stream. Errors: duplicate name or null function.
  Status AddSpout(std::string name, SpoutFn fn,
                  double cpu_cost_per_tuple = 100.0);

  /// Single-spout convenience (legacy name). Errors if a spout already
  /// exists — use AddSpout for multi-stream topologies.
  Status SetSpout(std::string name, SpoutFn fn,
                  double cpu_cost_per_tuple = 100.0);

  /// Adds a bolt consuming from each component in `parents` (spout or
  /// previously added bolt names; "" means the sole spout). Errors:
  /// duplicate name, unknown/later parent, empty parents, missing
  /// logic, or a topology already submitted to a cluster.
  Status AddBolt(BoltSpec spec, const std::vector<std::string>& parents);
  /// Single-parent convenience; "" = the sole spout.
  Status AddBolt(BoltSpec spec, const std::string& parent = "");

  bool HasSpout() const { return !spouts_.empty(); }
  size_t spout_count() const { return spouts_.size(); }
  size_t bolt_count() const { return bolts_.size(); }

  /// Total tuples buffered in all bolt input queues.
  size_t PendingTuples() const;

  /// Per-bolt pending queue length, by bolt declaration order.
  std::vector<std::pair<std::string, size_t>> QueueLengths() const;

 private:
  friend class Cluster;

  struct SpoutNode {
    std::string name;
    SpoutFn fn;
    double cost = 100.0;
    /// Bolt indices consuming this spout's output, in declaration
    /// order. Maintained by AddBolt so the scheduler tick never scans.
    std::vector<size_t> subscribers;
  };
  struct BoltNode {
    BoltSpec spec;
    /// Parent references: spout index (< 0: encoded as -1 - idx) or
    /// bolt index (>= 0).
    std::vector<int> parents;
    /// Bolt indices consuming this bolt's output (always greater than
    /// this bolt's own index — the DAG is built in topological order).
    /// Maintained by AddBolt, deduplicated.
    std::vector<size_t> children;
    /// Backlog: the inputs earlier ticks left over (over budget or
    /// throttled). A tick's arrivals join it only behind a backlog.
    VecDeque<Tuple> queue;
    uint64_t executed = 0;

    bool HasSpoutParent(int spout_idx) const {
      for (int p : parents) {
        if (p == -1 - spout_idx) return true;
      }
      return false;
    }
    bool HasBoltParent(int bolt_idx) const {
      for (int p : parents) {
        if (p == bolt_idx) return true;
      }
      return false;
    }
  };

  int FindBolt(const std::string& name) const;
  int FindSpout(const std::string& name) const;

  std::string name_;
  std::vector<SpoutNode> spouts_;
  std::vector<BoltNode> bolts_;  // In topological (declaration) order.
  /// Set by Cluster::Submit; the bolt set is fixed from then on.
  bool submitted_ = false;
};

}  // namespace flower::storm

#endif  // FLOWER_STORM_TOPOLOGY_H_
