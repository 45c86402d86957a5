#ifndef FLOWER_EXEC_SUB_RNG_H_
#define FLOWER_EXEC_SUB_RNG_H_

#include <cstdint>

#include "common/random.h"

namespace flower::exec {

/// Derives a statistically independent child seed for the
/// (stream, index) cell of a master seed. Two cells collide only if
/// SplitMix64 does, so per-task generators seeded this way are
/// effectively independent streams.
uint64_t DeriveSeed(uint64_t master_seed, uint64_t stream, uint64_t index);

/// Child generator for the (stream, index) cell of a master seed.
///
/// This is the determinism primitive of the parallel planners: a task
/// that draws from SubRng(seed, stream, index) produces the same
/// sequence no matter which thread runs it or how work is chunked, so
/// a parallel sweep whose tasks use only their own sub-generator is
/// bit-identical at any thread count. Convention: `stream` identifies
/// the sweep (e.g. an NSGA-II generation) and `index` the task within
/// it (e.g. an offspring pair).
Rng SubRng(uint64_t master_seed, uint64_t stream, uint64_t index);

}  // namespace flower::exec

#endif  // FLOWER_EXEC_SUB_RNG_H_
