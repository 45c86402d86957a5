#ifndef FLOWER_BENCH_ALLOC_COUNTER_H_
#define FLOWER_BENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace flower::bench {

/// Heap allocations this process has made so far. A binary that links
/// alloc_counter.cpp replaces the global operator new with one that
/// counts (a relaxed atomic increment), so an allocation guard reads
/// the count before and after the code it checks.
uint64_t AllocationCount();

}  // namespace flower::bench

#endif  // FLOWER_BENCH_ALLOC_COUNTER_H_
