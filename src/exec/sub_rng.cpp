#include "exec/sub_rng.h"

namespace flower::exec {

uint64_t DeriveSeed(uint64_t master_seed, uint64_t stream, uint64_t index) {
  // Sequential splitmix steps keep (stream, index) cells distinct even
  // when stream == index or either is 0.
  uint64_t h = SplitMix64(master_seed);
  h = SplitMix64(h ^ (stream + kSplitMix64Gamma));
  h = SplitMix64(h ^ (index + 0xD1B54A32D192ED03ull));
  return h;
}

Rng SubRng(uint64_t master_seed, uint64_t stream, uint64_t index) {
  return Rng(DeriveSeed(master_seed, stream, index));
}

}  // namespace flower::exec
