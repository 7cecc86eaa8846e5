#include "src/cache/footprint.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace affsched {

FootprintCache::FootprintCache(double capacity_blocks, size_t ways)
    : FootprintCore(capacity_blocks, ways, FootprintSlot{}) {}

CacheChunkResult FootprintCache::RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                                          double seconds) {
  AFF_CHECK(owner != kNoOwner);
  AFF_CHECK(seconds >= 0.0);
  CacheChunkResult result;
  if (seconds == 0.0) {
    return result;
  }

  const double w_eff = CappedResident(capacity(), ws.blocks);
  const double f = ResidentOf(owner);
  result.reload_misses = std::max(0.0, (w_eff - f) * TouchFraction(seconds, ws.buildup_tau_s));
  result.steady_misses = ws.steady_miss_per_s * seconds;

  // Every insertion lands in a (set-associatively constrained) location that
  // may hold another task's line, so other owners' footprints decay by
  // (1 - 1/C) per insertion even when the cache is not globally full. This
  // random-replacement approximation tracks the exact 2-way LRU cache far
  // better than a "fill free lines first" model, which both under-ejects in
  // mid regimes (set conflicts evict despite global free space) and
  // over-ejects in saturated ones (a streaming task also evicts its own
  // lines). Validated in tests/cache/footprint_vs_exact_test.cc. The running
  // task's own recent blocks are MRU and modelled as protected.
  const double new_self = std::min(w_eff, f + result.reload_misses);
  const double evicting = result.reload_misses + result.steady_misses;
  if (evicting > 0.0) {
    const double survival = std::pow(1.0 - 1.0 / capacity(), evicting);
    DecayOthers(owner, f, [survival](FootprintSlot& slot) { slot.resident *= survival; });
  }
  SettleRunning(owner, new_self);
  return result;
}

}  // namespace affsched
