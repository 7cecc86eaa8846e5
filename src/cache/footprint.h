// Working-set "footprint" cache model.
//
// This is the cache substrate the scheduling experiments run on. Instead of
// simulating each memory reference, it tracks — per processor cache — how many
// blocks of each task's working set are resident, and evolves those footprints
// when a task executes:
//
//   * A task's references follow a working-set curve: in `d` seconds of useful
//     execution it touches u(d) = W * (1 - exp(-d / theta)) distinct blocks
//     of its working set of W blocks. If a fraction of the working set is not
//     resident (the task migrated, or an intervening task ejected its data),
//     the touched-but-absent blocks are *reload misses*:
//         reload(d) = (W_eff - f) * (1 - exp(-d / theta)),
//     where f is the current resident footprint and W_eff = min(W, capacity).
//   * W_eff = MaxResident(W): set-associative self-conflict caps how much of
//     a working set can be resident at once (Poisson occupancy per set).
//   * Independent of reloads, the task incurs *steady-state misses* at rate m
//     per second (capacity/conflict/coherence misses of its own algorithm;
//     near zero for cache-blocked MATRIX).
//   * Every insertion lands in a set that may hold another task's line, so
//     other owners' footprints decay by (1 - 1/C) per insertion — even when
//     the cache is not globally full. The running task's own recent blocks
//     are most-recently-used and modelled as protected.
//
// These dynamics reproduce the paper's Table 1 phenomenology: the penalty for
// resuming without affinity grows with rescheduling interval Q (more blocks
// touched per interval => more to reload), and the penalty *with* affinity
// also grows with Q (the intervening task runs longer and ejects more).
// The exponential-ejection approximation is validated against ExactCache in
// tests/cache/footprint_vs_exact_test.cc and bench/bench_calibration_cache.cc.
//
// Representation. The owner table, the eject family, the capacity squeeze
// and the chunk memos are FootprintCore's (footprint_core.h); a slot holds
// only the resident footprint, and this model adds the uniform decay rule
// above.

#ifndef SRC_CACHE_FOOTPRINT_H_
#define SRC_CACHE_FOOTPRINT_H_

#include "src/cache/footprint_core.h"

namespace affsched {

struct FootprintSlot {
  double resident = 0.0;  // 0 means absent
};

class FootprintCache final : public FootprintCore<FootprintSlot> {
 public:
  explicit FootprintCache(double capacity_blocks, size_t ways = 2);

  // Evolves the cache as `owner` executes for `seconds` of useful time.
  CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                            double seconds) override;
};

}  // namespace affsched

#endif  // SRC_CACHE_FOOTPRINT_H_
