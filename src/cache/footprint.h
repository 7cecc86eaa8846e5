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
// Representation. Owners are the engine's dense worker ids (1..N), so the
// residency table is a plain vector indexed by owner id, 0 meaning absent,
// plus a list of the present owners kept in insertion order. A chunk costs
// O(live owners) with no hashing and no allocation in steady state, and the
// decay loop visits owners in insertion order, independent of any container's
// internal layout.

#ifndef SRC_CACHE_FOOTPRINT_H_
#define SRC_CACHE_FOOTPRINT_H_

#include <vector>

#include "src/cache/cache_model.h"

namespace affsched {

class FootprintCache final : public CacheModel {
 public:
  // Owner ids must stay below this bound: the residency table is indexed by
  // owner id, so a stray id fails a check instead of growing the table to
  // gigabytes.
  static constexpr CacheOwner kMaxOwner = CacheOwner{1} << 22;

  explicit FootprintCache(double capacity_blocks, size_t ways = 2);

  // Maximum resident footprint a working set of `blocks` distinct blocks can
  // achieve in this cache (ExpectedMaxResident: Poisson set occupancy).
  // Matches the exact 2-way cache's self-conflict behaviour (validated in
  // tests).
  double MaxResident(double blocks) const override;

  // Evolves the cache as `owner` executes for `seconds` of useful time.
  CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                            double seconds) override;

  // Current resident footprint of `owner`, in blocks.
  double Resident(CacheOwner owner) const override;

  // Total resident blocks across owners.
  double Occupied() const override { return occupied_; }

  double capacity() const override { return capacity_; }

  // Invalidates the entire cache (the Section 4 "migrating" treatment).
  void Flush() override;

  // Removes `fraction` (in [0,1]) of `owner`'s footprint.
  void EjectFraction(CacheOwner owner, double fraction) override;

  // Removes up to `blocks` of `owner`'s footprint (coherence invalidations
  // arriving from another processor's cache).
  void EjectBlocks(CacheOwner owner, double blocks) override;

  // EjectBlocks(owner, min(up_to, Resident(owner))) in one call.
  double Invalidate(CacheOwner owner, double up_to) override;

  // Models thread turnover within a worker: the next thread reuses only
  // `keep_fraction` of the worker's current data; the rest is dead and its
  // lines are released.
  void ReplaceOwnerData(CacheOwner owner, double keep_fraction) override;

  // Removes all state for `owner` (task exit).
  void RemoveOwner(CacheOwner owner) override;

  // Test hook: force a resident footprint.
  void SetResident(CacheOwner owner, double blocks);

  // Test hook: size of the owner-indexed residency table (queries and
  // invalidations of absent owners must not grow it).
  size_t table_size() const { return resident_.size(); }

 private:
  void SetResidentInternal(CacheOwner owner, double blocks);

  double capacity_;
  size_t ways_;
  double occupied_ = 0.0;
  // resident_[owner] is the owner's footprint; 0 means absent.
  std::vector<double> resident_;
  // Owners with a non-zero footprint, in insertion order.
  std::vector<CacheOwner> live_;

  // RunChunk memos, keyed on the exact bits of their inputs: consecutive
  // chunks almost always repeat the working set and the chunk length. The
  // initial values are already a valid entry (MaxResident(-1) is 0, and a
  // non-positive tau touches the whole working set).
  double memo_blocks_ = -1.0;
  double memo_w_eff_ = 0.0;
  double memo_seconds_ = -1.0;
  double memo_tau_ = -1.0;
  double memo_touch_ = 1.0;
};

}  // namespace affsched

#endif  // SRC_CACHE_FOOTPRINT_H_
