// Partitioned (colored) cache model — the third substrate behind the
// CacheModel seam, alongside the analytic footprint model and the exact
// per-line simulation.
//
// The cache is divided into `num_colors` equal page-color slices (1..64) and
// every owner carries a reservation mask of the colors it may occupy. The
// working-set dynamics inside a reservation are exactly FootprintCache's —
// buildup curve, set-associative residency cap, random-replacement ejection —
// but evaluated against the *reserved* capacity only:
//
//   * An owner's effective working set is capped by the capacity of its
//     reserved colors, so a tight reservation trades steady-state capacity
//     misses for reload isolation.
//   * Insertions evict only on the colors the insertion can land in. Owners
//     whose reservations are disjoint from the running owner's are untouched
//     — that is the isolation guarantee the rt-color-iso policy buys — while
//     owners sharing colors are charged *interference evictions* explicitly,
//     proportional to the share of their footprint sitting on the contested
//     colors.
//   * A reservation of zero colors is legal and models a job scheduled with
//     no cache allocation at all: every touched block misses (always-cold),
//     nothing becomes resident, and no other owner is disturbed.
//
// With one color and all-ones masks the model reduces term-for-term to
// FootprintCache (pinned by tests/cache/partitioned_test.cc), so the
// partitioned substrate is a strict generalisation of the flat one.
//
// Representation. As in FootprintCache, owners are the engine's dense worker
// ids, so all per-owner state — resident footprint (0 meaning absent),
// interference suffered and reservation mask (all colors until reserved) —
// sits in one table indexed by owner id, plus a list of the resident owners
// kept in insertion order. A chunk costs O(live owners) with no hashing and
// no allocation in steady state: the eviction survival factor is computed at
// most once per distinct shared-color count, and the residency cap and the
// buildup fraction are memoised on the exact bits of their inputs.

#ifndef SRC_CACHE_PARTITIONED_H_
#define SRC_CACHE_PARTITIONED_H_

#include <cstdint>
#include <vector>

#include "src/cache/cache_model.h"

namespace affsched {

// A set of reserved cache colors, one bit per color (bit i = color i).
using ColorMask = uint64_t;

inline constexpr ColorMask kAllColors = ~0ull;

// The mask of the first `num_colors` colors.
constexpr ColorMask FullColorMask(size_t num_colors) {
  return num_colors >= 64 ? kAllColors : ((1ull << num_colors) - 1);
}

class PartitionedCacheModel final : public CacheModel {
 public:
  PartitionedCacheModel(double capacity_blocks, size_t ways, size_t num_colors);

  // --- Color reservations ---------------------------------------------------

  // Reserves the colors in `mask` (trimmed to the machine's color count) for
  // `owner`. Owners without an explicit reservation default to all colors,
  // which makes the substrate behave like a (coarser-grained) FootprintCache.
  void ReserveColors(CacheOwner owner, ColorMask mask);

  ColorMask ReservedColors(CacheOwner owner) const;

  size_t num_colors() const { return num_colors_; }

  // Capacity of one color slice, in blocks.
  double ColorCapacity() const { return capacity_ / static_cast<double>(num_colors_); }

  // Capacity of a reservation, in blocks.
  double ReservedCapacity(ColorMask mask) const;

  // --- Interference accounting ---------------------------------------------

  // Total blocks evicted from owners *other* than the running one by chunk
  // insertions on shared colors, since construction — the quantity color
  // isolation drives to zero.
  double interference_evictions() const { return interference_evictions_; }

  // Interference evictions suffered by one owner.
  double InterferenceOn(CacheOwner owner) const;

  // --- CacheModel -----------------------------------------------------------

  CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                            double seconds) override;
  double Resident(CacheOwner owner) const override;
  double Occupied() const override { return occupied_; }
  double capacity() const override { return capacity_; }
  // Full-cache residency cap (reservation-independent), so policy-side reload
  // scoring is comparable across owners with different reservations.
  double MaxResident(double blocks) const override;
  void Flush() override;
  void EjectFraction(CacheOwner owner, double fraction) override;
  void EjectBlocks(CacheOwner owner, double blocks) override;
  double Invalidate(CacheOwner owner, double up_to) override;
  void ReplaceOwnerData(CacheOwner owner, double keep_fraction) override;
  void RemoveOwner(CacheOwner owner) override;

  // Test hook: force a resident footprint.
  void SetResident(CacheOwner owner, double blocks);

  // Test hook: size of the owner-indexed table (queries and invalidations of
  // absent owners must not grow it).
  size_t table_size() const { return owners_.size(); }

 private:
  struct OwnerSlot {
    double resident;      // 0 means absent
    double interference;  // survives RemoveOwner, like the running total
    ColorMask mask;       // FullColorMask(num_colors_) until reserved
  };

  // The slot of `owner`, growing the table to reach it.
  OwnerSlot& Slot(CacheOwner owner);
  void SetResidentInternal(CacheOwner owner, double blocks);
  // ExpectedMaxResident(capacity, ways_, blocks), memoised.
  double CappedResident(double capacity, double blocks);

  double capacity_;
  size_t ways_;
  size_t num_colors_;
  ColorMask full_mask_;
  double occupied_ = 0.0;
  double interference_evictions_ = 0.0;
  std::vector<OwnerSlot> owners_;
  // Owners with a non-zero footprint, in insertion order.
  std::vector<CacheOwner> live_;

  // RunChunk memos, keyed on the exact bits of their inputs: consecutive
  // chunks almost always repeat the reservation, the working set and the
  // chunk length. The initial values are already a valid entry
  // (ExpectedMaxResident of -1 blocks is 0, and a non-positive tau touches
  // the whole working set).
  double memo_capacity_ = 0.0;
  double memo_blocks_ = -1.0;
  double memo_w_eff_ = 0.0;
  double memo_seconds_ = -1.0;
  double memo_tau_ = -1.0;
  double memo_touch_ = 1.0;
};

}  // namespace affsched

#endif  // SRC_CACHE_PARTITIONED_H_
