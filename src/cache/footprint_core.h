// FootprintCore: the owner table, eject path and chunk skeleton shared by
// the analytic working-set substrates, FootprintCache (footprint.h) and
// PartitionedCacheModel (partitioned.h).
//
// Owners are the engine's dense worker ids, so all per-owner state sits in
// one vector of `Slot` records indexed by owner id — `Slot::resident` is the
// footprint, 0 meaning absent — plus a list of the resident owners kept in
// insertion order. The core owns occupancy, the eject family, the capacity
// squeeze and the chunk memos. A substrate supplies only its slot record
// (any further per-owner fields ride in it) and its RunChunk, which computes
// the running owner's reload and hands its per-victim decay rule to
// DecayOthers. A chunk costs O(live owners) with no hashing and no
// allocation in steady state, and decay visits owners in insertion order,
// independent of any container's internal layout.
//
// The core's own paths read residency through the non-virtual ResidentOf and
// its overrides are final, so a final substrate resolves every call
// statically.

#ifndef SRC_CACHE_FOOTPRINT_CORE_H_
#define SRC_CACHE_FOOTPRINT_CORE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "src/cache/cache_model.h"
#include "src/common/check.h"

namespace affsched {

template <typename Slot>
class FootprintCore : public CacheModel {
 public:
  double Resident(CacheOwner owner) const final { return ResidentOf(owner); }
  double Occupied() const final { return occupied_; }
  double capacity() const final { return capacity_; }

  // Full-cache residency cap of a working set of `blocks` distinct blocks
  // (ExpectedMaxResident: Poisson set occupancy), whatever the substrate
  // restricts an owner to, so policy-side reload scoring is comparable across
  // owners.
  double MaxResident(double blocks) const final {
    return ExpectedMaxResident(capacity_, ways_, blocks);
  }

  void Flush() final {
    for (const CacheOwner o : live_) {
      slots_[o].resident = 0.0;
    }
    live_.clear();
    occupied_ = 0.0;
  }

  void EjectFraction(CacheOwner owner, double fraction) final {
    AFF_CHECK(fraction >= 0.0 && fraction <= 1.0);
    SetResidentInternal(owner, ResidentOf(owner) * (1.0 - fraction));
  }

  void EjectBlocks(CacheOwner owner, double blocks) final {
    AFF_CHECK(blocks >= 0.0);
    SetResidentInternal(owner, std::max(0.0, ResidentOf(owner) - blocks));
  }

  // EjectBlocks(owner, min(up_to, Resident(owner))). An owner that stays
  // resident costs one slot access, with SetResidentInternal's arithmetic;
  // one that drops to 0, or is absent, takes the general path.
  double Invalidate(CacheOwner owner, double up_to) final {
    AFF_CHECK(up_to >= 0.0);
    if (owner < slots_.size()) {
      double& resident = slots_[owner].resident;
      const double old = resident;
      const double eject = std::min(up_to, old);
      const double blocks = old - eject;
      if (blocks > 0.0) {
        occupied_ += blocks - old;
        resident = blocks;
        return eject;
      }
    }
    const double old = ResidentOf(owner);
    const double eject = std::min(up_to, old);
    SetResidentInternal(owner, old - eject);
    return eject;
  }

  void ReplaceOwnerData(CacheOwner owner, double keep_fraction) final {
    AFF_CHECK(keep_fraction >= 0.0 && keep_fraction <= 1.0);
    SetResidentInternal(owner, ResidentOf(owner) * keep_fraction);
  }

  void RemoveOwner(CacheOwner owner) override { SetResidentInternal(owner, 0.0); }

  // Test hook: force a resident footprint.
  void SetResident(CacheOwner owner, double blocks) {
    AFF_CHECK(blocks >= 0.0 && blocks <= capacity_);
    SetResidentInternal(owner, blocks);
  }

  // Test hook: size of the owner-indexed table (queries and invalidations of
  // absent owners must not grow it).
  size_t table_size() const { return slots_.size(); }

 protected:
  // `empty` is the slot of an owner the table has never seen; its resident
  // footprint must be 0.
  FootprintCore(double capacity_blocks, size_t ways, const Slot& empty)
      : capacity_(capacity_blocks), ways_(ways), empty_(empty) {
    AFF_CHECK(capacity_ > 0.0);
    AFF_CHECK(ways_ >= 1);
    AFF_CHECK(empty_.resident == 0.0);
  }

  double ResidentOf(CacheOwner owner) const { return SlotOf(owner).resident; }

  // The slot of `owner`, or the empty slot past the end of the table.
  const Slot& SlotOf(CacheOwner owner) const {
    return owner < slots_.size() ? slots_[owner] : empty_;
  }

  // The slot of `owner`, growing the table to reach it.
  Slot& MutableSlot(CacheOwner owner) {
    if (owner >= slots_.size()) {
      AFF_CHECK(owner < kMaxCacheOwner);
      slots_.resize(owner + 1, empty_);
    }
    return slots_[owner];
  }

  void SetResidentInternal(CacheOwner owner, double blocks) {
    const double old = ResidentOf(owner);
    occupied_ += blocks - old;
    if (blocks <= 0.0) {
      if (old != 0.0) {
        slots_[owner].resident = 0.0;
        live_.erase(std::find(live_.begin(), live_.end(), owner));
      }
      return;
    }
    Slot& slot = MutableSlot(owner);
    if (old == 0.0) {
      live_.push_back(owner);
    }
    slot.resident = blocks;
  }

  // 1 - exp(-seconds / tau), the fraction of the working set a chunk
  // touches (all of it for a non-positive tau), memoised.
  double TouchFraction(double seconds, double tau) {
    if (!SameBits(seconds, memo_seconds_) || !SameBits(tau, memo_tau_)) {
      memo_seconds_ = seconds;
      memo_tau_ = tau;
      memo_touch_ = tau > 0.0 ? 1.0 - std::exp(-seconds / tau) : 1.0;
    }
    return memo_touch_;
  }

  // ExpectedMaxResident(capacity, ways, blocks), memoised.
  double CappedResident(double capacity, double blocks) {
    if (!SameBits(capacity, memo_capacity_) || !SameBits(blocks, memo_blocks_)) {
      memo_capacity_ = capacity;
      memo_blocks_ = blocks;
      memo_w_eff_ = ExpectedMaxResident(capacity, ways_, blocks);
    }
    return memo_w_eff_;
  }

  // The decay step of a chunk run by `running`, whose footprint is still
  // `running_resident`: applies `decay(slot)` to every other live owner in
  // insertion order, drops those left below 1e-9 blocks (compacting the live
  // list in place), and sets occupancy to the survivors plus the running
  // owner.
  template <typename Decay>
  void DecayOthers(CacheOwner running, double running_resident, Decay&& decay) {
    if (live_.empty()) {
      return;
    }
    double others = 0.0;
    size_t kept = 0;
    for (const CacheOwner o : live_) {
      if (o != running) {
        Slot& slot = slots_[o];
        decay(slot);
        if (slot.resident < 1e-9) {
          slot.resident = 0.0;
          continue;
        }
        others += slot.resident;
      }
      live_[kept++] = o;
    }
    live_.resize(kept);
    occupied_ = others + running_resident;
  }

  // Ends a chunk: sets the running owner's footprint to `new_self`, then
  // (numerical safety) keeps total occupancy within capacity by squeezing
  // the other owners.
  void SettleRunning(CacheOwner running, double new_self) {
    SetResidentInternal(running, new_self);
    if (occupied_ <= capacity_) {
      return;
    }
    const double excess = occupied_ - capacity_;
    const double others = occupied_ - new_self;
    if (others > 0.0) {
      const double scale = std::max(0.0, (others - excess) / others);
      size_t kept = 0;
      for (const CacheOwner o : live_) {
        if (o != running) {
          double& blocks = slots_[o].resident;
          blocks *= scale;
          if (blocks == 0.0) {
            continue;  // squeezed out entirely: now absent
          }
        }
        live_[kept++] = o;
      }
      live_.resize(kept);
      occupied_ = new_self + others * scale;
    } else {
      SetResidentInternal(running, capacity_);
    }
  }

 private:
  double capacity_;
  size_t ways_;
  Slot empty_;
  double occupied_ = 0.0;
  std::vector<Slot> slots_;
  // Owners with a non-zero footprint, in insertion order.
  std::vector<CacheOwner> live_;

  // Chunk memos, keyed on the exact bits of their inputs: consecutive chunks
  // almost always repeat the working set, the capacity it is capped by and
  // the chunk length. The initial values are already a valid entry
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

#endif  // SRC_CACHE_FOOTPRINT_CORE_H_
