#include "src/cache/partitioned.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "src/cache/footprint.h"
#include "src/common/check.h"

namespace affsched {

namespace {

size_t PopCount(ColorMask mask) { return static_cast<size_t>(std::popcount(mask)); }

}  // namespace

PartitionedCacheModel::PartitionedCacheModel(double capacity_blocks, size_t ways,
                                             size_t num_colors)
    : capacity_(capacity_blocks),
      ways_(ways),
      num_colors_(num_colors),
      full_mask_(FullColorMask(num_colors)) {
  AFF_CHECK(capacity_ > 0.0);
  AFF_CHECK(ways_ >= 1);
  AFF_CHECK_MSG(num_colors_ >= 1 && num_colors_ <= 64, "num_colors must be in 1..64");
}

PartitionedCacheModel::OwnerSlot& PartitionedCacheModel::Slot(CacheOwner owner) {
  if (owner >= owners_.size()) {
    AFF_CHECK(owner < FootprintCache::kMaxOwner);
    owners_.resize(owner + 1, OwnerSlot{0.0, 0.0, full_mask_});
  }
  return owners_[owner];
}

void PartitionedCacheModel::ReserveColors(CacheOwner owner, ColorMask mask) {
  AFF_CHECK(owner != kNoOwner);
  Slot(owner).mask = mask & full_mask_;
}

ColorMask PartitionedCacheModel::ReservedColors(CacheOwner owner) const {
  return owner < owners_.size() ? owners_[owner].mask : full_mask_;
}

double PartitionedCacheModel::ReservedCapacity(ColorMask mask) const {
  return ColorCapacity() * static_cast<double>(PopCount(mask & full_mask_));
}

double PartitionedCacheModel::InterferenceOn(CacheOwner owner) const {
  return owner < owners_.size() ? owners_[owner].interference : 0.0;
}

double PartitionedCacheModel::MaxResident(double blocks) const {
  return ExpectedMaxResident(capacity_, ways_, blocks);
}

double PartitionedCacheModel::Resident(CacheOwner owner) const {
  return owner < owners_.size() ? owners_[owner].resident : 0.0;
}

void PartitionedCacheModel::SetResidentInternal(CacheOwner owner, double blocks) {
  const double old = Resident(owner);
  occupied_ += blocks - old;
  if (blocks <= 0.0) {
    if (old != 0.0) {
      owners_[owner].resident = 0.0;
      live_.erase(std::find(live_.begin(), live_.end(), owner));
    }
    return;
  }
  OwnerSlot& slot = Slot(owner);
  if (old == 0.0) {
    live_.push_back(owner);
  }
  slot.resident = blocks;
}

void PartitionedCacheModel::SetResident(CacheOwner owner, double blocks) {
  AFF_CHECK(blocks >= 0.0 && blocks <= capacity_);
  SetResidentInternal(owner, blocks);
}

double PartitionedCacheModel::CappedResident(double capacity, double blocks) {
  if (!SameBits(capacity, memo_capacity_) || !SameBits(blocks, memo_blocks_)) {
    memo_capacity_ = capacity;
    memo_blocks_ = blocks;
    memo_w_eff_ = ExpectedMaxResident(capacity, ways_, blocks);
  }
  return memo_w_eff_;
}

CacheChunkResult PartitionedCacheModel::RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                                                 double seconds) {
  AFF_CHECK(owner != kNoOwner);
  AFF_CHECK(seconds >= 0.0);
  CacheChunkResult result;
  if (seconds == 0.0) {
    return result;
  }

  const ColorMask mask = ReservedColors(owner);
  if (!SameBits(seconds, memo_seconds_) || !SameBits(ws.buildup_tau_s, memo_tau_)) {
    memo_seconds_ = seconds;
    memo_tau_ = ws.buildup_tau_s;
    memo_touch_ =
        ws.buildup_tau_s > 0.0 ? 1.0 - std::exp(-seconds / ws.buildup_tau_s) : 1.0;
  }
  const double touch_fraction = memo_touch_;
  result.steady_misses = ws.steady_miss_per_s * seconds;

  // Zero reserved colors: always-cold. Every distinct block the chunk touches
  // misses, nothing survives, and — with nowhere to insert — no other owner's
  // footprint is disturbed.
  if (mask == 0) {
    result.reload_misses = CappedResident(capacity_, ws.blocks) * touch_fraction;
    SetResidentInternal(owner, 0.0);
    return result;
  }

  const size_t n_own = PopCount(mask);
  const double w_eff = CappedResident(ReservedCapacity(mask), ws.blocks);
  const double f = Resident(owner);
  result.reload_misses = std::max(0.0, (w_eff - f) * touch_fraction);

  // FootprintCache's random-replacement ejection, restricted to the colors an
  // insertion can actually land in. The running owner's insertions spread
  // uniformly over its n_own reserved colors; a victim with footprint r on
  // n_o colors keeps r * n_sh / n_o blocks on the n_sh contested colors, and
  // each of the evicting insertions directed at those colors (a n_sh / n_own
  // share) sweeps a slice of capacity C_shared. Disjoint reservations are
  // untouched: the isolation guarantee.
  const double new_self = std::min(w_eff, f + result.reload_misses);
  const double evicting = result.reload_misses + result.steady_misses;
  if (evicting > 0.0 && !live_.empty()) {
    // Within a chunk, a victim's 1 - survival depends only on its shared-color
    // count n_sh, so it is computed once per count, on first use (bit
    // n_sh - 1 of `have_loss` marks it).
    std::array<double, 64> loss_by_shared{};
    uint64_t have_loss = 0;
    double others = 0.0;
    // Decay in insertion order, compacting dropped owners out in place.
    size_t kept = 0;
    for (const CacheOwner o : live_) {
      if (o != owner) {
        OwnerSlot& victim = owners_[o];
        const ColorMask shared = victim.mask & mask;
        if (shared != 0) {
          const size_t n_sh = PopCount(shared);
          const uint64_t bit = uint64_t{1} << (n_sh - 1);
          if ((have_loss & bit) == 0) {
            const double shared_capacity = ColorCapacity() * static_cast<double>(n_sh);
            const double directed =
                evicting * static_cast<double>(n_sh) / static_cast<double>(n_own);
            loss_by_shared[n_sh - 1] = 1.0 - std::pow(1.0 - 1.0 / shared_capacity, directed);
            have_loss |= bit;
          }
          const double vulnerable = victim.resident * static_cast<double>(n_sh) /
                                    static_cast<double>(PopCount(victim.mask));
          const double lost = vulnerable * loss_by_shared[n_sh - 1];
          victim.resident -= lost;
          interference_evictions_ += lost;
          victim.interference += lost;
        }
        if (victim.resident < 1e-9) {
          victim.resident = 0.0;
          continue;
        }
        others += victim.resident;
      }
      live_[kept++] = o;
    }
    live_.resize(kept);
    occupied_ = others + f;
  }
  SetResidentInternal(owner, new_self);

  // Numerical safety: keep total occupancy within capacity by squeezing the
  // owners other than the one that just ran.
  if (occupied_ > capacity_) {
    const double excess = occupied_ - capacity_;
    double others = occupied_ - new_self;
    if (others > 0.0) {
      const double scale = std::max(0.0, (others - excess) / others);
      size_t kept = 0;
      for (const CacheOwner o : live_) {
        if (o != owner) {
          double& blocks = owners_[o].resident;
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
      SetResidentInternal(owner, std::min(capacity_, new_self));
    }
  }
  return result;
}

void PartitionedCacheModel::Flush() {
  for (const CacheOwner o : live_) {
    owners_[o].resident = 0.0;
  }
  live_.clear();
  occupied_ = 0.0;
}

void PartitionedCacheModel::EjectFraction(CacheOwner owner, double fraction) {
  AFF_CHECK(fraction >= 0.0 && fraction <= 1.0);
  SetResidentInternal(owner, Resident(owner) * (1.0 - fraction));
}

void PartitionedCacheModel::EjectBlocks(CacheOwner owner, double blocks) {
  AFF_CHECK(blocks >= 0.0);
  SetResidentInternal(owner, std::max(0.0, Resident(owner) - blocks));
}

double PartitionedCacheModel::Invalidate(CacheOwner owner, double up_to) {
  AFF_CHECK(up_to >= 0.0);
  const double old = Resident(owner);
  const double eject = std::min(up_to, old);
  SetResidentInternal(owner, old - eject);
  return eject;
}

void PartitionedCacheModel::ReplaceOwnerData(CacheOwner owner, double keep_fraction) {
  AFF_CHECK(keep_fraction >= 0.0 && keep_fraction <= 1.0);
  SetResidentInternal(owner, Resident(owner) * keep_fraction);
}

void PartitionedCacheModel::RemoveOwner(CacheOwner owner) {
  SetResidentInternal(owner, 0.0);
  if (owner < owners_.size()) {
    owners_[owner].mask = full_mask_;
  }
}

}  // namespace affsched
