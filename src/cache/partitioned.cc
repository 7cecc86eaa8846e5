#include "src/cache/partitioned.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "src/common/check.h"

namespace affsched {

namespace {

size_t PopCount(ColorMask mask) { return static_cast<size_t>(std::popcount(mask)); }

}  // namespace

PartitionedCacheModel::PartitionedCacheModel(double capacity_blocks, size_t ways,
                                             size_t num_colors)
    : FootprintCore(capacity_blocks, ways, ColorSlot{0.0, 0.0, FullColorMask(num_colors)}),
      num_colors_(num_colors),
      full_mask_(FullColorMask(num_colors)) {
  AFF_CHECK_MSG(num_colors_ >= 1 && num_colors_ <= 64, "num_colors must be in 1..64");
}

void PartitionedCacheModel::ReserveColors(CacheOwner owner, ColorMask mask) {
  AFF_CHECK(owner != kNoOwner);
  MutableSlot(owner).mask = mask & full_mask_;
}

double PartitionedCacheModel::ReservedCapacity(ColorMask mask) const {
  return ColorCapacity() * static_cast<double>(PopCount(mask & full_mask_));
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
  const double touch_fraction = TouchFraction(seconds, ws.buildup_tau_s);
  result.steady_misses = ws.steady_miss_per_s * seconds;

  // Zero reserved colors: always-cold. Every distinct block the chunk touches
  // misses, nothing survives, and — with nowhere to insert — no other owner's
  // footprint is disturbed.
  if (mask == 0) {
    result.reload_misses = CappedResident(capacity(), ws.blocks) * touch_fraction;
    SetResidentInternal(owner, 0.0);
    return result;
  }

  const size_t n_own = PopCount(mask);
  const double w_eff = CappedResident(ReservedCapacity(mask), ws.blocks);
  const double f = ResidentOf(owner);
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
  if (evicting > 0.0) {
    // Within a chunk, a victim's 1 - survival depends only on its shared-color
    // count n_sh, so it is computed once per count, on first use (bit
    // n_sh - 1 of `have_loss` marks it).
    std::array<double, 64> loss_by_shared{};
    uint64_t have_loss = 0;
    DecayOthers(owner, f, [&](ColorSlot& victim) {
      const ColorMask shared = victim.mask & mask;
      if (shared == 0) {
        return;
      }
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
    });
  }
  SettleRunning(owner, new_self);
  return result;
}

void PartitionedCacheModel::RemoveOwner(CacheOwner owner) {
  FootprintCore::RemoveOwner(owner);
  if (owner < table_size()) {
    MutableSlot(owner).mask = full_mask_;
  }
}

}  // namespace affsched
