#include "src/cache/footprint.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace affsched {

FootprintCache::FootprintCache(double capacity_blocks, size_t ways)
    : capacity_(capacity_blocks), ways_(ways) {
  AFF_CHECK(capacity_ > 0.0);
  AFF_CHECK(ways_ >= 1);
}

double FootprintCache::MaxResident(double blocks) const {
  return ExpectedMaxResident(capacity_, ways_, blocks);
}

double FootprintCache::Resident(CacheOwner owner) const {
  return owner < resident_.size() ? resident_[owner] : 0.0;
}

void FootprintCache::SetResidentInternal(CacheOwner owner, double blocks) {
  const double old = Resident(owner);
  occupied_ += blocks - old;
  if (blocks <= 0.0) {
    if (old != 0.0) {
      resident_[owner] = 0.0;
      live_.erase(std::find(live_.begin(), live_.end(), owner));
    }
    return;
  }
  if (old == 0.0) {
    AFF_CHECK(owner < kMaxOwner);
    if (owner >= resident_.size()) {
      resident_.resize(owner + 1, 0.0);
    }
    live_.push_back(owner);
  }
  resident_[owner] = blocks;
}

void FootprintCache::SetResident(CacheOwner owner, double blocks) {
  AFF_CHECK(blocks >= 0.0 && blocks <= capacity_);
  SetResidentInternal(owner, blocks);
}

CacheChunkResult FootprintCache::RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                                          double seconds) {
  AFF_CHECK(owner != kNoOwner);
  AFF_CHECK(seconds >= 0.0);
  CacheChunkResult result;
  if (seconds == 0.0) {
    return result;
  }

  if (!SameBits(ws.blocks, memo_blocks_)) {
    memo_blocks_ = ws.blocks;
    memo_w_eff_ = MaxResident(ws.blocks);
  }
  if (!SameBits(seconds, memo_seconds_) || !SameBits(ws.buildup_tau_s, memo_tau_)) {
    memo_seconds_ = seconds;
    memo_tau_ = ws.buildup_tau_s;
    memo_touch_ =
        ws.buildup_tau_s > 0.0 ? 1.0 - std::exp(-seconds / ws.buildup_tau_s) : 1.0;
  }
  const double w_eff = memo_w_eff_;
  const double f = Resident(owner);
  result.reload_misses = std::max(0.0, (w_eff - f) * memo_touch_);
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
  if (evicting > 0.0 && !live_.empty()) {
    const double survival = std::pow(1.0 - 1.0 / capacity_, evicting);
    double others = 0.0;
    // Decay in insertion order, compacting dropped owners out in place.
    size_t kept = 0;
    for (const CacheOwner o : live_) {
      if (o != owner) {
        double& blocks = resident_[o];
        blocks *= survival;
        if (blocks < 1e-9) {
          blocks = 0.0;
          continue;
        }
        others += blocks;
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
          double& blocks = resident_[o];
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
      SetResidentInternal(owner, capacity_);
    }
  }
  return result;
}

void FootprintCache::Flush() {
  for (const CacheOwner o : live_) {
    resident_[o] = 0.0;
  }
  live_.clear();
  occupied_ = 0.0;
}

void FootprintCache::EjectFraction(CacheOwner owner, double fraction) {
  AFF_CHECK(fraction >= 0.0 && fraction <= 1.0);
  SetResidentInternal(owner, Resident(owner) * (1.0 - fraction));
}

void FootprintCache::EjectBlocks(CacheOwner owner, double blocks) {
  AFF_CHECK(blocks >= 0.0);
  SetResidentInternal(owner, std::max(0.0, Resident(owner) - blocks));
}

double FootprintCache::Invalidate(CacheOwner owner, double up_to) {
  AFF_CHECK(up_to >= 0.0);
  const double old = Resident(owner);
  const double eject = std::min(up_to, old);
  SetResidentInternal(owner, old - eject);
  return eject;
}

void FootprintCache::ReplaceOwnerData(CacheOwner owner, double keep_fraction) {
  AFF_CHECK(keep_fraction >= 0.0 && keep_fraction <= 1.0);
  SetResidentInternal(owner, Resident(owner) * keep_fraction);
}

void FootprintCache::RemoveOwner(CacheOwner owner) { SetResidentInternal(owner, 0.0); }

}  // namespace affsched
