// Randomized differential test: FootprintCache against a direct reference
// implementation of the same equations (ordered map for the footprints plus
// an insertion-order list for the decay loop). Every operation of the model's
// mutating surface is drawn from a fixed-seed stream, and after each one the
// two must agree exactly on every owner's footprint and on total occupancy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/cache/footprint.h"
#include "src/common/rng.h"

namespace affsched {
namespace {

class ReferenceFootprint {
 public:
  ReferenceFootprint(double capacity, size_t ways) : capacity_(capacity), ways_(ways) {}

  double Resident(CacheOwner o) const {
    auto it = blocks_.find(o);
    return it == blocks_.end() ? 0.0 : it->second;
  }
  double Occupied() const { return occupied_; }

  void Set(CacheOwner o, double b) {
    occupied_ += b - Resident(o);
    if (b <= 0.0) {
      if (blocks_.erase(o) > 0) {
        order_.erase(std::find(order_.begin(), order_.end(), o));
      }
    } else if (blocks_.emplace(o, b).second) {
      order_.push_back(o);
    } else {
      blocks_[o] = b;
    }
  }

  CacheChunkResult RunChunk(CacheOwner o, const WorkingSetParams& ws, double s) {
    CacheChunkResult r;
    if (s == 0.0) {
      return r;
    }
    const double w_eff = ExpectedMaxResident(capacity_, ways_, ws.blocks);
    const double f = Resident(o);
    const double touch = ws.buildup_tau_s > 0.0 ? 1.0 - std::exp(-s / ws.buildup_tau_s) : 1.0;
    r.reload_misses = std::max(0.0, (w_eff - f) * touch);
    r.steady_misses = ws.steady_miss_per_s * s;
    const double new_self = std::min(w_eff, f + r.reload_misses);
    const double evicting = r.reload_misses + r.steady_misses;
    if (evicting > 0.0 && !order_.empty()) {
      const double survival = std::pow(1.0 - 1.0 / capacity_, evicting);
      double others = 0.0;
      for (const CacheOwner other : std::vector<CacheOwner>(order_)) {
        if (other == o) {
          continue;
        }
        double& b = blocks_[other];
        b *= survival;
        if (b < 1e-9) {
          blocks_.erase(other);
          order_.erase(std::find(order_.begin(), order_.end(), other));
        } else {
          others += b;
        }
      }
      occupied_ = others + f;
    }
    Set(o, new_self);
    if (occupied_ > capacity_) {
      const double excess = occupied_ - capacity_;
      const double others = occupied_ - new_self;
      if (others > 0.0) {
        const double scale = std::max(0.0, (others - excess) / others);
        for (const CacheOwner other : std::vector<CacheOwner>(order_)) {
          if (other != o && (blocks_[other] *= scale) == 0.0) {
            blocks_.erase(other);
            order_.erase(std::find(order_.begin(), order_.end(), other));
          }
        }
        occupied_ = new_self + others * scale;
      } else {
        Set(o, capacity_);
      }
    }
    return r;
  }

 private:
  double capacity_;
  size_t ways_;
  double occupied_ = 0.0;
  std::map<CacheOwner, double> blocks_;
  std::vector<CacheOwner> order_;
};

constexpr double kCapacity = 4096.0;
// Dense ids plus one far id, so the table also grows by a jump.
constexpr CacheOwner kOwners[] = {1, 2, 3, 4, 5, 6, 7, 40};

template <size_t N>
double Pick(Rng& rng, const double (&values)[N]) {
  return values[rng.NextBounded(N)];
}

TEST(FootprintDifferentialTest, MatchesReferenceExactlyOverRandomOperations) {
  FootprintCache model(kCapacity, 2);
  ReferenceFootprint ref(kCapacity, 2);
  Rng rng(20260101);
  // Few distinct inputs, so the chunk memos both hit and miss. A working set
  // of 1e12 blocks saturates the cache (w_eff == capacity), which lets the
  // capacity squeeze scale other owners to exactly zero.
  const double kBlocks[] = {0.0, 500.0, 2000.0, 3000.0, 6000.0, 1e12};
  const double kTau[] = {0.0, 0.01, 0.05};
  // 1e7 misses/s over a 5 s chunk drives every other owner below 1e-9.
  const double kSteady[] = {0.0, 1e4, 1e7};
  const double kSeconds[] = {0.0, 0.002, 0.002, 0.002, 0.05, 5.0};
  const double kTiny[] = {0.0, 1e-12, 1e-9, 0.5};

  size_t decay_drops = 0;
  size_t reinserts_after_drop = 0;
  std::map<CacheOwner, bool> dropped;
  for (int step = 0; step < 20000; ++step) {
    const CacheOwner o = kOwners[rng.NextBounded(std::size(kOwners))];
    std::map<CacheOwner, bool> present_before;
    for (const CacheOwner other : kOwners) {
      present_before[other] = model.Resident(other) > 0.0;
    }
    const uint64_t op = rng.NextBounded(16);
    if (op < 7) {
      const WorkingSetParams ws{.blocks = Pick(rng, kBlocks),
                                .buildup_tau_s = Pick(rng, kTau),
                                .steady_miss_per_s = Pick(rng, kSteady)};
      const double seconds = Pick(rng, kSeconds);
      const CacheChunkResult got = model.RunChunk(o, ws, seconds);
      const CacheChunkResult want = ref.RunChunk(o, ws, seconds);
      ASSERT_EQ(got.reload_misses, want.reload_misses) << "step " << step;
      ASSERT_EQ(got.steady_misses, want.steady_misses) << "step " << step;
    } else if (op == 7) {
      const double b =
          rng.NextBounded(2) == 0 ? Pick(rng, kTiny) : rng.NextUniform(0.0, kCapacity);
      model.SetResident(o, b);
      ref.Set(o, b);
    } else if (op == 8) {
      const double b = rng.NextUniform(0.0, 1500.0);
      model.EjectBlocks(o, b);
      ref.Set(o, std::max(0.0, ref.Resident(o) - b));
    } else if (op == 9 || op == 10) {
      const double up_to = rng.NextBounded(4) == 0 ? 1e9 : rng.NextUniform(0.0, 300.0);
      const double want = std::min(up_to, ref.Resident(o));
      ref.Set(o, std::max(0.0, ref.Resident(o) - want));
      ASSERT_EQ(model.Invalidate(o, up_to), want) << "step " << step;
    } else if (op == 11) {
      const double fraction = rng.NextUniform(0.0, 1.0);
      model.EjectFraction(o, fraction);
      ref.Set(o, ref.Resident(o) * (1.0 - fraction));
    } else if (op == 12 || op == 13) {
      const double keep = rng.NextBounded(3) == 0 ? 0.0 : rng.NextUniform(0.0, 1.0);
      model.ReplaceOwnerData(o, keep);
      ref.Set(o, ref.Resident(o) * keep);
    } else if (op == 14) {
      model.RemoveOwner(o);
      ref.Set(o, 0.0);
    } else if (rng.NextBounded(8) == 0) {
      model.Flush();
      ref = ReferenceFootprint(kCapacity, 2);
    }

    for (const CacheOwner other : kOwners) {
      ASSERT_EQ(model.Resident(other), ref.Resident(other))
          << "owner " << other << " step " << step;
      const bool present = model.Resident(other) > 0.0;
      if (op < 7 && other != o && present_before[other] && !present) {
        ++decay_drops;
        dropped[other] = true;
      } else if (!present_before[other] && present && dropped[other]) {
        ++reinserts_after_drop;
        dropped[other] = false;
      }
    }
    ASSERT_EQ(model.Occupied(), ref.Occupied()) << "step " << step;
    ASSERT_LE(model.table_size(), 41u);
  }
  // The stream must actually exercise the drop/re-insert paths.
  EXPECT_GT(decay_drops, 0u);
  EXPECT_GT(reinserts_after_drop, 0u);
}

}  // namespace
}  // namespace affsched
