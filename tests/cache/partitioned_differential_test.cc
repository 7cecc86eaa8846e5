// Randomized differential test: PartitionedCacheModel against a reference
// copy of the original hash-map implementation of the same equations. Every
// operation of the model's mutating surface is drawn from a fixed-seed
// stream and applied to both.
//
// The model keeps the original's equations but changes its bookkeeping in
// two ways: it visits owners in insertion order instead of the hash map's
// order, and it drops an owner the capacity squeeze scales to exactly zero at
// once instead of at the next chunk. Each owner's update depends only on that
// owner and the chunk, so neither change moves any value by more than the
// rounding of the running sums (occupancy and total interference) and,
// through occupancy, of the squeeze scale. The reference runs either as the
// original did, when the two must agree to within rounding, or with the
// model's bookkeeping, when they must agree bit for bit on everything.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/cache/partitioned.h"
#include "src/common/rng.h"

namespace affsched {
namespace {

class ReferencePartitioned {
 public:
  ReferencePartitioned(double capacity, size_t ways, size_t num_colors, bool original)
      : capacity_(capacity), ways_(ways), num_colors_(num_colors), original_(original) {}

  void ReserveColors(CacheOwner owner, ColorMask mask) {
    reserved_[owner] = mask & FullColorMask(num_colors_);
  }
  ColorMask ReservedColors(CacheOwner owner) const {
    auto it = reserved_.find(owner);
    return it == reserved_.end() ? FullColorMask(num_colors_) : it->second;
  }
  double ColorCapacity() const { return capacity_ / static_cast<double>(num_colors_); }
  double ReservedCapacity(ColorMask mask) const {
    return ColorCapacity() * static_cast<double>(PopCount(mask & FullColorMask(num_colors_)));
  }
  double InterferenceOn(CacheOwner owner) const {
    auto it = interference_on_.find(owner);
    return it == interference_on_.end() ? 0.0 : it->second;
  }
  double interference_evictions() const { return interference_evictions_; }
  double Resident(CacheOwner owner) const {
    auto it = resident_.find(owner);
    return it == resident_.end() ? 0.0 : it->second;
  }
  double Occupied() const { return occupied_; }
  // Times the capacity squeeze scaled an owner to exactly zero.
  size_t squeezed_out() const { return squeezed_out_; }

  void Set(CacheOwner owner, double blocks) {
    auto it = resident_.find(owner);
    const double old = it == resident_.end() ? 0.0 : it->second;
    occupied_ += blocks - old;
    if (blocks <= 0.0) {
      if (it != resident_.end()) {
        Erase(owner);
      }
    } else if (it == resident_.end()) {
      resident_.emplace(owner, blocks);
      order_.push_back(owner);
    } else {
      it->second = blocks;
    }
  }

  CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws, double seconds) {
    CacheChunkResult result;
    if (seconds == 0.0) {
      return result;
    }
    const ColorMask mask = ReservedColors(owner);
    const double touch_fraction =
        ws.buildup_tau_s > 0.0 ? 1.0 - std::exp(-seconds / ws.buildup_tau_s) : 1.0;
    result.steady_misses = ws.steady_miss_per_s * seconds;
    if (mask == 0) {
      result.reload_misses = ExpectedMaxResident(capacity_, ways_, ws.blocks) * touch_fraction;
      Set(owner, 0.0);
      return result;
    }
    const size_t n_own = PopCount(mask);
    const double w_eff = ExpectedMaxResident(ReservedCapacity(mask), ways_, ws.blocks);
    const double f = Resident(owner);
    result.reload_misses = std::max(0.0, (w_eff - f) * touch_fraction);
    const double new_self = std::min(w_eff, f + result.reload_misses);
    const double evicting = result.reload_misses + result.steady_misses;
    if (evicting > 0.0 && !resident_.empty()) {
      double others = 0.0;
      for (const CacheOwner victim : VisitOrder()) {
        if (victim == owner) {
          continue;
        }
        double& blocks = resident_[victim];
        const ColorMask victim_mask = ReservedColors(victim);
        const ColorMask shared = victim_mask & mask;
        if (shared != 0 && victim_mask != 0) {
          const size_t n_sh = PopCount(shared);
          const size_t n_o = PopCount(victim_mask);
          const double vulnerable = blocks * static_cast<double>(n_sh) / static_cast<double>(n_o);
          const double shared_capacity = ColorCapacity() * static_cast<double>(n_sh);
          const double directed =
              evicting * static_cast<double>(n_sh) / static_cast<double>(n_own);
          const double survival = std::pow(1.0 - 1.0 / shared_capacity, directed);
          const double lost = vulnerable * (1.0 - survival);
          blocks -= lost;
          interference_evictions_ += lost;
          interference_on_[victim] += lost;
        }
        if (blocks < 1e-9) {
          Erase(victim);
        } else {
          others += blocks;
        }
      }
      occupied_ = others + Resident(owner);
    }
    Set(owner, new_self);
    if (occupied_ > capacity_) {
      const double excess = occupied_ - capacity_;
      double others = occupied_ - new_self;
      if (others > 0.0) {
        const double scale = std::max(0.0, (others - excess) / others);
        for (const CacheOwner o : VisitOrder()) {
          if (o != owner && (resident_[o] *= scale) == 0.0) {
            ++squeezed_out_;
            if (!original_) {
              Erase(o);
            }
          }
        }
        occupied_ = new_self + others * scale;
      } else {
        Set(owner, std::min(capacity_, new_self));
      }
    }
    return result;
  }

  void Flush() {
    resident_.clear();
    order_.clear();
    occupied_ = 0.0;
  }

  void RemoveOwner(CacheOwner owner) {
    Set(owner, 0.0);
    reserved_.erase(owner);
  }

 private:
  static size_t PopCount(ColorMask mask) { return static_cast<size_t>(std::popcount(mask)); }

  // The owners in resident_, in the order the loops visit them.
  std::vector<CacheOwner> VisitOrder() const {
    if (!original_) {
      return order_;
    }
    std::vector<CacheOwner> owners;
    for (const auto& [o, blocks] : resident_) {
      owners.push_back(o);
    }
    return owners;
  }

  void Erase(CacheOwner owner) {
    resident_.erase(owner);
    order_.erase(std::find(order_.begin(), order_.end(), owner));
  }

  double capacity_;
  size_t ways_;
  size_t num_colors_;
  bool original_;
  double occupied_ = 0.0;
  double interference_evictions_ = 0.0;
  size_t squeezed_out_ = 0;
  std::unordered_map<CacheOwner, double> resident_;
  // The keys of resident_ in insertion order.
  std::vector<CacheOwner> order_;
  std::unordered_map<CacheOwner, ColorMask> reserved_;
  std::unordered_map<CacheOwner, double> interference_on_;
};

constexpr double kCapacity = 4096.0;
constexpr size_t kColors = 8;
// Dense ids plus one far id, so the table also grows by a jump.
constexpr CacheOwner kOwners[] = {1, 2, 3, 4, 5, 6, 7, 40};

template <typename T, size_t N>
T Pick(Rng& rng, const T (&values)[N]) {
  return values[rng.NextBounded(N)];
}

// Exact equality, or agreement to 1e-9 relative (1e-9 blocks absolute).
::testing::AssertionResult Same(double got, double want, bool exact) {
  if (exact ? got == want : std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << got << " vs reference " << want;
}

// Drives the model and a reference (`original` or with the model's
// bookkeeping) through one fixed-seed stream of operations, comparing after
// each one.
void RunRandomStream(bool original) {
  const bool exact = !original;
  PartitionedCacheModel model(kCapacity, 2, kColors);
  ReferencePartitioned ref(kCapacity, 2, kColors, original);
  Rng rng(20260314);
  // Zero-color, one-color, overlapping, full and oversized masks; the last
  // is trimmed to the machine's eight colors.
  const ColorMask kMasks[] = {0x00, 0x01, 0x80, 0x03, 0x06, 0x0F, 0x3C, 0xF0, 0xFF, kAllColors};
  // Few distinct inputs, so the chunk memos both hit and miss. A working set
  // of 1e12 blocks saturates its reservation, which drives the capacity
  // squeeze (down to exactly zero when the reservation is every color).
  const double kBlocks[] = {0.0, 300.0, 1500.0, 3000.0, 6000.0, 1e12};
  const double kTau[] = {0.0, 0.01, 0.05};
  // 1e7 misses/s over a 5 s chunk drives every sharing owner below 1e-9.
  const double kSteady[] = {0.0, 1e4, 1e7};
  const double kSeconds[] = {0.0, 0.002, 0.002, 0.002, 0.05, 5.0};

  size_t interfered = 0;
  size_t decay_drops = 0;
  for (int step = 0; step < 20000; ++step) {
    const CacheOwner o = Pick(rng, kOwners);
    const uint64_t op = rng.NextBounded(16);
    const double interference_before = ref.interference_evictions();
    std::map<CacheOwner, bool> present_before;
    for (const CacheOwner other : kOwners) {
      present_before[other] = ref.Resident(other) > 0.0;
    }
    if (op < 7) {
      const WorkingSetParams ws{.blocks = Pick(rng, kBlocks),
                                .buildup_tau_s = Pick(rng, kTau),
                                .steady_miss_per_s = Pick(rng, kSteady)};
      const double seconds = Pick(rng, kSeconds);
      const CacheChunkResult got = model.RunChunk(o, ws, seconds);
      const CacheChunkResult want = ref.RunChunk(o, ws, seconds);
      ASSERT_TRUE(Same(got.reload_misses, want.reload_misses, exact)) << "step " << step;
      ASSERT_TRUE(Same(got.steady_misses, want.steady_misses, exact)) << "step " << step;
      for (const CacheOwner other : kOwners) {
        if (other != o && present_before[other] && ref.Resident(other) == 0.0) {
          ++decay_drops;
        }
      }
    } else if (op == 7 || op == 8) {
      const ColorMask mask = Pick(rng, kMasks);
      model.ReserveColors(o, mask);
      ref.ReserveColors(o, mask);
    } else if (op == 9 || op == 10) {
      const double up_to = rng.NextBounded(4) == 0 ? 1e9 : rng.NextUniform(0.0, 300.0);
      const double want = std::min(up_to, ref.Resident(o));
      ref.Set(o, std::max(0.0, ref.Resident(o) - want));
      ASSERT_TRUE(Same(model.Invalidate(o, up_to), want, exact)) << "step " << step;
    } else if (op == 11) {
      const double fraction = rng.NextUniform(0.0, 1.0);
      model.EjectFraction(o, fraction);
      ref.Set(o, ref.Resident(o) * (1.0 - fraction));
    } else if (op == 12) {
      const double keep = rng.NextBounded(3) == 0 ? 0.0 : rng.NextUniform(0.0, 1.0);
      model.ReplaceOwnerData(o, keep);
      ref.Set(o, ref.Resident(o) * keep);
    } else if (op == 13) {
      const double interference = model.InterferenceOn(o);
      model.RemoveOwner(o);
      ref.RemoveOwner(o);
      // Interference suffered outlives the owner, like the running total.
      ASSERT_EQ(model.InterferenceOn(o), interference) << "step " << step;
      ASSERT_EQ(model.ReservedColors(o), FullColorMask(kColors)) << "step " << step;
      const ColorMask mask = Pick(rng, kMasks);
      model.ReserveColors(o, mask);
      ref.ReserveColors(o, mask);
    } else if (op == 14) {
      const double b = rng.NextUniform(0.0, kCapacity / 4.0);
      model.SetResident(o, b);
      ref.Set(o, b);
    } else if (rng.NextBounded(8) == 0) {
      model.Flush();
      ref.Flush();
    }
    if (ref.interference_evictions() > interference_before) {
      ++interfered;
    }

    for (const CacheOwner other : kOwners) {
      ASSERT_TRUE(Same(model.Resident(other), ref.Resident(other), exact))
          << "owner " << other << " step " << step;
      ASSERT_TRUE(Same(model.InterferenceOn(other), ref.InterferenceOn(other), exact))
          << "owner " << other << " step " << step;
      ASSERT_EQ(model.ReservedColors(other), ref.ReservedColors(other))
          << "owner " << other << " step " << step;
    }
    ASSERT_TRUE(Same(model.Occupied(), ref.Occupied(), exact)) << "step " << step;
    ASSERT_TRUE(Same(model.interference_evictions(), ref.interference_evictions(), exact))
        << "step " << step;
    ASSERT_LE(model.table_size(), 41u);
  }
  // The stream must actually exercise interference and both drop paths.
  EXPECT_GT(interfered, 0u);
  EXPECT_GT(decay_drops, 0u);
  EXPECT_GT(ref.squeezed_out(), 0u);
}

TEST(PartitionedDifferentialTest, MatchesReferenceWithModelBookkeepingExactly) {
  RunRandomStream(/*original=*/false);
}

TEST(PartitionedDifferentialTest, MatchesOriginalReferenceToRounding) {
  RunRandomStream(/*original=*/true);
}

// An owner the capacity squeeze scales to exactly zero is absent afterwards:
// re-inserting it lists it once, so the next chunk decays it once.
TEST(PartitionedDifferentialTest, SqueezedToZeroOwnerIsListedOnce) {
  PartitionedCacheModel model(kCapacity, 2, kColors);
  ReferencePartitioned ref(kCapacity, 2, kColors, /*original=*/false);
  model.ReserveColors(2, 0x0F);
  ref.ReserveColors(2, 0x0F);
  model.SetResident(2, 1000.0);
  ref.Set(2, 1000.0);

  // A cold, saturating, all-colors owner fills the whole cache in one chunk
  // (new_self == capacity), so the squeeze scale is exactly zero.
  const WorkingSetParams flood{.blocks = 1e12, .buildup_tau_s = 0.0};
  model.RunChunk(1, flood, 0.002);
  ref.RunChunk(1, flood, 0.002);
  ASSERT_EQ(model.Resident(1), kCapacity);
  ASSERT_EQ(model.Resident(2), 0.0);
  ASSERT_EQ(model.Occupied(), kCapacity);

  model.RemoveOwner(1);
  ref.RemoveOwner(1);
  model.ReserveColors(2, 0x0F);
  ref.ReserveColors(2, 0x0F);
  model.SetResident(2, 800.0);
  ref.Set(2, 800.0);
  const WorkingSetParams ws{.blocks = 500.0, .buildup_tau_s = 0.01, .steady_miss_per_s = 1e4};
  for (int chunk = 0; chunk < 3; ++chunk) {
    model.RunChunk(3, ws, 0.002);
    ref.RunChunk(3, ws, 0.002);
    EXPECT_EQ(model.Resident(2), ref.Resident(2)) << "chunk " << chunk;
    EXPECT_EQ(model.InterferenceOn(2), ref.InterferenceOn(2)) << "chunk " << chunk;
  }
  EXPECT_LT(model.Resident(2), 800.0);
  // Listed twice, owner 2 would also be counted twice in the occupancy.
  EXPECT_DOUBLE_EQ(model.Occupied(), model.Resident(2) + model.Resident(3));
  model.RemoveOwner(2);
  EXPECT_DOUBLE_EQ(model.Occupied(), model.Resident(3));
}

TEST(PartitionedDifferentialTest, AbsentOwnerQueriesDoNotGrowTheTable) {
  PartitionedCacheModel model(kCapacity, 2, kColors);
  model.ReserveColors(3, 0x0F);
  model.SetResident(3, 100.0);
  ASSERT_EQ(model.table_size(), 4u);
  const CacheOwner absent = 1000;
  EXPECT_EQ(model.Resident(absent), 0.0);
  EXPECT_EQ(model.ReservedColors(absent), FullColorMask(kColors));
  EXPECT_EQ(model.InterferenceOn(absent), 0.0);
  EXPECT_EQ(model.Invalidate(absent, 50.0), 0.0);
  model.EjectBlocks(absent, 10.0);
  model.EjectFraction(absent, 0.5);
  model.ReplaceOwnerData(absent, 0.5);
  model.RemoveOwner(absent);
  EXPECT_EQ(model.table_size(), 4u);
  EXPECT_EQ(model.Occupied(), 100.0);
}

}  // namespace
}  // namespace affsched
