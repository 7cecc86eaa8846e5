// CacheModel::Invalidate contract, for every implementation: the fused call
// must leave the model exactly as Resident + EjectBlocks(min(up_to, resident))
// would, return that amount, and treat an absent owner as a no-op.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/exact_model.h"
#include "src/cache/footprint.h"
#include "src/cache/partitioned.h"
#include "src/topology/hier_cache.h"
#include "src/topology/topology.h"

namespace affsched {
namespace {

constexpr double kCapacity = 4096.0;
constexpr size_t kProcs = 20;

enum class Kind { kFootprint, kHierarchical, kPartitioned, kExact };

// One model plus the shared topology state a hierarchical model points into.
struct Subject {
  explicit Subject(Kind kind) {
    switch (kind) {
      case Kind::kFootprint:
        model = std::make_unique<FootprintCache>(kCapacity, 2);
        break;
      case Kind::kHierarchical: {
        const TopologySpec spec = CmpTopology();
        topology = std::make_unique<Topology>(spec, kProcs);
        state = std::make_unique<TopologyCacheState>(
            *topology, spec.LlcCapacityBlocks(spec.llc_line_bytes), spec.llc_ways);
        model = std::make_unique<HierarchicalCacheModel>(kCapacity, 2, *topology, state.get(),
                                                         /*proc=*/0);
        break;
      }
      case Kind::kPartitioned:
        model = std::make_unique<PartitionedCacheModel>(kCapacity, 2, /*num_colors=*/4);
        break;
      case Kind::kExact:
        model = std::make_unique<ExactCacheModel>(CacheGeometry{}, /*seed=*/42);
        break;
    }
    const WorkingSetParams ws1{.blocks = 1500.0, .buildup_tau_s = 0.05,
                               .steady_miss_per_s = 2000.0};
    const WorkingSetParams ws2{.blocks = 800.0, .buildup_tau_s = 0.02};
    model->RunChunk(1, ws1, 0.2);
    model->RunChunk(2, ws2, 0.1);
    model->RunChunk(1, ws1, 0.05);
  }

  FootprintCache* llc() const { return state != nullptr ? state->llc(0) : nullptr; }

  std::unique_ptr<Topology> topology;
  std::unique_ptr<TopologyCacheState> state;
  std::unique_ptr<CacheModel> model;
};

class InvalidateContractTest : public ::testing::TestWithParam<Kind> {};

TEST_P(InvalidateContractTest, MatchesResidentThenEjectBlocks) {
  Subject fused(GetParam());
  Subject pair(GetParam());
  ASSERT_GT(fused.model->Resident(1), 0.0);
  if (fused.llc() != nullptr) {
    ASSERT_GT(fused.llc()->Resident(1), 0.0);
  }
  for (const double up_to : {0.0, 37.0, 120.5, 1e9}) {
    const double llc_before = fused.llc() != nullptr ? fused.llc()->Resident(1) : 0.0;
    const double expected = std::min(up_to, pair.model->Resident(1));
    pair.model->EjectBlocks(1, expected);
    const double got = fused.model->Invalidate(1, up_to);
    EXPECT_EQ(got, expected) << "up_to " << up_to;
    for (const CacheOwner owner : {1, 2}) {
      EXPECT_EQ(fused.model->Resident(owner), pair.model->Resident(owner)) << "up_to " << up_to;
    }
    EXPECT_EQ(fused.model->Occupied(), pair.model->Occupied()) << "up_to " << up_to;
    if (fused.llc() != nullptr) {
      // The invalidation removes the LLC copy as well.
      EXPECT_EQ(fused.llc()->Resident(1), pair.llc()->Resident(1));
      EXPECT_EQ(fused.llc()->Occupied(), pair.llc()->Occupied());
      EXPECT_EQ(fused.llc()->Resident(1), std::max(0.0, llc_before - got));
    }
  }
  EXPECT_EQ(fused.model->Resident(1), 0.0);
}

TEST_P(InvalidateContractTest, AbsentOwnerIsANoOp) {
  Subject s(GetParam());
  const double occupied = s.model->Occupied();
  const double resident2 = s.model->Resident(2);
  auto* footprint = dynamic_cast<FootprintCache*>(s.model.get());
  auto* hier = dynamic_cast<HierarchicalCacheModel*>(s.model.get());
  auto* partitioned = dynamic_cast<PartitionedCacheModel*>(s.model.get());
  const auto table_size = [&] {
    return footprint != nullptr     ? footprint->table_size()
           : hier != nullptr        ? hier->l1().table_size()
           : partitioned != nullptr ? partitioned->table_size()
                                    : size_t{0};
  };
  const size_t table = table_size();
  const size_t llc_table = s.llc() != nullptr ? s.llc()->table_size() : 0;

  // Every member of the eject family treats an absent owner as a no-op.
  const std::vector<std::pair<std::string, std::function<void(CacheOwner)>>> ops = {
      {"Invalidate", [&](CacheOwner o) { EXPECT_EQ(s.model->Invalidate(o, 50.0), 0.0); }},
      {"EjectFraction", [&](CacheOwner o) { s.model->EjectFraction(o, 0.5); }},
      {"EjectBlocks", [&](CacheOwner o) { s.model->EjectBlocks(o, 50.0); }},
      {"ReplaceOwnerData", [&](CacheOwner o) { s.model->ReplaceOwnerData(o, 0.25); }},
      {"RemoveOwner", [&](CacheOwner o) { s.model->RemoveOwner(o); }},
  };
  for (const auto& [name, op] : ops) {
    for (const CacheOwner absent : {CacheOwner{3}, CacheOwner{999}}) {
      op(absent);
      EXPECT_EQ(s.model->Resident(absent), 0.0) << name << " owner " << absent;
    }
    EXPECT_EQ(s.model->Occupied(), occupied) << name;
    EXPECT_EQ(s.model->Resident(2), resident2) << name;
    EXPECT_EQ(table_size(), table) << name;
    if (s.llc() != nullptr) {
      EXPECT_EQ(s.llc()->table_size(), llc_table) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, InvalidateContractTest,
                         ::testing::Values(Kind::kFootprint, Kind::kHierarchical,
                                           Kind::kPartitioned, Kind::kExact),
                         [](const ::testing::TestParamInfo<Kind>& param) -> std::string {
                           switch (param.param) {
                             case Kind::kFootprint:
                               return "Footprint";
                             case Kind::kHierarchical:
                               return "Hierarchical";
                             case Kind::kPartitioned:
                               return "Partitioned";
                             case Kind::kExact:
                               return "Exact";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace affsched
