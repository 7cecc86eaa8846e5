#include "src/machine/machine.h"

#include <gtest/gtest.h>

#include <cmath>

namespace affsched {
namespace {

TEST(MachineConfigTest, SymmetryDefaults) {
  MachineConfig config;
  EXPECT_EQ(config.num_processors, 20u);
  EXPECT_DOUBLE_EQ(config.CapacityBlocks(), 4096.0);
  EXPECT_DOUBLE_EQ(config.MissServiceSeconds(), 0.75e-6);
  EXPECT_EQ(config.SwitchCost(), Microseconds(750));
}

TEST(MachineConfigTest, FullCacheFillMatchesPaper) {
  // Section 3: "(at least) 3.072 msec. would be required to fill entirely a
  // single cache of 4K 16-byte blocks."
  MachineConfig config;
  const double fill_s = config.CapacityBlocks() * config.MissServiceSeconds();
  EXPECT_NEAR(fill_s, 3.072e-3, 1e-9);
}

TEST(MachineConfigTest, FutureScalingFollowsFigure7) {
  MachineConfig config;
  config.processor_speed = 16.0;
  config.cache_size_factor = 4.0;
  // Computation scales linearly with speed.
  EXPECT_EQ(config.ComputeTime(Seconds(16)), Seconds(1));
  EXPECT_EQ(config.SwitchCost(), Microseconds(750) / 16);
  // Miss service improves only as sqrt(speed).
  EXPECT_NEAR(config.MissServiceSeconds(), 0.75e-6 / 4.0, 1e-12);
  // Cache capacity scales with the factor.
  EXPECT_DOUBLE_EQ(config.CapacityBlocks(), 4096.0 * 4.0);
}

TEST(MachineConfigTest, ValidateBoundsTheMachineShape) {
  MachineConfig config;
  config.num_processors = MachineConfig::kMaxProcessors;
  config.processor_speed = 1e3;
  config.cache_size_factor = 1e-3;
  EXPECT_EQ(config.Validate(), "");
  config.processor_speed = 1e-3;
  config.cache_size_factor = 1e3;
  EXPECT_EQ(config.Validate(), "");

  config = MachineConfig{};
  config.num_processors = 1025;
  EXPECT_NE(config.Validate().find("procs"), std::string::npos);
  config.num_processors = 100000;
  EXPECT_NE(config.Validate().find("procs"), std::string::npos);

  // speed=1e-9 once stretched chunks past the event clock; speed=1e20 and
  // NaN broke it the other way.
  for (double bad : {1e-9, 9.99e-4, 1000.5, 1e20, std::nan(""), -1.0}) {
    config = MachineConfig{};
    config.processor_speed = bad;
    EXPECT_NE(config.Validate().find("speed"), std::string::npos) << bad;
    config = MachineConfig{};
    config.cache_size_factor = bad;
    EXPECT_NE(config.Validate().find("cache"), std::string::npos) << bad;
  }
}

TEST(MachineConfigTest, ExperimentMachinesFitTheBounds) {
  // The largest shapes the repo's experiments build: 32-processor NUMA, the
  // Section 7 future machines (speed up to 128, cache up to 16).
  MachineConfig config;
  config.num_processors = 32;
  config.topology = NumaTopology();
  config.processor_speed = 128.0;
  config.cache_size_factor = 16.0;
  EXPECT_EQ(config.Validate(), "");
}

TEST(MachineTest, ProcessorsHaveIndependentCaches) {
  MachineConfig config;
  config.num_processors = 2;
  Machine machine(config);
  const WorkingSetParams ws{.blocks = 1000.0, .buildup_tau_s = 0.01, .steady_miss_per_s = 0.0};
  machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(100));
  EXPECT_GT(machine.processor(0).cache().Resident(1), 900.0);
  EXPECT_DOUBLE_EQ(machine.processor(1).cache().Resident(1), 0.0);
}

TEST(MachineTest, ChunkWallIncludesMissStalls) {
  MachineConfig config;
  Machine machine(config);
  const WorkingSetParams ws{.blocks = 2000.0, .buildup_tau_s = 0.001, .steady_miss_per_s = 0.0};
  const auto exec = machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(10));
  // Cold start: the occupancy-capped working set reloads at 0.75 us/block.
  const double cap = machine.processor(0).cache().MaxResident(2000.0);
  EXPECT_NEAR(exec.reload_misses, cap, 1.0);
  EXPECT_NEAR(ToSeconds(exec.stall), cap * 0.75e-6, 1e-4);
  EXPECT_EQ(exec.wall, Milliseconds(10) + exec.stall);
}

TEST(MachineTest, WarmChunkRunsAtFullSpeed) {
  MachineConfig config;
  Machine machine(config);
  const WorkingSetParams ws{.blocks = 2000.0, .buildup_tau_s = 0.001, .steady_miss_per_s = 0.0};
  machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(100));
  const auto exec = machine.ExecuteChunk(Milliseconds(100), 0, 1, ws, Milliseconds(10));
  EXPECT_NEAR(exec.reload_misses, 0.0, 1e-6);
  EXPECT_EQ(exec.wall, Milliseconds(10));
}

TEST(MachineTest, FasterMachineShortensCompute) {
  MachineConfig config;
  config.processor_speed = 4.0;
  Machine machine(config);
  const WorkingSetParams ws{.blocks = 0.0, .buildup_tau_s = 0.01, .steady_miss_per_s = 0.0};
  const auto exec = machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(8));
  EXPECT_EQ(exec.wall, Milliseconds(2));
}

TEST(MachineTest, RecordDispatchUpdatesHistory) {
  MachineConfig config;
  Machine machine(config);
  EXPECT_EQ(machine.processor(3).last_task(), kNoOwner);
  machine.processor(3).RecordDispatch(42);
  EXPECT_EQ(machine.processor(3).last_task(), 42u);
  EXPECT_EQ(machine.processor(3).current_task(), 42u);
  machine.processor(3).SetCurrentTask(kNoOwner);
  EXPECT_EQ(machine.processor(3).last_task(), 42u);  // history survives idle
}

TEST(MachineTest, HeavyTrafficInflatesStalls) {
  MachineConfig config;
  Machine machine(config);
  const WorkingSetParams hot{.blocks = 4000.0, .buildup_tau_s = 0.0001,
                             .steady_miss_per_s = 500000.0};
  // Saturate the bus with traffic from other processors.
  SimTime now = 0;
  for (int i = 0; i < 50; ++i) {
    machine.ExecuteChunk(now, 1, 2, hot, Milliseconds(2));
    now += Milliseconds(2);
  }
  const WorkingSetParams ws{.blocks = 1000.0, .buildup_tau_s = 0.001, .steady_miss_per_s = 0.0};
  const auto contended = machine.ExecuteChunk(now, 0, 1, ws, Milliseconds(1));

  Machine quiet(config);
  const auto uncontended = quiet.ExecuteChunk(0, 0, 1, ws, Milliseconds(1));
  EXPECT_GT(contended.stall, uncontended.stall);
}

}  // namespace
}  // namespace affsched
