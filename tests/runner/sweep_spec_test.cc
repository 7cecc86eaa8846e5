#include "src/runner/sweep.h"

#include <gtest/gtest.h>

#include "src/serve/spec_canon.h"
#include "tests/runner/hostile_spec_values.h"

namespace affsched {
namespace {

TEST(SweepSpecTest, PolicyCliNamesRoundTrip) {
  for (PolicyKind kind :
       {PolicyKind::kEquipartition, PolicyKind::kDynamic, PolicyKind::kDynAff,
        PolicyKind::kDynAffNoPri, PolicyKind::kDynAffDelay, PolicyKind::kTimeShare,
        PolicyKind::kTimeShareAff}) {
    PolicyKind parsed;
    ASSERT_TRUE(PolicyKindFromName(PolicyKindCliName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PolicyKind unused;
  EXPECT_FALSE(PolicyKindFromName("no-such-policy", &unused));
}

TEST(SweepSpecTest, PresetsParse) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("fig5", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "fig5");
  EXPECT_EQ(spec.policies.size(), 4u);
  EXPECT_EQ(spec.mixes.size(), 6u);
  EXPECT_EQ(spec.root_seed, 1000u);

  ASSERT_TRUE(ParseSweepSpec("table3", &spec, &error)) << error;
  EXPECT_EQ(spec.policies.size(), 3u);
  ASSERT_EQ(spec.mixes.size(), 1u);
  EXPECT_EQ(spec.mixes[0].number, 5);
  EXPECT_EQ(spec.root_seed, 555u);

  ASSERT_TRUE(ParseSweepSpec("smoke", &spec, &error)) << error;
  EXPECT_EQ(spec.replication.min_replications, 2u);
  EXPECT_EQ(spec.replication.max_replications, 2u);
}

TEST(SweepSpecTest, PresetWithOverrides) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("fig5;reps=2;procs=8;seed=77", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "fig5;reps=2;procs=8;seed=77");  // provenance
  EXPECT_EQ(spec.replication.min_replications, 2u);
  EXPECT_EQ(spec.replication.max_replications, 2u);
  EXPECT_EQ(spec.machine.num_processors, 8u);
  EXPECT_EQ(spec.root_seed, 77u);
}

TEST(SweepSpecTest, CustomSpecParses) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(
      ParseSweepSpec("policies=equi,dyn-aff;mixes=1,5;reps=3-5;precision=0.01", &spec, &error))
      << error;
  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[0], PolicyKind::kEquipartition);
  EXPECT_EQ(spec.policies[1], PolicyKind::kDynAff);
  ASSERT_EQ(spec.mixes.size(), 2u);
  EXPECT_EQ(spec.mixes[0].number, 1);
  EXPECT_EQ(spec.mixes[1].number, 5);
  EXPECT_EQ(spec.replication.min_replications, 3u);
  EXPECT_EQ(spec.replication.max_replications, 5u);
  EXPECT_DOUBLE_EQ(spec.replication.relative_precision, 0.01);
}

TEST(SweepSpecTest, SixtyFourBitSeedsParseExactly) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;seed=9223372036854775815", &spec, &error)) << error;
  EXPECT_EQ(spec.root_seed, 9223372036854775815ull);  // 2^63 + 7: survives parsing
}

TEST(SweepSpecTest, RejectsMalformedSpecs) {
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(ParseSweepSpec("", &spec, &error));
  EXPECT_FALSE(ParseSweepSpec("nonsense", &spec, &error));
  EXPECT_FALSE(ParseSweepSpec("policies=warp-drive", &spec, &error));
  EXPECT_FALSE(ParseSweepSpec("mixes=7", &spec, &error));
  EXPECT_FALSE(ParseSweepSpec("reps=0", &spec, &error));
  EXPECT_FALSE(ParseSweepSpec("reps=5-3", &spec, &error));
  EXPECT_FALSE(ParseSweepSpec("smoke;frobnicate=1", &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SweepSpecTest, ObservabilityKeyParsesAndDefaultsOff) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke", &spec, &error)) << error;
  EXPECT_FALSE(spec.observability);
  for (const char* on : {"smoke;observability=1", "smoke;observability=true",
                         "smoke;observability=on"}) {
    ASSERT_TRUE(ParseSweepSpec(on, &spec, &error)) << on << ": " << error;
    EXPECT_TRUE(spec.observability) << on;
  }
  for (const char* off : {"smoke;observability=0", "smoke;observability=false",
                          "smoke;observability=off"}) {
    ASSERT_TRUE(ParseSweepSpec(off, &spec, &error)) << off << ": " << error;
    EXPECT_FALSE(spec.observability) << off;
  }
  EXPECT_FALSE(ParseSweepSpec("smoke;observability=maybe", &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SweepSpecTest, RejectsHostileNumbersForEverySharedKey) {
  for (const std::string& override_text : HostileGridOverrides()) {
    const std::string text = "smoke;" + override_text;
    SweepSpec spec;
    std::string error;
    EXPECT_FALSE(ParseSweepSpec(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(SweepSpecTest, RejectsMalformedNumbersForClosedKeys) {
  for (const char* key : {"mixes", "reps", "precision", "balance-interval", "observability"}) {
    for (const std::string& value : kMalformedNumbers) {
      const std::string text = "smoke;" + std::string(key) + "=" + value;
      SweepSpec spec;
      std::string error;
      EXPECT_FALSE(ParseSweepSpec(text, &spec, &error)) << text;
      EXPECT_FALSE(error.empty()) << text;
    }
  }
}

TEST(SweepSpecTest, RejectsInputsTheLaxParserAccepted) {
  for (const char* text :
       {"smoke;policies=equi,", "smoke;mixes=1,", "smoke;mixes=,1", "smoke;reps=3-5-7",
        "smoke;reps= 2", "smoke;seed=-1", "smoke;procs=8.5", "smoke;speed=1e-9",
        "smoke;procs=100000", "smoke;topology=numa-4x8,remote=1e20",
        "smoke;balance-interval=1e300", "smoke;colors=65",
        // Specs that would run for ever: unbounded replications, or
        // balance ticks (nearly) every nanosecond.
        "smoke;reps=1001", "smoke;reps=2-1001", "smoke;reps=18446744073709551615",
        "smoke;balance-interval=0.5", "smoke;balance-interval=1e-9"}) {
    SweepSpec spec;
    std::string error;
    EXPECT_FALSE(ParseSweepSpec(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(SweepSpecTest, AcceptsTheBoundsThemselves) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;reps=1-1000", &spec, &error)) << error;
  EXPECT_EQ(spec.replication.max_replications, kMaxReplications);
  ASSERT_TRUE(ParseSweepSpec("smoke;balance-interval=0", &spec, &error)) << error;
  EXPECT_EQ(spec.engine.balance_interval, 0);
  ASSERT_TRUE(ParseSweepSpec("smoke;balance-interval=1", &spec, &error)) << error;
  EXPECT_EQ(spec.engine.balance_interval, Milliseconds(1));
}

TEST(SweepSpecTest, NumberRespellingsCanonicalizeIdentically) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke", &spec, &error)) << error;
  const std::string canonical = CanonicalSpecText(spec);
  for (const char* text :
       {"smoke;speed=1", "smoke;speed=1.0", "smoke;speed=1.00", "smoke;speed=1e0",
        "smoke;cache=1.0;speed=1e0", "smoke;seed=1000;procs=16"}) {
    ASSERT_TRUE(ParseSweepSpec(text, &spec, &error)) << text << ": " << error;
    EXPECT_EQ(CanonicalSpecText(spec), canonical) << text;
    EXPECT_EQ(spec.name, text);  // provenance keeps the spelling
  }
}

// Every MachineConfig and EngineOptions field, addressable by a spec key or
// not, must survive CellSpecText -> ParseSweepSpec.
void ExpectSameCell(const SweepSpec& want, const SweepSpec& got, const std::string& text) {
  const MachineConfig& a = want.machine;
  const MachineConfig& b = got.machine;
  EXPECT_EQ(a.num_processors, b.num_processors) << text;
  EXPECT_EQ(a.task_history_depth, b.task_history_depth) << text;
  EXPECT_EQ(a.geometry.line_bytes, b.geometry.line_bytes) << text;
  EXPECT_EQ(a.geometry.total_bytes, b.geometry.total_bytes) << text;
  EXPECT_EQ(a.geometry.ways, b.geometry.ways) << text;
  EXPECT_EQ(a.cache_model, b.cache_model) << text;
  EXPECT_EQ(a.cache_model_seed, b.cache_model_seed) << text;
  EXPECT_EQ(a.miss_service, b.miss_service) << text;
  EXPECT_EQ(a.switch_cost, b.switch_cost) << text;
  EXPECT_EQ(a.num_colors, b.num_colors) << text;
  EXPECT_EQ(a.processor_speed, b.processor_speed) << text;
  EXPECT_EQ(a.cache_size_factor, b.cache_size_factor) << text;
  EXPECT_EQ(a.bus.transfer_seconds, b.bus.transfer_seconds) << text;
  EXPECT_EQ(a.bus.window_seconds, b.bus.window_seconds) << text;
  EXPECT_EQ(a.bus.max_inflation, b.bus.max_inflation) << text;
  EXPECT_EQ(a.topology.ToSpecString(), b.topology.ToSpecString()) << text;
  EXPECT_EQ(want.engine.chunk_quantum, got.engine.chunk_quantum) << text;
  EXPECT_EQ(want.engine.credit_decay_s, got.engine.credit_decay_s) << text;
  EXPECT_EQ(want.engine.record_parallelism, got.engine.record_parallelism) << text;
  EXPECT_EQ(want.engine.processor_history_depth, got.engine.processor_history_depth) << text;
  EXPECT_EQ(want.engine.balance_interval, got.engine.balance_interval) << text;
  EXPECT_EQ(want.rt, got.rt) << text;
  if (want.rt) {
    EXPECT_EQ(want.deadline_mix, got.deadline_mix) << text;
  }
}

TEST(SweepSpecTest, CellSpecTextParsesBackToTheSameCell) {
  for (const char* source :
       {"fig5", "table3", "future", "smoke", "mq", "rt", "rt;rt=0",
        "smoke;balance-interval=2.5;speed=1.5;cache=0.75;topology=cmp-2x10",
        "smoke;procs=8;colors=4;rt=1;deadline-mix=tight",
        // Non-integral periods: Milliseconds() truncates, so the rendering
        // must choose a double that reads back the same nanosecond count.
        "mq;balance-interval=1.000001", "mq;balance-interval=123.456789",
        "mq;balance-interval=999999.999999"}) {
    SweepSpec spec;
    SweepSpec parsed;
    std::string error;
    ASSERT_TRUE(ParseSweepSpec(source, &spec, &error)) << source << ": " << error;
    const std::string text = CellSpecText(spec);
    ASSERT_TRUE(ParseSweepSpec(text, &parsed, &error)) << text << ": " << error;
    ExpectSameCell(spec, parsed, text);
    EXPECT_EQ(CellSpecText(parsed), text);
  }
}

TEST(SweepSpecTest, CellSpecTextRoundTripsEveryBalancePeriod) {
  // Sweep whole-nanosecond periods across the valid range, including the
  // ones whose nearest double in ms multiplies back to just under the count.
  SweepSpec spec = SmokeSpec();
  SweepSpec parsed;
  std::string error;
  size_t checked = 0;
  size_t truncating = 0;
  for (int64_t ns = Milliseconds(1); ns <= Milliseconds(1e6); ns = ns * 3 / 2 + 7) {
    for (int64_t delta = 0; delta < 50; ++delta) {
      spec.engine.balance_interval = ns + delta;
      const std::string text = CellSpecText(spec);
      ASSERT_TRUE(ParseSweepSpec(text, &parsed, &error)) << text << ": " << error;
      ASSERT_EQ(parsed.engine.balance_interval, ns + delta) << text;
      ++checked;
      truncating += Milliseconds(ToMilliseconds(ns + delta)) != ns + delta ? 1 : 0;
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(truncating, 0u);  // the naive rendering would have lost these
}

TEST(SweepSpecTest, MinCellsCountsTheGrid) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke", &spec, &error)) << error;
  EXPECT_EQ(spec.MinCells(), 3u * 2u * 2u);  // policies x mixes x min reps
}

}  // namespace
}  // namespace affsched
