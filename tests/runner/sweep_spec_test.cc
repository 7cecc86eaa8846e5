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
        "smoke;balance-interval=1e300", "smoke;colors=65"}) {
    SweepSpec spec;
    std::string error;
    EXPECT_FALSE(ParseSweepSpec(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
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

TEST(SweepSpecTest, MinCellsCountsTheGrid) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke", &spec, &error)) << error;
  EXPECT_EQ(spec.MinCells(), 3u * 2u * 2u);  // policies x mixes x min reps
}

}  // namespace
}  // namespace affsched
