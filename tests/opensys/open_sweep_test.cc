#include "src/opensys/open_sweep.h"

#include <gtest/gtest.h>

#include "src/telemetry/json.h"
#include "tests/runner/hostile_spec_values.h"

namespace affsched {
namespace {

// A deliberately tiny grid so the runner tests stay fast.
OpenSweepSpec TinySpec() {
  OpenSweepSpec spec;
  std::string error;
  EXPECT_TRUE(ParseOpenSweepSpec("opensys-smoke;policies=equi,dyn-aff;rhos=0.7;count=12",
                                 &spec, &error))
      << error;
  return spec;
}

TEST(OpenSweepSpecTest, PresetsParse) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec("opensys", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "opensys");
  EXPECT_EQ(spec.policies.size(), 3u);
  EXPECT_EQ(spec.arrivals.size(), 2u);
  EXPECT_EQ(spec.rhos.size(), 6u);
  EXPECT_EQ(spec.Cells(), 3u * 2u * 6u);

  ASSERT_TRUE(ParseOpenSweepSpec("opensys-smoke", &spec, &error)) << error;
  EXPECT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.arrivals.size(), 1u);
}

TEST(OpenSweepSpecTest, OverridesApply) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec(
                  "opensys;policies=dyn-aff;rhos=0.5,0.9;arrivals=onoff;count=20;reps=2;"
                  "seed=99;procs=8;mpl-cap=6;max-queue=10;warmup=0.1;burst=8",
                  &spec, &error))
      << error;
  EXPECT_EQ(spec.policies.size(), 1u);
  EXPECT_EQ(spec.rhos.size(), 2u);
  ASSERT_EQ(spec.arrivals.size(), 1u);
  EXPECT_EQ(spec.arrivals[0], ArrivalKind::kOnOff);
  EXPECT_EQ(spec.jobs_per_cell, 20u);
  EXPECT_EQ(spec.replications, 2u);
  EXPECT_EQ(spec.root_seed, 99u);
  EXPECT_EQ(spec.machine.num_processors, 8u);
  EXPECT_EQ(spec.mpl_cap, 6u);
  EXPECT_EQ(spec.max_queue, 10);
  EXPECT_DOUBLE_EQ(spec.open.warmup_fraction, 0.1);
  EXPECT_DOUBLE_EQ(spec.onoff_burst_factor, 8.0);
  ASSERT_TRUE(ParseOpenSweepSpec("opensys;warmup=mser", &spec, &error)) << error;
  EXPECT_EQ(spec.open.warmup_rule, WarmupRule::kMser);
}

TEST(OpenSweepSpecTest, TopologyKeyParsesAndValidates) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec("opensys-smoke;topology=cmp-2x10", &spec, &error)) << error;
  EXPECT_EQ(spec.machine.topology.name, "cmp-2x10");
  EXPECT_FALSE(spec.machine.topology.IsFlat());
  EXPECT_FALSE(ParseOpenSweepSpec("opensys-smoke;topology=nosuch", &spec, &error));
  // Machine-level validation runs at the end of the parse.
  EXPECT_FALSE(ParseOpenSweepSpec("opensys-smoke;topology=cmp-2x10,llc-factor=0", &spec, &error));
}

TEST(OpenSweepSpecTest, MalformedSpecsRejected) {
  OpenSweepSpec spec;
  std::string error;
  EXPECT_FALSE(ParseOpenSweepSpec("", &spec, &error));
  EXPECT_FALSE(ParseOpenSweepSpec("nosuch", &spec, &error));
  EXPECT_FALSE(ParseOpenSweepSpec("opensys;bogus=1", &spec, &error));
  EXPECT_FALSE(ParseOpenSweepSpec("opensys;rhos=0", &spec, &error));
  EXPECT_FALSE(ParseOpenSweepSpec("opensys;rhos=2.0", &spec, &error));
  EXPECT_FALSE(ParseOpenSweepSpec("opensys;arrivals=weird", &spec, &error));
  EXPECT_FALSE(ParseOpenSweepSpec("opensys;warmup=1.5", &spec, &error));
  EXPECT_FALSE(ParseOpenSweepSpec("opensys;policies=", &spec, &error));
}

TEST(OpenSweepSpecTest, RejectsHostileNumbersForEverySharedKey) {
  for (const std::string& override_text : HostileGridOverrides()) {
    const std::string text = "opensys-smoke;" + override_text;
    OpenSweepSpec spec;
    std::string error;
    EXPECT_FALSE(ParseOpenSweepSpec(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(OpenSweepSpecTest, RejectsMalformedNumbersForOpenKeys) {
  for (const char* key :
       {"rhos", "count", "reps", "mpl-cap", "max-queue", "warmup", "burst", "rt"}) {
    for (const std::string& value : kMalformedNumbers) {
      const std::string text = "opensys-smoke;" + std::string(key) + "=" + value;
      OpenSweepSpec spec;
      std::string error;
      EXPECT_FALSE(ParseOpenSweepSpec(text, &spec, &error)) << text;
      EXPECT_FALSE(error.empty()) << text;
    }
  }
}

TEST(OpenSweepSpecTest, SharedKeysMatchTheClosedGrammar) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec(
      "opensys-smoke;seed=9223372036854775815;procs=8;speed=2;cache=0.5;colors=4;rt=on;"
      "deadline-mix=hard;steal=cluster",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.root_seed, 9223372036854775815ull);
  EXPECT_EQ(spec.machine.num_processors, 8u);
  EXPECT_DOUBLE_EQ(spec.machine.processor_speed, 2.0);
  EXPECT_DOUBLE_EQ(spec.machine.cache_size_factor, 0.5);
  EXPECT_EQ(spec.machine.cache_model, CacheModelKind::kPartitioned);
  EXPECT_EQ(spec.machine.num_colors, 4u);
  EXPECT_TRUE(spec.rt);
  EXPECT_EQ(spec.deadline_mix, "hard");
  ASSERT_EQ(spec.policies.size(), 1u);
  EXPECT_TRUE(IsMqPolicy(spec.policies[0]));
}

TEST(OpenSweepSpecTest, ArrivalKindNamesRoundTrip) {
  ArrivalKind kind;
  ASSERT_TRUE(ArrivalKindFromName("poisson", &kind));
  EXPECT_EQ(ArrivalKindName(kind), "poisson");
  ASSERT_TRUE(ArrivalKindFromName("onoff", &kind));
  EXPECT_EQ(ArrivalKindName(kind), "onoff");
  EXPECT_FALSE(ArrivalKindFromName("", &kind));
}

TEST(OpenSweepSpecTest, RhoPermilleIsExact) {
  EXPECT_EQ(RhoPermille(0.7), 700);
  EXPECT_EQ(RhoPermille(0.95), 950);
  EXPECT_EQ(RhoPermille(0.3), 300);
}

TEST(OpenSweepSpecTest, MeanDemandIsDeterministicAndPositive) {
  const OpenSweepSpec spec = TinySpec();
  const double a = MeanServiceDemandSeconds(spec.apps, spec.app_weights);
  const double b = MeanServiceDemandSeconds(spec.apps, spec.app_weights);
  EXPECT_GT(a, 0.0);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(OpenSweepRunnerTest, JsonByteIdenticalAtAnyWorkerCount) {
  const OpenSweepSpec spec = TinySpec();
  OpenSweepRunnerOptions serial;
  serial.jobs = 1;
  OpenSweepRunnerOptions parallel;
  parallel.jobs = 4;
  const std::string a = OpenSweepRunner(serial).Run(spec).ToJson();
  const std::string b = OpenSweepRunner(parallel).Run(spec).ToJson();
  EXPECT_EQ(a, b);
}

TEST(OpenSweepRunnerTest, EmitsSchemaV2OpenMode) {
  const OpenSweepResult result = OpenSweepRunner().Run(TinySpec());
  const std::string json = result.ToJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"open\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_sojourn_s\""), std::string::npos);
  EXPECT_NE(json.find("\"littles_law\""), std::string::npos);
}

TEST(OpenSweepRunnerTest, LittlesLawHoldsInEveryCell) {
  const OpenSweepResult result = OpenSweepRunner().Run(TinySpec());
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_TRUE(result.AllLittlesLawOk());
  for (const OpenCellResult& cell : result.cells) {
    EXPECT_LT(cell.result.littles.relative_error, 0.05);
    EXPECT_EQ(cell.result.completed, cell.result.admitted);
    EXPECT_GT(cell.result.mean_sojourn_s, 0.0);
  }
}

TEST(OpenSweepRunnerTest, CommonRandomNumbersAcrossPolicies) {
  // Policies share the cell seed, so both see the identical arrival stream.
  const OpenSweepResult result = OpenSweepRunner().Run(TinySpec());
  const OpenCellResult* equi =
      result.Find(PolicyKind::kEquipartition, ArrivalKind::kPoisson, 700, 0);
  const OpenCellResult* dyn_aff =
      result.Find(PolicyKind::kDynAff, ArrivalKind::kPoisson, 700, 0);
  ASSERT_NE(equi, nullptr);
  ASSERT_NE(dyn_aff, nullptr);
  EXPECT_EQ(equi->seed, dyn_aff->seed);
  ASSERT_EQ(equi->result.jobs.size(), dyn_aff->result.jobs.size());
  for (size_t i = 0; i < equi->result.jobs.size(); ++i) {
    EXPECT_EQ(equi->result.jobs[i].arrival, dyn_aff->result.jobs[i].arrival);
    EXPECT_EQ(equi->result.jobs[i].app_index, dyn_aff->result.jobs[i].app_index);
  }
}

}  // namespace
}  // namespace affsched
