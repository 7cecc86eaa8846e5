#include "src/opensys/arrival_process.h"

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/sched/factory.h"

namespace affsched {
namespace {

TEST(ArrivalsTest, GeneratesRequestedCountSorted) {
  const auto plan = PoissonArrivals(50, Seconds(2), {1.0, 1.0, 1.0}, 9);
  ASSERT_EQ(plan.size(), 50u);
  for (size_t i = 1; i < plan.size(); ++i) {
    EXPECT_GE(plan[i].when, plan[i - 1].when);
  }
}

TEST(ArrivalsTest, MeanInterarrivalApproximatelyMatches) {
  const auto plan = PoissonArrivals(2000, Seconds(3), {1.0}, 10);
  const double mean = ToSeconds(plan.back().when) / static_cast<double>(plan.size());
  EXPECT_NEAR(mean, 3.0, 0.25);
}

TEST(ArrivalsTest, WeightsSteerAppMix) {
  const auto plan = PoissonArrivals(3000, Seconds(1), {8.0, 1.0, 1.0}, 11);
  size_t counts[3] = {0, 0, 0};
  for (const auto& entry : plan) {
    ASSERT_LT(entry.app_index, 3u);
    ++counts[entry.app_index];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / 3000.0, 0.8, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 3000.0, 0.1, 0.03);
}

TEST(ArrivalsTest, DeterministicPerSeed) {
  const auto a = PoissonArrivals(20, Seconds(1), {1.0, 2.0}, 12);
  const auto b = PoissonArrivals(20, Seconds(1), {1.0, 2.0}, 12);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].when, b[i].when);
    EXPECT_EQ(a[i].app_index, b[i].app_index);
  }
}

TEST(ArrivalsTest, PlanDrivesEngineToCompletion) {
  MachineConfig machine;
  machine.num_processors = 4;
  const std::vector<AppProfile> apps = {MakeSmallMvaProfile(), MakeSmallGravityProfile()};
  const auto plan = PoissonArrivals(4, Seconds(1), {1.0, 1.0}, 13);
  Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 13);
  for (const auto& entry : plan) {
    engine.SubmitJob(apps[entry.app_index], entry.when);
  }
  const SimTime end = engine.Run();
  EXPECT_GT(end, plan.back().when);
  for (JobId id = 0; id < engine.job_count(); ++id) {
    EXPECT_GE(engine.job_stats(id).completion, 0);
  }
}

TEST(ArrivalsTest, HorizonBoundedGenerationStopsBeforeTEnd) {
  const SimTime t_end = Seconds(100);
  const auto plan = PoissonArrivalsUntil(t_end, Seconds(2), {1.0}, 14);
  ASSERT_FALSE(plan.empty());
  for (const auto& entry : plan) {
    EXPECT_LT(entry.when, t_end);
  }
  // ~50 expected; a wildly different count would mean the horizon is ignored.
  EXPECT_GT(plan.size(), 25u);
  EXPECT_LT(plan.size(), 90u);
}

TEST(ArrivalsTest, CountAndHorizonBoundsCompose) {
  PoissonProcess process(Seconds(1), {1.0});
  const auto by_count = GenerateArrivals(process, 15, /*max_count=*/10, /*t_end=*/0);
  EXPECT_EQ(by_count.size(), 10u);
  const auto both = GenerateArrivals(process, 15, /*max_count=*/10, Seconds(3));
  EXPECT_LE(both.size(), 10u);
  for (const auto& entry : both) {
    EXPECT_LT(entry.when, Seconds(3));
  }
}

TEST(ArrivalsTest, ResetReplaysIdenticalStream) {
  PoissonProcess process(Seconds(1), {1.0, 1.0});
  const auto a = GenerateArrivals(process, 77, 25, 0);
  const auto b = GenerateArrivals(process, 77, 25, 0);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].when, b[i].when);
    EXPECT_EQ(a[i].app_index, b[i].app_index);
  }
}

TEST(OnOffTest, LongRunRateMatchesConfiguredMean) {
  // On-phase rate 4x the target, on fraction 1/4: the long-run mean
  // inter-arrival should approach 2s.
  OnOffProcess::Params params;
  params.on_interarrival = Seconds(0.5);
  params.mean_on = Seconds(6);
  params.mean_off = Seconds(18);
  OnOffProcess process(params, {1.0});
  const auto plan = GenerateArrivals(process, 21, 8000, 0);
  const double mean = ToSeconds(plan.back().when) / static_cast<double>(plan.size());
  EXPECT_NEAR(mean, 2.0, 0.3);
}

TEST(OnOffTest, BurstierThanPoissonAtSameRate) {
  // Squared coefficient of variation of inter-arrival times: 1 for Poisson,
  // substantially above 1 for the on/off process.
  OnOffProcess::Params params;
  params.on_interarrival = Seconds(0.5);
  params.mean_on = Seconds(6);
  params.mean_off = Seconds(18);
  OnOffProcess process(params, {1.0});
  const auto plan = GenerateArrivals(process, 22, 6000, 0);
  double sum = 0.0;
  double sumsq = 0.0;
  SimTime prev = 0;
  for (const auto& entry : plan) {
    const double gap = ToSeconds(entry.when - prev);
    prev = entry.when;
    sum += gap;
    sumsq += gap * gap;
  }
  const double n = static_cast<double>(plan.size());
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_GT(var / (mean * mean), 1.5);
}

TEST(TraceTest, CsvParsesSkipsCommentsAndHeader) {
  const std::string csv =
      "# recorded arrivals\n"
      "t_s,app\n"
      "0.5, 0\n"
      "1.25,2\n"
      "\n"
      "3.0,1\n";
  std::vector<ArrivalPlanEntry> entries;
  std::string error;
  ASSERT_TRUE(ParseArrivalTraceCsv(csv, &entries, &error)) << error;
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].when, Seconds(0.5));
  EXPECT_EQ(entries[0].app_index, 0u);
  EXPECT_EQ(entries[1].app_index, 2u);
  EXPECT_EQ(entries[2].when, Seconds(3.0));
}

TEST(TraceTest, CsvRejectsOutOfOrderTimes) {
  std::vector<ArrivalPlanEntry> entries;
  std::string error;
  EXPECT_FALSE(ParseArrivalTraceCsv("1.0,0\n0.5,0\n", &entries, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(TraceTest, CsvRejectsMalformedRow) {
  std::vector<ArrivalPlanEntry> entries;
  std::string error;
  EXPECT_FALSE(ParseArrivalTraceCsv("0.5,0\nnot-a-number,1\n", &entries, &error));
  EXPECT_FALSE(ParseArrivalTraceCsv("0.5,0\n1.0,1.5\n", &entries, &error));
  EXPECT_FALSE(ParseArrivalTraceCsv("-1.0,0\n", &entries, &error));
}

TEST(TraceTest, JsonlParses) {
  const std::string jsonl =
      "{\"t_s\":0.5,\"app\":0}\n"
      "{\"app\": 1, \"t_s\": 2.25}\n";
  std::vector<ArrivalPlanEntry> entries;
  std::string error;
  ASSERT_TRUE(ParseArrivalTraceJsonl(jsonl, &entries, &error)) << error;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].when, Seconds(0.5));
  EXPECT_EQ(entries[1].when, Seconds(2.25));
  EXPECT_EQ(entries[1].app_index, 1u);
}

TEST(TraceTest, JsonlRejectsMissingField) {
  std::vector<ArrivalPlanEntry> entries;
  std::string error;
  EXPECT_FALSE(ParseArrivalTraceJsonl("{\"t_s\":0.5}\n", &entries, &error));
  EXPECT_NE(error.find("app"), std::string::npos);
}

// Times and app indices beyond the bounds would overflow the integer casts
// into SimTime and size_t; both formats reject them with a line number.
TEST(TraceTest, RejectsTimesAndAppIndicesBeyondBounds) {
  std::vector<ArrivalPlanEntry> entries;
  std::string error;
  EXPECT_FALSE(ParseArrivalTraceCsv("0.5,0\n1e300,0\n", &entries, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(ParseArrivalTraceCsv("1e20,0\n", &entries, &error));
  EXPECT_FALSE(ParseArrivalTraceCsv("0.5,1e20\n", &entries, &error));
  EXPECT_FALSE(ParseArrivalTraceCsv("0.5,1e300\n", &entries, &error));
  EXPECT_FALSE(ParseArrivalTraceCsv("0.5,4294967296\n", &entries, &error));
  EXPECT_FALSE(ParseArrivalTraceJsonl("{\"t_s\":1e300,\"app\":0}\n", &entries, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(ParseArrivalTraceJsonl("{\"t_s\":1e20,\"app\":0}\n", &entries, &error));
  EXPECT_FALSE(ParseArrivalTraceJsonl("{\"t_s\":0.5,\"app\":1e20}\n", &entries, &error));
  EXPECT_FALSE(ParseArrivalTraceJsonl("{\"t_s\":0.5,\"app\":1e300}\n", &entries, &error));

  // The bounds themselves are accepted.
  ASSERT_TRUE(ParseArrivalTraceCsv("1e9,4294967295\n", &entries, &error)) << error;
  EXPECT_EQ(entries[0].when, Seconds(kMaxTraceSeconds));
  EXPECT_EQ(entries[0].app_index, size_t{4294967295u});
  ASSERT_TRUE(ParseArrivalTraceJsonl("{\"t_s\":1e9,\"app\":4294967295}\n", &entries, &error))
      << error;
}

TEST(TraceTest, TraceProcessReplaysAndExhausts) {
  std::vector<ArrivalPlanEntry> entries = {{0, Seconds(1)}, {1, Seconds(2)}};
  TraceArrivalProcess process(entries);
  const auto plan = GenerateArrivals(process, 0, 0, 0);  // finite: no bound needed
  ASSERT_EQ(plan.size(), 2u);
  ArrivalPlanEntry entry;
  process.Reset(0);
  EXPECT_TRUE(process.Next(&entry));
  EXPECT_TRUE(process.Next(&entry));
  EXPECT_FALSE(process.Next(&entry));
}

TEST(ArrivalsDeathTest, EmptyWeightsAbort) {
  EXPECT_DEATH(PoissonArrivals(1, Seconds(1), {}, 1), "empty");
}

TEST(ArrivalsDeathTest, NegativeWeightAborts) {
  EXPECT_DEATH(PoissonArrivals(1, Seconds(1), {1.0, -0.5}, 1), "negative");
}

TEST(ArrivalsDeathTest, AllZeroWeightsAbort) {
  EXPECT_DEATH(PoissonArrivals(1, Seconds(1), {0.0, 0.0}, 1), "zero");
}

TEST(ArrivalsDeathTest, UnboundedGenerationAborts) {
  PoissonProcess process(Seconds(1), {1.0});
  EXPECT_DEATH(GenerateArrivals(process, 1, 0, 0), "unbounded");
}

}  // namespace
}  // namespace affsched
