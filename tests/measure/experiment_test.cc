#include "src/measure/experiment.h"

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/common/rng.h"

namespace affsched {
namespace {

std::vector<AppProfile> SmallMixJobs() {
  return {MakeSmallMvaProfile(), MakeSmallGravityProfile()};
}

MachineConfig SmallMachine() {
  MachineConfig config;
  config.num_processors = 8;
  return config;
}

TEST(ExperimentTest, PaperMachineIsSixteenProcessors) {
  const MachineConfig config = PaperMachineConfig();
  EXPECT_EQ(config.num_processors, 16u);
  EXPECT_DOUBLE_EQ(config.CapacityBlocks(), 4096.0);
}

TEST(ExperimentTest, RunOnceReportsAllJobs) {
  const RunResult result =
      RunOnce(SmallMachine(), PolicyKind::kDynamic, SmallMixJobs(), 1);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].app, "MVA");
  EXPECT_EQ(result.jobs[1].app, "GRAVITY");
  EXPECT_GT(result.makespan, 0);
  for (const JobResult& j : result.jobs) {
    EXPECT_GT(j.stats.ResponseSeconds(), 0.0);
  }
}

TEST(ExperimentTest, RunOnceIsDeterministicPerSeed) {
  const RunResult a = RunOnce(SmallMachine(), PolicyKind::kDynAff, SmallMixJobs(), 5);
  const RunResult b = RunOnce(SmallMachine(), PolicyKind::kDynAff, SmallMixJobs(), 5);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].stats.ResponseSeconds(), b.jobs[i].stats.ResponseSeconds());
  }
}

TEST(ExperimentTest, ReplicationRunsAtLeastMinimum) {
  ReplicationOptions rep;
  rep.min_replications = 3;
  rep.max_replications = 4;
  const ReplicatedResult result =
      RunReplicated(SmallMachine(), PolicyKind::kDynamic, SmallMixJobs(), 1, rep);
  EXPECT_GE(result.replications, 3u);
  EXPECT_LE(result.replications, 4u);
  ASSERT_EQ(result.response.size(), 2u);
  EXPECT_EQ(result.response[0].count(), result.replications);
}

TEST(ExperimentTest, MeanStatsAveragedAcrossReplications) {
  ReplicationOptions rep;
  rep.min_replications = 3;
  rep.max_replications = 3;
  const ReplicatedResult result =
      RunReplicated(SmallMachine(), PolicyKind::kDynamic, SmallMixJobs(), 1, rep);
  for (size_t j = 0; j < result.mean_stats.size(); ++j) {
    const JobStats& s = result.mean_stats[j];
    EXPECT_GT(s.useful_work_s, 0.0);
    EXPECT_GT(s.reallocations, 0u);
    EXPECT_NEAR(ToSeconds(s.completion), result.response[j].mean(),
                0.05 * result.response[j].mean());
  }
}

TEST(ExperimentTest, AppNamesStableAcrossReplications) {
  ReplicationOptions rep;
  rep.min_replications = 2;
  rep.max_replications = 2;
  const ReplicatedResult result =
      RunReplicated(SmallMachine(), PolicyKind::kEquipartition, SmallMixJobs(), 1, rep);
  ASSERT_EQ(result.app.size(), 2u);
  EXPECT_EQ(result.app[0], "MVA");
  EXPECT_EQ(result.app[1], "GRAVITY");
}

// A one-job replication whose response time is `seconds`.
RunResult OneJobRun(double seconds) {
  RunResult run;
  JobResult job;
  job.app = "X";
  job.stats.completion = Seconds(seconds);
  run.jobs.push_back(job);
  return run;
}

ReplicationOptions Rule(double precision, size_t min_reps, size_t max_reps) {
  ReplicationOptions options;
  options.relative_precision = precision;
  options.min_replications = min_reps;
  options.max_replications = max_reps;
  return options;
}

TEST(ReplicationFolderTest, StopsWhenPrecise) {
  const ReplicationOptions rule = Rule(0.01, 3, 100);
  ReplicationFolder folder(1);
  // Identical observations: precise as soon as the minimum is reached.
  folder.Fold(OneJobRun(10.0));
  EXPECT_FALSE(folder.Done(rule));
  folder.Fold(OneJobRun(10.0));
  EXPECT_FALSE(folder.Done(rule));
  folder.Fold(OneJobRun(10.0));
  EXPECT_TRUE(folder.Done(rule));
}

TEST(ReplicationFolderTest, KeepsGoingWhenNoisy) {
  const ReplicationOptions rule = Rule(0.001, 2, 1000);
  ReplicationFolder folder(1);
  Rng rng(3);
  for (int i = 0; i < 3; ++i) {
    folder.Fold(OneJobRun(std::abs(rng.NextNormal(10, 5))));
  }
  EXPECT_FALSE(folder.Done(rule));
}

TEST(ReplicationFolderTest, RespectsMaxCap) {
  const ReplicationOptions rule = Rule(1e-9, 2, 5);
  ReplicationFolder folder(1);
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(folder.Done(rule));
    folder.Fold(OneJobRun(std::abs(rng.NextNormal(10, 5))));
  }
  EXPECT_TRUE(folder.Done(rule));
}

TEST(ReplicationFolderTest, PaperStoppingRule) {
  // The paper's rule: 95% CI within 1% of the point estimate.
  const ReplicationOptions rule = Rule(0.01, 3, 10000);
  ReplicationFolder folder(1);
  Rng rng(11);
  while (!folder.Done(rule)) {
    folder.Fold(OneJobRun(rng.NextNormal(100.0, 1.0)));
  }
  const Summary s = folder.Finish().response[0];
  EXPECT_LE(s.ConfidenceHalfWidth(0.95), 0.01 * s.mean());
  EXPECT_LT(folder.replications(), 100u);
}

TEST(ReplicationFolderTest, FoldsEachFieldByItsRule) {
  RunResult a = OneJobRun(0.0);
  RunResult b = OneJobRun(0.0);
  JobStats& x = a.jobs[0].stats;
  JobStats& y = b.jobs[0].stats;
  x.arrival = Seconds(1);
  x.completion = Seconds(5);  // response 4 s
  y.arrival = Seconds(2);
  y.completion = Seconds(10);  // response 8 s
  x.queue_wait_s = 3.0;
  y.queue_wait_s = 5.0;
  x.useful_work_s = 1.0;
  y.useful_work_s = 2.0;
  x.reallocations = 3;
  y.reallocations = 4;
  x.worst_reload_s = 0.5;
  y.worst_reload_s = 0.25;
  ReplicationFolder folder(1);
  folder.Fold(a);
  folder.Fold(b);
  const JobStats mean = folder.Finish().mean_stats[0];
  EXPECT_EQ(mean.useful_work_s, 1.5);  // doubles: sum, then divide
  EXPECT_EQ(mean.reallocations, 3u);   // counters: truncating mean of 7/2
  EXPECT_EQ(mean.worst_reload_s, 0.5);  // the worst replication
  // The mean response time, as completion with arrival 0. The sum starts
  // from JobStats' completion default of -1 ns, as it always has.
  EXPECT_EQ(mean.arrival, 0);
  EXPECT_EQ(mean.completion, (Seconds(12) - 1) / 2);
  EXPECT_EQ(mean.queue_wait_s, 0.0);  // not folded
}

}  // namespace
}  // namespace affsched
