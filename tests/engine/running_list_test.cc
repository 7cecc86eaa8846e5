// Differential test of the per-job running list (JobState::running): after
// every event of whole seeded runs, each job's list must equal what an
// ascending scan of the processors finds — the processors the job holds with
// a worker executing on them. The list is the coherence sibling list of every
// chunk, so a stale, missing or misordered entry would change which caches a
// shared write erodes, or the order the invalidation sum is taken in.
//
// The runs cover the centralized policies (equi, dynamic, dyn-aff,
// dyn-aff-delay), the multi-queue steal family with balance ticks (mq-numa)
// and the color-isolating rt policy, on flat, cmp-2x10 and numa-4x8 machines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/runner/sweep.h"
#include "src/sched/factory.h"

namespace affsched {
namespace {

std::vector<Machine::SiblingPlacement> ScanRunning(const EngineCore& core, JobId id) {
  std::vector<Machine::SiblingPlacement> scan;
  for (size_t p = 0; p < core.procs.size(); ++p) {
    if (core.procs[p].holder == id && core.procs[p].running != kNoOwner) {
      scan.push_back(Machine::SiblingPlacement{p, core.procs[p].running});
    }
  }
  return scan;
}

std::string Render(const std::vector<Machine::SiblingPlacement>& list) {
  std::ostringstream o;
  for (const Machine::SiblingPlacement& entry : list) {
    o << " " << entry.proc << ":" << entry.owner;
  }
  return o.str();
}

struct Case {
  const char* spec;  // sweep-spec text for the machine and engine options
  const char* policy;
};

class RunningListTest : public ::testing::TestWithParam<Case> {};

TEST_P(RunningListTest, EqualsTheProcessorScanAfterEveryEvent) {
  const Case& c = GetParam();
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec(c.spec, &spec, &error)) << error;
  PolicyKind kind;
  ASSERT_TRUE(PolicyKindFromName(c.policy, &kind));
  spec.apps = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(), MakeSmallGravityProfile()};
  const WorkloadMix mix{.number = 5, .mva = 3, .matrix = 3, .gravity = 3};

  for (const uint64_t seed : {11ull, 12ull}) {
    Engine engine(spec.machine, MakePolicy(kind), seed, spec.engine);
    for (const AppProfile& profile : MixJobs(spec, mix)) {
      engine.SubmitJob(profile, 0);
    }
    size_t events = 0;
    size_t mismatches = 0;
    size_t widest = 0;
    std::string first;
    engine.RunObserved([&](const EngineCore& core) {
      ++events;
      for (JobId id = 0; id < core.jobs.size(); ++id) {
        const std::vector<Machine::SiblingPlacement>& list = core.jobs[id].running;
        const std::vector<Machine::SiblingPlacement> scan = ScanRunning(core, id);
        widest = std::max(widest, list.size());
        bool same = list.size() == scan.size();
        for (size_t i = 0; same && i < list.size(); ++i) {
          same = list[i].proc == scan[i].proc && list[i].owner == scan[i].owner;
        }
        if (!same && mismatches++ == 0) {
          first = "event " + std::to_string(events) + " job " + std::to_string(id) +
                  ": list" + Render(list) + " scan" + Render(scan);
        }
      }
    });
    EXPECT_EQ(mismatches, 0u) << c.spec << " " << c.policy << " seed " << seed
                              << "; first: " << first;
    // Not vacuous: the run executed and some job ran on several processors.
    EXPECT_GT(events, 100u);
    EXPECT_GE(widest, 2u);
    if (IsMqPolicy(kind)) {
      // The multi-queue runs realise steals (and, with balance-interval,
      // re-home jobs on the ticks).
      size_t steals = 0;
      for (JobId id = 0; id < engine.job_count(); ++id) {
        steals += engine.job_stats(id).TotalSteals();
      }
      EXPECT_GT(steals, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RunningListTest,
    ::testing::Values(Case{"smoke;procs=20", "equi"}, Case{"smoke;procs=20", "dynamic"},
                      Case{"smoke;procs=20", "dyn-aff"},
                      Case{"smoke;procs=20", "dyn-aff-delay"},
                      Case{"smoke;topology=cmp-2x10", "dyn-aff"},
                      Case{"smoke;topology=cmp-2x10", "mq-numa"},
                      Case{"smoke;topology=numa-4x8;procs=32", "dyn-aff-delay"},
                      Case{"smoke;topology=numa-4x8;procs=32;balance-interval=5", "mq-numa"},
                      Case{"smoke;procs=20;colors=8;rt=1", "rt-color-iso"}),
    [](const ::testing::TestParamInfo<Case>& param) {
      std::string name = std::string(param.param.spec) + "_" + param.param.policy;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) {
          ch = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace affsched
