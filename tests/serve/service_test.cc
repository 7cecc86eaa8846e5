#include "src/serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/apps/apps.h"
#include "src/runner/runner.h"
#include "src/serve/spool.h"
#include "src/telemetry/json.h"

namespace affsched {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/service_test_" + name;
  fs::remove_all(dir);
  return dir;
}

// Small profiles so unit-test submissions are fast. The spool/shard tests
// can't use this: workers rebuild a cell from its spec text, which always
// means the full-size default profiles.
SweepSpec TinySpec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.machine.num_processors = 8;
  spec.apps = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(), MakeSmallGravityProfile()};
  spec.policies = {PolicyKind::kEquipartition, PolicyKind::kDynAff};
  spec.mixes = {WorkloadMix{.number = 1, .mva = 2, .matrix = 0, .gravity = 0}};
  spec.replication.min_replications = 2;
  spec.replication.max_replications = 2;
  spec.root_seed = 7;
  return spec;
}

SweepServiceOptions TinyOptions(const std::string& cache_dir) {
  SweepServiceOptions options;
  options.cache_dir = cache_dir;
  options.jobs = 4;
  options.git_rev = "testrev";  // pinned so entries survive rebuilds of this test
  return options;
}

TEST(SweepServiceTest, SecondSubmissionServesEveryCellFromCache) {
  SweepService service(TinyOptions(FreshDir("twice")));
  ASSERT_TRUE(service.ok()) << service.error();

  SubmitOutcome first, second;
  std::string error;
  ASSERT_TRUE(service.Submit(TinySpec(), {}, &first, &error)) << error;
  EXPECT_EQ(first.cells, 4u);
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.executed, 4u);

  ASSERT_TRUE(service.Submit(TinySpec(), {}, &second, &error)) << error;
  EXPECT_EQ(second.cells, 4u);
  EXPECT_EQ(second.hits, 4u);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(first.json, second.json);
  EXPECT_EQ(first.sweep_key, second.sweep_key);

  EXPECT_EQ(service.counters().submits.load(), 2u);
  EXPECT_EQ(service.counters().cache_hits.load(), 4u);
  EXPECT_EQ(service.counters().cells_executed.load(), 4u);

  JsonValue stats;
  ASSERT_TRUE(ParseJson(service.StatsJson(), &stats, &error)) << error;
  EXPECT_EQ(stats.Get("service")->Get("submits")->AsUint64(), 2u);
  EXPECT_EQ(stats.Get("cache")->Get("stores")->AsUint64(), 4u);
}

TEST(SweepServiceTest, ServedDocumentMatchesBatchRunnerByteForByte) {
  SweepService service(TinyOptions(FreshDir("batch")));
  ASSERT_TRUE(service.ok()) << service.error();
  SubmitOutcome outcome;
  std::string error;
  ASSERT_TRUE(service.Submit(TinySpec(), {}, &outcome, &error)) << error;

  const SweepResult batch = SweepRunner(SweepRunnerOptions{.jobs = 4}).Run(TinySpec());
  EXPECT_EQ(outcome.json, batch.ToJson() + "\n");
}

TEST(SweepServiceTest, ResumesFromPartialCache) {
  const std::string cache_dir = FreshDir("resume");
  SubmitOutcome full;
  std::string error;
  {
    SweepService service(TinyOptions(cache_dir));
    ASSERT_TRUE(service.Submit(TinySpec(), {}, &full, &error)) << error;
  }

  // Simulate a crash that lost two in-flight cells: remove two entries.
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    entries.push_back(entry.path().string());
  }
  ASSERT_EQ(entries.size(), 4u);
  std::sort(entries.begin(), entries.end());
  fs::remove(entries[0]);
  fs::remove(entries[1]);

  // A fresh service (the restarted daemon) re-simulates only the missing
  // cells and still produces the byte-identical document.
  SweepService service(TinyOptions(cache_dir));
  SubmitOutcome resumed;
  ASSERT_TRUE(service.Submit(TinySpec(), {}, &resumed, &error)) << error;
  EXPECT_EQ(resumed.cells, 4u);
  EXPECT_EQ(resumed.hits, 2u);
  EXPECT_EQ(resumed.executed, 2u);
  EXPECT_EQ(resumed.json, full.json);
}

TEST(SweepServiceTest, EquivalentSpecSpellingsShareCells) {
  const std::string cache_dir = FreshDir("canon");
  SweepService service(TinyOptions(cache_dir));
  SweepSpec a, b;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;mixes=1;policies=equi;reps=2;procs=8;speed=2.0", &a, &error))
      << error;
  ASSERT_TRUE(ParseSweepSpec("smoke;mixes=1;policies=equi;reps=2;speed=2;procs=8", &b, &error))
      << error;
  SubmitOutcome first, second;
  ASSERT_TRUE(service.Submit(a, {}, &first, &error)) << error;
  ASSERT_TRUE(service.Submit(b, {}, &second, &error)) << error;
  EXPECT_EQ(first.executed, first.cells);
  EXPECT_EQ(second.hits, second.cells) << "differently-spelled spec missed the cache";
  EXPECT_EQ(first.sweep_key, second.sweep_key);
  // The documents agree on everything but the verbatim spec string, which is
  // provenance by design (the result records what the user typed).
  const size_t pos_a = first.json.find("\"experiments\"");
  const size_t pos_b = second.json.find("\"experiments\"");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_EQ(first.json.substr(pos_a), second.json.substr(pos_b));
}

TEST(SweepServiceTest, OwnProfilesDoNotShareCellsWithTheDefaults) {
  // On the smoke machine, TinySpec's mix 1 runs the small profiles at the
  // same machine, policy, mix number and seeds as this default-profile spec,
  // so a key that names the mix only by number would serve one from the
  // other's entries.
  SweepSpec defaults;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;policies=equi;mixes=1;reps=1;seed=7", &defaults, &error))
      << error;
  SweepSpec tiny_spec = TinySpec();
  tiny_spec.machine = defaults.machine;
  SubmitOutcome fresh;
  {
    SweepService service(TinyOptions(FreshDir("profiles-fresh")));
    ASSERT_TRUE(service.Submit(defaults, {}, &fresh, &error)) << error;
  }

  SweepService service(TinyOptions(FreshDir("profiles-shared")));
  SubmitOutcome tiny, second;
  ASSERT_TRUE(service.Submit(tiny_spec, {}, &tiny, &error)) << error;
  ASSERT_TRUE(service.Submit(defaults, {}, &second, &error)) << error;
  EXPECT_EQ(second.hits, 0u);
  EXPECT_EQ(second.executed, second.cells);
  EXPECT_EQ(second.json, fresh.json);
}

TEST(SweepServiceTest, ShardedServiceRefusesJobsAWorkerCannotRebuild) {
  // A shard worker rebuilds a cell from its spec text, i.e. with the default
  // profiles, so a sharded service must not offer TinySpec's cells.
  SweepServiceOptions options = TinyOptions(FreshDir("refuse-cache"));
  options.spool_dir = FreshDir("refuse-spool");
  SweepService service(options);
  ASSERT_TRUE(service.ok()) << service.error();
  SubmitOutcome outcome;
  std::string error;
  EXPECT_FALSE(service.Submit(TinySpec(), {}, &outcome, &error));
  EXPECT_NE(error.find("sharded service"), std::string::npos) << error;
  EXPECT_EQ(service.counters().errors.load(), 1u);
}

TEST(SweepServiceTest, StreamsPlannedCellsResultDone) {
  SweepService service(TinyOptions(FreshDir("events")));
  std::vector<std::string> lines;
  SubmitOutcome outcome;
  std::string error;
  ASSERT_TRUE(service.Submit(
      TinySpec(), [&](const std::string& line) { lines.push_back(line); }, &outcome, &error))
      << error;

  ASSERT_GE(lines.size(), 4u);
  size_t cells = 0, sim_cells = 0;
  JsonValue event;
  for (const std::string& line : lines) {
    ASSERT_TRUE(ParseJson(line, &event, &error)) << line << ": " << error;
    const std::string kind = event.Get("event")->string_value;
    if (kind == "cell") {
      ++cells;
      if (event.Get("source")->string_value == "sim") {
        ++sim_cells;
      }
    }
    if (kind == "result") {
      EXPECT_EQ(event.Get("json")->string_value, outcome.json);
      EXPECT_EQ(event.Get("cells")->AsUint64(), outcome.cells);
    }
  }
  JsonValue first_event, last_event;
  ASSERT_TRUE(ParseJson(lines.front(), &first_event, &error));
  ASSERT_TRUE(ParseJson(lines.back(), &last_event, &error));
  EXPECT_EQ(first_event.Get("event")->string_value, "planned");
  EXPECT_EQ(first_event.Get("cells_min")->AsUint64(), 4u);
  EXPECT_EQ(last_event.Get("event")->string_value, "done");
  EXPECT_EQ(cells, outcome.cells);
  EXPECT_EQ(sim_cells, outcome.cells);  // fresh cache: everything simulated

  // Resubmission streams the same cells, now all from cache.
  lines.clear();
  ASSERT_TRUE(service.Submit(
      TinySpec(), [&](const std::string& line) { lines.push_back(line); }, &outcome, &error));
  size_t cached_cells = 0;
  for (const std::string& line : lines) {
    ASSERT_TRUE(ParseJson(line, &event, &error));
    if (event.Get("event")->string_value == "cell" &&
        event.Get("source")->string_value == "cache") {
      ++cached_cells;
    }
  }
  EXPECT_EQ(cached_cells, outcome.cells);
}

TEST(SweepServiceTest, ShardWorkersResolveEveryCell) {
  // Full-size profiles: the worker rebuilds the cell's inputs from the task's
  // spec text alone, which always means the default profiles — so keep the
  // grid minimal (1 policy x 1 mix x 2 reps).
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;mixes=1;policies=equi;reps=2", &spec, &error)) << error;

  // Unsharded golden document first, in its own cache.
  SubmitOutcome golden;
  {
    SweepService service(TinyOptions(FreshDir("shard-golden")));
    ASSERT_TRUE(service.Submit(spec, {}, &golden, &error)) << error;
  }

  SweepServiceOptions options = TinyOptions(FreshDir("shard-cache"));
  options.spool_dir = FreshDir("shard-spool");
  options.shard_local_execution = false;  // every cell must be resolved remotely
  SweepService service(options);
  ASSERT_TRUE(service.ok()) << service.error();

  // Two in-process "worker daemons" sharing the spool and cache.
  ResultCache worker_cache({options.cache_dir, 0});
  Spool worker_spool(options.spool_dir);
  SpoolWorkerOptions worker_options;
  worker_options.idle_timeout_s = 10.0;
  size_t executed_a = 0, executed_b = 0;
  std::thread worker_a([&] { executed_a = RunSpoolWorker(&worker_spool, &worker_cache,
                                                         worker_options); });
  std::thread worker_b([&] { executed_b = RunSpoolWorker(&worker_spool, &worker_cache,
                                                         worker_options); });

  SubmitOutcome outcome;
  ASSERT_TRUE(service.Submit(spec, {}, &outcome, &error)) << error;
  worker_spool.RequestStop();
  worker_a.join();
  worker_b.join();

  EXPECT_EQ(outcome.cells, 2u);
  EXPECT_EQ(outcome.remote, 2u);
  EXPECT_EQ(outcome.executed, 0u);
  EXPECT_EQ(executed_a + executed_b, 2u);
  EXPECT_EQ(outcome.json, golden.json);
  EXPECT_EQ(service.counters().cells_remote.load(), 2u);
  EXPECT_EQ(service.counters().cells_executed.load(), 0u);
}

TEST(SweepServiceTest, ShardedRtAndColorCellsMatchUnsharded) {
  // The worker rebuilds a cell from the task's spec text alone, so the
  // deadline stamp (rt=1) and the 8-color partitioned substrate must reach
  // it: both documents are byte-identical to the unsharded run.
  for (const char* text : {"rt;mixes=1;reps=1", "rt;mixes=1;reps=1;rt=0"}) {
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(ParseSweepSpec(text, &spec, &error)) << error;
    SubmitOutcome golden;
    {
      SweepService service(TinyOptions(FreshDir("rt-golden")));
      ASSERT_TRUE(service.Submit(spec, {}, &golden, &error)) << error;
    }

    SweepServiceOptions options = TinyOptions(FreshDir("rt-cache"));
    options.spool_dir = FreshDir("rt-spool");
    options.shard_local_execution = false;
    SweepService service(options);
    ASSERT_TRUE(service.ok()) << service.error();
    ResultCache worker_cache({options.cache_dir, 0});
    Spool worker_spool(options.spool_dir);
    SpoolWorkerOptions worker_options;
    worker_options.idle_timeout_s = 10.0;
    size_t executed = 0;
    std::thread worker(
        [&] { executed = RunSpoolWorker(&worker_spool, &worker_cache, worker_options); });
    SubmitOutcome outcome;
    ASSERT_TRUE(service.Submit(spec, {}, &outcome, &error)) << error;
    worker_spool.RequestStop();
    worker.join();

    EXPECT_EQ(outcome.remote, outcome.cells) << text;
    EXPECT_EQ(executed, outcome.cells) << text;
    EXPECT_EQ(outcome.json, golden.json) << text;
  }
}

// A task for cell (equi, mix 1, rep 0, seed 42) of `spec`.
SpoolTask TaskFor(const std::string& key, const SweepSpec& spec) {
  return SpoolTask{key, CellSpecText(spec), CellEntryMeta{"equi", 1, 0, 42}};
}

TEST(SweepServiceTest, SpoolClaimsAreExactlyOnce) {
  const std::string dir = FreshDir("spool");
  Spool spool(dir);
  ASSERT_TRUE(spool.ok()) << spool.error();
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;mixes=1;policies=equi;reps=2;procs=8", &spec, &error));

  const SpoolTask task = TaskFor("aaaa", spec);
  ASSERT_TRUE(spool.Offer(task));
  ASSERT_TRUE(spool.Offer(task));  // re-offer is a no-op
  EXPECT_EQ(spool.PendingCount(), 1u);

  EXPECT_TRUE(spool.TryClaimKey("aaaa"));   // first claim wins
  EXPECT_FALSE(spool.TryClaimKey("aaaa"));  // second loses
  EXPECT_EQ(spool.PendingCount(), 0u);
  SpoolTask claimed;
  EXPECT_FALSE(spool.ClaimNext(&claimed));  // nothing left to claim
  EXPECT_TRUE(spool.FinishKey("aaaa"));

  // A round-tripped task reconstructs the simulation inputs.
  ASSERT_TRUE(spool.Offer(task));
  ASSERT_TRUE(spool.ClaimNext(&claimed));
  EXPECT_EQ(claimed.key, "aaaa");
  EXPECT_EQ(claimed.spec, task.spec);
  EXPECT_EQ(claimed.cell.seed, 42u);
  SweepSpec rebuilt;
  ASSERT_TRUE(Spool::TaskSpec(claimed, &rebuilt, &error)) << error;
  EXPECT_EQ(rebuilt.machine.num_processors, 8u);
  ASSERT_EQ(rebuilt.policies.size(), 1u);
  EXPECT_EQ(rebuilt.policies[0], PolicyKind::kEquipartition);
  ASSERT_EQ(rebuilt.mixes.size(), 1u);
  EXPECT_EQ(rebuilt.mixes[0].number, 1);
  EXPECT_FALSE(MixJobs(rebuilt, rebuilt.mixes[0]).empty());

  EXPECT_FALSE(spool.StopRequested());
  EXPECT_TRUE(spool.RequestStop());
  EXPECT_TRUE(spool.StopRequested());
}

TEST(SweepServiceTest, ClaimNextDropsAnUndecodableTaskAndClaimsTheNext) {
  const std::string dir = FreshDir("spool-corrupt");
  Spool spool(dir);
  ASSERT_TRUE(spool.ok()) << spool.error();
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;mixes=1;policies=equi;reps=2", &spec, &error));

  // A corrupt entry, older than the good one so it is claimed first.
  const fs::path corrupt = fs::path(dir) / "todo" / "bbbb.task";
  {
    std::ofstream out(corrupt);
    out << "not json {";
  }
  fs::last_write_time(corrupt, fs::file_time_type::clock::now() - std::chrono::hours(1));
  ASSERT_TRUE(spool.Offer(TaskFor("aaaa", spec)));
  EXPECT_EQ(spool.PendingCount(), 2u);

  SpoolTask claimed;
  ASSERT_TRUE(spool.ClaimNext(&claimed));
  EXPECT_EQ(claimed.key, "aaaa");
  EXPECT_EQ(spool.PendingCount(), 0u);
  // The corrupt claim was dropped, not left behind as a lease.
  size_t claims = 0;
  for (const auto& item : fs::directory_iterator(fs::path(dir) / "claimed")) {
    EXPECT_EQ(item.path().stem().string(), "aaaa");
    ++claims;
  }
  EXPECT_EQ(claims, 1u);
}

TEST(SweepServiceTest, SpoolTaskDecodingIsStrict) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;mixes=1;policies=equi;reps=2", &spec, &error));
  SpoolTask task = TaskFor("aaaa", spec);
  task.cell.replication = 3;
  const std::string good = Spool::EncodeTask(task);
  ASSERT_TRUE(Spool::DecodeTask(good, &task)) << good;
  EXPECT_EQ(task.cell.mix, 1);
  EXPECT_EQ(task.cell.replication, 3u);
  SweepSpec rebuilt;
  ASSERT_TRUE(Spool::TaskSpec(task, &rebuilt, &error)) << error;

  const auto with = [&good](const std::string& from, const std::string& to) {
    const size_t at = good.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    std::string text = good;
    return text.replace(at, from.size(), to);
  };
  // The task's own integers are read strictly: a mix of 4294967297 does not
  // wrap to 1 and a rep of 1.5 is not read as 1. A schema-1 task (the
  // per-field format) is refused, not misread.
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"\"mix\":1", "\"mix\":4294967297"},
           {"\"mix\":1", "\"mix\":1.0"},
           {"\"rep\":3", "\"rep\":1.5"},
           {"\"rep\":3", "\"rep\":-3"},
           {"\"seed\":42", "\"seed\":18446744073709551616"},
           {"\"task_schema\":2", "\"task_schema\":1"},
       }) {
    const std::string text = with(from, to);
    EXPECT_FALSE(Spool::DecodeTask(text, &task)) << text;
  }

  // Everything else is spec text, refused by the sweep grammar: counts must
  // be integers, and the balance period must be 0 or in [1, 1e6] ms — which
  // refuses both an overflowing 1e300 and a 1 ns (1e-6 ms) flood of ticks.
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"procs=16", "procs=1e3"},
           {"balance-interval=0", "balance-interval=1e300"},
           {"balance-interval=0", "balance-interval=0.000001"},
           {"\"mix\":1", "\"mix\":7"},
           {"\"policy\":\"equi\"", "\"policy\":\"no-such-policy\""},
           {"\"policy\":\"equi\"", "\"policy\":\"equi,dyn-aff\""},
           {"\"policy\":\"equi\"", "\"policy\":\"equi;procs=8\""},
       }) {
    const std::string text = with(from, to);
    ASSERT_TRUE(Spool::DecodeTask(text, &task)) << text;
    EXPECT_FALSE(Spool::TaskSpec(task, &rebuilt, &error)) << text;
  }
  ASSERT_TRUE(Spool::DecodeTask(with("balance-interval=0", "balance-interval=0.000001"), &task));
  EXPECT_FALSE(Spool::TaskSpec(task, &rebuilt, &error));
  EXPECT_NE(error.find("balance-interval"), std::string::npos) << error;
}

TEST(SweepServiceTest, BadCacheDirectoryFailsClosed) {
  SweepServiceOptions options;
  options.cache_dir = "/dev/null/not-a-dir";
  SweepService service(options);
  EXPECT_FALSE(service.ok());
  EXPECT_FALSE(service.error().empty());
}

}  // namespace
}  // namespace affsched
