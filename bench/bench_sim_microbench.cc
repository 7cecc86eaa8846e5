// Google-benchmark microbenchmarks of the simulator substrate itself:
// event-queue throughput, cache-model chunk cost, and end-to-end simulated
// seconds per wall second. These guard the regeneration benches' runtimes.
//
// Exits through a custom main that writes run_manifest.json (build/git
// metadata plus the wall-clock attribution profile) next to the working
// directory, so CI can trace any reported number back to its build.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "src/apps/apps.h"
#include "src/cache/exact_cache.h"
#include "src/cache/footprint.h"
#include "src/engine/engine.h"
#include "src/measure/mixes.h"
#include "src/sched/factory.h"
#include "src/sched/metered.h"
#include "src/sim/event_queue.h"
#include "src/telemetry/manifest.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/profile.h"

namespace affsched {
namespace {

// Shared across benchmarks; dumped into run_manifest.json by main().
Profiler& GlobalProfiler() {
  static Profiler profiler;
  return profiler;
}

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      q.ScheduleAt(i, [&sink] { ++sink; });
    }
    q.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_FootprintChunk(benchmark::State& state) {
  FootprintCache cache(4096.0);
  const WorkingSetParams ws{.blocks = 3000.0, .buildup_tau_s = 0.05,
                            .steady_miss_per_s = 10000.0};
  CacheOwner owner = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.RunChunk(owner, ws, 0.002));
    owner = (owner % 4) + 1;  // rotate owners to keep eviction paths busy
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FootprintChunk);

void BM_ExactCacheAccess(benchmark::State& state) {
  ExactCache cache(CacheGeometry{});
  uint64_t block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(1, block));
    block = (block * 2862933555777941757ULL + 3037000493ULL) % (1 << 14);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactCacheAccess);

void BM_EndToEndSmallMix(benchmark::State& state) {
  MachineConfig machine;
  machine.num_processors = 8;
  double simulated_seconds = 0.0;
  for (auto _ : state) {
    Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 42);
    engine.SubmitJob(MakeSmallMvaProfile());
    engine.SubmitJob(MakeSmallGravityProfile());
    const SimTime end = engine.Run();
    simulated_seconds += ToSeconds(end);
    benchmark::DoNotOptimize(end);
  }
  state.counters["sim_s_per_iter"] = simulated_seconds / static_cast<double>(state.iterations());
}
BENCHMARK(BM_EndToEndSmallMix);

// Chunk cost against machine width: Table 2's mix 5 (MATRIX + GRAVITY, the
// paper-size profiles) under Dyn-Aff on a flat machine of 16, 64 and 256
// processors. A chunk's coherence sweep visits only its job's running
// workers, so ns_per_event should grow far slower than the processor count.
void BM_EndToEndWidth(benchmark::State& state) {
  MachineConfig machine;
  machine.num_processors = static_cast<size_t>(state.range(0));
  const std::vector<AppProfile> jobs = PaperMixes()[4].Expand(DefaultProfiles());
  uint64_t events = 0;
  double run_ns = 0.0;
  for (auto _ : state) {
    Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 42);
    for (const AppProfile& profile : jobs) {
      engine.SubmitJob(profile);
    }
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(engine.Run());
    run_ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
                  .count();
    events += engine.event_queue_stats().run;
  }
  state.counters["ns_per_event"] = run_ns / static_cast<double>(events);
}
BENCHMARK(BM_EndToEndWidth)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// Same run with a MetricsRegistry attached. Comparing against
// BM_EndToEndSmallMix measures the cost of the counter bumps; with no
// registry attached the handles stay null and the instrumentation reduces to
// one branch per site, so the two should be within noise of each other.
void BM_EndToEndSmallMixMetrics(benchmark::State& state) {
  MachineConfig machine;
  machine.num_processors = 8;
  for (auto _ : state) {
    MetricsRegistry registry;
    Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 42);
    engine.SetMetrics(&registry);
    engine.SubmitJob(MakeSmallMvaProfile());
    engine.SubmitJob(MakeSmallGravityProfile());
    const SimTime end = engine.Run();
    benchmark::DoNotOptimize(end);
    benchmark::DoNotOptimize(registry.FindCounter("engine.dispatches"));
  }
}
BENCHMARK(BM_EndToEndSmallMixMetrics);

// Wall-clock attribution: time each substrate component under a ScopedTimer
// so the manifest's "profile" member shows where simulator time goes (event
// queue churn vs. cache model vs. full engine runs).
void BM_ProfiledComponents(benchmark::State& state) {
  Profiler& profiler = GlobalProfiler();
  ProfileSection* queue_section = profiler.Section("event_queue");
  ProfileSection* footprint_section = profiler.Section("footprint_model");
  ProfileSection* exact_section = profiler.Section("exact_cache");
  ProfileSection* engine_section = profiler.Section("engine_run");
  ProfileSection* policy_section = profiler.Section("policy_decisions");

  MachineConfig machine;
  machine.num_processors = 8;
  FootprintCache fp_cache(4096.0);
  const WorkingSetParams ws{.blocks = 3000.0, .buildup_tau_s = 0.05,
                            .steady_miss_per_s = 10000.0};
  ExactCache exact(CacheGeometry{});

  for (auto _ : state) {
    {
      ScopedTimer t(queue_section);
      EventQueue q;
      int sink = 0;
      for (int i = 0; i < 1000; ++i) {
        q.ScheduleAt(i, [&sink] { ++sink; });
      }
      q.RunAll();
      benchmark::DoNotOptimize(sink);
    }
    {
      ScopedTimer t(footprint_section);
      CacheOwner owner = 1;
      for (int i = 0; i < 1000; ++i) {
        benchmark::DoNotOptimize(fp_cache.RunChunk(owner, ws, 0.002));
        owner = (owner % 4) + 1;
      }
    }
    {
      ScopedTimer t(exact_section);
      uint64_t block = 0;
      for (int i = 0; i < 1000; ++i) {
        benchmark::DoNotOptimize(exact.Access(1, block));
        block = (block * 2862933555777941757ULL + 3037000493ULL) % (1 << 14);
      }
    }
    {
      // "policy_decisions" nests inside "engine_run": sections are
      // independent accumulators, so the manifest shows both the total and
      // the slice the policy accounts for.
      ScopedTimer t(engine_section);
      auto metered = std::make_unique<MeteredPolicy>(MakePolicy(PolicyKind::kDynAff));
      metered->AttachProfiler(policy_section);
      Engine engine(machine, std::move(metered), 42);
      engine.SubmitJob(MakeSmallMvaProfile());
      engine.SubmitJob(MakeSmallGravityProfile());
      benchmark::DoNotOptimize(engine.Run());
    }
  }
}
BENCHMARK(BM_ProfiledComponents);

}  // namespace
}  // namespace affsched

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  affsched::RunManifest manifest;
  manifest.SetString("tool", "bench_sim_microbench");
  manifest.AddProfile(affsched::GlobalProfiler());
  manifest.WriteFile("run_manifest.json");
  std::printf("wrote run_manifest.json (git %s)\n", affsched::RunManifest::GitSha());
  return 0;
}
