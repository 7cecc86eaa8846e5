// simctl: a command-line driver for the simulator — pick a workload mix, a
// policy, a machine, and get the full per-job report (optionally a Gantt
// chart and a CSV event trace).
//
//   ./build/examples/simctl --mix=5 --policy=dyn-aff --procs=16 --gantt
//   ./build/examples/simctl --mix=2 --policy=equi --speed=16 --cache=16
//   ./build/examples/simctl --mix=5 --metrics --chrome-trace=trace.json
//   ./build/examples/simctl --sweep=smoke --jobs=8 --out=BENCH.json
//   ./build/examples/simctl --open --preset=opensys --jobs=8 --out=open.json
//   ./build/examples/simctl --open --rho=0.7,0.9 --arrivals=onoff --mpl-cap=8
//   ./build/examples/simctl --help

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/engine/engine.h"
#include "src/measure/mixes.h"
#include "src/measure/report.h"
#include "src/opensys/open_sweep.h"
#include "src/rt/deadline_mix.h"
#include "src/runner/heartbeat.h"
#include "src/runner/runner.h"
#include "src/runner/sweep.h"
#include "src/runner/worker_pool.h"
#include "src/sched/metered.h"
#include "src/serve/wire.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/json.h"
#include "src/telemetry/manifest.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/job_spans.h"
#include "src/topology/topology.h"
#include "src/trace/decision_trace.h"
#include "src/trace/trace.h"

using namespace affsched;

namespace {

// Statistics over zero samples (a cell that completed no jobs) are NaN;
// render those as "n/a" instead of printing NaN into the table.
std::string FormatStat(double value, int digits) {
  return std::isfinite(value) ? FormatDouble(value, digits) : "n/a";
}

// Runs a whole experiment grid on a worker pool (--sweep mode). Consults
// --sweep, --jobs, --out, --progress and --heartbeat; the spec string
// carries everything else.
// Folds the --rt/--colors/--deadline-mix flags into a sweep/open spec string
// as trailing overrides (later keys win, so explicit spec keys and flags
// compose predictably).
std::string AppendRtOverrides(std::string spec_text, const FlagSet& flags) {
  if (flags.GetBool("rt")) {
    spec_text += ";rt=1;deadline-mix=" + flags.GetString("deadline-mix");
  }
  if (flags.GetInt("colors") > 0) {
    spec_text += ";colors=" + std::to_string(flags.GetInt("colors"));
  }
  return spec_text;
}

int RunSweepMode(const FlagSet& flags) {
  const std::string spec_text = AppendRtOverrides(flags.GetString("sweep"), flags);
  const size_t jobs = static_cast<size_t>(flags.GetInt("jobs"));
  const std::string out_path = flags.GetString("out");
  SweepSpec spec;
  std::string error;
  if (!ParseSweepSpec(spec_text, &spec, &error)) {
    std::printf("bad --sweep: %s\n", error.c_str());
    return 1;
  }

  std::unique_ptr<HeartbeatWriter> heartbeat;
  const std::string heartbeat_path = flags.GetString("heartbeat");
  if (!heartbeat_path.empty()) {
    heartbeat = std::make_unique<HeartbeatWriter>(heartbeat_path);
    if (!heartbeat->ok()) {
      std::printf("failed to open --heartbeat file %s\n", heartbeat_path.c_str());
      return 1;
    }
    heartbeat->Start(spec.name, spec.MinCells());
  }
  const bool progress = flags.GetBool("progress");

  SweepRunnerOptions options;
  options.jobs = jobs;
  if (heartbeat != nullptr || progress) {
    options.round_stats = [&](const SweepRoundStats& s) {
      if (heartbeat != nullptr) {
        heartbeat->OnRound(s);
      }
      if (progress) {
        const double events_per_s =
            s.round_wall_s > 0.0 ? static_cast<double>(s.round_events) / s.round_wall_s : 0.0;
        const size_t remaining = s.scheduled > s.completed ? s.scheduled - s.completed : 0;
        const double eta_s =
            s.completed > 0
                ? static_cast<double>(remaining) * s.total_wall_s / static_cast<double>(s.completed)
                : 0.0;
        std::fprintf(stderr,
                     "sweep: %zu/%zu cells | round %zu: %zu cells in %.2fs "
                     "(%.2fs/cell) | %.2fM events/s | eta %.1fs\n",
                     s.completed, s.scheduled, s.round, s.round_cells, s.round_wall_s,
                     s.round_cells > 0 ? s.round_wall_s / static_cast<double>(s.round_cells) : 0.0,
                     events_per_s / 1e6, eta_s);
      }
    };
  }
  if (!progress) {
    options.progress = [](size_t completed, size_t scheduled) {
      std::fprintf(stderr, "sweep: %zu/%zu cells\n", completed, scheduled);
    };
  }
  SweepRunner runner(options);
  const SweepResult result = runner.Run(spec);
  if (heartbeat != nullptr) {
    size_t completed = 0;
    for (const ExperimentResult& experiment : result.experiments) {
      completed += experiment.replicated.replications;
    }
    heartbeat->Finish(completed, result.wall_seconds);
  }

  std::printf("sweep '%s': %zu experiments on %zu worker(s), %.2fs wall\n\n", spec.name.c_str(),
              result.experiments.size(),
              jobs == 0 ? WorkerPool::DefaultThreadCount() : jobs, result.wall_seconds);
  TextTable table;
  table.SetHeader({"mix", "policy", "job", "reps", "mean RT (s)", "vs equi"});
  for (const ExperimentResult& experiment : result.experiments) {
    const ExperimentResult* equi =
        result.Find(PolicyKind::kEquipartition, experiment.mix.number);
    for (size_t j = 0; j < experiment.replicated.app.size(); ++j) {
      std::string ratio = "-";
      if (equi != nullptr && experiment.policy != PolicyKind::kEquipartition) {
        ratio = FormatDouble(
            experiment.replicated.MeanResponse(j) / equi->replicated.MeanResponse(j), 3);
      }
      table.AddRow({experiment.mix.Label(), PolicyKindCliName(experiment.policy),
                    experiment.replicated.app[j] + " (" + std::to_string(j) + ")",
                    std::to_string(experiment.replicated.replications),
                    FormatDouble(experiment.replicated.MeanResponse(j), 2), ratio});
    }
  }
  std::printf("%s\n", table.Render().c_str());

  if (!out_path.empty()) {
    if (!result.WriteJsonFile(out_path)) {
      std::printf("failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote sweep results to %s\n", out_path.c_str());
  }
  return 0;
}

// Client mode for the resident sweep daemon (--server): submits a sweep spec
// (or a stats/shutdown request) over the Unix socket and streams the wire
// events back. The saved --out file is byte-identical to what --sweep would
// write locally — the daemon only adds caching around the same simulation.
int RunServerClientMode(const FlagSet& flags) {
  const std::string socket_path = flags.GetString("server");
  std::string error;
  const int fd = ConnectUnix(socket_path, &error);
  if (fd < 0) {
    std::printf("simctl: %s\n", error.c_str());
    return 1;
  }
  LineChannel channel(fd);

  if (flags.GetBool("server-stats")) {
    if (!channel.WriteLine("{\"op\":\"stats\"}")) {
      std::printf("simctl: failed to send stats request\n");
      return 1;
    }
    std::string line;
    if (!channel.ReadLine(&line)) {
      std::printf("simctl: daemon closed the connection\n");
      return 1;
    }
    std::printf("%s\n", line.c_str());
    return 0;
  }

  const std::string spec_text = flags.GetString("submit");
  if (spec_text.empty()) {
    std::printf("--server needs --submit=<spec> (or --server-stats)\n");
    return 1;
  }
  std::string request = "{\"op\":\"submit\",\"spec\":\"" + JsonEscape(spec_text) + "\"";
  const size_t jobs = static_cast<size_t>(flags.GetInt("jobs"));
  if (jobs > 0) {
    request += ",\"jobs\":" + std::to_string(jobs);
  }
  request += "}";
  if (!channel.WriteLine(request)) {
    std::printf("simctl: failed to send submit request\n");
    return 1;
  }

  const std::string out_path = flags.GetString("out");
  std::string line;
  while (channel.ReadLine(&line)) {
    JsonValue event;
    if (!ParseJson(line, &event, &error) || !event.IsObject()) {
      std::fprintf(stderr, "simctl: unparseable event line: %s\n", line.c_str());
      continue;
    }
    const JsonValue* kind = event.Get("event");
    if (kind == nullptr || !kind->IsString()) {
      continue;
    }
    if (kind->string_value == "planned") {
      const JsonValue* cells_min = event.Get("cells_min");
      std::fprintf(stderr, "server sweep planned: >=%lld cells\n",
                   static_cast<long long>(cells_min != nullptr ? cells_min->AsInt64() : 0));
    } else if (kind->string_value == "cell") {
      const JsonValue* policy = event.Get("policy");
      const JsonValue* mix = event.Get("mix");
      const JsonValue* rep = event.Get("rep");
      const JsonValue* source = event.Get("source");
      std::fprintf(stderr, "cell %s mix=%lld rep=%lld [%s]\n",
                   policy != nullptr ? policy->string_value.c_str() : "?",
                   static_cast<long long>(mix != nullptr ? mix->AsInt64() : 0),
                   static_cast<long long>(rep != nullptr ? rep->AsInt64() : 0),
                   source != nullptr ? source->string_value.c_str() : "?");
    } else if (kind->string_value == "result") {
      const JsonValue* cells = event.Get("cells");
      const JsonValue* hits = event.Get("hits");
      const JsonValue* remote = event.Get("remote");
      std::printf("server sweep '%s': %lld cells (%lld from cache, %lld remote)\n",
                  spec_text.c_str(),
                  static_cast<long long>(cells != nullptr ? cells->AsInt64() : 0),
                  static_cast<long long>(hits != nullptr ? hits->AsInt64() : 0),
                  static_cast<long long>(remote != nullptr ? remote->AsInt64() : 0));
      const JsonValue* json = event.Get("json");
      if (!out_path.empty()) {
        if (json == nullptr || !json->IsString()) {
          std::printf("simctl: result event carried no json document\n");
          return 1;
        }
        FILE* out = std::fopen(out_path.c_str(), "w");
        if (out == nullptr ||
            std::fwrite(json->string_value.data(), 1, json->string_value.size(), out) !=
                json->string_value.size()) {
          if (out != nullptr) {
            std::fclose(out);
          }
          std::printf("failed to write %s\n", out_path.c_str());
          return 1;
        }
        std::fclose(out);
        std::printf("wrote sweep results to %s\n", out_path.c_str());
      }
    } else if (kind->string_value == "error") {
      const JsonValue* message = event.Get("message");
      std::printf("simctl: server error: %s\n",
                  message != nullptr ? message->string_value.c_str() : line.c_str());
      return 1;
    } else if (kind->string_value == "done") {
      return 0;
    }
  }
  std::printf("simctl: daemon closed the connection before \"done\"\n");
  return 1;
}

// Runs an open-system load sweep (--open mode): stochastic arrivals through
// admission control, latency percentiles per (policy, arrival process, rho)
// cell. The spec string comes from --preset with --rho/--arrivals/--mpl-cap/
// --max-queue folded in as overrides.
int RunOpenMode(const FlagSet& flags, int argc, char** argv) {
  std::string spec_text = flags.GetString("preset");
  if (!flags.GetString("rho").empty()) {
    spec_text += ";rhos=" + flags.GetString("rho");
  }
  if (!flags.GetString("arrivals").empty()) {
    spec_text += ";arrivals=" + flags.GetString("arrivals");
  }
  if (flags.GetInt("mpl-cap") > 0) {
    spec_text += ";mpl-cap=" + std::to_string(flags.GetInt("mpl-cap"));
  }
  if (flags.GetInt("max-queue") >= 0) {
    spec_text += ";max-queue=" + std::to_string(flags.GetInt("max-queue"));
  }
  spec_text = AppendRtOverrides(spec_text, flags);

  OpenSweepSpec spec;
  std::string error;
  if (!ParseOpenSweepSpec(spec_text, &spec, &error)) {
    std::printf("bad open sweep spec: %s\n", error.c_str());
    return 1;
  }

  const size_t jobs = static_cast<size_t>(flags.GetInt("jobs"));
  std::unique_ptr<HeartbeatWriter> heartbeat;
  const std::string heartbeat_path = flags.GetString("heartbeat");
  if (!heartbeat_path.empty()) {
    heartbeat = std::make_unique<HeartbeatWriter>(heartbeat_path);
    if (!heartbeat->ok()) {
      std::printf("failed to open --heartbeat file %s\n", heartbeat_path.c_str());
      return 1;
    }
    heartbeat->Start(spec.name, spec.Cells());
  }
  OpenSweepRunnerOptions options;
  options.jobs = jobs;
  options.progress = [&heartbeat](size_t completed, size_t total) {
    std::fprintf(stderr, "open sweep: %zu/%zu cells\n", completed, total);
    if (heartbeat != nullptr) {
      heartbeat->OnProgress(completed, total);
    }
  };
  const OpenSweepResult result = OpenSweepRunner(options).Run(spec);
  if (heartbeat != nullptr) {
    heartbeat->Finish(result.cells.size(), result.wall_seconds);
  }

  std::printf("open sweep '%s': %zu cells on %zu worker(s), %.2fs wall\n"
              "mean job demand %.2fs; admission %s\n\n",
              spec.name.c_str(), result.cells.size(),
              jobs == 0 ? WorkerPool::DefaultThreadCount() : jobs, result.wall_seconds,
              result.mean_demand_s,
              MakeAdmissionController(spec.mpl_cap, spec.max_queue)->Name().c_str());

  TextTable table;
  table.SetHeader({"arrivals", "rho", "policy", "p50 (s)", "p95 (s)", "p99 (s)", "rej %",
                   "queue", "aff %", "L=lamW"});
  for (const OpenCellResult& cell : result.cells) {
    const OpenSystemResult& r = cell.result;
    table.AddRow({ArrivalKindName(cell.arrivals), FormatDouble(cell.rho, 2),
                  PolicyKindCliName(cell.policy), FormatStat(r.p50_sojourn_s, 2),
                  FormatStat(r.p95_sojourn_s, 2), FormatStat(r.p99_sojourn_s, 2),
                  FormatStat(r.reject_rate * 100.0, 1), FormatStat(r.mean_queue_len, 2),
                  FormatStat(r.affinity_fraction * 100.0, 1),
                  r.littles.ok ? "ok" : "FAIL"});
  }
  std::printf("%s\n", table.Render().c_str());
  if (!result.AllLittlesLawOk()) {
    std::printf("WARNING: a cell failed the Little's-law self-check (accounting bug?)\n");
  }

  const std::string out_path = flags.GetString("out");
  if (!out_path.empty()) {
    if (!result.WriteJsonFile(out_path)) {
      std::printf("failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote open sweep results to %s\n", out_path.c_str());
  }
  const std::string manifest_path = flags.GetString("manifest");
  if (!manifest_path.empty()) {
    RunManifest manifest;
    manifest.SetProvenance(argc, argv);
    manifest.SetString("tool", "simctl-open");
    manifest.SetString("spec", spec.name);
    manifest.SetUint("seed", spec.root_seed);
    manifest.SetNumber("cells", static_cast<double>(result.cells.size()));
    manifest.SetNumber("mean_demand_s", result.mean_demand_s);
    manifest.SetBool("littles_law_ok", result.AllLittlesLawOk());
    if (manifest.WriteFile(manifest_path)) {
      std::printf("wrote run manifest to %s\n", manifest_path.c_str());
    }
  }
  return result.AllLittlesLawOk() ? 0 : 1;
}

// Prints the sweep preset grids (--list-presets): what --sweep=<name> runs.
void ListPresets() {
  TextTable table;
  table.SetHeader({"preset", "seed", "policies", "mixes", "reps", "min cells"});
  for (const SweepSpec& spec :
       {Fig5Spec(), Table3Spec(), FutureSpec(), SmokeSpec(), MqSpec(), RtSpec()}) {
    std::string policies;
    for (PolicyKind kind : spec.policies) {
      policies += (policies.empty() ? "" : ",") + PolicyKindCliName(kind);
    }
    std::string mixes;
    for (const WorkloadMix& mix : spec.mixes) {
      mixes += (mixes.empty() ? "" : ",") + std::to_string(mix.number);
    }
    const std::string reps =
        spec.replication.min_replications == spec.replication.max_replications
            ? std::to_string(spec.replication.min_replications)
            : std::to_string(spec.replication.min_replications) + "-" +
                  std::to_string(spec.replication.max_replications);
    table.AddRow({spec.name, std::to_string(spec.root_seed), policies, mixes, reps,
                  std::to_string(spec.MinCells())});
  }
  std::printf("%s\nRun one with --sweep=<preset>; append ;key=value overrides "
              "(e.g. --sweep=\"fig5;reps=2;procs=8\").\n",
              table.Render().c_str());

  TextTable open_table;
  open_table.SetHeader({"open preset", "seed", "policies", "arrivals", "rhos", "cells"});
  for (const OpenSweepSpec& spec : {OpenSysSpec(), OpenSysSmokeSpec()}) {
    std::string policies;
    for (PolicyKind kind : spec.policies) {
      policies += (policies.empty() ? "" : ",") + PolicyKindCliName(kind);
    }
    std::string arrivals;
    for (ArrivalKind kind : spec.arrivals) {
      arrivals += (arrivals.empty() ? "" : ",") + ArrivalKindName(kind);
    }
    std::string rhos;
    for (double rho : spec.rhos) {
      rhos += (rhos.empty() ? "" : ",") + FormatDouble(rho, 2);
    }
    open_table.AddRow({spec.name, std::to_string(spec.root_seed), policies, arrivals, rhos,
                       std::to_string(spec.Cells())});
  }
  std::printf("\n%s\nRun one with --open --preset=<name>; --rho/--arrivals/--mpl-cap/"
              "--max-queue override the grid.\n",
              open_table.Render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags(
      "simctl: run one workload mix under one policy on a configurable machine.\n"
      "Policies: equi, dynamic, dyn-aff, dyn-aff-nopri, dyn-aff-delay,\n"
      "dyn-aff-cluster, dyn-aff-node, timeshare, timeshare-aff,\n"
      "mq-nosteal, mq-sibling, mq-cluster, mq-numa (per-processor queues;\n"
      "--steal is shorthand for the mq family),\n"
      "rt-static-affinity, rt-color-iso (static real-time assignment;\n"
      "pair with --rt and --colors).\n"
      "Mixes: 1-6 (Table 2 of the paper).");
  flags.AddInt("mix", 5, "workload mix number (1-6)");
  flags.AddString("policy", "dyn-aff", "allocation policy");
  flags.AddString("steal", "",
                  "multi-queue steal radius (nosteal, sibling, cluster, numa); "
                  "shorthand that overrides --policy with the matching mq-* kind");
  flags.AddDouble("balance-interval", 0.0,
                  "periodic load-balance tick in simulated milliseconds "
                  "(0 = the policy's own default)");
  flags.AddInt("procs", 16, "number of processors");
  flags.AddInt("seed", 42, "random seed");
  flags.AddDouble("speed", 1.0, "processor speed relative to the Symmetry");
  flags.AddDouble("cache", 1.0, "cache size relative to the Symmetry");
  flags.AddString("topology", "",
                  "machine topology: a preset (symmetry-flat, cmp-2x10, numa-4x8) "
                  "or preset,key=value overrides; see --list-topologies");
  flags.AddBool("list-topologies", false, "list the topology presets and exit");
  flags.AddBool("gantt", false, "render an ASCII Gantt chart");
  flags.AddBool("csv", false, "dump the event trace as CSV to stdout");
  flags.AddBool("metrics", false, "print end-of-run metric totals and reconcile them");
  flags.AddString("chrome-trace", "", "write a Chrome/Perfetto trace-event JSON file here");
  flags.AddString("decision-trace", "",
                  "write scheduling-decision provenance JSONL here (single-run "
                  "mode); with --chrome-trace, also renders a scheduler track "
                  "with flow arrows to the dispatches");
  flags.AddString("spans", "",
                  "write per-job lifecycle spans (arrival, queue wait, dispatches, "
                  "migrations, completion) as JSONL here; with --chrome-trace, "
                  "also annotates the job tracks");
  flags.AddString("samples", "", "write the sampled time series as CSV here");
  flags.AddDouble("sample-ms", 100.0, "sampling cadence in simulated milliseconds");
  flags.AddString("manifest", "", "write a run manifest (JSON) here");
  flags.AddBool("list-presets", false, "list the sweep preset grids and exit");
  flags.AddBool("engine-stats", false,
                "print event-core statistics (pool high-water mark, events/sec)");
  flags.AddString("sweep", "",
                  "run an experiment grid instead of one simulation: a preset "
                  "(fig5, table3, future, smoke, mq) or key=value spec; see README");
  flags.AddInt("jobs", 0, "sweep worker threads (0 = hardware concurrency)");
  flags.AddString("out", "", "write sweep results JSON here");
  flags.AddBool("progress", false,
                "rich live progress on stderr for --sweep: per-round cell "
                "counts, wall times, events/sec, ETA");
  flags.AddString("heartbeat", "",
                  "stream live-progress JSONL here during --sweep/--open "
                  "(\"-\" = stderr); see README Observability");
  flags.AddString("server", "",
                  "client mode: connect to an affsched_served Unix socket; "
                  "use with --submit or --server-stats");
  flags.AddString("submit", "",
                  "sweep spec to submit to --server (same syntax as --sweep); "
                  "streams cell events, saves the result document to --out");
  flags.AddBool("server-stats", false,
                "ask --server for its cache/service counters and print them");
  flags.AddBool("open", false,
                "run an open-system load sweep: stochastic arrivals, admission "
                "control, latency percentiles (see --preset)");
  flags.AddString("preset", "opensys",
                  "open sweep spec: a preset (opensys, opensys-smoke) or "
                  "key=value spec; used with --open");
  flags.AddString("rho", "", "offered loads for --open (comma-separated, e.g. 0.7,0.9)");
  flags.AddString("arrivals", "",
                  "arrival processes for --open (comma-separated: poisson, onoff)");
  flags.AddInt("mpl-cap", 0, "admission MPL cap for --open (0 = unbounded)");
  flags.AddInt("max-queue", -1,
               "admission queue bound for --open (-1 = unbounded; needs --mpl-cap)");
  flags.AddBool("rt", false,
                "real-time mode: stamp the --deadline-mix onto every job and "
                "report deadline misses/tardiness; composes with --sweep and "
                "--open (rt=1 spec override)");
  flags.AddInt("colors", 0,
               "page colors for the partitioned cache substrate (0 = footprint "
               "model); composes with --sweep and --open (colors=N override)");
  flags.AddString("deadline-mix", "soft",
                  "deadline mix for --rt: soft, hard, mixed, or tight "
                  "(tight is a guaranteed-miss fixture)");
  if (!flags.Parse(argc, argv)) {
    std::printf("%s\n", flags.help_requested() ? flags.Help().c_str() : flags.error().c_str());
    return flags.help_requested() ? 0 : 1;
  }

  if (flags.GetBool("list-presets")) {
    ListPresets();
    return 0;
  }

  if (flags.GetBool("list-topologies")) {
    std::printf("%s", RenderTopologyList().c_str());
    return 0;
  }

  if (!flags.GetString("server").empty()) {
    return RunServerClientMode(flags);
  }

  if (!flags.GetString("sweep").empty()) {
    return RunSweepMode(flags);
  }

  if (flags.GetBool("open")) {
    return RunOpenMode(flags, argc, argv);
  }

  const int mix_number = static_cast<int>(flags.GetInt("mix"));
  if (mix_number < 1 || mix_number > 6) {
    std::printf("--mix must be 1-6\n");
    return 1;
  }
  PolicyKind kind;
  if (!PolicyKindFromName(flags.GetString("policy"), &kind)) {
    std::printf("unknown --policy '%s'\n", flags.GetString("policy").c_str());
    return 1;
  }
  if (!flags.GetString("steal").empty() &&
      !PolicyKindFromStealName(flags.GetString("steal"), &kind)) {
    std::printf("unknown --steal '%s' (try nosteal, sibling, cluster, numa)\n",
                flags.GetString("steal").c_str());
    return 1;
  }
  if (flags.GetDouble("balance-interval") < 0.0) {
    std::printf("--balance-interval must be >= 0 ms\n");
    return 1;
  }
  if (flags.GetDouble("sample-ms") <= 0.0) {
    std::printf("--sample-ms must be > 0\n");
    return 1;
  }

  if (flags.GetInt("procs") < 1) {
    std::printf("--procs must be >= 1\n");
    return 1;
  }
  MachineConfig machine;
  machine.num_processors = static_cast<size_t>(flags.GetInt("procs"));
  machine.processor_speed = flags.GetDouble("speed");
  machine.cache_size_factor = flags.GetDouble("cache");
  const int colors = static_cast<int>(flags.GetInt("colors"));
  if (colors < 0 || colors > 64) {
    std::printf("--colors must be in 0..64 (0 = footprint model)\n");
    return 1;
  }
  if (colors > 0) {
    machine.num_colors = static_cast<size_t>(colors);
    machine.cache_model = CacheModelKind::kPartitioned;
  }
  if (!flags.GetString("topology").empty()) {
    std::string topology_error;
    if (!ParseTopologySpec(flags.GetString("topology"), &machine.topology, &topology_error)) {
      std::printf("bad --topology: %s\n", topology_error.c_str());
      return 1;
    }
  }
  const std::string machine_problem = machine.Validate();
  if (!machine_problem.empty()) {
    std::printf("bad machine config: %s\n", machine_problem.c_str());
    return 1;
  }

  const WorkloadMix mix = PaperMixes()[static_cast<size_t>(mix_number - 1)];
  std::printf("mix %s under %s on %zu processors (speed %.1fx, cache %.1fx, topology %s)\n\n",
              mix.Label().c_str(), PolicyKindName(kind).c_str(), machine.num_processors,
              machine.processor_speed, machine.cache_size_factor,
              machine.topology.name.c_str());

  const std::string chrome_trace_path = flags.GetString("chrome-trace");
  const std::string samples_path = flags.GetString("samples");
  const std::string manifest_path = flags.GetString("manifest");
  const bool want_metrics =
      flags.GetBool("metrics") || !manifest_path.empty();

  MetricsRegistry registry;
  std::unique_ptr<Policy> policy = MakePolicy(kind);
  if (want_metrics) {
    auto metered = std::make_unique<MeteredPolicy>(std::move(policy));
    metered->AttachMetrics(&registry);
    policy = std::move(metered);
  }

  RingTrace trace;
  Engine::Options engine_options;
  engine_options.balance_interval = Milliseconds(flags.GetDouble("balance-interval"));
  Engine engine(machine, std::move(policy), static_cast<uint64_t>(flags.GetInt("seed")),
                engine_options);
  if (flags.GetBool("gantt") || flags.GetBool("csv") || !chrome_trace_path.empty()) {
    engine.SetTraceSink(&trace);
  }
  const std::string decision_path = flags.GetString("decision-trace");
  const std::string spans_path = flags.GetString("spans");
  DecisionTrace decisions;
  JobSpanCollector spans;
  if (!decision_path.empty()) {
    engine.SetDecisionSink(&decisions);
  }
  if (!spans_path.empty()) {
    engine.SetSpanCollector(&spans);
  }
  if (want_metrics) {
    engine.SetMetrics(&registry);
  }
  Sampler sampler(Milliseconds(flags.GetDouble("sample-ms")));
  if (!samples_path.empty()) {
    engine.SetSampler(&sampler);
  }
  std::vector<AppProfile> mix_jobs = mix.Expand(DefaultProfiles());
  if (flags.GetBool("rt")) {
    std::string mix_error;
    if (!ApplyDeadlineMix(flags.GetString("deadline-mix"), machine.num_processors, &mix_jobs,
                          &mix_error)) {
      std::printf("bad --deadline-mix: %s\n", mix_error.c_str());
      return 1;
    }
  }
  for (const AppProfile& job : mix_jobs) {
    engine.SubmitJob(job);
  }
  const auto run_start = std::chrono::steady_clock::now();
  const SimTime end = engine.Run();
  const double run_wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - run_start)
                                .count();

  TextTable table;
  table.SetHeader(JobReportHeader());
  AppendJobReport(table, PolicyKindName(kind), engine);
  std::printf("%s\nmakespan: %s\n", table.Render().c_str(), FormatDuration(end).c_str());

  if (flags.GetBool("rt")) {
    uint64_t misses = 0;
    double tardiness_s = 0.0;
    double worst_reload_s = 0.0;
    for (JobId id = 0; id < engine.job_count(); ++id) {
      const JobStats& stats = engine.job_stats(id);
      misses += stats.deadline_misses;
      tardiness_s += stats.tardiness_s;
      worst_reload_s = std::max(worst_reload_s, stats.worst_reload_s);
    }
    std::printf("rt (%s mix): %llu/%zu deadline misses, total tardiness %.3fs, "
                "worst observed reload %.6fs\n",
                flags.GetString("deadline-mix").c_str(),
                static_cast<unsigned long long>(misses), engine.job_count(), tardiness_s,
                worst_reload_s);
  }

  if (flags.GetBool("gantt")) {
    std::printf("\n%s", trace.RenderGantt(machine.num_processors, 0, end).c_str());
  }
  if (flags.GetBool("csv")) {
    std::printf("\n%s", trace.ToCsv().c_str());
  }

  if (flags.GetBool("engine-stats")) {
    const EventQueue::Stats& stats = engine.event_queue_stats();
    std::printf("\nevent core: %llu scheduled, %llu run, %llu cancelled\n"
                "event pool high-water mark: %zu records\n"
                "throughput: %.0f events/sec (%.3fs wall)\n",
                static_cast<unsigned long long>(stats.scheduled),
                static_cast<unsigned long long>(stats.run),
                static_cast<unsigned long long>(stats.cancelled), stats.pool_high_water,
                run_wall_s > 0.0 ? static_cast<double>(stats.run) / run_wall_s : 0.0,
                run_wall_s);
  }

  if (flags.GetBool("metrics")) {
    std::printf("\n%s", registry.RenderText().c_str());
    const MetricsReconciliation rec = ReconcileEngineMetrics(engine, registry);
    std::printf("\nreconciliation vs JobStats: %s\n%s", rec.ok ? "OK" : "MISMATCH",
                rec.report.c_str());
  }

  std::vector<std::string> job_names;
  job_names.reserve(engine.job_count());
  for (JobId id = 0; id < engine.job_count(); ++id) {
    job_names.push_back(engine.job_name(id));
  }

  if (!decision_path.empty() &&
      Sampler::WriteFile(decision_path, decisions.ToJsonl())) {
    std::printf("\nwrote %zu decision records to %s\n", decisions.Records().size(),
                decision_path.c_str());
    if (decisions.dropped() > 0) {
      std::printf("warning: decision ring dropped %zu early records\n", decisions.dropped());
    }
  }
  if (!spans_path.empty() && Sampler::WriteFile(spans_path, spans.ToJsonl())) {
    std::printf("\nwrote %zu job lifecycle spans to %s\n", spans.jobs().size(),
                spans_path.c_str());
  }
  if (!chrome_trace_path.empty()) {
    ChromeTraceWriter writer;
    writer.AddEvents(trace.Events());
    std::vector<DecisionRecord> decision_records;
    if (!decision_path.empty()) {
      decision_records = decisions.Records();
      writer.AttachDecisions(&decision_records);
    }
    if (!spans_path.empty()) {
      writer.AttachLifecycles(&spans);
    }
    if (writer.WriteJsonFile(chrome_trace_path, machine.num_processors, job_names)) {
      std::printf("\nwrote %zu trace events to %s (load in chrome://tracing or Perfetto)\n",
                  writer.size(), chrome_trace_path.c_str());
      if (trace.dropped() > 0) {
        std::printf("warning: ring buffer dropped %zu early events\n", trace.dropped());
      }
    }
  }
  if (!samples_path.empty() &&
      Sampler::WriteFile(samples_path, sampler.ToCsv())) {
    std::printf("\nwrote %zu samples x %zu probes to %s\n", sampler.num_samples(),
                sampler.num_probes(), samples_path.c_str());
  }
  if (!manifest_path.empty()) {
    RunManifest manifest;
    manifest.SetProvenance(argc, argv);
    manifest.SetString("tool", "simctl");
    manifest.SetString("mix", mix.Label());
    manifest.SetString("policy", PolicyKindName(kind));
    manifest.SetNumber("procs", static_cast<double>(machine.num_processors));
    manifest.SetNumber("speed", machine.processor_speed);
    manifest.SetNumber("cache", machine.cache_size_factor);
    manifest.SetString("topology", machine.topology.ToSpecString());
    // As an exact decimal, not SetNumber: 64-bit seeds above 2^53 would be
    // silently rounded through double and fail to round-trip.
    manifest.SetUint("seed", static_cast<uint64_t>(flags.GetInt("seed")));
    manifest.SetNumber("makespan_s", ToSeconds(end));
    manifest.AddMetrics(registry);
    if (manifest.WriteFile(manifest_path)) {
      std::printf("\nwrote run manifest to %s\n", manifest_path.c_str());
    }
  }
  return 0;
}
