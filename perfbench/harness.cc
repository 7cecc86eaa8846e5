// Sweep benchmark harness: runs one workload's units back to back and
// reports host-time measurements taken only from outside the simulator —
// around calls into public functions and through seams the layers already
// expose (SweepRunnerOptions::run_cell / round_stats, MeteredPolicy with a
// ProfileSection, forwarding TraceSink / DecisionSink decorators,
// OpenSweepRunnerOptions::progress, SweepService::Submit / counters() and its
// wire events, SweepResult::ToJson). run.py generates every spec from the
// benchmark seed, drives the modes below and checks the documents this
// program writes; see README.md for the workloads and metrics.
//
//   affsched_perfbench --workload NAME --mode MODE --spec TEXT
//       [--respell TEXT]... [--widen TEXT] [--jobs N] [--seconds S]
//       [--detached] [--out DIR] [--t0-ns NS]
//
// Modes:
//   setup  set up the workload as a real run would, stop when the first cell
//          is about to start, and print the seconds since --t0-ns (the
//          caller's CLOCK_MONOTONIC reading just before it spawned us).
//   time   run whole units while the next one fits in --seconds (at least
//          one);
//          write DIR/result.json and the first unit's documents.
//   trace  as time, with timing decorators attached and every span kept in
//          memory; the spans go to DIR/spans.jsonl after the last unit.
//   count  one unit with a MetricsRegistry and counting decorators attached;
//          write the per-layer counts to DIR/result.json.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/opensys/admission.h"
#include "src/opensys/arrival_process.h"
#include "src/opensys/open_sweep.h"
#include "src/rt/deadline_mix.h"
#include "src/runner/cell_seed.h"
#include "src/runner/runner.h"
#include "src/runner/sweep.h"
#include "src/runner/worker_pool.h"
#include "src/sched/factory.h"
#include "src/sched/metered.h"
#include "src/serve/service.h"
#include "src/telemetry/job_spans.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/profile.h"
#include "src/telemetry/sampler.h"
#include "src/trace/decision_trace.h"
#include "src/trace/trace.h"

namespace affsched {
namespace {

namespace fs = std::filesystem;

uint64_t NowNs() {
  // steady_clock is CLOCK_MONOTONIC on Linux, the clock run.py stamps
  // --t0-ns with.
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// The process's own resident high-water mark. getrusage's ru_maxrss would
// also count the parent's pages from before exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "affsched_perfbench: %s\n", message.c_str());
  std::exit(2);
}

void WriteText(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    Fail("cannot write " + path.string());
  }
}

enum class Workload { kFig5Serial, kMqObserved, kOpenRt, kServe };
enum class Mode { kSetup, kTime, kTrace, kCount };

struct Args {
  Workload workload = Workload::kFig5Serial;
  Mode mode = Mode::kTime;
  std::string spec;
  std::vector<std::string> respell;
  std::string widen;
  size_t jobs = 1;
  double seconds = 0.0;
  bool detached = false;  // mq-numa-observed without its sinks
  fs::path out = ".";
  uint64_t t0_ns = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::string workload;
  std::string mode;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Fail("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      workload = value();
    } else if (flag == "--mode") {
      mode = value();
    } else if (flag == "--spec") {
      args.spec = value();
    } else if (flag == "--respell") {
      args.respell.push_back(value());
    } else if (flag == "--widen") {
      args.widen = value();
    } else if (flag == "--jobs") {
      args.jobs = std::stoul(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--detached") {
      args.detached = true;
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--t0-ns") {
      args.t0_ns = std::stoull(value());
    } else {
      Fail("unknown flag " + flag);
    }
  }
  static const std::map<std::string, Workload> kWorkloads = {
      {"fig5-serial", Workload::kFig5Serial},
      {"mq-numa-observed", Workload::kMqObserved},
      {"open-rt-colors", Workload::kOpenRt},
      {"serve-iterate", Workload::kServe}};
  static const std::map<std::string, Mode> kModes = {
      {"setup", Mode::kSetup}, {"time", Mode::kTime}, {"trace", Mode::kTrace},
      {"count", Mode::kCount}};
  if (kWorkloads.count(workload) == 0 || kModes.count(mode) == 0 || args.spec.empty()) {
    Fail("usage: --workload NAME --mode setup|time|trace|count --spec TEXT [...]");
  }
  args.workload = kWorkloads.at(workload);
  args.mode = kModes.at(mode);
  if (args.jobs == 0) {
    Fail("--jobs must be >= 1");
  }
  if (args.workload == Workload::kServe && args.widen.empty()) {
    Fail("serve-iterate needs --widen");
  }
  return args;
}

SweepSpec MustParseClosed(const std::string& text) {
  SweepSpec spec;
  std::string error;
  if (!ParseSweepSpec(text, &spec, &error)) {
    Fail("bad sweep spec '" + text + "': " + error);
  }
  return spec;
}

OpenSweepSpec MustParseOpen(const std::string& text) {
  OpenSweepSpec spec;
  std::string error;
  if (!ParseOpenSweepSpec(text, &spec, &error)) {
    Fail("bad open spec '" + text + "': " + error);
  }
  return spec;
}

// --- Spans -------------------------------------------------------------------

// One timed interval. `aggregate` spans sum many short calls (every policy
// decision or sink record of one Engine::Run); their start is the parent's
// start and only the duration is meaningful.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t cell = -1;
  uint64_t count = 0;       // calls summed by an aggregate span
  double round_wall_s = 0;  // runner.round: the runner's own ParallelFor wall
  bool aggregate = false;
};

// Thread-safe in-memory span store; cells add spans from worker threads.
class SpanLog {
 public:
  int64_t Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    span.id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  // Closes a span opened with end_ns == start_ns, once its children exist.
  void End(int64_t id, uint64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = end_ns;
  }

  std::string ToJsonl() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream out;
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell;
      if (s.aggregate) {
        out << ",\"aggregate\":true,\"count\":" << s.count;
      }
      if (s.round_wall_s > 0) {
        out << ",\"round_wall_s\":" << s.round_wall_s;
      }
      out << "}\n";
    }
    return out.str();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Forwarding decorators over the engine's sink interfaces: time (and count)
// every record on its way to the real sink.
class TimedTraceSink : public TraceSink {
 public:
  explicit TimedTraceSink(TraceSink* inner) : inner_(inner) {}
  void Record(const TraceEvent& event) override {
    const uint64_t t0 = NowNs();
    inner_->Record(event);
    ns_ += NowNs() - t0;
    ++count_;
  }
  uint64_t ns() const { return ns_; }
  uint64_t count() const { return count_; }

 private:
  TraceSink* inner_;
  uint64_t ns_ = 0;
  uint64_t count_ = 0;
};

class TimedDecisionSink : public DecisionSink {
 public:
  explicit TimedDecisionSink(DecisionSink* inner) : inner_(inner) {}
  void Record(DecisionRecord record) override {
    const uint64_t t0 = NowNs();
    inner_->Record(std::move(record));
    ns_ += NowNs() - t0;
    ++count_;
  }
  uint64_t ns() const { return ns_; }
  uint64_t count() const { return count_; }

 private:
  DecisionSink* inner_;
  uint64_t ns_ = 0;
  uint64_t count_ = 0;
};

// mq-numa-observed's sinks: every in-memory sink the Engine setters accept.
struct ObservedSinks {
  RingTrace ring{1 << 16};
  DecisionTrace decisions{1 << 16};
  JobSpanCollector lifecycle;
  MetricsRegistry registry;
  Sampler sampler{Milliseconds(100)};
  TimedTraceSink timed_ring{&ring};
  TimedDecisionSink timed_decisions{&decisions};
};

// --- Per-unit measurement state ---------------------------------------------

void KeepMin(std::map<std::string, double>* best, const std::string& key, double value) {
  const auto [it, inserted] = best->emplace(key, value);
  if (!inserted) {
    it->second = std::min(it->second, value);
  }
}

struct Measurements {
  std::mutex mu;
  // Each cell's fastest wall time over the run's units (units repeat the
  // same cells), keyed by the cell's identity in the grid. Keeping only the
  // minimum keeps memory flat however many units run.
  std::map<std::string, double> cell_ms;
  std::map<std::string, double> resubmit_ms;  // serve-iterate, per respelling
  double cold_submit_ms = 0;        // serve-iterate prologue
  std::map<std::string, double> counts;  // count mode, summed over cells
  size_t cells_attempted = 0;
  size_t mismatches = 0;  // cells whose unit document differed from unit 0's

  void AddCell(const std::string& key, double ms) {
    std::lock_guard<std::mutex> lock(mu);
    KeepMin(&cell_ms, key, ms);
  }
  void AddCounts(const std::map<std::string, double>& cell_counts) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [name, value] : cell_counts) {
      if (name == "sim.pool_high_water") {
        counts[name] = std::max(counts[name], value);
      } else {
        counts[name] += value;
      }
    }
  }
};

struct Context {
  Args args;
  Measurements m;
  SpanLog* spans = nullptr;  // trace mode only
  int64_t next_cell = 0;     // orchestration-thread cell ids (open sweeps)
  int64_t run_span = -1;     // the running sweep's span: parent of its cells
};

// --- Closed sweeps (fig5-serial, mq-numa-observed) ---------------------------

std::string CellKey(const SweepCellRef& ref) {
  return PolicyKindCliName(ref.policy) + "/m" + std::to_string(ref.mix_number) + "/r" +
         std::to_string(ref.replication);
}

// The run_cell seam. Untraced fig5-serial calls measure's RunOnce unchanged;
// every other configuration builds the Engine the way RunOnce does and
// attaches what the workload and mode need through the Engine setters.
RunResult RunClosedCell(Context& ctx, const SweepCellRef& ref, const MachineConfig& machine,
                        PolicyKind policy_kind, const std::vector<AppProfile>& jobs,
                        uint64_t seed, const EngineOptions& options) {
  const Args& args = ctx.args;
  const bool attached = args.workload == Workload::kMqObserved && !args.detached;
  const bool trace = args.mode == Mode::kTrace;
  const bool count = args.mode == Mode::kCount;
  const uint64_t t0 = NowNs();
  if (!attached && !trace && !count) {
    RunResult result = RunOnce(machine, policy_kind, jobs, seed, options);
    ctx.m.AddCell(CellKey(ref), static_cast<double>(NowNs() - t0) * 1e-6);
    return result;
  }

  std::unique_ptr<Policy> policy = MakePolicy(policy_kind);
  ProfileSection decisions;
  MetricsRegistry policy_counts;
  if (trace || count) {
    auto metered = std::make_unique<MeteredPolicy>(std::move(policy));
    if (trace) {
      metered->AttachProfiler(&decisions);
    } else {
      metered->AttachMetrics(&policy_counts);
    }
    policy = std::move(metered);
  }
  // The observed workload's in-memory sinks (nothing is exported) and the
  // counting registry, declared before the engine that points at them.
  std::unique_ptr<ObservedSinks> sinks;
  MetricsRegistry counting;
  Engine engine(machine, std::move(policy), seed, options);
  if (attached) {
    sinks = std::make_unique<ObservedSinks>();
    engine.SetTraceSink(trace ? static_cast<TraceSink*>(&sinks->timed_ring) : &sinks->ring);
    engine.SetDecisionSink(trace ? static_cast<DecisionSink*>(&sinks->timed_decisions)
                                 : &sinks->decisions);
    engine.SetSpanCollector(&sinks->lifecycle);
    engine.SetMetrics(&sinks->registry);
    engine.SetSampler(&sinks->sampler);
  } else if (count) {
    engine.SetMetrics(&counting);
  }

  for (const AppProfile& profile : jobs) {
    engine.SubmitJob(profile, 0);
  }
  const uint64_t t_built = NowNs();
  RunResult result;
  result.makespan = engine.Run();
  const uint64_t t_ran = NowNs();
  result.events = engine.event_queue_stats().run;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    result.jobs.push_back(JobResult{engine.job_name(id), engine.job_stats(id)});
  }
  const uint64_t t_end = NowNs();
  ctx.m.AddCell(CellKey(ref), static_cast<double>(t_end - t0) * 1e-6);

  if (trace) {
    const int64_t cell = static_cast<int64_t>(ref.mix_index * 1000000 + ref.replication * 1000 +
                                              static_cast<size_t>(policy_kind));
    const int64_t cell_id = ctx.spans->Add(Span{"cell", t0, t_end, 0, ctx.run_span, cell});
    Span build{"engine.build", t0, t_built, 0, cell_id, cell};
    ctx.spans->Add(build);
    Span run{"engine.run", t_built, t_ran, 0, cell_id, cell};
    const int64_t run_id = ctx.spans->Add(run);
    auto aggregate = [&](const char* name, uint64_t ns, uint64_t calls) {
      Span s{name, t_built, t_built + ns, 0, run_id, cell};
      s.aggregate = true;
      s.count = calls;
      ctx.spans->Add(s);
    };
    aggregate("sched.decide", decisions.total_ns(), decisions.count());
    if (attached) {
      aggregate("sink.trace", sinks->timed_ring.ns(), sinks->timed_ring.count());
      aggregate("sink.decision", sinks->timed_decisions.ns(), sinks->timed_decisions.count());
    }
  }
  if (count) {
    const EventQueue::Stats& q = engine.event_queue_stats();
    std::map<std::string, double> counts;
    counts["sim.events_run"] = static_cast<double>(q.run);
    counts["sim.events_cancelled"] = static_cast<double>(q.cancelled);
    counts["sim.pool_high_water"] = static_cast<double>(q.pool_high_water);
    for (const auto& [name, value] : (attached ? sinks->registry : counting).Snapshot()) {
      if (name == "engine.chunks" || name == "engine.dispatches") {
        counts[name] = value;
      }
    }
    double decided = 0;
    for (const auto& [name, value] : policy_counts.Snapshot()) {
      if (name == "policy.assignments") {
        counts["sched.assignments"] = value;
      } else if (name == "policy.on_balance") {
        counts["sched.balance_ticks"] = value;
        decided += value;
      } else if (name.rfind("policy.on_", 0) == 0) {
        decided += value;
      }
    }
    counts["sched.decisions"] = decided;
    if (attached) {
      counts["sink.trace.records"] = static_cast<double>(sinks->ring.total_recorded());
      counts["sink.decision.records"] = static_cast<double>(sinks->decisions.total_recorded());
    }
    ctx.m.AddCounts(counts);
  }
  return result;
}

SweepRunnerOptions ClosedRunnerOptions(Context& ctx) {
  SweepRunnerOptions options;
  options.jobs = ctx.args.jobs;
  options.run_cell = [&ctx](const SweepCellRef& ref, const MachineConfig& machine,
                            PolicyKind policy, const std::vector<AppProfile>& jobs,
                            uint64_t seed, const EngineOptions& engine_options) {
    return RunClosedCell(ctx, ref, machine, policy, jobs, seed, engine_options);
  };
  if (ctx.spans != nullptr) {
    // A round span covers the runner's whole round, from the previous round's
    // callback (or Run's start) to this one: batch gathering, the cache
    // probe, ParallelFor (whose wall the runner reports) and the fold.
    auto last = std::make_shared<uint64_t>(NowNs());
    options.round_stats = [&ctx, last](const SweepRoundStats& stats) {
      const uint64_t now = NowNs();
      Span round{"runner.round", *last, now, 0, ctx.run_span};
      round.round_wall_s = stats.round_wall_s;
      ctx.spans->Add(round);
      *last = now;
    };
  }
  return options;
}

// One closed unit: the whole sweep, then its document.
std::string RunClosedUnit(Context& ctx, const SweepSpec& spec, int64_t unit_span) {
  const uint64_t t0 = NowNs();
  if (ctx.spans != nullptr) {
    ctx.run_span = ctx.spans->Add(Span{"runner.run", t0, t0, 0, unit_span});
  }
  const SweepResult result = SweepRunner(ClosedRunnerOptions(ctx)).Run(spec);
  const uint64_t t_run = NowNs();
  std::string doc = result.ToJson() + "\n";
  const uint64_t t_json = NowNs();
  if (ctx.spans != nullptr) {
    ctx.spans->End(ctx.run_span, t_run);
    ctx.spans->Add(Span{"runner.tojson", t_run, t_json, 0, unit_span});
  }
  size_t cells = 0;
  for (const ExperimentResult& e : result.experiments) {
    cells += e.replicated.replications;
  }
  std::lock_guard<std::mutex> lock(ctx.m.mu);
  ctx.m.cells_attempted += cells;
  return doc;
}

// --- Open sweep (open-rt-colors) ---------------------------------------------

// One open unit. At --jobs 1 the runner's progress seam fires after every
// cell, so consecutive callbacks bound each cell.
std::string RunOpenUnit(Context& ctx, const OpenSweepSpec& spec, int64_t unit_span,
                        double calibrate_s) {
  OpenSweepRunnerOptions options;
  options.jobs = ctx.args.jobs;
  const uint64_t t0 = NowNs();
  // Run() calibrates (MeanServiceDemandSeconds) before its first cell; the
  // first cell starts after a calibration's worth of time.
  uint64_t last = t0 + static_cast<uint64_t>(calibrate_s * 1e9);
  int64_t run_span = -1;
  if (ctx.spans != nullptr) {
    run_span = ctx.spans->Add(Span{"runner.run", t0, t0, 0, unit_span});
    ctx.spans->Add(Span{"opensys.calibrate", t0, last, 0, run_span});
  }
  size_t seen = 0;
  options.progress = [&](size_t completed, size_t) {
    const uint64_t now = NowNs();
    const size_t cells = completed - seen;
    for (size_t k = seen; k < completed; ++k) {
      ctx.m.AddCell("c" + std::to_string(k),
                    static_cast<double>(now - last) * 1e-6 / static_cast<double>(cells));
    }
    if (ctx.spans != nullptr) {
      Span cell{"cell", last, now, 0, run_span, ctx.next_cell++};
      ctx.spans->Add(cell);
    }
    seen = completed;
    last = now;
  };
  const OpenSweepResult result = OpenSweepRunner(options).Run(spec);
  const uint64_t t_run = NowNs();
  std::string doc = result.ToJson() + "\n";
  const uint64_t t_json = NowNs();
  if (ctx.spans != nullptr) {
    ctx.spans->End(run_span, t_run);
    ctx.spans->Add(Span{"runner.tojson", t_run, t_json, 0, unit_span});
  }
  if (!result.AllLittlesLawOk()) {
    std::fprintf(stderr, "affsched_perfbench: Little's law check failed\n");
    ctx.m.mismatches += result.cells.size();
  }
  ctx.m.cells_attempted += result.cells.size();
  return doc;
}

// Count mode for the open sweep. OpenSweepRunner builds each cell's OpenSystemDriver
// internally, so this rebuilds every cell from the public opensys pieces in
// the runner's order, with a MetricsRegistry attached through
// OpenSystemDriver::SetMetrics, and returns the reassembled document — which
// run.py requires to equal the runner's, byte for byte.
std::string CountOpenUnit(Context& ctx, const OpenSweepSpec& spec) {
  OpenSweepResult result;
  result.spec = spec;
  result.mean_demand_s = MeanServiceDemandSeconds(spec.apps, spec.app_weights);
  std::vector<AppProfile> apps = spec.apps;
  if (spec.rt) {
    std::string error;
    if (!ApplyDeadlineMix(spec.deadline_mix, spec.machine.num_processors, &apps, &error)) {
      Fail(error);
    }
  }
  const double capacity =
      static_cast<double>(spec.machine.num_processors) * spec.machine.processor_speed;
  for (size_t a = 0; a < spec.arrivals.size(); ++a) {
    for (double rho : spec.rhos) {
      for (PolicyKind policy : spec.policies) {
        for (size_t rep = 0; rep < spec.replications; ++rep) {
          OpenCellResult cell;
          cell.policy = policy;
          cell.arrivals = spec.arrivals[a];
          cell.rho = rho;
          cell.replication = rep;
          cell.seed = DeriveOpenCellSeed(spec.root_seed, a, RhoPermille(rho), rep);
          const double interarrival_s = result.mean_demand_s / (rho * capacity);
          std::unique_ptr<ArrivalProcess> process;
          if (cell.arrivals == ArrivalKind::kPoisson) {
            process = std::make_unique<PoissonProcess>(Seconds(interarrival_s), spec.app_weights);
          } else {
            OnOffProcess::Params params;
            const double on_interarrival_s = interarrival_s / spec.onoff_burst_factor;
            const double mean_on_s = spec.onoff_burst_arrivals * on_interarrival_s;
            params.on_interarrival = Seconds(on_interarrival_s);
            params.mean_on = Seconds(mean_on_s);
            params.mean_off = Seconds((spec.onoff_burst_factor - 1.0) * mean_on_s);
            process = std::make_unique<OnOffProcess>(params, spec.app_weights);
          }
          std::unique_ptr<AdmissionController> admission =
              MakeAdmissionController(spec.mpl_cap, spec.max_queue);
          OpenSystemDriver driver(spec.machine, policy, apps,
                                  GenerateArrivals(*process, cell.seed, spec.jobs_per_cell, 0),
                                  admission.get(), cell.seed, spec.open);
          MetricsRegistry registry;
          driver.SetMetrics(&registry);
          cell.result = driver.Run();
          if (spec.rt) {
            for (const OpenJobRecord& job : cell.result.jobs) {
              const double deadline_s = apps[job.app_index].rt.deadline_s;
              if (job.rejected || deadline_s <= 0.0) {
                continue;
              }
              ++cell.deadline_checked;
              if (job.sojourn_s > deadline_s) {
                ++cell.deadline_misses;
              }
            }
          }
          const EventQueue::Stats& q = driver.engine().event_queue_stats();
          std::map<std::string, double> counts;
          counts["sim.events_run"] = static_cast<double>(q.run);
          counts["sim.events_cancelled"] = static_cast<double>(q.cancelled);
          counts["sim.pool_high_water"] = static_cast<double>(q.pool_high_water);
          for (const auto& [name, value] : registry.Snapshot()) {
            if (name == "engine.chunks" || name == "engine.dispatches") {
              counts[name] = value;
            }
          }
          ctx.m.AddCounts(counts);
          result.cells.push_back(std::move(cell));
        }
      }
    }
  }
  ctx.m.cells_attempted += result.cells.size();
  return result.ToJson() + "\n";
}

// --- Serve (serve-iterate) -----------------------------------------------------

// One SweepService on a fresh cache directory for the whole run, with the
// runner's round_stats seam and the wire stream turned into spans.
class ServeSession {
 public:
  ServeSession(Context& ctx, const fs::path& cache_dir) : ctx_(ctx), dir_(cache_dir) {
    fs::remove_all(dir_);
    const uint64_t t0 = NowNs();
    SweepServiceOptions options;
    options.cache_dir = dir_.string();
    options.jobs = ctx.args.jobs;
    options.git_rev = "perfbench";
    service_ = std::make_unique<SweepService>(options);
    if (!service_->ok()) {
      Fail("cannot open serve cache: " + service_->error());
    }
    if (ctx_.spans != nullptr) {
      ctx_.spans->Add(Span{"serve.open", t0, NowNs()});
      service_->set_round_stats([this](const SweepRoundStats& stats) {
        const uint64_t now = NowNs();
        Span round{"runner.round", round_last_, now, 0, submit_span_};
        round.round_wall_s = stats.round_wall_s;
        ctx_.spans->Add(round);
        round_last_ = now;
      });
    }
  }
  ~ServeSession() { fs::remove_all(dir_); }
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  // Submits `spec` under span `name` (child of `parent`); returns its wall
  // time in milliseconds.
  double Submit(const SweepSpec& spec, const char* name, int64_t parent,
                SubmitOutcome* outcome) {
    const uint64_t t0 = NowNs();
    round_last_ = t0;
    if (ctx_.spans != nullptr) {
      submit_span_ = ctx_.spans->Add(Span{name, t0, t0, 0, parent});
    }
    // The interval from the last "cell" event to "result" is the document
    // build (ToJson plus escaping it into the event).
    uint64_t last_cell_ns = t0;
    auto emit = [&](const std::string& line) {
      const uint64_t now = NowNs();
      if (line.rfind("{\"event\":\"cell\"", 0) == 0) {
        last_cell_ns = now;
      } else if (line.rfind("{\"event\":\"result\"", 0) == 0 && ctx_.spans != nullptr) {
        ctx_.spans->Add(
            Span{"runner.tojson", std::max(last_cell_ns, round_last_), now, 0, submit_span_});
      }
    };
    std::string error;
    if (!service_->Submit(spec, emit, outcome, &error)) {
      Fail("submit failed: " + error);
    }
    const uint64_t t1 = NowNs();
    if (ctx_.spans != nullptr) {
      ctx_.spans->End(submit_span_, t1);
    }
    return static_cast<double>(t1 - t0) * 1e-6;
  }

  void RecordCounts() {
    const ServiceCounters& c = service_->counters();
    std::lock_guard<std::mutex> lock(ctx_.m.mu);
    ctx_.m.counts["serve.cells"] = static_cast<double>(c.cells_planned.load());
    ctx_.m.counts["serve.hits"] = static_cast<double>(c.cache_hits.load());
    ctx_.m.counts["serve.executed"] = static_cast<double>(c.cells_executed.load());
    ctx_.m.counts["serve.cache_bytes"] = static_cast<double>(service_->cache()->TotalBytes());
  }

 private:
  Context& ctx_;
  fs::path dir_;
  std::unique_ptr<SweepService> service_;
  int64_t submit_span_ = -1;
  uint64_t round_last_ = 0;
};

// The serve run's prologue, before any timed unit: the cold submit (every
// cell simulated and stored) and the widened grid (overlap hits, the rest
// simulated). Returns the two documents.
std::vector<std::string> ServePrologue(Context& ctx, ServeSession& session) {
  SubmitOutcome cold;
  ctx.m.cold_submit_ms = session.Submit(MustParseClosed(ctx.args.spec), "serve.cold_submit", -1,
                                        &cold);
  SubmitOutcome wide;
  session.Submit(MustParseClosed(ctx.args.widen), "serve.widen_submit", -1, &wide);
  ctx.m.cells_attempted += cold.cells + wide.cells;
  if (cold.executed != cold.cells) {
    ctx.m.mismatches += cold.cells;  // a fresh cache must simulate every cell
  }
  if (wide.hits == 0 || wide.executed == 0) {
    ctx.m.mismatches += wide.cells;  // the widened grid must both reuse and add cells
  }
  return {cold.json, wide.json};
}

// One serve unit: every equivalent respelling resubmitted to the warm cache.
// Each must be all cache hits and byte-identical to the cold document.
std::string RunServeUnit(Context& ctx, ServeSession& session, const std::string& cold_doc,
                         int64_t unit_span) {
  const std::string cold_name = MustParseClosed(ctx.args.spec).name;
  std::string doc;
  for (size_t i = 0; i < ctx.args.respell.size(); ++i) {
    SweepSpec spec = MustParseClosed(ctx.args.respell[i]);
    // The verbatim spec string is provenance and lands in the document;
    // equivalent spellings must otherwise produce the same bytes.
    spec.name = cold_name;
    SubmitOutcome warm;
    const double ms = session.Submit(spec, "serve.resubmit", unit_span, &warm);
    ctx.m.cells_attempted += warm.cells;
    if (warm.json != cold_doc || warm.hits != warm.cells) {
      ctx.m.mismatches += warm.cells;
    }
    // A serve "cell" sample is one submission's wall time per cell it
    // resolved; here every cell is a cache hit.
    ctx.m.AddCell("s" + std::to_string(i), ms / static_cast<double>(warm.cells));
    KeepMin(&ctx.m.resubmit_ms, std::to_string(i), ms);
    doc = std::move(warm.json);
  }
  return doc;
}

// --- Modes ---------------------------------------------------------------------

struct Abort {};  // thrown by the setup probe's first cell

void RunSetup(const Args& args) {
  switch (args.workload) {
    case Workload::kFig5Serial:
    case Workload::kMqObserved: {
      // Through the real runner up to the first cell: spec parse and
      // validation, mix expansion, pool start.
      const SweepSpec spec = MustParseClosed(args.spec);
      uint64_t first_cell = 0;
      std::mutex mu;
      SweepRunnerOptions options;
      options.jobs = args.jobs;
      options.run_cell = [&](const SweepCellRef&, const MachineConfig&, PolicyKind,
                             const std::vector<AppProfile>&, uint64_t,
                             const EngineOptions&) -> RunResult {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (first_cell == 0) {
            first_cell = NowNs();
          }
        }
        throw Abort{};
      };
      try {
        SweepRunner(options).Run(spec);
      } catch (const Abort&) {
      }
      std::printf("{\"setup_s\":%.9f}\n", static_cast<double>(first_cell - args.t0_ns) * 1e-9);
      return;
    }
    case Workload::kOpenRt: {
      // The open runner's prologue from outside: parse, validate, the
      // rho -> rate calibration and the pool it starts.
      const OpenSweepSpec spec = MustParseOpen(args.spec);
      const double demand = MeanServiceDemandSeconds(spec.apps, spec.app_weights);
      WorkerPool pool(args.jobs);
      const uint64_t ready = NowNs();
      std::printf("{\"setup_s\":%.9f,\"mean_demand_s\":%.17g}\n",
                  static_cast<double>(ready - args.t0_ns) * 1e-9, demand);
      return;
    }
    case Workload::kServe: {
      // Every spec of the unit parsed, and the service's cache opened.
      MustParseClosed(args.spec);
      for (const std::string& text : args.respell) {
        MustParseClosed(text);
      }
      MustParseClosed(args.widen);
      const fs::path dir = args.out / "setup_cache";
      fs::remove_all(dir);
      SweepServiceOptions options;
      options.cache_dir = dir.string();
      options.jobs = args.jobs;
      const uint64_t ready = [&] {
        SweepService service(options);
        if (!service.ok()) {
          Fail("cannot open serve cache: " + service.error());
        }
        return NowNs();
      }();
      fs::remove_all(dir);
      std::printf("{\"setup_s\":%.9f}\n", static_cast<double>(ready - args.t0_ns) * 1e-9);
      return;
    }
  }
}

std::string JsonArray(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(9);
  out << "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i ? "," : "") << values[i];
  }
  out << "]";
  return out.str();
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out.precision(9);
  out << "{";
  for (auto it = values.begin(); it != values.end(); ++it) {
    out << (it == values.begin() ? "" : ",") << "\"" << it->first << "\":" << it->second;
  }
  out << "}";
  return out.str();
}

void RunUnits(Context& ctx) {
  const Args& args = ctx.args;
  fs::create_directories(args.out);
  const bool open = args.workload == Workload::kOpenRt;
  const bool serve = args.workload == Workload::kServe;
  SweepSpec closed_spec;
  OpenSweepSpec open_spec;
  double calibrate_s = 0;
  if (open) {
    open_spec = MustParseOpen(args.spec);
    const uint64_t t0 = NowNs();
    MeanServiceDemandSeconds(open_spec.apps, open_spec.app_weights);
    calibrate_s = static_cast<double>(NowNs() - t0) * 1e-9;
  } else if (!serve) {
    closed_spec = MustParseClosed(args.spec);
  }

  std::vector<double> unit_wall;
  std::vector<double> unit_cpu;
  std::vector<std::string> first_docs;
  std::unique_ptr<ServeSession> serve_session;
  std::vector<std::string> serve_docs;
  if (serve) {
    serve_session = std::make_unique<ServeSession>(ctx, args.out / "serve_cache");
    serve_docs = ServePrologue(ctx, *serve_session);
  }
  const uint64_t start = NowNs();
  for (uint64_t unit = 0;; ++unit) {
    const double cpu0 = CpuSeconds();
    const uint64_t t0 = NowNs();
    int64_t unit_span = -1;
    if (ctx.spans != nullptr) {
      unit_span = ctx.spans->Add(Span{"unit", t0, t0});
    }
    std::vector<std::string> docs;
    if (serve) {
      docs = {RunServeUnit(ctx, *serve_session, serve_docs[0], unit_span)};
    } else if (open && args.mode == Mode::kCount) {
      docs = {CountOpenUnit(ctx, open_spec)};
    } else if (open) {
      docs = {RunOpenUnit(ctx, open_spec, unit_span, calibrate_s)};
    } else {
      docs = {RunClosedUnit(ctx, closed_spec, unit_span)};
    }
    const uint64_t t1 = NowNs();
    unit_wall.push_back(static_cast<double>(t1 - t0) * 1e-9);
    unit_cpu.push_back(CpuSeconds() - cpu0);
    if (ctx.spans != nullptr) {
      ctx.spans->End(unit_span, t1);
    }
    if (unit == 0) {
      first_docs = std::move(docs);
    } else if (docs != first_docs) {
      // Same spec, same bytes: any difference is a determinism failure.
      ctx.m.mismatches += ctx.m.cells_attempted / (unit + 1);
    }
    // Stop before a unit that would end past --seconds (at least one runs).
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    if (args.mode == Mode::kCount ||
        elapsed * static_cast<double>(unit + 2) / static_cast<double>(unit + 1) > args.seconds) {
      break;
    }
  }

  if (serve) {
    serve_session->RecordCounts();
    serve_session.reset();
    first_docs = std::move(serve_docs);  // the resubmits equal the cold document
  }
  for (size_t i = 0; i < first_docs.size(); ++i) {
    WriteText(args.out / ("doc" + std::to_string(i) + ".json"), first_docs[i]);
  }
  if (ctx.spans != nullptr) {
    WriteText(args.out / "spans.jsonl", ctx.spans->ToJsonl());
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"units\":" << unit_wall.size() << ",\"docs\":" << first_docs.size()
      << ",\"unit_wall_s\":" << JsonArray(unit_wall) << ",\"unit_cpu_s\":" << JsonArray(unit_cpu)
      << ",\"cell_ms\":" << JsonObject(ctx.m.cell_ms)
      << ",\"resubmit_ms\":" << JsonObject(ctx.m.resubmit_ms)
      << ",\"peak_rss_mb\":" << PeakRssMb() << ",\"cells_attempted\":" << ctx.m.cells_attempted
      << ",\"mismatches\":" << ctx.m.mismatches << ",\"jobs\":" << args.jobs
      << ",\"calibrate_s\":" << calibrate_s << ",\"cold_submit_ms\":" << ctx.m.cold_submit_ms
      << ",\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : ctx.m.counts) {
    out << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  out << "},\"build\":{\"type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\"" << __VERSION__
      << "\",\"optimized\":"
#ifdef __OPTIMIZE__
      << "true"
#else
      << "false"
#endif
      << ",\"sanitized\":"
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
      << "true"
#else
      << "false"
#endif
      << "}}\n";
  WriteText(args.out / "result.json", out.str());
}

}  // namespace
}  // namespace affsched

int main(int argc, char** argv) {
  using namespace affsched;
  Context ctx;
  SpanLog spans;
  try {
    ctx.args = ParseArgs(argc, argv);
    if (ctx.args.mode == Mode::kSetup) {
      RunSetup(ctx.args);
      return 0;
    }
    if (ctx.args.mode == Mode::kTrace) {
      ctx.spans = &spans;
    }
    RunUnits(ctx);
  } catch (const std::exception& e) {
    Fail(e.what());
  }
  return 0;
}
