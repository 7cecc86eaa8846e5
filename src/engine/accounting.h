// Accounting: the one component that writes response-time-model terms and
// telemetry.
//
// Every term of the paper's response-time model — useful work, waste,
// #reallocations, %affinity, switch time, reload/steady stalls, the
// allocation integral — is charged through this class, so Engine, measure/
// and the telemetry exporters all read numbers with a single producer.
// It also owns the usage-credit priority state updates and the metric
// registry wiring (per-run and per-job counter handles).

#ifndef SRC_ENGINE_ACCOUNTING_H_
#define SRC_ENGINE_ACCOUNTING_H_

#include "src/engine/engine_core.h"
#include "src/telemetry/job_spans.h"
#include "src/telemetry/metrics.h"
#include "src/topology/topology.h"

namespace affsched {

// Tier value for a dispatch with no previous placement (nothing migrated).
inline constexpr size_t kNoMigrationTier = static_cast<size_t>(-1);

// Global metric handles, resolved once by SetMetrics. All nullptr while
// metrics are detached, making every Bump() a single-branch no-op.
struct MetricHandles {
  Counter* job_arrivals = nullptr;
  Counter* job_completions = nullptr;
  Counter* dispatches = nullptr;
  Counter* dispatches_affine = nullptr;
  Counter* resumes = nullptr;
  Counter* preempts = nullptr;
  Counter* switches = nullptr;
  Counter* switch_time_ns = nullptr;
  Counter* holds = nullptr;
  Counter* yields = nullptr;
  Counter* releases = nullptr;
  Counter* thread_completions = nullptr;
  Counter* chunks = nullptr;
  Counter* reload_stall_ns = nullptr;
  Counter* steady_stall_ns = nullptr;
  Counter* reload_llc_ns = nullptr;
  Counter* reload_remote_ns = nullptr;
  Counter* waste_ns = nullptr;
  // Reallocations by migration distance (engine.migrations.<tier-name>).
  Counter* migrations[kNumDistanceTiers] = {nullptr, nullptr, nullptr, nullptr};
  // Multi-queue steals by the distance tier crossed
  // (engine.steals.<tier-name>; tier 0 never fires — a same-processor pull is
  // a local-queue dispatch, not a steal) and balance-tick migrations.
  Counter* steals[kNumDistanceTiers] = {nullptr, nullptr, nullptr, nullptr};
  Counter* balance_migrations = nullptr;
  // Real-time terms: completions past their relative deadline, and the summed
  // lateness of those completions.
  Counter* deadline_misses = nullptr;
  Counter* tardiness_ns = nullptr;
  Gauge* active_jobs = nullptr;
  FixedHistogram* reload_stall_us = nullptr;
  FixedHistogram* chunk_wall_us = nullptr;
};

inline void Bump(Counter* counter, double delta = 1.0) {
  if (counter != nullptr) {
    counter->Add(delta);
  }
}

class Accounting {
 public:
  explicit Accounting(EngineCore& core) : core_(core) {}

  // --- Registry wiring -------------------------------------------------------

  // Attaches a metrics registry (nullptr detaches) and resolves the global
  // handles. Must not be called mid-run.
  void SetMetrics(MetricsRegistry* registry);
  MetricsRegistry* metrics() const { return metrics_; }
  // Creates the per-job counters (Run() start, when all jobs are known).
  void ResolveJobMetrics();
  // Creates the per-job counters for one job admitted mid-run (open-system
  // submission happens after Run() has resolved the initial set).
  void ResolveJobMetricsFor(JobId id);
  // End-of-run totals that are cheaper to read once than to stream: bus
  // transfer and peak-utilisation counters, plus the derived affinity-
  // efficiency gauges (reload-transient fraction of runtime, affine dispatch
  // fraction).
  void FinalizeMetrics();

  // Attaches a lifecycle span collector (nullptr detaches). Arrival,
  // dispatch and completion notifications flow to it; every site costs one
  // null check while detached. Must not be called mid-run.
  void SetSpanCollector(JobSpanCollector* spans);
  JobSpanCollector* spans() const { return spans_; }

  // --- Lifecycle notifications -----------------------------------------------

  // Job entered service (engine OnJobArrival): bumps the arrival counter and
  // opens the lifecycle span.
  void NoteJobArrival(JobId id);
  // Job left the system: bumps the completion counter, closes the span.
  void NoteJobCompletion(JobId id);

  // --- Response-time-model charges -------------------------------------------

  // One chunk of useful execution: work and the stall split.
  void ChargeChunk(JobState& js, SimDuration work_done, SimDuration reload_stall,
                   SimDuration steady_stall);
  // Reload-cost attribution for one chunk on a hierarchical topology: the
  // spans of reload stall served by the cluster LLC / remote memory. Charged
  // at chunk start (chunks always run to completion, so the totals match).
  void ChargeReloadTiers(JobState& js, SimDuration reload_llc, SimDuration reload_remote);
  // One reallocation path-length cost (kernel switch) charged to the job.
  void ChargeSwitch(JobState& js);
  // A completed holding period of `held` that produced no work.
  void ChargeWaste(JobState& js, SimDuration held);
  // One reallocation the job experienced, affine or not. `tier` is the
  // migration distance from the task's previous processor
  // (kNoMigrationTier for a first placement); `proc` the landing processor.
  void RecordDispatch(JobState& js, size_t proc, bool affine, size_t tier = kNoMigrationTier);
  // One realised multi-queue steal of `js` across `tier` (1-based: stealing
  // from the own queue is a local dispatch).
  void RecordSteal(JobState& js, size_t tier);
  // One realised balance-tick migration of `js`.
  void RecordBalanceMigration(JobState& js);

  // --- Allocation/credit/parallelism bookkeeping -----------------------------

  void UpdateAllocIntegral(JobId id);
  void UpdateCredit(JobId id);
  void ChangeAllocation(JobId id, int delta);
  // Closes the parallelism-histogram interval at the job's running-worker
  // count; call before every EngineCore::SetRunning that changes it.
  void RecordParallelism(JobId id);

  // Handles for the event-count bumps that live with protocol/dispatch flow
  // (holds, yields, releases, preempts, resumes, arrivals, completions...).
  MetricHandles m;

 private:
  EngineCore& core_;
  MetricsRegistry* metrics_ = nullptr;
  JobSpanCollector* spans_ = nullptr;
};

}  // namespace affsched

#endif  // SRC_ENGINE_ACCOUNTING_H_
