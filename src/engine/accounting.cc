#include "src/engine/accounting.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"

namespace affsched {

void Accounting::SetMetrics(MetricsRegistry* registry) {
  AFF_CHECK_MSG(!core_.running, "SetMetrics must be called before Run()");
  metrics_ = registry;
  m = MetricHandles{};
  if (registry == nullptr) {
    return;
  }
  m.job_arrivals = registry->FindOrCreateCounter("engine.job_arrivals");
  m.job_completions = registry->FindOrCreateCounter("engine.job_completions");
  m.dispatches = registry->FindOrCreateCounter("engine.dispatches");
  m.dispatches_affine = registry->FindOrCreateCounter("engine.dispatches_affine");
  m.resumes = registry->FindOrCreateCounter("engine.resumes");
  m.preempts = registry->FindOrCreateCounter("engine.preempts");
  m.switches = registry->FindOrCreateCounter("engine.switches");
  m.switch_time_ns = registry->FindOrCreateCounter("engine.switch_time_ns");
  m.holds = registry->FindOrCreateCounter("engine.holds");
  m.yields = registry->FindOrCreateCounter("engine.yields");
  m.releases = registry->FindOrCreateCounter("engine.releases");
  m.thread_completions = registry->FindOrCreateCounter("engine.thread_completions");
  m.chunks = registry->FindOrCreateCounter("engine.chunks");
  m.reload_stall_ns = registry->FindOrCreateCounter("engine.reload_stall_ns");
  m.steady_stall_ns = registry->FindOrCreateCounter("engine.steady_stall_ns");
  m.reload_llc_ns = registry->FindOrCreateCounter("engine.reload_llc_ns");
  m.reload_remote_ns = registry->FindOrCreateCounter("engine.reload_remote_ns");
  m.waste_ns = registry->FindOrCreateCounter("engine.waste_ns");
  for (size_t tier = 0; tier < kNumDistanceTiers; ++tier) {
    m.migrations[tier] = registry->FindOrCreateCounter(std::string("engine.migrations.") +
                                                       DistanceTierName(tier));
    m.steals[tier] =
        registry->FindOrCreateCounter(std::string("engine.steals.") + DistanceTierName(tier));
  }
  m.balance_migrations = registry->FindOrCreateCounter("engine.balance_migrations");
  m.deadline_misses = registry->FindOrCreateCounter("engine.deadline_misses");
  m.tardiness_ns = registry->FindOrCreateCounter("engine.tardiness_ns");
  m.active_jobs = registry->FindOrCreateGauge("engine.active_jobs");
  m.reload_stall_us =
      registry->FindOrCreateHistogram("engine.reload_stall_us", DefaultLatencyBucketsUs());
  m.chunk_wall_us =
      registry->FindOrCreateHistogram("engine.chunk_wall_us", DefaultLatencyBucketsUs());
}

void Accounting::ResolveJobMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  for (JobId id = 0; id < core_.jobs.size(); ++id) {
    ResolveJobMetricsFor(id);
  }
}

void Accounting::ResolveJobMetricsFor(JobId id) {
  if (metrics_ == nullptr) {
    return;
  }
  JobState& js = core_.jobs[id];
  const std::string prefix = "engine.job." + js.job->name() + "#" + std::to_string(id);
  js.metric_reallocations = metrics_->FindOrCreateCounter(prefix + ".reallocations");
  js.metric_reload_stall_ns = metrics_->FindOrCreateCounter(prefix + ".reload_stall_ns");
}

void Accounting::FinalizeMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  metrics_->FindOrCreateCounter("bus.transfers")->Add(core_.machine.bus().total_transfers());
  metrics_->FindOrCreateGauge("bus.peak_utilization")
      ->Set(core_.machine.bus().peak_utilization());
  metrics_->FindOrCreateGauge("bus.utilization")
      ->Set(core_.machine.bus().UtilizationAt(core_.queue.now()));

  // Affinity efficiency: how much of the machine time jobs consumed went to
  // rebuilding cache context, and how often tasks landed on their context.
  double useful = 0.0, reload = 0.0, steady = 0.0, switching = 0.0;
  uint64_t dispatches = 0, affine = 0;
  for (const JobState& js : core_.jobs) {
    const JobStats& st = js.job->stats();
    useful += st.useful_work_s;
    reload += st.reload_stall_s;
    steady += st.steady_stall_s;
    switching += st.switch_s;
    dispatches += st.reallocations;
    affine += st.affinity_dispatches;
  }
  const double busy = useful + reload + steady + switching;
  metrics_->FindOrCreateGauge("engine.affinity.reload_transient_fraction")
      ->Set(busy > 0.0 ? reload / busy : 0.0);
  metrics_->FindOrCreateGauge("engine.affinity.affine_fraction")
      ->Set(dispatches > 0 ? static_cast<double>(affine) / static_cast<double>(dispatches)
                           : 0.0);
}

void Accounting::SetSpanCollector(JobSpanCollector* spans) {
  AFF_CHECK_MSG(!core_.running, "SetSpanCollector must be called before Run()");
  spans_ = spans;
}

void Accounting::NoteJobArrival(JobId id) {
  Bump(m.job_arrivals);
  if (spans_ != nullptr) {
    const JobState& js = core_.job_state(id);
    spans_->OnArrival(id, core_.queue.now(), js.job->stats().queue_wait_s);
  }
}

void Accounting::NoteJobCompletion(JobId id) {
  Bump(m.job_completions);
  JobState& js = core_.job_state(id);
  const RtParams& rt = js.profile->rt;
  if (rt.Active()) {
    // The deadline is relative to service start (stats().arrival); open-system
    // queue wait is accounted separately, matching the sojourn the rt sweep
    // compares against.
    JobStats& st = js.job->stats();
    const SimTime deadline = st.arrival + Seconds(rt.deadline_s);
    const SimTime now = core_.queue.now();
    if (now > deadline) {
      st.deadline_misses = 1;
      st.tardiness_s = ToSeconds(now - deadline);
      Bump(m.deadline_misses);
      Bump(m.tardiness_ns, static_cast<double>(now - deadline));
    }
  }
  if (spans_ != nullptr) {
    spans_->OnCompletion(id, core_.queue.now());
  }
}

void Accounting::ChargeChunk(JobState& js, SimDuration work_done, SimDuration reload_stall,
                             SimDuration steady_stall) {
  JobStats& st = js.job->stats();
  st.useful_work_s += ToSeconds(core_.machine.config().ComputeTime(work_done));
  st.reload_stall_s += ToSeconds(reload_stall);
  st.steady_stall_s += ToSeconds(steady_stall);
  // Worst single-chunk reload transient: the latency spike partitioning
  // exists to bound.
  st.worst_reload_s = std::max(st.worst_reload_s, ToSeconds(reload_stall));
  Bump(m.chunks);
  Bump(m.reload_stall_ns, static_cast<double>(reload_stall));
  Bump(m.steady_stall_ns, static_cast<double>(steady_stall));
  Bump(js.metric_reload_stall_ns, static_cast<double>(reload_stall));
  if (m.chunk_wall_us != nullptr) {
    m.chunk_wall_us->Observe(ToMicroseconds(core_.machine.config().ComputeTime(work_done) +
                                            reload_stall + steady_stall));
    if (reload_stall > 0) {
      m.reload_stall_us->Observe(ToMicroseconds(reload_stall));
    }
  }
}

void Accounting::ChargeReloadTiers(JobState& js, SimDuration reload_llc,
                                   SimDuration reload_remote) {
  if (reload_llc == 0 && reload_remote == 0) {
    return;
  }
  JobStats& st = js.job->stats();
  st.reload_llc_s += ToSeconds(reload_llc);
  st.reload_remote_s += ToSeconds(reload_remote);
  Bump(m.reload_llc_ns, static_cast<double>(reload_llc));
  Bump(m.reload_remote_ns, static_cast<double>(reload_remote));
}

void Accounting::ChargeSwitch(JobState& js) {
  js.job->stats().switch_s += ToSeconds(core_.machine.config().SwitchCost());
  Bump(m.switches);
  Bump(m.switch_time_ns, static_cast<double>(core_.machine.config().SwitchCost()));
}

void Accounting::ChargeWaste(JobState& js, SimDuration held) {
  js.job->stats().waste_s += ToSeconds(held);
  Bump(m.waste_ns, static_cast<double>(held));
}

void Accounting::RecordDispatch(JobState& js, size_t proc, bool affine, size_t tier) {
  if (spans_ != nullptr) {
    spans_->OnDispatch(js.job->id(), proc, core_.queue.now(), tier, affine);
  }
  JobStats& st = js.job->stats();
  st.reallocations++;
  if (affine) {
    st.affinity_dispatches++;
    Bump(m.dispatches_affine);
  }
  if (tier != kNoMigrationTier) {
    AFF_CHECK(tier < kNumDistanceTiers);
    switch (tier) {
      case 0:
        st.migrations_same_core++;
        break;
      case 1:
        st.migrations_same_cluster++;
        break;
      case 2:
        st.migrations_same_node++;
        break;
      default:
        st.migrations_cross_node++;
        break;
    }
    Bump(m.migrations[tier]);
  }
  Bump(m.dispatches);
  Bump(js.metric_reallocations);
}

void Accounting::RecordSteal(JobState& js, size_t tier) {
  AFF_CHECK(tier > 0 && tier < kNumDistanceTiers);
  JobStats& st = js.job->stats();
  switch (tier) {
    case 1:
      st.steals_same_cluster++;
      break;
    case 2:
      st.steals_same_node++;
      break;
    default:
      st.steals_cross_node++;
      break;
  }
  Bump(m.steals[tier]);
}

void Accounting::RecordBalanceMigration(JobState& js) {
  js.job->stats().balance_migrations++;
  Bump(m.balance_migrations);
}

void Accounting::UpdateAllocIntegral(JobId id) {
  JobState& js = core_.job_state(id);
  if (js.job->stats().completion >= 0) {
    return;  // frozen at completion
  }
  const double dt = ToSeconds(core_.queue.now() - js.alloc_update);
  js.job->stats().alloc_integral_s += static_cast<double>(js.allocation) * dt;
  js.alloc_update = core_.queue.now();
}

void Accounting::UpdateCredit(JobId id) {
  JobState& js = core_.job_state(id);
  js.credit = core_.Priority(id);
  js.credit_update = core_.queue.now();
}

void Accounting::ChangeAllocation(JobId id, int delta) {
  JobState& js = core_.job_state(id);
  UpdateCredit(id);
  UpdateAllocIntegral(id);
  AFF_CHECK(delta >= 0 || js.allocation >= static_cast<size_t>(-delta));
  js.allocation = static_cast<size_t>(static_cast<long>(js.allocation) + delta);
}

void Accounting::RecordParallelism(JobId id) {
  JobState& js = core_.job_state(id);
  if (js.par_hist == nullptr) {
    return;
  }
  const double dt = ToSeconds(core_.queue.now() - js.par_update);
  if (dt > 0.0) {
    js.par_hist->Add(js.running.size(), dt);
  }
  js.par_update = core_.queue.now();
}

}  // namespace affsched
