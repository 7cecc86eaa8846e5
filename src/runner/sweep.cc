#include "src/runner/sweep.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "src/apps/apps.h"
#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/common/time.h"
#include "src/runner/cell_seed.h"
#include "src/telemetry/json.h"

namespace affsched {

size_t SweepSpec::MinCells() const {
  return policies.size() * mixes.size() * replication.min_replications;
}

namespace {

// A preset grid on PaperMachineConfig() + DefaultProfiles().
SweepSpec Preset(const char* name, std::vector<PolicyKind> policies,
                 std::vector<WorkloadMix> mixes, size_t min_reps, size_t max_reps,
                 uint64_t root_seed) {
  SweepSpec spec;
  spec.name = name;
  spec.machine = PaperMachineConfig();
  spec.apps = DefaultProfiles();
  spec.policies = std::move(policies);
  spec.mixes = std::move(mixes);
  spec.replication.min_replications = min_reps;
  spec.replication.max_replications = max_reps;
  spec.root_seed = root_seed;
  return spec;
}

// Equipartition followed by `family`.
std::vector<PolicyKind> EquiPlus(const std::vector<PolicyKind>& family) {
  std::vector<PolicyKind> policies = {PolicyKind::kEquipartition};
  policies.insert(policies.end(), family.begin(), family.end());
  return policies;
}

std::vector<WorkloadMix> AllMixes() {
  const auto mixes = PaperMixes();
  return std::vector<WorkloadMix>(mixes.begin(), mixes.end());
}

std::vector<WorkloadMix> MixesOneAndFive() { return {PaperMixes()[0], PaperMixes()[4]}; }

}  // namespace

SweepSpec Fig5Spec() {
  return Preset("fig5", EquiPlus(DynamicFamily()), AllMixes(), 3, 5, 1000);
}

SweepSpec Table3Spec() {
  // Workload #5: 1 MATRIX + 1 GRAVITY.
  return Preset("table3", DynamicFamily(), {PaperMixes()[4]}, 3, 5, 555);
}

SweepSpec FutureSpec() {
  return Preset("future", EquiPlus(DynamicFamily()), AllMixes(), 3, 4, 8000);
}

SweepSpec SmokeSpec() {
  return Preset("smoke", {PolicyKind::kEquipartition, PolicyKind::kDynamic, PolicyKind::kDynAff},
                MixesOneAndFive(), 2, 2, 1000);
}

SweepSpec MqSpec() {
  SweepSpec spec = Preset("mq", EquiPlus(MqPolicyFamily()), MixesOneAndFive(), 2, 2, 1000);
  // 16 procs as 4-core clusters, 2 clusters per node: distance tiers 1, 2
  // and 3 are all distinct, so every steal radius behaves differently.
  std::string topo_error;
  AFF_CHECK_MSG(ParseTopologySpec("numa-4x8,cores-per-cluster=4,clusters-per-node=2",
                                  &spec.machine.topology, &topo_error),
                topo_error.c_str());
  spec.engine.balance_interval = Milliseconds(50);
  return spec;
}

SweepSpec RtSpec() {
  SweepSpec spec = Preset(
      "rt", {PolicyKind::kDynAff, PolicyKind::kRtStaticAffinity, PolicyKind::kRtColorIso},
      MixesOneAndFive(), 2, 2, 1000);
  spec.rt = true;
  spec.deadline_mix = "soft";
  spec.machine.cache_model = CacheModelKind::kPartitioned;
  spec.machine.num_colors = 8;
  return spec;
}

bool ParseSweepSpec(const std::string& text, SweepSpec* spec, std::string* error) {
  SpecText parts;
  if (!SplitSpecText(text, ';', "sweep", &parts, error)) {
    return false;
  }
  if (parts.head.empty()) {
    *spec = Fig5Spec();  // custom specs start from the full grid
  } else if (parts.head == "fig5") {
    *spec = Fig5Spec();
  } else if (parts.head == "table3") {
    *spec = Table3Spec();
  } else if (parts.head == "future") {
    *spec = FutureSpec();
  } else if (parts.head == "smoke") {
    *spec = SmokeSpec();
  } else if (parts.head == "mq") {
    *spec = MqSpec();
  } else if (parts.head == "rt") {
    *spec = RtSpec();
  } else {
    *error = "unknown sweep preset '" + parts.head + "'";
    return false;
  }
  if (!parts.overrides.empty()) {
    spec->name = text;  // overrides applied: record full provenance
  }

  constexpr uint64_t kAny = std::numeric_limits<uint64_t>::max();
  for (const auto& [key, value] : parts.overrides) {
    uint64_t n = 0;
    if (key == "mixes") {
      spec->mixes.clear();
      for (const std::string& number : SplitList(value, ',')) {
        if (!ReadUintKey("mix number", number, 1, 6, &n, error)) {
          return false;
        }
        spec->mixes.push_back(PaperMixes()[n - 1]);
      }
    } else if (key == "reps") {
      // N fixed, or MIN-MAX adaptive.
      const size_t dash = value.find('-');
      uint64_t hi = 0;
      if (!ReadUintKey(key, value.substr(0, dash), 1, kAny, &n, error) ||
          !ReadUintKey(key, dash == std::string::npos ? value : value.substr(dash + 1), n, kAny,
                       &hi, error)) {
        return false;
      }
      spec->replication.min_replications = n;
      spec->replication.max_replications = hi;
    } else if (key == "precision") {
      if (!ReadDoubleKey(key, value, &spec->replication.relative_precision, error)) {
        return false;
      }
    } else if (key == "observability") {
      if (!ReadBoolKey(key, value, &spec->observability, error)) {
        return false;
      }
    } else if (key == "balance-interval" || key == "balance_interval") {
      double ms = 0.0;
      if (!ReadDoubleKey(key, value, &ms, error)) {
        return false;
      }
      if (ms < 0 || ms > 1e6) {
        *error = "balance-interval must be in [0, 1e6] ms";
        return false;
      }
      spec->engine.balance_interval = Milliseconds(ms);
    } else if (!ApplyGridKey(key, value, spec, error)) {
      return false;
    }
  }
  return CheckGrid(*spec, error);
}

const ExperimentResult* SweepResult::Find(PolicyKind policy, int mix_number) const {
  for (const ExperimentResult& experiment : experiments) {
    if (experiment.policy == policy && experiment.mix.number == mix_number) {
      return &experiment;
    }
  }
  return nullptr;
}

namespace {

// The per-tier blocks are emitted only for hierarchical topologies, and the
// steal blocks only for grids containing a multi-queue policy, so the
// flat-machine JSON stays byte-identical to the pre-topology schema (pinned
// by tests/golden/).
std::string StatsJson(const JobStats& stats, bool tiered, bool mq, bool rt) {
  std::ostringstream o;
  o << "{\"useful_work_s\":" << JsonNumber(stats.useful_work_s)
    << ",\"reload_stall_s\":" << JsonNumber(stats.reload_stall_s)
    << ",\"steady_stall_s\":" << JsonNumber(stats.steady_stall_s)
    << ",\"switch_s\":" << JsonNumber(stats.switch_s)
    << ",\"waste_s\":" << JsonNumber(stats.waste_s)
    << ",\"alloc_integral_s\":" << JsonNumber(stats.alloc_integral_s)
    << ",\"reallocations\":" << stats.reallocations
    << ",\"affinity_dispatches\":" << stats.affinity_dispatches
    << ",\"affinity_fraction\":" << JsonNumber(stats.AffinityFraction())
    << ",\"realloc_interval_s\":" << JsonNumber(stats.ReallocationIntervalSeconds())
    << ",\"avg_alloc\":" << JsonNumber(stats.AverageAllocation());
  if (tiered) {
    o << ",\"migrations\":{\"same_core\":" << stats.migrations_same_core
      << ",\"same_cluster\":" << stats.migrations_same_cluster
      << ",\"same_node\":" << stats.migrations_same_node
      << ",\"cross_node\":" << stats.migrations_cross_node << "}"
      << ",\"reload_llc_s\":" << JsonNumber(stats.reload_llc_s)
      << ",\"reload_remote_s\":" << JsonNumber(stats.reload_remote_s);
  }
  if (mq) {
    o << ",\"steals\":{\"same_cluster\":" << stats.steals_same_cluster
      << ",\"same_node\":" << stats.steals_same_node
      << ",\"cross_node\":" << stats.steals_cross_node << "}"
      << ",\"balance_migrations\":" << stats.balance_migrations;
  }
  if (rt) {
    o << ",\"deadline_misses\":" << stats.deadline_misses
      << ",\"tardiness_s\":" << JsonNumber(stats.tardiness_s)
      << ",\"worst_reload_s\":" << JsonNumber(stats.worst_reload_s);
  }
  o << "}";
  return o.str();
}

}  // namespace

std::string SweepResult::ToJson() const {
  std::ostringstream o;
  // schema_version 3 = 1 + the opt-in "observability" and/or "rt" blocks; the
  // default document is byte-identical to schema 1 so golden baselines stay
  // pinned.
  o << "{\"schema_version\":" << ((spec.observability || spec.rt) ? 3 : 1)
    << ",\"tool\":\"sweep_runner\"";

  WriteGridSpecJson(o, spec, [this](std::ostream& own) {
    own << ",\"mixes\":[";
    for (size_t i = 0; i < spec.mixes.size(); ++i) {
      own << (i > 0 ? "," : "") << spec.mixes[i].number;
    }
    own << "],\"replications\":{\"min\":" << spec.replication.min_replications
        << ",\"max\":" << spec.replication.max_replications
        << ",\"precision\":" << JsonNumber(spec.replication.relative_precision)
        << ",\"confidence\":" << JsonNumber(spec.replication.confidence) << "}";
  });

  const bool tiered = !spec.machine.topology.IsFlat();
  bool mq = false;
  for (PolicyKind policy : spec.policies) {
    mq = mq || IsMqPolicy(policy);
  }
  o << ",\"experiments\":[";
  for (size_t e = 0; e < experiments.size(); ++e) {
    const ExperimentResult& experiment = experiments[e];
    const ReplicatedResult& rep = experiment.replicated;
    o << (e > 0 ? "," : "") << "{\"policy\":\"" << PolicyKindCliName(experiment.policy) << "\""
      << ",\"mix\":" << experiment.mix.number << ",\"replications\":" << rep.replications;
    o << ",\"jobs\":[";
    for (size_t j = 0; j < rep.app.size(); ++j) {
      o << (j > 0 ? "," : "") << "{\"index\":" << j << ",\"app\":\"" << JsonEscape(rep.app[j])
        << "\",\"mean_response_s\":" << JsonNumber(rep.MeanResponse(j)) << ",\"ci_half_width_s\":"
        << JsonNumber(rep.response[j].ConfidenceHalfWidth(spec.replication.confidence))
        << ",\"mean_stats\":" << StatsJson(rep.mean_stats[j], tiered, mq, spec.rt) << "}";
    }
    o << "],\"cells\":[";
    for (size_t c = 0; c < experiment.cells.size(); ++c) {
      const CellResult& cell = experiment.cells[c];
      o << (c > 0 ? "," : "") << "{\"rep\":" << cell.replication
        << ",\"seed\":" << SeedToDecimal(cell.seed) << ",\"makespan_s\":" << JsonNumber(ToSeconds(cell.run.makespan)) << ",\"response_s\":[";
      for (size_t j = 0; j < cell.run.jobs.size(); ++j) {
        o << (j > 0 ? "," : "") << JsonNumber(cell.run.jobs[j].stats.ResponseSeconds());
      }
      o << "]}";
    }
    o << "]}";
  }
  o << "]";

  if (spec.observability) {
    // Affinity efficiency per experiment, derived from the replicated mean
    // stats: how much of the consumed machine time went to rebuilding cache
    // context, how often dispatches landed on it, and where migrations went.
    o << ",\"observability\":{\"experiments\":[";
    for (size_t e = 0; e < experiments.size(); ++e) {
      const ExperimentResult& experiment = experiments[e];
      double useful = 0, reload = 0, steady = 0, switching = 0;
      uint64_t dispatches = 0, affine = 0;
      uint64_t mig_core = 0, mig_cluster = 0, mig_node = 0, mig_cross = 0;
      for (const JobStats& stats : experiment.replicated.mean_stats) {
        useful += stats.useful_work_s;
        reload += stats.reload_stall_s;
        steady += stats.steady_stall_s;
        switching += stats.switch_s;
        dispatches += stats.reallocations;
        affine += stats.affinity_dispatches;
        mig_core += stats.migrations_same_core;
        mig_cluster += stats.migrations_same_cluster;
        mig_node += stats.migrations_same_node;
        mig_cross += stats.migrations_cross_node;
      }
      const double busy = useful + reload + steady + switching;
      o << (e > 0 ? "," : "") << "{\"policy\":\"" << PolicyKindCliName(experiment.policy) << "\""
        << ",\"mix\":" << experiment.mix.number
        << ",\"reload_transient_fraction\":" << JsonNumber(busy > 0 ? reload / busy : 0.0)
        << ",\"affine_fraction\":"
        << JsonNumber(dispatches > 0
                          ? static_cast<double>(affine) / static_cast<double>(dispatches)
                          : 0.0)
        << ",\"migrations\":{\"same_core\":" << mig_core
        << ",\"same_cluster\":" << mig_cluster << ",\"same_node\":" << mig_node
        << ",\"cross_node\":" << mig_cross << "}}";
    }
    o << "]}";
  }

  if (spec.rt) {
    // Real-time summary per experiment, derived from the recorded cells (or
    // from the replicated means when cells were not recorded): deadline-miss
    // rate over all (job, replication) completions, mean and p99 tardiness,
    // and the worst-case-observed reload across the whole experiment.
    o << ",\"rt\":{\"deadline_mix\":\"" << JsonEscape(spec.deadline_mix)
      << "\",\"experiments\":[";
    for (size_t e = 0; e < experiments.size(); ++e) {
      const ExperimentResult& experiment = experiments[e];
      uint64_t misses = 0;
      uint64_t completions = 0;
      double worst_reload = 0.0;
      std::vector<double> tardiness;
      if (!experiment.cells.empty()) {
        for (const CellResult& cell : experiment.cells) {
          for (const JobResult& job : cell.run.jobs) {
            misses += job.stats.deadline_misses;
            ++completions;
            tardiness.push_back(job.stats.tardiness_s);
            worst_reload = std::max(worst_reload, job.stats.worst_reload_s);
          }
        }
      } else {
        for (const JobStats& stats : experiment.replicated.mean_stats) {
          misses += stats.deadline_misses;
          ++completions;
          tardiness.push_back(stats.tardiness_s);
          worst_reload = std::max(worst_reload, stats.worst_reload_s);
        }
      }
      std::sort(tardiness.begin(), tardiness.end());
      double sum_tardiness = 0.0;
      for (double t : tardiness) {
        sum_tardiness += t;
      }
      const double mean_tardiness =
          completions > 0 ? sum_tardiness / static_cast<double>(completions) : 0.0;
      double p99 = 0.0;
      if (!tardiness.empty()) {
        const size_t n = tardiness.size();
        size_t idx = (99 * n + 99) / 100;  // ceil(0.99 * n)
        if (idx == 0) {
          idx = 1;
        }
        p99 = tardiness[idx - 1];
      }
      o << (e > 0 ? "," : "") << "{\"policy\":\"" << PolicyKindCliName(experiment.policy)
        << "\",\"mix\":" << experiment.mix.number << ",\"completions\":" << completions
        << ",\"deadline_misses\":" << misses << ",\"deadline_miss_rate\":"
        << JsonNumber(completions > 0
                          ? static_cast<double>(misses) / static_cast<double>(completions)
                          : 0.0)
        << ",\"mean_tardiness_s\":" << JsonNumber(mean_tardiness)
        << ",\"p99_tardiness_s\":" << JsonNumber(p99)
        << ",\"worst_reload_s\":" << JsonNumber(worst_reload) << "}";
    }
    o << "]}";
  }

  // Relative response times vs Equipartition (the Figure 5 quantities) —
  // emitted when the grid includes Equipartition, so CI can gate on the
  // paper's headline ratios without recomputing them.
  bool first_ratio = true;
  std::ostringstream ratios;
  for (const WorkloadMix& mix : spec.mixes) {
    const ExperimentResult* equi = Find(PolicyKind::kEquipartition, mix.number);
    if (equi == nullptr) {
      continue;
    }
    for (PolicyKind policy : spec.policies) {
      if (policy == PolicyKind::kEquipartition) {
        continue;
      }
      const ExperimentResult* run = Find(policy, mix.number);
      if (run == nullptr) {
        continue;
      }
      for (size_t j = 0; j < run->replicated.app.size(); ++j) {
        ratios << (first_ratio ? "" : ",") << "{\"mix\":" << mix.number << ",\"policy\":\""
               << PolicyKindCliName(policy) << "\",\"job\":" << j << ",\"app\":\""
               << JsonEscape(run->replicated.app[j]) << "\",\"ratio\":"
               << JsonNumber(run->replicated.MeanResponse(j) / equi->replicated.MeanResponse(j))
               << "}";
        first_ratio = false;
      }
    }
  }
  const std::string ratio_text = ratios.str();
  if (!ratio_text.empty()) {
    o << ",\"relative_response\":[" << ratio_text << "]";
  }
  o << "}";
  return o.str();
}

bool SweepResult::WriteJsonFile(const std::string& path) const {
  return WriteJsonDocument(path, ToJson());
}

}  // namespace affsched
