#include "src/serve/service.h"

#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/measure/experiment.h"
#include "src/sched/factory.h"
#include "src/serve/spec_canon.h"
#include "src/serve/wire.h"
#include "src/telemetry/json.h"
#include "src/telemetry/manifest.h"

namespace affsched {

namespace {

CellEntryMeta MetaFor(const SweepCellRef& ref) {
  return CellEntryMeta{PolicyKindCliName(ref.policy), ref.mix_number, ref.replication, ref.seed};
}

}  // namespace

SweepService::SweepService(const SweepServiceOptions& options) : options_(options) {
  git_rev_ = options_.git_rev.empty() ? RunManifest::GitSha() : options_.git_rev;
  ResultCacheOptions cache_options;
  cache_options.dir = options_.cache_dir;
  cache_options.max_bytes = options_.max_cache_bytes;
  cache_ = std::make_unique<ResultCache>(cache_options);
  if (!options_.spool_dir.empty()) {
    spool_ = std::make_unique<Spool>(options_.spool_dir);
  }
}

bool SweepService::ok() const {
  return cache_->ok() && (spool_ == nullptr || spool_->ok());
}

std::string SweepService::error() const {
  if (!cache_->ok()) {
    return cache_->error();
  }
  if (spool_ != nullptr && !spool_->ok()) {
    return spool_->error();
  }
  return "";
}

void SweepService::set_round_stats(std::function<void(const SweepRoundStats&)> hook) {
  round_stats_ = std::move(hook);
}

bool SweepService::Submit(const SweepSpec& spec,
                          const std::function<void(const std::string&)>& emit,
                          SubmitOutcome* outcome, std::string* error) {
  counters_.submits.fetch_add(1, std::memory_order_relaxed);
  SubmitOutcome local;
  local.sweep_key = SweepKey(spec);

  const size_t cells_min =
      spec.policies.size() * spec.mixes.size() * spec.replication.min_replications;
  if (emit) {
    emit("{\"event\":\"planned\",\"sweep\":\"" + local.sweep_key + "\",\"name\":\"" +
         JsonEscape(spec.name) + "\",\"cells_min\":" + std::to_string(cells_min) + "}");
  }

  // Cells a shard worker resolved (vs. simulated here). Written from worker
  // threads, read on the orchestration thread after each round's barrier.
  std::mutex remote_mu;
  std::unordered_set<std::string> remote_keys;

  // Rendered once: every cell key of this sweep hashes it, and every shard
  // task carries it.
  const std::string cell_spec = CellSpecText(spec);
  // MixJobsDigest of each mix, by position in spec.mixes (filled, and
  // checked, before the first cell is keyed).
  std::vector<std::string> mix_jobs;
  const auto key_for = [&](const SweepCellRef& ref) {
    return CellKey(cell_spec, ref.policy, ref.mix_number, mix_jobs.at(ref.mix_index),
                   ref.replication, ref.seed, git_rev_);
  };

  SweepRunnerOptions runner_options;
  runner_options.jobs = options_.jobs;
  runner_options.round_stats = round_stats_;

  runner_options.probe_cell = [&](const SweepCellRef& ref, RunResult* out) {
    const std::string key = key_for(ref);
    if (cache_->Probe(key, out)) {
      ++local.hits;
      counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    // Miss: when sharded, publish the cell so workers can start on it while
    // this round's other cells are still being probed.
    if (spool_ != nullptr) {
      spool_->Offer(SpoolTask{key, cell_spec, MetaFor(ref)});
    }
    return false;
  };

  runner_options.run_cell = [&](const SweepCellRef& ref, const MachineConfig& machine,
                                PolicyKind policy, const std::vector<AppProfile>& jobs,
                                uint64_t seed, const EngineOptions& engine) {
    const std::string key = key_for(ref);
    if (spool_ != nullptr) {
      // Claim our own offered task back; losing the race means a worker owns
      // the cell and its result will appear in the shared cache.
      const bool ours = options_.shard_local_execution && spool_->TryClaimKey(key);
      if (!ours) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::duration<double>(options_.remote_wait_timeout_s);
        while (std::chrono::steady_clock::now() < deadline) {
          RunResult remote;
          if (cache_->Contains(key) && cache_->Probe(key, &remote)) {
            counters_.cells_remote.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(remote_mu);
            remote_keys.insert(key);
            return remote;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        // The worker died (or never existed). Duplicate execution is safe —
        // the CRN seed makes the result identical — so fall through and
        // simulate locally rather than block the sweep.
      }
    }
    if (options_.cell_delay_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(options_.cell_delay_s));
    }
    counters_.inflight.fetch_add(1, std::memory_order_relaxed);
    RunResult result = RunOnce(machine, policy, jobs, seed, engine);
    counters_.inflight.fetch_sub(1, std::memory_order_relaxed);
    counters_.cells_executed.fetch_add(1, std::memory_order_relaxed);
    return result;
  };

  runner_options.store_cell = [&](const SweepCellRef& ref, const RunResult& result) {
    const std::string key = key_for(ref);
    {
      std::lock_guard<std::mutex> lock(remote_mu);
      if (remote_keys.count(key) != 0) {
        return;  // a worker already published this entry
      }
    }
    cache_->Store(key, MetaFor(ref), result);
    if (spool_ != nullptr) {
      spool_->FinishKey(key);
    }
  };

  runner_options.on_cell = [&](const SweepCellRef& ref, const RunResult& result,
                               bool from_cache) {
    (void)result;
    ++local.cells;
    const char* source = "sim";
    if (from_cache) {
      source = "cache";
    } else {
      const std::string key = key_for(ref);
      std::lock_guard<std::mutex> lock(remote_mu);
      if (remote_keys.count(key) != 0) {
        source = "remote";
      } else {
        ++local.executed;
      }
    }
    if (options_.stream_cells && emit) {
      emit("{\"event\":\"cell\",\"sweep\":\"" + local.sweep_key + "\",\"policy\":\"" +
           PolicyKindCliName(ref.policy) + "\",\"mix\":" + std::to_string(ref.mix_number) +
           ",\"rep\":" + std::to_string(ref.replication) +
           ",\"seed\":" + std::to_string(ref.seed) + ",\"source\":\"" + source + "\"}");
    }
  };

  try {
    for (const WorkloadMix& mix : spec.mixes) {
      mix_jobs.push_back(MixJobsDigest(MixJobs(spec, mix)));
      if (spool_ != nullptr && !spec.policies.empty()) {
        // A shard worker rebuilds the jobs from the task's spec text: the
        // default profiles and Table 2's mix of that number.
        SweepSpec rebuilt;
        std::string task_error;
        const SpoolTask task{
            "", cell_spec, CellEntryMeta{PolicyKindCliName(spec.policies.front()), mix.number}};
        if (!Spool::TaskSpec(task, &rebuilt, &task_error) ||
            MixJobsDigest(MixJobs(rebuilt, rebuilt.mixes.front())) != mix_jobs.back()) {
          throw std::invalid_argument(
              "a sharded service runs only the default application profiles and the "
              "Table 2 mixes (mix " +
              std::to_string(mix.number) + ")");
        }
      }
    }
    SweepRunner runner(runner_options);
    SweepResult result = runner.Run(spec);
    local.remote = remote_keys.size();
    counters_.cells_planned.fetch_add(local.cells, std::memory_order_relaxed);
    // The document ends in a newline, exactly as the batch runner's
    // WriteFile emits it, so saved responses diff clean against it.
    local.json = result.ToJson() + "\n";
  } catch (const std::exception& e) {
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    if (error != nullptr) {
      *error = e.what();
    }
    if (emit) {
      emit(WireErrorEvent(e.what()));
    }
    return false;
  }

  if (emit) {
    emit("{\"event\":\"result\",\"sweep\":\"" + local.sweep_key +
         "\",\"cells\":" + std::to_string(local.cells) +
         ",\"hits\":" + std::to_string(local.hits) +
         ",\"executed\":" + std::to_string(local.executed) +
         ",\"remote\":" + std::to_string(local.remote) + ",\"json\":\"" +
         JsonEscape(local.json) + "\"}");
    emit("{\"event\":\"done\",\"sweep\":\"" + local.sweep_key + "\"}");
  }
  if (outcome != nullptr) {
    *outcome = std::move(local);
  }
  return true;
}

std::string SweepService::StatsJson() const {
  const auto load = [](const std::atomic<uint64_t>& v) {
    return std::to_string(v.load(std::memory_order_relaxed));
  };
  std::string service = "{\"submits\":" + load(counters_.submits) +
                        ",\"cells_planned\":" + load(counters_.cells_planned) +
                        ",\"cache_hits\":" + load(counters_.cache_hits) +
                        ",\"cells_executed\":" + load(counters_.cells_executed) +
                        ",\"cells_remote\":" + load(counters_.cells_remote) +
                        ",\"inflight\":" + load(counters_.inflight) +
                        ",\"errors\":" + load(counters_.errors) + "}";
  return "{\"event\":\"stats\",\"git_rev\":\"" + JsonEscape(git_rev_) +
         "\",\"cache\":" + cache_->StatsJson() + ",\"service\":" + service + "}";
}

}  // namespace affsched
