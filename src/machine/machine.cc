#include "src/machine/machine.h"

#include <utility>

#include "src/cache/exact_model.h"
#include "src/cache/footprint.h"
#include "src/cache/partitioned.h"
#include "src/common/check.h"
#include "src/common/rng.h"

namespace affsched {

std::string MachineConfig::Validate() const {
  if (num_processors == 0) {
    return "machine requires at least one processor (procs=0)";
  }
  if (num_processors > kMaxProcessors) {
    return "machine supports at most 1024 processors (procs)";
  }
  if (geometry.line_bytes == 0 || geometry.total_bytes == 0 || geometry.TotalLines() == 0) {
    return "cache geometry has zero capacity (line_bytes/total_bytes)";
  }
  if (geometry.ways == 0) {
    return "cache geometry needs at least one way";
  }
  if (!(processor_speed >= kMinScale && processor_speed <= kMaxScale)) {
    return "processor_speed must be in [1e-3, 1e3] (speed)";
  }
  if (!(cache_size_factor >= kMinScale && cache_size_factor <= kMaxScale)) {
    return "cache_size_factor must be in [1e-3, 1e3] (cache)";
  }
  if (!topology.IsFlat() && cache_model != CacheModelKind::kFootprint) {
    return "hierarchical topologies require the footprint cache model "
           "(the exact per-line model has no LLC tier)";
  }
  if (cache_model == CacheModelKind::kPartitioned) {
    if (num_colors < 1 || num_colors > 64) {
      return "partitioned cache model requires colors in 1..64";
    }
  } else if (num_colors != 0) {
    return "colors is only meaningful with the partitioned cache model";
  }
  return topology.Validate(num_processors);
}

namespace {

std::unique_ptr<CacheModel> BuildCacheModel(const MachineConfig& config, size_t proc,
                                            const Topology& topology,
                                            TopologyCacheState* topo_state) {
  switch (config.cache_model) {
    case CacheModelKind::kFootprint:
      if (topo_state != nullptr) {
        return std::make_unique<HierarchicalCacheModel>(
            config.CapacityBlocks(), config.geometry.ways, topology, topo_state, proc);
      }
      return std::make_unique<FootprintCache>(config.CapacityBlocks(),
                                              config.geometry.ways);
    case CacheModelKind::kPartitioned:
      return std::make_unique<PartitionedCacheModel>(config.CapacityBlocks(),
                                                     config.geometry.ways, config.num_colors);
    case CacheModelKind::kExact: {
      // The exact model's capacity is set by its geometry, so the future-
      // machine cache-size factor scales the byte size directly.
      CacheGeometry geometry = config.geometry;
      geometry.total_bytes = static_cast<size_t>(
          static_cast<double>(geometry.total_bytes) * config.cache_size_factor);
      // Per-processor stream seed, derived so processors are decorrelated.
      uint64_t state = config.cache_model_seed + proc;
      return std::make_unique<ExactCacheModel>(geometry, SplitMix64(state));
    }
  }
  AFF_CHECK_MSG(false, "unknown cache model kind");
  return nullptr;
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(config),
      topology_(config.topology, config.num_processors),
      bus_(config.bus) {
  const std::string problem = config_.Validate();
  AFF_CHECK_MSG(problem.empty(), problem.c_str());
  if (!config_.topology.IsFlat()) {
    topo_state_ = std::make_unique<TopologyCacheState>(
        topology_, config_.topology.LlcCapacityBlocks(config_.geometry.line_bytes),
        config_.topology.llc_ways);
  }
  processors_.reserve(config_.num_processors);
  for (size_t i = 0; i < config_.num_processors; ++i) {
    processors_.emplace_back(i, BuildCacheModel(config_, i, topology_, topo_state_.get()),
                             config_.task_history_depth);
  }
}

Processor& Machine::processor(size_t i) {
  AFF_CHECK(i < processors_.size());
  return processors_[i];
}

Machine::ChunkExecution Machine::ExecuteChunk(SimTime now, size_t proc, CacheOwner owner,
                                              const WorkingSetParams& ws, SimDuration work,
                                              const std::vector<SiblingPlacement>* siblings) {
  AFF_CHECK(work >= 0);
  Processor& p = processor(proc);
  // Footprint evolution is driven by the *work* performed (same blocks get
  // touched for the same amount of computation regardless of clock rate).
  const CacheChunkResult misses = p.cache().RunChunk(owner, ws, ToSeconds(work));

  // Coherence: writes to shared data invalidate sibling workers' copies in
  // their caches. The invalidations travel over the shared bus.
  double invalidations = 0.0;
  if (ws.shared_write_per_s > 0.0 && siblings != nullptr && !siblings->empty()) {
    const double per_sibling = ws.shared_write_per_s * ToSeconds(work);
    for (const SiblingPlacement& sibling : *siblings) {
      if (sibling.proc == proc) {
        continue;
      }
      invalidations += processor(sibling.proc).cache().Invalidate(sibling.owner, per_sibling);
    }
  }

  const double inflation = bus_.InflationFactor(now);
  ChunkExecution exec;
  exec.reload_misses = misses.reload_misses;
  exec.steady_misses = misses.steady_misses;
  if (topo_state_ != nullptr) {
    // Hierarchical pricing: LLC hits refill at a fraction of a memory fill,
    // cross-node fetches pay the interconnect multiplier, and LLC hits stay
    // off the shared bus (they are cluster-local traffic).
    const double mss = config_.MissServiceSeconds();
    const double local_fills =
        misses.reload_misses - misses.reload_llc_hits - misses.reload_remote;
    const double llc_seconds =
        misses.reload_llc_hits * mss * config_.topology.llc_hit_factor * inflation;
    const double remote_seconds =
        misses.reload_remote * mss * config_.topology.remote_multiplier * inflation;
    const double reload_seconds = llc_seconds + remote_seconds + local_fills * mss * inflation;
    const double steady_seconds = misses.steady_misses * mss * inflation;
    bus_.RecordTraffic(now, misses.TotalMisses() - misses.reload_llc_hits + invalidations);
    exec.tiered = true;
    exec.reload_stall = Seconds(reload_seconds);
    exec.steady_stall = Seconds(steady_seconds);
    exec.reload_llc = Seconds(llc_seconds);
    exec.reload_remote = Seconds(remote_seconds);
    exec.stall = exec.reload_stall + exec.steady_stall;
  } else {
    const double stall_seconds = misses.TotalMisses() * config_.MissServiceSeconds() * inflation;
    bus_.RecordTraffic(now, misses.TotalMisses() + invalidations);
    exec.stall = Seconds(stall_seconds);
  }
  exec.wall = config_.ComputeTime(work) + exec.stall;
  return exec;
}

}  // namespace affsched
