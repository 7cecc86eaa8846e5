// The simulated multiprocessor: processors with private footprint caches, a
// shared bus, and machine-wide configuration.
//
// Defaults model the paper's Sequent Symmetry Model B (20 processors, 64 KB
// 2-way caches, 0.75 us per block fill, 750 us reallocation path length).
// `processor_speed` and `cache_size_factor` scale the machine into the future
// exactly as Section 7 of the paper does: computation scales linearly with
// processor speed, miss service improves only as sqrt(speed), and cache
// capacity scales with the cache-size factor — so the simulator can *run*
// the future-machine experiments that the paper could only model analytically.

#ifndef SRC_MACHINE_MACHINE_H_
#define SRC_MACHINE_MACHINE_H_

#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/bus.h"
#include "src/cache/cache_model.h"
#include "src/cache/geometry.h"
#include "src/topology/hier_cache.h"
#include "src/topology/topology.h"

namespace affsched {

// Which CacheModel implementation each processor's private cache uses.
enum class CacheModelKind {
  kFootprint,    // analytic working-set model (the experiments' default)
  kExact,        // per-line set-associative simulation driven by refstreams
  kPartitioned,  // colored/partitioned analytic model (rt workloads)
};

struct MachineConfig {
  size_t num_processors = 20;
  // Depth of the per-processor task history (T of Section 5.3).
  size_t task_history_depth = 1;
  CacheGeometry geometry;
  CacheModelKind cache_model = CacheModelKind::kFootprint;
  // Seeds the exact model's per-owner reference streams (unused by the
  // analytic model).
  uint64_t cache_model_seed = 0;
  // Uncontended per-block miss service time on the base machine.
  SimDuration miss_service = kSymmetryMissService;
  // Kernel path-length cost of a reallocation on the base machine.
  SimDuration switch_cost = kSymmetrySwitchCost;
  // Number of page colors the partitioned cache model divides each cache
  // into (1..64). Only meaningful — and only validated — when cache_model is
  // kPartitioned; 0 otherwise.
  size_t num_colors = 0;
  // Speed of this machine's processors relative to the base Symmetry.
  double processor_speed = 1.0;
  // Cache size relative to the base Symmetry.
  double cache_size_factor = 1.0;
  SharedBus::Config bus;
  // Machine hierarchy (clusters, nodes, shared LLCs). The default
  // symmetry-flat spec reproduces the paper's bus machine byte-identically.
  TopologySpec topology;

  // Shape bounds Validate enforces. Inside them the simulated clock's
  // integer arithmetic and the per-processor tables stay in range; the
  // largest machines the experiments build (32 processors, speed 128, cache
  // 16) sit well inside.
  static constexpr size_t kMaxProcessors = 1024;
  static constexpr double kMinScale = 1e-3;  // processor_speed, cache_size_factor
  static constexpr double kMaxScale = 1e3;

  // Returns an empty string if the configuration is buildable, else a
  // human-readable error (zero or too many processors, speed or cache scale
  // outside [kMinScale, kMaxScale], zero-capacity cache levels, ...).
  // Machine's constructor enforces this; parsers surface it as a clean error.
  std::string Validate() const;

  double CapacityBlocks() const {
    return static_cast<double>(geometry.TotalLines()) * cache_size_factor;
  }

  // Miss service shrinks as sqrt(processor_speed): memory keeps up with the
  // processor only partially (Section 7.1.3).
  double MissServiceSeconds() const {
    return ToSeconds(miss_service) / std::sqrt(processor_speed);
  }

  // Wall time to execute `work` (expressed in base-machine processor-seconds).
  SimDuration ComputeTime(SimDuration work) const {
    return static_cast<SimDuration>(static_cast<double>(work) / processor_speed);
  }

  SimDuration SwitchCost() const { return ComputeTime(switch_cost); }
};

// One processor: a private cache plus affinity history — an ordered list of
// the last T tasks to have run here (Section 5.3; the paper evaluates T = 1
// and notes deeper histories as a variation).
class Processor {
 public:
  Processor(size_t id, std::unique_ptr<CacheModel> cache, size_t history_depth = 1)
      : id_(id), history_depth_(history_depth), cache_(std::move(cache)) {}

  size_t id() const { return id_; }
  CacheModel& cache() { return *cache_; }
  const CacheModel& cache() const { return *cache_; }

  // Task currently dispatched here (kNoOwner when idle).
  CacheOwner current_task() const { return current_task_; }
  void SetCurrentTask(CacheOwner task) { current_task_ = task; }

  // History: the last task to have run on this processor.
  CacheOwner last_task() const { return history_.empty() ? kNoOwner : history_.front(); }

  // Most-recent-first list of the last T distinct tasks to have run here.
  const std::deque<CacheOwner>& recent_tasks() const { return history_; }

  void RecordDispatch(CacheOwner task) {
    current_task_ = task;
    // Move-to-front semantics: re-dispatching a remembered task refreshes it.
    for (auto it = history_.begin(); it != history_.end(); ++it) {
      if (*it == task) {
        history_.erase(it);
        break;
      }
    }
    history_.push_front(task);
    while (history_.size() > history_depth_) {
      history_.pop_back();
    }
  }

 private:
  size_t id_;
  size_t history_depth_;
  std::unique_ptr<CacheModel> cache_;
  CacheOwner current_task_ = kNoOwner;
  std::deque<CacheOwner> history_;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  const MachineConfig& config() const { return config_; }
  size_t num_processors() const { return processors_.size(); }
  Processor& processor(size_t i);
  SharedBus& bus() { return bus_; }
  const Topology& topology() const { return topology_; }

  struct ChunkExecution {
    SimDuration wall = 0;        // total wall time including miss stalls
    SimDuration stall = 0;       // portion spent waiting on misses
    double reload_misses = 0.0;  // affinity-related misses
    double steady_misses = 0.0;
    // Hierarchical topologies price reload misses by source, so the
    // reload/steady split is computed here rather than pro-rated from miss
    // counts downstream. When `tiered` is set the dispatcher uses these
    // spans directly; flat machines leave it false (and the flat arithmetic
    // byte-identical to the pre-topology code).
    bool tiered = false;
    SimDuration reload_stall = 0;
    SimDuration steady_stall = 0;
    SimDuration reload_llc = 0;     // portion of reload_stall filled from the LLC
    SimDuration reload_remote = 0;  // portion filled across the interconnect
  };

  // A sibling worker's placement, for coherence modelling.
  struct SiblingPlacement {
    size_t proc = 0;
    CacheOwner owner = kNoOwner;
  };

  // Executes `work` (base-machine processor-seconds) of `owner` on processor
  // `proc` starting at time `now`, evolving the cache and bus state. If the
  // task writes shared data (ws.shared_write_per_s > 0) and `siblings` lists
  // the same job's workers active on other processors, invalidations erode
  // their footprints and add bus traffic (the Symmetry's invalidation-based
  // protocol).
  ChunkExecution ExecuteChunk(SimTime now, size_t proc, CacheOwner owner,
                              const WorkingSetParams& ws, SimDuration work,
                              const std::vector<SiblingPlacement>* siblings = nullptr);

 private:
  MachineConfig config_;
  Topology topology_;
  // Shared LLC + last-node directory; non-null only for hierarchical
  // topologies (flat machines build plain FootprintCaches, untouched).
  std::unique_ptr<TopologyCacheState> topo_state_;
  std::vector<Processor> processors_;
  SharedBus bus_;
};

}  // namespace affsched

#endif  // SRC_MACHINE_MACHINE_H_
