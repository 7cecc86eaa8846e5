// Dispatcher: gets useful work onto processors.
//
// Owns worker selection (affinity-aware or oblivious), the dispatch step of a
// reallocation (processor-history update, %affinity realisation), chunked
// execution against the machine's cache model (reload-miss realisation), and
// the chunk-boundary bookkeeping in OnChunkDone — thread completion, thread
// turnover in the cache, and handing preemptions back to the
// AllocatorProtocol.

#ifndef SRC_ENGINE_DISPATCHER_H_
#define SRC_ENGINE_DISPATCHER_H_

#include "src/engine/accounting.h"
#include "src/engine/engine_core.h"
#include "src/machine/machine.h"

namespace affsched {

class AllocatorProtocol;

class Dispatcher {
 public:
  Dispatcher(EngineCore& core, Accounting& acct) : core_(core), acct_(acct) {}

  // Completes the component graph (the protocol and dispatcher call into each
  // other at chunk and switch boundaries).
  void Connect(AllocatorProtocol* alloc) { alloc_ = alloc; }

  // Picks a worker of `job` to dispatch on `proc` (prefers `prefer`, then an
  // affine idle worker, then the most recently idled, then a new worker).
  CacheOwner SelectWorker(JobId id, size_t proc, CacheOwner prefer);
  void RemoveIdleWorker(JobState& js, CacheOwner id);
  // Parks the worker back onto its job's idle list (most recently idled
  // first).
  void ParkWorker(JobState& js, Worker& w);

  // Dispatches a worker of `proc`'s holder onto it (a reallocation), then
  // either starts a chunk or enters holding.
  void DispatchWorker(size_t proc);
  // Executes the next bounded chunk of the running worker's thread.
  void StartChunk(size_t proc);
  void OnChunkDone(size_t proc, SimDuration work_done, SimDuration reload_stall,
                   SimDuration steady_stall);

 private:
  EngineCore& core_;
  Accounting& acct_;
  AllocatorProtocol* alloc_ = nullptr;
};

}  // namespace affsched

#endif  // SRC_ENGINE_DISPATCHER_H_
