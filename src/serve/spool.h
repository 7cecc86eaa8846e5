// The shard spool: filesystem-based cell distribution across processes.
//
// When a sweep runs sharded, the coordinator turns every cache-miss cell
// into a task file under `<spool>/todo/` — the cell's key, its spec text
// (CellSpecText, in the sweep-spec grammar) and its policy, mix, replication
// and seed — and any number of worker processes
// (affsched_served --worker) race to claim them. A claim is a rename(2) of
// `todo/<cellkey>.task` into `claimed/` — atomic on POSIX, so exactly one
// process wins each cell; the losers see ENOENT and move on. Workers publish
// results into the shared ResultCache (which has its own atomic-rename
// protocol), so "is this cell finished?" and "what is its result?" are the
// same question the cache already answers — the spool never carries results,
// only work.
//
// Crash-recovery invariants:
//   * A task file exists exactly from offer until claim; re-offering an
//     already-claimed or already-cached cell is a no-op.
//   * A claim file is an execution lease, not a lock: if its owner dies, the
//     coordinator's wait loop times out and re-simulates the cell locally.
//     Nothing ever blocks forever on a dead worker.
//   * The CRN seed scheme makes every execution of a cell byte-identical, so
//     duplicated execution (timeout races) is wasted work, never wrong
//     results.
//
// Because cell keys are content addresses that include the git revision,
// workers built from a different commit simply never see compatible keys —
// they idle rather than produce mismatched results.

#ifndef SRC_SERVE_SPOOL_H_
#define SRC_SERVE_SPOOL_H_

#include <string>

#include "src/runner/sweep.h"
#include "src/serve/result_cache.h"

namespace affsched {

// One unit of shard work. `spec` is the sweep's CellSpecText — the very text
// the cell key hashes — and `cell` names the policy, mix, replication and
// seed. A worker rebuilds every simulation input by parsing that text, so it
// simulates exactly the cell the key names.
struct SpoolTask {
  std::string key;  // 32-hex cell content address
  std::string spec;
  CellEntryMeta cell;
};

class Spool {
 public:
  explicit Spool(const std::string& dir);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  const std::string& dir() const { return dir_; }

  // Publishes a task for workers (write temp + rename into todo/). A cell
  // already offered, claimed, or finished is left alone. Returns false only
  // on I/O failure.
  bool Offer(const SpoolTask& task);

  // Coordinator-side claim of one specific cell: true means this process
  // owns the cell and must execute it; false means some worker got there
  // first (or it was never offered) and the result will appear in the cache.
  bool TryClaimKey(const std::string& key);

  // Worker-side claim of any pending task, oldest first. Returns false when
  // the todo directory is empty or every claim raced to another process.
  bool ClaimNext(SpoolTask* task);

  // Releases this process's claim marker for `key` after the result has been
  // published to the cache.
  bool FinishKey(const std::string& key);

  // Cooperative shutdown: workers poll StopRequested() between claims.
  bool RequestStop();
  bool StopRequested() const;

  // Pending (unclaimed) task count — coordinator diagnostics.
  std::size_t PendingCount() const;

  // Parses the task's spec text with its policy and mix appended, through
  // the strict sweep-spec grammar. Returns false (with a message) on any
  // value ParseSweepSpec refuses or a policy field that is not one name.
  static bool TaskSpec(const SpoolTask& task, SweepSpec* spec, std::string* error);

  // Task file codec (strict JSON, like cache entries).
  static std::string EncodeTask(const SpoolTask& task);
  static bool DecodeTask(const std::string& text, SpoolTask* task);

 private:
  std::string dir_;
  std::string todo_dir_;
  std::string claimed_dir_;
  bool ok_ = false;
  std::string error_;
};

struct SpoolWorkerOptions {
  // Return after this long with no claimable work; 0 = only stop on
  // RequestStop(). Lets CI workers drain and exit instead of hanging.
  double idle_timeout_s = 0.0;
  // Fault-injection throttle: sleep this long before each simulation
  // (mirrors the daemon's --cell-delay-ms; used by kill/resume tests to
  // widen the mid-sweep window deterministically).
  double cell_delay_s = 0.0;
};

// The worker main loop: claim → simulate → store → release, until stopped
// or idle past the timeout. Returns the number of cells executed.
std::size_t RunSpoolWorker(Spool* spool, ResultCache* cache, const SpoolWorkerOptions& options);

}  // namespace affsched

#endif  // SRC_SERVE_SPOOL_H_
