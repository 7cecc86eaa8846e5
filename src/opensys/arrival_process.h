// Arrival-process generation for open-system experiments.
//
// The paper's experiments start all jobs at t = 0; its policies, however, are
// designed around arrivals and departures (Equipartition repartitions on
// them; Dynamic's fair shares shift). This layer turns the simulator into an
// open queueing system's front half: a stream of (application, time) arrival
// events, drawn from a stochastic process or replayed from a trace, that the
// OpenSystemDriver feeds through admission control into the Engine.
//
// Three implementations:
//   * PoissonProcess       — memoryless arrivals at a fixed mean rate;
//   * OnOffProcess         — a two-state Markov-modulated Poisson process
//                            (bursts of arrivals separated by silences);
//   * TraceArrivalProcess  — deterministic replay of a recorded stream
//                            (CSV or JSONL).
//
// Every process is deterministic given its Reset() seed, so arrival plans are
// reproducible and shared across policies under common random numbers.

#ifndef SRC_OPENSYS_ARRIVAL_PROCESS_H_
#define SRC_OPENSYS_ARRIVAL_PROCESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace affsched {

struct ArrivalPlanEntry {
  size_t app_index = 0;  // index into the application set
  SimTime when = 0;
};

// Validates an application weight vector: non-empty, every entry finite and
// >= 0, total > 0. Dies with a message naming the offending entry otherwise.
// Every arrival process routes its weights through this guard, so a stray
// zero or negative weight fails fast instead of silently skewing the mix.
void CheckAppWeights(const std::vector<double>& app_weights);

// A stream of arrivals, strictly ordered by time. Implementations are
// deterministic functions of the Reset() seed.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  // Restarts the stream from t = 0 with the given seed. Must be called before
  // the first Next(); calling it again replays the stream from the start.
  virtual void Reset(uint64_t seed) = 0;

  // Produces the next arrival (times non-decreasing). Returns false when the
  // stream is exhausted; stochastic processes never exhaust, traces do.
  virtual bool Next(ArrivalPlanEntry* out) = 0;

  // Short identifier for sweep axes and JSON ("poisson", "onoff", "trace").
  virtual std::string Name() const = 0;
};

// Memoryless arrivals: exponential inter-arrival times with the given mean,
// each job drawn (by weight) from the application set.
class PoissonProcess : public ArrivalProcess {
 public:
  PoissonProcess(SimDuration mean_interarrival, std::vector<double> app_weights);

  void Reset(uint64_t seed) override;
  bool Next(ArrivalPlanEntry* out) override;
  std::string Name() const override { return "poisson"; }

 private:
  SimDuration mean_interarrival_;
  std::vector<double> app_weights_;
  double total_weight_;
  Rng rng_{0};
  SimTime now_ = 0;
};

// A two-state on/off modulated Poisson process (the simplest MMPP): during an
// "on" phase arrivals are Poisson with `on_interarrival`; during an "off"
// phase no arrivals occur. Phase durations are exponential with the given
// means, so the process is Markov and fully seed-deterministic. Burstiness
// comes from concentrating the same average rate into the on fraction of
// time: overall mean rate = on_fraction / on_interarrival where
// on_fraction = mean_on / (mean_on + mean_off).
class OnOffProcess : public ArrivalProcess {
 public:
  struct Params {
    SimDuration on_interarrival = 0;  // mean inter-arrival inside a burst (> 0)
    SimDuration mean_on = 0;          // mean burst duration (> 0)
    SimDuration mean_off = 0;         // mean silence duration (> 0)
  };

  OnOffProcess(const Params& params, std::vector<double> app_weights);

  void Reset(uint64_t seed) override;
  bool Next(ArrivalPlanEntry* out) override;
  std::string Name() const override { return "onoff"; }

 private:
  Params params_;
  std::vector<double> app_weights_;
  double total_weight_;
  Rng rng_{0};
  SimTime now_ = 0;
  SimTime phase_end_ = 0;
  bool on_ = true;
};

// Deterministic replay of a recorded arrival stream. Reset() ignores the
// seed (a trace is its own randomness) and rewinds to the first entry.
class TraceArrivalProcess : public ArrivalProcess {
 public:
  // `entries` must be sorted by time; dies otherwise.
  explicit TraceArrivalProcess(std::vector<ArrivalPlanEntry> entries);

  void Reset(uint64_t seed) override;
  bool Next(ArrivalPlanEntry* out) override;
  std::string Name() const override { return "trace"; }

  size_t size() const { return entries_.size(); }

 private:
  std::vector<ArrivalPlanEntry> entries_;
  size_t next_ = 0;
};

// Parses an arrival trace in CSV form: one "t_seconds,app_index" pair per
// line; blank lines and '#' comments skipped; an optional header line is
// tolerated. Returns false with a line-numbered message in `error` on
// malformed input (negative time, out-of-order times, bad number).
bool ParseArrivalTraceCsv(const std::string& text, std::vector<ArrivalPlanEntry>* out,
                          std::string* error);

// Parses an arrival trace in JSONL form: one {"t_s": <seconds>, "app": <idx>}
// object per line, each a complete JSON value read by ParseJson (extra keys
// ignored; blank lines skipped). Same validation as the CSV parser.
bool ParseArrivalTraceJsonl(const std::string& text, std::vector<ArrivalPlanEntry>* out,
                            std::string* error);

// Loads a trace file, dispatching on extension: ".jsonl" -> JSONL, anything
// else -> CSV. Returns nullptr with a message in `error` on failure.
std::unique_ptr<TraceArrivalProcess> LoadArrivalTraceFile(const std::string& path,
                                                          std::string* error);

// Materializes a plan from `process` (which is Reset with `seed` first).
// Generation stops at whichever bound hits first: `max_count` entries
// (0 = no count bound), or the first arrival at or after `t_end`, which is
// discarded (t_end <= 0 = no horizon). At least one bound must be set unless
// the process is finite (a trace). The result is sorted by time.
std::vector<ArrivalPlanEntry> GenerateArrivals(ArrivalProcess& process, uint64_t seed,
                                               size_t max_count, SimTime t_end);

// Legacy count-based helper (formerly src/measure/arrivals.h): `count`
// Poisson arrivals. Routes through PoissonProcess.
std::vector<ArrivalPlanEntry> PoissonArrivals(size_t count, SimDuration mean_interarrival,
                                              const std::vector<double>& app_weights,
                                              uint64_t seed);

// Horizon-based variant: Poisson arrivals up to (excluding) `t_end`.
std::vector<ArrivalPlanEntry> PoissonArrivalsUntil(SimTime t_end, SimDuration mean_interarrival,
                                                   const std::vector<double>& app_weights,
                                                   uint64_t seed);

}  // namespace affsched

#endif  // SRC_OPENSYS_ARRIVAL_PROCESS_H_
