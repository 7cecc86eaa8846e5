#include "src/serve/spec_canon.h"

#include <sstream>

#include "src/runner/cell_seed.h"
#include "src/telemetry/json.h"

namespace affsched {

uint64_t Fnv1a64(const std::string& text, uint64_t basis) {
  uint64_t hash = basis;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string HashHex(uint64_t value) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

std::string CanonicalSpecText(const SweepSpec& spec) {
  std::ostringstream o;
  o << "sweep-v1;policies=";
  for (size_t i = 0; i < spec.policies.size(); ++i) {
    o << (i > 0 ? "," : "") << PolicyKindCliName(spec.policies[i]);
  }
  o << ";mixes=";
  for (size_t i = 0; i < spec.mixes.size(); ++i) {
    o << (i > 0 ? "," : "") << spec.mixes[i].number;
  }
  o << ";reps=" << spec.replication.min_replications << "-" << spec.replication.max_replications
    << ";precision=" << JsonNumber(spec.replication.relative_precision)
    << ";confidence=" << JsonNumber(spec.replication.confidence)
    << ";seed=" << SeedToDecimal(spec.root_seed) << ";" << CellSpecText(spec)
    << ";observability=" << (spec.observability ? 1 : 0);
  return o.str();
}

std::string SweepKey(const SweepSpec& spec) {
  return HashHex(Fnv1a64(CanonicalSpecText(spec)));
}

std::string MixJobsDigest(const std::vector<AppProfile>& jobs) {
  std::ostringstream o;
  for (const AppProfile& job : jobs) {
    const WorkingSetParams& ws = job.working_set;
    o << job.name.size() << ":" << job.name << "," << JsonNumber(ws.blocks) << ","
      << JsonNumber(ws.buildup_tau_s) << "," << JsonNumber(ws.steady_miss_per_s) << ","
      << JsonNumber(ws.shared_write_per_s) << "," << JsonNumber(job.thread_overlap) << ","
      << job.max_parallelism << "," << JsonNumber(job.expected_work_s) << ","
      << JsonNumber(job.rt.period_s) << "," << JsonNumber(job.rt.deadline_s) << ","
      << JsonNumber(job.rt.wcet_s) << "," << (job.rt.hard ? 1 : 0) << ";";
  }
  return HashHex(Fnv1a64(o.str()));
}

std::string CanonicalCellText(const std::string& cell_spec, PolicyKind policy, int mix_number,
                              const std::string& mix_jobs, std::size_t replication,
                              uint64_t seed, const std::string& git_rev) {
  std::ostringstream o;
  o << "cell-v" << kCellEntrySchemaVersion << ";git=" << git_rev << ";" << cell_spec
    << ";policy=" << PolicyKindCliName(policy) << ";mix=" << mix_number << ";jobs=" << mix_jobs
    << ";rep=" << replication << ";seed=" << SeedToDecimal(seed);
  return o.str();
}

std::string CellKey(const std::string& cell_spec, PolicyKind policy, int mix_number,
                    const std::string& mix_jobs, std::size_t replication, uint64_t seed,
                    const std::string& git_rev) {
  const std::string text =
      CanonicalCellText(cell_spec, policy, mix_number, mix_jobs, replication, seed, git_rev);
  // Two independent digests: the standard FNV-1a basis and a second basis
  // derived by hashing the text length, giving 128 key bits in total.
  const uint64_t lo = Fnv1a64(text);
  const uint64_t hi = Fnv1a64(text, 0x9e3779b97f4a7c15ull ^ (lo + text.size()));
  return HashHex(hi) + HashHex(lo);
}

}  // namespace affsched
