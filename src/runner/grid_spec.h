// The half of the sweep-spec grammar that closed (src/runner/sweep.h) and
// open (src/opensys/open_sweep.h) grids share: the common fields, the keys
// that set them, the final grid check, and the JSON rendering of those
// fields.
//
// A spec string is "preset;key=value;..." or "key=value;..." (see
// SplitSpecText in src/common/flags.h). Shared keys, applied in source order
// on top of the preset:
//   policies=a,b,...    CLI policy names (replaces the list)
//   steal=r,...         steal radii nosteal|sibling|cluster|numa; sugar that
//                       replaces the policy list with the matching mq-* kinds
//   seed=N              root seed, an unsigned 64-bit decimal
//   procs=N             processors, 1..1024
//   speed=X, cache=X    processor speed and cache size relative to the
//                       Symmetry, each in [1e-3, 1e3]
//   topology=T          a topology spec (preset[,key=value,...]; see
//                       src/topology/topology.h)
//   colors=N            0..64; N >= 1 selects the partitioned cache model
//                       with N page colors, 0 restores the footprint model
//   rt=0|1              deadline accounting (also true/false, on/off)
//   deadline-mix=M      soft|hard|mixed|tight
// Numbers are parsed strictly: the whole value must be one finite number of
// the key's type, so "4x", "+2", "nan", "1e999" and negative counts are
// errors. Machine-shape bounds come from MachineConfig::Validate.

#ifndef SRC_RUNNER_GRID_SPEC_H_
#define SRC_RUNNER_GRID_SPEC_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/machine/machine.h"
#include "src/sched/factory.h"
#include "src/workload/app_profile.h"

namespace affsched {

struct GridSpec {
  std::string name = "custom";
  MachineConfig machine;
  // Application set the grid's jobs are drawn from.
  std::vector<AppProfile> apps;
  std::vector<PolicyKind> policies;
  uint64_t root_seed = 1000;
  // Real-time mode: stamp the deadline mix onto the application set and add
  // deadline accounting to the result document (see the derived specs).
  bool rt = false;
  std::string deadline_mix = "soft";
};

// Strict readers for one key's value, shared by every grid parser. On
// failure they set *error to a message naming the key and the bad value.
bool ReadUintKey(const std::string& key, const std::string& value, uint64_t lo, uint64_t hi,
                 uint64_t* out, std::string* error);
bool ReadDoubleKey(const std::string& key, const std::string& value, double* out,
                   std::string* error);
bool ReadBoolKey(const std::string& key, const std::string& value, bool* out,
                 std::string* error);

// Applies one shared key (see the file comment). Returns false and sets
// *error on a malformed value or a key that is not shared.
bool ApplyGridKey(const std::string& key, const std::string& value, GridSpec* spec,
                  std::string* error);

// The checks every parsed grid must pass: a non-empty policy list and a
// buildable machine (MachineConfig::Validate). Returns false and sets *error
// otherwise.
bool CheckGrid(const GridSpec& spec, std::string* error);

// Appends the shared "spec" object to a result document:
//   ,"spec":{"name":...,"root_seed":...,"machine":{"procs","speed","cache"
//   [,"colors"][,"topology"]},"policies":[...]<own_fields>[,"rt":true,
//   "deadline_mix":...]}
// `own_fields` appends the derived spec's fields, each with a leading comma.
void WriteGridSpecJson(std::ostream& o, const GridSpec& spec,
                       const std::function<void(std::ostream&)>& own_fields);

}  // namespace affsched

#endif  // SRC_RUNNER_GRID_SPEC_H_
