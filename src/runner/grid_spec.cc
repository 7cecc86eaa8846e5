#include "src/runner/grid_spec.h"

#include <limits>

#include "src/common/flags.h"
#include "src/rt/deadline_mix.h"
#include "src/telemetry/json.h"

namespace affsched {

bool ReadUintKey(const std::string& key, const std::string& value, uint64_t lo, uint64_t hi,
                 uint64_t* out, std::string* error) {
  uint64_t n = 0;
  if (!ParseUint64(value, &n) || n < lo || n > hi) {
    *error = key + " expects an integer " +
             (hi == std::numeric_limits<uint64_t>::max()
                  ? ">= " + std::to_string(lo)
                  : "in " + std::to_string(lo) + ".." + std::to_string(hi)) +
             ", got '" + value + "'";
    return false;
  }
  *out = n;
  return true;
}

bool ReadDoubleKey(const std::string& key, const std::string& value, double* out,
                   std::string* error) {
  if (!ParseDouble(value, out)) {
    *error = key + " expects a finite number, got '" + value + "'";
    return false;
  }
  return true;
}

bool ReadBoolKey(const std::string& key, const std::string& value, bool* out,
                 std::string* error) {
  if (!ParseBool(value, out)) {
    *error = key + " must be 0 or 1, got '" + value + "'";
    return false;
  }
  return true;
}

bool ApplyGridKey(const std::string& key, const std::string& value, GridSpec* spec,
                  std::string* error) {
  constexpr uint64_t kAny = std::numeric_limits<uint64_t>::max();
  uint64_t n = 0;
  if (key == "policies" || key == "steal") {
    // steal=nosteal,cluster,... is sugar for the multi-queue policy family:
    // it replaces the policy list with the mq-* kind for each steal radius.
    const bool steal = key == "steal";
    spec->policies.clear();
    for (const std::string& name : SplitList(value, ',')) {
      PolicyKind kind;
      if (!(steal ? PolicyKindFromStealName(name, &kind) : PolicyKindFromName(name, &kind))) {
        *error = (steal ? "unknown steal policy '" : "unknown policy '") + name + "'";
        return false;
      }
      spec->policies.push_back(kind);
    }
  } else if (key == "seed") {
    return ReadUintKey(key, value, 0, kAny, &spec->root_seed, error);
  } else if (key == "procs") {
    if (!ReadUintKey(key, value, 1, kAny, &n, error)) {
      return false;
    }
    spec->machine.num_processors = n;
  } else if (key == "speed") {
    return ReadDoubleKey(key, value, &spec->machine.processor_speed, error);
  } else if (key == "cache") {
    return ReadDoubleKey(key, value, &spec->machine.cache_size_factor, error);
  } else if (key == "topology") {
    // Cell seeds do not depend on the topology, so hierarchical cells share
    // common random numbers with flat ones.
    return ParseTopologySpec(value, &spec->machine.topology, error);
  } else if (key == "colors") {
    if (!ReadUintKey(key, value, 0, 64, &n, error)) {
      return false;
    }
    spec->machine.num_colors = n;
    spec->machine.cache_model = n > 0 ? CacheModelKind::kPartitioned : CacheModelKind::kFootprint;
  } else if (key == "rt") {
    return ReadBoolKey(key, value, &spec->rt, error);
  } else if (key == "deadline-mix" || key == "deadline_mix") {
    if (!IsDeadlineMix(value)) {
      *error = "unknown deadline mix '" + value + "' (expected soft|hard|mixed|tight)";
      return false;
    }
    spec->deadline_mix = value;
  } else {
    *error = "unknown spec key '" + key + "'";
    return false;
  }
  return true;
}

bool CheckGrid(const GridSpec& spec, std::string* error) {
  if (spec.policies.empty()) {
    *error = "spec needs at least one policy";
    return false;
  }
  *error = spec.machine.Validate();
  return error->empty();
}

void WriteGridSpecJson(std::ostream& o, const GridSpec& spec,
                       const std::function<void(std::ostream&)>& own_fields) {
  o << ",\"spec\":{\"name\":\"" << JsonEscape(spec.name) << "\""
    << ",\"root_seed\":" << spec.root_seed << ",\"machine\":{\"procs\":"
    << spec.machine.num_processors << ",\"speed\":" << JsonNumber(spec.machine.processor_speed)
    << ",\"cache\":" << JsonNumber(spec.machine.cache_size_factor);
  if (spec.machine.cache_model == CacheModelKind::kPartitioned) {
    o << ",\"colors\":" << spec.machine.num_colors;
  }
  if (!spec.machine.topology.IsFlat()) {
    o << ",\"topology\":\"" << JsonEscape(spec.machine.topology.ToSpecString()) << "\"";
  }
  o << "},\"policies\":[";
  for (size_t i = 0; i < spec.policies.size(); ++i) {
    o << (i > 0 ? "," : "") << "\"" << PolicyKindCliName(spec.policies[i]) << "\"";
  }
  o << "]";
  own_fields(o);
  if (spec.rt) {
    o << ",\"rt\":true,\"deadline_mix\":\"" << JsonEscape(spec.deadline_mix) << "\"";
  }
  o << "}";
}

}  // namespace affsched
