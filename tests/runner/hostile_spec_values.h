// Hostile numeric values shared by the closed (sweep_spec_test) and open
// (open_sweep_test) spec-grammar tests. Every shared numeric key of
// src/runner/grid_spec.h and every numeric topology= sub-key must reject
// each of them with a non-empty error, in both parsers.

#ifndef TESTS_RUNNER_HOSTILE_SPEC_VALUES_H_
#define TESTS_RUNNER_HOSTILE_SPEC_VALUES_H_

#include <string>
#include <vector>

namespace affsched {

// Malformed for every numeric key: empty, trailing garbage, a '+' sign,
// non-finite, and out of range for double.
inline const std::vector<std::string> kMalformedNumbers = {"", "4x", "+2", "nan", "inf", "1e999"};

// kMalformedNumbers plus values that parse as numbers but are out of range
// for every shared key (negative, beyond 2^64 - 1).
inline std::vector<std::string> HostileNumbers() {
  std::vector<std::string> values = kMalformedNumbers;
  values.push_back("-1");
  values.push_back("99999999999999999999");
  return values;
}

// "key=value" overrides of every shared numeric key and every numeric
// topology sub-key (on the numa-4x8 preset), for each hostile value.
inline std::vector<std::string> HostileGridOverrides() {
  std::vector<std::string> overrides;
  for (const std::string& value : HostileNumbers()) {
    for (const char* key : {"seed", "procs", "speed", "cache", "colors"}) {
      overrides.push_back(std::string(key) + "=" + value);
    }
    for (const char* key : {"cores-per-cluster", "clusters-per-node", "llc-kb", "llc-line",
                            "llc-ways", "llc-factor", "remote"}) {
      overrides.push_back("topology=numa-4x8," + std::string(key) + "=" + value);
    }
  }
  return overrides;
}

}  // namespace affsched

#endif  // TESTS_RUNNER_HOSTILE_SPEC_VALUES_H_
