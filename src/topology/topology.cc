#include "src/topology/topology.h"

#include <cstdio>
#include <sstream>

#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/common/table.h"

namespace affsched {

const char* DistanceTierName(size_t tier) {
  switch (tier) {
    case 0:
      return "same_core";
    case 1:
      return "same_cluster";
    case 2:
      return "same_node";
    case 3:
      return "cross_node";
    default:
      AFF_CHECK_MSG(false, "distance tier out of range");
      return "";
  }
}

double TopologySpec::LlcCapacityBlocks(size_t line_bytes) const {
  AFF_CHECK(line_bytes > 0);
  return static_cast<double>(llc_kb * 1024) / static_cast<double>(line_bytes);
}

namespace {

// Doubles print with enough digits that ParseDouble round-trips them exactly.
std::string FormatExact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Shortest representation for human-facing listings (1.6, not
// 1.6000000000000001).
std::string FormatShort(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

std::string TopologySpec::ToSpecString() const {
  std::ostringstream o;
  o << "name=" << name << ",cores-per-cluster=" << cores_per_cluster
    << ",clusters-per-node=" << clusters_per_node << ",llc-kb=" << llc_kb
    << ",llc-line=" << llc_line_bytes << ",llc-ways=" << llc_ways
    << ",llc-factor=" << FormatExact(llc_hit_factor)
    << ",remote=" << FormatExact(remote_multiplier);
  return o.str();
}

std::string TopologySpec::Validate(size_t num_processors) const {
  if (num_processors == 0) {
    return "topology requires at least one processor (procs=0)";
  }
  if (llc_kb > 0) {
    if (llc_line_bytes == 0) {
      return "llc-line must be > 0 when the LLC tier is enabled (llc-kb > 0)";
    }
    if (llc_ways == 0) {
      return "llc-ways must be >= 1 when the LLC tier is enabled (llc-kb > 0)";
    }
    if (llc_kb * 1024 < llc_line_bytes) {
      return "LLC capacity is smaller than one LLC line (zero-capacity level)";
    }
  }
  if (!(llc_hit_factor > 0.0 && llc_hit_factor <= 1.0)) {
    return "llc-factor must be in (0, 1]: an LLC hit costs a fraction of a memory fill";
  }
  if (!(remote_multiplier >= 1.0 && remote_multiplier <= 1e3)) {
    return "remote must be in [1, 1e3]: a remote fill cannot be cheaper than a local one";
  }
  return "";
}

TopologySpec SymmetryFlatTopology() { return TopologySpec{}; }

TopologySpec CmpTopology() {
  TopologySpec spec;
  spec.name = "cmp-2x10";
  spec.cores_per_cluster = 10;
  spec.clusters_per_node = 0;  // one memory: a single-socket CMP
  spec.llc_kb = 512;
  spec.llc_line_bytes = 64;
  spec.llc_ways = 8;
  spec.llc_hit_factor = 0.25;
  spec.remote_multiplier = 1.0;  // unused: no remote memory
  return spec;
}

TopologySpec NumaTopology() {
  TopologySpec spec;
  spec.name = "numa-4x8";
  spec.cores_per_cluster = 8;
  spec.clusters_per_node = 1;  // each cluster is its own node
  spec.llc_kb = 1024;
  spec.llc_line_bytes = 64;
  spec.llc_ways = 16;
  spec.llc_hit_factor = 0.25;
  spec.remote_multiplier = 1.6;
  return spec;
}

std::vector<TopologySpec> TopologyPresets() {
  return {SymmetryFlatTopology(), CmpTopology(), NumaTopology()};
}

bool TopologyPresetFromName(const std::string& name, TopologySpec* spec) {
  for (const TopologySpec& preset : TopologyPresets()) {
    if (preset.name == name) {
      *spec = preset;
      return true;
    }
  }
  return false;
}

bool ParseTopologySpec(const std::string& text, TopologySpec* spec, std::string* error) {
  SpecText parts;
  if (!SplitSpecText(text, ',', "topology", &parts, error)) {
    return false;
  }
  if (parts.head.empty()) {
    *spec = SymmetryFlatTopology();
    spec->name = "custom";
  } else if (!TopologyPresetFromName(parts.head, spec)) {
    *error = "unknown topology preset '" + parts.head + "'";
    return false;
  }

  for (const auto& [key, value] : parts.overrides) {
    size_t* count = key == "cores-per-cluster"   ? &spec->cores_per_cluster
                      : key == "clusters-per-node" ? &spec->clusters_per_node
                      : key == "llc-kb"            ? &spec->llc_kb
                      : key == "llc-line"          ? &spec->llc_line_bytes
                      : key == "llc-ways"          ? &spec->llc_ways
                                                   : nullptr;
    double* factor = key == "llc-factor" ? &spec->llc_hit_factor
                     : key == "remote"   ? &spec->remote_multiplier
                                         : nullptr;
    if (key == "name") {
      spec->name = value;
    } else if (count != nullptr) {
      uint64_t n = 0;
      if (!ParseUint64(value, &n)) {
        *error = "topology " + key + " expects a non-negative integer, got '" + value + "'";
        return false;
      }
      *count = n;
    } else if (factor != nullptr) {
      if (!ParseDouble(value, factor)) {
        *error = "topology " + key + " expects a finite number, got '" + value + "'";
        return false;
      }
    } else {
      *error = "unknown topology spec key '" + key + "'";
      return false;
    }
  }
  return true;
}

std::string RenderTopologyList() {
  TextTable table;
  table.SetHeader({"topology", "grouping", "cluster LLC", "remote", "tiers"});
  for (const TopologySpec& spec : TopologyPresets()) {
    std::string grouping;
    if (spec.cores_per_cluster == 0) {
      grouping = "single cluster";
    } else {
      grouping = std::to_string(spec.cores_per_cluster) + " cores/cluster";
      grouping += spec.SingleNode()
                      ? ", single node"
                      : ", " + std::to_string(spec.clusters_per_node) + " clusters/node";
    }
    const std::string llc =
        spec.llc_kb == 0 ? "none"
                         : std::to_string(spec.llc_kb) + " KB x" +
                               std::to_string(spec.llc_ways) + " (hit " +
                               FormatShort(spec.llc_hit_factor) + " fill)";
    const std::string remote =
        spec.SingleNode() ? "n/a" : FormatShort(spec.remote_multiplier) + "x";
    const std::string tiers = spec.IsFlat() ? "flat" : (spec.SingleNode() ? "0-2" : "0-3");
    table.AddRow({spec.name, grouping, llc, remote, tiers});
  }
  return table.Render() +
         "\nSelect with --topology=<name> (or topology=<name> in a sweep spec); append "
         ",key=value overrides: cores-per-cluster, clusters-per-node, llc-kb, llc-line, "
         "llc-ways, llc-factor, remote.\n";
}

Topology::Topology(const TopologySpec& spec, size_t num_processors) : spec_(spec) {
  const std::string problem = spec.Validate(num_processors);
  AFF_CHECK_MSG(problem.empty(), problem.c_str());
  cluster_of_.resize(num_processors);
  node_of_.resize(num_processors);
  for (size_t p = 0; p < num_processors; ++p) {
    const size_t cluster = spec_.cores_per_cluster == 0 ? 0 : p / spec_.cores_per_cluster;
    cluster_of_[p] = cluster;
    node_of_[p] = spec_.clusters_per_node == 0 ? 0 : cluster / spec_.clusters_per_node;
  }
  num_clusters_ = cluster_of_.back() + 1;
  num_nodes_ = node_of_.back() + 1;

  tier_.resize(num_processors * num_processors);
  for (size_t a = 0; a < num_processors; ++a) {
    for (size_t b = 0; b < num_processors; ++b) {
      size_t tier;
      if (a == b) {
        tier = 0;
      } else if (cluster_of_[a] == cluster_of_[b]) {
        tier = 1;
      } else if (node_of_[a] == node_of_[b]) {
        tier = 2;
      } else {
        tier = 3;
      }
      tier_[a * num_processors + b] = tier;
    }
  }
}

size_t Topology::ClusterOf(size_t proc) const {
  AFF_CHECK(proc < cluster_of_.size());
  return cluster_of_[proc];
}

size_t Topology::NodeOf(size_t proc) const {
  AFF_CHECK(proc < node_of_.size());
  return node_of_[proc];
}

size_t Topology::TierBetween(size_t a, size_t b) const {
  AFF_CHECK(a < cluster_of_.size() && b < cluster_of_.size());
  return tier_[a * cluster_of_.size() + b];
}

}  // namespace affsched
