// A multi-node HPC system and the slice of it handed to one job. Plays the
// role of the resource manager (SLURM/ALPS in the paper): it knows every
// node's hardware topology and produces allocations at node, slot, or core
// granularity.
#pragma once

#include <string>
#include <vector>

#include "support/bitmap.hpp"
#include "topo/node_topology.hpp"

namespace lama {

struct ClusterNode {
  NodeTopology topo;
  // Scheduler slot count: how many processes the resource manager allows on
  // this node (0 = default to the number of PUs).
  std::size_t slots = 0;

  [[nodiscard]] std::size_t effective_slots() const {
    return slots == 0 ? topo.pu_count() : slots;
  }
};

class Cluster {
 public:
  // Homogeneous system: `num_nodes` copies of one synthetic description.
  // Node names are "<prefix><i>".
  static Cluster homogeneous(std::size_t num_nodes,
                             const std::string& synthetic_desc,
                             const std::string& prefix = "node");

  void add_node(NodeTopology topo, std::size_t slots = 0);

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] const ClusterNode& node(std::size_t i) const;
  [[nodiscard]] ClusterNode& mutable_node(std::size_t i);
  // Index by node name; throws MappingError when unknown.
  [[nodiscard]] std::size_t index_of(const std::string& name) const;

  [[nodiscard]] std::size_t total_pus() const;

  // True when every node reports an identical level structure and per-level
  // counts (the paper's homogeneous-hardware case).
  [[nodiscard]] bool is_homogeneous() const;

 private:
  std::vector<ClusterNode> nodes_;
};

// The resources granted to one job: an ordered list of nodes, each with a
// (possibly restricted) copy of its topology and a slot count. The mapping
// agent works exclusively from an Allocation, exactly as the paper's mapping
// agent works from the topologies of the allocated nodes.
struct AllocatedNode {
  std::size_t cluster_index;  // position in the owning Cluster
  NodeTopology topo;          // restrictions already applied
  std::size_t slots;
};

class Allocation {
 public:
  void add(AllocatedNode node) { nodes_.push_back(std::move(node)); }

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] const AllocatedNode& node(std::size_t i) const;
  [[nodiscard]] AllocatedNode& mutable_node(std::size_t i);

  // Sum of online PUs across allocated nodes.
  [[nodiscard]] std::size_t total_online_pus() const;
  // total_online_pus() > 0, stopping at the first node with a usable PU.
  [[nodiscard]] bool has_online_pu() const;
  // Sum of slots.
  [[nodiscard]] std::size_t total_slots() const;

  // Throws MappingError when the allocation cannot run anything (no nodes or
  // every PU off-lined).
  void validate() const;

 private:
  std::vector<AllocatedNode> nodes_;
};

// Whole-cluster allocation (every node, unrestricted).
Allocation allocate_all(const Cluster& cluster);

// Allocation of an explicit node subset.
Allocation allocate_nodes(const Cluster& cluster,
                          const std::vector<std::size_t>& node_indices);

// Core-granular allocation: per node, only the PUs in `allowed` are online.
// Pairs of (node index, allowed cpuset).
Allocation allocate_cores(
    const Cluster& cluster,
    const std::vector<std::pair<std::size_t, Bitmap>>& grants);

// Parse a cluster description file: one node per line,
//   <name> <synthetic description...> [slots=N]
//   # comments and blank lines are ignored
// e.g. "node0 socket:2 core:4 pu:2 slots=8". Throws ParseError on malformed
// lines or duplicate names.
Cluster parse_cluster_file(const std::string& text);

// Parse a hostfile:
//   node0 slots=4
//   node1            # defaults to all PUs
//   node0 slots=2    # repeated names accumulate slots
// Lines starting with '#' and blank lines are ignored. Unknown node names
// throw MappingError; malformed lines throw ParseError.
Allocation parse_hostfile(const Cluster& cluster, const std::string& text);

}  // namespace lama
