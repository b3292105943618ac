#include "cluster/cluster.hpp"

#include <map>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace lama {

Cluster Cluster::homogeneous(std::size_t num_nodes,
                             const std::string& synthetic_desc,
                             const std::string& prefix) {
  Cluster cluster;
  for (std::size_t i = 0; i < num_nodes; ++i) {
    cluster.add_node(
        NodeTopology::synthetic(synthetic_desc, prefix + std::to_string(i)));
  }
  return cluster;
}

void Cluster::add_node(NodeTopology topo, std::size_t slots) {
  nodes_.push_back(ClusterNode{std::move(topo), slots});
}

const ClusterNode& Cluster::node(std::size_t i) const {
  LAMA_ASSERT(i < nodes_.size());
  return nodes_[i];
}

ClusterNode& Cluster::mutable_node(std::size_t i) {
  LAMA_ASSERT(i < nodes_.size());
  return nodes_[i];
}

std::size_t Cluster::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].topo.name() == name) return i;
  }
  throw MappingError("unknown node name: '" + name + "'");
}

std::size_t Cluster::total_pus() const {
  std::size_t total = 0;
  for (const ClusterNode& n : nodes_) total += n.topo.pu_count();
  return total;
}

bool Cluster::is_homogeneous() const {
  if (nodes_.size() <= 1) return true;
  const NodeTopology& ref = nodes_.front().topo;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const NodeTopology& topo = nodes_[i].topo;
    if (topo.levels() != ref.levels()) return false;
    for (ResourceType t : ref.levels()) {
      if (topo.count(t) != ref.count(t)) return false;
    }
  }
  return true;
}

const AllocatedNode& Allocation::node(std::size_t i) const {
  LAMA_ASSERT(i < nodes_.size());
  return nodes_[i];
}

AllocatedNode& Allocation::mutable_node(std::size_t i) {
  LAMA_ASSERT(i < nodes_.size());
  return nodes_[i];
}

std::size_t Allocation::total_online_pus() const {
  std::size_t total = 0;
  for (const AllocatedNode& n : nodes_) total += n.topo.online_pus().count();
  return total;
}

bool Allocation::has_online_pu() const {
  for (const AllocatedNode& n : nodes_) {
    if (n.topo.has_online_pu()) return true;
  }
  return false;
}

std::size_t Allocation::total_slots() const {
  std::size_t total = 0;
  for (const AllocatedNode& n : nodes_) total += n.slots;
  return total;
}

void Allocation::validate() const {
  if (nodes_.empty()) {
    throw MappingError("allocation contains no nodes");
  }
  if (!has_online_pu()) {
    throw MappingError("allocation contains no online processing units");
  }
}

Allocation allocate_all(const Cluster& cluster) {
  std::vector<std::size_t> all(cluster.num_nodes());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return allocate_nodes(cluster, all);
}

Allocation allocate_nodes(const Cluster& cluster,
                          const std::vector<std::size_t>& node_indices) {
  Allocation alloc;
  for (std::size_t idx : node_indices) {
    const ClusterNode& n = cluster.node(idx);
    alloc.add(AllocatedNode{idx, n.topo, n.effective_slots()});
  }
  return alloc;
}

Allocation allocate_cores(
    const Cluster& cluster,
    const std::vector<std::pair<std::size_t, Bitmap>>& grants) {
  Allocation alloc;
  for (const auto& [idx, allowed] : grants) {
    const ClusterNode& n = cluster.node(idx);
    NodeTopology topo = n.topo;
    topo.restrict_pus(allowed);
    const std::size_t granted = topo.online_pus().count();
    if (granted == 0) {
      throw MappingError("core-granular grant for '" + n.topo.name() +
                         "' contains no usable PUs");
    }
    alloc.add(AllocatedNode{idx, std::move(topo), granted});
  }
  return alloc;
}

Cluster parse_cluster_file(const std::string& text) {
  Cluster cluster;
  std::map<std::string, bool> seen;
  for (const std::string& raw_line : split(text, '\n')) {
    std::string line = raw_line;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::vector<std::string> fields = split_ws(line);
    if (fields.empty()) continue;
    if (fields.size() < 2) {
      throw ParseError("cluster-file line needs a name and a topology: '" +
                       trim(line) + "'");
    }
    const std::string name = fields[0];
    if (seen[name]) {
      throw ParseError("cluster-file repeats node name '" + name + "'");
    }
    seen[name] = true;

    std::size_t slots = 0;
    std::string desc;
    for (std::size_t i = 1; i < fields.size(); ++i) {
      if (starts_with(fields[i], "slots=")) {
        slots = parse_size(fields[i].substr(6), "cluster-file slots");
      } else {
        if (!desc.empty()) desc += ' ';
        desc += fields[i];
      }
    }
    cluster.add_node(NodeTopology::synthetic(desc, name), slots);
  }
  if (cluster.num_nodes() == 0) {
    throw ParseError("cluster file lists no nodes");
  }
  return cluster;
}

Allocation parse_hostfile(const Cluster& cluster, const std::string& text) {
  // Accumulate slots per node, preserving first-appearance order.
  std::vector<std::string> order;
  std::map<std::string, std::size_t> slots;
  for (const std::string& raw_line : split(text, '\n')) {
    std::string line = raw_line;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> fields = split_ws(line);
    if (fields.empty()) continue;
    const std::string& name = fields[0];
    std::size_t line_slots = 0;
    bool slots_given = false;
    for (std::size_t i = 1; i < fields.size(); ++i) {
      if (starts_with(fields[i], "slots=")) {
        line_slots = parse_size(fields[i].substr(6), "hostfile slots");
        slots_given = true;
      } else {
        throw ParseError("unrecognized hostfile field: '" + fields[i] + "'");
      }
    }
    const std::size_t cluster_index = cluster.index_of(name);
    if (!slots_given) {
      line_slots = cluster.node(cluster_index).topo.pu_count();
    }
    if (slots.find(name) == slots.end()) order.push_back(name);
    slots[name] += line_slots;
  }
  if (order.empty()) {
    throw ParseError("hostfile lists no nodes");
  }

  Allocation alloc;
  for (const std::string& name : order) {
    const std::size_t idx = cluster.index_of(name);
    alloc.add(AllocatedNode{idx, cluster.node(idx).topo, slots[name]});
  }
  return alloc;
}

}  // namespace lama
