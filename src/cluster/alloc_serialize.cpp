#include "cluster/alloc_serialize.hpp"

#include <vector>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "topo/fingerprint.hpp"
#include "topo/serialize.hpp"

namespace lama {

std::string serialize_allocation(const Allocation& alloc) {
  std::string out;
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    const AllocatedNode& n = alloc.node(i);
    out += std::to_string(n.slots);
    out += ' ';
    out += serialize_topology(n.topo);
    out += '\n';
  }
  return out;
}

Allocation parse_allocation(const std::string& text) {
  Allocation alloc;
  std::size_t index = 0;
  for (const std::string& raw : split(text, '\n')) {
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) {
      throw ParseError("allocation line needs '<slots> <topology>': " + line);
    }
    const std::size_t slots =
        parse_size(line.substr(0, space), "allocation slots");
    NodeTopology topo = parse_topology(line.substr(space + 1),
                                       "node" + std::to_string(index));
    alloc.add(AllocatedNode{index, std::move(topo), slots});
    ++index;
  }
  return alloc;
}

std::uint64_t allocation_fingerprint(const Allocation& alloc) {
  std::vector<std::uint64_t> node_hashes(alloc.num_nodes());
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    node_hashes[i] = topology_content_hash(alloc.node(i).topo);
  }
  return allocation_fingerprint(alloc, node_hashes);
}

std::uint64_t allocation_fingerprint(
    const Allocation& alloc, std::span<const std::uint64_t> node_hashes) {
  LAMA_ASSERT(node_hashes.size() == alloc.num_nodes());
  std::uint64_t h = mix64(alloc.num_nodes() + 1);
  for (std::size_t i = 0; i < alloc.num_nodes(); ++i) {
    h = hash_combine(h, mix64(node_hashes[i]));
    h = hash_combine(h, alloc.node(i).slots);
  }
  return h;
}

}  // namespace lama
