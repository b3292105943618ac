#include "topo/fingerprint.hpp"

#include "support/hash.hpp"
#include "topo/serialize.hpp"

namespace lama {

std::uint64_t topology_content_hash(const NodeTopology& topo) {
  return fnv1a64(serialize_topology(topo));
}

std::uint64_t topology_fingerprint(const NodeTopology& topo) {
  return mix64(topology_content_hash(topo));
}

}  // namespace lama
