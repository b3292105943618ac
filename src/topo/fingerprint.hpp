// Canonical topology hashing. The mapping service caches maximal/pruned
// trees across requests, so it needs a stable identity for "the same
// hardware": a 64-bit hash over the canonical serialized form
// (topo/serialize.hpp), which already captures the full tree shape, OS
// indices, and disabled markers while ignoring cosmetic state such as the
// node name. serialize → parse → fingerprint is a fixed point, so a topology
// that travelled over the wire hashes identically to the original.
#pragma once

#include <cstdint>

#include "topo/node_topology.hpp"

namespace lama {

// FNV-1a over the canonical serialized form, before the finalizer: the
// per-node term that both the allocation fingerprint and the durable state
// digest fold, so a caller can keep it per node and re-hash only the nodes
// it edits.
std::uint64_t topology_content_hash(const NodeTopology& topo);

// mix64(topology_content_hash(topo)).
std::uint64_t topology_fingerprint(const NodeTopology& topo);

}  // namespace lama
