// Allocation wire format for the mapping service (svc/): the paper's runtime
// ships each node's probed topology to the mapping agent, and the service
// generalizes that to shipping a whole allocation per client. One node per
// line:
//
//   <slots> <topology s-expression>
//
// e.g. "8 (node (socket@0 (core@0 (pu@0) (pu@1))))". The cluster index is
// not part of the wire form — a served allocation stands alone, and parsing
// assigns indices in line order.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "cluster/cluster.hpp"

namespace lama {

std::string serialize_allocation(const Allocation& alloc);

// Throws ParseError on malformed lines; blank lines and '#' comments are
// ignored.
Allocation parse_allocation(const std::string& text);

// Stable 64-bit identity of an allocation for cache keying: chains each
// node's topology_fingerprint with its slot count, in allocation order.
// Everything that changes mapping output — tree shape, disabled objects,
// slots, node order, node count — changes the fingerprint; node names and
// cluster indices (which only label output) do not.
std::uint64_t allocation_fingerprint(const Allocation& alloc);

// The same fingerprint from per-node content hashes kept by the caller:
// node_hashes[i] must be topology_content_hash(alloc.node(i).topo), so no
// topology is serialized here.
std::uint64_t allocation_fingerprint(const Allocation& alloc,
                                     std::span<const std::uint64_t> node_hashes);

}  // namespace lama
