// The benchmark's own description of node hardware: regular trees given as
// a fan-out per level of the canonical containment chain, plus the leaves
// and nodes that are off-line. Everything the benchmark sends to the server
// (NODE topology s-expressions, layouts) and everything the oracle checks
// answers against is derived from these descriptions, not from the
// program's own topology types.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace pb {

// Canonical containment depth, outermost first (the paper's Table I).
enum Level : int {
  kNode = 0, kBoard, kSocket, kNuma, kL3, kL2, kL1, kCore, kPu, kLevels
};

// Layout letters by level: n b s N L3 L2 L1 c h.
const char* level_letter(int level);

// A regular node shape: count[l] children per level-(l-1) object, 0 when the
// hardware lacks the level. count[kNode] is unused. The deepest non-zero
// level holds the processing units (core when SMT is off).
struct Shape {
  const char* name;
  std::array<int, kLevels> count;

  [[nodiscard]] int leaves() const;
  [[nodiscard]] int leaf_level() const;
  // Leaves under one object of `level` (the level must exist).
  [[nodiscard]] int stride(int level) const;
};

// Fat: board, two sockets, NUMA, L3, four L2 per L3, SMT-2 cores (32 PUs).
extern const Shape kFat;
// Flat: sockets of eight SMT-2 cores with no NUMA, L3, L2 or L1 (32 PUs).
extern const Shape kFlat;
// Thin: one socket, eight L2/L1/core chains, SMT off — cores are the PUs.
extern const Shape kThin;

struct NodeDesc {
  const Shape* shape = nullptr;
  std::vector<bool> leaf_offline;  // per leaf, logical (depth-first) order
  bool offline = false;            // the whole node

  [[nodiscard]] bool online(int leaf) const {
    return !offline && !leaf_offline[static_cast<std::size_t>(leaf)];
  }
};

using Cluster = std::vector<NodeDesc>;

// A cluster of `fat + flat + thin` nodes, the shapes spread evenly. Each
// thin node has `thin_offline` seeded cores off-line (the scheduler's
// restrictions).
Cluster make_cluster(std::mt19937_64& rng, int fat, int flat, int thin,
                     int thin_offline);

// The topology s-expression of one node (docs/topology-format.md §2).
std::string sexpr(const NodeDesc& node);

// "NODE <id> <slots> <s-expr>" for every node of the cluster.
std::vector<std::string> node_lines(const Cluster& cluster,
                                    const std::string& id);

// A layout as levels, innermost first, and its letter string.
using Layout = std::vector<int>;
std::string layout_string(const Layout& layout);

}  // namespace pb
