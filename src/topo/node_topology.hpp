// The hardware topology of one server node, playing the role hwloc plays in
// the paper's implementation: a tree of resources from the node root down to
// the smallest processing unit (PU), with per-object availability bits that
// model scheduler/OS restrictions (off-lined sockets, cores, threads).
//
// Leaves are the node's smallest processing units — hardware threads when the
// tree models them, otherwise cores (matching the paper: "the LAMA will map
// the process to the smallest processing unit available"). PU indices are
// node-local and index the leaves left-to-right.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "support/bitmap.hpp"
#include "topo/object.hpp"
#include "topo/resource_type.hpp"

namespace lama {

class NodeTopology {
 public:
  // Builds a uniform tree from a synthetic description: whitespace-separated
  // `level:count` tokens in canonical containment order, e.g.
  //   "board:1 socket:2 numa:1 l2:4 core:4 pu:2"
  // Levels may be omitted (the tree simply lacks them); at least one of
  // core/pu must be present. Throws ParseError on malformed descriptions.
  static NodeTopology synthetic(const std::string& description,
                                std::string name = "node");

  NodeTopology(NodeTopology&&) noexcept = default;
  NodeTopology& operator=(NodeTopology&&) noexcept = default;
  NodeTopology(const NodeTopology& other) { *this = other; }
  NodeTopology& operator=(const NodeTopology& other);

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const TopoObject& root() const { return *root_; }

  // Resource levels present in this tree, outermost first (always starts
  // with kNode and ends with the leaf type).
  [[nodiscard]] const std::vector<ResourceType>& levels() const {
    return levels_;
  }
  [[nodiscard]] bool has_level(ResourceType t) const;

  // The smallest processing unit type (kHwThread or kCore).
  [[nodiscard]] ResourceType leaf_type() const { return levels_.back(); }

  // All objects of a type in logical (level-index) order; empty when the
  // level is absent.
  [[nodiscard]] std::vector<const TopoObject*> objects_at(
      ResourceType t) const;
  [[nodiscard]] std::size_t count(ResourceType t) const;

  // Total PUs (leaves), ignoring restrictions.
  [[nodiscard]] std::size_t pu_count() const;

  // PUs that are currently usable: neither they nor any ancestor disabled.
  [[nodiscard]] Bitmap online_pus() const;
  // !online_pus().empty(), without building the set: stops at the first
  // usable PU.
  [[nodiscard]] bool has_online_pu() const;

  // Leaf object for a PU index.
  [[nodiscard]] const TopoObject& pu(std::size_t index) const;

  // Nearest ancestor of a PU at the given type, or nullptr when the level is
  // absent from this tree.
  [[nodiscard]] const TopoObject* ancestor_of_pu(std::size_t pu_index,
                                                 ResourceType t) const;

  // --- restrictions (scheduler / OS) ---
  // Disable (or re-enable) the level_index-th object of a type.
  void set_object_disabled(ResourceType t, std::size_t level_index,
                           bool disabled);
  // Disable every PU outside `allowed` (allocation masks).
  void restrict_pus(const Bitmap& allowed);
  // Re-enable everything.
  void clear_restrictions();

  // One-line shape summary, e.g. "node(2 sockets x 4 cores x 2 pus)".
  [[nodiscard]] std::string shape_string() const;

  // Multi-line ASCII rendering of the tree (for examples / debugging).
  [[nodiscard]] std::string render() const;

  // --- incremental construction of irregular trees ---
  class Builder {
   public:
    explicit Builder(std::string name = "node");
    // Opens a child of the current object; must respect canonical containment
    // order (each begin goes strictly deeper than its parent).
    Builder& begin(ResourceType t, int os_index = -1);
    Builder& end();
    // Shorthand: begin+end a leaf.
    Builder& leaf(ResourceType t, int os_index = -1);
    // Marks the currently open object disabled (scheduler/OS restriction).
    Builder& disable();
    [[nodiscard]] NodeTopology build();

   private:
    std::unique_ptr<TopoObject> root_;
    std::vector<TopoObject*> stack_;
    std::string name_;
  };

 private:
  NodeTopology() = default;
  // Recomputes cpusets, indices, and the level list; called after building.
  void finalize();

  std::string name_;
  std::unique_ptr<TopoObject> root_;
  std::vector<ResourceType> levels_;
  std::vector<TopoObject*> leaves_;  // PU index -> leaf
};

}  // namespace lama
