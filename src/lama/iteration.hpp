// Per-level iteration policies. The paper (§IV-A): "By default, each
// resource level is iterated sequentially starting at the lowest logical
// resource number ... Other iteration patterns, such as custom versions
// provided by the end user, can also be supported by the LAMA." (Cray ALPS
// exposes the same knob — §II.) A policy rewrites the visit order of one
// level's loop without touching the algorithm's core logic.
#pragma once

#include <cstddef>
#include <vector>

#include "topo/resource_type.hpp"

namespace lama {

enum class IterationOrder {
  kSequential,  // 0, 1, 2, ... (the paper's default)
  kReverse,     // w-1, w-2, ..., 0
  kStrided,     // 0, s, 2s, ..., 1, 1+s, ... (interleaves by stride s)
  kCustom,      // explicit visit order supplied by the user
};

struct LevelIteration {
  IterationOrder order = IterationOrder::kSequential;
  // For kStrided; must be >= 1. A stride of 2 on an 8-wide level visits
  // 0,2,4,6,1,3,5,7.
  std::size_t stride = 1;
  // For kCustom: the visit order. Entries >= the level's width are skipped;
  // entries must be unique. Indices the permutation omits are not visited.
  std::vector<std::size_t> custom;
};

class IterationPolicy {
 public:
  // Every level sequential — the paper's default behaviour.
  IterationPolicy() = default;

  IterationPolicy& set(ResourceType level, LevelIteration iteration);
  [[nodiscard]] const LevelIteration& get(ResourceType level) const;

  // Expands the policy for one level into an explicit visit order over
  // [0, width). Throws MappingError on invalid strides or custom orders
  // (duplicates).
  [[nodiscard]] std::vector<std::size_t> visit_order(ResourceType level,
                                                     std::size_t width) const;

  // True when every level still iterates sequentially — the paper's default.
  // The service's cache keys compiled plans by (allocation, layout) only, so
  // it serves them solely to default-policy requests; this is the guard.
  [[nodiscard]] bool is_default() const {
    for (const LevelIteration& level : levels_) {
      if (level.order != IterationOrder::kSequential) return false;
    }
    return true;
  }

 private:
  LevelIteration levels_[kNumResourceTypes];
};

}  // namespace lama
