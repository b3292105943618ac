// The sharded, thread-safe LRU cache of the mapping service. The expensive
// per-query work of the LAMA — pruning every node's topology against the
// layout and assembling the maximal iteration space (§IV-B), then flattening
// the Figure 1 walk over that space into a MapPlan (lama/map_plan.hpp) —
// depends only on (allocation, layout), not on np or mapping options, so
// repeated queries against the same cluster skip straight to the compiled
// walk. Keys combine the canonical allocation fingerprint with the canonical
// layout string. One entry per key holds a private copy of the allocation
// (the pruned trees hold pointers into its topology objects), the tree built
// over it, and the default-policy plan compiled from the tree (the plan
// borrows the tree's PU bitmaps). The entry is shared immutably via
// shared_ptr, so an evicted entry stays alive exactly as long as requests
// still map from it, and no longer.
//
// Concurrency: keys hash-partition across independent shards, each a mutex +
// LruMap + in-flight table. A miss publishes a shared_future before building
// so duplicate concurrent misses coalesce onto the one build (tree and plan
// compile together) instead of duplicating it; build failures propagate to
// every coalesced waiter and are not cached.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/layout.hpp"
#include "lama/map_plan.hpp"
#include "lama/maximal_tree.hpp"
#include "support/lru.hpp"
#include "support/numa.hpp"
#include "svc/counters.hpp"

namespace lama::svc {

struct TreeKey {
  std::uint64_t alloc_fp = 0;  // allocation_fingerprint()
  std::string layout;          // canonical ProcessLayout::to_string() form

  bool operator==(const TreeKey&) const = default;
};

struct TreeKeyHash {
  std::size_t operator()(const TreeKey& key) const;
};

// An immutable (allocation, layout, maximal tree, plan) entry. The
// allocation is a deep copy made at build time: the tree's pruned objects
// point into these topologies, and the plan points into the tree, so tying
// their lifetimes together is what makes the cached value safe to share
// after the requesting client's allocation is gone.
//
// Every entry carries an integrity seal derived from its own content (the
// fingerprint of its allocation copy and its layout) and, memoized beside
// it, the seal its build key demands. verify() compares the two without
// allocating, so an entry whose content does not match its key (or whose
// seal was corrupted) is detected on the hit path and the service degrades
// to a fresh uncached build instead of mapping onto the wrong hardware.
class CachedTree {
 public:
  // Builds the tree over a private copy of `alloc`; no plan yet (the cache
  // compiles one before it shares the entry).
  CachedTree(const Allocation& alloc, ProcessLayout layout,
             const TreeKey& key);

  CachedTree(const CachedTree&) = delete;
  CachedTree& operator=(const CachedTree&) = delete;

  [[nodiscard]] const Allocation& alloc() const { return alloc_; }
  [[nodiscard]] const ProcessLayout& layout() const { return layout_; }
  [[nodiscard]] const MaximalTree& tree() const { return tree_; }
  // The plan compiled from tree() under the default iteration policy, or
  // null when the cache refused to compile one (see ShardedTreeCache).
  [[nodiscard]] const MapPlan* plan() const {
    return plan_.has_value() ? &*plan_ : nullptr;
  }

  // True when the seal still matches the one the build key demands.
  [[nodiscard]] bool verify() const {
    return seal_.load(std::memory_order_relaxed) == expected_seal_;
  }

  // Fault injection: scrambles the seal so the next verify() fails. Atomic,
  // so injectors may fire while requests are mapping from this entry.
  void corrupt_for_testing() const;

 private:
  friend class ShardedTreeCache;  // compiles plan_ before sharing the entry

  Allocation alloc_;
  ProcessLayout layout_;
  MaximalTree tree_;  // built over alloc_; must be declared after it
  std::optional<MapPlan> plan_;  // borrows tree_'s bitmaps; declared after it
  std::uint64_t expected_seal_;
  mutable std::atomic<std::uint64_t> seal_;
};

class ShardedTreeCache {
 public:
  // `capacity_per_shard` of 0 disables caching: every lookup builds a tree
  // and compiles no plan (it could never be reused). `plan_space_limit` > 0
  // refuses to compile plans whose iteration space exceeds it — the entry
  // then carries no plan and requests keep the reference walk; 0 means
  // unbounded. `arena`/`numa` (both optional, must outlive the cache when
  // set) place each shard's control block on a NUMA node round-robin, so on
  // a multi-socket host the mutex + LRU a shard thread hammers live on its
  // own memory; null degrades to plain operator new.
  ShardedTreeCache(std::size_t num_shards, std::size_t capacity_per_shard,
                   std::uint64_t plan_space_limit, Counters& counters,
                   support::NumaAllocator* arena = nullptr,
                   const support::NumaTopology* numa = nullptr);

  struct Lookup {
    std::shared_ptr<const CachedTree> tree;
    bool hit = false;        // served from the LRU
    bool coalesced = false;  // waited on another request's build
  };

  // Returns the entry for `key`, building it from (alloc, layout) on a miss
  // (tree timed into build_ns; plan counted in plan_misses and timed into
  // plan_compile_ns under a plan_compile span). Exactly one of
  // hit/coalesced/neither (a miss that built) holds, and the matching
  // counter is incremented. Build exceptions propagate to the caller and to
  // every coalesced waiter.
  Lookup get_or_build(const TreeKey& key, const Allocation& alloc,
                      const ProcessLayout& layout);

  // Drops one entry (e.g. one that failed integrity re-validation).
  // Returns true when it was present.
  bool erase(const TreeKey& key);

  // Drops every entry built over the allocation with this fingerprint — the
  // epoch-bump invalidation hook of OFFLINE/ONLINE. Returns the number of
  // entries removed (counted in `invalidations`). In-flight builds are left
  // to finish; their results enter the cache under the (now stale)
  // fingerprint and simply never match a future request's key.
  std::size_t invalidate_alloc(std::uint64_t alloc_fp);

  // Fault injection: corrupts the integrity seal of every cached entry under
  // `alloc_fp` (all entries when 0). Returns how many were corrupted.
  std::size_t corrupt_for_testing(std::uint64_t alloc_fp = 0);

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  // Cached entries across all shards (racy under concurrency; for tests
  // and gauges).
  [[nodiscard]] std::size_t size() const;
  // Cached entries that carry a compiled plan.
  [[nodiscard]] std::size_t plans() const;

 private:
  using TreePtr = std::shared_ptr<const CachedTree>;

  struct Shard {
    explicit Shard(std::size_t capacity) : lru(capacity) {}
    std::mutex mu;
    LruMap<TreeKey, TreePtr, TreeKeyHash> lru;
    std::unordered_map<TreeKey, std::shared_future<TreePtr>, TreeKeyHash>
        inflight;
  };

  Shard& shard_for(const TreeKey& key);
  TreePtr build(const TreeKey& key, const Allocation& alloc,
                const ProcessLayout& layout);

  std::vector<support::NumaUniquePtr<Shard>> shards_;
  bool compile_plans_;
  std::uint64_t plan_space_limit_;
  Counters& counters_;
};

}  // namespace lama::svc
