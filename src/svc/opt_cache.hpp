// The optimization-result cache: OptimizeResults (opt/optimizer.hpp) cached
// beside the tree cache, keyed by (allocation fingerprint,
// communication-matrix digest, budget) — the full input of an OPTIMIZE
// request. A placement search costs many mapping walks plus O(n^3)
// refinement, so repeat requests for the same traffic on the same
// allocation (the common steady-state: one application profile, many
// launches) must be a lookup, not a search.
//
// Invalidation mirrors the tree cache: invalidate_alloc() drops every
// result computed over a fingerprint when an epoch bump retires the
// allocation. Results are immutable shared_ptrs — a hit can be served while
// another thread invalidates, and the reply keeps its snapshot alive.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "opt/optimizer.hpp"
#include "support/hash.hpp"
#include "support/lru.hpp"
#include "support/numa.hpp"

namespace lama::svc {

struct OptKey {
  std::uint64_t alloc_fp = 0;       // allocation fingerprint
  std::uint64_t matrix_digest = 0;  // CommMatrix::digest()
  std::uint64_t budget = 0;         // OptBudget::key()

  bool operator==(const OptKey& other) const {
    return alloc_fp == other.alloc_fp &&
           matrix_digest == other.matrix_digest && budget == other.budget;
  }
};

struct OptKeyHash {
  std::size_t operator()(const OptKey& key) const {
    std::uint64_t h = fnv1a64("opt-key");
    h = hash_combine(h, key.alloc_fp);
    h = hash_combine(h, key.matrix_digest);
    h = hash_combine(h, key.budget);
    return static_cast<std::size_t>(h);
  }
};

class OptCache {
 public:
  // `capacity_per_shard` of 0 disables caching (every lookup misses, every
  // insert is dropped) — the same convention as the tree cache.
  // `arena`/`numa` (optional) NUMA-place the shard control blocks exactly
  // like ShardedTreeCache; null degrades to plain operator new.
  OptCache(std::size_t num_shards, std::size_t capacity_per_shard,
           support::NumaAllocator* arena = nullptr,
           const support::NumaTopology* numa = nullptr);

  // The cached result, or null on a miss. Hit/miss accounting is the
  // caller's (the service owns the opt_* counters).
  [[nodiscard]] std::shared_ptr<const opt::OptimizeResult> get(
      const OptKey& key);

  void put(const OptKey& key,
           std::shared_ptr<const opt::OptimizeResult> result);

  // Drops every result computed over this fingerprint — invoked by the same
  // epoch-bump hook that invalidates the tree cache. Returns the number
  // removed.
  std::size_t invalidate_alloc(std::uint64_t alloc_fp);

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  // Cached results across all shards (racy under concurrency; for tests).
  [[nodiscard]] std::size_t size() const;

 private:
  using ResultPtr = std::shared_ptr<const opt::OptimizeResult>;

  struct Shard {
    explicit Shard(std::size_t capacity) : lru(capacity) {}
    std::mutex mu;
    LruMap<OptKey, ResultPtr, OptKeyHash> lru;
  };

  Shard& shard_for(const OptKey& key);

  std::vector<support::NumaUniquePtr<Shard>> shards_;
};

}  // namespace lama::svc
