// The service's one cache: each (allocation, layout) entry holds the
// allocation copy, the maximal tree, and the default-policy plan, built
// together. Unit tests of the sharded LRU (hits, misses, eviction,
// coalescing, build failures), of the plan each entry carries (compile
// accounting, space-limit refusal, seal re-validation, targeted
// invalidation), and of the service's compiled path on top of it (warm
// hits, custom-policy bypass, counters in every exposition). Byte-identity
// of what the compiled path serves is pinned down by the kernel suite.
#include "svc/tree_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/alloc_serialize.hpp"
#include "common/fixtures.hpp"
#include "lama/mapper.hpp"
#include "support/error.hpp"
#include "svc/service.hpp"

namespace lama::svc {
namespace {

constexpr std::uint64_t kNoSpaceLimit = 0;

Allocation make_alloc(std::size_t nodes, const std::string& desc) {
  return allocate_all(Cluster::homogeneous(nodes, desc));
}

TreeKey key_for(const Allocation& alloc, const std::string& layout) {
  return TreeKey{allocation_fingerprint(alloc),
                 ProcessLayout::parse(layout).to_string()};
}

TEST(TreeCache, MissBuildsThenHits) {
  Counters counters;
  ShardedTreeCache cache(4, 8, kNoSpaceLimit, counters);
  const Allocation alloc = make_alloc(2, "socket:2 core:4 pu:2");
  const ProcessLayout layout = ProcessLayout::parse("scbnh");

  const auto first = cache.get_or_build(key_for(alloc, "scbnh"), alloc, layout);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.coalesced);
  const auto second =
      cache.get_or_build(key_for(alloc, "scbnh"), alloc, layout);
  EXPECT_TRUE(second.hit);
  // Hits return the very same tree object.
  EXPECT_EQ(first.tree.get(), second.tree.get());
  EXPECT_EQ(counters.cache_hits.load(), 1u);
  EXPECT_EQ(counters.cache_misses.load(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TreeCache, DistinctLayoutsAndAllocsGetDistinctTrees) {
  Counters counters;
  ShardedTreeCache cache(4, 8, kNoSpaceLimit, counters);
  const Allocation a = make_alloc(2, "socket:2 core:4 pu:2");
  const Allocation b = make_alloc(3, "socket:2 core:4 pu:2");

  const auto a_scbnh = cache.get_or_build(
      key_for(a, "scbnh"), a, ProcessLayout::parse("scbnh"));
  const auto a_hcsbn = cache.get_or_build(
      key_for(a, "hcsbn"), a, ProcessLayout::parse("hcsbn"));
  const auto b_scbnh = cache.get_or_build(
      key_for(b, "scbnh"), b, ProcessLayout::parse("scbnh"));
  EXPECT_NE(a_scbnh.tree.get(), a_hcsbn.tree.get());
  EXPECT_NE(a_scbnh.tree.get(), b_scbnh.tree.get());
  EXPECT_EQ(cache.size(), 3u);
  // The cached tree describes the allocation it was built from.
  EXPECT_EQ(a_scbnh.tree->tree().num_nodes(), 2u);
  EXPECT_EQ(b_scbnh.tree->tree().num_nodes(), 3u);
}

TEST(TreeCache, CachedTreeOwnsItsAllocation) {
  Counters counters;
  ShardedTreeCache cache(1, 4, kNoSpaceLimit, counters);
  std::shared_ptr<const CachedTree> tree;
  {
    const Allocation temporary = make_alloc(2, "socket:2 core:2 pu:2");
    tree = cache
               .get_or_build(key_for(temporary, "scn"), temporary,
                             ProcessLayout::parse("scn"))
               .tree;
  }
  // The client allocation is gone; the cached copy must still be walkable.
  EXPECT_EQ(tree->alloc().num_nodes(), 2u);
  EXPECT_GT(tree->tree().iteration_space(), 0u);
}

TEST(TreeCache, EvictionAtCapacityCountsAndRebuilds) {
  Counters counters;
  // One shard, two entries.
  ShardedTreeCache cache(1, 2, kNoSpaceLimit, counters);
  const Allocation alloc = make_alloc(2, "socket:2 core:4 pu:2");
  for (const char* layout : {"scbnh", "hcsbn", "nbsch"}) {
    cache.get_or_build(key_for(alloc, layout), alloc,
                       ProcessLayout::parse(layout));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counters.evictions.load(), 1u);
  // The evicted key ("scbnh", least recently used) misses again.
  const auto again = cache.get_or_build(key_for(alloc, "scbnh"), alloc,
                                        ProcessLayout::parse("scbnh"));
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(counters.cache_misses.load(), 4u);
}

TEST(TreeCache, EvictionReleasesTheWholeEntry) {
  Counters counters;
  ShardedTreeCache cache(1, 1, kNoSpaceLimit, counters);  // one entry
  const Allocation alloc = make_alloc(2, "socket:2 core:4 pu:2");
  std::weak_ptr<const CachedTree> first;
  {
    const auto lookup = cache.get_or_build(key_for(alloc, "scbnh"), alloc,
                                           ProcessLayout::parse("scbnh"));
    ASSERT_NE(lookup.tree->plan(), nullptr);
    first = lookup.tree;
  }
  EXPECT_FALSE(first.expired());  // the LRU slot holds it

  // Evicting the slot releases tree, plan, and allocation copy together:
  // nothing but a request still mapping from the entry may keep it alive.
  cache.get_or_build(key_for(alloc, "hcsbn"), alloc,
                     ProcessLayout::parse("hcsbn"));
  EXPECT_EQ(counters.evictions.load(), 1u);
  EXPECT_TRUE(first.expired());
}

TEST(TreeCache, ZeroCapacityAlwaysBuilds) {
  Counters counters;
  ShardedTreeCache cache(2, 0, kNoSpaceLimit, counters);
  const Allocation alloc = make_alloc(1, "core:4 pu:2");
  for (int i = 0; i < 3; ++i) {
    const auto lookup = cache.get_or_build(key_for(alloc, "cn"), alloc,
                                           ProcessLayout::parse("cn"));
    EXPECT_FALSE(lookup.hit);
  }
  EXPECT_EQ(counters.cache_hits.load(), 0u);
  EXPECT_EQ(counters.cache_misses.load(), 3u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TreeCache, ConcurrentSameKeyCoalescesOntoOneBuild) {
  Counters counters;
  ShardedTreeCache cache(4, 8, kNoSpaceLimit, counters);
  // A build slow enough for the other threads to arrive while in flight.
  const Allocation alloc =
      make_alloc(48, "socket:2 numa:2 l3:1 l2:2 l1:1 core:4 pu:2");
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const TreeKey key = key_for(alloc, "scbnh");

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<const CachedTree*> seen(kThreads, nullptr);
  std::atomic<int> ready{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // line everyone up at the gate
      seen[t] = cache.get_or_build(key, alloc, layout).tree.get();
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  // Every request resolved exactly one way, and at most... exactly one build
  // can be in flight per key at a time, but a fast build may finish before a
  // slow starter even probes, giving extra misses-that-hit. What must hold:
  // the three outcomes partition the requests.
  EXPECT_EQ(counters.cache_hits.load() + counters.cache_misses.load() +
                counters.coalesced.load(),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(counters.cache_misses.load(), 1u);
}

TEST(TreeCache, BuildFailurePropagatesAndIsNotCached) {
  Counters counters;
  ShardedTreeCache cache(2, 4, kNoSpaceLimit, counters);
  Allocation empty;  // fails Allocation::validate at build time
  const ProcessLayout layout = ProcessLayout::parse("scn");
  const TreeKey key{12345, "scn"};
  EXPECT_THROW(cache.get_or_build(key, empty, layout), MappingError);
  EXPECT_EQ(cache.size(), 0u);
  // The key is retryable: a good allocation under the same key builds.
  const Allocation good = make_alloc(1, "socket:1 core:2 pu:2");
  const auto lookup = cache.get_or_build(key, good, layout);
  EXPECT_FALSE(lookup.hit);
  EXPECT_EQ(cache.size(), 1u);
}

// ---- The plan each entry carries -------------------------------------

struct PlanCacheFixtures {
  Allocation alloc = test::figure2_allocation();
  ProcessLayout layout = ProcessLayout::parse("scbnh");
  TreeKey key{allocation_fingerprint(alloc), layout.to_string()};
};

TEST(PlanCache, MissCompilesThenHitsServeTheSamePlan) {
  PlanCacheFixtures f;
  Counters counters;
  ShardedTreeCache cache(4, 8, kNoSpaceLimit, counters);

  const ShardedTreeCache::Lookup miss =
      cache.get_or_build(f.key, f.alloc, f.layout);
  ASSERT_NE(miss.tree->plan(), nullptr);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(counters.plan_misses.load(), 1u);
  EXPECT_EQ(cache.plans(), 1u);
  EXPECT_GE(counters.plan_compile_ns.count(), 1u);

  const ShardedTreeCache::Lookup hit =
      cache.get_or_build(f.key, f.alloc, f.layout);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.tree->plan(), miss.tree->plan());
  EXPECT_EQ(counters.plan_misses.load(), 1u);  // a hit compiles nothing
  EXPECT_TRUE(hit.tree->plan()->default_policy);
}

TEST(PlanCache, SpaceLimitRefusesWithoutCountingAMiss) {
  PlanCacheFixtures f;
  Counters counters;
  // Every plan is over a one-coordinate limit.
  ShardedTreeCache cache(1, 8, /*plan_space_limit=*/1, counters);
  const ShardedTreeCache::Lookup refused =
      cache.get_or_build(f.key, f.alloc, f.layout);
  EXPECT_EQ(refused.tree->plan(), nullptr);
  EXPECT_EQ(counters.plan_misses.load(), 0u);
  EXPECT_EQ(counters.plan_compile_ns.count(), 0u);
  // The tree itself is still cached for the reference walk.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.plans(), 0u);
}

TEST(PlanCache, ZeroCapacityDisablesCompilation) {
  PlanCacheFixtures f;
  Counters counters;
  ShardedTreeCache cache(2, 0, kNoSpaceLimit, counters);
  EXPECT_EQ(cache.get_or_build(f.key, f.alloc, f.layout).tree->plan(),
            nullptr);
  EXPECT_EQ(counters.plan_misses.load(), 0u);
}

TEST(PlanCache, SealMismatchDropsTheEntryAndRecompiles) {
  PlanCacheFixtures f;
  Counters counters;
  ShardedTreeCache cache(1, 8, kNoSpaceLimit, counters);
  const ShardedTreeCache::Lookup first =
      cache.get_or_build(f.key, f.alloc, f.layout);
  ASSERT_NE(first.tree->plan(), nullptr);
  EXPECT_TRUE(first.tree->verify());

  // Corrupt the entry: its memoized seal no longer matches, so the hit
  // fails verification. Dropping it (what the service does) makes the next
  // lookup rebuild the tree and recompile its plan.
  EXPECT_EQ(cache.corrupt_for_testing(), 1u);
  const ShardedTreeCache::Lookup corrupted =
      cache.get_or_build(f.key, f.alloc, f.layout);
  EXPECT_TRUE(corrupted.hit);
  EXPECT_FALSE(corrupted.tree->verify());
  EXPECT_TRUE(cache.erase(f.key));

  const ShardedTreeCache::Lookup rebuilt =
      cache.get_or_build(f.key, f.alloc, f.layout);
  EXPECT_FALSE(rebuilt.hit);
  EXPECT_TRUE(rebuilt.tree->verify());
  ASSERT_NE(rebuilt.tree->plan(), nullptr);
  EXPECT_NE(rebuilt.tree->plan(), first.tree->plan());
  EXPECT_EQ(counters.plan_misses.load(), 2u);
}

TEST(PlanCache, InvalidateAllocDropsOnlyThatFingerprint) {
  PlanCacheFixtures f;
  Counters counters;
  ShardedTreeCache cache(4, 8, kNoSpaceLimit, counters);
  cache.get_or_build(f.key, f.alloc, f.layout);

  const Allocation other = test::small_smt_allocation();
  const TreeKey other_key{allocation_fingerprint(other), f.layout.to_string()};
  cache.get_or_build(other_key, other, f.layout);
  ASSERT_EQ(cache.size(), 2u);
  ASSERT_EQ(cache.plans(), 2u);

  EXPECT_EQ(cache.invalidate_alloc(f.key.alloc_fp), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.plans(), 1u);
  // One entry, one invalidation: the tree and its plan leave together.
  EXPECT_EQ(counters.invalidations.load(), 1u);
  EXPECT_TRUE(cache.get_or_build(other_key, other, f.layout).hit);
  // No entry survives under the stale fingerprint.
  EXPECT_FALSE(cache.get_or_build(f.key, f.alloc, f.layout).hit);
}

// ---- The service's compiled path ---------------------------------------

TEST(PlanCacheService, WarmRequestsHitCompiledPlans) {
  MappingService service({.workers = 0});
  const InternedAlloc interned =
      service.intern(test::figure2_allocation());
  const MapRequest request{interned, "lama:scbnh", {.np = 24}};

  const MapResponse cold = service.map(request);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(service.counters().plan_misses.load(), 1u);
  EXPECT_EQ(service.cached_plans(), 1u);

  const MapResponse warm = service.map(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(service.counters().plan_hits.load(), 1u);
  // The compiled walk is what lama_map would have produced.
  test::expect_identical_mappings(cold.mapping, warm.mapping, "warm");
  EXPECT_GE(service.counters().compiled_map_ns.count(), 2u);
}

TEST(PlanCacheService, CustomIterationPolicyBypassesThePlanCache) {
  MappingService service({.workers = 0});
  const Allocation alloc = test::figure2_allocation();
  const InternedAlloc interned = service.intern(alloc);
  MapRequest request{interned, "lama:scbnh", {.np = 8}};
  request.opts.iteration.set(ResourceType::kCore,
                             {.order = IterationOrder::kReverse});
  ASSERT_TRUE(service.map(request).ok());
  const MapResponse warm = service.map(request);
  ASSERT_TRUE(warm.ok()) << warm.error;
  // The entry carries a default-policy plan; a policy-overriding request
  // must never execute it.
  EXPECT_EQ(service.counters().plan_hits.load(), 0u);
  EXPECT_EQ(service.counters().compiled_map_ns.count(), 0u);
  test::expect_identical_mappings(
      lama_map(alloc, ProcessLayout::parse("scbnh"), request.opts),
      warm.mapping, "custom policy");
}

TEST(PlanCacheService, SpaceLimitFallsBackToTheReferenceWalk) {
  ServiceConfig config{.workers = 0};
  config.plan_space_limit = 1;  // nothing compiles
  MappingService service(config);
  const InternedAlloc interned =
      service.intern(test::figure2_allocation());
  const MapRequest request{interned, "lama:scbnh", {.np = 24}};
  const MapResponse cold = service.map(request);
  ASSERT_TRUE(cold.ok());
  const MapResponse warm = service.map(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);  // the tree cache still serves
  EXPECT_EQ(service.cached_plans(), 0u);
  EXPECT_EQ(service.counters().plan_misses.load(), 0u);
  test::expect_identical_mappings(cold.mapping, warm.mapping, "fallback");
}

TEST(PlanCacheService, CountersAppearInEveryExposition) {
  MappingService service({.workers = 0});
  const InternedAlloc interned =
      service.intern(test::figure2_allocation());
  const MapRequest request{interned, "lama:scbnh", {.np = 8}};
  ASSERT_TRUE(service.map(request).ok());
  ASSERT_TRUE(service.map(request).ok());

  const std::string stats = service.stats_line();
  for (const char* key :
       {"plan_hits=1", "plan_misses=1", "plan_compile_p99_us=",
        "compiled_map_p50_us=", "compiled_map_p99_us=", "cache_plans=1"}) {
    EXPECT_NE(stats.find(key), std::string::npos) << key << "\n" << stats;
  }

  // lamactl stats renders this form: the hit ratio must be visible.
  const std::string rendered = service.render_stats();
  EXPECT_NE(rendered.find("plan cache  hits 1, misses 1, hit ratio 50.0%"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("cached plans 1"), std::string::npos) << rendered;

  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  const std::string prom = snap.to_prometheus();
  for (const char* name :
       {"lama_plan_cache_hits_total 1", "lama_plan_cache_misses_total 1",
        "lama_cache_plans 1", "lama_plan_compile_ns", "lama_compiled_map_ns"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name << "\n" << prom;
  }
}

}  // namespace
}  // namespace lama::svc
