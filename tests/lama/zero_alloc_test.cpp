// The zero-allocation guarantee, enforced: this binary replaces global
// operator new/delete with counting forwarders, and the tests assert that a
// warmed-up PlanExecutor replays compiled plans — and the service-side cache
// serves verified hits — without a single heap allocation on the calling
// thread. The counters are thread_local and armed only inside the guarded
// region, so gtest bookkeeping and other threads never pollute the count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "cluster/alloc_serialize.hpp"
#include "common/fixtures.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"
#include "svc/tree_cache.hpp"

namespace {

thread_local bool g_counting = false;
thread_local std::size_t g_allocs = 0;

// Arms the counter for one scope; reads the count after disarming so the
// EXPECT itself may allocate freely.
class AllocGuard {
 public:
  AllocGuard() {
    g_allocs = 0;
    g_counting = true;
  }
  ~AllocGuard() { g_counting = false; }
  std::size_t finish() {
    g_counting = false;
    return g_allocs;
  }
};

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lama {
namespace {

TEST(ZeroAlloc, SteadyStateCompiledWalkAllocatesNothing) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
  const MapOptions opts{.np = 24, .pus_per_proc = 2};

  PlanExecutor exec;
  MappingResult out;
  // Warm-up sizes the executor's arenas and the result's buffers.
  lama_map_compiled(alloc, opts, plan, exec, out);

  AllocGuard guard;
  for (int i = 0; i < 10; ++i) lama_map_compiled(alloc, opts, plan, exec, out);
  const std::size_t allocs = guard.finish();
  EXPECT_EQ(allocs, 0u);
  // The guarded runs really ran: the result is live and correct.
  test::expect_identical_mappings(lama_map(alloc, layout, opts, mtree), out,
                                  "steady state");
}

TEST(ZeroAlloc, SteadyStateHoldsWithCapsAndWraparound) {
  const Allocation alloc = test::hetero_two_node_offline_allocation();
  const ProcessLayout layout = ProcessLayout::parse("cnbsh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
  MapOptions opts{.np = 17};  // > 9 online targets: wraparound sweeps
  opts.set_cap(ResourceType::kCore, 3);

  PlanExecutor exec;
  MappingResult out;
  lama_map_compiled(alloc, opts, plan, exec, out);

  AllocGuard guard;
  for (int i = 0; i < 10; ++i) lama_map_compiled(alloc, opts, plan, exec, out);
  EXPECT_EQ(guard.finish(), 0u);
  test::expect_identical_mappings(lama_map(alloc, layout, opts, mtree), out,
                                  "caps + wraparound");
}

TEST(ZeroAlloc, PlanCacheHitVerificationAllocatesNothing) {
  const Allocation alloc = test::figure2_allocation();
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  svc::Counters counters;
  const svc::TreeKey key{allocation_fingerprint(alloc), layout.to_string()};
  svc::ShardedTreeCache cache(1, 8, /*plan_space_limit=*/0, counters);
  // Miss builds and compiles; everything after is the hit path.
  ASSERT_FALSE(cache.get_or_build(key, alloc, layout).hit);

  AllocGuard guard;
  for (int i = 0; i < 10; ++i) {
    const svc::ShardedTreeCache::Lookup lookup =
        cache.get_or_build(key, alloc, layout);
    if (!lookup.hit || !lookup.tree->verify() ||
        lookup.tree->plan() == nullptr) {
      guard.finish();
      FAIL() << "expected a verified plan hit";
    }
  }
  EXPECT_EQ(guard.finish(), 0u);
  EXPECT_EQ(counters.cache_hits.load(), 10u);
  EXPECT_EQ(counters.plan_misses.load(), 1u);
}

}  // namespace
}  // namespace lama
