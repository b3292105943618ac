// Parameterized binding sweep: for every bind level on several hardware
// shapes, the binding width must equal the number of online PUs under the
// bound ancestor — the paper's definition, checked exhaustively rather than
// by example.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "lama/binding.hpp"
#include "lama/mapper.hpp"

namespace lama {
namespace {

// The swept hardware shapes. A case holds the shape by value, not as a
// pointer to its description: gtest prints a parameter that has no
// operator<< as its raw bytes, and those bytes are part of every listed
// case name, so a pointer would rename the cases from one build to the next.
// The enumerator values are arbitrary tags, pinned to the leading bytes the
// case names carried when the cases held a pointer, so the names stay as
// they were listed.
enum class Shape : std::uint32_t {
  kSmt = 0xE0,
  kCacheTree = 0xD028,
  kBoards = 0x10,
};

const char* shape_desc(Shape s) {
  switch (s) {
    case Shape::kSmt:
      return "socket:2 core:4 pu:2";
    case Shape::kCacheTree:
      return "socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2";
    case Shape::kBoards:
      return "board:4 socket:2 core:8";
  }
  return "";
}

struct SweepCase {
  Shape shape;
  BindTarget target;
  std::size_t expected_width;  // PUs under one object of that level
  std::size_t node_pus;        // online PUs of one node of the shape
};

class BindingSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BindingSweepTest, WidthEqualsPusUnderBoundAncestor) {
  const SweepCase& c = GetParam();
  const char* desc = shape_desc(c.shape);
  const Allocation alloc = allocate_all(Cluster::homogeneous(2, desc));
  ASSERT_EQ(alloc.total_online_pus(), 2 * c.node_pus) << desc;
  const std::size_t np = std::min<std::size_t>(4, alloc.total_online_pus());
  const MappingResult m =
      lama_map(alloc, ProcessLayout::full_pack(), {.np = np});
  const BindingResult b = bind_processes(alloc, m, {.target = c.target});
  for (const ProcessBinding& pb : b.bindings) {
    EXPECT_EQ(pb.width, c.expected_width)
        << desc << " bind " << bind_target_name(c.target);
    // The process's mapped PU is inside its binding.
    EXPECT_TRUE(
        m.placements[static_cast<std::size_t>(pb.rank)].target_pus.is_subset_of(
            pb.cpuset));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BindingSweepTest,
    ::testing::Values(
        // 2 sockets x 4 cores x 2 threads = 16 PUs.
        SweepCase{Shape::kSmt, BindTarget::kHwThread, 1, 16},
        SweepCase{Shape::kSmt, BindTarget::kCore, 2, 16},
        SweepCase{Shape::kSmt, BindTarget::kSocket, 8, 16},
        SweepCase{Shape::kSmt, BindTarget::kNode, 16, 16},
        SweepCase{Shape::kSmt, BindTarget::kNone, 16, 16},
        // NUMA/cache tree: 2s x 2N x 1L3 x 4L2 x 1L1 x 1c x 2pu = 32 PUs.
        SweepCase{Shape::kCacheTree, BindTarget::kL1, 2, 32},
        SweepCase{Shape::kCacheTree, BindTarget::kL2, 2, 32},
        SweepCase{Shape::kCacheTree, BindTarget::kL3, 8, 32},
        SweepCase{Shape::kCacheTree, BindTarget::kNuma, 8, 32},
        SweepCase{Shape::kCacheTree, BindTarget::kSocket, 16, 32},
        // Boards without SMT: 4b x 2s x 8c = 64 PUs (core leaves).
        SweepCase{Shape::kBoards, BindTarget::kCore, 1, 64},
        SweepCase{Shape::kBoards, BindTarget::kSocket, 8, 64},
        SweepCase{Shape::kBoards, BindTarget::kBoard, 16, 64},
        SweepCase{Shape::kBoards, BindTarget::kNode, 64, 64}),
    [](const auto& info) {
      return bind_target_name(info.param.target) + std::string("_w") +
             std::to_string(info.param.expected_width) + "_" +
             std::to_string(info.index);
    });

// Width > 1 sweep: "2X" must double the single-object width when siblings
// are available.
class BindingWidthTest
    : public ::testing::TestWithParam<std::tuple<BindTarget, std::size_t>> {};

TEST_P(BindingWidthTest, DoubleWidthDoublesPus) {
  const auto [target, single] = GetParam();
  const Allocation alloc = allocate_all(
      Cluster::homogeneous(1, "socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2"));
  const MappingResult m =
      lama_map(alloc, ProcessLayout::full_pack(), {.np = 1});
  const BindingResult one =
      bind_processes(alloc, m, {.target = target, .width = 1});
  const BindingResult two =
      bind_processes(alloc, m, {.target = target, .width = 2});
  EXPECT_EQ(one.bindings[0].width, single);
  EXPECT_EQ(two.bindings[0].width, single * 2);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, BindingWidthTest,
    ::testing::Values(std::make_tuple(BindTarget::kHwThread, 1u),
                      std::make_tuple(BindTarget::kL2, 2u),
                      std::make_tuple(BindTarget::kNuma, 8u),
                      std::make_tuple(BindTarget::kSocket, 16u)));

}  // namespace
}  // namespace lama
