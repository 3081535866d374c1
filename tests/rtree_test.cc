#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "dataset/synthetic.h"
#include "rtree/rect.h"
#include "rtree/rtree.h"
#include "util/random.h"

namespace dblsh::rtree {
namespace {

// Brute-force reference for window queries.
std::vector<uint32_t> BruteWindow(const FloatMatrix& points,
                                  const Rect& window) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < points.rows(); ++i) {
    if (window.ContainsPoint(points.row(i))) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

// ------------------------------------------------------------------ Rect --

TEST(RectTest, WindowConstruction) {
  const float center[] = {1.f, 2.f};
  const Rect r = Rect::Window(center, 2, 4.0);
  EXPECT_FLOAT_EQ(r.lo(0), -1.f);
  EXPECT_FLOAT_EQ(r.hi(0), 3.f);
  EXPECT_FLOAT_EQ(r.lo(1), 0.f);
  EXPECT_FLOAT_EQ(r.hi(1), 4.f);
}

TEST(RectTest, AreaMarginOverlap) {
  const float a_pt[] = {0.f, 0.f};
  Rect a = Rect::Window(a_pt, 2, 2.0);  // [-1,1]^2
  EXPECT_DOUBLE_EQ(a.Area(), 4.0);
  EXPECT_DOUBLE_EQ(a.Margin(), 4.0);
  const float b_pt[] = {1.f, 1.f};
  Rect b = Rect::Window(b_pt, 2, 2.0);  // [0,2]^2
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 1.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 9.0 - 4.0);
}

TEST(RectTest, EmptyRectBehaviour) {
  Rect empty(3);
  const float p[] = {0.f, 0.f, 0.f};
  const Rect w = Rect::Window(p, 3, 100.0);
  EXPECT_FALSE(w.Intersects(empty));
  EXPECT_FALSE(empty.ContainsPoint(p));
  empty.ExtendPoint(p);
  EXPECT_TRUE(empty.ContainsPoint(p));
}

TEST(RectTest, ContainsIsInclusive) {
  const float c[] = {0.f};
  const Rect r = Rect::Window(c, 1, 2.0);  // [-1, 1]
  const float edge[] = {1.f};
  EXPECT_TRUE(r.ContainsPoint(edge));
  const float outside[] = {1.0001f};
  EXPECT_FALSE(r.ContainsPoint(outside));
}

// -------------------------------------------------------- Build variants --

class RTreeBuildTest : public ::testing::TestWithParam<bool> {};

TEST_P(RTreeBuildTest, WindowQueryMatchesBruteForce) {
  const bool bulk = GetParam();
  const FloatMatrix points = GenerateUniform(3000, 3, 100.0, 17);
  RStarTree tree(points.cols());
  if (bulk) {
    ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  } else {
    for (uint32_t i = 0; i < points.rows(); ++i) {
      ASSERT_TRUE(tree.Insert(i, points.row(i)).ok());
    }
  }
  EXPECT_EQ(tree.size(), points.rows());
  EXPECT_EQ(tree.CheckInvariants(), 0u);

  Rng rng(4);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<float> center(3);
    for (auto& v : center) v = static_cast<float>(rng.Uniform(0, 100));
    const double width = rng.Uniform(1.0, 60.0);
    const Rect window = Rect::Window(center.data(), 3, width);
    std::vector<uint32_t> got;
    tree.WindowQuery(window, &got);
    std::vector<uint32_t> expected = BruteWindow(points, window);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST_P(RTreeBuildTest, CursorEnumeratesExactlyTheWindow) {
  const bool bulk = GetParam();
  const FloatMatrix points = GenerateClustered(
      {.n = 2000, .dim = 4, .clusters = 8, .seed = 5});
  RStarTree tree(points.cols());
  if (bulk) {
    ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  } else {
    for (uint32_t i = 0; i < points.rows(); ++i) {
      ASSERT_TRUE(tree.Insert(i, points.row(i)).ok());
    }
  }
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<float> center(4);
    for (auto& v : center) v = static_cast<float>(rng.Uniform(0, 100));
    const Rect window = Rect::Window(center.data(), 4,
                                     rng.Uniform(5.0, 80.0));
    std::set<uint32_t> got;
    RStarTree::WindowCursor cursor(&tree, window);
    uint32_t id;
    while (cursor.Next(&id)) {
      EXPECT_TRUE(got.insert(id).second) << "cursor yielded duplicate";
    }
    const auto expected = BruteWindow(points, window);
    EXPECT_EQ(got.size(), expected.size());
    for (uint32_t e : expected) EXPECT_TRUE(got.count(e));
  }
}

INSTANTIATE_TEST_SUITE_P(BulkAndInsert, RTreeBuildTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "BulkLoad" : "Insert";
                         });

// -------------------------------------------------------------- Specific --

TEST(RTreeTest, EmptyTreeQueriesNothing) {
  FloatMatrix points(0, 2);
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoad(points, {}).ok());
  const float c[] = {0.f, 0.f};
  std::vector<uint32_t> out;
  tree.WindowQuery(Rect::Window(c, 2, 1000.0), &out);
  EXPECT_TRUE(out.empty());
  RStarTree::WindowCursor cursor(&tree, Rect::Window(c, 2, 1000.0));
  uint32_t id;
  EXPECT_FALSE(cursor.Next(&id));
}

TEST(RTreeTest, SinglePoint) {
  FloatMatrix points(1, 2);
  points.at(0, 0) = 5.f;
  points.at(0, 1) = 5.f;
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.Insert(0, points.row(0)).ok());
  const float near[] = {5.f, 5.f};
  std::vector<uint32_t> out;
  tree.WindowQuery(Rect::Window(near, 2, 1.0), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
}

TEST(RTreeTest, RejectsOutOfRangeIds) {
  FloatMatrix points(10, 2);
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.Insert(3, points.row(3)).ok());
  EXPECT_FALSE(tree.Insert(3, points.row(3)).ok());  // already indexed
  EXPECT_FALSE(tree.BulkLoad(points, {0, 1, 99}).ok());
}

TEST(RTreeTest, DuplicatePointsAllRetrieved) {
  FloatMatrix points(64, 2);  // all at the origin
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  const float c[] = {0.f, 0.f};
  std::vector<uint32_t> out;
  tree.WindowQuery(Rect::Window(c, 2, 0.5), &out);
  EXPECT_EQ(out.size(), 64u);
  EXPECT_EQ(tree.CheckInvariants(), 0u);
}

TEST(RTreeTest, BulkLoadSubsetOnly) {
  const FloatMatrix points = GenerateUniform(100, 2, 10.0, 8);
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoad(points, {1, 3, 5, 7, 9}).ok());
  EXPECT_EQ(tree.size(), 5u);
  const float c[] = {5.f, 5.f};
  std::vector<uint32_t> out;
  tree.WindowQuery(Rect::Window(c, 2, 100.0), &out);
  EXPECT_EQ(out.size(), 5u);
}

TEST(RTreeTest, StatsReflectStructure) {
  const FloatMatrix points = GenerateUniform(5000, 2, 100.0, 10);
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  const RTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.entry_count, 5000u);
  EXPECT_GT(stats.height, 1u);
  EXPECT_GT(stats.leaf_count, 5000u / 32);
  EXPECT_GE(stats.node_count, stats.leaf_count);
}

TEST(RTreeTest, InsertGrowsIncrementally) {
  const FloatMatrix points = GenerateUniform(500, 2, 100.0, 12);
  RStarTree tree(points.cols());
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Insert(i, points.row(i)).ok());
    if (i % 100 == 99) {
      EXPECT_EQ(tree.CheckInvariants(), 0u) << "at " << i;
    }
  }
  EXPECT_EQ(tree.size(), 500u);
}

TEST(RTreeTest, RemoveDeletesAndKeepsInvariants) {
  const FloatMatrix points = GenerateUniform(800, 2, 100.0, 13);
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  Rng rng(14);
  std::set<uint32_t> removed;
  for (int i = 0; i < 400; ++i) {
    uint32_t id;
    do {
      id = static_cast<uint32_t>(rng.UniformInt(800));
    } while (removed.count(id));
    ASSERT_TRUE(tree.Remove(id).ok()) << "id " << id;
    removed.insert(id);
  }
  EXPECT_EQ(tree.size(), 400u);
  EXPECT_EQ(tree.CheckInvariants(), 0u);
  // Removed points are gone; kept points remain findable.
  const float c[] = {50.f, 50.f};
  std::vector<uint32_t> out;
  tree.WindowQuery(Rect::Window(c, 2, 300.0), &out);
  EXPECT_EQ(out.size(), 400u);
  for (uint32_t id : out) EXPECT_FALSE(removed.count(id));
}

TEST(RTreeTest, RemoveMissingIsNotFound) {
  const FloatMatrix points = GenerateUniform(50, 2, 10.0, 15);
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoad(points, {0, 1, 2}).ok());
  EXPECT_EQ(tree.Remove(40).code(), StatusCode::kNotFound);
  EXPECT_TRUE(tree.Remove(1).ok());
  EXPECT_EQ(tree.Remove(1).code(), StatusCode::kNotFound);
}

TEST(RTreeTest, CursorEarlyStopIsCheap) {
  // The cursor contract: callers can stop consuming at any point.
  const FloatMatrix points = GenerateUniform(10000, 2, 100.0, 16);
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  const float c[] = {50.f, 50.f};
  RStarTree::WindowCursor cursor(&tree, Rect::Window(c, 2, 200.0));
  uint32_t id;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cursor.Next(&id));
  // Destroying the cursor early must be safe (checked by ASAN-free exit).
}

TEST(RTreeTest, HigherDimensionalWindows) {
  const FloatMatrix points = GenerateClustered(
      {.n = 1500, .dim = 10, .clusters = 10, .seed = 18});
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t anchor = static_cast<uint32_t>(rng.UniformInt(1500));
    const Rect window = Rect::Window(points.row(anchor), 10,
                                     rng.Uniform(1.0, 20.0));
    std::vector<uint32_t> got;
    tree.WindowQuery(window, &got);
    std::vector<uint32_t> expected = BruteWindow(points, window);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
    // The anchor itself is always inside its own window.
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), anchor));
  }
}

TEST(RTreeTest, MoveTransfersOwnership) {
  const FloatMatrix points = GenerateUniform(200, 2, 10.0, 20);
  RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  RStarTree moved = std::move(tree);
  EXPECT_EQ(moved.size(), 200u);
  EXPECT_EQ(moved.CheckInvariants(), 0u);
}

TEST(RTreeTest, SmallFanoutStressesSplits) {
  RTreeOptions options;
  options.max_entries = 4;
  const FloatMatrix points = GenerateUniform(600, 2, 50.0, 21);
  RStarTree tree(points.cols(), options);
  for (uint32_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(tree.Insert(i, points.row(i)).ok());
  }
  EXPECT_EQ(tree.CheckInvariants(), 0u);
  const float c[] = {25.f, 25.f};
  std::vector<uint32_t> out;
  tree.WindowQuery(Rect::Window(c, 2, 200.0), &out);
  EXPECT_EQ(out.size(), 600u);
}

}  // namespace
}  // namespace dblsh::rtree
