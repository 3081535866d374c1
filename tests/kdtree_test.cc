#include <gtest/gtest.h>

#include <cmath>

#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "kdtree/kd_tree.h"

namespace dblsh::kdtree {
namespace {

TEST(KdTreeTest, KnnMatchesBruteForce) {
  const FloatMatrix points = GenerateUniform(2000, 6, 50.0, 41);
  KdTree tree(&points);
  const FloatMatrix queries = GenerateUniform(20, 6, 50.0, 42);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto got = tree.Knn(queries.row(q), 10);
    const auto expected = ExactKnn(points, queries.row(q), 10);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].dist, expected[i].dist, 1e-4) << "rank " << i;
    }
  }
}

TEST(KdTreeTest, KnnOnClusteredData) {
  const FloatMatrix points = GenerateClustered(
      {.n = 3000, .dim = 12, .clusters = 10, .seed = 43});
  KdTree tree(&points);
  const auto got = tree.Knn(points.row(7), 5);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].id, 7u);  // the point itself is its own 1-NN
  EXPECT_FLOAT_EQ(got[0].dist, 0.f);
}

TEST(KdTreeTest, CursorYieldsAscendingDistances) {
  const FloatMatrix points = GenerateUniform(1000, 4, 20.0, 44);
  KdTree tree(&points);
  const FloatMatrix queries = GenerateUniform(5, 4, 20.0, 45);
  for (size_t q = 0; q < queries.rows(); ++q) {
    KdTree::NnCursor cursor(&tree, queries.row(q));
    Neighbor nb;
    float last = 0.f;
    size_t count = 0;
    while (cursor.Next(&nb)) {
      EXPECT_GE(nb.dist, last - 1e-5f);
      last = nb.dist;
      ++count;
    }
    EXPECT_EQ(count, points.rows());  // full enumeration, no duplicates
  }
}

TEST(KdTreeTest, CursorPrefixMatchesKnn) {
  const FloatMatrix points = GenerateClustered(
      {.n = 1500, .dim = 8, .clusters = 6, .seed = 46});
  KdTree tree(&points);
  const float* q = points.row(3);
  KdTree::NnCursor cursor(&tree, q);
  const auto knn = tree.Knn(q, 20);
  for (size_t i = 0; i < 20; ++i) {
    Neighbor nb;
    ASSERT_TRUE(cursor.Next(&nb));
    EXPECT_NEAR(nb.dist, knn[i].dist, 1e-4) << "rank " << i;
  }
}

TEST(KdTreeTest, EmptyTree) {
  FloatMatrix points(0, 3);
  KdTree tree(&points);
  const float q[3] = {0, 0, 0};
  EXPECT_TRUE(tree.Knn(q, 5).empty());
  KdTree::NnCursor cursor(&tree, q);
  Neighbor nb;
  EXPECT_FALSE(cursor.Next(&nb));
}

TEST(KdTreeTest, AllIdenticalPoints) {
  FloatMatrix points(100, 3);  // all zeros
  KdTree tree(&points);
  const float q[3] = {1, 1, 1};
  const auto knn = tree.Knn(q, 10);
  ASSERT_EQ(knn.size(), 10u);
  for (const auto& nb : knn) EXPECT_NEAR(nb.dist, std::sqrt(3.f), 1e-5);
}

TEST(KdTreeTest, KGreaterThanN) {
  const FloatMatrix points = GenerateUniform(7, 2, 10.0, 47);
  KdTree tree(&points);
  const float q[2] = {5, 5};
  EXPECT_EQ(tree.Knn(q, 50).size(), 7u);
}

TEST(KdTreeTest, LeafSizeOneWorks) {
  const FloatMatrix points = GenerateUniform(300, 3, 10.0, 48);
  KdTree tree(&points, 1);
  const auto got = tree.Knn(points.row(0), 3);
  const auto expected = ExactKnn(points, points.row(0), 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(got[i].dist, expected[i].dist, 1e-4);
  }
}

}  // namespace
}  // namespace dblsh::kdtree
