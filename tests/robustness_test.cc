// Robustness and lifecycle tests: rebuild/reuse patterns, degenerate
// datasets, and cross-method agreement — the failure modes a downstream
// user hits first.
#include <gtest/gtest.h>

#include "baselines/lccs_lsh.h"
#include "baselines/linear_scan.h"
#include "baselines/qalsh.h"
#include "core/db_lsh.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "rtree/rtree.h"
#include "util/random.h"

namespace dblsh {
namespace {

// ------------------------------------------------------------- rebuilds --

TEST(RebuildTest, RTreeBulkLoadReplacesPreviousContent) {
  const FloatMatrix points = GenerateUniform(500, 3, 50.0, 70);
  rtree::RStarTree tree(points.cols());
  ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  ASSERT_TRUE(tree.BulkLoad(points, {1, 2, 3}).ok());  // rebuild smaller
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.CheckInvariants(), 0u);
  rtree::Rect everything(3);
  for (size_t j = 0; j < 3; ++j) {
    everything.lo(j) = -1e9f;
    everything.hi(j) = 1e9f;
  }
  std::vector<uint32_t> out;
  tree.WindowQuery(everything, &out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(RebuildTest, DbLshRebuildOnNewDataset) {
  const FloatMatrix first = GenerateClustered(
      {.n = 1000, .dim = 16, .clusters = 4, .seed = 71});
  const FloatMatrix second = GenerateClustered(
      {.n = 2000, .dim = 16, .clusters = 8, .seed = 72});
  DbLsh index;
  ASSERT_TRUE(index.Build(&first).ok());
  ASSERT_TRUE(index.Build(&second).ok());  // rebuild over different data
  EXPECT_EQ(index.IndexEntries(), index.params().l * second.rows());
  const auto result = index.Query(second.row(0), 3);
  ASSERT_FALSE(result.empty());
  EXPECT_FLOAT_EQ(result[0].dist, 0.f);
}

TEST(RebuildTest, QalshRebuildResetsScratch) {
  const FloatMatrix first = GenerateClustered(
      {.n = 800, .dim = 16, .clusters = 4, .seed = 73});
  const FloatMatrix second = GenerateClustered(
      {.n = 1600, .dim = 16, .clusters = 8, .seed = 74});
  Qalsh index;
  ASSERT_TRUE(index.Build(&first).ok());
  (void)index.Query(first.row(0), 5);
  ASSERT_TRUE(index.Build(&second).ok());
  const auto result = index.Query(second.row(1500), 5);
  ASSERT_FALSE(result.empty());  // ids beyond the first dataset's range work
}

// --------------------------------------------------------- degeneracies --

TEST(DegenerateDataTest, AllIdenticalPoints) {
  FloatMatrix dupes(200, 8);  // all zeros
  DbLsh index;
  ASSERT_TRUE(index.Build(&dupes).ok());
  const auto result = index.Query(dupes.row(0), 10);
  ASSERT_EQ(result.size(), 10u);
  for (const auto& nb : result) EXPECT_FLOAT_EQ(nb.dist, 0.f);
}

TEST(DegenerateDataTest, SingleDimension) {
  FloatMatrix line(300, 1);
  for (size_t i = 0; i < 300; ++i) line.at(i, 0) = static_cast<float>(i);
  DbLsh index;
  ASSERT_TRUE(index.Build(&line).ok());
  const float q[1] = {150.2f};
  const auto result = index.Query(q, 3);
  ASSERT_FALSE(result.empty());
  EXPECT_NEAR(result[0].dist, 0.2f, 1e-4);
}

TEST(DegenerateDataTest, TwoPoints) {
  FloatMatrix two(2, 4);
  two.at(1, 0) = 100.f;
  DbLsh index;
  ASSERT_TRUE(index.Build(&two).ok());
  const auto result = index.Query(two.row(1), 2);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 1u);
}

TEST(DegenerateDataTest, ConstantColumnsDoNotBreakProjections) {
  // Columns with zero variance are common in real descriptor files.
  FloatMatrix data(500, 8);
  Rng rng(75);
  for (size_t i = 0; i < 500; ++i) {
    data.at(i, 0) = 42.f;  // constant column
    for (size_t j = 1; j < 8; ++j) {
      data.at(i, j) = static_cast<float>(rng.Uniform(0, 10));
    }
  }
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto result = index.Query(data.row(7), 5);
  ASSERT_FALSE(result.empty());
  EXPECT_FLOAT_EQ(result[0].dist, 0.f);
}

// ------------------------------------------------------------ agreement --

TEST(AgreementTest, AllMethodsAgreeOnObviousNearestNeighbor) {
  // One point is planted far closer to the query than everything else;
  // every method must rank it first.
  FloatMatrix data = GenerateClustered(
      {.n = 1000, .dim = 24, .clusters = 6, .seed = 76});
  std::vector<float> query(data.row(123), data.row(123) + 24);
  for (auto& v : query) v += 0.01f;

  DbLsh db;
  Qalsh qalsh;
  LccsLsh lccs;
  LinearScan scan;
  ASSERT_TRUE(db.Build(&data).ok());
  ASSERT_TRUE(qalsh.Build(&data).ok());
  ASSERT_TRUE(lccs.Build(&data).ok());
  ASSERT_TRUE(scan.Build(&data).ok());
  for (AnnIndex* index :
       std::initializer_list<AnnIndex*>{&db, &qalsh, &lccs, &scan}) {
    const auto result = index->Query(query.data(), 1);
    ASSERT_FALSE(result.empty()) << index->Name();
    EXPECT_EQ(result[0].id, 123u) << index->Name();
  }
}

TEST(AgreementTest, RepeatedQueriesAreDeterministic) {
  const FloatMatrix data = GenerateClustered(
      {.n = 1500, .dim = 16, .clusters = 8, .seed = 77});
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto first = index.Query(data.row(9), 10);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto again = index.Query(data.row(9), 10);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i].id, first[i].id);
    }
  }
}

}  // namespace
}  // namespace dblsh
