// Parameterized property tests of the DB-LSH index across approximation
// ratios, bucket widths, table counts and bucketing modes, plus tests for
// the SRS baseline and the parallel batch query path.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/qalsh.h"
#include "baselines/srs.h"
#include "core/db_lsh.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"

namespace dblsh {
namespace {

struct Fixture {
  FloatMatrix data;
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> gt;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    SplitQueries(GenerateClustered({.n = 3000,
                                    .dim = 32,
                                    .clusters = 12,
                                    .center_spread = 60.0,
                                    .cluster_stddev = 2.0,
                                    .seed = 2001}),
                 25, 2002, &f->data, &f->queries);
    f->gt = ComputeGroundTruth(f->data, f->queries, 10);
    return f;
  }();
  return *fixture;
}

// ------------------------------------------------------ parameter sweep --

struct SweepConfig {
  double c;
  double gamma;  // w0 = 2 gamma c^2
  size_t l;
  BucketingMode mode;
};

class DbLshSweep : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(DbLshSweep, BuildsAndAnswersWithGuarantee) {
  const SweepConfig& cfg = GetParam();
  const Fixture& f = SharedFixture();
  DbLshParams params;
  params.c = cfg.c;
  params.w0 = 2.0 * cfg.gamma * cfg.c * cfg.c;
  params.l = cfg.l;
  params.t = 40;
  params.bucketing = cfg.mode;
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&f.data).ok());

  // Theorem 1's success probability is >= 1/2 - 1/e per query; empirically
  // over 25 queries the c^2 guarantee must hold far more often than that.
  const double c2 = cfg.c * cfg.c;
  size_t success = 0;
  for (size_t q = 0; q < f.queries.rows(); ++q) {
    const auto result = index.Query(f.queries.row(q), 1);
    ASSERT_FALSE(result.empty());
    if (result[0].dist <= c2 * f.gt[q][0].dist + 1e-4) ++success;
  }
  EXPECT_GT(static_cast<double>(success) / f.queries.rows(),
            0.5 - 1.0 / 2.718281828459045);
}

TEST_P(DbLshSweep, BudgetIsRespected) {
  const SweepConfig& cfg = GetParam();
  const Fixture& f = SharedFixture();
  DbLshParams params;
  params.c = cfg.c;
  params.w0 = 2.0 * cfg.gamma * cfg.c * cfg.c;
  params.l = cfg.l;
  params.t = 12;
  params.bucketing = cfg.mode;
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&f.data).ok());
  for (size_t q = 0; q < 5; ++q) {
    QueryStats stats;
    index.Query(f.queries.row(q), 10, &stats);
    EXPECT_LE(stats.candidates_verified, 2 * params.t * params.l + 10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DbLshSweep,
    ::testing::Values(
        SweepConfig{1.2, 2.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 2.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{2.0, 2.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{3.0, 2.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 1.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 3.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 2.0, 1, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 2.0, 10, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 2.0, 5, BucketingMode::kFixedGrid},
        SweepConfig{2.0, 2.0, 8, BucketingMode::kFixedGrid}),
    [](const auto& info) {
      const SweepConfig& cfg = info.param;
      return "c" + std::to_string(static_cast<int>(cfg.c * 10)) + "_g" +
             std::to_string(static_cast<int>(cfg.gamma * 10)) + "_l" +
             std::to_string(cfg.l) +
             (cfg.mode == BucketingMode::kFixedGrid ? "_fixed" : "_dyn");
    });

// --------------------------------------------------------- more tables --

TEST(DbLshMonotonicityTest, MoreTablesDoNotHurtRecall) {
  const Fixture& f = SharedFixture();
  double prev_recall = -1.0;
  for (size_t l : {1, 3, 8}) {
    DbLshParams params;
    params.l = l;
    params.t = 200 / (2 * l);  // constant total budget 2tL ~ 200
    DbLsh index(params);
    ASSERT_TRUE(index.Build(&f.data).ok());
    double recall = 0.0;
    for (size_t q = 0; q < f.queries.rows(); ++q) {
      recall += eval::Recall(index.Query(f.queries.row(q), 10), f.gt[q]);
    }
    recall /= static_cast<double>(f.queries.rows());
    EXPECT_GT(recall, prev_recall - 0.15) << "l = " << l;
    prev_recall = recall;
  }
}

TEST(DbLshMonotonicityTest, LargerBudgetNeverLosesRecallMaterially) {
  const Fixture& f = SharedFixture();
  double prev = -1.0;
  for (size_t t : {4, 16, 64, 256}) {
    DbLshParams params;
    params.t = t;
    DbLsh index(params);
    ASSERT_TRUE(index.Build(&f.data).ok());
    double recall = 0.0;
    for (size_t q = 0; q < f.queries.rows(); ++q) {
      recall += eval::Recall(index.Query(f.queries.row(q), 10), f.gt[q]);
    }
    recall /= static_cast<double>(f.queries.rows());
    EXPECT_GE(recall, prev - 0.05) << "t = " << t;
    prev = recall;
  }
  EXPECT_GT(prev, 0.9);  // the largest budget must be near-exact here
}

// ---------------------------------------------------------------- SRS ----

TEST(SrsTest, RejectsBadParams) {
  const Fixture& f = SharedFixture();
  SrsParams params;
  params.c = 0.8;
  EXPECT_FALSE(Srs(params).Build(&f.data).ok());
  params.c = 1.5;
  params.m = 0;
  EXPECT_FALSE(Srs(params).Build(&f.data).ok());
}

TEST(SrsTest, FindsExactDuplicate) {
  const Fixture& f = SharedFixture();
  Srs index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  const auto result = index.Query(f.data.row(17), 1);
  ASSERT_FALSE(result.empty());
  EXPECT_FLOAT_EQ(result[0].dist, 0.f);
}

TEST(SrsTest, TinyIndexStillGivesUsableRecall) {
  const Fixture& f = SharedFixture();
  Srs index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  EXPECT_EQ(index.NumHashFunctions(), 6u);  // the "tiny index" headline
  double recall = 0.0;
  for (size_t q = 0; q < f.queries.rows(); ++q) {
    recall += eval::Recall(index.Query(f.queries.row(q), 10), f.gt[q]);
  }
  EXPECT_GT(recall / f.queries.rows(), 0.4);
}

TEST(SrsTest, NoisierThanPmLshProjection) {
  // SRS (m = 6) needs more candidates than PM-LSH (m = 15) to reach the
  // same recall — the refinement PM-LSH claims. Checked indirectly: at an
  // equal small budget, SRS recall <= PM-LSH-style recall + noise.
  const Fixture& f = SharedFixture();
  SrsParams srs_params;
  srs_params.beta = 0.02;
  srs_params.threshold = 1e9;  // budget-limited only
  Srs small(srs_params);
  SrsParams big_params = srs_params;
  big_params.m = 15;
  Srs big(big_params);
  ASSERT_TRUE(small.Build(&f.data).ok());
  ASSERT_TRUE(big.Build(&f.data).ok());
  double small_recall = 0.0, big_recall = 0.0;
  for (size_t q = 0; q < f.queries.rows(); ++q) {
    small_recall +=
        eval::Recall(small.Query(f.queries.row(q), 10), f.gt[q]);
    big_recall += eval::Recall(big.Query(f.queries.row(q), 10), f.gt[q]);
  }
  EXPECT_GE(big_recall, small_recall - 0.5);
}

// ------------------------------------------------------- parallel query --

std::vector<std::vector<Neighbor>> BatchNeighbors(const DbLsh& index,
                                                  const FloatMatrix& queries,
                                                  size_t k,
                                                  size_t num_threads) {
  QueryRequest request;
  request.k = k;
  std::vector<std::vector<Neighbor>> results;
  for (QueryResponse& response :
       index.QueryBatch(queries, request, num_threads)) {
    results.push_back(std::move(response.neighbors));
  }
  return results;
}

TEST(ParallelQueryTest, MatchesSequentialExactly) {
  const Fixture& f = SharedFixture();
  DbLsh index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  const auto parallel = BatchNeighbors(index, f.queries, 10, 4);
  ASSERT_EQ(parallel.size(), f.queries.rows());
  for (size_t q = 0; q < f.queries.rows(); ++q) {
    const auto sequential = index.Query(f.queries.row(q), 10);
    ASSERT_EQ(parallel[q].size(), sequential.size()) << "query " << q;
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(parallel[q][i].id, sequential[i].id);
      EXPECT_FLOAT_EQ(parallel[q][i].dist, sequential[i].dist);
    }
  }
}

TEST(ParallelQueryTest, SingleThreadAndEmptyInputs) {
  const Fixture& f = SharedFixture();
  DbLsh index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  const auto one = BatchNeighbors(index, f.queries, 5, 1);
  EXPECT_EQ(one.size(), f.queries.rows());
  FloatMatrix none(0, f.data.cols());
  EXPECT_TRUE(BatchNeighbors(index, none, 5, 4).empty());
}

TEST(ParallelQueryTest, ScratchReuseAcrossManyQueries) {
  // Exercises the epoch machinery of the thread's QueryMarks, which every
  // index on the thread shares: between the two runs of each query, a
  // DbLsh and a collision-counting QALSH over fewer rows stamp the same
  // buffers, so one scratch serves both method kinds and both sizes.
  const Fixture& f = SharedFixture();
  DbLsh index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  const FloatMatrix fewer =
      GenerateClustered({.n = 700, .dim = 32, .clusters = 4, .seed = 2003});
  DbLsh other;
  ASSERT_TRUE(other.Build(&fewer).ok());
  Qalsh counting;
  ASSERT_TRUE(counting.Build(&fewer).ok());
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (size_t q = 0; q < f.queries.rows(); ++q) {
      const auto a = index.Query(f.queries.row(q), 5);
      EXPECT_FALSE(other.Query(f.queries.row(q), 5).empty());
      EXPECT_FALSE(counting.Query(f.queries.row(q), 5).empty());
      const auto b = index.Query(f.queries.row(q), 5);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
    }
  }
}

}  // namespace
}  // namespace dblsh
