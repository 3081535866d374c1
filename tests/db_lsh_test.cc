#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/fb_lsh.h"
#include "core/db_lsh.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "dataset/vector_store.h"
#include "eval/metrics.h"
#include "simd/simd.h"
#include "util/bytes.h"
#include "util/random.h"

namespace dblsh {
namespace {

FloatMatrix EasyData(size_t n = 4000, size_t dim = 32, uint64_t seed = 50) {
  return GenerateClustered(
      {.n = n, .dim = dim, .clusters = 12, .seed = seed});
}

// ------------------------------------------------------------ Validation --

TEST(DbLshBuildTest, RejectsEmptyDataset) {
  FloatMatrix empty(0, 8);
  DbLsh index;
  EXPECT_FALSE(index.Build(&empty).ok());
  EXPECT_FALSE(index.Build(nullptr).ok());
}

TEST(DbLshBuildTest, RejectsBadApproximationRatio) {
  const FloatMatrix data = EasyData(100);
  DbLshParams params;
  params.c = 1.0;
  DbLsh index(params);
  EXPECT_FALSE(index.Build(&data).ok());
  // Non-finite reals, which Load would refuse in the file Save writes.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  DbLshParams c_nan, c_inf, w0_inf, r0_inf, slack_nan;
  c_nan.c = nan;
  c_inf.c = inf;
  w0_inf.w0 = inf;
  r0_inf.r0 = inf;
  slack_nan.early_stop_slack = nan;
  const std::pair<const char*, DbLshParams> cases[] = {
      {"c = nan", c_nan},
      {"c = inf", c_inf},
      {"w0 = inf", w0_inf},
      {"r0 = inf", r0_inf},
      {"early_stop_slack = nan", slack_nan},
  };
  for (const auto& [what, bad] : cases) {
    SCOPED_TRACE(what);
    DbLsh non_finite(bad);
    const Status status = non_finite.Build(&data);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(DbLshBuildTest, RejectsZeroTables) {
  const FloatMatrix data = EasyData(100);
  DbLshParams params;
  params.l = 0;
  DbLsh index(params);
  EXPECT_FALSE(index.Build(&data).ok());
}

TEST(DbLshBuildTest, AutoDerivesPaperDefaults) {
  const FloatMatrix data = EasyData(2000);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto& p = index.params();
  EXPECT_DOUBLE_EQ(p.c, 1.5);
  EXPECT_DOUBLE_EQ(p.w0, 4.0 * 1.5 * 1.5);  // w0 = 4c^2
  EXPECT_EQ(p.k, 10u);                      // n <= 1M
  EXPECT_EQ(p.l, 5u);
  EXPECT_GE(p.t, 8u);
  EXPECT_EQ(index.NumHashFunctions(), p.k * p.l);
  EXPECT_EQ(index.IndexEntries(), p.l * data.rows());
}

// ------------------------------------------------------------- Accuracy --

TEST(DbLshQueryTest, FindsExactPointInDataset) {
  const FloatMatrix data = EasyData();
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  // Querying with a data point: its projection sits at the center of every
  // window, so a distance-0 hit must appear in the top-k. (For k = 1 the
  // c-ANN contract legitimately allows returning a within-c*r neighbor
  // instead, so k = 5 is used here.)
  for (uint32_t id : {0u, 100u, 2222u}) {
    const auto result = index.Query(data.row(id), 5);
    ASSERT_FALSE(result.empty());
    EXPECT_FLOAT_EQ(result[0].dist, 0.f);
  }
}

TEST(DbLshQueryTest, HighRecallOnClusteredData) {
  FloatMatrix data, queries;
  SplitQueries(EasyData(4000), 30, 51, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 10);
  DbLshParams params;
  params.t = 40;  // candidate budget 2tL = 400 (10% of n)
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&data).ok());
  double recall_sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto result = index.Query(queries.row(q), 10);
    recall_sum += eval::Recall(result, gt[q]);
  }
  EXPECT_GT(recall_sum / queries.rows(), 0.8);
}

TEST(DbLshQueryTest, OverallRatioNearOne) {
  FloatMatrix data, queries;
  SplitQueries(EasyData(4000), 30, 52, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 10);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  double ratio_sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    ratio_sum += eval::OverallRatio(index.Query(queries.row(q), 10), gt[q]);
  }
  EXPECT_LT(ratio_sum / queries.rows(), 1.15);
}

TEST(DbLshQueryTest, TheoreticalApproximationGuaranteeHolds) {
  // Theorem 1: c-ANN with ratio c^2 and probability >= 1/2 - 1/e. Measured
  // per query for k=1, the success rate must comfortably exceed that bound.
  FloatMatrix data, queries;
  SplitQueries(EasyData(3000), 50, 53, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 1);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const double c2 = index.params().c * index.params().c;
  size_t success = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto result = index.Query(queries.row(q), 1);
    ASSERT_FALSE(result.empty());
    if (result[0].dist <= c2 * gt[q][0].dist + 1e-4) ++success;
  }
  const double guarantee = 0.5 - 1.0 / M_E;  // ~0.132
  EXPECT_GT(double(success) / queries.rows(), guarantee);
}

TEST(DbLshQueryTest, KZeroReturnsEmpty) {
  const FloatMatrix data = EasyData(500);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  EXPECT_TRUE(index.Query(data.row(0), 0).empty());
}

TEST(DbLshQueryTest, KGreaterThanNReturnsAtMostN) {
  const FloatMatrix data = EasyData(64);
  DbLshParams params;
  params.t = 1000;  // budget large enough to see everything
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&data).ok());
  const auto result = index.Query(data.row(0), 1000);
  EXPECT_LE(result.size(), 64u);
  EXPECT_GT(result.size(), 0u);
}

TEST(DbLshQueryTest, ResultsSortedAscendingAndUnique) {
  const FloatMatrix data = EasyData(2000);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto result = index.Query(data.row(5), 20);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(result[i].dist, result[i - 1].dist);
  }
  std::vector<uint32_t> ids;
  for (const auto& nb : result) ids.push_back(nb.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

// --------------------------------------------------------------- Budget --

TEST(DbLshQueryTest, RespectsCandidateBudget) {
  const FloatMatrix data = EasyData(5000);
  DbLshParams params;
  params.t = 10;
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&data).ok());
  QueryStats stats;
  const size_t k = 5;
  index.Query(data.row(9), k, &stats);
  EXPECT_LE(stats.candidates_verified,
            2 * index.params().t * index.params().l + k);
}

TEST(DbLshQueryTest, HugeCandidateBudgetIsUnbounded) {
  // 2*t*L + k saturates: a t too large to count is no budget at all, so
  // it finds what a large finite budget finds, never what a budget wrapped
  // down to k finds.
  const FloatMatrix data = EasyData(2000, 16);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  QueryRequest request;
  request.k = 10;
  for (const uint32_t row : {3u, 400u, 1111u, 1999u}) {
    SCOPED_TRACE(row);
    request.candidate_budget = 100000;
    const QueryResponse bounded = index.Search(data.row(row), request);
    request.candidate_budget = size_t{1} << 63;
    const QueryResponse huge = index.Search(data.row(row), request);
    ASSERT_EQ(huge.neighbors.size(), bounded.neighbors.size());
    for (size_t i = 0; i < huge.neighbors.size(); ++i) {
      EXPECT_EQ(huge.neighbors[i].id, bounded.neighbors[i].id) << i;
    }
    EXPECT_GT(bounded.stats.candidates_verified, request.k);
    EXPECT_GE(huge.stats.candidates_verified,
              bounded.stats.candidates_verified);
  }
}

TEST(DbLshQueryTest, StatsArePopulated) {
  const FloatMatrix data = EasyData(2000);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  QueryStats stats;
  index.Query(data.row(0), 5, &stats);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.window_queries, 0u);
  EXPECT_GT(stats.candidates_verified, 0u);
}

// ---------------------------------------------------------------- RcNn --

TEST(DbLshRcNnTest, LargeRadiusFindsSomething) {
  const FloatMatrix data = EasyData(1000);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  // With a radius covering the whole data spread, case (1) of Definition 2
  // applies: the query must return a point within c*r.
  const double huge_r = 1e4;
  const auto result = index.RcNnQuery(data.row(0), huge_r);
  ASSERT_TRUE(result.has_value());
  EXPECT_LE(result->dist, index.params().c * huge_r);
}

TEST(DbLshRcNnTest, TinyRadiusOnIsolatedQueryFindsNothing) {
  // A query far from all points with r far below the true NN distance must
  // return nothing (case (2) of Definition 2).
  FloatMatrix data(100, 4);
  for (size_t i = 0; i < 100; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      data.at(i, j) = 100.f + static_cast<float>(i);
    }
  }
  DbLshParams params;
  params.r0 = 1.0;
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&data).ok());
  const float far_query[4] = {0.f, 0.f, 0.f, 0.f};
  const auto result = index.RcNnQuery(far_query, 1e-3);
  EXPECT_FALSE(result.has_value());
}

TEST(DbLshRcNnTest, ReturnedPointIsWithinCr) {
  const FloatMatrix data = EasyData(2000);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto gt = ExactKnn(data, data.row(42), 2);
  // r = true NN distance of a perturbed query: must return a c*r point.
  const double r = std::max<double>(gt[1].dist, 1e-3);
  const auto result = index.RcNnQuery(data.row(42), r);
  ASSERT_TRUE(result.has_value());
  EXPECT_LE(result->dist, index.params().c * r + 1e-4);
}

// ------------------------------------------------------------ FB ablation --

TEST(FbLshTest, FixedBucketingStillWorks) {
  FloatMatrix data, queries;
  SplitQueries(EasyData(3000), 20, 54, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 10);
  DbLsh fb(FbLshDefaultParams(data.rows()));
  ASSERT_TRUE(fb.Build(&data).ok());
  EXPECT_EQ(fb.Name(), "FB-LSH");
  double recall_sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    recall_sum += eval::Recall(fb.Query(queries.row(q), 10), gt[q]);
  }
  EXPECT_GT(recall_sum / queries.rows(), 0.4);
}

TEST(FbLshTest, DynamicBucketingBeatsFixedAtEqualBudget) {
  // The paper's central ablation: same (K,L)-index, same candidate budget;
  // query-centric buckets must reach at least the recall of fixed ones
  // (aggregated over queries to absorb randomness).
  FloatMatrix data, queries;
  SplitQueries(EasyData(4000, 32, 55), 40, 56, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 10);

  DbLshParams dynamic_params;
  dynamic_params.k = 8;
  dynamic_params.l = 5;
  dynamic_params.t = 30;
  DbLshParams fixed_params = dynamic_params;
  fixed_params.bucketing = BucketingMode::kFixedGrid;

  DbLsh dynamic_index(dynamic_params), fixed_index(fixed_params);
  ASSERT_TRUE(dynamic_index.Build(&data).ok());
  ASSERT_TRUE(fixed_index.Build(&data).ok());
  double dyn_recall = 0.0, fix_recall = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    dyn_recall += eval::Recall(dynamic_index.Query(queries.row(q), 10), gt[q]);
    fix_recall += eval::Recall(fixed_index.Query(queries.row(q), 10), gt[q]);
  }
  EXPECT_GE(dyn_recall, fix_recall - 1.0);  // allow 2.5% noise margin
}

// ----------------------------------------------------- Build variations --

TEST(DbLshBuildTest, InsertionBuildMatchesBulkLoadQuality) {
  FloatMatrix data, queries;
  SplitQueries(EasyData(1500), 15, 57, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 5);
  DbLshParams bulk_params;
  DbLshParams insert_params;
  insert_params.bulk_load = false;
  DbLsh bulk_index(bulk_params), insert_index(insert_params);
  ASSERT_TRUE(bulk_index.Build(&data).ok());
  ASSERT_TRUE(insert_index.Build(&data).ok());
  double bulk_recall = 0.0, insert_recall = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    bulk_recall += eval::Recall(bulk_index.Query(queries.row(q), 5), gt[q]);
    insert_recall +=
        eval::Recall(insert_index.Query(queries.row(q), 5), gt[q]);
  }
  // Same projections, same buckets: identical candidates, identical recall.
  EXPECT_NEAR(bulk_recall, insert_recall, 1e-9);
}

TEST(DbLshBuildTest, DeterministicAcrossRebuilds) {
  const FloatMatrix data = EasyData(1000);
  DbLsh a, b;
  ASSERT_TRUE(a.Build(&data).ok());
  ASSERT_TRUE(b.Build(&data).ok());
  for (uint32_t q : {3u, 77u, 500u}) {
    const auto ra = a.Query(data.row(q), 5);
    const auto rb = b.Query(data.row(q), 5);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i].id, rb[i].id);
  }
}

TEST(DbLshBuildTest, WorksOnTinyDataset) {
  const FloatMatrix data = EasyData(12);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto result = index.Query(data.row(0), 3);
  EXPECT_FALSE(result.empty());
  EXPECT_FLOAT_EQ(result[0].dist, 0.f);
}

TEST(DbLshBuildTest, HighDimensionalData) {
  const FloatMatrix data = EasyData(800, 256, 58);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto result = index.Query(data.row(1), 5);
  ASSERT_FALSE(result.empty());
  EXPECT_FLOAT_EQ(result[0].dist, 0.f);
}

// ------------------------------------------------------ Candidate stream --

// Pins the exact candidate stream: every id the index hands to
// verification, in arrival order (seen through a pass-through filter),
// plus the QueryStats counts, folded into one FNV-1a digest over ~50
// queries. Any change to the R*-tree's node layout that keeps its
// algorithms and its child/entry order must reproduce these constants.
// Scalar kernels make the projections, and so the digest, independent of
// the host's SIMD tier.
class CandidateStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(simd::ForceKernel(simd::KernelKind::kScalar).ok());
  }
  void TearDown() override { simd::UseAutoKernel(); }

  static FloatMatrix Data() { return EasyData(2000, 24, 61); }

  /// Query q of the pinned 50: a data row nudged off-grid, so it is not
  /// an indexed point.
  static std::vector<float> Probe(const FloatMatrix& data, uint32_t q) {
    const uint32_t row = (q * 37 + 11) % 2000;
    std::vector<float> query(data.row(row), data.row(row) + data.cols());
    query[q % data.cols()] += 0.5f;
    return query;
  }

  static uint64_t Digest(const DbLsh& index, const FloatMatrix& data) {
    std::vector<uint64_t> words;
    for (uint32_t q = 0; q < 50; ++q) {
      const std::vector<float> query = Probe(data, q);
      QueryRequest request;
      request.k = 10;
      std::vector<uint32_t> ids;
      request.filter = QueryFilter::Of([&ids](uint32_t id) {
        ids.push_back(id);
        return true;
      });
      const QueryResponse response = index.Search(query.data(), request);
      words.insert(words.end(), ids.begin(), ids.end());
      words.push_back(response.stats.candidates_verified);
      words.push_back(response.stats.points_accessed);
      words.push_back(response.stats.rounds);
      words.push_back(response.stats.window_queries);
      for (const Neighbor& n : response.neighbors) words.push_back(n.id);
    }
    return util::Fnv1a64(util::BytesOf(words));
  }

  /// The verify output over a store of `kind` (pq: m = 8), with the index
  /// built under a decode view as Collection builds it. Each query runs
  /// twice: through the pass-through filter (candidate ids in arrival
  /// order, plus the stats), then unfiltered (each answer's id and the
  /// bits of its distance, so the store's scores are pinned, not just
  /// their order).
  static uint64_t StoreDigest(StorageKind kind) {
    const FloatMatrix data = Data();
    auto store =
        MakeVectorStore(kind, std::make_unique<FloatMatrix>(data), 8);
    DbLsh index;
    {
      ScopedDecodeView view(store.get());
      EXPECT_TRUE(index.Build(&store->matrix()).ok());
    }
    std::vector<uint64_t> words;
    for (uint32_t q = 0; q < 50; ++q) {
      const std::vector<float> query = Probe(data, q);
      QueryRequest request;
      request.k = 10;
      std::vector<uint32_t> ids;
      request.filter = QueryFilter::Of([&ids](uint32_t id) {
        ids.push_back(id);
        return true;
      });
      const QueryStats stats = index.Search(query.data(), request).stats;
      words.insert(words.end(), ids.begin(), ids.end());
      words.push_back(stats.candidates_verified);
      words.push_back(stats.points_accessed);
      words.push_back(stats.rounds);
      words.push_back(stats.window_queries);
      request.filter = QueryFilter();
      for (const Neighbor& n :
           index.Search(query.data(), request).neighbors) {
        words.push_back(n.id);
        words.push_back(std::bit_cast<uint32_t>(n.dist));
      }
    }
    return util::Fnv1a64(util::BytesOf(words));
  }
};

TEST_F(CandidateStreamTest, BulkLoaded) {
  const FloatMatrix data = Data();
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  EXPECT_EQ(Digest(index, data), 0x34692661d286be5full);
}

TEST_F(CandidateStreamTest, InsertBuilt) {
  const FloatMatrix data = Data();
  DbLshParams params;
  params.bulk_load = false;  // R* insertion: splits and forced reinserts
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&data).ok());
  EXPECT_EQ(Digest(index, data), 0xadea5f6fd5abd101ull);
}

TEST_F(CandidateStreamTest, BulkLoadedThenMutated) {
  FloatMatrix data = Data();
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  // ~100 erases (condense + orphan reinsertion), then ~100 inserts: the
  // first ones recycle the erased slots, the rest append.
  for (uint32_t i = 0; i < 100; ++i) {
    const uint32_t id = (i * 53 + 7) % 2000;
    if (data.IsDeleted(id)) continue;
    ASSERT_TRUE(data.EraseRow(id).ok());
    ASSERT_TRUE(index.Erase(id).ok()) << id;
  }
  Rng rng(62);
  std::vector<float> v(data.cols());
  for (int i = 0; i < 120; ++i) {
    const uint32_t source = static_cast<uint32_t>(rng.UniformInt(2000));
    for (size_t j = 0; j < v.size(); ++j) {
      v[j] = data.IsDeleted(source)
                 ? static_cast<float>(rng.Uniform(0, 100))
                 : data.row(source)[j] + static_cast<float>(rng.Gaussian());
    }
    const uint32_t id = data.InsertRow(v.data(), v.size());
    ASSERT_TRUE(index.Insert(id).ok()) << id;
  }
  EXPECT_EQ(Digest(index, data), 0xcf0fc371cc5ebb7full);
}

TEST_F(CandidateStreamTest, Fp32Store) {
  EXPECT_EQ(StoreDigest(StorageKind::kFp32), 0xaa47a9d46025c6b0ull);
}

TEST_F(CandidateStreamTest, Sq8Store) {
  EXPECT_EQ(StoreDigest(StorageKind::kSq8), 0x42edc9ba5c3c73f5ull);
}

TEST_F(CandidateStreamTest, PqStore) {
  EXPECT_EQ(StoreDigest(StorageKind::kPq), 0xa743a99d816ab9e3ull);
}

}  // namespace
}  // namespace dblsh
