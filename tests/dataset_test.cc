#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "dataset/float_matrix.h"
#include "dataset/ground_truth.h"
#include "dataset/stats.h"
#include "dataset/synthetic.h"
#include "util/distance.h"
#include "util/vecs.h"

namespace dblsh {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ------------------------------------------------------------ FloatMatrix --

TEST(FloatMatrixTest, ConstructAndAccess) {
  FloatMatrix m(3, 2);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  m.at(1, 1) = 5.f;
  EXPECT_FLOAT_EQ(m.at(1, 1), 5.f);
  EXPECT_FLOAT_EQ(m.row(1)[1], 5.f);
}

TEST(FloatMatrixTest, AppendRowDefinesWidth) {
  FloatMatrix m;
  const float r0[] = {1.f, 2.f, 3.f};
  m.AppendRow(r0, 3);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.rows(), 1u);
  const float r1[] = {4.f, 5.f, 6.f};
  m.AppendRow(r1, 3);
  EXPECT_FLOAT_EQ(m.at(1, 2), 6.f);
}

TEST(FloatMatrixTest, PrefixCopiesLeadingRows) {
  FloatMatrix m(5, 2);
  for (size_t i = 0; i < 5; ++i) m.at(i, 0) = static_cast<float>(i);
  const FloatMatrix p = m.Prefix(3);
  EXPECT_EQ(p.rows(), 3u);
  EXPECT_FLOAT_EQ(p.at(2, 0), 2.f);
}

// --------------------------------------------------------------------- IO --

// Writes `m` as an .fvecs file, one `int32 d` header per row.
void WriteFvecsFile(const FloatMatrix& m, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  const int32_t dim = static_cast<int32_t>(m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(m.row(i)),
              static_cast<std::streamsize>(m.cols() * sizeof(float)));
  }
}

// Loads an .fvecs file into a FloatMatrix through util::ReadFvecs.
Result<FloatMatrix> LoadFvecsMatrix(const std::string& path,
                                    size_t max_rows = 0) {
  auto read = util::ReadFvecs(path, max_rows);
  if (!read.ok()) return read.status();
  util::FvecsData rows = std::move(read).value();
  const size_t count = rows.count();
  return FloatMatrix(count, rows.dim, std::move(rows.values));
}

TEST(IoTest, FvecsRoundTrip) {
  FloatMatrix m(4, 3);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      m.at(i, j) = static_cast<float>(i * 10 + j);
    }
  }
  const std::string path = TempPath("dblsh_roundtrip.fvecs");
  WriteFvecsFile(m, path);
  auto loaded = LoadFvecsMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows(), 4u);
  EXPECT_EQ(loaded.value().cols(), 3u);
  EXPECT_FLOAT_EQ(loaded.value().at(2, 1), 21.f);
  std::remove(path.c_str());
}

TEST(IoTest, FvecsMaxRowsTruncates) {
  FloatMatrix m(10, 2);
  const std::string path = TempPath("dblsh_maxrows.fvecs");
  WriteFvecsFile(m, path);
  auto loaded = LoadFvecsMatrix(path, 4);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().rows(), 4u);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIoError) {
  auto r = LoadFvecsMatrix("/nonexistent/definitely/missing.fvecs");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoTest, TruncatedRecordIsCorruption) {
  const std::string path = TempPath("dblsh_truncated.fvecs");
  {
    std::ofstream out(path, std::ios::binary);
    const int32_t dim = 8;
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    const float partial[3] = {1.f, 2.f, 3.f};  // 8 promised, 3 written
    out.write(reinterpret_cast<const char*>(partial), sizeof(partial));
  }
  auto r = LoadFvecsMatrix(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IoTest, NegativeDimensionIsCorruption) {
  const std::string path = TempPath("dblsh_negdim.fvecs");
  {
    std::ofstream out(path, std::ios::binary);
    const int32_t dim = -5;
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  }
  auto r = LoadFvecsMatrix(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IoTest, InconsistentDimensionsIsCorruption) {
  const std::string path = TempPath("dblsh_mixdim.fvecs");
  {
    std::ofstream out(path, std::ios::binary);
    int32_t dim = 2;
    const float row2[2] = {1.f, 2.f};
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(row2), sizeof(row2));
    dim = 3;
    const float row3[3] = {1.f, 2.f, 3.f};
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(row3), sizeof(row3));
  }
  auto r = LoadFvecsMatrix(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IoTest, BvecsWidensToFloat) {
  const std::string path = TempPath("dblsh_bytes.bvecs");
  {
    std::ofstream out(path, std::ios::binary);
    const int32_t dim = 4;
    const uint8_t bytes[4] = {0, 1, 128, 255};
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(bytes), sizeof(bytes));
  }
  auto r = util::ReadBvecsAsFloat(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  util::FvecsData rows = std::move(r).value();
  const size_t count = rows.count();
  const FloatMatrix m(count, rows.dim, std::move(rows.values));
  EXPECT_FLOAT_EQ(m.at(0, 3), 255.f);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- Synthetic --

TEST(SyntheticTest, ClusteredHasRequestedShape) {
  ClusteredSpec spec;
  spec.n = 500;
  spec.dim = 16;
  const FloatMatrix m = GenerateClustered(spec);
  EXPECT_EQ(m.rows(), 500u);
  EXPECT_EQ(m.cols(), 16u);
}

TEST(SyntheticTest, ClusteredIsDeterministicPerSeed) {
  ClusteredSpec spec;
  spec.n = 50;
  spec.dim = 8;
  const FloatMatrix a = GenerateClustered(spec);
  const FloatMatrix b = GenerateClustered(spec);
  EXPECT_EQ(a.data(), b.data());
  spec.seed = 1234;
  const FloatMatrix c = GenerateClustered(spec);
  EXPECT_NE(a.data(), c.data());
}

TEST(SyntheticTest, ClusteredPointsConcentrateAroundCenters) {
  // Points within a cluster are much closer to each other than the center
  // spread, so the sample NN distance must be far below it.
  ClusteredSpec spec;
  spec.n = 2000;
  spec.dim = 16;
  spec.clusters = 5;
  spec.center_spread = 200.0;
  spec.cluster_stddev = 1.0;
  const FloatMatrix m = GenerateClustered(spec);
  const double nn = EstimateNnDistance(m, 77);
  EXPECT_LT(nn, 30.0);
  EXPECT_GT(nn, 0.0);
}

TEST(SyntheticTest, UniformCoversRange) {
  const FloatMatrix m = GenerateUniform(1000, 4, 10.0, 3);
  float lo = 1e9f, hi = -1e9f;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      lo = std::min(lo, m.at(i, j));
      hi = std::max(hi, m.at(i, j));
    }
  }
  EXPECT_GE(lo, 0.f);
  EXPECT_LT(hi, 10.f);
  EXPECT_LT(lo, 1.f);   // near the edges with 4000 samples
  EXPECT_GT(hi, 9.f);
}

TEST(SyntheticTest, LowIntrinsicDimIsFlat) {
  // With intrinsic dim 2 in ambient dim 32 and tiny noise, distances to the
  // best-fit plane are small; a crude proxy: variance is captured by few
  // directions, so pairwise distances are much smaller than an isotropic
  // cloud with the same coordinate magnitudes would have.
  const FloatMatrix flat = GenerateLowIntrinsicDim(500, 32, 2, 0.01, 5);
  EXPECT_EQ(flat.rows(), 500u);
  EXPECT_EQ(flat.cols(), 32u);
}

TEST(SyntheticTest, ProfilesProduceAllTenDatasets) {
  const auto profiles = PaperDatasetProfiles(0.01);
  ASSERT_EQ(profiles.size(), 10u);
  EXPECT_EQ(profiles[0].name, "Audio");
  EXPECT_EQ(profiles[9].name, "SIFT100M");
  // Relative ordering of cardinalities is preserved.
  EXPECT_LT(profiles[0].n, profiles[9].n);
  const FloatMatrix m = GenerateProfile(profiles[0]);
  EXPECT_EQ(m.rows(), profiles[0].n);
  EXPECT_EQ(m.cols(), profiles[0].dim);
}

TEST(SyntheticTest, SplitQueriesPartitionsData) {
  const FloatMatrix all = GenerateUniform(100, 4, 10.0, 3);
  FloatMatrix data, queries;
  SplitQueries(all, 10, 99, &data, &queries);
  EXPECT_EQ(queries.rows(), 10u);
  EXPECT_EQ(data.rows(), 90u);
  EXPECT_EQ(data.cols(), 4u);
}

// ----------------------------------------------------------- GroundTruth --

TEST(GroundTruthTest, ExactKnnMatchesManualScan) {
  FloatMatrix data(5, 1);
  for (size_t i = 0; i < 5; ++i) data.at(i, 0) = static_cast<float>(i * i);
  const float query[] = {3.f};  // distances: 3,2,1,6,13
  const auto knn = ExactKnn(data, query, 2);
  ASSERT_EQ(knn.size(), 2u);
  EXPECT_EQ(knn[0].id, 2u);
  EXPECT_FLOAT_EQ(knn[0].dist, 1.f);
  EXPECT_EQ(knn[1].id, 1u);
}

TEST(GroundTruthTest, KLargerThanNReturnsAll) {
  FloatMatrix data(3, 2);
  const float query[] = {0.f, 0.f};
  EXPECT_EQ(ExactKnn(data, query, 10).size(), 3u);
}

TEST(GroundTruthTest, BatchMatchesSingle) {
  const FloatMatrix data = GenerateUniform(200, 8, 10.0, 3);
  const FloatMatrix queries = GenerateUniform(5, 8, 10.0, 4);
  const auto batch = ComputeGroundTruth(data, queries, 7);
  ASSERT_EQ(batch.size(), 5u);
  for (size_t q = 0; q < 5; ++q) {
    const auto single = ExactKnn(data, queries.row(q), 7);
    ASSERT_EQ(batch[q].size(), single.size());
    for (size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batch[q][i].id, single[i].id);
    }
  }
}

TEST(StatsTest, EasyClustersHaveHighRelativeContrast) {
  // Well-separated clusters: the 1-NN is in-cluster (close) while the mean
  // distance spans clusters (far) -> RC >> 1.
  const FloatMatrix easy = GenerateClustered({.n = 2000,
                                              .dim = 32,
                                              .clusters = 10,
                                              .center_spread = 200.0,
                                              .cluster_stddev = 1.0,
                                              .seed = 61});
  const DatasetStats s = EstimateStats(easy, 30);
  EXPECT_GT(s.relative_contrast, 5.0);
  EXPECT_GT(s.mean_distance, s.mean_nn_distance);
}

TEST(StatsTest, OverlappingClustersLowerContrastAndRaiseLid) {
  const FloatMatrix easy = GenerateClustered({.n = 2000,
                                              .dim = 32,
                                              .clusters = 10,
                                              .center_spread = 200.0,
                                              .cluster_stddev = 1.0,
                                              .seed = 62});
  const FloatMatrix hard = GenerateClustered({.n = 2000,
                                              .dim = 32,
                                              .clusters = 10,
                                              .center_spread = 5.0,
                                              .cluster_stddev = 2.0,
                                              .seed = 62});
  const DatasetStats se = EstimateStats(easy, 30);
  const DatasetStats sh = EstimateStats(hard, 30);
  EXPECT_LT(sh.relative_contrast, se.relative_contrast);
  EXPECT_GT(sh.lid, se.lid);
}

TEST(StatsTest, DegenerateInputsAreSafe) {
  FloatMatrix tiny(2, 4);
  const DatasetStats s = EstimateStats(tiny);
  EXPECT_DOUBLE_EQ(s.relative_contrast, 0.0);
  FloatMatrix dupes(100, 4);  // all identical points
  const DatasetStats d = EstimateStats(dupes, 10);
  EXPECT_DOUBLE_EQ(d.mean_nn_distance, 0.0);
}

TEST(GroundTruthTest, EstimateNnDistanceIsPositiveAndPlausible) {
  const FloatMatrix data = GenerateUniform(2000, 4, 10.0, 3);
  const double est = EstimateNnDistance(data, 5);
  EXPECT_GT(est, 0.0);
  EXPECT_LT(est, 10.0 * 2.0);  // cannot exceed the diagonal
}

}  // namespace
}  // namespace dblsh
