// Property tests for the R*-tree: for every combination of dimensionality,
// node capacity and construction mode, the tree must agree exactly with a
// brute-force scan on random window queries, stream the same ids in the
// same order on every SIMD tier, and preserve its structural invariants
// under mixed insert/remove workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <tuple>
#include <vector>

#include "dataset/synthetic.h"
#include "rtree/rtree.h"
#include "simd/simd.h"
#include "util/random.h"

namespace dblsh::rtree {
namespace {

struct Config {
  size_t dim;
  size_t max_entries;
  bool bulk;
};

class RTreePropertyTest : public ::testing::TestWithParam<Config> {
 protected:
  // A test that pins a SIMD tier leaves auto dispatch behind it.
  void TearDown() override { simd::UseAutoKernel(); }

  static FloatMatrix MakeData(size_t n, size_t dim) {
    return GenerateClustered({.n = n,
                              .dim = dim,
                              .clusters = 8,
                              .center_spread = 50.0,
                              .cluster_stddev = 3.0,
                              .seed = dim * 1000 + n});
  }

  static std::vector<uint32_t> Brute(const FloatMatrix& points,
                                     const Rect& window) {
    std::vector<uint32_t> out;
    for (size_t i = 0; i < points.rows(); ++i) {
      if (window.ContainsPoint(points.row(i))) {
        out.push_back(static_cast<uint32_t>(i));
      }
    }
    return out;
  }
};

TEST_P(RTreePropertyTest, WindowQueriesMatchBruteForce) {
  const Config& cfg = GetParam();
  const FloatMatrix points = MakeData(1200, cfg.dim);
  RTreeOptions options;
  options.max_entries = cfg.max_entries;
  RStarTree tree(points.cols(), options);
  if (cfg.bulk) {
    ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  } else {
    for (uint32_t i = 0; i < points.rows(); ++i) {
      ASSERT_TRUE(tree.Insert(i, points.row(i)).ok());
    }
  }
  ASSERT_EQ(tree.CheckInvariants(), 0u);

  Rng rng(cfg.dim * 31 + cfg.max_entries);
  for (int trial = 0; trial < 25; ++trial) {
    const uint32_t anchor =
        static_cast<uint32_t>(rng.UniformInt(points.rows()));
    const Rect window = Rect::Window(points.row(anchor), cfg.dim,
                                     rng.Uniform(0.5, 40.0));
    std::vector<uint32_t> got;
    tree.WindowQuery(window, &got);
    std::vector<uint32_t> expected = Brute(points, window);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST_P(RTreePropertyTest, MixedInsertRemoveKeepsInvariants) {
  const Config& cfg = GetParam();
  const FloatMatrix points = MakeData(600, cfg.dim);
  RTreeOptions options;
  options.max_entries = cfg.max_entries;
  RStarTree tree(points.cols(), options);
  Rng rng(cfg.dim * 71 + cfg.max_entries);
  std::set<uint32_t> present;
  if (cfg.bulk) {
    std::vector<uint32_t> half;
    for (uint32_t i = 0; i < 300; ++i) half.push_back(i);
    ASSERT_TRUE(tree.BulkLoad(points, half).ok());
    present.insert(half.begin(), half.end());
  }
  for (int op = 0; op < 800; ++op) {
    const uint32_t id = static_cast<uint32_t>(rng.UniformInt(600));
    if (present.count(id)) {
      ASSERT_TRUE(tree.Remove(id).ok()) << "remove " << id;
      present.erase(id);
    } else {
      ASSERT_TRUE(tree.Insert(id, points.row(id)).ok()) << "insert " << id;
      present.insert(id);
    }
    if (op % 100 == 99) {
      ASSERT_EQ(tree.CheckInvariants(), 0u) << "op " << op;
    }
  }
  EXPECT_EQ(tree.size(), present.size());
  // Full-space window sees exactly the present set.
  Rect everything(cfg.dim);
  for (size_t j = 0; j < cfg.dim; ++j) {
    everything.lo(j) = -1e9f;
    everything.hi(j) = 1e9f;
  }
  std::vector<uint32_t> got;
  tree.WindowQuery(everything, &got);
  std::sort(got.begin(), got.end());
  std::vector<uint32_t> expected(present.begin(), present.end());
  EXPECT_EQ(got, expected);
}

TEST_P(RTreePropertyTest, PointReturnsTheStoredCoordinates) {
  // The tree owns its points: after mixed inserts and removes, Point()
  // returns bit-for-bit the coordinates each indexed id was given, and
  // nullptr for every id it does not hold.
  const Config& cfg = GetParam();
  const FloatMatrix points = MakeData(600, cfg.dim);
  RTreeOptions options;
  options.max_entries = cfg.max_entries;
  RStarTree tree(points.cols(), options);
  Rng rng(cfg.dim * 97 + cfg.max_entries);
  std::set<uint32_t> present;
  if (cfg.bulk) {
    std::vector<uint32_t> half;
    for (uint32_t i = 0; i < 300; ++i) half.push_back(i);
    ASSERT_TRUE(tree.BulkLoad(points, half).ok());
    present.insert(half.begin(), half.end());
  }
  for (int op = 0; op < 800; ++op) {
    const uint32_t id = static_cast<uint32_t>(rng.UniformInt(600));
    if (present.count(id)) {
      ASSERT_TRUE(tree.Remove(id).ok()) << "remove " << id;
      present.erase(id);
    } else {
      ASSERT_TRUE(tree.Insert(id, points.row(id)).ok()) << "insert " << id;
      present.insert(id);
    }
  }
  ASSERT_EQ(tree.CheckInvariants(), 0u);
  for (uint32_t id = 0; id < 600; ++id) {
    const float* stored = tree.Point(id);
    if (!present.count(id)) {
      EXPECT_EQ(stored, nullptr) << "id " << id;
      continue;
    }
    ASSERT_NE(stored, nullptr) << "id " << id;
    EXPECT_EQ(std::memcmp(stored, points.row(id), cfg.dim * sizeof(float)),
              0)
        << "id " << id;
  }
  EXPECT_EQ(tree.Point(600), nullptr);  // never seen
}

TEST_P(RTreePropertyTest, CursorAgreesWithBatchQuery) {
  const Config& cfg = GetParam();
  const FloatMatrix points = MakeData(900, cfg.dim);
  RTreeOptions options;
  options.max_entries = cfg.max_entries;
  RStarTree tree(points.cols(), options);
  if (cfg.bulk) {
    ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  } else {
    for (uint32_t i = 0; i < points.rows(); ++i) {
      ASSERT_TRUE(tree.Insert(i, points.row(i)).ok());
    }
  }
  Rng rng(cfg.dim * 13 + cfg.max_entries);
  for (int trial = 0; trial < 10; ++trial) {
    const uint32_t anchor =
        static_cast<uint32_t>(rng.UniformInt(points.rows()));
    const Rect window = Rect::Window(points.row(anchor), cfg.dim,
                                     rng.Uniform(1.0, 30.0));
    // WindowQuery drains a cursor, so the cursor is checked against the
    // brute-force scan rather than against WindowQuery.
    std::vector<uint32_t> streamed;
    RStarTree::WindowCursor cursor(&tree, window);
    uint32_t id;
    while (cursor.Next(&id)) streamed.push_back(id);
    std::sort(streamed.begin(), streamed.end());
    EXPECT_EQ(streamed, Brute(points, window));
  }
}

TEST_P(RTreePropertyTest, CursorOrderIsTheSameOnEveryTier) {
  // The cursor tests a node's slots with the active SIMD tier's window
  // kernel; the ids must come out in the same order, not only as the same
  // set, whichever tier runs. Half the windows span two indexed points, so
  // those points and their neighbours lie exactly on the window's faces.
  const Config& cfg = GetParam();
  const FloatMatrix points = MakeData(1200, cfg.dim);
  RTreeOptions options;
  options.max_entries = cfg.max_entries;
  RStarTree tree(points.cols(), options);
  if (cfg.bulk) {
    ASSERT_TRUE(tree.BulkLoadAll(points).ok());
  } else {
    for (uint32_t i = 0; i < points.rows(); ++i) {
      ASSERT_TRUE(tree.Insert(i, points.row(i)).ok());
    }
  }
  std::vector<simd::KernelKind> tiers = {simd::KernelKind::kScalar};
  for (const auto kind : {simd::KernelKind::kAvx2, simd::KernelKind::kAvx512}) {
    if (simd::Supported(kind)) tiers.push_back(kind);
  }
  Rng rng(cfg.dim * 53 + cfg.max_entries);
  size_t yielded = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(points.rows()));
    Rect window = Rect::Window(points.row(a), cfg.dim, rng.Uniform(1.0, 40.0));
    if (trial % 2 == 1) {
      const uint32_t b = static_cast<uint32_t>(rng.UniformInt(points.rows()));
      for (size_t j = 0; j < cfg.dim; ++j) {
        window.lo(j) = std::min(points.at(a, j), points.at(b, j));
        window.hi(j) = std::max(points.at(a, j), points.at(b, j));
      }
    }
    std::vector<std::vector<uint32_t>> streams;
    for (const simd::KernelKind kind : tiers) {
      ASSERT_TRUE(simd::ForceKernel(kind).ok());
      std::vector<uint32_t>& ids = streams.emplace_back();
      RStarTree::WindowCursor cursor(&tree, window);
      uint32_t id;
      while (cursor.Next(&id)) ids.push_back(id);
    }
    yielded += streams[0].size();
    for (size_t t = 1; t < tiers.size(); ++t) {
      EXPECT_EQ(streams[t], streams[0])
          << simd::KernelName(tiers[t]) << ", window " << trial;
    }
  }
  EXPECT_GT(yielded, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreePropertyTest,
    ::testing::Values(Config{2, 8, true}, Config{2, 8, false},
                      Config{2, 32, true}, Config{4, 16, true},
                      Config{4, 16, false}, Config{8, 32, true},
                      Config{8, 32, false}, Config{12, 48, true},
                      Config{16, 32, true}, Config{20, 100, true},
                      Config{20, 100, false}),
    [](const auto& info) {
      return "dim" + std::to_string(info.param.dim) + "_cap" +
             std::to_string(info.param.max_entries) +
             (info.param.bulk ? "_bulk" : "_insert");
    });

}  // namespace
}  // namespace dblsh::rtree
