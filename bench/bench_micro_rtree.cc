// Micro-benchmarks for the R*-tree substrate (google-benchmark): STR bulk
// loading vs insertion throughput, window queries, and cursor streaming
// (a few candidates per window, and whole windows drained at DB-LSH's
// end-to-end scale). Window queries and cursors run once per SIMD tier.
// These quantify the "efficient window queries via multi-dimensional
// indexes" claim underlying DB-LSH's dynamic bucketing overhead argument.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "dataset/synthetic.h"
#include "lsh/projection.h"
#include "rtree/rtree.h"
#include "simd/simd.h"
#include "util/random.h"

namespace dblsh::rtree {
namespace {

FloatMatrix MakePoints(size_t n, size_t dim) {
  return GenerateClustered({.n = n,
                            .dim = dim,
                            .clusters = 32,
                            .center_spread = 100.0,
                            .cluster_stddev = 2.0,
                            .seed = 91});
}

void BM_BulkLoad(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const FloatMatrix points = MakePoints(n, 10);
  for (auto _ : state) {
    RStarTree tree(points.cols());
    benchmark::DoNotOptimize(tree.BulkLoadAll(points));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BulkLoad)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_InsertBuild(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const FloatMatrix points = MakePoints(n, 10);
  for (auto _ : state) {
    RStarTree tree(points.cols());
    for (uint32_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(tree.Insert(i, points.row(i)));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_InsertBuild)->Arg(1000)->Arg(10000);

// The window queries and cursors below take the SIMD tier (a
// simd::KernelKind: 0 scalar, 1 avx2, 2 avx512) as their last argument:
// the cursor tests each node with that tier's window kernel.
const std::vector<int64_t> kTiers = {0, 1, 2};

/// Pins the tier in argument `arg` for the run; false, with the run
/// skipped, when this CPU or binary lacks it.
bool PinTier(benchmark::State& state, int arg) {
  const auto kind = static_cast<simd::KernelKind>(state.range(arg));
  if (!simd::ForceKernel(kind).ok()) {
    state.SkipWithError("SIMD tier not supported here");
    return false;
  }
  state.SetLabel(simd::KernelName(kind));
  return true;
}

void BM_WindowQuery(benchmark::State& state) {
  const FloatMatrix points = MakePoints(50000, 10);
  RStarTree tree(points.cols());
  (void)tree.BulkLoadAll(points);
  Rng rng(92);
  std::vector<uint32_t> out;
  if (!PinTier(state, 1)) return;
  for (auto _ : state) {
    out.clear();
    const uint32_t anchor = static_cast<uint32_t>(rng.UniformInt(50000));
    tree.WindowQuery(
        Rect::Window(points.row(anchor), 10, double(state.range(0))), &out);
    benchmark::DoNotOptimize(out.data());
  }
  simd::UseAutoKernel();
}
BENCHMARK(BM_WindowQuery)
    ->ArgsProduct({{2, 8, 32}, kTiers})
    ->ArgNames({"width", "tier"});

void BM_CursorFirstTen(benchmark::State& state) {
  // DB-LSH's access pattern: open a window cursor, take a few candidates,
  // abandon the rest.
  const FloatMatrix points = MakePoints(50000, 10);
  RStarTree tree(points.cols());
  (void)tree.BulkLoadAll(points);
  Rng rng(93);
  if (!PinTier(state, 0)) return;
  for (auto _ : state) {
    const uint32_t anchor = static_cast<uint32_t>(rng.UniformInt(50000));
    RStarTree::WindowCursor cursor(
        &tree, Rect::Window(points.row(anchor), 10, 16.0));
    uint32_t id = 0;
    int taken = 0;
    while (taken < 10 && cursor.Next(&id)) ++taken;
    benchmark::DoNotOptimize(taken);
  }
  simd::UseAutoKernel();
}
BENCHMARK(BM_CursorFirstTen)->ArgsProduct({kTiers})->ArgNames({"tier"});

// One DB-LSH projected space at the end-to-end benchmark's scale: the
// 100k x 128 SIFT10M stand-in (64 clusters, spread 30, stddev 2) projected
// onto K = 10 2-stable directions, with window centers at the projections
// of 1000 held-out rows.
struct ProjectedSpace {
  FloatMatrix points;   // 100000 x 10
  FloatMatrix centers;  // 1000 x 10
};

const ProjectedSpace& DbLshSpace() {
  static const ProjectedSpace space = [] {
    const FloatMatrix rows = GenerateClustered({.n = 101000,
                                                .dim = 128,
                                                .clusters = 64,
                                                .center_spread = 30.0,
                                                .cluster_stddev = 2.0,
                                                .seed = 1});
    const lsh::ProjectionBank bank(10, 128, 94);
    const FloatMatrix all = bank.ProjectDataset(rows);
    ProjectedSpace s{FloatMatrix(100000, 10), FloatMatrix(1000, 10)};
    for (size_t i = 0; i < all.rows(); ++i) {
      float* out = i < 100000 ? s.points.mutable_row(i)
                              : s.centers.mutable_row(i - 100000);
      std::copy_n(all.row(i), 10, out);
    }
    return s;
  }();
  return space;
}

void BM_CursorDrain(benchmark::State& state) {
  // Drains whole windows of the width DB-LSH opens on this space (a
  // window holds ~650 points on average); items/s is points yielded.
  const ProjectedSpace& space = DbLshSpace();
  constexpr double kWidth = 110.0;
  RStarTree tree(space.points.cols());
  (void)tree.BulkLoadAll(space.points);
  size_t q = 0, yielded = 0, windows = 0;
  if (!PinTier(state, 0)) return;
  for (auto _ : state) {
    RStarTree::WindowCursor cursor(
        &tree, Rect::Window(space.centers.row(q), 10, kWidth));
    q = (q + 1) % space.centers.rows();
    uint32_t id = 0;
    while (cursor.Next(&id)) ++yielded;
    ++windows;
  }
  simd::UseAutoKernel();
  state.SetItemsProcessed(static_cast<int64_t>(yielded));
  state.counters["points_per_window"] =
      static_cast<double>(yielded) / static_cast<double>(windows);
}
BENCHMARK(BM_CursorDrain)->ArgsProduct({kTiers})->ArgNames({"tier"});

}  // namespace
}  // namespace dblsh::rtree

BENCHMARK_MAIN();
