#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "util/distance.h"
#include "util/perfmon.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/top_k_heap.h"
#include "util/vecs.h"

namespace dblsh {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, ReseedResetsStream) {
  Rng rng(42);
  const uint64_t first = rng.NextU64();
  rng.NextU64();
  rng.Seed(42);
  EXPECT_EQ(rng.NextU64(), first);
}

// -------------------------------------------------------------- Distance --

TEST(DistanceTest, L2KnownValues) {
  const float a[] = {0.f, 0.f, 0.f};
  const float b[] = {1.f, 2.f, 2.f};
  EXPECT_FLOAT_EQ(L2DistanceSquared(a, b, 3), 9.f);
  EXPECT_FLOAT_EQ(L2Distance(a, b, 3), 3.f);
}

TEST(DistanceTest, ZeroDistanceToSelf) {
  const float a[] = {1.5f, -2.f, 3.f, 0.25f, 9.f};
  EXPECT_FLOAT_EQ(L2DistanceSquared(a, a, 5), 0.f);
}

TEST(DistanceTest, HandlesNonMultipleOfFourDims) {
  // Exercises the scalar tail of the unrolled kernel.
  for (size_t dim = 1; dim <= 9; ++dim) {
    std::vector<float> a(dim), b(dim);
    float expected = 0.f;
    for (size_t j = 0; j < dim; ++j) {
      a[j] = static_cast<float>(j);
      b[j] = static_cast<float>(2 * j + 1);
      const float d = a[j] - b[j];
      expected += d * d;
    }
    EXPECT_FLOAT_EQ(L2DistanceSquared(a.data(), b.data(), dim), expected)
        << "dim=" << dim;
  }
}

TEST(DistanceTest, DotProductKnownValue) {
  const float a[] = {1.f, 2.f, 3.f, 4.f, 5.f};
  const float b[] = {5.f, 4.f, 3.f, 2.f, 1.f};
  EXPECT_FLOAT_EQ(DotProduct(a, b, 5), 35.f);
  EXPECT_FLOAT_EQ(NormSquared(a, 5), 55.f);
}

// ------------------------------------------------------------- TopKHeap --

TEST(TopKHeapTest, KeepsKSmallest) {
  TopKHeap heap(3);
  for (uint32_t i = 0; i < 10; ++i) {
    heap.Push(static_cast<float>(10 - i), i);  // distances 10..1
  }
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_FLOAT_EQ(result[0].dist, 1.f);
  EXPECT_FLOAT_EQ(result[1].dist, 2.f);
  EXPECT_FLOAT_EQ(result[2].dist, 3.f);
}

TEST(TopKHeapTest, ThresholdIsInfinityUntilFull) {
  TopKHeap heap(2);
  EXPECT_TRUE(std::isinf(heap.Threshold()));
  heap.Push(1.f, 0);
  EXPECT_TRUE(std::isinf(heap.Threshold()));
  heap.Push(2.f, 1);
  EXPECT_FLOAT_EQ(heap.Threshold(), 2.f);
  heap.Push(0.5f, 2);
  EXPECT_FLOAT_EQ(heap.Threshold(), 1.f);
}

TEST(TopKHeapTest, ZeroKIsAlwaysEmpty) {
  TopKHeap heap(0);
  heap.Push(1.f, 0);
  EXPECT_EQ(heap.Size(), 0u);
  EXPECT_TRUE(heap.TakeSorted().empty());
}

TEST(TopKHeapTest, FewerThanKStaysPartial) {
  TopKHeap heap(5);
  heap.Push(3.f, 0);
  heap.Push(1.f, 1);
  EXPECT_FALSE(heap.Full());
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 1u);
}

TEST(TopKHeapTest, TieBreaksById) {
  TopKHeap heap(2);
  heap.Push(1.f, 7);
  heap.Push(1.f, 3);
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 3u);
  EXPECT_EQ(result[1].id, 7u);
}

// Regression: Push at a full heap used to compare by distance only, so an
// equal-distance candidate with a smaller id was rejected and the result
// set depended on candidate arrival order. The full Neighbor ordering
// (dist, then id) must decide replacement too.
TEST(TopKHeapTest, FullHeapReplacementUsesIdTieBreak) {
  TopKHeap heap(2);
  heap.Push(1.f, 4);
  heap.Push(2.f, 9);
  EXPECT_TRUE(heap.Full());
  heap.Push(2.f, 6);  // ties the threshold with a smaller id: must evict 9
  auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 4u);
  EXPECT_EQ(result[1].id, 6u);

  // A larger id at the threshold distance must still be rejected.
  TopKHeap heap2(2);
  heap2.Push(1.f, 4);
  heap2.Push(2.f, 6);
  heap2.Push(2.f, 9);
  result = heap2.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 4u);
  EXPECT_EQ(result[1].id, 6u);

  // Arrival order of equal-distance candidates no longer matters.
  TopKHeap heap3(1);
  heap3.Push(5.f, 8);
  heap3.Push(5.f, 2);
  heap3.Push(5.f, 5);
  result = heap3.TakeSorted();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 2u);
}

// ------------------------------------------------------------------ vecs --

// Scratch file holding hand-assembled vecs bytes, removed on destruction.
class VecsFile {
 public:
  explicit VecsFile(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("dblsh_vecs_" + tag + "_" + std::to_string(::getpid())))
                .string();
  }
  ~VecsFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const std::string& path() const { return path_; }

  void Write(const std::vector<uint8_t>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

 private:
  std::string path_;
};

void AppendI32(std::vector<uint8_t>* bytes, int32_t v) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  bytes->insert(bytes->end(), p, p + sizeof(v));
}

template <typename T>
void AppendVector(std::vector<uint8_t>* bytes, const std::vector<T>& vec) {
  AppendI32(bytes, static_cast<int32_t>(vec.size()));
  const auto* p = reinterpret_cast<const uint8_t*>(vec.data());
  bytes->insert(bytes->end(), p, p + vec.size() * sizeof(T));
}

TEST(VecsTest, FvecsRoundTrips) {
  VecsFile file("fvecs");
  std::vector<uint8_t> bytes;
  AppendVector<float>(&bytes, {1.0f, -2.5f, 3.25f});
  AppendVector<float>(&bytes, {4.0f, 5.0f, 6.0f});
  file.Write(bytes);

  auto read = util::ReadFvecs(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().dim, 3u);
  ASSERT_EQ(read.value().count(), 2u);
  EXPECT_FLOAT_EQ(read.value().values[1], -2.5f);
  EXPECT_FLOAT_EQ(read.value().values[5], 6.0f);
}

TEST(VecsTest, BvecsAndIvecsRoundTrip) {
  VecsFile bfile("bvecs");
  std::vector<uint8_t> bytes;
  AppendVector<uint8_t>(&bytes, {0, 127, 255, 7});
  bfile.Write(bytes);
  auto b = util::ReadBvecs(bfile.path());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b.value().dim, 4u);
  ASSERT_EQ(b.value().count(), 1u);
  EXPECT_EQ(b.value().values[2], 255);

  VecsFile ifile("ivecs");
  bytes.clear();
  AppendVector<int32_t>(&bytes, {42, -1});
  ifile.Write(bytes);
  auto i = util::ReadIvecs(ifile.path());
  ASSERT_TRUE(i.ok()) << i.status().ToString();
  EXPECT_EQ(i.value().dim, 2u);
  ASSERT_EQ(i.value().count(), 1u);
  EXPECT_EQ(i.value().values[0], 42);
  EXPECT_EQ(i.value().values[1], -1);
}

TEST(VecsTest, MaxVectorsTruncatesTheScan) {
  VecsFile file("fvecs_max");
  std::vector<uint8_t> bytes;
  for (int v = 0; v < 5; ++v) {
    AppendVector<float>(&bytes, {static_cast<float>(v), 0.f});
  }
  file.Write(bytes);

  auto read = util::ReadFvecs(file.path(), 3);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().count(), 3u);
  EXPECT_FLOAT_EQ(read.value().values[4], 2.0f);
}

TEST(VecsTest, MissingFileIsIoError) {
  auto read = util::ReadFvecs("/nonexistent/no_such.fvecs");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(VecsTest, RejectsCorruptFiles) {
  // Truncated payload: header promises 3 floats, body holds 2.
  VecsFile truncated("trunc");
  std::vector<uint8_t> bytes;
  AppendI32(&bytes, 3);
  AppendI32(&bytes, 0);  // 4 bytes of payload (one float), then EOF
  AppendI32(&bytes, 0);
  truncated.Write(bytes);
  auto read = util::ReadFvecs(truncated.path());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);

  // Non-positive dimension.
  VecsFile nonpositive("nonpos");
  bytes.clear();
  AppendI32(&bytes, -4);
  nonpositive.Write(bytes);
  read = util::ReadFvecs(nonpositive.path());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);

  // Inconsistent dimension between vectors.
  VecsFile inconsistent("baddim");
  bytes.clear();
  AppendVector<float>(&bytes, {1.f, 2.f});
  AppendVector<float>(&bytes, {1.f, 2.f, 3.f});
  inconsistent.Write(bytes);
  read = util::ReadFvecs(inconsistent.path());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);

  // Truncated header: a lone stray byte where the next int32 should be.
  VecsFile torn("torn");
  bytes.clear();
  AppendVector<float>(&bytes, {1.f, 2.f});
  bytes.push_back(0x7);
  torn.Write(bytes);
  read = util::ReadFvecs(torn.path());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);

  // A dimension larger than the file: 8 bytes claiming 2^31 - 1 floats
  // must be rejected before the 8 GiB row buffer is allocated, by both
  // the whole-file and the streaming reader.
  VecsFile huge("hugedim");
  bytes.clear();
  AppendI32(&bytes, 2147483647);
  AppendI32(&bytes, 0);
  huge.Write(bytes);
  read = util::ReadFvecs(huge.path());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  auto streamed =
      util::StreamFvecs(huge.path(), [](size_t, const float*, size_t) {});
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kCorruption);
}

TEST(VecsTest, BvecsAsFloatWidensComponents) {
  VecsFile file("bvecs_f");
  std::vector<uint8_t> bytes;
  AppendVector<uint8_t>(&bytes, {0, 127, 255, 7});
  AppendVector<uint8_t>(&bytes, {1, 2, 3, 4});
  file.Write(bytes);
  auto read = util::ReadBvecsAsFloat(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().dim, 4u);
  ASSERT_EQ(read.value().count(), 2u);
  EXPECT_EQ(read.value().values[1], 127.0f);
  EXPECT_EQ(read.value().values[2], 255.0f);
  EXPECT_EQ(read.value().values[7], 4.0f);
  // max_vectors truncates like the typed readers.
  auto first = util::ReadBvecsAsFloat(file.path(), 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().count(), 1u);
}

TEST(VecsTest, StreamingVisitsRowsInOrder) {
  VecsFile ffile("stream_f");
  std::vector<uint8_t> bytes;
  for (int v = 0; v < 5; ++v) {
    AppendVector<float>(&bytes, {static_cast<float>(v), -1.f});
  }
  ffile.Write(bytes);
  std::vector<float> seen;
  std::vector<size_t> indexes;
  auto visited = util::StreamFvecs(
      ffile.path(), [&](size_t index, const float* row, size_t dim) {
        ASSERT_EQ(dim, 2u);
        indexes.push_back(index);
        seen.push_back(row[0]);
      });
  ASSERT_TRUE(visited.ok()) << visited.status().ToString();
  EXPECT_EQ(visited.value(), 5u);
  EXPECT_EQ(indexes, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(seen, (std::vector<float>{0.f, 1.f, 2.f, 3.f, 4.f}));

  // max_vectors stops the scan early.
  size_t count = 0;
  auto limited = util::StreamFvecs(
      ffile.path(), [&](size_t, const float*, size_t) { ++count; }, 2);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited.value(), 2u);
  EXPECT_EQ(count, 2u);

  VecsFile bfile("stream_b");
  bytes.clear();
  AppendVector<uint8_t>(&bytes, {9, 200});
  AppendVector<uint8_t>(&bytes, {0, 255});
  bfile.Write(bytes);
  seen.clear();
  auto widened = util::StreamBvecsAsFloat(
      bfile.path(), [&](size_t, const float* row, size_t dim) {
        seen.insert(seen.end(), row, row + dim);
      });
  ASSERT_TRUE(widened.ok()) << widened.status().ToString();
  EXPECT_EQ(widened.value(), 2u);
  EXPECT_EQ(seen, (std::vector<float>{9.f, 200.f, 0.f, 255.f}));
}

TEST(VecsTest, StreamingReportsTypedErrorsAfterVisitedPrefix) {
  auto missing = util::StreamFvecs("/nonexistent/no_such.fvecs",
                                   [](size_t, const float*, size_t) {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);

  // One good vector, then a truncated payload: the visitor sees the good
  // prefix and the scan fails with Corruption.
  VecsFile torn("stream_torn");
  std::vector<uint8_t> bytes;
  AppendVector<float>(&bytes, {1.f, 2.f});
  AppendI32(&bytes, 2);
  AppendI32(&bytes, 0);  // half of the promised payload, then EOF
  torn.Write(bytes);
  size_t visited = 0;
  auto read = util::StreamFvecs(
      torn.path(), [&](size_t, const float*, size_t) { ++visited; });
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(visited, 1u);
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  double acc = 0.0;
  for (int i = 0; i < 100000; ++i) acc += std::sqrt(double(i));
  volatile double sink = acc;
  (void)sink;
  EXPECT_GT(t.ElapsedSec(), 0.0);
  EXPECT_GT(t.ElapsedMs(), t.ElapsedSec());  // ms numerically larger
}

// --------------------------------------------------------------- Perfmon --

TEST(PerfmonTest, SampleMemoryReportsResidentAndPeak) {
  const perfmon::MemoryUsage usage = perfmon::SampleMemory();
  EXPECT_GT(usage.resident_bytes, 0u);
  EXPECT_GT(usage.peak_resident_bytes, 0u);
  EXPECT_GE(usage.peak_resident_bytes, usage.resident_bytes);
}

}  // namespace
}  // namespace dblsh
