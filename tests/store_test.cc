// VectorStore suite: Sq8Store/PqStore quantization contracts, save/load
// of the v3/v4 formats for every backend, v2/v3 load compatibility, and
// the end-to-end recall contract of quantized storage (asymmetric scan +
// exact re-rank) against the exact LinearScan oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "core/db_lsh.h"
#include "dataset/float_matrix.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "dataset/vector_store.h"
#include "eval/metrics.h"
#include "simd/simd.h"
#include "util/distance.h"
#include "util/random.h"

namespace dblsh {
namespace {

FloatMatrix RandomMatrix(size_t n, size_t dim, uint64_t seed,
                         double span = 10.0) {
  FloatMatrix m(n, dim);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      m.at(i, j) = static_cast<float>(rng.Uniform(-span, span));
    }
  }
  return m;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(StorageKindTest, NamesRoundTrip) {
  EXPECT_STREQ(StorageKindName(StorageKind::kFp32), "fp32");
  EXPECT_STREQ(StorageKindName(StorageKind::kSq8), "sq8");
  EXPECT_STREQ(StorageKindName(StorageKind::kPq), "pq");
  ASSERT_TRUE(ParseStorageKind("fp32").ok());
  EXPECT_EQ(ParseStorageKind("fp32").value(), StorageKind::kFp32);
  ASSERT_TRUE(ParseStorageKind("sq8").ok());
  EXPECT_EQ(ParseStorageKind("sq8").value(), StorageKind::kSq8);
  ASSERT_TRUE(ParseStorageKind("pq").ok());
  EXPECT_EQ(ParseStorageKind("pq").value(), StorageKind::kPq);
  EXPECT_FALSE(ParseStorageKind("opq").ok());
  EXPECT_FALSE(ParseStorageKind("").ok());
}

// Per-dimension reconstruction error of trained rows is bounded by half a
// quantization step — the contract the exact re-rank depends on.
TEST(Sq8StoreTest, QuantizationErrorWithinHalfScalePerDim) {
  const size_t n = 200, dim = 23;  // odd dim: exercise kernel tails later
  const FloatMatrix original = RandomMatrix(n, dim, 71);
  auto store = MakeVectorStore(StorageKind::kSq8,
                               std::make_unique<FloatMatrix>(original));
  auto& sq8 = static_cast<Sq8Store&>(*store);
  ASSERT_TRUE(sq8.trained());
  ASSERT_EQ(sq8.scales().size(), dim);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < n; ++i) {
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    for (size_t j = 0; j < dim; ++j) {
      const float bound = sq8.scales()[j] * 0.5f * 1.001f;  // fp slack
      EXPECT_LE(std::fabs(original.at(i, j) - decoded[j]), bound)
          << "row " << i << " dim " << j;
    }
  }
  EXPECT_EQ(store->bytes_per_vector(), dim);
  EXPECT_TRUE(store->matrix().payload_released());
}

// A constant dimension must not divide by zero: scale falls back to 1.0
// and the dimension reconstructs exactly.
TEST(Sq8StoreTest, ConstantDimensionReconstructsExactly) {
  const size_t n = 50, dim = 4;
  FloatMatrix m = RandomMatrix(n, dim, 5);
  for (size_t i = 0; i < n; ++i) m.at(i, 2) = 3.25f;
  auto store =
      MakeVectorStore(StorageKind::kSq8, std::make_unique<FloatMatrix>(m));
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < n; ++i) {
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    EXPECT_EQ(decoded[2], 3.25f) << "row " << i;
  }
}

// Insert/erase must follow FloatMatrix's LIFO recycle contract, quantize
// on write, and clamp out-of-range inserts instead of wrapping.
TEST(Sq8StoreTest, InsertEraseRecycleAndClamp) {
  const size_t dim = 8;
  const FloatMatrix seed = RandomMatrix(20, dim, 9, /*span=*/1.0);
  auto store = MakeVectorStore(StorageKind::kSq8,
                               std::make_unique<FloatMatrix>(seed));
  ASSERT_TRUE(store->EraseRow(7).ok());
  ASSERT_TRUE(store->EraseRow(3).ok());
  EXPECT_FALSE(store->EraseRow(3).ok());  // double erase rejected
  std::vector<float> v(dim, 0.5f);
  EXPECT_EQ(store->InsertRow(v.data(), dim), 3u);  // LIFO: last erased first
  EXPECT_EQ(store->InsertRow(v.data(), dim), 7u);
  std::vector<float> grown(dim, 0.25f);
  EXPECT_EQ(store->InsertRow(grown.data(), dim), 20u);  // then append
  EXPECT_EQ(store->matrix().rows(), 21u);

  // Far outside the trained [-1, 1]-ish range: codes clamp, decode stays
  // at the range edge instead of wrapping to garbage.
  std::vector<float> outlier(dim, 1000.f);
  const uint32_t id = store->InsertRow(outlier.data(), dim);
  std::vector<float> decoded(dim);
  store->DecodeRow(id, decoded.data());
  auto& sq8 = static_cast<Sq8Store&>(*store);
  for (size_t j = 0; j < dim; ++j) {
    EXPECT_NEAR(decoded[j], sq8.offsets()[j] + sq8.scales()[j] * 255.f,
                1e-4f);
  }
}

// DecodedCopy must reproduce decoded rows AND the exact tombstone state,
// free-list order included (background rebuilds replay it).
TEST(Sq8StoreTest, DecodedCopyPreservesTombstoneState) {
  const size_t dim = 6;
  auto store = MakeVectorStore(
      StorageKind::kSq8,
      std::make_unique<FloatMatrix>(RandomMatrix(30, dim, 13)));
  ASSERT_TRUE(store->EraseRow(11).ok());
  ASSERT_TRUE(store->EraseRow(4).ok());
  const FloatMatrix copy = store->DecodedCopy();
  EXPECT_EQ(copy.rows(), 30u);
  EXPECT_EQ(copy.live_rows(), 28u);
  EXPECT_TRUE(copy.IsDeleted(11));
  EXPECT_TRUE(copy.IsDeleted(4));
  ASSERT_EQ(copy.free_slots().size(), 2u);
  EXPECT_EQ(copy.free_slots()[0], 11u);
  EXPECT_EQ(copy.free_slots()[1], 4u);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < copy.rows(); ++i) {
    if (copy.IsDeleted(i)) continue;
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(copy.at(i, j), decoded[j]) << "row " << i;
    }
  }
}

// Fp32Store is the identity backend: same bytes, exact scores, no decode
// cost anywhere.
TEST(Fp32StoreTest, IdentityBackend) {
  const size_t n = 40, dim = 12;
  const FloatMatrix original = RandomMatrix(n, dim, 3);
  auto store = MakeVectorStore(StorageKind::kFp32,
                               std::make_unique<FloatMatrix>(original));
  EXPECT_FALSE(store->quantized());
  EXPECT_EQ(store->bytes_per_vector(), dim * sizeof(float));
  EXPECT_FALSE(store->matrix().payload_released());
  const float* query = original.row(1);
  std::vector<float> prep;
  store->PrepareQuery(query, &prep);
  std::vector<float> out(n);
  store->ScoreBatch(prep.data(), 0, nullptr, n, out.data());
  for (size_t i = 0; i < n; ++i) {
    // The store scores through the active dispatch tier; compare against
    // the same tier's one-to-one kernel (bit-identical by the simd batch
    // property test) and the scalar reference within accumulation error.
    EXPECT_EQ(out[i],
              simd::Active().l2_squared(query, original.row(i), dim))
        << "row " << i;
    EXPECT_NEAR(out[i], L2DistanceSquared(query, original.row(i), dim),
                1e-2f)
        << "row " << i;
    EXPECT_EQ(store->ExactL2Squared(query, static_cast<uint32_t>(i)),
              out[i]);
  }
  const FloatMatrix copy = store->DecodedCopy();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(copy.at(i, j), original.at(i, j));
    }
  }
}

// The sq8 hot-path score (both sides in code space) and the exact re-rank
// score must agree with scoring against the decoded rows directly.
TEST(Sq8StoreTest, ScoresMatchDecodedRows) {
  const size_t n = 64, dim = 17;
  const FloatMatrix original = RandomMatrix(n, dim, 21);
  auto store = MakeVectorStore(StorageKind::kSq8,
                               std::make_unique<FloatMatrix>(original));
  const FloatMatrix decoded = store->DecodedCopy();
  Rng rng(77);
  std::vector<float> query(dim);
  for (auto& v : query) v = static_cast<float>(rng.Uniform(-10.0, 10.0));

  // Exact re-rank score == fp32 distance to the decoded row.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(store->ExactL2Squared(query.data(), uint32_t(i)),
                L2DistanceSquared(query.data(), decoded.row(i), dim),
                1e-2f)
        << "row " << i;
  }

  // Hot-path score == distance between the *quantized* query and the
  // decoded row (both sides on the code grid — offsets cancel).
  auto& sq8 = static_cast<Sq8Store&>(*store);
  std::vector<float> qquant(dim);
  for (size_t j = 0; j < dim; ++j) {
    const float t =
        std::round((query[j] - sq8.offsets()[j]) / sq8.scales()[j]);
    qquant[j] = sq8.offsets()[j] +
                sq8.scales()[j] * std::min(255.f, std::max(0.f, t));
  }
  std::vector<float> prep;
  store->PrepareQuery(query.data(), &prep);
  std::vector<float> scores(n);
  store->ScoreBatch(prep.data(), 0, nullptr, n, scores.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(scores[i],
                L2DistanceSquared(qquant.data(), decoded.row(i), dim),
                1e-2f)
        << "row " << i;
  }
}

// PQ shape contracts: m code bytes per row, 256 * dim codebook floats
// regardless of the ragged subspace split, payload released.
TEST(PqStoreTest, ShapeAndCompression) {
  const size_t n = 500, dim = 23, m = 5;  // 23 % 5 != 0: ragged split
  const FloatMatrix original = RandomMatrix(n, dim, 61);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(original), m);
  auto& pq = static_cast<PqStore&>(*store);
  ASSERT_TRUE(pq.trained());
  EXPECT_EQ(pq.m(), m);
  EXPECT_EQ(store->bytes_per_vector(), m);
  EXPECT_EQ(pq.codebooks().size(), PqStore::kCentroids * dim);
  EXPECT_EQ(pq.codes().size(), n * m);
  EXPECT_TRUE(store->matrix().payload_released());
  EXPECT_TRUE(store->quantized());
  // Balanced ragged split: first dim % m subspaces are one wider.
  EXPECT_EQ(pq.sub_begin(0), 0u);
  EXPECT_EQ(pq.sub_begin(m), dim);
  for (size_t j = 0; j < m; ++j) {
    EXPECT_EQ(pq.sub_dim(j), j < dim % m ? dim / m + 1 : dim / m) << j;
  }
}

// With fewer seed rows than centroids the surplus centroids duplicate
// existing rows, so every seed row must encode (and decode) exactly.
TEST(PqStoreTest, FewerRowsThanCentroidsEncodeExactly) {
  const size_t n = 20, dim = 12, m = 3;
  const FloatMatrix original = RandomMatrix(n, dim, 67);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(original), m);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < n; ++i) {
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(decoded[j], original.at(i, j)) << "row " << i << " dim " << j;
    }
  }
}

// A subspace whose dimensions are constant across all rows must
// reconstruct that subvector exactly (every centroid collapses onto it).
TEST(PqStoreTest, ConstantSubvectorReconstructsExactly) {
  const size_t n = 400, dim = 8, m = 4;  // subspaces of 2 dims each
  FloatMatrix data = RandomMatrix(n, dim, 71);
  for (size_t i = 0; i < n; ++i) {
    data.at(i, 4) = 1.5f;  // subspace 2 = dims {4, 5} held constant
    data.at(i, 5) = -2.75f;
  }
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(data), m);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < n; ++i) {
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    EXPECT_EQ(decoded[4], 1.5f) << "row " << i;
    EXPECT_EQ(decoded[5], -2.75f) << "row " << i;
  }
}

// Insert/erase must follow FloatMatrix's LIFO recycle contract and
// re-encode the recycled slot's code bytes on write.
TEST(PqStoreTest, InsertEraseRecycleReencode) {
  const size_t n = 300, dim = 8, m = 4;
  const FloatMatrix seed = RandomMatrix(n, dim, 73);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(seed), m);
  auto& pq = static_cast<PqStore&>(*store);
  const std::vector<uint8_t> code7(pq.codes().begin() + 7 * m,
                                   pq.codes().begin() + 8 * m);
  ASSERT_TRUE(store->EraseRow(7).ok());
  ASSERT_TRUE(store->EraseRow(3).ok());
  EXPECT_FALSE(store->EraseRow(3).ok());  // double erase rejected
  // LIFO: last erased slot is recycled first; the new vector's code must
  // land in the recycled slot and differ from the old occupant's.
  std::vector<float> v(seed.row(100), seed.row(100) + dim);
  EXPECT_EQ(store->InsertRow(v.data(), dim), 3u);
  EXPECT_EQ(store->InsertRow(v.data(), dim), 7u);
  const std::vector<uint8_t> new7(pq.codes().begin() + 7 * m,
                                  pq.codes().begin() + 8 * m);
  const std::vector<uint8_t> new3(pq.codes().begin() + 3 * m,
                                  pq.codes().begin() + 4 * m);
  EXPECT_EQ(new7, new3);  // same vector, same codes
  // Appending past the end grows the code array in step with the matrix.
  EXPECT_EQ(store->InsertRow(v.data(), dim), static_cast<uint32_t>(n));
  EXPECT_EQ(pq.codes().size(), (n + 1) * m);
  std::vector<float> d3(dim), d7(dim);
  store->DecodeRow(3, d3.data());
  store->DecodeRow(7, d7.data());
  for (size_t j = 0; j < dim; ++j) EXPECT_EQ(d3[j], d7[j]) << j;
}

// DecodedCopy must reproduce decoded rows AND the exact tombstone state,
// free-list order included.
TEST(PqStoreTest, DecodedCopyPreservesTombstoneState) {
  const size_t dim = 6, m = 2;
  auto store = MakeVectorStore(
      StorageKind::kPq,
      std::make_unique<FloatMatrix>(RandomMatrix(30, dim, 79)), m);
  ASSERT_TRUE(store->EraseRow(11).ok());
  ASSERT_TRUE(store->EraseRow(4).ok());
  const FloatMatrix copy = store->DecodedCopy();
  EXPECT_EQ(copy.rows(), 30u);
  EXPECT_EQ(copy.live_rows(), 28u);
  EXPECT_TRUE(copy.IsDeleted(11));
  EXPECT_TRUE(copy.IsDeleted(4));
  ASSERT_EQ(copy.free_slots().size(), 2u);
  EXPECT_EQ(copy.free_slots()[0], 11u);
  EXPECT_EQ(copy.free_slots()[1], 4u);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < copy.rows(); ++i) {
    if (copy.IsDeleted(i)) continue;
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(copy.at(i, j), decoded[j]) << "row " << i;
    }
  }
}

// The ADC score and the exact re-rank score must both equal the fp32
// distance to the centroid-decoded row: the query side of ADC is never
// quantized, so Σ_j ||q_j - c_j||^2 == ||q - decode(row)||^2.
TEST(PqStoreTest, AdcScoresMatchDecodedRows) {
  const size_t n = 64, dim = 17, m = 5;
  const FloatMatrix original = RandomMatrix(n, dim, 83);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(original), m);
  const FloatMatrix decoded = store->DecodedCopy();
  Rng rng(85);
  std::vector<float> query(dim);
  for (auto& v : query) v = static_cast<float>(rng.Uniform(-10.0, 10.0));
  std::vector<float> prep;
  store->PrepareQuery(query.data(), &prep);
  EXPECT_EQ(prep.size(), m * PqStore::kCentroids);  // the ADC LUT
  std::vector<float> scores(n);
  store->ScoreBatch(prep.data(), 0, nullptr, n, scores.data());
  for (size_t i = 0; i < n; ++i) {
    const float exact =
        L2DistanceSquared(query.data(), decoded.row(i), dim);
    EXPECT_NEAR(scores[i], exact, 1e-2f) << "row " << i;
    EXPECT_NEAR(store->ExactL2Squared(query.data(), uint32_t(i)), exact,
                1e-2f)
        << "row " << i;
  }
  // Id-list form agrees with the contiguous form.
  std::vector<uint32_t> ids = {5, 0, 63, 17, 17};
  std::vector<float> by_id(ids.size());
  store->ScoreBatch(prep.data(), 0, ids.data(), ids.size(), by_id.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(by_id[i], scores[ids[i]]) << "id " << ids[i];
  }
}

// An empty-seeded store trains on its first insert; until then it is
// untrained, and afterwards the first row reconstructs exactly.
TEST(PqStoreTest, EmptySeededTrainsOnFirstInsert) {
  const size_t dim = 10, m = 2;
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(0, dim), m);
  auto& pq = static_cast<PqStore&>(*store);
  EXPECT_FALSE(pq.trained());
  std::vector<float> v(dim);
  for (size_t j = 0; j < dim; ++j) v[j] = 0.5f * float(j) - 2.f;
  EXPECT_EQ(store->InsertRow(v.data(), dim), 0u);
  EXPECT_TRUE(pq.trained());
  std::vector<float> decoded(dim);
  store->DecodeRow(0, decoded.data());
  for (size_t j = 0; j < dim; ++j) EXPECT_EQ(decoded[j], v[j]) << j;
}

// RetrainQuantizer must be a pure function of the store's current state:
// two stores that evolved identically retrain to byte-identical
// codebooks and codes (the property WAL replay and replication rely on).
TEST(PqStoreTest, RetrainQuantizerIsDeterministic) {
  const size_t n = 256, dim = 8, m = 4;
  const FloatMatrix seed = RandomMatrix(n, dim, 89, /*span=*/1.0);
  const FloatMatrix drift = RandomMatrix(64, dim, 91, /*span=*/50.0);
  auto evolve = [&] {
    auto store = MakeVectorStore(StorageKind::kPq,
                                 std::make_unique<FloatMatrix>(seed), m);
    for (size_t i = 0; i < drift.rows(); ++i) {
      store->InsertRow(drift.row(i), dim);
    }
    EXPECT_TRUE(store->EraseRow(10).ok());  // non-void lambda: no ASSERT
    return store;
  };
  auto a = evolve();
  auto b = evolve();
  const bool a_changed = a->RetrainQuantizer();
  const bool b_changed = b->RetrainQuantizer();
  EXPECT_EQ(a_changed, b_changed);
  auto& pa = static_cast<PqStore&>(*a);
  auto& pb = static_cast<PqStore&>(*b);
  EXPECT_EQ(pa.codebooks(), pb.codebooks());
  EXPECT_EQ(pa.codes(), pb.codes());
}

std::vector<std::vector<Neighbor>> QueryAll(const DbLsh& index,
                                            const FloatMatrix& queries,
                                            size_t k) {
  std::vector<std::vector<Neighbor>> out;
  for (size_t q = 0; q < queries.rows(); ++q) {
    out.push_back(index.Query(queries.row(q), k));
  }
  return out;
}

void ExpectSameResults(const std::vector<std::vector<Neighbor>>& a,
                       const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t r = 0; r < a[q].size(); ++r) {
      EXPECT_EQ(a[q][r].id, b[q][r].id) << "query " << q << " rank " << r;
      EXPECT_EQ(a[q][r].dist, b[q][r].dist)
          << "query " << q << " rank " << r;
    }
  }
}

// v3 fp32 round-trip through both load surfaces: the legacy
// Load(FloatMatrix*) and the LoadStore + Load(VectorStore*) pair.
TEST(StorePersistenceTest, V3Fp32RoundTrip) {
  const FloatMatrix data = RandomMatrix(600, 16, 31);
  const FloatMatrix queries = RandomMatrix(5, 16, 32);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto before = QueryAll(index, queries, 10);
  const std::string path = TempPath("store_v3_fp32.idx");
  ASSERT_TRUE(index.Save(path).ok());

  FloatMatrix reload1 = data;
  auto legacy = DbLsh::Load(path, &reload1);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ExpectSameResults(before, QueryAll(legacy.value(), queries, 10));

  auto store = DbLsh::LoadStore(path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->storage_kind(), StorageKind::kFp32);
  auto via_store = DbLsh::Load(path, store.value().get());
  ASSERT_TRUE(via_store.ok()) << via_store.status().ToString();
  ExpectSameResults(before, QueryAll(via_store.value(), queries, 10));
  std::remove(path.c_str());
}

// v3 sq8 round-trip: LoadStore re-encodes the original fp32 dataset with
// the SAVED quantization parameters, so the restored codes are
// byte-identical (the codes checksum enforces it) and queries reproduce.
TEST(StorePersistenceTest, V3Sq8RoundTrip) {
  const FloatMatrix data = RandomMatrix(600, 16, 41);
  const FloatMatrix queries = RandomMatrix(5, 16, 42);
  auto store = MakeVectorStore(StorageKind::kSq8,
                               std::make_unique<FloatMatrix>(data));
  DbLsh index;
  {
    ScopedDecodeView view(store.get());
    ASSERT_TRUE(index.Build(&store->matrix()).ok());
  }
  const auto before = QueryAll(index, queries, 10);
  const std::string path = TempPath("store_v3_sq8.idx");
  ASSERT_TRUE(index.Save(path).ok());

  // The fp32-only surface must reject the quantized file with a pointer
  // to the store path, not crash or load garbage.
  FloatMatrix reject = data;
  EXPECT_FALSE(DbLsh::Load(path, &reject).ok());

  auto restored =
      DbLsh::LoadStore(path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->storage_kind(), StorageKind::kSq8);
  auto& sq8 = static_cast<Sq8Store&>(*restored.value());
  auto& orig = static_cast<Sq8Store&>(*store);
  EXPECT_EQ(sq8.scales(), orig.scales());
  EXPECT_EQ(sq8.offsets(), orig.offsets());
  EXPECT_EQ(sq8.codes(), orig.codes());
  auto loaded = DbLsh::Load(path, restored.value().get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameResults(before, QueryAll(loaded.value(), queries, 10));
  std::remove(path.c_str());
}

// Version-2 files (pre-VectorStore: no storage tag, implicitly fp32) must
// keep loading. Forged from a v3 fp32 file by rewriting the version field
// and dropping the tag byte — byte-identical to what the v2 writer
// produced, since v3 only inserted the tag.
TEST(StorePersistenceTest, V2FilesStillLoad) {
  const FloatMatrix data = RandomMatrix(500, 12, 51);
  const FloatMatrix queries = RandomMatrix(5, 12, 52);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto before = QueryAll(index, queries, 10);
  const std::string v3_path = TempPath("store_compat_v3.idx");
  ASSERT_TRUE(index.Save(v3_path).ok());

  std::ifstream in(v3_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 13u);
  const uint32_t v2 = 2;
  std::memcpy(bytes.data() + 8, &v2, sizeof(v2));  // version after magic
  bytes.erase(bytes.begin() + 12);                 // drop the storage tag
  const std::string v2_path = TempPath("store_compat_v2.idx");
  std::ofstream out(v2_path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  FloatMatrix reload = data;
  auto legacy = DbLsh::Load(v2_path, &reload);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ExpectSameResults(before, QueryAll(legacy.value(), queries, 10));

  auto store =
      DbLsh::LoadStore(v2_path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->storage_kind(), StorageKind::kFp32);
  std::remove(v3_path.c_str());
  std::remove(v2_path.c_str());
}

// v4 pq round-trip: LoadStore re-encodes the original fp32 dataset with
// the SAVED codebooks, so the restored codes are byte-identical (the
// codes checksum enforces it) and queries reproduce.
TEST(StorePersistenceTest, V4PqRoundTrip) {
  const FloatMatrix data = RandomMatrix(600, 16, 43);
  const FloatMatrix queries = RandomMatrix(5, 16, 44);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(data), 4);
  DbLsh index;
  {
    ScopedDecodeView view(store.get());
    ASSERT_TRUE(index.Build(&store->matrix()).ok());
  }
  const auto before = QueryAll(index, queries, 10);
  const std::string path = TempPath("store_v4_pq.idx");
  ASSERT_TRUE(index.Save(path).ok());

  // The fp32-only surface must reject the quantized file.
  FloatMatrix reject = data;
  EXPECT_FALSE(DbLsh::Load(path, &reject).ok());

  auto restored =
      DbLsh::LoadStore(path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value()->storage_kind(), StorageKind::kPq);
  auto& pq = static_cast<PqStore&>(*restored.value());
  auto& orig = static_cast<PqStore&>(*store);
  EXPECT_EQ(pq.m(), orig.m());
  EXPECT_EQ(pq.codebooks(), orig.codebooks());
  EXPECT_EQ(pq.codes(), orig.codes());
  auto loaded = DbLsh::Load(path, restored.value().get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameResults(before, QueryAll(loaded.value(), queries, 10));
  std::remove(path.c_str());
}

// Version-3 files (sq8/fp32, pre-PQ) must keep loading. v4 changed only
// the version number for those storage kinds, so a v3 file is forged by
// rewriting the version field of a current sq8 save. A *pq* file forged
// to v3 must be rejected: the kPq tag did not exist before v4.
TEST(StorePersistenceTest, V3FilesStillLoadAndV3PqIsRejected) {
  const FloatMatrix data = RandomMatrix(500, 12, 53);
  const FloatMatrix queries = RandomMatrix(5, 12, 54);
  auto forge_version = [](const std::string& from, const std::string& to,
                          uint32_t version) {
    std::ifstream in(from, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 12u);
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    std::ofstream out(to, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  auto sq8 = MakeVectorStore(StorageKind::kSq8,
                             std::make_unique<FloatMatrix>(data));
  DbLsh index;
  {
    ScopedDecodeView view(sq8.get());
    ASSERT_TRUE(index.Build(&sq8->matrix()).ok());
  }
  const auto before = QueryAll(index, queries, 10);
  const std::string v4_path = TempPath("store_compat_v4_sq8.idx");
  ASSERT_TRUE(index.Save(v4_path).ok());
  const std::string v3_path = TempPath("store_compat_v3_sq8.idx");
  forge_version(v4_path, v3_path, 3);
  auto restored =
      DbLsh::LoadStore(v3_path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value()->storage_kind(), StorageKind::kSq8);
  auto loaded = DbLsh::Load(v3_path, restored.value().get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameResults(before, QueryAll(loaded.value(), queries, 10));

  auto pq = MakeVectorStore(StorageKind::kPq,
                            std::make_unique<FloatMatrix>(data), 4);
  DbLsh pq_index;
  {
    ScopedDecodeView view(pq.get());
    ASSERT_TRUE(pq_index.Build(&pq->matrix()).ok());
  }
  const std::string pq_v4 = TempPath("store_compat_v4_pq.idx");
  ASSERT_TRUE(pq_index.Save(pq_v4).ok());
  const std::string pq_v3 = TempPath("store_compat_v3_pq.idx");
  forge_version(pq_v4, pq_v3, 3);
  EXPECT_FALSE(
      DbLsh::LoadStore(pq_v3, std::make_unique<FloatMatrix>(data)).ok());

  std::remove(v4_path.c_str());
  std::remove(v3_path.c_str());
  std::remove(pq_v4.c_str());
  std::remove(pq_v3.c_str());
}

// Byte builders for the crafted files and layout pins below: each field is
// appended as docs/API.md spells it, independently of the code under test.
template <typename T>
void Put(std::vector<uint8_t>* out, const T& value) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(&value);
  out->insert(out->end(), bytes, bytes + sizeof(T));
}

template <typename T>
void PutAll(std::vector<uint8_t>* out, const std::vector<T>& values) {
  for (const T& value : values) Put(out, value);
}

void PutMagic(std::vector<uint8_t>* out, const char (&magic)[9]) {
  out->insert(out->end(), magic, magic + 8);
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Index files whose lengths lie must fail typed before anything is
// allocated: every length is checked against the bytes actually present.
TEST(StorePersistenceTest, CraftedIndexFilesAreCorruptionNotBadAlloc) {
  // 119 bytes: a valid v4 fp32 header and parameters for an 8x4 dataset
  // (checksum included, so every check before the body passes), then a
  // directions matrix claiming 2^20 x 2^19 floats — inside the 2^40
  // plausibility cap, 2 TiB in size.
  FloatMatrix data = RandomMatrix(8, 4, 71);
  std::vector<uint8_t> payload;
  PutAll(&payload, data.data());
  std::vector<uint8_t> bytes;
  PutMagic(&bytes, "DBLSHIDX");
  Put<uint32_t>(&bytes, 4);
  Put<uint8_t>(&bytes, 0);  // fp32
  Put<uint64_t>(&bytes, 8);
  Put<uint64_t>(&bytes, 4);
  Put<uint64_t>(&bytes, Fnv1a(payload));
  Put<double>(&bytes, 1.5);  // c
  Put<double>(&bytes, 4.0);  // w0
  Put<uint64_t>(&bytes, 2);  // k
  Put<uint64_t>(&bytes, 3);  // l
  Put<uint64_t>(&bytes, 10);  // t
  Put<uint64_t>(&bytes, 1);  // seed
  Put<uint8_t>(&bytes, 0);  // bucketing
  Put<uint8_t>(&bytes, 0);  // backend
  Put<double>(&bytes, 1.0);  // auto_r0
  Put<double>(&bytes, 1.0);  // early_stop_slack
  Put<uint64_t>(&bytes, uint64_t{1} << 20);
  Put<uint64_t>(&bytes, uint64_t{1} << 19);
  ASSERT_EQ(bytes.size(), 119u);
  const std::string lying_matrix = TempPath("store_lying_matrix.idx");
  WriteAll(lying_matrix, bytes);
  auto loaded = DbLsh::Load(lying_matrix, &data);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();  // 41 bytes: a pq-tagged header with dim 2^24 and m = 16, whose
  // codebooks would take 16 GiB; the shape check comes after the params.
  bytes.clear();
  PutMagic(&bytes, "DBLSHIDX");
  Put<uint32_t>(&bytes, 4);
  Put<uint8_t>(&bytes, 2);  // pq
  Put<uint64_t>(&bytes, 8);
  Put<uint64_t>(&bytes, uint64_t{1} << 24);
  Put<uint64_t>(&bytes, 0);
  Put<uint32_t>(&bytes, 16);
  ASSERT_EQ(bytes.size(), 41u);
  const std::string lying_params = TempPath("store_lying_params.idx");
  WriteAll(lying_params, bytes);
  auto store = DbLsh::LoadStore(lying_params,
                                std::make_unique<FloatMatrix>(data));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption)
      << store.status().ToString();
  auto pq = MakeVectorStore(StorageKind::kPq,
                            std::make_unique<FloatMatrix>(data), 2);
  auto against_store = DbLsh::Load(lying_params, pq.get());
  ASSERT_FALSE(against_store.ok());
  EXPECT_EQ(against_store.status().code(), StatusCode::kCorruption)
      << against_store.status().ToString();
  std::remove(lying_matrix.c_str());
  std::remove(lying_params.c_str());
}

// Stored parameters that Build() never produces are Corruption, not a
// different index: an unknown bucketing byte, a backend byte above 1,
// t = 0, auto_r0 <= 0, early_stop_slack < 1, or a non-finite c, w0,
// auto_r0 or early_stop_slack. Each case patches one field of a saved fp32
// index at its docs/API.md offset. A backend byte of 1 (the retired
// kd-tree backend, which wrote its projected spaces in the same layout)
// loads as the index the unpatched file holds.
TEST(StorePersistenceTest, LoadRejectsStoredParametersBuildNeverWrites) {
  FloatMatrix data = RandomMatrix(64, 4, 73);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const std::string path = TempPath("store_bad_params.idx");
  ASSERT_TRUE(index.Save(path).ok());
  const std::vector<uint8_t> saved = ReadAll(path);
  // magic | u32 version | u8 tag | u64 n | u64 dim | u64 checksum (fp32:
  // no store params), then f64 c | f64 w0 | u64 k | u64 l | u64 t |
  // u64 seed | u8 bucketing | u8 backend | f64 auto_r0 |
  // f64 early_stop_slack.
  constexpr size_t kC = 37, kW0 = 45, kT = 69, kBucketing = 85,
                   kBackend = 86, kAutoR0 = 87, kSlack = 95;
  auto field = [&saved](size_t offset, auto value) {
    std::memcpy(&value, saved.data() + offset, sizeof(value));
    return value;
  };
  ASSERT_EQ(field(kC, 0.0), index.params().c);
  ASSERT_EQ(field(kW0, 0.0), index.params().w0);
  ASSERT_EQ(field(kT, uint64_t{0}), index.params().t);
  ASSERT_EQ(field(kBucketing, uint8_t{9}), 0);
  ASSERT_EQ(field(kBackend, uint8_t{9}), 0);
  ASSERT_GT(field(kAutoR0, 0.0), 0.0);
  ASSERT_EQ(field(kSlack, 0.0), index.params().early_stop_slack);

  auto patched = [&saved](size_t offset, auto value) {
    std::vector<uint8_t> bytes = saved;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<const char*, std::vector<uint8_t>> files[] = {
      {"bucketing = 2", patched(kBucketing, uint8_t{2})},
      {"backend = 2", patched(kBackend, uint8_t{2})},
      {"t = 0", patched(kT, uint64_t{0})},
      {"auto_r0 = 0", patched(kAutoR0, 0.0)},
      {"auto_r0 = -1", patched(kAutoR0, -1.0)},
      {"early_stop_slack = 0.5", patched(kSlack, 0.5)},
      {"c = nan", patched(kC, nan)},
      {"c = inf", patched(kC, inf)},
      {"w0 = nan", patched(kW0, nan)},
      {"w0 = inf", patched(kW0, inf)},
      {"auto_r0 = nan", patched(kAutoR0, nan)},
      {"auto_r0 = inf", patched(kAutoR0, inf)},
      {"early_stop_slack = nan", patched(kSlack, nan)},
      {"early_stop_slack = inf", patched(kSlack, inf)},
  };
  for (const auto& [what, bytes] : files) {
    SCOPED_TRACE(what);
    WriteAll(path, bytes);
    auto loaded = DbLsh::Load(path, &data);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << loaded.status().ToString();
  }
  WriteAll(path, saved);
  auto unpatched = DbLsh::Load(path, &data);
  ASSERT_TRUE(unpatched.ok()) << unpatched.status().ToString();
  WriteAll(path, patched(kBackend, uint8_t{1}));
  auto kd_file = DbLsh::Load(path, &data);
  ASSERT_TRUE(kd_file.ok()) << kd_file.status().ToString();
  for (size_t q = 0; q < data.rows(); ++q) {
    SCOPED_TRACE(q);
    QueryStats want, got;
    EXPECT_EQ(kd_file.value().Query(data.row(q), 5, &got),
              unpatched.value().Query(data.row(q), 5, &want));
    EXPECT_EQ(got.candidates_verified, want.candidates_verified);
    EXPECT_EQ(got.points_accessed, want.points_accessed);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.window_queries, want.window_queries);
  }
  // It is the same index: saving it writes the unpatched file.
  ASSERT_TRUE(kd_file.value().Save(path).ok());
  EXPECT_EQ(ReadAll(path), saved);
  std::remove(path.c_str());
}

// Pins the two on-disk layouts that embed a store section — the v4 index
// header and the shard snapshot (plus the manifest) — against buffers
// assembled field by field from docs/API.md, for every storage kind. The
// round-trip tests compare a build's output with itself and cannot see a
// layout change; this one can.
TEST(StorePersistenceTest, OnDiskLayoutsMatchTheDocumentedFormat) {
  const FloatMatrix data = RandomMatrix(40, 8, 61);
  const std::pair<StorageKind, std::string> kinds[] = {
      {StorageKind::kFp32, "fp32"},
      {StorageKind::kSq8, "sq8"},
      {StorageKind::kPq, "pq,m=4"}};
  for (const auto& [kind, storage] : kinds) {
    SCOPED_TRACE(storage);
    // The store both writers hold: training is deterministic, so this
    // equals the single shard of the collection below.
    auto store =
        MakeVectorStore(kind, std::make_unique<FloatMatrix>(data), 4);
    ASSERT_TRUE(store->EraseRow(5).ok());
    ASSERT_TRUE(store->EraseRow(2).ok());
    // Store section: params, then the payload (all physical rows).
    std::vector<uint8_t> params, payload;
    if (kind == StorageKind::kSq8) {
      const auto& sq8 = static_cast<const Sq8Store&>(*store);
      PutAll(&params, sq8.scales());
      PutAll(&params, sq8.offsets());
      PutAll(&payload, sq8.codes());
    } else if (kind == StorageKind::kPq) {
      const auto& pq = static_cast<const PqStore&>(*store);
      Put<uint32_t>(&params, static_cast<uint32_t>(pq.m()));
      PutAll(&params, pq.codebooks());
      PutAll(&payload, pq.codes());
    } else {
      PutAll(&payload, data.data());
    }

    // v4 index file: magic | u32 version | u8 tag | u64 n | u64 dim |
    // u64 FNV-1a(payload) | params, then the index body.
    DbLsh index;
    {
      ScopedDecodeView view(store.get());
      ASSERT_TRUE(index.Build(&store->matrix()).ok());
    }
    const std::string path = TempPath("store_layout.idx");
    ASSERT_TRUE(index.Save(path).ok());
    std::vector<uint8_t> header;
    PutMagic(&header, "DBLSHIDX");
    Put<uint32_t>(&header, 4);
    Put<uint8_t>(&header, static_cast<uint8_t>(kind));
    Put<uint64_t>(&header, 40);
    Put<uint64_t>(&header, 8);
    Put<uint64_t>(&header, Fnv1a(payload));
    header.insert(header.end(), params.begin(), params.end());
    const std::vector<uint8_t> file = ReadAll(path);
    ASSERT_GT(file.size(), header.size());
    EXPECT_TRUE(std::equal(header.begin(), header.end(), file.begin()));
    std::remove(path.c_str());

    // Shard snapshot after two deletes and a checkpoint: magic | u32
    // version | u32 kind | u64 rows | u64 dim | u64 lsn | u8 trained |
    // u64 free count | u64 FNV-1a(body) | body = params ‖ payload ‖ free
    // list (u32 ids in erasure order).
    const std::string dir = TempPath("store_layout_dir");
    std::filesystem::remove_all(dir);
    auto made = Collection::FromSpec(
        "collection,durability=" + dir + ",storage=" + storage +
            ": LinearScan",
        std::make_unique<FloatMatrix>(data));
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    ASSERT_TRUE(made.value()->Delete(5).ok());
    ASSERT_TRUE(made.value()->Delete(2).ok());
    ASSERT_TRUE(made.value()->Checkpoint().ok());
    std::vector<uint8_t> body = params;
    body.insert(body.end(), payload.begin(), payload.end());
    Put<uint32_t>(&body, 5);
    Put<uint32_t>(&body, 2);
    std::vector<uint8_t> snapshot;
    PutMagic(&snapshot, "DBLSHSNP");
    Put<uint32_t>(&snapshot, 1);
    Put<uint32_t>(&snapshot, static_cast<uint32_t>(kind));
    Put<uint64_t>(&snapshot, 40);
    Put<uint64_t>(&snapshot, 8);
    Put<uint64_t>(&snapshot, 2);  // lsn: the two deletes
    Put<uint8_t>(&snapshot, 1);   // trained
    Put<uint64_t>(&snapshot, 2);  // free count
    Put<uint64_t>(&snapshot, Fnv1a(body));
    snapshot.insert(snapshot.end(), body.begin(), body.end());
    EXPECT_EQ(ReadAll(dir + "/shard-0.snap"), snapshot);

    // Manifest: magic | u32 version | u32 shards | u32 dim | u32 storage |
    // u64 wal_seq | u64 checkpoint_lsn | u64 FNV-1a(all preceding bytes).
    std::vector<uint8_t> manifest;
    PutMagic(&manifest, "DBLSHMAN");
    Put<uint32_t>(&manifest, 1);
    Put<uint32_t>(&manifest, 1);
    Put<uint32_t>(&manifest, 8);
    Put<uint32_t>(&manifest, static_cast<uint32_t>(kind));
    Put<uint64_t>(&manifest, 2);  // the seed checkpoint, then this one
    Put<uint64_t>(&manifest, 2);
    Put<uint64_t>(&manifest, Fnv1a(manifest));
    EXPECT_EQ(ReadAll(dir + "/MANIFEST"), manifest);
    made.value().reset();
    std::filesystem::remove_all(dir);
  }
}

// ------------------------------------------------------- Store lifecycle --

// FNV-1a of a store's whole image: the header fields, then Encode()
// (params ‖ payload ‖ free list).
uint64_t ImageDigest(const VectorStore& store) {
  const StoreHeader h = store.header();
  std::vector<uint8_t> bytes;
  Put<uint64_t>(&bytes, h.rows);
  Put<uint64_t>(&bytes, h.dim);
  Put<uint8_t>(&bytes, h.trained ? 1 : 0);
  Put<uint64_t>(&bytes, h.free_count);
  store.Encode(&bytes);
  return Fnv1a(bytes);
}

// One fixed script over a quantized store of `kind` (pq: m = 5 over 12
// dims, a ragged split), one digest per step: the seeded store; an
// empty-seeded store before its first insert, after it and after three
// more and a retrain; the seeded store after drifting inserts, after
// erases and recycled inserts, after RetrainQuantizer (with its result)
// and after TrimTombstonedTail (with its count); its DecodedCopy rows and
// free list; and a Reencode of the seed rows under the final params. Seed
// rows 10 and 299 are outliers that the script erases before retraining,
// so the retrain narrows sq8's range (decoded rows never leave it).
std::vector<uint64_t> LifecycleDigests(StorageKind kind) {
  const size_t dim = 12, m = 5;
  FloatMatrix seed = RandomMatrix(300, dim, 101, /*span=*/1.0);
  for (const size_t r : {10u, 299u}) {
    for (size_t j = 0; j < dim; ++j) seed.at(r, j) *= 20.f;
  }
  const FloatMatrix drift = RandomMatrix(64, dim, 103, /*span=*/5.0);
  std::vector<uint64_t> out;

  auto store = MakeVectorStore(kind, std::make_unique<FloatMatrix>(seed), m);
  out.push_back(ImageDigest(*store));

  auto empty =
      MakeVectorStore(kind, std::make_unique<FloatMatrix>(0, dim), m);
  out.push_back(ImageDigest(*empty));
  empty->InsertRow(drift.row(0), dim);
  out.push_back(ImageDigest(*empty));
  for (size_t i = 1; i < 4; ++i) empty->InsertRow(drift.row(i), dim);
  out.push_back(empty->RetrainQuantizer());
  out.push_back(ImageDigest(*empty));

  for (size_t i = 0; i < drift.rows(); ++i) {
    store->InsertRow(drift.row(i), dim);
  }
  out.push_back(ImageDigest(*store));
  for (const size_t id : {10u, 299u, 5u, 330u}) {
    EXPECT_TRUE(store->EraseRow(id).ok()) << id;
  }
  store->InsertRow(seed.row(7), dim);   // recycles 330
  store->InsertRow(drift.row(9), dim);  // recycles 5
  out.push_back(ImageDigest(*store));
  out.push_back(store->RetrainQuantizer());
  out.push_back(ImageDigest(*store));
  for (const size_t id : {362u, 363u, 361u}) {
    EXPECT_TRUE(store->EraseRow(id).ok()) << id;
  }
  out.push_back(store->TrimTombstonedTail());
  out.push_back(ImageDigest(*store));

  const FloatMatrix copy = store->DecodedCopy();
  out.push_back(util::Fnv1a64(util::BytesOf(copy.data())));
  out.push_back(util::Fnv1a64(util::BytesOf(copy.free_slots())));
  out.push_back(
      ImageDigest(*store->Reencode(std::make_unique<FloatMatrix>(seed))));
  return out;
}

// The bytes every quantized-store step writes, pinned: a snapshot, a
// kRetrain WAL record or a replicated image written by one build must be
// reproduced byte for byte by the next. The round-trip and determinism
// tests compare a build with itself and cannot see a change that moves
// both of their runs alike; these constants can. Never edit them to make
// a change pass.
TEST(StoreLifecycleTest, Sq8) {
  const std::vector<uint64_t> expected = {
      0x63f171d749d43f9bull, 0x691eff2eb1314afdull, 0x8c5eade74cb1a368ull, 1,
      0xbd960f968ca8624aull, 0x15bef495b85a634bull, 0x96d84d2188118e1cull, 1,
      0x6af85205dd96524bull, 3, 0xfee6b8b3dd34de27ull, 0x8389e448c845bb4bull,
      0xaa02ff856151777dull, 0x473f7621e698dcc6ull};
  EXPECT_EQ(LifecycleDigests(StorageKind::kSq8), expected);
}

TEST(StoreLifecycleTest, Pq) {
  const std::vector<uint64_t> expected = {
      0xfa4180f9ec936717ull, 0x8a99fe9a04e989d8ull, 0xd66a703d96eb6448ull, 1,
      0x18e51dc76402e21bull, 0x2d51087bdbc0da3aull, 0xf4a1d3c1346aadecull, 1,
      0xacdfe170f696867aull, 3, 0x70f6522cf47282ccull, 0x669d9305a0372847ull,
      0xaa02ff856151777dull, 0x4ad95daff7e5d6c7ull};
  EXPECT_EQ(LifecycleDigests(StorageKind::kPq), expected);
}

// The recall contract of quantized storage, isolated from any index's
// candidate generation: a LinearScan collection under storage=sq8 scans
// every row asymmetrically and exact-re-ranks the top k*4 — recall
// against the fp32 LinearScan oracle (exact ground truth) must drop no
// more than 2%.
TEST(Sq8RecallTest, WithinTwoPercentOfLinearScanOracleAtDepth4k) {
  ClusteredSpec spec;
  spec.n = 2000;
  spec.dim = 16;
  spec.clusters = 200;  // ~10 points/cluster: realistic local structure
  spec.center_spread = 25.0;
  spec.cluster_stddev = 2.0;
  spec.seed = 20260809;
  const FloatMatrix data = GenerateClustered(spec);
  auto made = Collection::FromSpec(
      "collection,storage=sq8: LinearScan,name=scan",
      std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& collection = *made.value();

  Rng rng(99);
  const size_t k = 10, nq = 100;
  double recall_sum = 0.0;
  std::vector<float> query(spec.dim);
  for (size_t q = 0; q < nq; ++q) {
    const float* base = data.row(rng.UniformInt(data.rows()));
    for (size_t j = 0; j < spec.dim; ++j) {
      query[j] =
          base[j] + static_cast<float>(rng.Gaussian() * spec.cluster_stddev);
    }
    const auto oracle = ExactKnn(data, query.data(), k);
    QueryRequest request;
    request.k = k;
    auto got = collection.Search(query.data(), request, "scan");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<Neighbor> answer = std::move(got.value().neighbors);
    // Distances under sq8 are to decoded rows; rescore the returned ids
    // against the original data so Recall's distance matching measures
    // id-recall rather than quantization noise.
    for (Neighbor& nb : answer) {
      nb.dist = L2Distance(data.row(nb.id), query.data(), spec.dim);
    }
    std::sort(answer.begin(), answer.end());
    recall_sum += eval::Recall(answer, oracle);
  }
  const double recall = recall_sum / double(nq);
  EXPECT_GE(recall, 0.98) << "sq8 recall dropped more than 2% below the "
                             "LinearScan oracle";
}

// The PQ analog at rerank=8: a LinearScan collection under storage=pq
// scans every row via the ADC tables and exact-re-ranks the top k*8 —
// recall against the fp32 LinearScan oracle must stay >= 0.95 at this
// pinned scale (2000 rows, dim 16, m 8: 2-dim subspaces). Unlike sq8,
// PQ's re-rank re-scores against the same centroid decode the ADC table
// already measures, so recall is governed by codebook fineness — the
// subspaces must stay narrow enough for 256 centroids to resolve the
// cluster structure.
TEST(PqRecallTest, WithinOracleAtRerank8) {
  ClusteredSpec spec;
  spec.n = 2000;
  spec.dim = 16;
  spec.clusters = 200;
  spec.center_spread = 25.0;
  spec.cluster_stddev = 2.0;
  spec.seed = 20260810;
  const FloatMatrix data = GenerateClustered(spec);
  auto made = Collection::FromSpec(
      "collection,storage=pq,m=8,rerank=8: LinearScan,name=scan",
      std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& collection = *made.value();

  Rng rng(101);
  const size_t k = 10, nq = 100;
  double recall_sum = 0.0;
  std::vector<float> query(spec.dim);
  for (size_t q = 0; q < nq; ++q) {
    const float* base = data.row(rng.UniformInt(data.rows()));
    for (size_t j = 0; j < spec.dim; ++j) {
      query[j] =
          base[j] + static_cast<float>(rng.Gaussian() * spec.cluster_stddev);
    }
    const auto oracle = ExactKnn(data, query.data(), k);
    QueryRequest request;
    request.k = k;
    auto got = collection.Search(query.data(), request, "scan");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<Neighbor> answer = std::move(got.value().neighbors);
    // Distances under pq are to centroid-decoded rows; rescore against
    // the original data so Recall measures id-recall.
    for (Neighbor& nb : answer) {
      nb.dist = L2Distance(data.row(nb.id), query.data(), spec.dim);
    }
    std::sort(answer.begin(), answer.end());
    recall_sum += eval::Recall(answer, oracle);
  }
  const double recall = recall_sum / double(nq);
  EXPECT_GE(recall, 0.95) << "pq recall dropped below the LinearScan "
                             "oracle contract";
}

}  // namespace
}  // namespace dblsh
