// Tests for the dynamic-update subsystem: FloatMatrix tombstones and
// free-list recycling, the tombstone filter in the shared verification
// path (erased ids never surface from ANY method), native Insert/Erase on
// the tree-backed methods, persistence of mutations, a randomized
// interleaved mutation/query property test against the exact scan, and
// the recall bounds of a streaming workload against full rebuilds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/linear_scan.h"
#include "core/collection.h"
#include "core/db_lsh.h"
#include "core/index_factory.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "util/distance.h"
#include "util/random.h"

namespace dblsh {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

FloatMatrix EasyData(size_t n = 1200, size_t dim = 16, uint64_t seed = 417) {
  return GenerateClustered(
      {.n = n, .dim = dim, .clusters = 10, .seed = seed});
}

// A vector far outside the clustered cloud (centers are in
// [0, 100)^dim), so it is unambiguously the 1-NN of a query at its spot.
std::vector<float> OutlierVector(size_t dim, float value = 500.f) {
  return std::vector<float>(dim, value);
}

bool ContainsId(const std::vector<Neighbor>& result, uint32_t id) {
  return std::any_of(result.begin(), result.end(),
                     [id](const Neighbor& n) { return n.id == id; });
}

// Small-parameter specs for all 12 registered methods, sized so each
// builds in milliseconds on the test datasets.
std::vector<std::string> AllMethodSpecs() {
  return {"DB-LSH,t=16", "FB-LSH,t=16", "E2LSH",      "LCCS-LSH",
          "LSB-Forest",  "LinearScan",  "MultiProbe", "PM-LSH",
          "QALSH,m=20",  "R2LSH,m=20",  "SRS",        "VHP,m=20"};
}

// ------------------------------------------------------- FloatMatrix ------

TEST(FloatMatrixUpdateTest, EraseRowTombstonesWithoutMovingBytes) {
  FloatMatrix m = EasyData(50);
  const float before = m.at(7, 3);
  ASSERT_TRUE(m.EraseRow(7).ok());
  EXPECT_TRUE(m.IsDeleted(7));
  EXPECT_TRUE(m.has_tombstones());
  EXPECT_EQ(m.live_rows(), 49u);
  EXPECT_EQ(m.rows(), 50u);                    // physical shape unchanged
  EXPECT_FLOAT_EQ(m.at(7, 3), before);         // bytes intact
  EXPECT_EQ(m.EraseRow(7).code(), StatusCode::kNotFound);    // double erase
  EXPECT_EQ(m.EraseRow(99).code(), StatusCode::kInvalidArgument);
}

TEST(FloatMatrixUpdateTest, InsertRowRecyclesMostRecentSlotThenAppends) {
  FloatMatrix m = EasyData(20, 4);
  ASSERT_TRUE(m.EraseRow(3).ok());
  ASSERT_TRUE(m.EraseRow(11).ok());
  const std::vector<float> v = OutlierVector(4);
  EXPECT_EQ(m.InsertRow(v.data(), 4), 11u);    // LIFO recycling
  EXPECT_FALSE(m.IsDeleted(11));
  EXPECT_FLOAT_EQ(m.at(11, 0), 500.f);
  EXPECT_EQ(m.InsertRow(v.data(), 4), 3u);
  EXPECT_EQ(m.InsertRow(v.data(), 4), 20u);    // free-list empty: append
  EXPECT_EQ(m.rows(), 21u);
  EXPECT_EQ(m.live_rows(), 21u);
  EXPECT_FALSE(m.has_tombstones());
}

TEST(FloatMatrixUpdateTest, PrefixCarriesTombstonesOfKeptRows) {
  FloatMatrix m = EasyData(30, 4);
  ASSERT_TRUE(m.EraseRow(2).ok());
  ASSERT_TRUE(m.EraseRow(25).ok());
  const FloatMatrix p = m.Prefix(10);
  EXPECT_TRUE(p.IsDeleted(2));
  EXPECT_EQ(p.live_rows(), 9u);
}

// ----------------------------------------- Erase across all 12 methods ----

TEST(TombstoneTest, ErasedIdsNeverReturnedByAnyMethod) {
  FloatMatrix data = EasyData(900, 16);
  // Erase a spread of ids, including ones certain to be near the probes.
  const std::vector<uint32_t> victims = {0, 17, 443, 560, 899};
  for (const std::string& spec : AllMethodSpecs()) {
    FloatMatrix local = data;  // fresh tombstone state per method
    auto made = IndexFactory::Make(spec);
    ASSERT_TRUE(made.ok()) << spec << ": " << made.status().ToString();
    std::unique_ptr<AnnIndex> index = std::move(made).value();
    ASSERT_TRUE(index->Build(&local).ok()) << spec;
    for (uint32_t id : victims) {
      ASSERT_TRUE(local.EraseRow(id).ok());
      if (index->SupportsUpdates()) {
        EXPECT_TRUE(index->Erase(id).ok()) << spec << " id " << id;
      }
    }
    // Query AT each erased point: its slot is the exact NN, so any leak
    // through the tombstone filter would surface immediately.
    for (uint32_t id : victims) {
      const auto result = index->Query(local.row(id), 10);
      for (uint32_t v : victims) {
        EXPECT_FALSE(ContainsId(result, v))
            << spec << " returned erased id " << v;
      }
    }
  }
}

TEST(TombstoneTest, NonUpdatableMethodsReportUnimplemented) {
  FloatMatrix data = EasyData(300, 16);
  for (const std::string& spec :
       {std::string("E2LSH"), std::string("PM-LSH"), std::string("LCCS-LSH"),
        std::string("LSB-Forest"), std::string("MultiProbe")}) {
    auto made = IndexFactory::Make(spec);
    ASSERT_TRUE(made.ok());
    std::unique_ptr<AnnIndex> index = std::move(made).value();
    ASSERT_TRUE(index->Build(&data).ok());
    EXPECT_FALSE(index->SupportsUpdates()) << spec;
    EXPECT_EQ(index->Insert(0).code(), StatusCode::kUnimplemented) << spec;
    EXPECT_EQ(index->Erase(0).code(), StatusCode::kUnimplemented) << spec;
  }
}

// ------------------------------------------------------- Insert paths -----

TEST(InsertTest, InsertThenFindOnEveryUpdatableMethod) {
  for (const std::string& spec : AllMethodSpecs()) {
    auto made = IndexFactory::Make(spec);
    ASSERT_TRUE(made.ok());
    std::unique_ptr<AnnIndex> index = std::move(made).value();
    FloatMatrix data = EasyData(800, 16);
    ASSERT_TRUE(index->Build(&data).ok()) << spec;
    if (!index->SupportsUpdates()) continue;
    const std::vector<float> outlier = OutlierVector(16);
    const uint32_t id = data.InsertRow(outlier.data(), 16);
    ASSERT_TRUE(index->Insert(id).ok()) << spec;
    const auto result = index->Query(outlier.data(), 1);
    ASSERT_FALSE(result.empty()) << spec;
    EXPECT_EQ(result[0].id, id) << spec << " should find the inserted "
                                           "outlier as its own 1-NN";
    EXPECT_FLOAT_EQ(result[0].dist, 0.f) << spec;
  }
}

TEST(InsertTest, EraseThenRecycleSlotServesNewVector) {
  FloatMatrix data = EasyData(700, 16);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  // Erase one point, recycle its slot for an outlier, and make sure the
  // recycled id answers for the NEW vector only.
  const uint32_t victim = 123;
  ASSERT_TRUE(data.EraseRow(victim).ok());
  ASSERT_TRUE(index.Erase(victim).ok());
  const std::vector<float> outlier = OutlierVector(16);
  const uint32_t id = data.InsertRow(outlier.data(), 16);
  ASSERT_EQ(id, victim);  // slot recycled
  ASSERT_TRUE(index.Insert(id).ok());
  const auto at_outlier = index.Query(outlier.data(), 1);
  ASSERT_FALSE(at_outlier.empty());
  EXPECT_EQ(at_outlier[0].id, id);
  EXPECT_FLOAT_EQ(at_outlier[0].dist, 0.f);
}

TEST(InsertTest, BuildOverTombstonedDataIndexesLiveRowsOnly) {
  // Building over a mutated dataset must leave tombstoned slots out of the
  // structures — otherwise recycling the slot later would strand a stale
  // duplicate entry under the slot's old projection.
  for (const std::string& spec : {std::string("DB-LSH,t=16"),
                                  std::string("QALSH,m=20"),
                                  std::string("R2LSH,m=20"),
                                  std::string("VHP,m=20")}) {
    FloatMatrix data = EasyData(500, 16);
    ASSERT_TRUE(data.EraseRow(7).ok());
    auto made = IndexFactory::Make(spec);
    ASSERT_TRUE(made.ok());
    std::unique_ptr<AnnIndex> index = std::move(made).value();
    ASSERT_TRUE(index->Build(&data).ok()) << spec;
    // The tombstoned slot is not structurally indexed.
    EXPECT_EQ(index->Erase(7).code(), StatusCode::kNotFound) << spec;
    // Recycling it serves the new vector cleanly.
    const std::vector<float> outlier = OutlierVector(16);
    const uint32_t id = data.InsertRow(outlier.data(), 16);
    ASSERT_EQ(id, 7u);
    ASSERT_TRUE(index->Insert(id).ok()) << spec;
    const auto got = index->Query(outlier.data(), 1);
    ASSERT_FALSE(got.empty()) << spec;
    EXPECT_EQ(got[0].id, id) << spec;
    EXPECT_FLOAT_EQ(got[0].dist, 0.f) << spec;
    // And erasing it once removes it everywhere; a second erase is NotFound.
    ASSERT_TRUE(data.EraseRow(id).ok());
    EXPECT_TRUE(index->Erase(id).ok()) << spec;
    EXPECT_EQ(index->Erase(id).code(), StatusCode::kNotFound) << spec;
  }
}

TEST(InsertTest, ProtocolViolationsAreRejected) {
  FloatMatrix data = EasyData(300, 16);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  // Not a live row yet.
  EXPECT_EQ(index.Insert(300).code(), StatusCode::kInvalidArgument);
  // Unbuilt index.
  DbLsh unbuilt;
  EXPECT_EQ(unbuilt.Insert(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unbuilt.Erase(0).code(), StatusCode::kInvalidArgument);
  // Erase of an id the trees do not hold.
  EXPECT_EQ(index.Erase(9999).code(), StatusCode::kNotFound);
}

TEST(InsertTest, InsertOfAnIndexedIdIsRejected) {
  // A second Insert of a live, indexed row would add a second entry to
  // every tree (and strand it under a stale box once the slot recycles).
  FloatMatrix data = EasyData(2000, 16);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const size_t entries = index.IndexEntries();
  ASSERT_EQ(entries, 5u * 2000u);
  EXPECT_EQ(index.Insert(5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.IndexEntries(), entries);  // no tree changed
  ASSERT_TRUE(data.EraseRow(5).ok());
  EXPECT_TRUE(index.Erase(5).ok());
  EXPECT_EQ(index.IndexEntries(), entries - 5u);
  EXPECT_EQ(index.Erase(5).code(), StatusCode::kNotFound);
}

// ------------------------------------------------------- Persistence ------

TEST(UpdatePersistenceTest, SaveLoadRoundTripsMutations) {
  FloatMatrix data = EasyData(600, 16);
  DbLsh original;
  ASSERT_TRUE(original.Build(&data).ok());

  // Mutate: erase a few, insert an outlier (recycles one slot) and append.
  for (uint32_t id : {5u, 50u, 500u}) {
    ASSERT_TRUE(data.EraseRow(id).ok());
    ASSERT_TRUE(original.Erase(id).ok());
  }
  const std::vector<float> outlier = OutlierVector(16);
  const uint32_t recycled = data.InsertRow(outlier.data(), 16);
  EXPECT_EQ(recycled, 500u);  // LIFO: most recent tombstone first
  ASSERT_TRUE(original.Insert(recycled).ok());

  const std::string path = TempPath("dblsh_update_roundtrip.idx");
  ASSERT_TRUE(original.Save(path).ok());

  // Reload against a copy WITHOUT tombstone metadata (what a dataset
  // re-read from an fvecs file looks like): Load must restore it.
  FloatMatrix reread(data.rows(), data.cols(), data.data());
  auto loaded = DbLsh::Load(path, &reread);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(reread.live_rows(), data.live_rows());
  EXPECT_TRUE(reread.IsDeleted(5));
  EXPECT_TRUE(reread.IsDeleted(50));
  EXPECT_FALSE(reread.IsDeleted(500));  // recycled slot is live again

  // The loaded index bulk-loads the live set, so tree shapes (and thus
  // candidate order under a budget) can differ from the incrementally
  // mutated original — results are compared on order-insensitive
  // guarantees rather than bit-identity. Index content must match:
  EXPECT_EQ(loaded.value().IndexEntries(), original.IndexEntries());
  // Both serve the post-mutation reality: the inserted vector is its own
  // exact 1-NN, erased ids never appear.
  {
    const auto got = loaded.value().Query(reread.row(recycled), 1);
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got[0].id, recycled);
    EXPECT_FLOAT_EQ(got[0].dist, 0.f);
  }
  for (uint32_t q : {2u, 300u, 599u, recycled}) {
    const auto b = loaded.value().Query(reread.row(q), 10);
    EXPECT_FALSE(b.empty()) << "query " << q;
    EXPECT_FALSE(ContainsId(b, 5));
    EXPECT_FALSE(ContainsId(b, 50));
  }
  std::remove(path.c_str());
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(UpdatePersistenceTest, SaveOfALoadedIndexIsByteIdentical) {
  FloatMatrix data = EasyData(600, 16);
  DbLsh original;
  ASSERT_TRUE(original.Build(&data).ok());
  // Mutate: erase, recycle one erased slot, append.
  for (uint32_t id : {7u, 70u, 400u}) {
    ASSERT_TRUE(data.EraseRow(id).ok());
    ASSERT_TRUE(original.Erase(id).ok());
  }
  const std::vector<float> outlier = OutlierVector(16);
  const uint32_t recycled = data.InsertRow(outlier.data(), 16);
  ASSERT_EQ(recycled, 400u);
  ASSERT_TRUE(original.Insert(recycled).ok());
  const std::vector<float> far = OutlierVector(16, -300.f);
  data.AppendRow(far.data(), 16);  // past the free list: ids 7, 70 stay dead
  ASSERT_TRUE(original.Insert(600).ok());

  const std::string first = TempPath("dblsh_resave_first.idx");
  const std::string second = TempPath("dblsh_resave_second.idx");
  ASSERT_TRUE(original.Save(first).ok());
  FloatMatrix reread(data.rows(), data.cols(), data.data());
  auto loaded = DbLsh::Load(first, &reread);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value().Save(second).ok());
  const std::vector<uint8_t> first_bytes = FileBytes(first);
  ASSERT_FALSE(first_bytes.empty());
  EXPECT_EQ(first_bytes, FileBytes(second));

  // The loaded trees hold the same points: a lookup of every live row (a
  // radius too small for any other point) finds the same id in both.
  QueryRequest lookup;
  lookup.k = 1;
  lookup.r0 = 1e-6;
  lookup.candidate_budget = 1 << 20;
  for (uint32_t id = 0; id < data.rows(); ++id) {
    if (data.IsDeleted(id)) continue;
    const auto want = original.Search(data.row(id), lookup).neighbors;
    const auto got = loaded.value().Search(reread.row(id), lookup).neighbors;
    ASSERT_EQ(want.size(), 1u) << id;
    ASSERT_EQ(got.size(), 1u) << id;
    EXPECT_EQ(got[0].id, want[0].id) << id;
    EXPECT_EQ(got[0].id, id);
  }
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(UpdatePersistenceTest, LoadRejectsTamperedDataByChecksum) {
  FloatMatrix data = EasyData(400, 16);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const std::string path = TempPath("dblsh_checksum.idx");
  ASSERT_TRUE(index.Save(path).ok());

  // Same shape, one float flipped: rows/dim checks pass, checksum must not.
  FloatMatrix tampered = data;
  tampered.at(123, 4) += 1.0f;
  auto r = DbLsh::Load(path, &tampered);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);

  // The untampered dataset still loads.
  auto ok = DbLsh::Load(path, &data);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  std::remove(path.c_str());
}

// ------------------------------------- Interleaved property test ----------

// Randomized interleaving of inserts, erases and queries, checked against
// a brute-force mirror of the live set. LinearScan (exact) must match the
// mirror exactly; DB-LSH (approximate) must only ever return live ids.
TEST(InterleavedUpdateTest, RandomizedMutationsAgreeWithBruteForce) {
  const size_t dim = 12;
  FloatMatrix data = EasyData(500, dim, 90210);
  const FloatMatrix pool = EasyData(400, dim, 90211);

  LinearScan scan_index;
  DbLsh dblsh_index;
  ASSERT_TRUE(scan_index.Build(&data).ok());
  ASSERT_TRUE(dblsh_index.Build(&data).ok());

  Rng rng(1234);
  size_t next_pool = 0;
  for (size_t step = 0; step < 600; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.15 && next_pool < pool.rows()) {
      const uint32_t id = data.InsertRow(pool.row(next_pool++), dim);
      ASSERT_TRUE(scan_index.Insert(id).ok());
      ASSERT_TRUE(dblsh_index.Insert(id).ok());
    } else if (dice < 0.30 && data.live_rows() > 50) {
      uint32_t id;
      do {
        id = static_cast<uint32_t>(rng.UniformInt(data.rows()));
      } while (data.IsDeleted(id));
      ASSERT_TRUE(data.EraseRow(id).ok());
      ASSERT_TRUE(scan_index.Erase(id).ok());
      ASSERT_TRUE(dblsh_index.Erase(id).ok());
    } else {
      // Probe near a random live point.
      uint32_t near;
      do {
        near = static_cast<uint32_t>(rng.UniformInt(data.rows()));
      } while (data.IsDeleted(near));
      std::vector<float> q(data.row(near), data.row(near) + dim);
      q[0] += 0.25f;

      // Brute-force 5-NN over the live rows only.
      std::vector<Neighbor> expected;
      for (uint32_t id = 0; id < data.rows(); ++id) {
        if (data.IsDeleted(id)) continue;
        double d2 = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          const double diff = double(q[j]) - double(data.at(id, j));
          d2 += diff * diff;
        }
        expected.push_back({static_cast<float>(std::sqrt(d2)), id});
      }
      const size_t k = std::min<size_t>(5, expected.size());
      std::partial_sort(expected.begin(), expected.begin() + k,
                        expected.end(), [](const Neighbor& a,
                                           const Neighbor& b) {
                          if (a.dist != b.dist) return a.dist < b.dist;
                          return a.id < b.id;
                        });

      const auto exact = scan_index.Query(q.data(), 5);
      ASSERT_EQ(exact.size(), k);
      for (size_t i = 0; i < k; ++i) {
        // The scan computes float distances through the active SIMD tier
        // while the mirror uses doubles, so near-equal neighbors may swap
        // ranks; accept either the same id or a distance tie.
        EXPECT_TRUE(exact[i].id == expected[i].id ||
                    std::fabs(exact[i].dist - expected[i].dist) <=
                        1e-4f * (1.0f + expected[i].dist))
            << "step " << step << " rank " << i << ": got id "
            << exact[i].id << " dist " << exact[i].dist << ", expected id "
            << expected[i].id << " dist " << expected[i].dist;
        EXPECT_FALSE(data.IsDeleted(exact[i].id));
      }

      const auto approx = dblsh_index.Query(q.data(), 5);
      for (const Neighbor& nb : approx) {
        EXPECT_FALSE(data.IsDeleted(nb.id))
            << "DB-LSH returned erased id " << nb.id << " at step " << step;
      }
    }
  }
}

// ------------------------------------------ Streaming workload ----------

// The neighbors `collection` returns for `query` from its "streaming"
// index, or none (with a test failure) on error.
std::vector<Neighbor> StreamingHits(const Collection& collection,
                                    const float* query, size_t k) {
  QueryRequest request;
  request.k = k;
  auto got = collection.Search(query, request, "streaming");
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  return got.ok() ? std::move(got.value().neighbors)
                  : std::vector<Neighbor>{};
}

// A Collection serving one DB-LSH index absorbs a 90/5/5
// query/upsert/delete mix in place, with no rebuild. Its recall is then
// compared with a full rebuild over the final rows, and with rebuilds on
// quantized storage. The bounds: in-place updates lose at most 0.02
// recall against the rebuild; sq8 stores at most 0.3x the fp32 bytes and
// loses at most 0.02; pq at m = floor(0.48 * dim) stores at most 0.12x
// and loses at most 0.03. At this scale and seed the arms read 0.938
// (in place), 0.938 (rebuild), 0.944 (sq8) and 0.910 (pq).
TEST(StreamingWorkloadTest, RecallBoundsAtThePinnedScale) {
  constexpr size_t kN = 5000, kDim = 32, kOps = 1000, kK = 10;
  constexpr size_t kEvalQueries = 50;
  constexpr uint64_t kSeed = 7;
  constexpr size_t kUpsertOps = kOps / 20, kDeleteOps = kOps / 20;
  ClusteredSpec spec;
  spec.n = kN + kUpsertOps;  // the tail rows feed the upserts
  spec.dim = kDim;
  // ~10 points per cluster over a moderate range, the range-to-structure
  // ratio of normalized embeddings. The wide default is adversarial for
  // any scalar quantizer and would measure the geometry, not the store.
  spec.clusters = std::max<size_t>(32, spec.n / 10);
  spec.center_spread = 25.0;
  spec.seed = kSeed;
  const FloatMatrix cloud = GenerateClustered(spec);

  auto made = Collection::FromSpec(
      "collection: DB-LSH,name=streaming",
      std::make_unique<FloatMatrix>(cloud.Prefix(kN)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& collection = *made.value();

  // Queries are perturbed live rows, so they track the evolving data.
  Rng rng(kSeed ^ 0x57EAAULL);
  auto perturb = [&](const float* base, float* out) {
    for (size_t j = 0; j < kDim; ++j) {
      out[j] = base[j] +
               static_cast<float>(rng.Gaussian() * spec.cluster_stddev);
    }
  };
  // The live ids and the cloud rows they serve.
  std::vector<std::pair<uint32_t, const float*>> live;
  for (uint32_t id = 0; id < kN; ++id) live.emplace_back(id, cloud.row(id));

  // The deterministic schedule: an upsert at op 7 and a delete at op 13
  // of every 20, a query otherwise.
  std::vector<float> query(kDim);
  size_t next_row = kN, upserts = 0, deletes = 0;
  for (size_t op = 0; op < kOps; ++op) {
    const size_t phase = op % 20;
    if (phase == 7 && upserts < kUpsertOps) {
      const float* vec = cloud.row(next_row++);
      auto id = collection.Upsert(vec, kDim);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live.emplace_back(id.value(), vec);
      ++upserts;
    } else if (phase == 13 && deletes < kDeleteOps) {
      const size_t pick = rng.UniformInt(live.size());
      ASSERT_TRUE(collection.Delete(live[pick].first).ok());
      live[pick] = live.back();
      live.pop_back();
      ++deletes;
    } else {
      perturb(live[rng.UniformInt(live.size())].second, query.data());
      StreamingHits(collection, query.data(), kK);  // must only succeed
    }
  }

  const FloatMatrix final_rows = collection.Snapshot();
  FloatMatrix eval_set(kEvalQueries, kDim);
  for (size_t q = 0; q < kEvalQueries; ++q) {
    perturb(live[rng.UniformInt(live.size())].second,
            eval_set.mutable_row(q));
  }
  // Mean recall@k against exact ground truth over the final rows. Hits
  // are rescored against those rows first: a quantized store reports
  // distances to its decoded rows, and Recall matches by distance.
  auto recall_of = [&](auto&& search) {
    double sum = 0.0;
    for (size_t q = 0; q < kEvalQueries; ++q) {
      const float* probe = eval_set.row(q);
      std::vector<Neighbor> hits = search(probe);
      for (Neighbor& nb : hits) {
        nb.dist = L2Distance(final_rows.row(nb.id), probe, kDim);
      }
      std::sort(hits.begin(), hits.end());
      sum += eval::Recall(hits, ExactKnn(final_rows, probe, kK));
    }
    return sum / kEvalQueries;
  };

  const double streamed = recall_of([&](const float* q) {
    return StreamingHits(collection, q, kK);
  });
  const auto* streaming =
      dynamic_cast<const DbLsh*>(collection.GetIndex("streaming"));
  ASSERT_NE(streaming, nullptr);
  DbLsh rebuilt(streaming->params());
  ASSERT_TRUE(rebuilt.Build(&final_rows).ok());
  const double fresh =
      recall_of([&](const float* q) { return rebuilt.Query(q, kK); });
  EXPECT_GE(streamed, fresh - 0.02);

  struct Arm {
    std::string storage;
    double max_bytes_ratio;  // of the fp32 bytes per vector
    double max_recall_loss;  // against the fp32 rebuild
  };
  const size_t fp32_bytes = collection.Storage().bytes_per_vector;
  const std::string pq_m = std::to_string(kDim * 48 / 100);
  for (const Arm& arm :
       {Arm{"sq8", 0.3, 0.02}, Arm{"pq,m=" + pq_m, 0.12, 0.03}}) {
    SCOPED_TRACE(arm.storage);
    auto quantized = Collection::FromSpec(
        "collection,storage=" + arm.storage + ": DB-LSH,name=streaming",
        std::make_unique<FloatMatrix>(final_rows));
    ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
    EXPECT_LE(double(quantized.value()->Storage().bytes_per_vector),
              arm.max_bytes_ratio * double(fp32_bytes));
    EXPECT_GE(recall_of([&](const float* q) {
                return StreamingHits(*quantized.value(), q, kK);
              }),
              fresh - arm.max_recall_loss);
  }
}

}  // namespace
}  // namespace dblsh
