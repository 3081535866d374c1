// Tests for the durability subsystem (src/durability/ + the Collection
// integration): WAL segment round-trips and adversarial tail handling,
// snapshot edge cases, checkpoint/recover lifecycle, background tombstone
// compaction, background tasks (compaction and rebuild) that lose their
// race to a writer, and the randomized crash-point harness —
// FailPoints-injected kills at WAL/snapshot/manifest write boundaries, each
// followed by a reopen that is verified against the digests of the
// committed history ("every acknowledged commit survives, no torn commit is
// ever replayed").
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/linear_scan.h"
#include "core/collection.h"
#include "core/index_factory.h"
#include "dataset/float_matrix.h"
#include "dataset/synthetic.h"
#include "durability/fail_point.h"
#include "durability/format.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "util/random.h"
#include "util/status.h"

namespace dblsh {
namespace {

namespace fs = std::filesystem;
using durability::FailPoints;
using durability::ReadWal;
using durability::WalOp;
using durability::WalWriter;

// Fresh per-test scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("dblsh_dur_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Order-independent digest of the live (id, vector-bytes) set — the
// logical state two collections must agree on. Computed from Snapshot()
// so quantized storage compares its deterministic decode.
uint64_t DigestOf(const Collection& collection) {
  const FloatMatrix snap = collection.Snapshot();
  uint64_t digest = 0;
  for (size_t g = 0; g < snap.rows(); ++g) {
    if (snap.IsDeleted(g)) continue;
    const auto id = static_cast<uint32_t>(g);
    uint64_t h = durability::Fnv1a64(
        reinterpret_cast<const uint8_t*>(&id), sizeof(id));
    h = durability::Fnv1a64(reinterpret_cast<const uint8_t*>(snap.row(g)),
                            snap.cols() * sizeof(float), h);
    digest ^= h;  // xor: insertion order must not matter
  }
  return digest;
}

std::vector<float> MakeVec(size_t dim, Rng* rng) {
  std::vector<float> v(dim);
  for (float& x : v) {
    x = static_cast<float>(rng->NextU64() % 2000) / 10.0f;
  }
  return v;
}

// Disarms every fail point before AND after each test in the file, so a
// test that arms a trigger can never leak it into a neighbor.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().Reset(); }
  void TearDown() override { FailPoints::Instance().Reset(); }
};

// ------------------------------------------------------------ WAL ---------

using WalTest = DurabilityTest;

TEST_F(WalTest, RoundTripsAllRecordKinds) {
  TempDir dir("wal_roundtrip");
  const std::string path = dir.path() + "/seg";
  const uint32_t dim = 4;
  auto writer = WalWriter::Create(path, dim, 1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<float> vec = {1.5f, -2.0f, 3.25f, 0.0f};
  ASSERT_TRUE(writer.value()->Append(10, WalOp::kUpsert, 7, vec.data()).ok());
  ASSERT_TRUE(writer.value()->Append(11, WalOp::kDelete, 7, nullptr).ok());
  ASSERT_TRUE(writer.value()->Append(12, WalOp::kTrim, 3, nullptr).ok());
  writer.value().reset();

  auto replay = ReadWal(path, dim);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_TRUE(replay.value().tail.ok()) << replay.value().tail.ToString();
  ASSERT_EQ(replay.value().records.size(), 3u);
  const auto& r = replay.value().records;
  EXPECT_EQ(r[0].lsn, 10u);
  EXPECT_EQ(r[0].op, WalOp::kUpsert);
  EXPECT_EQ(r[0].id, 7u);
  EXPECT_EQ(r[0].vec, vec);
  EXPECT_EQ(r[1].op, WalOp::kDelete);
  EXPECT_TRUE(r[1].vec.empty());
  EXPECT_EQ(r[2].op, WalOp::kTrim);
  EXPECT_EQ(r[2].id, 3u);
}

TEST_F(WalTest, GroupCommitBatchesFsyncs) {
  TempDir dir("wal_group");
  auto writer = WalWriter::Create(dir.path() + "/seg", 2, 4);
  ASSERT_TRUE(writer.ok());
  const float vec[2] = {1, 2};
  const uint64_t header_syncs = writer.value()->syncs();
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(writer.value()->Append(i + 1, WalOp::kUpsert, 0, vec).ok());
  }
  // 8 appends at sync_every=4 cost exactly 2 fsyncs past the header's.
  EXPECT_EQ(writer.value()->syncs() - header_syncs, 2u);
  ASSERT_TRUE(writer.value()->Sync().ok());
  EXPECT_EQ(writer.value()->syncs() - header_syncs, 3u);
}

TEST_F(WalTest, RejectsDimMismatchAndMissingFile) {
  TempDir dir("wal_dim");
  const std::string path = dir.path() + "/seg";
  ASSERT_TRUE(WalWriter::Create(path, 4, 1).ok());
  auto replay = ReadWal(path, 8);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ReadWal(dir.path() + "/nope", 4).status().code(),
            StatusCode::kIoError);
}

// Fuzz: truncating the segment at EVERY byte boundary must always yield a
// prefix of the original records plus a typed verdict — never a crash,
// never a record the full file did not contain (no phantom rows).
TEST_F(WalTest, TruncationAtEveryByteYieldsCleanPrefix) {
  TempDir dir("wal_trunc");
  const std::string path = dir.path() + "/seg";
  const uint32_t dim = 3;
  auto writer = WalWriter::Create(path, dim, 1);
  ASSERT_TRUE(writer.ok());
  Rng rng(11);
  for (uint64_t i = 0; i < 5; ++i) {
    const std::vector<float> vec = MakeVec(dim, &rng);
    if (i % 2 == 0) {
      ASSERT_TRUE(
          writer.value()->Append(i + 1, WalOp::kUpsert, 10 + i, vec.data())
              .ok());
    } else {
      ASSERT_TRUE(
          writer.value()->Append(i + 1, WalOp::kDelete, 10 + i, nullptr)
              .ok());
    }
  }
  writer.value().reset();
  const std::vector<uint8_t> full = ReadFileBytes(path);
  auto full_replay = ReadWal(path, dim);
  ASSERT_TRUE(full_replay.ok());
  ASSERT_EQ(full_replay.value().records.size(), 5u);

  const std::string cut_path = dir.path() + "/cut";
  for (size_t len = 0; len < full.size(); ++len) {
    WriteFileBytes(cut_path,
                   std::vector<uint8_t>(full.begin(), full.begin() + len));
    auto replay = ReadWal(cut_path, dim);
    if (!replay.ok()) {
      // Only header damage may fail outright.
      EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
      continue;
    }
    const auto& got = replay.value().records;
    ASSERT_LE(got.size(), 5u) << "phantom record at cut " << len;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].lsn, full_replay.value().records[i].lsn);
      EXPECT_EQ(got[i].id, full_replay.value().records[i].id);
      EXPECT_EQ(got[i].vec, full_replay.value().records[i].vec);
    }
    // A cut at a record boundary reads as a clean (shorter) segment; a
    // cut inside a record must be reported as a torn tail.
    const bool at_boundary = replay.value().bytes_scanned == len;
    EXPECT_TRUE(at_boundary ? replay.value().tail.ok()
                            : !replay.value().tail.ok())
        << "cut at byte " << len;
  }
}

// Fuzz: flipping any single byte must never surface a damaged record —
// replay stops at (or before) the flipped record with a typed tail.
TEST_F(WalTest, BitFlipsNeverYieldDamagedRecords) {
  TempDir dir("wal_flip");
  const std::string path = dir.path() + "/seg";
  const uint32_t dim = 2;
  auto writer = WalWriter::Create(path, dim, 1);
  ASSERT_TRUE(writer.ok());
  Rng rng(13);
  std::vector<std::vector<float>> vecs;
  for (uint64_t i = 0; i < 4; ++i) {
    vecs.push_back(MakeVec(dim, &rng));
    ASSERT_TRUE(
        writer.value()->Append(i + 1, WalOp::kUpsert, i, vecs.back().data())
            .ok());
  }
  writer.value().reset();
  const std::vector<uint8_t> full = ReadFileBytes(path);

  const std::string flip_path = dir.path() + "/flip";
  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::vector<uint8_t> mutated = full;
    mutated[pos] ^= 0x40;
    WriteFileBytes(flip_path, mutated);
    auto replay = ReadWal(flip_path, dim);
    if (!replay.ok()) {
      EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
      continue;
    }
    // Every surviving record must be bit-identical to the original at the
    // same position, and the flip must cut replay short with a typed
    // tail — a checksum collision under a single-bit flip would be the
    // only other outcome, and FNV-1a has none over one record.
    const auto& got = replay.value().records;
    ASSERT_LT(got.size(), 5u);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].lsn, i + 1);
      EXPECT_EQ(got[i].vec, vecs[i]);
    }
    EXPECT_FALSE(replay.value().tail.ok())
        << "flip at byte " << pos << " went undetected";
  }
}

TEST_F(WalTest, GarbageAppendedAfterValidRecordsIsTypedNotFatal) {
  TempDir dir("wal_garbage");
  const std::string path = dir.path() + "/seg";
  const uint32_t dim = 2;
  auto writer = WalWriter::Create(path, dim, 1);
  ASSERT_TRUE(writer.ok());
  const float vec[2] = {4, 2};
  ASSERT_TRUE(writer.value()->Append(1, WalOp::kUpsert, 0, vec).ok());
  ASSERT_TRUE(writer.value()->Append(2, WalOp::kDelete, 0, nullptr).ok());
  writer.value().reset();

  Rng rng(17);
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  for (int round = 0; round < 32; ++round) {
    std::vector<uint8_t> mutated = bytes;
    const size_t garbage = 1 + rng.NextU64() % 64;
    for (size_t i = 0; i < garbage; ++i) {
      mutated.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
    WriteFileBytes(path, mutated);
    auto replay = ReadWal(path, dim);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value().records.size(), 2u);
    EXPECT_FALSE(replay.value().tail.ok());
    EXPECT_EQ(replay.value().tail.code(), StatusCode::kCorruption);
  }
}

// ------------------------------------------------- snapshot edge cases ----

std::string DurableSpec(const std::string& dir, const std::string& extra = "",
                        const std::string& indexes = "LinearScan") {
  return "collection,durability=" + dir + extra + ": " + indexes;
}

using DurabilitySnapshotTest = DurabilityTest;

TEST_F(DurabilitySnapshotTest, EmptyCollectionRoundTrips) {
  TempDir dir("snap_empty");
  auto made = Collection::FromSpec(DurableSpec(dir.path()),
                                   std::make_unique<FloatMatrix>(0, 8));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  EXPECT_EQ(made.value()->size(), 0u);
  made.value().reset();

  auto reopened = Collection::Open(DurableSpec(dir.path()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), 0u);
  EXPECT_EQ(reopened.value()->dim(), 8u);
  // An empty store must still accept writes after recovery.
  const std::vector<float> vec(8, 1.0f);
  auto up = reopened.value()->Upsert(vec.data(), vec.size());
  ASSERT_TRUE(up.ok()) << up.status().ToString();
}

TEST_F(DurabilitySnapshotTest, AllTombstonedShardRoundTrips) {
  TempDir dir("snap_tombs");
  FloatMatrix data = GenerateClustered({.n = 24, .dim = 8, .clusters = 3});
  auto made =
      Collection::FromSpec(DurableSpec(dir.path(), ",shards=2"),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  for (uint32_t id = 0; id < 24; ++id) {
    ASSERT_TRUE(made.value()->Delete(id).ok());
  }
  ASSERT_TRUE(made.value()->Checkpoint().ok());
  const uint64_t digest = DigestOf(*made.value());
  made.value().reset();

  auto reopened = Collection::Open(DurableSpec(dir.path(), ",shards=2"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), 0u);
  EXPECT_EQ(DigestOf(*reopened.value()), digest);
  // Recycled slots must work: new upserts land on tombstoned rows.
  Rng rng(23);
  for (int i = 0; i < 6; ++i) {
    const auto vec = MakeVec(8, &rng);
    ASSERT_TRUE(reopened.value()->Upsert(vec.data(), vec.size()).ok());
  }
  EXPECT_EQ(reopened.value()->size(), 6u);
}

TEST_F(DurabilitySnapshotTest, Sq8SnapshotRoundTripsByteIdentically) {
  TempDir dir("snap_sq8");
  FloatMatrix data = GenerateClustered({.n = 60, .dim = 12, .clusters = 4});
  const std::string extra = ",storage=sq8,rerank=2";
  auto made =
      Collection::FromSpec(DurableSpec(dir.path(), extra),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ASSERT_TRUE(made.value()->Delete(3).ok());
  ASSERT_TRUE(made.value()->Delete(17).ok());
  ASSERT_TRUE(made.value()->Checkpoint().ok());
  const uint64_t digest = DigestOf(*made.value());
  const std::vector<uint8_t> snap_before =
      ReadFileBytes(durability::SnapshotPath(dir.path(), 0));
  ASSERT_FALSE(snap_before.empty());
  made.value().reset();

  // Recovery adopts the persisted sq8 codes verbatim (the fp32 payload was
  // released, so re-encoding is impossible) and the checkpoint recovery
  // finishes with must reproduce the snapshot file byte for byte.
  auto reopened = Collection::Open(DurableSpec(dir.path(), extra));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(DigestOf(*reopened.value()), digest);
  EXPECT_EQ(ReadFileBytes(durability::SnapshotPath(dir.path(), 0)),
            snap_before);
}

TEST_F(DurabilitySnapshotTest, PqSnapshotRoundTripsByteIdentically) {
  TempDir dir("snap_pq");
  FloatMatrix data = GenerateClustered({.n = 60, .dim = 12, .clusters = 4});
  const std::string extra = ",storage=pq,m=3,rerank=2";
  auto made =
      Collection::FromSpec(DurableSpec(dir.path(), extra),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ASSERT_TRUE(made.value()->Delete(3).ok());
  ASSERT_TRUE(made.value()->Delete(17).ok());
  ASSERT_TRUE(made.value()->Checkpoint().ok());
  const uint64_t digest = DigestOf(*made.value());
  const std::vector<uint8_t> snap_before =
      ReadFileBytes(durability::SnapshotPath(dir.path(), 0));
  ASSERT_FALSE(snap_before.empty());
  made.value().reset();

  // Recovery adopts the persisted pq codes and codebooks verbatim (the
  // fp32 payload was released, so re-encoding is impossible) and the
  // checkpoint recovery finishes with must reproduce the snapshot file
  // byte for byte.
  auto reopened = Collection::Open(DurableSpec(dir.path(), extra));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(DigestOf(*reopened.value()), digest);
  EXPECT_EQ(ReadFileBytes(durability::SnapshotPath(dir.path(), 0)),
            snap_before);
}

// A kRetrain WAL record replays deterministically: closing without a
// final checkpoint forces reopen to re-run the retrain from the log, and
// the recovered codes must decode to the same bytes.
TEST_F(DurabilitySnapshotTest, PqRetrainReplaysFromWal) {
  TempDir dir("snap_pq_retrain");
  FloatMatrix data = GenerateClustered({.n = 64, .dim = 8, .clusters = 4});
  const std::string extra = ",storage=pq,m=4,rerank=2";
  const std::string indexes = "LinearScan,rebuild_threshold=8";
  auto made =
      Collection::FromSpec(DurableSpec(dir.path(), extra, indexes),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  // No checkpoint after this point: every mutation — including the
  // retrains the threshold keeps triggering — must come back via replay.
  Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    const auto vec = MakeVec(8, &rng);
    ASSERT_TRUE(made.value()->Upsert(vec.data(), vec.size()).ok());
    if (i % 7 == 3) {
      ASSERT_TRUE(made.value()->Delete(static_cast<uint32_t>(i)).ok());
    }
  }
  const uint64_t digest = DigestOf(*made.value());
  const size_t live = made.value()->size();
  made.value().reset();

  auto reopened =
      Collection::Open(DurableSpec(dir.path(), extra, indexes));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), live);
  EXPECT_EQ(DigestOf(*reopened.value()), digest);
}

// Reopening a pq collection with a different m than the snapshot was
// written with must fail typed instead of adopting mismatched codes.
TEST_F(DurabilitySnapshotTest, PqSubspaceMismatchOnReopenIsRejected) {
  TempDir dir("snap_pq_m");
  FloatMatrix data = GenerateClustered({.n = 40, .dim = 12, .clusters = 4});
  auto made = Collection::FromSpec(
      DurableSpec(dir.path(), ",storage=pq,m=3"),
      std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ASSERT_TRUE(made.value()->Checkpoint().ok());
  made.value().reset();
  auto reopened =
      Collection::Open(DurableSpec(dir.path(), ",storage=pq,m=4"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(DurabilitySnapshotTest, CheckpointWhileBackgroundRebuildInflight) {
  TempDir dir("snap_rebuild");
  FloatMatrix data = GenerateClustered({.n = 80, .dim = 8, .clusters = 4});
  const std::string extra = ",rebuild=background";
  auto made = Collection::FromSpec(
      DurableSpec(dir.path(), extra, "LinearScan,rebuild_threshold=4"),
      std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Rng rng(29);
  // Keep staleness crossing the threshold so rebuilds are repeatedly
  // inflight while checkpoints interleave with them.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 6; ++i) {
      const auto vec = MakeVec(8, &rng);
      ASSERT_TRUE(made.value()->Upsert(vec.data(), vec.size()).ok());
    }
    ASSERT_TRUE(made.value()->Checkpoint().ok());
  }
  const uint64_t digest = DigestOf(*made.value());
  const size_t live = made.value()->size();
  made.value().reset();

  auto reopened = Collection::Open(DurableSpec(dir.path(), extra));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), live);
  EXPECT_EQ(DigestOf(*reopened.value()), digest);
}

// ------------------------------------------------------- open errors ------

using DurabilityOpenTest = DurabilityTest;

TEST_F(DurabilityOpenTest, MissingDirectoryIsNotFound) {
  TempDir dir("open_missing");
  auto opened = Collection::Open(DurableSpec(dir.path() + "/nope"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST_F(DurabilityOpenTest, OpenRequiresDurabilityKey) {
  auto opened = Collection::Open("collection: LinearScan");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DurabilityOpenTest, SeedingOverExistingStateIsRejected) {
  TempDir dir("open_seed");
  FloatMatrix data = GenerateClustered({.n = 20, .dim = 8, .clusters = 2});
  auto made =
      Collection::FromSpec(DurableSpec(dir.path()),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok());
  made.value().reset();

  FloatMatrix again = GenerateClustered({.n = 20, .dim = 8, .clusters = 2});
  auto clobber =
      Collection::FromSpec(DurableSpec(dir.path()),
                           std::make_unique<FloatMatrix>(std::move(again)));
  ASSERT_FALSE(clobber.ok());
  EXPECT_EQ(clobber.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DurabilityOpenTest, CorruptManifestIsTypedAndNeverClobbered) {
  TempDir dir("open_manifest");
  FloatMatrix data = GenerateClustered({.n = 20, .dim = 8, .clusters = 2});
  auto made =
      Collection::FromSpec(DurableSpec(dir.path()),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok());
  made.value().reset();

  std::vector<uint8_t> manifest =
      ReadFileBytes(durability::ManifestPath(dir.path()));
  ASSERT_FALSE(manifest.empty());
  manifest[manifest.size() / 2] ^= 0xFF;
  WriteFileBytes(durability::ManifestPath(dir.path()), manifest);

  auto opened = Collection::Open(DurableSpec(dir.path()));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  // Seeding over the damaged directory must refuse too, not silently
  // reinitialize it.
  FloatMatrix again = GenerateClustered({.n = 20, .dim = 8, .clusters = 2});
  auto seeded =
      Collection::FromSpec(DurableSpec(dir.path()),
                           std::make_unique<FloatMatrix>(std::move(again)));
  ASSERT_FALSE(seeded.ok());
  EXPECT_EQ(seeded.status().code(), StatusCode::kCorruption);
}

TEST_F(DurabilityOpenTest, CorruptSnapshotIsTyped) {
  TempDir dir("open_snap");
  FloatMatrix data = GenerateClustered({.n = 20, .dim = 8, .clusters = 2});
  auto made =
      Collection::FromSpec(DurableSpec(dir.path()),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok());
  made.value().reset();

  const std::string snap_path = durability::SnapshotPath(dir.path(), 0);
  std::vector<uint8_t> snap = ReadFileBytes(snap_path);
  ASSERT_FALSE(snap.empty());
  snap[snap.size() - 3] ^= 0x01;
  WriteFileBytes(snap_path, snap);

  auto opened = Collection::Open(DurableSpec(dir.path()));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

// A shard snapshot must hold the storage kind the manifest records: a pq
// snapshot copied into an sq8 directory of the same dim is Corruption
// naming the shard and both kinds, never a store of the wrong kind.
TEST_F(DurabilityOpenTest, SnapshotOfAnotherStorageKindIsCorruption) {
  TempDir pq_dir("open_kind_pq");
  TempDir sq8_dir("open_kind_sq8");
  for (const auto& [dir, storage] :
       {std::pair{&pq_dir, ",storage=pq,m=16"},
        std::pair{&sq8_dir, ",storage=sq8"}}) {
    FloatMatrix data =
        GenerateClustered({.n = 40, .dim = 16, .clusters = 4});
    auto made =
        Collection::FromSpec(DurableSpec(dir->path(), storage),
                             std::make_unique<FloatMatrix>(std::move(data)));
    ASSERT_TRUE(made.ok()) << made.status().ToString();
  }
  WriteFileBytes(durability::SnapshotPath(sq8_dir.path(), 0),
                 ReadFileBytes(durability::SnapshotPath(pq_dir.path(), 0)));

  auto opened = Collection::Open(DurableSpec(sq8_dir.path(), ",storage=sq8"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  const std::string& message = opened.status().message();
  EXPECT_NE(message.find("shard 0"), std::string::npos) << message;
  EXPECT_NE(message.find("pq"), std::string::npos) << message;
  EXPECT_NE(message.find("sq8"), std::string::npos) << message;
}

TEST_F(DurabilityOpenTest, ShardGeometryMismatchIsRejected) {
  TempDir dir("open_shards");
  FloatMatrix data = GenerateClustered({.n = 20, .dim = 8, .clusters = 2});
  auto made =
      Collection::FromSpec(DurableSpec(dir.path(), ",shards=2"),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok());
  made.value().reset();

  auto opened = Collection::Open(DurableSpec(dir.path(), ",shards=4"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DurabilityOpenTest, TornWalTailOnLiveSegmentIsRecoveredFrom) {
  TempDir dir("open_torn");
  FloatMatrix data = GenerateClustered({.n = 20, .dim = 8, .clusters = 2});
  auto made =
      Collection::FromSpec(DurableSpec(dir.path()),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok());
  Rng rng(31);
  const auto vec = MakeVec(8, &rng);
  ASSERT_TRUE(made.value()->Upsert(vec.data(), vec.size()).ok());
  const uint64_t digest = DigestOf(*made.value());
  made.value().reset();

  // Append garbage to the live segment: a crash mid-append. Recovery must
  // keep every acknowledged record and ignore the tail.
  const auto segments = durability::ListWalSegments(dir.path(), 0);
  ASSERT_FALSE(segments.empty());
  const std::string seg_path =
      durability::WalPath(dir.path(), 0, segments.back());
  std::vector<uint8_t> bytes = ReadFileBytes(seg_path);
  for (int i = 0; i < 13; ++i) bytes.push_back(0xA5);
  WriteFileBytes(seg_path, bytes);

  auto reopened = Collection::Open(DurableSpec(dir.path()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), 21u);
  EXPECT_EQ(DigestOf(*reopened.value()), digest);
}

// Mutations after the checkpoint-on-open live only in the WAL; a reopen
// must restore the snapshot, replay exactly that tail onto it (and count
// it), and serve the same answers as before the close.
TEST_F(DurabilityOpenTest, ReopenReplaysTheWalTailOntoTheCheckpoint) {
  TempDir dir("open_replay");
  const std::string spec = DurableSpec(dir.path(), ",shards=2");
  constexpr size_t kSeed = 200, kDim = 8, kUpserts = 12;
  const std::vector<uint32_t> deleted = {3, 17, 42, 99, 150};
  FloatMatrix data =
      GenerateClustered({.n = kSeed, .dim = kDim, .clusters = 4});
  const FloatMatrix queries = data.Prefix(6);
  auto made = Collection::FromSpec(
      spec, std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Rng rng(77);
  for (size_t i = 0; i < kUpserts; ++i) {
    const auto vec = MakeVec(kDim, &rng);
    ASSERT_TRUE(made.value()->Upsert(vec.data(), vec.size()).ok());
  }
  for (uint32_t id : deleted) ASSERT_TRUE(made.value()->Delete(id).ok());

  QueryRequest request;
  request.k = 5;
  auto before = made.value()->SearchBatch(queries, request);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const uint64_t digest = DigestOf(*made.value());
  made.value().reset();  // no checkpoint since open: the tail is WAL-only

  auto reopened = Collection::Open(spec);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const CollectionDurabilityInfo info = reopened.value()->Durability();
  EXPECT_EQ(info.replayed_records, kUpserts + deleted.size());
  EXPECT_GT(info.recovery_ms, 0.0);
  EXPECT_EQ(reopened.value()->size(), kSeed + kUpserts - deleted.size());
  EXPECT_EQ(DigestOf(*reopened.value()), digest);

  auto after = reopened.value()->SearchBatch(queries, request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto ids_of = [](const QueryResponse& response) {
    std::vector<uint32_t> ids;
    for (const Neighbor& nb : response.neighbors) ids.push_back(nb.id);
    return ids;
  };
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_EQ(ids_of(after.value()[q]), ids_of(before.value()[q]))
        << "query " << q;
  }
}

// ------------------------------------------------------- compaction -------

using CompactTest = DurabilityTest;

TEST_F(CompactTest, ThresholdTriggersShardRewrite) {
  TempDir dir("compact_basic");
  FloatMatrix data = GenerateClustered({.n = 100, .dim = 8, .clusters = 4});
  auto made = Collection::FromSpec(
      DurableSpec(dir.path(), ",compact_threshold=0.3"),
      std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();
  // Tombstone the tail 40 rows: ratio 0.4 crosses the 0.3 threshold and
  // the whole dead run is physically trimmable.
  for (uint32_t id = 60; id < 100; ++id) ASSERT_TRUE(c.Delete(id).ok());

  // The crossing delete schedules the compaction task synchronously, so
  // quiescing background work is a deterministic wait for it.
  c.WaitForRebuilds();
  EXPECT_GE(c.Durability().compactions, 1u);
  EXPECT_EQ(c.size(), 60u);
  EXPECT_EQ(c.Snapshot().rows(), 60u) << "tombstoned tail not trimmed";

  // The rewrite (and its kTrim WAL record) must survive a reopen.
  const uint64_t digest = DigestOf(c);
  made.value().reset();
  auto reopened =
      Collection::Open(DurableSpec(dir.path(), ",compact_threshold=0.3"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), 60u);
  EXPECT_EQ(reopened.value()->Snapshot().rows(), 60u);
  EXPECT_EQ(DigestOf(*reopened.value()), digest);
}

TEST_F(CompactTest, Sq8ShardCompactsAndRoundTrips) {
  TempDir dir("compact_sq8");
  FloatMatrix data = GenerateClustered({.n = 100, .dim = 8, .clusters = 4});
  const std::string extra = ",storage=sq8,rerank=2,compact_threshold=0.25";
  auto made =
      Collection::FromSpec(DurableSpec(dir.path(), extra),
                           std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();
  for (uint32_t id = 70; id < 100; ++id) ASSERT_TRUE(c.Delete(id).ok());
  c.WaitForRebuilds();
  EXPECT_GE(c.Durability().compactions, 1u);
  EXPECT_EQ(c.Snapshot().rows(), 70u);

  const uint64_t digest = DigestOf(c);
  made.value().reset();
  auto reopened = Collection::Open(DurableSpec(dir.path(), extra));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(DigestOf(*reopened.value()), digest);
}

// Compaction must never block a concurrent reader: searches run throughout
// the trigger, the background rewrite, and the swap (TSan-verified in the
// sanitizer CI jobs).
TEST_F(CompactTest, CompactionDoesNotBlockConcurrentReader) {
  TempDir dir("compact_reader");
  FloatMatrix data = GenerateClustered({.n = 200, .dim = 8, .clusters = 4});
  auto made = Collection::FromSpec(
      DurableSpec(dir.path(), ",compact_threshold=0.3"),
      std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> searches{0};
  std::atomic<uint64_t> failures{0};
  std::thread reader([&] {
    Rng rng(37);
    QueryRequest request;
    request.k = 5;
    while (!stop.load(std::memory_order_acquire)) {
      const auto query = MakeVec(8, &rng);
      auto response = c.Search(query.data(), request);
      if (!response.ok()) failures.fetch_add(1);
      searches.fetch_add(1);
    }
  });

  // Push the tombstone ratio past the threshold while the reader runs.
  for (uint32_t id = 120; id < 200; ++id) ASSERT_TRUE(c.Delete(id).ok());
  // Quiesce with the reader still searching: the background rewrite and
  // its swap-in happen underneath live shared-lock readers.
  c.WaitForRebuilds();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GE(c.Durability().compactions, 1u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(searches.load(), 0u);
  EXPECT_EQ(c.Snapshot().rows(), 120u);
  // Post-compaction searches still see exactly the live set.
  QueryRequest request;
  request.k = 10;
  Rng rng(41);
  const auto query = MakeVec(8, &rng);
  auto response = c.Search(query.data(), request);
  ASSERT_TRUE(response.ok());
  for (const Neighbor& nb : response.value().neighbors) {
    EXPECT_LT(nb.id, 120u);
  }
}

// ------------------------------------- background tasks racing a writer ---

// Runs first in every HookedScan::Build. A replacement build runs off
// every collection lock, so a hook that commits a mutation lands exactly
// where a concurrent writer's commit would: between the task's snapshot
// and its landing.
std::function<void()> g_build_hook;

// A LinearScan that is static (it ages by staleness instead of absorbing
// mutations) and calls g_build_hook before building.
class HookedScan : public LinearScan {
 public:
  Status Build(const FloatMatrix* data) override {
    if (g_build_hook) g_build_hook();
    return LinearScan::Build(data);
  }
  bool SupportsUpdates() const override { return false; }
};

// Serves the factory's "LinearScan" entry from HookedScan for one test and
// restores the plain method afterwards: a registration under a new name
// would outlive the test and change IndexFactory::ListMethods() for every
// later test in the process.
class ScopedHookedScan {
 public:
  ScopedHookedScan() {
    Register([](const IndexFactory::Spec&)
                 -> Result<std::unique_ptr<AnnIndex>> {
      return std::unique_ptr<AnnIndex>(std::make_unique<HookedScan>());
    });
  }
  ~ScopedHookedScan() {
    Register([](const IndexFactory::Spec& spec)
                 -> Result<std::unique_ptr<AnnIndex>> {
      SpecReader reader(spec);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      return std::unique_ptr<AnnIndex>(std::make_unique<LinearScan>());
    });
    g_build_hook = nullptr;
  }

 private:
  static void Register(IndexFactory::Builder builder) {
    IndexFactory::Register(
        "LinearScan",
        "Exact brute-force scan: the ground-truth oracle and linear-cost "
        "reference point",
        std::move(builder));
  }
};

// A compaction whose first three builds each lose the race to a commit
// must still land once the writer goes quiet, with no later commit to
// re-trigger it — and build at most once more than commits raced it.
TEST_F(CompactTest, CompactionRetriesWithoutAFurtherCommit) {
  TempDir dir("compact_retry");
  ScopedHookedScan hooked;
  FloatMatrix data = GenerateClustered({.n = 100, .dim = 8, .clusters = 4});
  auto made = Collection::FromSpec(
      DurableSpec(dir.path(), ",compact_threshold=0.3"),
      std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();
  // 29 tombstoned tail rows of 100: just under the trigger.
  for (uint32_t id = 71; id < 100; ++id) ASSERT_TRUE(c.Delete(id).ok());

  std::atomic<uint32_t> builds{0};
  g_build_hook = [&] {
    const uint32_t n = ++builds;
    if (n <= 3) {
      EXPECT_TRUE(c.Delete(70 - n).ok());
    }
  };
  ASSERT_TRUE(c.Delete(70).ok());  // ratio 0.30: schedules the compaction
  c.WaitForRebuilds();

  EXPECT_EQ(c.Durability().compactions, 1u);
  EXPECT_LE(builds.load(), 3u + 1u);
  EXPECT_EQ(c.size(), 67u);
  EXPECT_EQ(c.Snapshot().rows(), 67u) << "racing deletes not trimmed";
}

// The same race against a background rebuild of a static slot.
using CollectionBackgroundRebuildTest = DurabilityTest;

TEST_F(CollectionBackgroundRebuildTest, RetriesWithoutAFurtherCommit) {
  ScopedHookedScan hooked;
  auto made = Collection::FromSpec(
      "collection,rebuild=background: LinearScan,rebuild_threshold=2",
      std::make_unique<FloatMatrix>(
          GenerateClustered({.n = 100, .dim = 8, .clusters = 4})));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();
  Rng rng(7);
  ASSERT_TRUE(c.Upsert(MakeVec(8, &rng).data(), 8).ok());  // staleness 1

  std::atomic<uint32_t> builds{0};
  Rng hook_rng(8);
  std::vector<float> racing;  // last vector a racing commit upserted
  uint32_t racing_id = 0;
  g_build_hook = [&] {
    if (++builds > 3) return;
    racing = MakeVec(8, &hook_rng);
    auto up = c.Upsert(racing.data(), racing.size());
    ASSERT_TRUE(up.ok()) << up.status().ToString();
    racing_id = up.value();
  };
  // Staleness 2 reaches the threshold: schedules the background rebuild.
  ASSERT_TRUE(c.Upsert(MakeVec(8, &rng).data(), 8).ok());
  c.WaitForRebuilds();

  const CollectionIndexInfo info = c.Indexes()[0];
  EXPECT_EQ(info.rebuilds, 1u);
  EXPECT_EQ(info.staleness, 0u);
  EXPECT_TRUE(info.build_error.empty()) << info.build_error;
  EXPECT_LE(builds.load(), 3u + 1u);
  // The landed index covers the racing commits too.
  QueryRequest request;
  request.k = 1;
  auto found = c.Search(racing.data(), request);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_EQ(found.value().neighbors.size(), 1u);
  EXPECT_EQ(found.value().neighbors[0].id, racing_id);
}

// --------------------------------------------- randomized crash harness ---

// One randomized kill-point iteration: run a random upsert/replace/delete/
// checkpoint trace against a durable collection with one armed fail point,
// record the logical digest after every applied mutation, then reopen and
// check the recovered state is exactly one of the two reachable durable
// states — the last acknowledged digest, or (when the dying write made it
// to disk whole) the digest including the final unacknowledged mutation.
// Any other outcome means a lost acknowledged commit or a replayed torn
// commit.
void RunCrashIteration(uint64_t seed) {
  SCOPED_TRACE("crash iteration seed=" + std::to_string(seed));
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  TempDir dir("crash_" + std::to_string(seed));

  const size_t dim = 8;
  const uint64_t shards = 1 + rng.NextU64() % 2;
  const uint64_t wal_sync = 1 + rng.NextU64() % 4;
  const bool sq8 = rng.NextU64() % 4 == 0;
  std::string extra = ",shards=" + std::to_string(shards) +
                      ",wal_sync=" + std::to_string(wal_sync);
  if (sq8) extra += ",storage=sq8,rerank=2";
  const std::string spec = DurableSpec(dir.path(), extra);

  const size_t n0 = 8 + rng.NextU64() % 12;
  FloatMatrix data(n0, dim);
  for (size_t r = 0; r < n0; ++r) {
    const auto vec = MakeVec(dim, &rng);
    std::memcpy(data.mutable_row(r), vec.data(), dim * sizeof(float));
  }
  auto made =
      Collection::FromSpec(spec, std::make_unique<FloatMatrix>(std::move(data)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();

  // Arm one random kill point AFTER the seeding checkpoint, so the trace
  // below is what gets killed. nth counts hits from here on.
  const char* points[] = {durability::kFailWalAppend,
                          durability::kFailWalSync,
                          durability::kFailSnapshotWrite,
                          durability::kFailManifestWrite};
  const bool armed = rng.NextU64() % 5 != 0;  // 20%: clean-run control
  if (armed) {
    FailPoints::Instance().Reset();
    FailPoints::Instance().Arm(points[rng.NextU64() % 4],
                               1 + rng.NextU64() % 24, rng.NextU64() % 48);
  }

  // digests[i] = logical state after the i-th applied mutation; the last
  // entry a successful (acknowledged) mutation produced is last_acked.
  std::vector<uint64_t> digests = {DigestOf(c)};
  size_t last_acked = 0;
  std::vector<uint32_t> live;
  for (uint32_t id = 0; id < n0; ++id) live.push_back(id);
  bool wal_poisoned = false;

  const int ops = 24 + static_cast<int>(rng.NextU64() % 12);
  for (int op = 0; op < ops && !wal_poisoned; ++op) {
    const uint64_t kind = rng.NextU64() % 100;
    if (kind < 10) {
      // Checkpoint: a failure here (injected snapshot/manifest/rotation
      // crash) leaves the logical state untouched and the WAL intact, so
      // the trace simply continues.
      (void)c.Checkpoint();
      continue;
    }
    Status status;
    if (kind < 55 || live.empty()) {
      const auto vec = MakeVec(dim, &rng);
      auto up = c.Upsert(vec.data(), vec.size());
      status = up.status();
      if (up.ok()) live.push_back(up.value());
    } else if (kind < 75) {
      const uint32_t id = live[rng.NextU64() % live.size()];
      const auto vec = MakeVec(dim, &rng);
      status = c.Upsert(id, vec.data(), vec.size()).status();
    } else {
      const size_t pick = rng.NextU64() % live.size();
      status = c.Delete(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    // Log-after-apply: the mutation is in memory either way; only its
    // acknowledgement differs. An IoError is the injected crash — the
    // writer is now poisoned, no later mutation can be acknowledged, so
    // the process is as good as dead: stop the trace.
    digests.push_back(DigestOf(c));
    if (status.ok()) {
      last_acked = digests.size() - 1;
    } else {
      ASSERT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
      wal_poisoned = true;
    }
  }

  const uint64_t final_digest = digests.back();
  made.value().reset();  // "crash": drop all in-memory state
  FailPoints::Instance().Reset();

  auto reopened = Collection::Open(spec);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const uint64_t recovered = DigestOf(*reopened.value());

  if (!wal_poisoned) {
    // Nothing died (or only a checkpoint did): recovery must reproduce
    // the final state exactly.
    ASSERT_EQ(recovered, final_digest);
  } else {
    // The dying append either reached disk whole (the unacked mutation is
    // replayed) or it did not (replay stops at the acked prefix). Both
    // are legal; anything else lost an acked commit or replayed a torn
    // one.
    ASSERT_TRUE(recovered == digests[last_acked] ||
                recovered == final_digest)
        << "recovered state matches neither the acked prefix nor the "
           "acked-prefix-plus-dying-write";
  }

  // The recovered collection must serve: search and mutate once more.
  QueryRequest request;
  request.k = 3;
  const auto query = MakeVec(dim, &rng);
  auto response = reopened.value()->Search(query.data(), request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const auto vec = MakeVec(dim, &rng);
  auto up = reopened.value()->Upsert(vec.data(), vec.size());
  ASSERT_TRUE(up.ok()) << up.status().ToString();
}

using DurabilityRecoveryTest = DurabilityTest;

// ISSUE acceptance: >= 200 randomized kill-point iterations, each verified
// against the committed-prefix oracle. Split into shards so a failure
// pins a narrower seed range (and per-test runtime stays bounded).
TEST_F(DurabilityRecoveryTest, RandomizedCrashPoints000to049) {
  for (uint64_t seed = 0; seed < 50; ++seed) RunCrashIteration(seed);
}
TEST_F(DurabilityRecoveryTest, RandomizedCrashPoints050to099) {
  for (uint64_t seed = 50; seed < 100; ++seed) RunCrashIteration(seed);
}
TEST_F(DurabilityRecoveryTest, RandomizedCrashPoints100to149) {
  for (uint64_t seed = 100; seed < 150; ++seed) RunCrashIteration(seed);
}
TEST_F(DurabilityRecoveryTest, RandomizedCrashPoints150to199) {
  for (uint64_t seed = 150; seed < 200; ++seed) RunCrashIteration(seed);
}

// A checkpoint that dies at every stage of its rotation protocol must
// leave a recoverable directory: the manifest rename is the commit point,
// and either side of it recovers to the same logical state.
TEST_F(DurabilityRecoveryTest, CheckpointCrashAtEveryStageRecovers) {
  const char* points[] = {durability::kFailWalAppend,  // new segment header
                          durability::kFailSnapshotWrite,
                          durability::kFailManifestWrite};
  for (const char* point : points) {
    // The manifest is written exactly once per checkpoint, so only nth=1
    // can fire for it; the per-shard points get both shards (nth=1 and 2).
    const uint64_t max_nth = point == durability::kFailManifestWrite ? 1 : 2;
    for (uint64_t nth = 1; nth <= max_nth; ++nth) {
      SCOPED_TRACE(std::string(point) + " nth=" + std::to_string(nth));
      TempDir dir("ckpt_crash");
      FloatMatrix data = GenerateClustered({.n = 30, .dim = 8, .clusters = 3});
      auto made =
          Collection::FromSpec(DurableSpec(dir.path(), ",shards=2"),
                               std::make_unique<FloatMatrix>(std::move(data)));
      ASSERT_TRUE(made.ok()) << made.status().ToString();
      Rng rng(nth);
      for (int i = 0; i < 5; ++i) {
        const auto vec = MakeVec(8, &rng);
        ASSERT_TRUE(made.value()->Upsert(vec.data(), vec.size()).ok());
      }
      FailPoints::Instance().Reset();
      FailPoints::Instance().Arm(point, nth, 7);
      const Status ckpt = made.value()->Checkpoint();
      FailPoints::Instance().Reset();
      EXPECT_FALSE(ckpt.ok()) << "fail point did not fire";
      const uint64_t digest = DigestOf(*made.value());
      made.value().reset();

      auto reopened = Collection::Open(DurableSpec(dir.path(), ",shards=2"));
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ(DigestOf(*reopened.value()), digest);
    }
  }
}

}  // namespace
}  // namespace dblsh
