#ifndef DBLSH_DURABILITY_SNAPSHOT_H_
#define DBLSH_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/vector_store.h"
#include "util/status.h"

namespace dblsh::durability {

/// A point-in-time, self-verifying image of one shard's vector store,
/// plus the LSN the image is consistent up to. `body` is the store image
/// VectorStore::Encode writes — `params ‖ payload ‖ free list`, tombstoned
/// rows and the free-list order included, so recovered id assignment
/// replays identically — framed by `store` (VectorStore::header). This
/// layer treats the body as opaque checksummed bytes; DecodeVectorStore
/// checks and decodes it.
struct ShardSnapshot {
  StoreHeader store;  ///< kind, rows, dim, trained flag, free-list count
  uint64_t lsn = 0;   ///< epoch value the snapshot is consistent up to
  std::vector<uint8_t> body;  ///< the store image (VectorStore::Encode)
};

/// Checkpoint root record: which WAL generation is live and what the
/// snapshots cover. Written last — its atomic rename is the commit point
/// of a checkpoint.
struct Manifest {
  uint32_t shards = 0;
  uint32_t dim = 0;
  uint32_t storage = 0;  ///< StorageKind value
  uint64_t wal_seq = 0;  ///< live segments are `shard-N.wal.<wal_seq>`
  uint64_t checkpoint_lsn = 0;
};

/// Layout helpers for a durability directory.
std::string SnapshotPath(const std::string& dir, size_t shard);
std::string WalPath(const std::string& dir, size_t shard, uint64_t seq);
std::string ManifestPath(const std::string& dir);

/// Creates `dir` (and parents) if missing.
Status EnsureDir(const std::string& dir);

/// Sequence numbers of every `shard-<shard>.wal.*` file in `dir`,
/// ascending. Missing directory yields an empty list.
std::vector<uint64_t> ListWalSegments(const std::string& dir, size_t shard);

/// Writes `snap` to `path` via tmp-file + atomic rename; the checksummed
/// header/body means a torn write is detected at load, never trusted.
/// Consults FailPoints (kFailSnapshotWrite).
Status SaveShardSnapshot(const std::string& path, const ShardSnapshot& snap);

/// Loads a snapshot and verifies its header and body checksum. NotFound
/// when the file is absent, Corruption on damage; the body's shape is
/// checked by the store decoder.
Result<ShardSnapshot> LoadShardSnapshot(const std::string& path);

/// Writes the manifest via tmp-file + atomic rename (the checkpoint commit
/// point). Consults FailPoints (kFailManifestWrite).
Status SaveManifest(const std::string& dir, const Manifest& manifest);

/// Loads and verifies the manifest. NotFound when absent (fresh
/// directory), Corruption on damage.
Result<Manifest> LoadManifest(const std::string& dir);

}  // namespace dblsh::durability

#endif  // DBLSH_DURABILITY_SNAPSHOT_H_
