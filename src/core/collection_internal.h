#ifndef DBLSH_CORE_COLLECTION_INTERNAL_H_
#define DBLSH_CORE_COLLECTION_INTERNAL_H_

// State private to the collection*.cc translation units, which share it
// beyond the class definition in core/collection.h.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "durability/wal.h"

namespace dblsh {

/// Runtime state of a durable collection. The WAL writer entries are
/// guarded by their shard's write lock (appends and checkpoint swap-ins
/// both hold it); `wal_seq` is guarded by `checkpoint_mutex`; the counters
/// are plain atomics; `dir`/`compact_threshold`/`wal_sync_every` and
/// `recovery_ms`/`replayed` are written once during open.
struct DurabilityState {
  std::string dir;
  double compact_threshold = 0.0;
  uint32_t wal_sync_every = 1;
  /// Serializes checkpoints (rotation + snapshot + manifest).
  std::mutex checkpoint_mutex;
  /// Sequence number of the live WAL segments (`shard-N.wal.<wal_seq>`).
  uint64_t wal_seq = 0;
  /// One writer per shard; an entry is swapped under that shard's write
  /// lock at each checkpoint rotation.
  std::vector<std::unique_ptr<durability::WalWriter>> wals;
  std::atomic<uint64_t> checkpoints{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> wal_appends{0};
  uint64_t replayed = 0;
  double recovery_ms = 0.0;
  /// Replication pins (guarded by checkpoint_mutex): pin id -> lowest WAL
  /// segment sequence the holder still needs. Checkpoint's GC only deletes
  /// segments below min(new_seq, every pin's floor), so a subscribed
  /// follower's position is never collected out from under it.
  uint64_t next_pin = 1;
  std::map<uint64_t, uint64_t> wal_pins;
};

}  // namespace dblsh

#endif  // DBLSH_CORE_COLLECTION_INTERNAL_H_
