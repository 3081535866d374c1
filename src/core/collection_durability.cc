// Collection durability: crash recovery (snapshot load + WAL replay
// through ApplyLocked), checkpoints, the one WAL append, and the
// replication pins that keep a follower's segments from being collected.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "core/collection.h"
#include "core/collection_internal.h"
#include "durability/snapshot.h"

namespace dblsh {

Status Collection::InitDurability(const CollectionOptions& options) {
  DBLSH_RETURN_IF_ERROR(durability::EnsureDir(options.durability_dir));
  durability_ = std::make_unique<DurabilityState>();
  durability_->dir = options.durability_dir;
  durability_->compact_threshold = options.compact_threshold;
  durability_->wal_sync_every = options.wal_sync;
  durability_->wals.resize(shards_.size());
  // The initial checkpoint persists the seed rows and publishes the
  // manifest; its WAL rotation installs the writers every commit needs.
  return Checkpoint();
}

Status Collection::RecoverShards(const CollectionOptions& options,
                                 const durability::Manifest& manifest) {
  const auto t0 = std::chrono::steady_clock::now();
  durability_ = std::make_unique<DurabilityState>();
  durability_->dir = options.durability_dir;
  durability_->compact_threshold = options.compact_threshold;
  durability_->wal_sync_every = options.wal_sync;
  durability_->wals.resize(shards_.size());

  uint64_t max_lsn = manifest.checkpoint_lsn;
  uint64_t max_seq = manifest.wal_seq;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    auto snap_or = durability::LoadShardSnapshot(
        durability::SnapshotPath(durability_->dir, s));
    if (!snap_or.ok()) {
      if (snap_or.status().code() == StatusCode::kNotFound) {
        return Status::Corruption(
            "durability: manifest present but shard " + std::to_string(s) +
            " snapshot is missing in " + durability_->dir);
      }
      return snap_or.status();
    }
    durability::ShardSnapshot snap = std::move(snap_or).value();
    if (snap.store.kind != manifest.storage) {
      return Status::Corruption(
          "durability: shard " + std::to_string(s) + " snapshot holds " +
          StorageKindName(static_cast<StorageKind>(snap.store.kind)) +
          " storage but the manifest says " +
          StorageKindName(static_cast<StorageKind>(manifest.storage)));
    }
    if (snap.store.dim != dim_) {
      return Status::Corruption(
          "durability: shard " + std::to_string(s) + " snapshot dim " +
          std::to_string(snap.store.dim) + " does not match manifest dim " +
          std::to_string(dim_));
    }

    // Adopt the store image verbatim (byte-identical, never re-encoded).
    // The decoder replays the free-list in erasure order, so InsertRow
    // recycling during WAL replay reproduces the original LIFO id
    // assignment exactly.
    util::PodReader body(snap.body.data(), snap.body.size());
    auto store = DecodeVectorStore(snap.store, &body);
    if (!store.ok()) {
      return Status::Corruption("durability: shard " + std::to_string(s) +
                                " snapshot: " + store.status().message());
    }
    if (body.remaining() != 0) {
      return Status::Corruption("durability: shard " + std::to_string(s) +
                                " snapshot: body size mismatch");
    }
    // Same kind and dim, so equal row widths mean equal layouts (for pq,
    // the same m as the spec's store).
    if (store.value()->bytes_per_vector() !=
        shard.store->bytes_per_vector()) {
      return Status::Corruption(
          "durability: shard " + std::to_string(s) + " snapshot stores " +
          std::to_string(store.value()->bytes_per_vector()) +
          " bytes per vector but the spec's " + shard.store->kind_name() +
          " store uses " + std::to_string(shard.store->bytes_per_vector()) +
          " (reopen with the storage options the collection was created "
          "with)");
    }
    shard.store = std::move(store).value();
    shard.data = &shard.store->matrix();
    max_lsn = std::max(max_lsn, snap.lsn);
    shard.applied_lsn = snap.lsn;

    // Replay the log: every segment at/after the manifest's generation,
    // ascending, skipping records the snapshot already covers.
    const std::vector<uint64_t> seqs =
        durability::ListWalSegments(durability_->dir, s);
    for (size_t i = 0; i < seqs.size(); ++i) {
      if (!seqs.empty()) max_seq = std::max(max_seq, seqs[i]);
      if (seqs[i] < manifest.wal_seq) continue;  // superseded, not yet GC'd
      const bool last = i + 1 == seqs.size();
      auto replay_or = durability::ReadWal(
          durability::WalPath(durability_->dir, s, seqs[i]),
          static_cast<uint32_t>(dim_));
      if (!replay_or.ok()) {
        // A torn *header* can only be the newest segment, killed during
        // checkpoint rotation before any record (or acknowledgement)
        // existed — skip it. Anywhere else it is real damage.
        if (last && replay_or.status().code() == StatusCode::kCorruption) {
          continue;
        }
        return replay_or.status();
      }
      const durability::WalReplay& replay = replay_or.value();
      if (!replay.tail.ok() && !last) {
        return replay.tail;  // torn tail mid-history: not a crash artifact
      }
      for (const durability::WalRecord& rec : replay.records) {
        if (rec.lsn <= snap.lsn) continue;
        max_lsn = std::max(max_lsn, rec.lsn);
        shard.applied_lsn = std::max(shard.applied_lsn, rec.lsn);
        ++durability_->replayed;
        DBLSH_RETURN_IF_ERROR(ApplyLocked(s, rec.op, rec.id, rec.vec.data()));
      }
    }
    shard.approx_rows.store(shard.data->rows(), std::memory_order_relaxed);
    shard.approx_free.store(shard.data->free_slots().size(),
                            std::memory_order_relaxed);
  }
  epoch_.store(max_lsn, std::memory_order_release);
  // Start the new generation past every segment on disk — including
  // orphans a crashed rotation left above the manifest's generation.
  durability_->wal_seq = max_seq;
  const auto t1 = std::chrono::steady_clock::now();
  durability_->recovery_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  // Checkpoint-on-open: rotates onto fresh segments (installing the WAL
  // writers), folds the replay into new snapshots, and garbage-collects
  // torn tails with the superseded segments.
  return Checkpoint();
}

Status Collection::Checkpoint() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "collection has no durability= configured; nothing to checkpoint");
  }
  DurabilityState& d = *durability_;
  std::lock_guard ckpt_lock(d.checkpoint_mutex);
  const uint64_t new_seq = d.wal_seq + 1;

  std::vector<durability::ShardSnapshot> snaps(shards_.size());
  uint64_t checkpoint_lsn = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    // Open the replacement segment before taking the lock (file creation
    // off the writer's critical path). On failure the old segment stays
    // live; the orphan file is skipped at recovery (header checks) and
    // its sequence number is never reused (max-seq scan on open).
    auto writer_or = durability::WalWriter::Create(
        durability::WalPath(d.dir, s, new_seq), static_cast<uint32_t>(dim_),
        d.wal_sync_every);
    if (!writer_or.ok()) return writer_or.status();

    std::unique_lock lock(shard.mutex);
    durability::ShardSnapshot& snap = snaps[s];
    snap.store = shard.store->header();
    shard.store->Encode(&snap.body);
    // Captured under the shard write lock: every record this shard wrote
    // to the outgoing segment has lsn <= this value, and every record it
    // will write to the incoming one has lsn > it — the replay filter's
    // exact contract. The *shard's* applied LSN (not the global epoch):
    // on a follower the per-shard streams progress independently, so a
    // sibling shard's higher LSN must not mask this shard's undelivered
    // records.
    snap.lsn = shard.applied_lsn;
    d.wals[s] = std::move(writer_or).value();
    checkpoint_lsn = std::max(checkpoint_lsn, snap.lsn);
  }

  // Persist off-lock: writers append to the new segments meanwhile, and a
  // crash anywhere in here recovers from the old manifest + old segments
  // (still on disk) plus the new ones (>= old wal_seq, replayed too).
  for (size_t s = 0; s < shards_.size(); ++s) {
    DBLSH_RETURN_IF_ERROR(durability::SaveShardSnapshot(
        durability::SnapshotPath(d.dir, s), snaps[s]));
  }
  durability::Manifest manifest;
  manifest.shards = static_cast<uint32_t>(shards_.size());
  manifest.dim = static_cast<uint32_t>(dim_);
  manifest.storage = static_cast<uint32_t>(storage_);
  manifest.wal_seq = new_seq;
  manifest.checkpoint_lsn = checkpoint_lsn;
  DBLSH_RETURN_IF_ERROR(durability::SaveManifest(d.dir, manifest));

  // Committed (manifest renamed): the superseded segments are garbage —
  // except those a replication pin still needs (a subscribed follower may
  // be mid-way through an older generation).
  uint64_t gc_before = new_seq;
  for (const auto& [pin, floor] : d.wal_pins) {
    gc_before = std::min(gc_before, floor);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (const uint64_t seq : durability::ListWalSegments(d.dir, s)) {
      if (seq < gc_before) {
        std::remove(durability::WalPath(d.dir, s, seq).c_str());
      }
    }
  }
  d.wal_seq = new_seq;
  d.checkpoints.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Collection::AppendWalLocked(size_t shard_index, uint64_t lsn,
                                   durability::WalOp op, uint32_t id,
                                   const float* vec) {
  if (durability_ == nullptr) return Status::OK();
  durability::WalWriter* writer = durability_->wals[shard_index].get();
  if (writer == nullptr) {
    return Status::IoError(
        "wal: no live segment for shard " + std::to_string(shard_index) +
        " (a failed checkpoint rotation poisoned this collection)");
  }
  // Log-after-apply is sound because disk state only changes at
  // checkpoints: a record that fails to land is simply never replayed, and
  // the poisoned writer keeps every *later* mutation unlogged too, so the
  // durable history stays a prefix of the acknowledged one.
  Status logged = writer->Append(lsn, op, id, vec);
  if (logged.ok()) {
    durability_->wal_appends.fetch_add(1, std::memory_order_relaxed);
  }
  return logged;
}

CollectionDurabilityInfo Collection::Durability() const {
  CollectionDurabilityInfo info;
  if (durability_ == nullptr) return info;
  info.enabled = true;
  info.dir = durability_->dir;
  info.compact_threshold = durability_->compact_threshold;
  info.checkpoints =
      durability_->checkpoints.load(std::memory_order_relaxed);
  info.compactions =
      durability_->compactions.load(std::memory_order_relaxed);
  info.wal_appends =
      durability_->wal_appends.load(std::memory_order_relaxed);
  info.replayed_records = durability_->replayed;
  info.recovery_ms = durability_->recovery_ms;
  return info;
}

std::vector<uint64_t> Collection::ShardAppliedLsns() const {
  std::vector<uint64_t> out(shards_.size(), 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock lock(shards_[s]->mutex);
    out[s] = shards_[s]->applied_lsn;
  }
  return out;
}

uint64_t Collection::AcquireWalPin(uint64_t min_seq) {
  if (durability_ == nullptr) return 0;
  std::lock_guard lock(durability_->checkpoint_mutex);
  const uint64_t pin = durability_->next_pin++;
  durability_->wal_pins[pin] = min_seq;
  return pin;
}

void Collection::UpdateWalPin(uint64_t pin, uint64_t min_seq) {
  if (durability_ == nullptr || pin == 0) return;
  std::lock_guard lock(durability_->checkpoint_mutex);
  auto it = durability_->wal_pins.find(pin);
  if (it != durability_->wal_pins.end()) it->second = min_seq;
}

void Collection::ReleaseWalPin(uint64_t pin) {
  if (durability_ == nullptr || pin == 0) return;
  std::lock_guard lock(durability_->checkpoint_mutex);
  durability_->wal_pins.erase(pin);
}

}  // namespace dblsh
