#include "replication/feed.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "durability/fail_point.h"
#include "util/bytes.h"

namespace dblsh::replication {

namespace {

// Ships the shard snapshot file in chunks. The file is self-checksummed
// (SaveShardSnapshot), so the bytes travel verbatim and the follower
// verifies by loading what it wrote.
Status StreamSnapshot(const FeedOptions& options) {
  auto file = util::ReadFileBytes(
      durability::SnapshotPath(options.dir, options.shard));
  if (!file.ok()) return file.status();
  const std::vector<uint8_t>& bytes = file.value();
  const uint64_t total = bytes.size();
  uint64_t offset = 0;
  do {
    if (options.cancelled && options.cancelled()) return Status::OK();
    size_t keep = 0;
    if (durability::FailPoints::Instance().Hit(
            durability::kFailReplicationChunk, &keep)) {
      return Status::IoError(
          "replication: injected failure sending snapshot chunk at offset " +
          std::to_string(offset));
    }
    const size_t len = static_cast<size_t>(
        std::min<uint64_t>(options.chunk_bytes, total - offset));
    const bool last = offset + len == total;
    if (!options.on_chunk(total, offset, last, bytes.data() + offset, len)) {
      return Status::OK();
    }
    offset += len;
  } while (offset < total);
  return Status::OK();
}

}  // namespace

Status RunShardFeed(const FeedOptions& options) {
  Collection* collection = options.collection;
  if (collection == nullptr || options.shard >= collection->shards()) {
    return Status::InvalidArgument("replication: bad feed target");
  }
  // Pin BEFORE reading the manifest: a checkpoint between the two could
  // otherwise collect the very segments the manifest points at.
  const uint64_t pin = collection->AcquireWalPin(0);
  struct PinRelease {
    Collection* c;
    uint64_t pin;
    ~PinRelease() { c->ReleaseWalPin(pin); }
  } release{collection, pin};

  auto manifest = durability::LoadManifest(options.dir);
  if (!manifest.ok()) return manifest.status();
  auto snapshot = durability::LoadShardSnapshot(
      durability::SnapshotPath(options.dir, options.shard));
  if (!snapshot.ok()) return snapshot.status();
  const uint64_t snapshot_lsn = snapshot.value().lsn;
  const uint32_t dim = manifest.value().dim;

  const bool want_snapshot =
      options.need_snapshot || options.from_lsn < snapshot_lsn;
  const uint64_t shard_lsn =
      collection->ShardAppliedLsns()[options.shard];
  if (!options.on_subscribed(manifest.value(),
                             want_snapshot ? kFeedModeSnapshot : kFeedModeTail,
                             snapshot_lsn, shard_lsn)) {
    return Status::OK();
  }
  if (want_snapshot) return StreamSnapshot(options);

  // Tail mode. Segments before the manifest's generation hold only
  // records at or below the snapshot LSN <= from_lsn, so the scan starts
  // at the manifest's live segment and follows rotations from there.
  uint64_t seq = manifest.value().wal_seq;
  size_t offset = 0;
  uint64_t cursor_lsn = options.from_lsn;
  // A retrain record rides at its triggering mutation's LSN, ordered
  // after it in the log. When a follower resumes exactly at that LSN the
  // mutation itself is applied but the retrain may not be, so a retrain
  // AT the cursor ships too — applying one twice is a no-op (the new
  // params are a fixed point of params-from-codes retraining).
  const auto ships = [&cursor_lsn](const durability::WalRecord& rec) {
    return rec.lsn > cursor_lsn ||
           (rec.lsn == cursor_lsn &&
            rec.op == durability::WalOp::kRetrain);
  };
  std::vector<durability::WalRecord> batch;
  int idle_polls = 0;
  while (true) {
    if (options.cancelled && options.cancelled()) return Status::OK();
    auto replay = durability::ReadWalFrom(
        durability::WalPath(options.dir, options.shard, seq), dim, offset);
    if (!replay.ok()) return replay.status();
    offset = replay.value().bytes_scanned;
    for (durability::WalRecord& rec : replay.value().records) {
      if (ships(rec)) {
        cursor_lsn = rec.lsn;
        batch.push_back(std::move(rec));
      }
    }
    const bool clean_tail = replay.value().tail.ok();
    // List AFTER the read: observing a successor proves this segment was
    // already rotated away from when the read ran.
    const std::vector<uint64_t> segments =
        durability::ListWalSegments(options.dir, options.shard);
    uint64_t next_seq = 0;
    for (uint64_t s : segments) {
      if (s > seq && (next_seq == 0 || s < next_seq)) next_seq = s;
    }

    if (!batch.empty()) {
      idle_polls = 0;
      const uint64_t watermark =
          collection->ShardAppliedLsns()[options.shard];
      for (size_t start = 0; start < batch.size();
           start += options.max_batch_records) {
        const size_t end =
            std::min(batch.size(), start + options.max_batch_records);
        std::vector<durability::WalRecord> slice(
            std::make_move_iterator(batch.begin() + start),
            std::make_move_iterator(batch.begin() + end));
        if (!options.on_records(watermark, slice)) return Status::OK();
      }
      batch.clear();
      continue;  // drain the segment before sleeping
    }

    if (!clean_tail) {
      if (next_seq != 0) {
        // A closed (rotated-away) segment can never grow another byte;
        // damage there is real.
        return Status::Corruption(
            "replication: torn record in superseded segment " +
            durability::WalPath(options.dir, options.shard, seq));
      }
      // Live segment: the writer may be mid-append; the record becomes
      // visible from this same cursor once its checksum lands.
    } else if (next_seq != 0) {
      // Clean end of a rotated segment — but the rotation may have raced
      // this read, so take one final catch-up pass before advancing.
      auto closing = durability::ReadWalFrom(
          durability::WalPath(options.dir, options.shard, seq), dim, offset);
      if (!closing.ok()) return closing.status();
      if (!closing.value().tail.ok()) {
        return Status::Corruption(
            "replication: torn record in superseded segment " +
            durability::WalPath(options.dir, options.shard, seq));
      }
      for (durability::WalRecord& rec : closing.value().records) {
        if (ships(rec)) {
          cursor_lsn = rec.lsn;
          batch.push_back(std::move(rec));
        }
      }
      if (!batch.empty()) {
        const uint64_t watermark =
            collection->ShardAppliedLsns()[options.shard];
        if (!options.on_records(watermark, batch)) return Status::OK();
        batch.clear();
      }
      seq = next_seq;
      offset = 0;
      collection->UpdateWalPin(pin, seq);
      continue;
    }

    // Idle: nothing new in the live segment.
    if (++idle_polls >= options.heartbeat_polls) {
      idle_polls = 0;
      const uint64_t watermark =
          collection->ShardAppliedLsns()[options.shard];
      if (!options.on_records(watermark, {})) return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }
}

}  // namespace dblsh::replication
