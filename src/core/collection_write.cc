// The Collection write path: the one apply every change to a shard goes
// through (ApplyLocked), the one commit bookkeeping (CommitLocked), the
// primary's Upsert/Delete transaction, and the follower's replicated-record
// apply — which shares both with the primary and with WAL replay.
#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "core/collection.h"
#include "durability/fail_point.h"

namespace dblsh {

using durability::WalOp;

namespace {

/// What both Upsert overloads check before anything is applied or logged:
/// the collection's dimension, and finite coordinates (no window of the
/// R*-tree ever contains a NaN, and sq8 codes cannot represent one).
Status CheckUpsertVector(const float* vec, size_t len, size_t dim) {
  if (len != dim) {
    return Status::InvalidArgument(
        "Upsert: vector has dimension " + std::to_string(len) +
        ", collection serves " + std::to_string(dim));
  }
  for (size_t j = 0; j < len; ++j) {
    if (!std::isfinite(vec[j])) {
      return Status::InvalidArgument("Upsert: coordinate " +
                                     std::to_string(j) + " is " +
                                     std::to_string(vec[j]) +
                                     "; vectors must be finite");
    }
  }
  return Status::OK();
}

}  // namespace

Status Collection::ApplyLocked(size_t shard_index, WalOp op,
                               uint32_t global_id, const float* vec) {
  Shard& shard = *shards_[shard_index];
  auto diverged = [&](const std::string& what) {
    return Status::Corruption("log divergence on shard " +
                              std::to_string(shard_index) + ": " + what);
  };
  if (op == WalOp::kRetrain) {
    // Deterministic params-from-codes retrain: reproduces the exact code
    // bytes the primary logged. The codes changed under every built index,
    // so each is due for the rebuild the primary ran in the same commit.
    shard.store->RetrainQuantizer();
    for (Slot& slot : shard.slots) {
      if (slot.built) slot.staleness = slot.rebuild_threshold;
    }
    return Status::OK();
  }
  if (op == WalOp::kTrim) {
    const size_t trimmed = shard.store->TrimTombstonedTail();
    if (trimmed != global_id) {
      return diverged("trim removed " + std::to_string(trimmed) +
                      " rows, log recorded " + std::to_string(global_id));
    }
    return Status::OK();
  }
  if (op != WalOp::kUpsert && op != WalOp::kDelete) {
    return Status::Corruption(
        "log record has unknown op " +
        std::to_string(static_cast<unsigned>(op)));
  }
  if (ShardOfId(global_id) != shard_index) {
    return Status::Corruption("log record for id " +
                              std::to_string(global_id) +
                              " applied to shard " +
                              std::to_string(shard_index));
  }
  const uint32_t local = LocalOfId(global_id);
  // In-place maintenance of the updatable built slots (quantized slots are
  // static: it reads fp32 rows the store has released). A failed
  // Insert/Erase self-heals: forcing the slot's staleness to the threshold
  // makes the commit's trigger rebuild it over the live rows, restoring
  // coherence without unwinding the committed dataset state.
  auto maintain = [&](bool insert) {
    if (quantized_) return;
    for (Slot& slot : shard.slots) {
      if (!slot.built || !slot.index->SupportsUpdates()) continue;
      if (insert && slot.staleness >= slot.rebuild_threshold) continue;
      const Status s =
          insert ? slot.index->Insert(local) : slot.index->Erase(local);
      if (!s.ok()) slot.staleness = slot.rebuild_threshold;
    }
  };
  // A delete, or an upsert of a live id, erases first. The fused replace
  // recycles the slot at once — the free list is LIFO, so the insert below
  // lands on the same row — and no reader ever sees the id missing.
  if (op == WalOp::kDelete ||
      (local < shard.data->rows() && !shard.data->IsDeleted(local))) {
    if (Status st = shard.store->EraseRow(local); !st.ok()) {
      return diverged(st.ToString());
    }
    maintain(/*insert=*/false);
    if (op == WalOp::kDelete) return Status::OK();
  }
  const uint32_t got = shard.store->InsertRow(vec, dim_);
  if (got != local) {
    return diverged("insert landed on local row " + std::to_string(got) +
                    ", log recorded " + std::to_string(local));
  }
  maintain(/*insert=*/true);
  return Status::OK();
}

uint64_t Collection::CommitLocked(size_t shard_index, uint64_t lsn) {
  Shard& shard = *shards_[shard_index];
  for (Slot& slot : shard.slots) {
    // Updatable built slots absorbed the mutation structurally
    // (ApplyLocked); everyone else just got staler. Under quantized
    // storage every slot is static, so all of them age.
    if (quantized_ || !(slot.built && slot.index->SupportsUpdates())) {
      ++slot.staleness;
    }
  }
  ++shard.version;
  shard.approx_rows.store(shard.data->rows(), std::memory_order_relaxed);
  shard.approx_free.store(shard.data->free_slots().size(),
                          std::memory_order_relaxed);
  if (lsn == 0) {
    // A primary commit: exactly one epoch per committed mutation, build
    // failures notwithstanding; the post-increment epoch is its LSN.
    lsn = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  } else {
    // A replicated record keeps the primary's LSN; the epoch follows the
    // highest one applied to any shard.
    uint64_t cur = epoch_.load(std::memory_order_relaxed);
    while (cur < lsn && !epoch_.compare_exchange_weak(
                            cur, lsn, std::memory_order_acq_rel)) {
    }
  }
  shard.applied_lsn = lsn;
  return lsn;
}

Status Collection::WriteLocked(size_t shard_index, WalOp op,
                               uint32_t global_id, const float* vec) {
  DBLSH_RETURN_IF_ERROR(ApplyLocked(shard_index, op, global_id, vec));
  const uint64_t lsn = CommitLocked(shard_index, 0);
  Status logged = AppendWalLocked(shard_index, lsn, op, global_id, vec);

  // SQ8 range retraining rides the inline threshold rebuild: when this
  // mutation pushes a built slot to its rebuild threshold under quantized
  // storage, re-derive the quantizer range from the current rows before
  // the rebuild below, and log the retrain (same LSN as the mutation,
  // ordered after it) so replay and replication reproduce the exact code
  // bytes. Background rebuilds skip the retrain: their timing is
  // nondeterministic, and replayability demands the log alone decide when
  // codes change.
  Shard& shard = *shards_[shard_index];
  if (quantized_ && !background_rebuild_ &&
      std::any_of(shard.slots.begin(), shard.slots.end(),
                  [](const Slot& slot) {
                    return slot.built &&
                           slot.staleness >= slot.rebuild_threshold;
                  }) &&
      shard.store->RetrainQuantizer() && logged.ok()) {
    logged = AppendWalLocked(shard_index, lsn, WalOp::kRetrain, 0, nullptr);
  }
  // The rebuild runs after any retrain so the new index is built over the
  // re-encoded codes.
  MaybeRebuildLocked(shard_index);
  MaybeCompactLocked(shard_index);
  return logged;
}

size_t Collection::PickInsertShard() const {
  const size_t num_shards = shards_.size();
  if (num_shards == 1) return 0;
  // Advisory reads: a racing writer can skew the balance by a row, never
  // the correctness (the chosen shard commits under its own lock).
  for (size_t s = 0; s < num_shards; ++s) {
    if (shards_[s]->approx_free.load(std::memory_order_relaxed) > 0) {
      return s;  // recycle before growing any shard
    }
  }
  size_t best = 0;
  size_t best_rows = std::numeric_limits<size_t>::max();
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t rows =
        shards_[s]->approx_rows.load(std::memory_order_relaxed);
    if (rows < best_rows) {
      best_rows = rows;
      best = s;
    }
  }
  return best;
}

Result<uint32_t> Collection::Upsert(const float* vec, size_t len) {
  if (read_only()) return Status::ReadOnly(read_only_message_);
  DBLSH_RETURN_IF_ERROR(CheckUpsertVector(vec, len, dim_));
  const size_t shard_index = PickInsertShard();
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  // The row InsertRow hands out next: the most recently tombstoned slot
  // (the free list is LIFO), else a fresh one past the end.
  const std::vector<uint32_t>& free = shard.data->free_slots();
  const uint32_t local = free.empty()
                             ? static_cast<uint32_t>(shard.data->rows())
                             : free.back();
  const uint32_t global = GlobalId(shard_index, local);
  DBLSH_RETURN_IF_ERROR(
      WriteLocked(shard_index, WalOp::kUpsert, global, vec));
  return global;
}

Result<uint32_t> Collection::Upsert(uint32_t id, const float* vec,
                                    size_t len) {
  if (read_only()) return Status::ReadOnly(read_only_message_);
  DBLSH_RETURN_IF_ERROR(CheckUpsertVector(vec, len, dim_));
  const size_t shard_index = ShardOfId(id);
  const uint32_t local = LocalOfId(id);
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  if (local >= shard.data->rows() || shard.data->IsDeleted(local)) {
    return Status::NotFound("Upsert: id " + std::to_string(id) +
                            " is not a live vector");
  }
  DBLSH_RETURN_IF_ERROR(WriteLocked(shard_index, WalOp::kUpsert, id, vec));
  return id;
}

Status Collection::Delete(uint32_t id) {
  if (read_only()) return Status::ReadOnly(read_only_message_);
  const size_t shard_index = ShardOfId(id);
  const uint32_t local = LocalOfId(id);
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  if (local >= shard.data->rows() || shard.data->IsDeleted(local)) {
    return Status::NotFound("Delete: id " + std::to_string(id) +
                            " is not a live vector");
  }
  return WriteLocked(shard_index, WalOp::kDelete, id, nullptr);
}

void Collection::SetReadOnly(const std::string& primary_hint) {
  read_only_message_ = "read-only replica; writes go to " + primary_hint;
  read_only_.store(true, std::memory_order_release);
}

Status Collection::ApplyReplicatedRecord(size_t shard_index,
                                         const durability::WalRecord& rec) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument(
        "replication: shard " + std::to_string(shard_index) +
        " out of range (collection has " + std::to_string(shards_.size()) +
        " shards)");
  }
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  // A retrain record shares its triggering mutation's LSN (ordered after
  // it), so at exactly the applied LSN a retrain must still apply — the
  // feed redelivers it on resume, and re-applying one is a no-op.
  const bool retrain_at_head = rec.op == WalOp::kRetrain &&
                               rec.lsn == shard.applied_lsn;
  if (rec.lsn <= shard.applied_lsn && !retrain_at_head) {
    return Status::OK();  // duplicate delivery after a reconnect
  }
  size_t keep = 0;
  if (durability::FailPoints::Instance().Hit(durability::kFailReplicationApply,
                                             &keep)) {
    return Status::IoError("replication: injected crash applying lsn " +
                           std::to_string(rec.lsn));
  }
  if (rec.op == WalOp::kUpsert && rec.vec.size() != dim_) {
    return Status::Corruption(
        "replication: upsert payload has " + std::to_string(rec.vec.size()) +
        " floats, collection serves " + std::to_string(dim_));
  }
  const Status applied = ApplyLocked(shard_index, rec.op, rec.id,
                                     rec.vec.data());
  // A trim moved the shard's frontier: replace its indexes in this same
  // critical section, as the primary's compaction does — even after a
  // divergence, since an index still referencing a trimmed row would read
  // past the new frontier.
  if (rec.op == WalOp::kTrim) ReindexTrimmedLocked(shard_index, {});
  DBLSH_RETURN_IF_ERROR(applied);
  CommitLocked(shard_index, rec.lsn);
  // The follower's own WAL carries the primary's LSN, so a restart
  // recovers locally and re-subscribes from exactly where it stopped.
  const Status logged =
      AppendWalLocked(shard_index, rec.lsn, rec.op, rec.id, rec.vec.data());
  MaybeRebuildLocked(shard_index);
  return logged;
}

}  // namespace dblsh
