// Index rebuilds and tombstone compaction for Collection: the rebuild and
// compaction triggers, the one background scheduler and loop they share,
// and the one place a finished build lands in its slot.
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "core/collection_internal.h"
#include "core/index_factory.h"

namespace dblsh {

using durability::WalOp;

void Collection::MaybeRebuildLocked(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // Quantized storage: the first inline build of this pass materializes a
  // decoded fp32 view, every later build in the pass reuses it, and the
  // optional's destructor releases it on exit (no-op construction when no
  // slot builds).
  std::optional<ScopedDecodeView> view;
  for (size_t i = 0; i < shard.slots.size(); ++i) {
    Slot& slot = shard.slots[i];
    const bool lazy_first_build = !slot.built && shard.data->live_rows() > 0;
    const bool threshold_hit =
        slot.built && slot.staleness >= slot.rebuild_threshold;
    if (!lazy_first_build && !threshold_hit) continue;
    if (background_rebuild_ && threshold_hit && !slot.method_spec.empty()) {
      // Offload: the writer keeps going; the executor snapshots, builds
      // and lands the replacement later (RunBackground). Lazy first builds
      // stay inline — there is no old index to keep serving — and so does
      // a prebuilt slot: without a factory recipe it can only rebuild its
      // own instance, under the lock.
      ScheduleLocked(shard_index, i);
      continue;
    }
    InstallLocked(shard, slot, nullptr, &view);
  }
}

void Collection::MaybeCompactLocked(size_t shard_index) {
  if (durability_ == nullptr || durability_->compact_threshold <= 0.0) return;
  Shard& shard = *shards_[shard_index];
  const size_t rows = shard.data->rows();
  if (rows == 0) return;
  const size_t dead = rows - shard.data->live_rows();
  if (dead <= shard.compact_floor) return;  // nothing new to reclaim
  if (static_cast<double>(dead) / static_cast<double>(rows) <
      durability_->compact_threshold) {
    return;
  }
  ScheduleLocked(shard_index, kCompaction);
}

void Collection::ScheduleLocked(size_t shard_index, size_t target) {
  Shard& shard = *shards_[shard_index];
  bool& scheduled = target == kCompaction
                        ? shard.compact_scheduled
                        : shard.slots[target].rebuild_scheduled;
  if (scheduled) return;
  {
    std::lock_guard lock(bg_mutex_);
    // A mutation racing the destructor is a caller bug; stay safe.
    if (closing_) return;
    ++bg_inflight_;
  }
  scheduled = true;
  executor_->Schedule([this, shard_index, target] {
    RunBackground(shard_index, target);
    // Decrement and notify under the lock: the destructor may tear the
    // collection down the instant it observes bg_inflight_ == 0, and it
    // can only observe that after this critical section fully releases —
    // a notify outside the lock would race it into use-after-free.
    std::lock_guard lock(bg_mutex_);
    --bg_inflight_;
    bg_cv_.notify_all();
  });
}

void Collection::RunBackground(size_t shard_index, size_t target) {
  Shard& shard = *shards_[shard_index];
  const bool compaction = target == kCompaction;

  // 1. Snapshot under the shared lock: readers keep serving, and the
  //    writer is excluded only for a copy (under quantized storage, the
  //    store's decoded fp32 reconstruction).
  FloatMatrix snapshot;
  uint64_t version = 0;
  std::vector<std::string> recipes;  // one per rebuilt slot, in slot order
  {
    std::shared_lock lock(shard.mutex);
    snapshot = shard.store->DecodedCopy();
    version = shard.version;
    for (size_t i = 0; i < shard.slots.size(); ++i) {
      if (compaction || i == target) {
        recipes.push_back(shard.slots[i].method_spec);
      }
    }
  }

  // 2. Off every lock — the expensive part the writer no longer pays for.
  //    A compaction first trims the copy: only trailing tombstones are
  //    physically reclaimable (live ids never move), and with none, or no
  //    live row left to index, there is nothing to build. A slot without a
  //    recipe gets no replacement and rebuilds in place when it lands.
  const size_t trimmed = compaction ? snapshot.TrimTombstonedTail() : 0;
  const bool build = !compaction || (trimmed > 0 && snapshot.live_rows() > 0);
  std::vector<std::unique_ptr<AnnIndex>> replacements(recipes.size());
  Status built = Status::OK();
  size_t failed = target;
  for (size_t i = 0; build && built.ok() && i < recipes.size(); ++i) {
    if (recipes[i].empty()) continue;
    auto made = IndexFactory::Make(recipes[i]);
    built = made.ok() ? made.value()->Build(&snapshot) : made.status();
    if (built.ok()) {
      replacements[i] = std::move(made).value();
    } else if (compaction) {
      failed = i;
    }
  }

  // 3. Land under the write lock, but only over the rows the snapshot
  //    captured.
  std::unique_lock lock(shard.mutex);
  const bool moved = shard.version != version;
  bool compacted = false;
  if (!moved && !built.ok()) {
    // The old index — stale but tombstone-coherent — keeps serving (and a
    // compaction leaves the shard uncompacted); a later trigger retries.
    shard.slots[failed].build_error = built.ToString();
  } else if (!moved && !compaction) {
    std::optional<ScopedDecodeView> view;
    InstallLocked(shard, shard.slots[target], std::move(replacements[0]),
                  &view);
  } else if (!moved) {
    if (trimmed > 0) {
      // Same version, same rows: the live trim removes exactly the rows
      // the snapshot's did.
      const Status trim = ApplyLocked(shard_index, WalOp::kTrim,
                                      static_cast<uint32_t>(trimmed), nullptr);
      assert(trim.ok());
      (void)trim;
      // Log the rewrite so mutations recorded after it replay against the
      // compacted geometry (see WalOp::kTrim). A failed append poisons the
      // writer: the in-memory trim stands, but nothing later is acked, so
      // the durable history stays consistent without it. The commit's
      // version bump also invalidates any background rebuild racing us:
      // its snapshot predates the trim.
      const uint64_t lsn = CommitLocked(shard_index, 0);
      (void)AppendWalLocked(shard_index, lsn, WalOp::kTrim,
                            static_cast<uint32_t>(trimmed), nullptr);
      ReindexTrimmedLocked(shard_index, std::move(replacements));
      compacted = true;
    }
    // The dead rows left are interior ones this task examined: the trigger
    // stays quiet until more deletes land, instead of rescheduling forever.
    shard.compact_floor = shard.data->rows() - shard.data->live_rows();
  }

  // The single exit. While set, the scheduled flag suppressed the trigger
  // checks of the commits that moved the shard past the snapshot; run that
  // check now, so a task that lost its race re-schedules if still due.
  // Only a commit moves the version, so a steady writer cannot make the
  // task spin: every retry follows at least one commit.
  (compaction ? shard.compact_scheduled
              : shard.slots[target].rebuild_scheduled) = false;
  if (moved && compaction) MaybeCompactLocked(shard_index);
  if (moved && !compaction) MaybeRebuildLocked(shard_index);
  lock.unlock();
  if (compacted) {
    durability_->compactions.fetch_add(1, std::memory_order_relaxed);
    // Fold the rewrite into fresh snapshots; best-effort (the trim record
    // keeps replay correct even if this checkpoint never lands).
    (void)Checkpoint();
  }
}

void Collection::InstallLocked(Shard& shard, Slot& slot,
                               std::unique_ptr<AnnIndex> replacement,
                               std::optional<ScopedDecodeView>* view) {
  if (replacement != nullptr && replacement->RebindData(shard.data).ok()) {
    // The version check proved the live matrix equal to the snapshot the
    // replacement was built over: repointing its reads is the whole swap.
    slot.index = std::move(replacement);
  } else {
    // In place — an inline build, a slot without a factory recipe, or an
    // index type without rebind support: rebuild the slot's own instance
    // under the lock (correct, just blocking). Quantized stores need the
    // decoded view for the duration of the build.
    if (!view->has_value()) view->emplace(shard.store.get());
    if (Status s = slot.index->Build(shard.data); !s.ok()) {
      // A failed in-place build leaves the slot out of service but the
      // collection consistent: mark it unbuilt so routing skips it, record
      // the error for Indexes(), and retry at a later trigger. The
      // mutation that got us here stays committed.
      slot.built = false;
      slot.build_error = s.ToString();
      return;
    }
  }
  if (slot.built) ++slot.rebuilds;  // lazy first builds are not rebuilds
  slot.built = true;
  slot.staleness = 0;
  slot.build_error.clear();
}

void Collection::ReindexTrimmedLocked(
    size_t shard_index, std::vector<std::unique_ptr<AnnIndex>> replacements) {
  Shard& shard = *shards_[shard_index];
  std::optional<ScopedDecodeView> view;
  for (size_t i = 0; i < shard.slots.size(); ++i) {
    Slot& slot = shard.slots[i];
    if (shard.data->live_rows() == 0) {
      slot.built = false;  // lazy build at the next mutation
      slot.staleness = 0;
      continue;
    }
    std::unique_ptr<AnnIndex> replacement =
        i < replacements.size() ? std::move(replacements[i]) : nullptr;
    if (replacement != nullptr || slot.built) {
      InstallLocked(shard, slot, std::move(replacement), &view);
    }
  }
}

void Collection::WaitForRebuilds() const {
  for (;;) {
    {
      std::unique_lock lock(bg_mutex_);
      if (bg_cv_.wait_for(lock, std::chrono::milliseconds(1),
                          [&] { return bg_inflight_ == 0; })) {
        return;
      }
    }
    // Lend this thread to the executor so a narrow pool cannot starve the
    // very task being awaited (the caller holds no collection locks here).
    executor_->RunOnePendingTask();
  }
}

}  // namespace dblsh
