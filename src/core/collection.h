#ifndef DBLSH_CORE_COLLECTION_H_
#define DBLSH_CORE_COLLECTION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ann_index.h"
#include "core/query.h"
#include "dataset/float_matrix.h"
#include "dataset/vector_store.h"
#include "durability/wal.h"
#include "exec/task_executor.h"
#include "util/status.h"

namespace dblsh {

namespace durability {
struct Manifest;  // durability/snapshot.h
}  // namespace durability

struct DurabilityState;  // core/collection_internal.h

/// Writer-priority shared mutex for a shard's single-writer / multi-reader
/// discipline. std::shared_mutex is reader-preferring on glibc: a
/// saturating stream of readers holds the lock permanently read-locked and
/// starves the writer forever — the exact traffic shape a serving
/// collection sees. This lock instead parks new readers as soon as a
/// writer is waiting, so mutations commit promptly and readers resume on
/// the new epoch. In-flight readers always drain first (a writer never
/// preempts a running query). Meets the Lockable / SharedLockable
/// requirements used by std::unique_lock / std::shared_lock.
///
/// The mirror-image hazard (a saturating writer starving readers) does not
/// arise in the intended single-writer deployment; callers running many
/// writer threads should batch their mutations instead.
class WriterPriorityMutex {
 public:
  /// Shared (reader) acquisition; blocks while a writer holds or awaits
  /// the lock.
  void lock_shared() {
    std::unique_lock lock(mutex_);
    reader_cv_.wait(lock,
                    [&] { return !writer_active_ && writers_waiting_ == 0; });
    ++readers_;
  }

  /// Shared release; wakes a waiting writer once the last reader drains.
  void unlock_shared() {
    std::unique_lock lock(mutex_);
    if (--readers_ == 0) writer_cv_.notify_one();
  }

  /// Exclusive (writer) acquisition; new readers queue behind it.
  void lock() {
    std::unique_lock lock(mutex_);
    ++writers_waiting_;
    writer_cv_.wait(lock, [&] { return !writer_active_ && readers_ == 0; });
    --writers_waiting_;
    writer_active_ = true;
  }

  /// Exclusive release; preferentially hands off to the next writer.
  void unlock() {
    std::unique_lock lock(mutex_);
    writer_active_ = false;
    if (writers_waiting_ > 0) {
      writer_cv_.notify_one();
    } else {
      reader_cv_.notify_all();
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable reader_cv_;
  std::condition_variable writer_cv_;
  size_t readers_ = 0;
  size_t writers_waiting_ = 0;
  bool writer_active_ = false;
};

/// Public snapshot of one index slot of a Collection (see
/// Collection::Indexes()). For a sharded collection the fields aggregate
/// over the per-shard instances: `built` means some shard's instance
/// serves and no shard *with content* is left unbuilt (a slot over an
/// empty shard serves that shard's zero rows exactly and does not count
/// against the aggregate), `staleness` is the worst (maximum) shard,
/// `rebuilds` sums across shards, and `build_error` reports the first
/// failing shard.
struct CollectionIndexInfo {
  std::string name;          ///< slot name (`name=` spec key or method name)
  std::string method;        ///< AnnIndex::Name() of the wrapped index
  bool supports_updates = false;    ///< absorbs mutations in place
  bool built = false;        ///< false until the first (lazy) build succeeds
  size_t staleness = 0;      ///< mutations not yet absorbed by the structure
  size_t rebuild_threshold = 0;  ///< staleness level that triggers a rebuild
  size_t rebuilds = 0;       ///< automatic rebuilds performed so far
  /// True while a background rebuild of this slot is scheduled or running
  /// on the executor (always false in inline-rebuild mode). Use
  /// Collection::WaitForRebuilds() to quiesce before asserting on state.
  bool rebuild_inflight = false;
  /// Message of the last failed automatic (re)build, empty when healthy.
  /// A failing slot is out of service (routing skips it) until a later
  /// mutation's retry succeeds; the mutation that triggered the build
  /// still commits (see Upsert/Delete). Background-mode build failures
  /// instead keep the previous (stale but coherent) index serving.
  std::string build_error;
};

/// Construction knobs for a Collection beyond the index lineup. All fields
/// have spec-key equivalents in the FromSpec prefix (see FromSpec).
struct CollectionOptions {
  /// Number of shards the id space is partitioned into (>= 1). Global id g
  /// lives in shard g % shards at local row g / shards, so ids stay stable
  /// for callers while every shard owns an independent FloatMatrix, index
  /// instances, and writer lock. `shards = 1` is byte-for-byte the
  /// unsharded collection.
  size_t shards = 1;

  /// Executor running shard fan-outs, parallel builds and background
  /// rebuilds; nullptr uses exec::TaskExecutor::Default(). Injecting a
  /// dedicated pool isolates one collection's work from the rest of the
  /// process. Must outlive the collection.
  exec::TaskExecutor* executor = nullptr;

  /// When true, threshold-triggered rebuilds of static slots run as
  /// background executor tasks that swap in under the write lock once the
  /// shard is verified unchanged, instead of blocking the mutating writer
  /// (spec key `rebuild=background`). Default false: rebuilds stay inside
  /// the mutation's write transaction — the pre-shard behavior, and the
  /// right choice when tests need deterministic rebuild timing.
  bool background_rebuild = false;

  /// Storage backend for the per-shard row stores (spec key `storage=`).
  /// kFp32 (default) keeps raw rows — bit-identical to the pre-store
  /// collection. kSq8 scalar-quantizes rows to one byte per dimension
  /// (~4x less memory and scan bandwidth; see dataset/vector_store.h):
  /// verification scores candidates over u8 codes and every search
  /// re-ranks an inflated candidate list through the store's exact
  /// asymmetric distance (see `rerank`). kPq product-quantizes rows to
  /// `pq_m` bytes each (k-means sub-codebooks + per-query ADC tables;
  /// ~16x at dim 128 / m 16). Under either quantized kind all index
  /// slots are treated as static — in-place updates need fp32 rows — so
  /// updatable methods fall back to staleness-triggered rebuilds.
  StorageKind storage = StorageKind::kFp32;

  /// Product-quantization subspace count (spec key `m=M`, >= 1, <= dim;
  /// only meaningful — and only accepted by FromSpec — under
  /// `storage=pq`). Each vector is encoded as `pq_m` one-byte centroid
  /// ids, so bytes/vector == pq_m. The companion spec key `nbits=B` is
  /// accepted for forward compatibility but must equal 8 (256-centroid
  /// codebooks are the only supported width).
  size_t pq_m = 16;

  /// Re-rank depth multiplier for quantized storage (spec key `rerank=N`,
  /// >= 1): a k-NN search runs the underlying index at k * rerank, then
  /// rescores those candidates with the store's exact fp32-query distance
  /// and keeps the best k. Higher values recover more of the recall lost
  /// to quantization at the cost of a deeper index pass. Ignored for
  /// fp32 storage.
  size_t rerank = 4;

  /// Durability directory (spec key `durability=PATH`). Empty (default)
  /// keeps the collection RAM-only. Non-empty makes every committed
  /// Upsert/Delete durable: each shard appends to a checksummed WAL
  /// segment in this directory before the call returns, Checkpoint()
  /// writes per-shard snapshots + a manifest and rotates the logs, and
  /// FromSpec/Open replay snapshot + WAL on start (restart without losing
  /// the dynamic state). The directory belongs to one collection at a
  /// time.
  std::string durability_dir;

  /// Background tombstone-compaction trigger (spec key
  /// `compact_threshold=R`, 0 < R < 1; 0 disables). When a shard's
  /// tombstone ratio (dead rows / physical rows) reaches R after a commit,
  /// a background task rewrites the shard — trailing tombstoned rows are
  /// physically dropped and the shard's indexes are rebuilt over the
  /// compacted rows off-lock, swapping in atomically (RebindData) so
  /// readers never block. Requires `durability_dir` (the rewrite is folded
  /// into the durable state via a WAL trim record + checkpoint).
  double compact_threshold = 0.0;

  /// Group-commit width (spec key `wal_sync=N`, >= 1): the WAL fsyncs
  /// every Nth append. 1 (default) syncs each commit before it is
  /// acknowledged — full durability; larger values amortize the fsync at
  /// the cost of the last < N acknowledged commits on a crash.
  uint32_t wal_sync = 1;
};

/// Storage-backend report for a Collection (see Collection::Storage):
/// what the `dblsh_tool collection stats` surface and the serving stats
/// wire carry.
struct CollectionStorageInfo {
  std::string kind;             ///< "fp32" | "sq8" | "pq"
  size_t bytes_per_vector = 0;  ///< payload bytes per vector slot (all kinds)
  size_t rerank = 0;            ///< re-rank multiplier (0 when fp32)
  size_t resident_bytes = 0;    ///< store heap bytes, summed over shards
  std::vector<size_t> shard_resident_bytes;  ///< per-shard store bytes
};

/// Durability report for a Collection (see Collection::Durability): the
/// `dblsh_tool collection stats` surface and the serving stats wire carry
/// these counters.
struct CollectionDurabilityInfo {
  bool enabled = false;           ///< durability= configured
  std::string dir;                ///< durability directory
  double compact_threshold = 0;   ///< tombstone ratio trigger (0 = off)
  uint64_t checkpoints = 0;       ///< checkpoints taken (incl. on open)
  uint64_t compactions = 0;       ///< background shard compactions landed
  uint64_t wal_appends = 0;       ///< WAL records appended this process
  uint64_t replayed_records = 0;  ///< WAL records replayed at open
  double recovery_ms = 0;         ///< snapshot-load + replay time at open
};

/// The serving façade: one mutable dataset plus any number of named ANN
/// indexes over it, behind a single transactional surface —
///
///   auto made = Collection::FromSpec(
///       "collection,shards=4: DB-LSH,c=1.5; PM-LSH,rebuild_threshold=500",
///       std::make_unique<FloatMatrix>(std::move(seed)));
///   Collection& c = *made.value();
///   uint32_t id = c.Upsert(vec.data(), dim).value();
///   auto hits  = c.Search(query, request);             // best-capable index
///   auto exact = c.Search(query, request, "PM-LSH");   // explicit routing
///   c.Delete(id);
///
/// Compared with driving AnnIndex directly, the Collection sequences the
/// PR-3 update protocol (dataset mutation first, then every index) for the
/// caller, keeps N indexes coherent over one id space, and adds the things
/// serving needs:
///
/// **Concurrency — single writer / many readers per shard,
/// epoch-guarded.** Every shard owns a writer-priority lock: mutations
/// (Upsert/Delete and rebuild swap-ins) take the owning shard's exclusive
/// lock, Search/SearchBatch take shared locks. A reader never observes a
/// half-applied update — each mutation touches exactly one shard, so every
/// query sees each shard exactly as some committed epoch left it. Each
/// committed mutation advances the collection epoch counter (epoch()).
/// Readers of one index never serialize among themselves: every method's
/// read path is safe to run concurrently (see AnnIndex).
///
/// **Sharding — fan-out/merge search, contention-free writers.** With
/// `shards = S > 1` the dataset is partitioned by id across S segments.
/// Search fans one k-NN task per shard onto the executor and merges the
/// per-shard top-k through a TopKHeap keyed on (distance, global id). The
/// merge is exact: within a shard, local id order equals global id order,
/// so every member of the global top-k survives its shard's top-k and the
/// merged result — ties included — is identical to what a `shards = 1`
/// collection over the same rows returns. Writers on different shards
/// commit concurrently; builds and rebuilds of different shards run in
/// parallel on the executor.
///
/// **Rebuild scheduling.** Indexes with SupportsUpdates() == true absorb
/// every mutation in place and are always current. For static methods each
/// shard's slot counts staleness — mutations the structure has not
/// absorbed (deletes stay invisible thanks to the tombstone filter;
/// inserts are simply not findable through that index until it rebuilds) —
/// and the shard rebuilds the index over its live rows once staleness
/// reaches the slot's `rebuild_threshold` (spec key; default
/// kDefaultRebuildThreshold, minimum 1). By default the rebuild runs
/// inside the same write transaction, so readers never see a partially
/// built index; with CollectionOptions::background_rebuild the rebuild
/// instead runs off-lock over a snapshot and swaps in atomically (see
/// AnnIndex::RebindData), keeping the writer unblocked.
///
/// Filtered search: requests pass through unchanged — a sharded collection
/// rewrites `QueryRequest::filter` into local-id terms per shard — so
/// filters (and the other per-query overrides) work for every index in the
/// collection.
class Collection {
 public:
  /// Default `rebuild_threshold` for index slots that do not set the spec
  /// key: a static index is rebuilt after this many unabsorbed mutations.
  static constexpr size_t kDefaultRebuildThreshold = 256;

  /// An empty collection of `dim`-dimensional vectors (populate with
  /// Upsert). Indexes added while the collection is empty build lazily on
  /// the first mutation that lands in their shard.
  explicit Collection(size_t dim, const CollectionOptions& options = {});

  /// Takes ownership of `data` (seed rows; may carry tombstones). With
  /// `options.shards == 1` the unique_ptr keeps the matrix's address
  /// stable, so indexes that were built over *data before the hand-off
  /// stay valid — see AddPrebuiltIndex(). With more shards the rows are
  /// re-partitioned into per-shard matrices (row g becomes shard g % S,
  /// local row g / S) and the seed matrix is released.
  explicit Collection(std::unique_ptr<FloatMatrix> data,
                      const CollectionOptions& options = {});

  /// Blocks until every in-flight background rebuild lands, then tears the
  /// collection down. Never call from inside a task that a rebuild could
  /// be queued behind on a width-1 executor.
  ~Collection();

  /// Builds a collection from the collection-level spec grammar
  ///
  ///   "collection[,OPTION...]: INDEX_SPEC (';' INDEX_SPEC)*"
  ///
  /// where each OPTION is a CollectionOptions key — `shards=N` (>= 1),
  /// `rebuild=inline|background`, `storage=fp32|sq8|pq`, `m=M` (>= 1,
  /// pq only), `nbits=8` (pq only), `rerank=N` (>= 1),
  /// `durability=PATH`, `compact_threshold=R` (0 < R < 1) and
  /// `wal_sync=N` (>= 1) — and each INDEX_SPEC is an IndexFactory
  /// spec ("DB-LSH,c=1.5") that may additionally carry the slot-level keys
  /// `name=` (slot name; defaults to the method name) and
  /// `rebuild_threshold=N`. Takes ownership of `data` and adds every
  /// index, building each shard's instance over its partition of the seed
  /// rows (shards build in parallel on `executor`); any parse or build
  /// error is returned and the partial collection discarded. Returns by
  /// unique_ptr: a Collection owns synchronization state and is not
  /// movable.
  ///
  /// With `durability=PATH` the directory decides the start mode: a valid
  /// manifest there means the collection *recovers* (snapshots + WAL
  /// replay; `data` must then be null — seeding over existing durable
  /// state is InvalidArgument), no manifest means a fresh durable
  /// collection is initialized from `data` (which must be provided — it
  /// defines the dimensionality) and an initial checkpoint written.
  /// Index slots are not persisted; the caller supplies the same INDEX_SPEC
  /// list on reopen and each shard's indexes are rebuilt over the
  /// recovered rows.
  static Result<std::unique_ptr<Collection>> FromSpec(
      const std::string& spec, std::unique_ptr<FloatMatrix> data,
      exec::TaskExecutor* executor = nullptr);

  /// Opens a durable collection from existing on-disk state: exactly
  /// FromSpec(spec, nullptr, executor), requiring the spec to carry
  /// `durability=PATH` and that directory to hold a valid manifest.
  /// NotFound when the directory has no durable state, Corruption when
  /// the state is damaged beyond the last valid WAL record.
  static Result<std::unique_ptr<Collection>> Open(
      const std::string& spec, exec::TaskExecutor* executor = nullptr);

  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  /// Adds one index from an IndexFactory spec plus the optional slot-level
  /// keys `name=` / `rebuild_threshold=` (stripped before the factory sees
  /// the spec). One instance is created per shard; non-empty shards build
  /// now, in parallel on the executor, empty shards build lazily at their
  /// next mutation. Duplicate slot names are InvalidArgument. Runs as a
  /// write transaction over every shard.
  Status AddIndex(const std::string& index_spec);

  /// Registers an already-built index (e.g. restored via DbLsh::Load)
  /// under `name` without rebuild downtime. Only available on an unsharded
  /// collection (InvalidArgument otherwise): a prebuilt index speaks the
  /// global id space, which coincides with shard 0's local ids only when
  /// shards == 1. Precondition: `index` was built over this collection's
  /// matrix — the one passed to Collection(std::unique_ptr<FloatMatrix>) —
  /// and is not used directly afterwards.
  Status AddPrebuiltIndex(const std::string& name,
                          std::unique_ptr<AnnIndex> index,
                          size_t rebuild_threshold = kDefaultRebuildThreshold);

  /// Inserts one vector of length dim(), recycling a tombstoned slot when
  /// one exists (preferring the shard with free slots, then the smallest
  /// shard), and makes it visible to every updatable index of the owning
  /// shard; static indexes count staleness and rebuild at their threshold.
  /// Returns the id now serving the vector. The whole update commits
  /// atomically with respect to readers.
  ///
  /// The returned status reports the *mutation*: once the arguments
  /// validate, the vector is committed and the id returned. A failing
  /// index (re)build scheduled by the mutation does not fail the
  /// mutation — the slot drops out of service, the error is surfaced via
  /// Indexes().build_error, and the build is retried at the next
  /// mutation. (Same for Delete.)
  Result<uint32_t> Upsert(const float* vec, size_t len);

  /// Replaces the vector at live id `id` in place (the id keeps serving,
  /// now with the new vector). Structurally: erase + insert fused into one
  /// write transaction on the owning shard, so no reader ever sees the id
  /// absent. NotFound when `id` is not live.
  Result<uint32_t> Upsert(uint32_t id, const float* vec, size_t len);

  /// Deletes live id `id`: tombstones the row (so no index, updatable or
  /// not, can return it — enforced by the shared verification path) and
  /// removes it from every updatable index of the owning shard so the slot
  /// can be recycled. NotFound when `id` is not live.
  Status Delete(uint32_t id);

  /// Serves one query from the named index, or — with `index_name` empty —
  /// from the best-capable one: the built slot with the lowest staleness
  /// (ties resolve to insertion order, so put the preferred method first).
  /// On a sharded collection the query fans one task per shard onto the
  /// executor and the per-shard top-k merge is exact (see the class
  /// comment). Runs under the shard shared locks: safe to call from any
  /// number of threads concurrently with writers. NotFound for an unknown
  /// name, InvalidArgument when no index is built yet.
  Result<QueryResponse> Search(const float* query, const QueryRequest& request,
                               const std::string& index_name = "") const;

  /// Batched Search over every row of `queries`: response q equals
  /// Search(queries.row(q), request, index_name). The (query x shard) grid
  /// always runs on the collection's executor, at most `num_threads` cells
  /// at a time, each cell one shard's SearchShard, for every method alike.
  /// `num_threads = 0` uses hardware concurrency; pass 1 when timing
  /// per-query latency. A zero-row batch returns no responses, built or
  /// not.
  Result<std::vector<QueryResponse>> SearchBatch(
      const FloatMatrix& queries, const QueryRequest& request,
      const std::string& index_name = "", size_t num_threads = 0) const;

  /// Live vectors currently served (summed over shards).
  size_t size() const;

  /// Vector dimensionality.
  size_t dim() const;

  /// Number of shards the id space is partitioned into.
  size_t shards() const { return shards_.size(); }

  /// Committed-mutation counter: advances by exactly one per successful
  /// Upsert/Delete. Two equal observations bracket a mutation-free
  /// interval (the test suite uses this to validate read consistency).
  uint64_t epoch() const;

  /// Blocks until no background rebuild is scheduled or running, lending
  /// the calling thread to the executor while it waits (so a width-1 pool
  /// cannot starve the very task being awaited). No-op in inline mode.
  /// With writers quiescent, Indexes() observed afterwards is final.
  void WaitForRebuilds() const;

  /// Per-slot status snapshot, in insertion order (aggregated over shards
  /// — see CollectionIndexInfo).
  std::vector<CollectionIndexInfo> Indexes() const;

  /// The named index instance of shard `shard` (default: shard 0, the only
  /// shard of an unsharded collection), or nullptr when the name or shard
  /// is unknown. The pointer stays valid until the slot's next background
  /// rebuild swap-in, and using it bypasses the collection's locking —
  /// only touch it while no other thread mutates (intended for
  /// persistence, e.g. dynamic_cast to DbLsh + Save(), on shards == 1).
  /// Sharded instances speak local ids.
  const AnnIndex* GetIndex(const std::string& name, size_t shard = 0) const;

  /// Copy of the backing data (rows, tombstones and all) taken under the
  /// shared locks — a consistent basis for oracle checks and backups. On a
  /// sharded collection the per-shard matrices are re-assembled into the
  /// global id space; ids no shard has assigned yet come back tombstoned.
  /// Under quantized storage the rows are the store's decoded
  /// reconstruction (the fp32 originals are not retained).
  FloatMatrix Snapshot() const;

  /// Storage-backend report: kind, payload bytes per vector, re-rank
  /// depth, and resident store bytes per shard, taken under the shared
  /// locks.
  CollectionStorageInfo Storage() const;

  /// Takes a durable checkpoint: rotates every shard onto a fresh WAL
  /// segment, writes per-shard snapshots and the manifest (its atomic
  /// rename is the commit point), then deletes the superseded segments.
  /// Readers keep serving throughout; each shard's writer is excluded
  /// only for the in-memory state capture. Recovery cost after the call
  /// is proportional to the mutations since it. InvalidArgument when the
  /// collection has no `durability=` configured. Safe to call
  /// concurrently (checkpoints serialize).
  Status Checkpoint();

  /// Durability report: directory, compaction trigger and the checkpoint
  /// / compaction / WAL / recovery counters (all zero when durability is
  /// off).
  CollectionDurabilityInfo Durability() const;

  /// Marks the collection a read replica: every later Upsert/Delete
  /// returns Status::ReadOnly carrying `primary_hint` (the primary's
  /// address, so clients can redirect writes). Replicated records keep
  /// applying through ApplyReplicatedRecord, which bypasses the gate.
  /// Call before exposing the collection to traffic; not reversible.
  void SetReadOnly(const std::string& primary_hint);

  /// True once SetReadOnly was called.
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Applies one record shipped from a primary's WAL to shard
  /// `shard_index`, exactly like crash-recovery replay (erase-then-insert
  /// slot recycling with LIFO verification, trim count checks, quantizer
  /// retrains), so the replicated state is byte-identical to what
  /// reopening the primary's directory would rebuild. Also appends the
  /// record (with the primary's LSN) to this collection's own WAL so a
  /// restarted follower recovers locally and re-subscribes from its own
  /// LSN. Records at or below the shard's applied LSN are skipped
  /// (duplicate delivery after a reconnect); Corruption on divergence.
  Status ApplyReplicatedRecord(size_t shard_index,
                               const durability::WalRecord& record);

  /// Per-shard applied LSN: the LSN of the last mutation committed to (or
  /// replicated into) each shard. A follower re-subscribes from these; a
  /// primary reports them as the per-shard replication watermarks.
  std::vector<uint64_t> ShardAppliedLsns() const;

  /// Registers a replication pin: Checkpoint's segment GC keeps every WAL
  /// segment with sequence >= `min_seq` (across all shards) until the pin
  /// is released. `min_seq` 0 pins everything. Returns the pin id (0 when
  /// durability is off — nothing to pin). Used by the replication feed so
  /// a subscribed follower's position is never collected out from under
  /// it.
  uint64_t AcquireWalPin(uint64_t min_seq);

  /// Raises a pin's floor as the feed advances to newer segments.
  void UpdateWalPin(uint64_t pin, uint64_t min_seq);

  /// Releases a pin; superseded segments become collectable again at the
  /// next checkpoint.
  void ReleaseWalPin(uint64_t pin);

 private:
  struct Slot {
    std::string name;
    /// Factory spec the index was made from: the recipe background
    /// rebuilds and compactions build replacements from. Empty for a
    /// prebuilt adoption, which can only rebuild its own instance in place.
    std::string method_spec;
    std::unique_ptr<AnnIndex> index;
    bool built = false;
    size_t staleness = 0;
    size_t rebuild_threshold = kDefaultRebuildThreshold;
    size_t rebuilds = 0;
    /// True from background-rebuild scheduling until the task exits.
    bool rebuild_scheduled = false;
    std::string build_error;  ///< last failed automatic build, "" = healthy
  };

  /// One id-space partition: its rows, its index instances (local-id
  /// world), and its writer lock. All fields except the advisory atomics
  /// are guarded by `mutex`.
  struct Shard {
    mutable WriterPriorityMutex mutex;
    /// Owns the shard's row bytes (fp32 or quantized per
    /// CollectionOptions::storage) and the logical matrix behind `data`.
    std::unique_ptr<VectorStore> store;
    /// Cached &store->matrix(): the address-stable matrix every index of
    /// this shard is built over. Mutations go through `store` (it keeps
    /// the quantized payload in sync); shape/tombstone reads go here.
    FloatMatrix* data = nullptr;
    std::vector<Slot> slots;
    /// Bumps on every committed mutation of this shard; background
    /// tasks compare it against their snapshot to validate a landing.
    uint64_t version = 0;
    /// Advisory row/free-slot counts for lock-free insert routing; updated
    /// under `mutex`, read racily by PickInsertShard (routing balance,
    /// never correctness, depends on them).
    std::atomic<size_t> approx_rows{0};
    std::atomic<size_t> approx_free{0};
    /// LSN of the last mutation committed to (primary) or replicated into
    /// (follower) this shard; guarded by `mutex`. Checkpoint snapshots
    /// record it as their replay filter, and replication subscriptions
    /// resume from it.
    uint64_t applied_lsn = 0;
    /// Dead-row count the last compaction examined and could not reclaim
    /// (interior tombstones); the trigger re-fires only once dead rows
    /// exceed it.
    size_t compact_floor = 0;
    /// True from compaction scheduling until the task exits.
    bool compact_scheduled = false;
  };

  /// One shard's part of a fan-out search (see SearchShard).
  struct ShardAnswer {
    QueryResponse response;  ///< local ids
    Status status;           ///< routing error; OK when the shard served
    /// The shard could not route but holds no live rows: its error stands
    /// only when no shard can serve (see MergeShardAnswers).
    bool unroutable_empty = false;
  };

  /// Background-task target naming the shard's compaction (every slot,
  /// rebuilt over the trimmed rows) instead of one slot's rebuild.
  static constexpr size_t kCompaction = SIZE_MAX;

  /// The shard owning global id `id` (id % shards).
  size_t ShardOfId(uint32_t id) const { return id % shards_.size(); }
  /// The row of global id `id` inside its owning shard (id / shards).
  uint32_t LocalOfId(uint32_t id) const {
    return id / static_cast<uint32_t>(shards_.size());
  }
  /// Inverse mapping: the global id of `shard`'s row `local`.
  uint32_t GlobalId(size_t shard, uint32_t local) const {
    return local * static_cast<uint32_t>(shards_.size()) +
           static_cast<uint32_t>(shard);
  }

  // ----------------------------------------------------------- write path

  /// The shard a fresh Upsert routes to: prefer recycling (a shard with
  /// free slots), then the smallest shard; ties to the lowest index.
  size_t PickInsertShard() const;

  /// Applies one logged mutation to `shard_index`'s store and updatable
  /// indexes: the only code that changes a shard's rows, shared by primary
  /// writes, WAL replay and replicated records. kUpsert of a live id
  /// replaces it in place (erase + insert; the LIFO free list hands the
  /// slot straight back), of any other id inserts it; kDelete erases;
  /// kTrim drops the tombstoned tail (`global_id` carries the row count;
  /// the caller must replace every index in the same critical section —
  /// ReindexTrimmedLocked); kRetrain re-derives the quantizer and marks
  /// every built slot due for a rebuild. Corruption when the record
  /// diverges from the shard: an id of another shard, an erase of a dead
  /// row, an insert landing off the recorded row, a trim count mismatch.
  /// A failed structural Insert/Erase self-heals (the slot's staleness
  /// jumps to its threshold). Caller holds the shard's write lock (or owns
  /// the collection exclusively, as recovery does); `vec` carries dim()
  /// floats for kUpsert and is ignored otherwise.
  Status ApplyLocked(size_t shard_index, durability::WalOp op,
                     uint32_t global_id, const float* vec);

  /// Commit bookkeeping for one applied record: static and unbuilt slots
  /// age by one, the shard version and advisory counts move, and the
  /// applied LSN and the epoch advance. `lsn` 0 allocates the next epoch
  /// (a primary commit: exactly one epoch per mutation); otherwise the
  /// record keeps the primary's LSN and the epoch rises to it. Returns the
  /// LSN. Caller holds the shard's write lock.
  uint64_t CommitLocked(size_t shard_index, uint64_t lsn);

  /// The primary's write transaction, once the caller validated the
  /// arguments: ApplyLocked, CommitLocked, the WAL append, then the
  /// primary-only decisions — the quantizer retrain — and the rebuild and
  /// compaction triggers. A non-OK return after the apply means the
  /// in-memory commit stands but was NOT made durable (the caller must not
  /// acknowledge it; the poisoned writer fails every later mutation too,
  /// so the durable state stays a consistent prefix). A failing index
  /// (re)build never fails the write. Caller holds the shard's write lock.
  Status WriteLocked(size_t shard_index, durability::WalOp op,
                     uint32_t global_id, const float* vec);

  // ----------------------------------------------------------- durability

  /// Sets up a fresh durability directory (no manifest yet): state,
  /// initial checkpoint over the seed rows. Options already validated.
  Status InitDurability(const CollectionOptions& options);

  /// Rebuilds every shard's store from its snapshot and replays the WAL
  /// segments at/after `manifest.wal_seq` through ApplyLocked (records at
  /// or before each snapshot's LSN are skipped), then takes a checkpoint
  /// so the next open starts from a rotated, torn-tail-free log. Called on
  /// the empty shards of a just-constructed collection, before any index
  /// exists.
  Status RecoverShards(const CollectionOptions& options,
                       const durability::Manifest& manifest);

  /// Appends one record to `shard_index`'s WAL and counts it; OK without
  /// durability. IoError when the append fails or a failed checkpoint
  /// rotation left the shard without a live segment. Caller holds the
  /// shard's write lock.
  Status AppendWalLocked(size_t shard_index, uint64_t lsn,
                         durability::WalOp op, uint32_t id, const float* vec);

  // ---------------------------------------------- rebuilds and compaction

  /// The rebuild trigger a commit runs: lazy first builds of unbuilt slots
  /// over a non-empty shard and threshold rebuilds — inline, or scheduled
  /// in the background when enabled and the slot has a factory recipe.
  /// Caller holds the shard's write lock.
  void MaybeRebuildLocked(size_t shard_index);

  /// The compaction trigger a primary commit runs: schedules the shard's
  /// compaction once its tombstone ratio reaches the threshold with dead
  /// rows past compact_floor. Caller holds the shard's write lock.
  void MaybeCompactLocked(size_t shard_index);

  /// The one background scheduler: unless `target` (a slot index, or
  /// kCompaction) is already scheduled, flags it, counts it in
  /// bg_inflight_ and queues RunBackground. Caller holds the shard's write
  /// lock.
  void ScheduleLocked(size_t shard_index, size_t target);

  /// The one background loop, for rebuilds and compactions alike: snapshot
  /// under the shared lock, build off every lock, land under the write
  /// lock only if the version is unchanged. Its single exit clears the
  /// scheduled flag and re-runs the trigger check the flag suppressed, so
  /// a task that lost its race to a commit retries.
  void RunBackground(size_t shard_index, size_t target);

  /// Lands one finished build in `slot`: the only place a build's outcome
  /// is recorded. `replacement` (built off-lock over a snapshot proven
  /// equal to the live rows) is rebound to the live matrix; without one,
  /// or when its type lacks RebindData support, the slot's own instance
  /// rebuilds in place, over the decoded view `*view` shared by the
  /// caller's pass. Caller holds the shard's write lock.
  void InstallLocked(Shard& shard, Slot& slot,
                     std::unique_ptr<AnnIndex> replacement,
                     std::optional<ScopedDecodeView>* view);

  /// Replaces every index of `shard_index` after a trim, in the trim's
  /// critical section: an index still referencing a trimmed row would
  /// hand out ids past the new frontier. Slot i takes `replacements[i]`
  /// when present, else a built slot rebuilds in place; a shard left
  /// without live rows leaves every slot unbuilt for the next mutation's
  /// lazy build. Caller holds the shard's write lock.
  void ReindexTrimmedLocked(
      size_t shard_index,
      std::vector<std::unique_ptr<AnnIndex>> replacements);

  // ---------------------------------------------------------------- query

  /// Index of the slot serving `index_name` (or the best-capable slot when
  /// empty); negative on routing failure, with `*why` set. Caller holds at
  /// least the shard's shared lock.
  int RouteLocked(const Shard& shard, const std::string& index_name,
                  Status* why) const;

  /// The request shard `shard_index`'s index runs for the caller's
  /// `request`: under quantized storage k is inflated by `rerank`
  /// (RerankLocked cuts back to request.k), and a filter is rewritten into
  /// the shard's local ids. Returns `request` itself when neither applies,
  /// else `*local`, filled in.
  const QueryRequest& ShardRequest(size_t shard_index,
                                   const QueryRequest& request,
                                   QueryRequest* local) const;

  /// One shard's part of a fan-out search, under the shard's shared lock:
  /// route, inflate k (ShardRequest), search, then re-rank. Local ids in
  /// `out->response`.
  void SearchShard(size_t shard_index, const float* query,
                   const QueryRequest& request, const std::string& index_name,
                   ShardAnswer* out) const;

  /// Merges one query's per-shard answers (one per shard, in shard order)
  /// into a global response via a TopKHeap keyed on (distance, global id);
  /// stats are summed. The first routing error of a non-empty shard is
  /// returned; unroutable empty shards contribute nothing unless no shard
  /// can serve, in which case shard 0's error is returned.
  Result<QueryResponse> MergeShardAnswers(std::span<const ShardAnswer> answers,
                                          size_t k) const;

  /// Quantized-storage re-rank: rescores `response`'s neighbors (local
  /// ids, quantized-scored at inflated k) with the shard store's exact
  /// asymmetric distance and keeps the best `k`. Caller holds at least the
  /// shard's shared lock.
  void RerankLocked(const Shard& shard, const float* query, size_t k,
                    QueryResponse* response) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t dim_ = 0;
  exec::TaskExecutor* executor_;  ///< never null after construction
  bool background_rebuild_ = false;
  StorageKind storage_ = StorageKind::kFp32;
  bool quantized_ = false;  ///< storage_ != kFp32, hoisted for hot paths
  size_t pq_m_ = 16;        ///< CollectionOptions::pq_m (pq storage only)
  size_t rerank_ = 4;       ///< CollectionOptions::rerank, >= 1
  std::atomic<uint64_t> epoch_{0};

  /// Read-replica gate: set once (SetReadOnly) before traffic, read on
  /// every mutation. `read_only_message_` is written before the release
  /// store and immutable afterwards.
  std::atomic<bool> read_only_{false};
  std::string read_only_message_;

  /// Durability runtime state (WAL writers, checkpoint bookkeeping,
  /// counters); nullptr when durability is off. See
  /// core/collection_internal.h.
  std::unique_ptr<DurabilityState> durability_;

  // Background-task bookkeeping (rebuilds and compactions): count of
  // scheduled-but-unfinished tasks, waited on by WaitForRebuilds() and the
  // destructor.
  mutable std::mutex bg_mutex_;
  mutable std::condition_variable bg_cv_;
  mutable size_t bg_inflight_ = 0;
  bool closing_ = false;  ///< guarded by bg_mutex_
};

}  // namespace dblsh

#endif  // DBLSH_CORE_COLLECTION_H_
