#ifndef DBLSH_CORE_ANN_INDEX_H_
#define DBLSH_CORE_ANN_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "dataset/float_matrix.h"
#include "util/status.h"
#include "util/top_k_heap.h"

namespace dblsh {

/// Common interface implemented by DB-LSH and every baseline so the
/// evaluation harness and the benches can sweep methods uniformly.
///
/// Lifecycle: construct (usually via IndexFactory::Make("Name,key=value")),
/// Build() over a dataset, then answer queries through Search() /
/// QueryBatch(). The narrow `Query(ptr, k, stats*)` virtual remains as the
/// per-method implementation hook; new callers use the request/response
/// API, which folds QueryStats into the result.
///
/// Serving note: AnnIndex is the per-method plumbing layer. Applications
/// that own a mutable dataset, want several methods over it, need
/// concurrent reads under writes, or want the update protocol sequenced
/// for them should use dblsh::Collection (core/collection.h) — the façade
/// that wraps any number of AnnIndex instances behind one transactional
/// Upsert/Delete/Search surface. The raw Insert()/Erase() protocol below
/// remains available for single-index, single-threaded callers.
class AnnIndex {
 public:
  virtual ~AnnIndex() = default;

  /// Method name as used in the paper's tables, e.g. "DB-LSH".
  virtual std::string Name() const = 0;

  /// Builds the index over `data`, which must outlive the index.
  virtual Status Build(const FloatMatrix* data) = 0;

  /// Returns (up to) the k approximate nearest neighbors of `query`,
  /// ascending by distance. `stats`, if non-null, receives per-query
  /// instrumentation. Implementation hook — prefer Search().
  virtual std::vector<Neighbor> Query(const float* query, size_t k,
                                      QueryStats* stats = nullptr) const = 0;

  /// Answers one query described by `request`. The base implementation
  /// forwards to Query(query, request.k); methods with per-query knobs
  /// (DB-LSH's candidate budget / starting radius) override it to honor
  /// the request's overrides. Every implementation (base and overrides)
  /// installs `request.filter` into the shared verification path for the
  /// duration of the call, so filtered search works identically for all
  /// methods — overriders must do the same (see core/verify.h's
  /// ScopedQueryFilter).
  virtual QueryResponse Search(const float* query,
                               const QueryRequest& request) const;

  /// Answers every row of `queries` under one request: response q equals
  /// Search(queries.row(q), request). The rows run on the default executor
  /// (TaskExecutor::Default().ParallelFor) at a parallelism of
  /// `num_threads` when the index declares its read path thread-safe
  /// (SupportsConcurrentQueries), and sequentially on the caller
  /// otherwise, so it is always safe to call. `num_threads = 0` uses the
  /// hardware concurrency; pass 1 when timing per-query latency.
  std::vector<QueryResponse> QueryBatch(const FloatMatrix& queries,
                                        const QueryRequest& request,
                                        size_t num_threads = 0) const;

  /// True when concurrent Search() calls on one built index are safe. The
  /// default is false: most LSH baselines keep epoch-stamped per-query
  /// scratch in `mutable` members, making them thread-compatible but not
  /// thread-safe. LinearScan (reentrant read path) and DB-LSH/FB-LSH
  /// (thread-local query scratch) opt in, which is what lets a Collection
  /// serve them to many reader threads under one shared lock; Collection
  /// serializes queries to the remaining methods per index.
  virtual bool SupportsConcurrentQueries() const { return false; }

  /// True when this built index implements Insert()/Erase() natively, i.e.
  /// its structures can absorb point mutations without a rebuild. Methods
  /// whose structures are R-trees/B+-trees (DB-LSH, QALSH, R2LSH, VHP) or
  /// that keep a scanned delta region (SRS) opt in; purely static layouts
  /// return false and their Insert()/Erase() return Unimplemented.
  ///
  /// Erasure note: even for SupportsUpdates() == false methods, tombstoning
  /// a row in the backing FloatMatrix (FloatMatrix::EraseRow) guarantees
  /// the id never appears in results — the shared verification path filters
  /// it. What Unimplemented means is only that the *structure* cannot be
  /// updated in place (inserted points stay invisible, erased slots cannot
  /// be recycled safely) and a rebuild is required to resync.
  virtual bool SupportsUpdates() const { return false; }

  /// Makes row `id` of the backing dataset visible to this index's queries.
  ///
  /// Update protocol (one mutable dataset shared by any number of indexes):
  ///   1. uint32_t id = data.InsertRow(vec, dim);   // storage + id
  ///   2. for every built index: index->Insert(id); // structures
  /// Preconditions: the index is built, `id` is a live row, and `id` is not
  /// currently held by this index's structures (fresh append, or a recycled
  /// slot this index Erase()d first). Appended ids must arrive densely (in
  /// increasing order without gaps), which InsertRow guarantees.
  /// Returns Unimplemented when SupportsUpdates() is false, InvalidArgument
  /// on protocol violations. Not thread-safe with concurrent queries.
  virtual Status Insert(uint32_t id);

  /// Repoints the built index's dataset reads at `data`, which must hold
  /// exactly the same logical content (row count, values, tombstone set) as
  /// the matrix the index was built over — only the storage moved. This is
  /// the swap-in hook for Collection's background rebuilds: a replacement
  /// index is built over a snapshot copy off the write lock, then rebound
  /// to the live matrix under it once the shard is verified unchanged.
  /// Every registered method implements it (the verification path reads
  /// rows through one stored matrix pointer); the default returns
  /// Unimplemented, which makes the Collection fall back to an inline
  /// rebuild for exotic external indexes. Not thread-safe with concurrent
  /// queries — callers hold the exclusive lock.
  virtual Status RebindData(const FloatMatrix* data);

  /// Removes row `id` from this index's structures so its slot can later be
  /// recycled by FloatMatrix::InsertRow.
  ///
  /// Update protocol:
  ///   1. data.EraseRow(id);                        // tombstone: id stops
  ///      // surfacing from every index sharing `data`, updatable or not
  ///   2. for every built index: index->Erase(id);  // structural removal
  /// Step 2 must happen before the slot is reused — stale structure entries
  /// for a *recycled* slot would resurface under the new vector's identity.
  /// Returns Unimplemented when SupportsUpdates() is false, NotFound when
  /// the id is not held. Not thread-safe with concurrent queries.
  virtual Status Erase(uint32_t id);

  /// Number of hash functions held, the paper's proxy for index size
  /// (IndexSize = n x #HashFunctions for all methods except LSB-Forest).
  virtual size_t NumHashFunctions() const = 0;
};

namespace detail {

/// Shared precondition check for the RebindData implementations: the index
/// must be built (`current` non-null) and `target` must match its shape.
/// Content equality is the caller's contract — it is what makes the
/// pointer swap sound — and is not re-verified here.
Status ValidateRebind(const std::string& method, const FloatMatrix* current,
                      const FloatMatrix* target);

}  // namespace detail

}  // namespace dblsh

#endif  // DBLSH_CORE_ANN_INDEX_H_
