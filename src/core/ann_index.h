#ifndef DBLSH_CORE_ANN_INDEX_H_
#define DBLSH_CORE_ANN_INDEX_H_

#include <cstdint>
#include <initializer_list>
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
/// Concurrency contract: Search() and Query() on a built index must be safe
/// to call from any number of threads at once. Every method keeps it the
/// same way: a query only reads the index's structures and dataset, and
/// its own state lives in locals, its CandidateVerifier and the calling
/// thread's QueryMarks (core/query_marks.h). Build(), Insert(), Erase()
/// and RebindData() write, so they must not overlap queries or each other.
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

  /// Builds the index over `data`, which must outlive the index, and
  /// points `data_` at it.
  virtual Status Build(const FloatMatrix* data) = 0;

  /// Returns (up to) the k approximate nearest neighbors of `query`,
  /// ascending by distance; none before a successful Build(). `stats`, if
  /// non-null, receives per-query instrumentation. Implementation hook —
  /// prefer Search().
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
  /// `num_threads`; `num_threads = 0` uses the hardware concurrency. Pass 1
  /// when timing per-query latency.
  std::vector<QueryResponse> QueryBatch(const FloatMatrix& queries,
                                        const QueryRequest& request,
                                        size_t num_threads = 0) const;

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
  /// Every method reads dataset rows only through `data_`, so repointing
  /// it is the whole rebind. InvalidArgument when the index is not built (its Build
  /// never set `data_`), `data` is null, or its shape differs from the
  /// built matrix's; the Collection then rebuilds in place. Content
  /// equality is the caller's contract and is not re-verified. Not
  /// thread-safe with concurrent queries — callers hold the exclusive lock.
  Status RebindData(const FloatMatrix* data);

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

 protected:
  /// The dataset every query reads rows from: set by Build, repointed by
  /// RebindData, null until a Build sets it.
  const FloatMatrix* data_ = nullptr;
};

/// The sizing check a Build makes before it allocates from its spec keys:
/// InvalidArgument, naming `what` and the factors, unless their product
/// fits size_t and a std::vector<T> that long can exist (max_size()). A
/// size in range may still be too large to allocate.
template <typename T>
Status CheckBuildSize(const std::string& what,
                      std::initializer_list<size_t> factors) {
  size_t total = 1;
  bool overflow = false;
  std::string values;
  for (const size_t f : factors) {
    overflow |= __builtin_mul_overflow(total, f, &total);
    values += (values.empty() ? "" : " * ") + std::to_string(f);
  }
  if (!overflow && total <= std::vector<T>().max_size()) return Status::OK();
  return Status::InvalidArgument(what + " = " + values +
                                 " exceeds the largest vector");
}

}  // namespace dblsh

#endif  // DBLSH_CORE_ANN_INDEX_H_
