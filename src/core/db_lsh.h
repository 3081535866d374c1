#ifndef DBLSH_CORE_DB_LSH_H_
#define DBLSH_CORE_DB_LSH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/ann_index.h"
#include "core/index_factory.h"
#include "core/query_marks.h"
#include "core/verify.h"
#include "dataset/float_matrix.h"
#include "dataset/vector_store.h"
#include "lsh/projection.h"
#include "rtree/rtree.h"
#include "util/status.h"

namespace dblsh {

/// How the query phase turns a projected space into buckets. Dynamic is
/// DB-LSH proper (query-centric hypercubes); Fixed reproduces the paper's
/// FB-LSH ablation, which keeps the identical (K,L)-index but uses
/// query-oblivious grid cells, re-introducing the hash-boundary problem.
enum class BucketingMode {
  kDynamicQueryCentric,
  kFixedGrid,
};

/// Construction parameters. Defaults mirror the paper's experimental
/// settings (Sec. VI-A): c = 1.5, w0 = 4c^2, L = 5, K = 12 for n > 1M and
/// K = 10 otherwise.
struct DbLshParams {
  double c = 1.5;    ///< approximation ratio (> 1)
  double w0 = 0.0;   ///< initial bucket width; 0 = auto (4 * c^2)
  size_t k = 0;      ///< hash functions per projected space; 0 = auto
  size_t l = 5;      ///< number of projected spaces (R*-trees)
  /// Candidate budget constant of Remark 2: a (c,k)-ANN query verifies at
  /// most 2tL + k candidates. 0 = auto: max(8, max(192, 4√n) / (2L)).
  size_t t = 0;
  /// Starting search radius r for the (r,c)-NN cascade; 0 = auto-estimated
  /// from a sample of nearest-neighbor distances so early rounds are not
  /// wasted on empty windows.
  double r0 = 0.0;
  /// Early-termination slack (the paper's Sec. VII future-work direction,
  /// in the spirit of I-LSH/EI-LSH): a round accepts the current k-th
  /// distance once it is within `early_stop_slack * c * r`. 1.0 (default)
  /// is the paper's exact condition; larger values stop earlier, trading
  /// the formal guarantee for speed (see the ablation bench).
  double early_stop_slack = 1.0;
  uint64_t seed = 42;
  BucketingMode bucketing = BucketingMode::kDynamicQueryCentric;
  /// Bulk-load the R*-trees (paper default). Set false for the
  /// insertion-based construction ablation.
  bool bulk_load = true;
};

/// DB-LSH: the paper's contribution. Indexing phase: project the dataset
/// into L K-dimensional spaces with independent 2-stable projections and
/// index each with an R*-tree (default rtree::RTreeOptions). Query phase:
/// answer a c-ANN query as a cascade of (r,c)-NN queries with r = r0,
/// c*r0, c^2*r0, ..., where each round issues L window queries with
/// query-centric hypercubic buckets of width w0*r (Algorithms 1 and 2).
class DbLsh : public AnnIndex {
 public:
  /// Stores `params`; auto-derived fields (w0, k, t, r0) are resolved by
  /// Build(), so params() is only meaningful after a successful build.
  explicit DbLsh(DbLshParams params = DbLshParams());

  /// "DB-LSH", or "FB-LSH" under the fixed-grid ablation bucketing.
  std::string Name() const override;
  /// Derives auto parameters (w0, K, t, r0), projects the dataset into the
  /// L spaces and builds one R*-tree per space. Live rows only when `data`
  /// carries tombstones. `data` must outlive the index. A c <= 1, l = 0,
  /// slack < 1 or a non-finite c, w0, r0 or slack is InvalidArgument.
  Status Build(const FloatMatrix* data) override;
  /// c-ANN query via the (r,c)-NN cascade. The visited stamps are the
  /// calling thread's QueryMarks, so concurrent calls are safe.
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  /// Honors the request's candidate-budget (`t` of Remark 2) and starting
  /// radius overrides, so one built index serves per-query accuracy/latency
  /// trades without rebuilding. AnnIndex::QueryBatch runs this per row.
  QueryResponse Search(const float* query,
                       const QueryRequest& request) const override;
  /// K*L: the paper's index-size proxy (n entries per hash function).
  size_t NumHashFunctions() const override { return params_.k * params_.l; }

  /// Dynamic updates — the structural payoff of "hash tables are just
  /// R*-trees": incremental R* insertion and deletion-with-reinsertion.
  bool SupportsUpdates() const override { return true; }
  /// Projects row `id` into the L spaces and R*-inserts it into each tree.
  /// See AnnIndex::Insert for the dataset-first update protocol. An id
  /// that is already indexed is rejected with InvalidArgument before any
  /// tree changes (Erase it first).
  Status Insert(uint32_t id) override;
  /// Removes `id` from all L trees (condense + orphan reinsertion). Call
  /// before the slot is recycled by FloatMatrix::InsertRow.
  Status Erase(uint32_t id) override;

  /// One (r,c)-NN round (Algorithm 1), exposed for tests and for the
  /// theoretical-guarantee property tests: returns a point within c*r of
  /// `query` if one is found under the 2tL+1 candidate budget, otherwise
  /// nothing (also on an unbuilt index).
  std::optional<Neighbor> RcNnQuery(const float* query, double r,
                                    QueryStats* stats = nullptr) const;

  /// Effective (post-auto-derivation) parameters; valid after Build().
  const DbLshParams& params() const { return params_; }

  /// Total entries across the L R*-trees (for index size accounting).
  size_t IndexEntries() const;

  /// Persists the built index (parameters, projection directions, projected
  /// points, and the dataset's tombstone set) to `path` in format version
  /// 4. The backing dataset itself is NOT stored — pass the same data to
  /// Load(); a checksum over its raw bytes is stored so a mismatched
  /// dataset is rejected rather than silently served. Each projected space
  /// is written as a row-per-id matrix exported from its tree
  /// (RStarTree::Point), with zeros for ids not in the index, which Load
  /// never reads. Trees are rebuilt by bulk loading on load, which is fast
  /// and keeps the file format simple and portable. Appended rows
  /// round-trip naturally.
  ///
  /// Storage backends: when the dataset is managed by a VectorStore
  /// (FloatMatrix::store()), the file records the backend tag and the
  /// store's params (VectorStore::EncodeParams), and the checksum covers
  /// the store's payload — the u8 codes for quantized stores, whose fp32
  /// payload is released. Quantized files are restored through
  /// LoadStore() + Load(path, VectorStore*).
  Status Save(const std::string& path) const;

  /// Restores an index saved with Save() over plain fp32 data (format
  /// version 2, or version 3/4 with the fp32 storage tag; sq8/pq-tagged
  /// files are rejected with InvalidArgument — use LoadStore + the
  /// VectorStore overload). `data` must hold the same bytes as the
  /// dataset the index
  /// was saved over — row count, dimensionality and content checksum are
  /// validated, returning InvalidArgument on any mismatch — and must
  /// outlive the returned index. The pointer is non-const because Load
  /// re-applies the saved tombstone set to `data` (erased rows are not
  /// persisted by fvecs files).
  static Result<DbLsh> Load(const std::string& path, FloatMatrix* data);

  /// Reconstructs the VectorStore an index file was saved over from the
  /// original fp32 dataset (as read from disk; tombstones are re-applied
  /// by the subsequent Load): VectorStore::Reencode with the *saved*
  /// params — an Fp32Store for an fp32-tagged (or version-2) file; sq8/pq
  /// re-encode `data`'s rows, never re-training, so the codes — and the
  /// stored payload checksum — come out byte-identical. Consumes `data` in
  /// all cases, including errors.
  static Result<std::unique_ptr<VectorStore>> LoadStore(
      const std::string& path, std::unique_ptr<FloatMatrix> data);

  /// Restores an index saved with Save() against an existing store
  /// (typically from LoadStore). The file's storage tag must match the
  /// store's kind, and the saved params and payload checksum are compared
  /// with the store's encoded ones (InvalidArgument on any mismatch).
  /// Saved tombstones are re-applied through the store. The store must
  /// outlive the returned index.
  static Result<DbLsh> Load(const std::string& path, VectorStore* store);

 private:
  /// Shared tail of the Load() overloads: parameters, projections,
  /// projected spaces, tombstone replay (through `store` when non-null so
  /// quantized backends stay in sync, else through `data`) and tree
  /// rebuild. `in` is positioned just past the store params.
  static Result<DbLsh> LoadIndexBody(util::PodReader* in,
                                     const std::string& path, uint64_t n,
                                     uint64_t dim, FloatMatrix* data,
                                     VectorStore* store);

  /// Replaces trees_ with one STR bulk-loaded R*-tree per projected space
  /// (`spaces[i]` is row-per-id, K wide) over the live rows of data_, in id
  /// order; frees each space once its tree holds the points. The one tree
  /// loader of Build (bulk_load) and LoadIndexBody.
  Status BulkLoadTrees(std::vector<FloatMatrix> spaces);

  /// Runs one round of L window queries at radius r around the query's
  /// projection `proj` (L*K floats, ProjectAll's layout), feeding the ids
  /// `marks` has not seen into `verifier` (which owns the heap, budget and
  /// certification bound) until the budget is exhausted or the k-th
  /// distance drops below c*r. Returns true when the query can terminate.
  bool RunRound(const float* proj, double r, CandidateVerifier* verifier,
                QueryMarks marks, QueryStats* stats) const;

  /// Shared query path: the (r,c)-NN cascade with an explicit candidate
  /// budget constant `t` and starting radius `r0` (the per-query override
  /// hooks of the QueryRequest API).
  std::vector<Neighbor> QueryImpl(const float* query, size_t k, size_t t,
                                  double r0, QueryStats* stats) const;

  rtree::Rect MakeBucket(const float* proj_center, size_t tree_index,
                         double width) const;

  DbLshParams params_;
  std::unique_ptr<lsh::ProjectionBank> bank_;  // l*k functions
  std::vector<rtree::RStarTree> trees_;        // one per projected space
  /// Random per-function grid offsets (the `b` of Eq. 1), used only by the
  /// FB-LSH fixed-grid mode so cell boundaries are unbiased.
  std::vector<float> grid_offsets_;
  double auto_r0_ = 1.0;
  /// Row ids the index has seen: the rows it was built or loaded over plus
  /// appended ones. The next appended id must equal it; Save writes this
  /// many rows per projected space.
  size_t indexed_rows_ = 0;
};

/// Applies spec keys (c, w0, k, l, t, r0, early_stop_slack, seed,
/// bulk_load, bucketing=dynamic|fixed) on top of `base`. Shared by the
/// DB-LSH and FB-LSH factory registrations.
Result<DbLshParams> DbLshParamsFromSpec(const IndexFactory::Spec& spec,
                                        DbLshParams base);

}  // namespace dblsh

#endif  // DBLSH_CORE_DB_LSH_H_
