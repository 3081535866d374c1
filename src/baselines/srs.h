#ifndef DBLSH_BASELINES_SRS_H_
#define DBLSH_BASELINES_SRS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ann_index.h"
#include "kdtree/kd_tree.h"
#include "lsh/projection.h"

namespace dblsh {

/// Parameters for SRS (Sun et al., PVLDB 2014), the original tiny-index
/// dynamic metric-query method (Table I's "MQ" row with m = 6).
struct SrsParams {
  double c = 1.5;
  size_t m = 6;        ///< projected dimensionality (SRS's headline: ~6)
  double beta = 0.08;  ///< candidate budget fraction of n (paper's T)
  /// Early-stop threshold on the chi-squared-style statistic: stop when
  /// (proj_dist / kth_true_dist)^2 exceeds `threshold * m` (the projected
  /// distance of a true k-NN concentrates around sqrt(m) * true distance).
  double threshold = 1.8;
  uint64_t seed = 42;
};

/// SRS: solve c-ANN with a tiny index — project to m ~ 6 dimensions and run
/// an incremental NN search in the projected space, verifying candidates in
/// the original space in projected order. Identical skeleton to PM-LSH
/// (which refined SRS) but with a much smaller m, so the projected ordering
/// is noisier and more verification is needed for the same recall: exactly
/// the trade Table I captures with its "beta*n" query cost.
class Srs : public AnnIndex {
 public:
  explicit Srs(SrsParams params = SrsParams());

  std::string Name() const override { return "SRS"; }
  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  size_t NumHashFunctions() const override { return params_.m; }

  /// SRS's paper argues updatability from its tree-backed projected index;
  /// this reproduction's kd-tree is bulk-built, so inserts land in a small
  /// *delta region* that queries verify exhaustively before walking the
  /// tree (memtable-plus-static-index style). Erases of delta points drop
  /// them from the delta; erases of tree-resident points rely on the
  /// dataset tombstone filter in the shared verification path.
  bool SupportsUpdates() const override { return true; }
  /// See AnnIndex::Insert for the dataset-first update protocol.
  Status Insert(uint32_t id) override;
  Status Erase(uint32_t id) override;

 private:
  SrsParams params_;
  std::unique_ptr<lsh::ProjectionBank> bank_;
  FloatMatrix projected_;
  std::unique_ptr<kdtree::KdTree> tree_;
  // Rows covered by the bulk-built kd-tree (ids below this that are
  // recycled stay tree-resident; ids at/above it live in the delta).
  size_t tree_rows_ = 0;
  // Dynamic-update state: ids inserted after Build and not in the kd-tree.
  // `in_delta_` is an id-indexed membership flag (sized lazily) so the
  // query loop can dedup tree hits against the delta in O(1).
  std::vector<uint32_t> delta_ids_;
  std::vector<uint8_t> in_delta_;
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_SRS_H_
