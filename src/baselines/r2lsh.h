#ifndef DBLSH_BASELINES_R2LSH_H_
#define DBLSH_BASELINES_R2LSH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bptree/bplus_tree.h"
#include "core/ann_index.h"
#include "lsh/projection.h"

namespace dblsh {

/// Parameters for R2LSH (Lu & Kudo, ICDE 2020). The paper's settings:
/// m = 40 projections grouped into 20 two-dimensional spaces.
struct R2LshParams {
  double c = 1.5;
  size_t m = 40;            ///< total projections (2 per projected space)
  double collision_fraction = 0.0;  ///< 0 = auto, fraction of spaces
  double beta = 0.01;       ///< verification budget fraction of n
  uint64_t seed = 42;
};

/// R2LSH: collision counting over *two-dimensional* projected spaces rather
/// than QALSH's one-dimensional ones. Each space keeps a B+-tree on its
/// first coordinate; at radius R the query fetches points whose first
/// coordinate falls in a query-centric slab and admits those whose 2D
/// projected distance is within the disc of radius wR/2 (the paper's
/// query-centric ball). Points colliding in enough spaces are verified.
class R2Lsh : public AnnIndex {
 public:
  explicit R2Lsh(R2LshParams params = R2LshParams());

  std::string Name() const override { return "R2LSH"; }
  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  size_t NumHashFunctions() const override { return params_.m; }

  /// B+-tree-backed like QALSH, so updates are plain tree insert/delete on
  /// each 2D space's tree (keyed by the space's first coordinate).
  bool SupportsUpdates() const override { return true; }
  /// See AnnIndex::Insert for the dataset-first update protocol.
  Status Insert(uint32_t id) override;
  Status Erase(uint32_t id) override;

 private:
  R2LshParams params_;
  size_t num_spaces_ = 0;
  size_t collision_threshold_ = 0;
  double w_ = 1.0;       ///< disc diameter per unit radius, scaled to data
  double r_unit_ = 1.0;
  std::unique_ptr<lsh::ProjectionBank> bank_;
  FloatMatrix projected_;  // n x m ; space s uses columns (2s, 2s+1)
  std::vector<bptree::BPlusTree> trees_;  // one per space, keyed on dim 2s
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_R2LSH_H_
